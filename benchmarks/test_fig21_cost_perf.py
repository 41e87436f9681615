"""Fig. 21: cost-performance ratio of Origin, Ohm-BW and Oracle.

Paper: Ohm-BW's CP ratio is 155 % above Origin and 24 % above Oracle —
the performance gain overwhelms the added hardware cost.
"""

from conftest import bench_once, report

from repro.harness.experiments import make_fig21_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS


def test_fig21_cost_performance(benchmark, runner):
    data = bench_once(benchmark, run_spec, make_fig21_spec(), runner).payload
    for mode, fig in data.items():
        rows = [
            (w, fig.values[(w, "Origin")], fig.values[(w, "Ohm-BW")], fig.values[(w, "Oracle")])
            for w in WORKLOADS
        ]
        report()
        report(
            format_table(
                ["workload", "Origin", "Ohm-BW", "Oracle"],
                rows,
                title=f"Fig. 21 ({mode}) — cost-performance (norm. to Origin cost)",
            )
        )
        means = {p: fig.mean_over_workloads(p) for p in ("Origin", "Ohm-BW", "Oracle")}
        report("means: " + "  ".join(f"{p}={v:.3f}" for p, v in means.items()))
        report(
            f"Ohm-BW CP vs Origin: {means['Ohm-BW'] / means['Origin'] - 1:+.0%} "
            f"(paper +155%); vs Oracle: {means['Ohm-BW'] / means['Oracle'] - 1:+.0%} "
            f"(paper +24%)"
        )
        # Shape: Ohm-BW clearly beats Origin on cost-performance.  (Our
        # simulated Oracle gap is wider than the paper's, so the Ohm-BW
        # vs Oracle CP comparison is reported but not asserted — see
        # EXPERIMENTS.md.)
        assert means["Ohm-BW"] > means["Origin"]
