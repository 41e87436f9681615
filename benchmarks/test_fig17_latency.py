"""Fig. 17: mean memory access latency normalized to Ohm-base.

Paper: Auto-rw cuts latency 14 %/4 %; Ohm-WOM another 28 %/24 %; Ohm-BW
another 6 % in planar mode.
"""

from conftest import bench_once, report

from repro.harness.experiments import LATENCY_PLATFORMS, make_fig17_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS


def test_fig17_latency(benchmark, runner):
    data = bench_once(benchmark, run_spec, make_fig17_spec(), runner).payload
    for mode, fig in data.items():
        rows = [
            tuple([w] + [fig.values[(w, p)] for p in LATENCY_PLATFORMS])
            for w in WORKLOADS
        ]
        report()
        report(
            format_table(
                ["workload"] + list(LATENCY_PLATFORMS),
                rows,
                title=f"Fig. 17 ({mode}) — memory latency normalized to Ohm-base",
            )
        )
        means = {p: fig.mean_over_workloads(p) for p in LATENCY_PLATFORMS}
        report("means: " + "  ".join(f"{p}={v:.3f}" for p, v in means.items()))
        assert means["Auto-rw"] <= 1.01
        assert means["Ohm-WOM"] < means["Auto-rw"]
        assert means["Oracle"] == min(means.values())
