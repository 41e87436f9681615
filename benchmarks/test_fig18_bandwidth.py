"""Fig. 18: fraction of channel bandwidth consumed by data migration.

Paper: Auto-rw trims migration bandwidth 8 %/17 %; Ohm-WOM cuts it 54 %
in planar mode and fully eliminates it in two-level mode.
"""

from conftest import bench_once, report

from repro.harness.experiments import BANDWIDTH_PLATFORMS, make_fig18_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS


def test_fig18_bandwidth(benchmark, runner):
    data = bench_once(benchmark, run_spec, make_fig18_spec(), runner).payload
    for mode, fig in data.items():
        rows = [
            tuple([w] + [fig.values[(w, p)] for p in BANDWIDTH_PLATFORMS])
            for w in WORKLOADS
        ]
        report()
        report(
            format_table(
                ["workload"] + list(BANDWIDTH_PLATFORMS),
                rows,
                title=f"Fig. 18 ({mode}) — migration share of channel bandwidth",
            )
        )
        means = {p: fig.mean_over_workloads(p) for p in BANDWIDTH_PLATFORMS}
        report("means: " + "  ".join(f"{p}={v:.3f}" for p, v in means.items()))
        assert means["Auto-rw"] < means["Ohm-base"]
        assert means["Ohm-WOM"] < 0.05  # dual routes take migration off-route
        assert means["Ohm-BW"] < 0.05
