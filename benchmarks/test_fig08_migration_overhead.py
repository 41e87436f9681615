"""Fig. 8: migration overhead of the baseline Ohm memory system.

Paper: data migration consumes 39 % (planar) / 26 % (two-level) of the
memory bandwidth and inflates mean memory latency by 54 % / 47 % over an
Oracle with a dedicated migration channel.
"""

from conftest import bench_once, report

from repro.harness.experiments import make_fig8_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS


def test_fig8_migration_overhead(benchmark, runner):
    data = bench_once(benchmark, run_spec, make_fig8_spec(), runner).payload
    for mode, fig in data.items():
        rows = [
            (
                w,
                fig.values[(w, "migration_bw_frac")],
                fig.values[(w, "latency_vs_oracle")],
            )
            for w in WORKLOADS
        ]
        report()
        report(
            format_table(
                ["workload", "migration_bw_frac", "latency_vs_oracle"],
                rows,
                title=f"Fig. 8 ({mode}) — baseline migration overhead",
            )
        )
        mig = fig.mean_over_workloads("migration_bw_frac")
        lat = fig.mean_over_workloads("latency_vs_oracle")
        paper_mig = 0.39 if mode == "planar" else 0.26
        paper_lat = 1.54 if mode == "planar" else 1.47
        report(
            f"mean migration bw {mig:.2f} (paper {paper_mig}); "
            f"latency vs oracle {lat:.2f} (paper {paper_lat})"
        )
        # Shape assertions: migration consumes a substantial fraction and
        # the baseline is clearly slower than Oracle.
        assert mig > 0.08
        assert lat > 1.2
