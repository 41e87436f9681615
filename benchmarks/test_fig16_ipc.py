"""Fig. 16: IPC of the seven GPU platforms, normalized to Ohm-base.

Paper claims: Origin is 42 % below Hetero; Hetero ~= Ohm-base; Auto-rw
+9 %/+4 % (planar/two-level); Ohm-WOM +18 %/+16 % over Auto-rw; Ohm-BW
+4 % over Ohm-WOM in planar; Ohm-BW reaches 88 % of Oracle.
"""

from conftest import bench_once, report

from repro.harness.experiments import FIG16_PLATFORMS, make_fig16_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS


def test_fig16_ipc(benchmark, runner):
    data = bench_once(benchmark, run_spec, make_fig16_spec(), runner).payload
    for mode, fig in data.items():
        rows = [
            tuple([w] + [fig.values[(w, p)] for p in FIG16_PLATFORMS])
            for w in WORKLOADS
        ]
        report()
        report(
            format_table(
                ["workload"] + list(FIG16_PLATFORMS),
                rows,
                title=f"Fig. 16 ({mode}) — IPC normalized to Ohm-base",
            )
        )
        means = {p: fig.mean_over_workloads(p) for p in FIG16_PLATFORMS}
        report("means: " + "  ".join(f"{p}={v:.3f}" for p, v in means.items()))
        # Qualitative shape: every migration function helps, Oracle wins.
        assert means["Auto-rw"] >= means["Ohm-base"] * 0.99
        assert means["Ohm-WOM"] > means["Auto-rw"]
        assert means["Oracle"] > means["Ohm-BW"]
        # Hetero and Ohm-base are equivalent at equal channel bandwidth.
        assert abs(means["Hetero"] - 1.0) < 0.05
