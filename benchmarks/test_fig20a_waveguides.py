"""Fig. 20a: performance vs number of optical waveguides.

Paper: with 8 waveguides Ohm-base outperforms Hetero by 41 % and Ohm-BW
gains a further 17 % — the optical channel's bandwidth scales where the
electrical one cannot.
"""

from conftest import bench_once, report

from repro.harness.experiments import make_fig20a_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.harness.runner import RunConfig, Runner


def test_fig20a_waveguide_sweep(benchmark):
    runner = Runner(RunConfig(num_warps=96, accesses_per_warp=48))
    rows = bench_once(benchmark, run_spec, make_fig20a_spec(), runner).payload
    report()
    report(
        format_table(
            ["waveguides", "platform", "norm_performance_vs_Hetero"],
            [(r["waveguides"], r["platform"], r["norm_performance"]) for r in rows],
            title="Fig. 20a — performance vs optical waveguides (planar)",
        )
    )
    by_key = {(r["waveguides"], r["platform"]): r["norm_performance"] for r in rows}
    # More waveguides never hurt and eventually beat the electrical
    # baseline for both optical platforms.
    assert by_key[(8, "Ohm-base")] >= by_key[(1, "Ohm-base")]
    assert by_key[(8, "Ohm-base")] > 1.0
    assert by_key[(8, "Ohm-BW")] >= by_key[(8, "Ohm-base")]
