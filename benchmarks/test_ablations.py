"""Ablation studies of Ohm-GPU's design choices (beyond the paper's own
figures, as listed in DESIGN.md):

* migration-function ablation — which of auto-read/write / swap /
  reverse-write contributes how much;
* hot-threshold sensitivity — planar migration aggressiveness;
* WOM coding vs half-coupled transmitters — the bandwidth/laser-power
  trade (Section V-B's two dual-route alternatives).

All three run through the session's shared experiment service (the
``runner`` fixture) as declarative job batches, so they reuse its
executor, memo and persistent cache instead of a private simulation
path.
"""

from conftest import bench_once, report

from repro import MemoryMode, SimulationJob
from repro.core.platforms import PLATFORMS
from repro.harness.executor import SIZING_PRESETS
from repro.harness.report import format_table
from repro.harness.sweeps import sweep_hot_threshold

SIZING = SIZING_PRESETS["cli"]
APP = "backp"


def _jobs(platforms):
    return [
        SimulationJob(p, APP, MemoryMode.PLANAR, SIZING) for p in platforms
    ]


def test_ablation_function_stack(benchmark, runner):
    """Cumulative contribution of each migration function (planar)."""

    def run():
        platforms = ("Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW")
        jobs = _jobs(platforms)
        results = runner.run_jobs(jobs)
        base = results[jobs[0]].exec_time_ps
        return [
            (p, base / results[j].exec_time_ps, results[j].migration_bandwidth_fraction)
            for p, j in zip(platforms, jobs)
        ]

    rows = bench_once(benchmark, run)
    report()
    report(
        format_table(
            ["platform", "speedup_vs_base", "migration_bw"],
            rows,
            title=f"Ablation — migration-function stack ({APP}, planar)",
        )
    )
    speedups = {p: s for p, s, _ in rows}
    assert speedups["Auto-rw"] >= 1.0
    assert speedups["Ohm-WOM"] >= speedups["Auto-rw"]


def test_ablation_hot_threshold(benchmark, runner):
    """Planar hot-threshold sweep: migration volume vs performance."""

    def run():
        points = sweep_hot_threshold(
            workload=APP,
            thresholds=(6, 14, 28, 56),
            sizing=SIZING,
            runner=runner,
        )
        return [
            (
                int(p.value),
                p.result.counters.get("mem.swaps", 0),
                p.result.migration_bandwidth_fraction,
                p.result.exec_time_ps / 1e6,
            )
            for p in points
        ]

    rows = bench_once(benchmark, run)
    report()
    report(
        format_table(
            ["hot_threshold", "swaps", "migration_bw", "exec_us"],
            rows,
            title=f"Ablation — hot-page threshold ({APP}, planar, Ohm-base)",
        )
    )
    swaps = [r[1] for r in rows]
    # Lower thresholds must migrate at least as often as higher ones.
    assert all(a >= b for a, b in zip(swaps, swaps[1:]))


def test_ablation_wom_vs_bw_laser_tradeoff(benchmark, runner):
    """WOM coding saves laser power (2x vs 4x) but costs data-route
    bandwidth during swaps; half-coupled transmitters do the reverse."""

    def run():
        jobs = _jobs(("Ohm-WOM", "Ohm-BW"))
        results = runner.run_jobs(jobs)
        return {
            j.platform: (results[j].exec_time_ps, PLATFORMS[j.platform].laser_scale)
            for j in jobs
        }

    out = bench_once(benchmark, run)
    wom_t, wom_laser = out["Ohm-WOM"]
    bw_t, bw_laser = out["Ohm-BW"]
    report(
        f"\nOhm-WOM: exec {wom_t / 1e6:.1f} us at {wom_laser:.0f}x laser\n"
        f"Ohm-BW : exec {bw_t / 1e6:.1f} us at {bw_laser:.0f}x laser"
    )
    # BW is at least as fast up to scheduling noise (the WOM penalty is
    # small at bench scale), while WOM needs half the laser power — the
    # two sides of the Section V-B trade-off.
    assert bw_t <= wom_t * 1.05
    assert wom_laser < bw_laser
