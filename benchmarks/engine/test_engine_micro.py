"""Microbenchmark for the engine's warp lane, in isolation.

The perf suite (``repro perf``) reports one headline events/sec number
per workload; when that regresses, this microbench tells whether the
loss is in the warp lane's per-event dispatch, without re-profiling the
whole model.  Workloads are sized so a round finishes
in milliseconds; pytest-benchmark's OPS column is the figure of merit.
"""

from __future__ import annotations

from repro.sim.engine import Engine

LANE_WARPS = 64
LANE_STEPS_PER_WARP = 50


def _drain_lane() -> int:
    """Step LANE_WARPS warps LANE_STEPS_PER_WARP times each through the
    typed lane (per-event dispatch — the engine-side lane cost, without
    the GPU model's fused drain on top)."""
    eng = Engine()
    remaining = [LANE_STEPS_PER_WARP] * LANE_WARPS

    def step(warp: int, phase: int) -> None:
        r = remaining[warp] - 1
        remaining[warp] = r
        if r:
            eng.lane_schedule(warp, eng.now + 100, 1)

    eng.attach_warp_lane(LANE_WARPS, step)
    for w in range(LANE_WARPS):
        eng.lane_schedule(w, w, 1)
    eng.run()
    return eng.events_processed


def test_warp_lane_step(benchmark):
    processed = benchmark.pedantic(_drain_lane, rounds=3, iterations=1)
    assert processed == LANE_WARPS * LANE_STEPS_PER_WARP

