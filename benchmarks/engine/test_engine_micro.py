"""Microbenchmarks for the engine primitives, each in isolation.

The perf suite (``repro perf``) reports one headline events/sec number
per workload; when that regresses, these microbenches localize the loss
to a layer — the warp lane's per-event dispatch or the cache probe —
without re-profiling the whole model.  Workloads are sized so a round
finishes in milliseconds; pytest-benchmark's OPS column is the figure
of merit.
"""

from __future__ import annotations

from repro.gpu.cache import SetAssocCache
from repro.sim.engine import Engine

LANE_WARPS = 64
LANE_STEPS_PER_WARP = 50

CACHE_LINES = 256
CACHE_PASSES = 20
LINE_BYTES = 64


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


def _probe_cache() -> int:
    """Hit-probe a warm set-associative cache CACHE_PASSES times."""
    cache = SetAssocCache(64 * 1024, 8, LINE_BYTES)
    access = cache.access
    for line in range(CACHE_LINES):  # warm fill (cold misses)
        access(line * LINE_BYTES, False)
    for _ in range(CACHE_PASSES):
        for line in range(CACHE_LINES):
            access(line * LINE_BYTES, False)
    return cache.stats.hits


def test_warp_lane_step(benchmark):
    processed = benchmark.pedantic(_drain_lane, rounds=3, iterations=1)
    assert processed == LANE_WARPS * LANE_STEPS_PER_WARP


def test_cache_hit_probe(benchmark):
    hits = benchmark.pedantic(_probe_cache, rounds=3, iterations=1)
    assert hits == CACHE_LINES * CACHE_PASSES
