"""Tests for the design-space sweep utilities."""

from repro.config import MemoryMode
from repro.harness.runner import RunConfig
from repro.harness.sweeps import (
    sweep_config,
    sweep_hot_threshold,
    sweep_xpoint_read_latency,
)

TINY = RunConfig(num_warps=12, accesses_per_warp=16)


def sweep_waveguide_counts(counts):
    """Fig. 20a's knob, through the generic config sweep."""
    return sweep_config(
        "Ohm-base",
        "GRAMS",
        MemoryMode.PLANAR,
        counts,
        lambda cfg, v: cfg.with_waveguides(int(v)),
        sizing=TINY,
    )


class TestSweeps:
    def test_hot_threshold_sweep_monotone_swaps(self):
        points = sweep_hot_threshold(thresholds=(6, 48), sizing=TINY)
        swaps = [p.result.counters.get("mem.swaps", 0) for p in points]
        assert swaps[0] >= swaps[1]

    def test_waveguide_sweep_never_slows(self):
        points = sweep_waveguide_counts((1, 8))
        assert points[1].result.exec_time_ps <= points[0].result.exec_time_ps

    def test_xpoint_latency_sweep_monotone(self):
        points = sweep_xpoint_read_latency(latencies_ns=(95.0, 760.0), sizing=TINY)
        assert points[0].result.exec_time_ps <= points[1].result.exec_time_ps

    def test_points_carry_values(self):
        points = sweep_waveguide_counts((2,))
        assert points[0].value == 2
        assert points[0].result.demand_requests == 12 * 16
