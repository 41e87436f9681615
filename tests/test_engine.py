"""Tests for the discrete-event engine."""

import pytest

from repro.config import MemoryMode
from repro.core.platforms import PLATFORMS
from repro.gpu.gpu import GpuModel
from repro.harness.executor import RunConfig, SimulationJob, traces_for
from repro.sim.engine import Engine, freq_ghz_to_period_ps, ns, us
from repro.workloads.registry import get_workload_def


class TestTimeHelpers:
    def test_ns_converts_to_ps(self):
        assert ns(1) == 1_000
        assert ns(0.5) == 500

    def test_us_converts_to_ps(self):
        assert us(2) == 2_000_000

    def test_period_of_1ghz_is_1000ps(self):
        assert freq_ghz_to_period_ps(1.0) == 1000

    def test_period_of_30ghz_rounds(self):
        assert freq_ghz_to_period_ps(30.0) == 33

    def test_period_never_zero(self):
        assert freq_ghz_to_period_ps(5000.0) == 1

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            freq_ghz_to_period_ps(0.0)


def lane_engine(num_warps=8, step=None):
    """(engine, seen): a lane whose default step logs ``(now, warp, phase)``."""
    eng = Engine()
    seen = []

    def log(warp, phase):
        seen.append((eng.now, warp, phase))

    eng.attach_warp_lane(num_warps, step or log)
    return eng, seen


class TestEngine:
    def test_events_run_in_time_order(self):
        eng, seen = lane_engine()
        eng.lane_schedule(0, 50, 1)
        eng.lane_schedule(1, 10, 2)
        eng.run()
        assert seen == [(10, 1, 2), (50, 0, 1)]

    def test_equal_timestamps_run_in_schedule_order(self):
        eng, seen = lane_engine()
        for w in (3, 1, 4, 0, 2):
            eng.lane_schedule(w, 7, 0)
        eng.run()
        assert [warp for _, warp, _ in seen] == [3, 1, 4, 0, 2]

    def test_now_advances_with_events(self):
        eng, seen = lane_engine()
        eng.lane_schedule(0, 5, 0)
        eng.lane_schedule(1, 9, 0)
        eng.run()
        assert [now for now, _, _ in seen] == [5, 9]
        assert eng.now == 9

    def test_nested_scheduling(self):
        # A step schedules its warp's successor; the successor runs in
        # the same drain, after the step that scheduled it.
        seen = []

        def step(warp, phase):
            seen.append((eng.now, phase))
            if phase == 0:
                eng.lane_schedule(warp, eng.now + 3, 1)

        eng, _ = lane_engine(step=step)
        eng.lane_schedule(0, 2, 0)
        eng.run()
        assert seen == [(2, 0), (5, 1)]

    def test_max_events_cap(self):
        eng, seen = lane_engine(num_warps=10)
        for w in range(10):
            eng.lane_schedule(w, w + 1, 0)
        eng.run(max_events=3)
        assert [warp for _, warp, _ in seen] == [0, 1, 2]
        assert eng.events_processed == 3
        assert eng.pending() == 7

    def test_scheduling_into_the_past_rejected(self):
        eng, _ = lane_engine()
        eng.lane_schedule(0, 100, 0)
        eng.run()
        with pytest.raises(ValueError):
            eng.lane_schedule(1, 50, 0)

    def test_events_processed_counter(self):
        eng, _ = lane_engine()
        for w in range(4):
            eng.lane_schedule(w, 1, 0)
        eng.run()
        assert eng.events_processed == 4


class TestEngineEdgeCases:
    def test_max_events_counts_events_spawned_mid_run(self):
        seen = []

        def spawner(warp, phase):
            seen.append(eng.now)
            eng.lane_schedule(warp, eng.now + 1, 0)

        eng, _ = lane_engine(step=spawner)
        eng.lane_schedule(0, 0, 0)
        eng.run(max_events=5)  # would otherwise loop forever
        assert seen == [0, 1, 2, 3, 4]
        assert eng.pending() == 1

    def test_max_events_zero_processes_nothing(self):
        eng, seen = lane_engine()
        eng.lane_schedule(0, 1, 0)
        eng.run(max_events=0)
        assert seen == []
        assert eng.pending() == 1
        assert eng.events_processed == 0

    def test_zero_delay_runs_at_current_time(self):
        eng, seen = lane_engine()
        eng.lane_schedule(0, 3, 0)
        eng.run()
        eng.lane_schedule(0, eng.now, 1)
        eng.run()
        assert seen == [(3, 0, 0), (3, 0, 1)]

    def test_past_scheduling_rejected_after_time_advances(self):
        eng, _ = lane_engine()
        eng.lane_schedule(0, 100, 0)
        eng.run()
        with pytest.raises(ValueError):
            eng.lane_schedule(0, 99, 0)
        eng.lane_schedule(0, 100, 0)  # the current instant is still legal
        eng.run()
        assert eng.now == 100

    def test_callback_scheduling_into_its_own_past_rejected(self):
        failures = []

        def step(warp, phase):
            try:
                eng.lane_schedule(warp, eng.now - 1, 0)
            except ValueError:
                failures.append(eng.now)

        eng, _ = lane_engine(step=step)
        eng.lane_schedule(0, 10, 0)
        eng.run()
        assert failures == [10]


class TestWarpLane:
    """Lane bookkeeping: per-warp slots and the attach preconditions."""

    def test_one_pending_event_per_warp_enforced(self):
        eng, _ = lane_engine()
        eng.lane_schedule(0, 10, 1)
        with pytest.raises(RuntimeError):
            eng.lane_schedule(0, 20, 2)

    def test_lane_scheduling_into_the_past_rejected(self):
        # A rejected schedule leaves the warp's slot idle: the warp can
        # still be scheduled at a legal time afterwards.
        eng, seen = lane_engine()
        eng.lane_schedule(0, 10, 1)
        eng.run()
        with pytest.raises(ValueError):
            eng.lane_schedule(0, 5, 1)
        eng.lane_schedule(0, 12, 2)
        eng.run()
        assert seen == [(10, 0, 1), (12, 0, 2)]


class TestEventsProcessedOnRaise:
    """A raising step still counts as processed, on every drain path."""

    @staticmethod
    def _boom_at_phase_9(warp, phase):
        if phase == 9:
            raise RuntimeError("boom")

    def _build(self):
        eng = Engine()
        eng.attach_warp_lane(3, self._boom_at_phase_9)
        eng.lane_schedule(0, 10, 1)
        eng.lane_schedule(1, 20, 9)
        eng.lane_schedule(2, 30, 1)
        return eng

    def test_lane_full_drain(self):
        eng = self._build()
        with pytest.raises(RuntimeError):
            eng.run()
        assert eng.events_processed == 2  # the raising event is counted
        assert eng.pending() == 1
        eng.run()
        assert eng.events_processed == 3

    def test_guarded_drain_matches_full_drain_count(self):
        # A real model's fused drain and the per-event loop agree on
        # the count when a step raises mid-run.
        fused = _model_raising_on_access(6)
        with pytest.raises(RuntimeError, match="boom"):
            fused.run()
        guarded = _model_raising_on_access(6)
        with pytest.raises(RuntimeError, match="boom"):
            guarded.run(max_events=10**9)
        assert fused.engine.events_processed > 0
        assert guarded.engine.events_processed == fused.engine.events_processed


def _model_raising_on_access(nth):
    """A small model whose memory slices raise on the ``nth`` access."""
    job = SimulationJob(
        "Ohm-BW", "backp", MemoryMode.PLANAR,
        RunConfig(num_warps=4, accesses_per_warp=4),
    )
    cfg = job.resolved_config()
    model = GpuModel(
        PLATFORMS["Ohm-BW"], cfg, get_workload_def("backp").spec,
        traces_for(job, cfg),
    )
    calls = [0]
    for mc in model.memory.slices:
        def serve(*args, _orig=mc.serve):
            calls[0] += 1
            if calls[0] == nth:
                raise RuntimeError("boom")
            return _orig(*args)

        mc.serve = serve
    return model


class TestAtErrorMessage:
    def test_includes_requested_and_current_timestamps(self):
        eng, _ = lane_engine()
        eng.lane_schedule(0, 100, 0)
        eng.run()
        with pytest.raises(ValueError) as exc:
            eng.lane_schedule(0, 50, 0)
        message = str(exc.value)
        assert "50" in message  # requested
        assert "100" in message  # current
