"""GPU substrate tests: caches, interconnect, SM issue, warps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from repro.config import MemoryMode, default_config
from repro.core.platforms import PLATFORMS
from repro.gpu.cache import SetAssocCache
from repro.gpu.gpu import GpuModel
from repro.gpu.interconnect import Interconnect
from repro.harness.audit import audit_jobs
from repro.harness.executor import RunConfig, traces_for
from repro.sim.records import MemRequest
from repro.workloads.registry import REGISTRY, get_workload_def
from repro.workloads.synthetic import WarpTrace


def tiny_traces(n_warps=4, n_acc=6, line=128):
    return [
        WarpTrace(
            gaps=np.full(n_acc, 3, dtype=np.int64),
            addrs=np.arange(n_acc, dtype=np.int64) * line * (w + 1),
            writes=np.zeros(n_acc, dtype=bool),
        )
        for w in range(n_warps)
    ]


class TestCache:
    def test_miss_then_hit(self):
        c = SetAssocCache(1024, 2, 64)
        hit, _ = c.access(0, False)
        assert not hit
        hit, _ = c.access(0, False)
        assert hit

    def test_lru_eviction(self):
        c = SetAssocCache(2 * 64, 2, 64)  # one set, two ways
        c.access(0, False)
        c.access(64, False)
        c.access(0, False)  # refresh line 0
        _, evicted = c.access(128, False)  # evicts line 64 (LRU)
        assert evicted is not None
        assert evicted.addr == 64

    def test_dirty_eviction_flagged(self):
        c = SetAssocCache(2 * 64, 2, 64)
        c.access(0, True)
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert evicted.dirty
        assert c.stats.writebacks == 1

    def test_write_hit_marks_dirty(self):
        c = SetAssocCache(2 * 64, 2, 64)
        c.access(0, False)
        c.access(0, True)
        c.access(64, False)
        _, evicted = c.access(128, False)
        assert evicted.dirty

    def test_flush_returns_dirty_lines(self):
        c = SetAssocCache(1024, 2, 64)
        c.access(0, True)
        c.access(64, False)
        dirty = c.flush()
        assert [e.addr for e in dirty] == [0]
        assert not c.contains(0)

    def test_hit_rate(self):
        c = SetAssocCache(1024, 2, 64)
        c.access(0, False)
        c.access(0, False)
        assert c.stats.hit_rate == pytest.approx(0.5)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssocCache(1000, 3, 64)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200))
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_ways(self, lines):
        c = SetAssocCache(4 * 64, 2, 64)  # 2 sets x 2 ways
        for line in lines:
            c.access(line * 64, False)
        for set_index in range(c.num_sets):
            assert c.set_occupancy(set_index) <= 2


class TestInterconnect:
    def test_latency_added(self):
        noc = Interconnect(latency_ns=20.0, bandwidth_bits_per_ns=1024.0)
        t = noc.traverse(0, 1024)
        assert t == 1000 + 20_000  # 1 ns occupancy + 20 ns latency

    def test_bandwidth_serializes(self):
        noc = Interconnect(latency_ns=0.0, bandwidth_bits_per_ns=1.0)
        noc.traverse(0, 1000)
        t = noc.traverse(0, 1000)
        assert t == 2_000_000

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Interconnect(bandwidth_bits_per_ns=0)
        with pytest.raises(ValueError):
            Interconnect().traverse(0, 0)


class TestGpuModel:
    def test_run_completes_all_warps(self):
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, tiny_traces())
        result = model.run()
        assert result.demand_requests == 4 * 6
        assert result.exec_time_ps > 0

    def test_instruction_accounting(self):
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, tiny_traces())
        result = model.run()
        # Each access: 3 compute insts + 1 memory inst.
        assert result.instructions == 4 * 6 * 4

    def test_caches_absorb_repeats(self):
        cfg = default_config(MemoryMode.PLANAR)
        n = 8
        traces = [
            WarpTrace(
                gaps=np.ones(n, dtype=np.int64),
                addrs=np.zeros(n, dtype=np.int64),  # same line repeatedly
                writes=np.zeros(n, dtype=bool),
            )
        ]
        model = GpuModel(
            PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, traces, model_caches=True
        )
        result = model.run()
        assert result.counters.get("gpu.l1_hits", 0) >= n - 1

    def test_empty_traces_rejected(self):
        cfg = default_config()
        with pytest.raises(ValueError):
            GpuModel(PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, [])

    def test_deterministic(self):
        cfg = default_config(MemoryMode.PLANAR)
        r1 = GpuModel(PLATFORMS["Ohm-BW"], cfg, get_workload_def("backp").spec, tiny_traces()).run()
        r2 = GpuModel(PLATFORMS["Ohm-BW"], cfg, get_workload_def("backp").spec, tiny_traces()).run()
        assert r1.exec_time_ps == r2.exec_time_ps
        assert r1.counters == r2.counters

    def test_migration_bandwidth_fraction_bounds(self):
        cfg = default_config(MemoryMode.TWO_LEVEL)
        model = GpuModel(PLATFORMS["Ohm-base"], cfg, get_workload_def("backp").spec, tiny_traces())
        result = model.run()
        assert 0.0 <= result.migration_bandwidth_fraction <= 1.0

    def test_second_run_rejected(self):
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, tiny_traces())
        first = model.run()
        counters = dict(first.counters)
        with pytest.raises(RuntimeError, match="only once per model"):
            model.run()
        # The rejected call touched nothing.
        assert model.stats.snapshot() == counters
        assert model.engine.now == first.exec_time_ps

    def test_run_after_max_events_stop_rejected(self):
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, tiny_traces())
        with pytest.raises(RuntimeError, match="4 warps unfinished"):
            model.run(max_events=3)
        with pytest.raises(RuntimeError, match="only once per model"):
            model.run()


# The default registry, captured at import: other tests register probe
# workloads at run time.
REGISTERED_WORKLOADS = tuple(REGISTRY)


class TestDrainParity:
    """The fused drain equals the per-event loop on the whole registry."""

    def test_fused_drain_matches_per_event_loop_everywhere(self):
        jobs = audit_jobs(
            run_cfg=RunConfig(num_warps=16, accesses_per_warp=16),
            workloads=REGISTERED_WORKLOADS,
        )
        mismatches = []
        for job in jobs:
            cfg = job.resolved_config()
            spec = get_workload_def(job.workload).spec
            traces = traces_for(job, cfg)
            platform = PLATFORMS[job.platform]
            fused = GpuModel(platform, cfg, spec, traces).run()
            per_event = GpuModel(platform, cfg, spec, traces).run(max_events=10**12)
            if fused.fingerprint() != per_event.fingerprint():
                mismatches.append(job)
        assert mismatches == []


class TestStreamingMultiprocessor:
    def test_submit_memory_request_wrapper(self):
        # The request-object API must agree with the bare-pair fast path
        # and record the completion on the request.
        cfg = default_config(MemoryMode.PLANAR)
        model = GpuModel(PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, tiny_traces())
        sm = model.sms[0]
        req = MemRequest(addr=0, is_write=False, size_bytes=128, sm_id=0, warp_id=0)
        complete = sm.submit_memory_request(req)
        assert req.complete_ps == complete
        assert complete > 0
        twin = GpuModel(
            PLATFORMS["Oracle"], cfg, get_workload_def("backp").spec, tiny_traces()
        )
        assert twin.sms[0].access_memory(0, False) == complete
