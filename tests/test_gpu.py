"""GPU substrate tests: interconnect, SM issue, warps."""

import json
import pathlib

import pytest

import numpy as np

from repro.config import MemoryMode, default_config
from repro.core.platforms import PLATFORMS
from repro.gpu.gpu import GpuModel
from repro.gpu.interconnect import Interconnect
from repro.gpu.sm import StreamingMultiprocessor
from repro.harness.audit import audit_jobs
from repro.harness.executor import RunConfig, traces_for
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

#: Every registered workload x platform x mode job at this sizing.
PARITY_RUN = RunConfig(num_warps=16, accesses_per_warp=16)
REGISTRY_FINGERPRINTS = (
    pathlib.Path(__file__).parent / "data" / "registry_fingerprints.json"
)


def _job_key(job) -> str:
    return f"{job.platform}/{job.workload}/{job.mode.value}"


def _registry_runs():
    """``(job, cfg, spec, traces, platform)`` for every registry job."""
    jobs = audit_jobs(run_cfg=PARITY_RUN, workloads=REGISTERED_WORKLOADS)
    for job in jobs:
        cfg = job.resolved_config()
        spec = get_workload_def(job.workload).spec
        yield job, cfg, spec, traces_for(job, cfg), PLATFORMS[job.platform]


class TestDrainParity:
    """On the whole registry, the fused drain equals the reference SM
    path, and both equal the checked-in registry fingerprints.

    The reference path runs twice: in the capped per-event loop, which
    calls ``access_memory`` and ``issue_burst`` per event, and in the
    drain with ``access_memory`` wrapped, which pins that a patched
    method stops the drain from inlining it.

    If you change simulation *behavior on purpose*, regenerate with::

        PYTHONPATH=src python tests/test_gpu.py --regen
    """

    def test_fused_drain_matches_per_event_loop_everywhere(self, monkeypatch):
        golden = json.loads(REGISTRY_FINGERPRINTS.read_text())
        reference = StreamingMultiprocessor.access_memory
        reference_calls = [0]

        def wrapped(sm, addr, is_write):
            reference_calls[0] += 1
            return reference(sm, addr, is_write)

        mismatches = []
        unpinned = []
        for job, cfg, spec, traces, platform in _registry_runs():
            fused = GpuModel(platform, cfg, spec, traces).run()
            per_event = GpuModel(platform, cfg, spec, traces).run(max_events=10**12)
            # A wrapped access_memory is not pristine, so the lane
            # dispatches every access through the reference method.
            with monkeypatch.context() as m:
                m.setattr(StreamingMultiprocessor, "access_memory", wrapped)
                calls_before = reference_calls[0]
                via_reference = GpuModel(platform, cfg, spec, traces).run()
            assert reference_calls[0] - calls_before == via_reference.demand_requests
            fp = fused.fingerprint()
            if fp != per_event.fingerprint():
                mismatches.append(("per_event", job))
            if fp != via_reference.fingerprint():
                mismatches.append(("reference", job))
            key = _job_key(job)
            if key not in golden:
                unpinned.append(key)
            elif fp != golden[key]:
                mismatches.append(("golden", job))
        assert unpinned == [], "no registry fingerprint; run --regen"
        assert len(golden) == len(REGISTERED_WORKLOADS) * len(PLATFORMS) * len(MemoryMode)
        assert mismatches == []


class TestSliceOracle:
    """On the whole registry, every slice's reference ``serve`` (all
    channel windows through ``transfer_window``) equals its fast one."""

    def test_reference_serve_matches_fast_serve_everywhere(self):
        mismatches = []
        for job, cfg, spec, traces, platform in _registry_runs():
            fast = GpuModel(platform, cfg, spec, traces).run()
            model = GpuModel(platform, cfg, spec, traces)
            for sl in model.memory.slices:
                sl.refresh_channel_binding()
                assert "serve" not in sl.__dict__
            if model.run().fingerprint() != fast.fingerprint():
                mismatches.append(job)
        assert mismatches == []


def _regen() -> None:
    out = {
        _job_key(job): GpuModel(platform, cfg, spec, traces).run().fingerprint()
        for job, cfg, spec, traces, platform in _registry_runs()
    }
    REGISTRY_FINGERPRINTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(out)} fingerprints to {REGISTRY_FINGERPRINTS}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(TestDrainParity.__doc__)
