"""Workload subsystem v2: parametric families, composition, registry
edge cases and golden family fingerprints."""

import json
import pathlib

import numpy as np
import pytest

from repro.config import MB, MemoryMode
from repro.harness.executor import RunConfig, SimulationJob, execute_job
from repro.workloads.compose import (
    _split_accesses,
    make_multi_tenant,
    make_phased,
    tenant_assignment,
)
from repro.workloads.families import (
    PointerChaseGenerator,
    StreamingScanGenerator,
    TiledGemmGenerator,
)
from repro.workloads.registry import (
    FAMILIES,
    REGISTRY,
    build_traces,
    get_workload_def,
    register_workload,
)
from repro.workloads.source import DEFAULT_BLOCK_OPS, trace_from_blocks
from repro.workloads.spec import WorkloadSpec, make_def

FOOTPRINT = 8 * MB
NEW_FAMILY_WORKLOADS = (
    "gemm_reuse",
    "pointer_chase",
    "stream_scan",
    "mix_gemm_chase",
    "phased_scan_gemm",
)
GOLDEN = pathlib.Path(__file__).parent / "data" / "workload_fingerprints.json"

#: Canonical sizing the golden digests are frozen at.
GOLDEN_ARGS = dict(
    footprint_bytes=FOOTPRINT,
    num_warps=4,
    accesses_per_warp=64,
    line_bytes=128,
    page_bytes=2048,
    seed=7,
)


def workload_fingerprint(name: str) -> str:
    """One digest per workload: SHA-256 chain over its warp digests."""
    import hashlib

    h = hashlib.sha256()
    for trace in build_traces(name, **GOLDEN_ARGS):
        h.update(trace.digest().encode())
    return h.hexdigest()


class TestFamilyGenerators:
    @pytest.mark.parametrize("name", NEW_FAMILY_WORKLOADS)
    def test_deterministic(self, name):
        a = build_traces(name, **GOLDEN_ARGS)
        b = build_traces(name, **GOLDEN_ARGS)
        assert [t.digest() for t in a] == [t.digest() for t in b]

    @pytest.mark.parametrize("name", NEW_FAMILY_WORKLOADS)
    def test_addresses_in_footprint_and_aligned(self, name):
        for t in build_traces(name, **GOLDEN_ARGS):
            assert (t.addrs >= 0).all()
            assert (t.addrs < FOOTPRINT).all()
            assert (t.addrs % 128 == 0).all()

    @pytest.mark.parametrize("name", NEW_FAMILY_WORKLOADS)
    def test_shapes(self, name):
        traces = build_traces(name, **GOLDEN_ARGS)
        assert len(traces) == 4
        assert all(len(t) == 64 for t in traces)

    def test_warps_differ(self):
        traces = build_traces("pointer_chase", **GOLDEN_ARGS)
        assert not np.array_equal(traces[0].addrs, traces[1].addrs)

    def test_gemm_reuses_lines(self):
        spec = get_workload_def("gemm_reuse").spec
        gen = TiledGemmGenerator(spec, FOOTPRINT, tile_lines=8, passes=3)
        t = trace_from_blocks(gen.warp_blocks(0, 256, DEFAULT_BLOCK_OPS))
        # passes=3 sweeps each input tile: strong temporal reuse.
        assert len(np.unique(t.addrs)) < len(t.addrs) / 2

    def test_stream_scan_has_no_reuse(self):
        spec = get_workload_def("stream_scan").spec
        gen = StreamingScanGenerator(spec, FOOTPRINT)
        t = trace_from_blocks(gen.warp_blocks(0, 200, DEFAULT_BLOCK_OPS))
        assert len(np.unique(t.addrs)) == len(t.addrs)

    @pytest.mark.parametrize("rf", (0.0, 0.5, 1.0))
    def test_stream_read_fraction_tracked(self, rf):
        spec = get_workload_def("stream_scan").spec
        gen = StreamingScanGenerator(spec, FOOTPRINT, read_fraction=rf)
        writes = np.concatenate([
            trace_from_blocks(gen.warp_blocks(w, 400, DEFAULT_BLOCK_OPS)).writes
            for w in range(4)
        ])
        assert writes.mean() == pytest.approx(1.0 - rf, abs=0.06)

    def test_pointer_chase_is_irregular(self):
        spec = get_workload_def("pointer_chase").spec
        gen = PointerChaseGenerator(spec, FOOTPRINT, frontier_fraction=0.0)
        t = trace_from_blocks(gen.warp_blocks(0, 300, DEFAULT_BLOCK_OPS))
        # Dependent chasing: successive deltas are all over the arena.
        deltas = np.abs(np.diff(t.addrs))
        assert np.median(deltas) > 64 * 128  # far beyond any stride run

    def test_apki_tracks_spec(self):
        for name in ("gemm_reuse", "pointer_chase", "stream_scan"):
            spec = get_workload_def(name).spec
            traces = build_traces(name, FOOTPRINT, 8, 300, 128, 2048, 7)
            insts = sum(t.total_instructions for t in traces)
            accesses = sum(len(t) for t in traces)
            assert 1000.0 * accesses / insts == pytest.approx(
                spec.apki, rel=0.15
            ), name

    @pytest.mark.parametrize(
        "cls,bad",
        [
            (TiledGemmGenerator, {"tile_lines": 0}),
            (TiledGemmGenerator, {"passes": 0}),
            (TiledGemmGenerator, {"update_writes": 1.5}),
            (PointerChaseGenerator, {"chain_length": 0}),
            (PointerChaseGenerator, {"frontier_fraction": 1.0}),
            (StreamingScanGenerator, {"read_fraction": -0.1}),
            (StreamingScanGenerator, {"num_streams": 0}),
            (StreamingScanGenerator, {"stride_lines": 0}),
        ],
    )
    def test_invalid_params_rejected(self, cls, bad):
        spec = get_workload_def("stream_scan").spec
        with pytest.raises(ValueError):
            cls(spec, FOOTPRINT, **bad)


class TestGoldenFamilyFingerprints:
    @pytest.mark.parametrize("name", NEW_FAMILY_WORKLOADS)
    def test_fingerprint_stable(self, name):
        golden = json.loads(GOLDEN.read_text())
        assert name in golden, f"no golden fingerprint for {name}; run --regen"
        assert workload_fingerprint(name) == golden[name], (
            f"trace stream changed for {name} — family generators must be "
            "fingerprint-stable; if the change is intentional, regenerate "
            "tests/data/workload_fingerprints.json (python tests/test_families.py --regen)"
        )


class TestComposition:
    def test_multi_tenant_interleaves_and_labels(self):
        traces = build_traces("mix_gemm_chase", **GOLDEN_ARGS)
        labels = [t.tenant for t in traces]
        assert set(labels) == {"gemm", "chase"}
        assert labels[0] != labels[1]  # interleaved, not blocked

    def test_tenant_assignment_proportional(self):
        out = tenant_assignment([0.75, 0.25], 16)
        assert out.count(0) == 12 and out.count(1) == 4

    def test_phased_concatenates(self):
        traces = build_traces("phased_scan_gemm", **GOLDEN_ARGS)
        assert all(len(t) == 64 for t in traces)
        # The leading streaming phase is sequential per stream; the GEMM
        # tail revisits tile lines.
        t = traces[0]
        head, tail = t.addrs[:19], t.addrs[19:]
        assert len(np.unique(head)) == len(head)
        assert len(np.unique(tail)) < len(tail)

    def test_tenant_counters_in_result(self):
        result = execute_job(
            SimulationJob(
                "Ohm-base", "mix_gemm_chase", MemoryMode.PLANAR,
                RunConfig(num_warps=8, accesses_per_warp=10),
            )
        )
        for tenant in ("gemm", "chase"):
            assert result.counters[f"tenant.{tenant}.warps"] == 4
            assert result.counters[f"tenant.{tenant}.accesses"] == 40
            assert result.counters[f"tenant.{tenant}.instructions"] > 0
            assert 0 < result.counters[f"tenant.{tenant}.finish_ps"] <= result.exec_time_ps

    def test_zero_warp_tenant_rejected(self):
        gemm = get_workload_def("gemm_reuse")
        chase = get_workload_def("pointer_chase")
        skewed = make_multi_tenant(
            "skewed_mix_test", [("big", gemm, 0.9), ("small", chase, 0.1)]
        )
        # 4 warps at 90/10: the small tenant would get zero warps and
        # silently vanish from the counters — must fail loudly instead.
        with pytest.raises(ValueError, match="received 0"):
            build_traces(skewed, FOOTPRINT, 4, 8, 128, 2048, 7)

    def test_split_declared_zero_stays_zero(self):
        # Regression: the minimum-one floor used to donate an access to
        # phases whose fraction was *declared* 0.0, not just to positive
        # fractions rounded down to zero.
        assert _split_accesses([0.0, 1.0], 10) == [0, 10]
        assert _split_accesses([0.0, 0.25, 0.75], 8) == [0, 2, 6]
        # A tiny-but-positive fraction still gets its floor access.
        assert _split_accesses([0.001, 0.999], 10) == [1, 9]

    def test_phased_accepts_zero_fraction_phase(self):
        # A disabled phase (fraction 0.0) is a legal declaration — the
        # scenario layer toggles phases off this way — and contributes
        # no accesses.
        gemm = get_workload_def("gemm_reuse")
        chase = get_workload_def("pointer_chase")
        defn = make_phased("zero_phase_test", [(gemm, 0.0), (chase, 1.0)])
        traces = build_traces(defn, FOOTPRINT, 2, 16, 128, 2048, 7)
        solo = build_traces("pointer_chase", FOOTPRINT, 2, 16, 128, 2048, 7)
        for t, s in zip(traces, solo):
            assert np.array_equal(t.addrs, s.addrs)
        with pytest.raises(ValueError, match="positive fraction"):
            make_phased("all_zero", [(gemm, 0.0), (chase, 0.0)])

    def test_compose_validation(self):
        gemm = get_workload_def("gemm_reuse")
        with pytest.raises(ValueError):
            make_phased("bad", [])
        with pytest.raises(ValueError):
            make_phased("bad", [(gemm, -1.0)])
        with pytest.raises(ValueError):
            make_multi_tenant("bad", [("a", gemm, 0.5), ("a", gemm, 0.5)])
        with pytest.raises(ValueError):
            make_multi_tenant("bad", [("a", gemm, 0.0)])


class TestRegistryEdgeCases:
    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload_def("doom")

    def test_duplicate_registration_rejected(self):
        defn = get_workload_def("gemm_reuse")
        with pytest.raises(ValueError, match="already registered"):
            register_workload(defn)

    def test_replace_allows_reregistration(self):
        defn = get_workload_def("gemm_reuse")
        assert register_workload(defn, replace=True) is defn
        assert REGISTRY["gemm_reuse"] is defn

    def test_unknown_family_rejected(self):
        spec = WorkloadSpec("x", 100, 0.5, "dense")
        with pytest.raises(ValueError, match="unknown family"):
            register_workload(make_def("x", "quantum", spec))

    def test_invalid_family_params_surface_at_build(self):
        spec = WorkloadSpec("bad_gemm", 100, 0.5, "dense")
        defn = make_def("bad_gemm", "gemm", spec, params={"tile_lines": 0})
        with pytest.raises(ValueError):
            build_traces(defn, **GOLDEN_ARGS)

    def test_unknown_param_name_surfaces_at_build(self):
        spec = WorkloadSpec("bad_gemm2", 100, 0.5, "dense")
        defn = make_def("bad_gemm2", "gemm", spec, params={"tiles": 4})
        with pytest.raises(TypeError):
            build_traces(defn, **GOLDEN_ARGS)

    def test_every_family_documented(self):
        for family, doc in FAMILIES.items():
            assert doc.strip(), family

    def test_every_registered_def_resolves_and_builds(self):
        for name in REGISTRY:
            traces = build_traces(name, FOOTPRINT, 2, 8, 128, 2048, 7)
            assert len(traces) == 2

    def test_reregistration_invalidates_trace_memo(self):
        sizing = RunConfig(num_warps=4, accesses_per_warp=16)
        job = SimulationJob("Ohm-base", "memo_probe", MemoryMode.PLANAR, sizing)
        spec = WorkloadSpec("memo_probe", 160, 0.5, "stream")
        register_workload(
            make_def("memo_probe", "stream", spec, params={"read_fraction": 1.0}),
            replace=True,
        )
        all_reads = execute_job(job)
        register_workload(
            make_def("memo_probe", "stream", spec, params={"read_fraction": 0.0}),
            replace=True,
        )
        all_writes = execute_job(job)
        # Same job key, different resolved def: the trace memo must not
        # serve the stale all-reads traces.
        assert all_reads.to_dict() != all_writes.to_dict()

    def test_new_families_run_through_executor(self):
        sizing = RunConfig(num_warps=4, accesses_per_warp=8)
        for name in ("gemm_reuse", "pointer_chase", "stream_scan"):
            result = execute_job(
                SimulationJob("Ohm-BW", name, MemoryMode.PLANAR, sizing)
            )
            assert result.workload == name
            assert result.exec_time_ps > 0


def _regen() -> None:
    out = {name: workload_fingerprint(name) for name in NEW_FAMILY_WORKLOADS}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
