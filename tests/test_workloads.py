"""Workload tests: Table II specs, synthetic and graph trace shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MB
from repro.workloads.graphs import GraphTraceGenerator, build_scale_free_csr
from repro.workloads.registry import (
    WORKLOADS,
    build_traces,
    get_workload_def,
    make_generator,
)
from repro.workloads.source import DEFAULT_BLOCK_OPS, trace_from_blocks
from repro.workloads.spec import TABLE2, WorkloadSpec
from repro.workloads.synthetic import (
    SyntheticTraceGenerator,
    WarpTrace,
    draw_rank,
    zipf_cdf,
    zipf_pmf,
)

FOOTPRINT = 8 * MB


def spec_of(name):
    return get_workload_def(name).spec


def warp_trace(gen, warp, accesses):
    """One warp's trace, concatenated from the generator's blocks."""
    return trace_from_blocks(gen.warp_blocks(warp, accesses, DEFAULT_BLOCK_OPS))


class TestTable2:
    def test_ten_workloads(self):
        assert len(TABLE2) == 10

    @pytest.mark.parametrize(
        "name,apki,read_ratio",
        [
            ("backp", 30, 0.53),
            ("lud", 20, 0.52),
            ("GRAMS", 266, 0.70),
            ("FDTD", 86, 0.70),
            ("betw", 193, 0.99),
            ("bfsdata", 84, 0.95),
            ("bfstopo", 25, 0.97),
            ("gctopo", 93, 0.99),
            ("pagerank", 599, 0.99),
            ("sssp", 103, 0.98),
        ],
    )
    def test_table2_values(self, name, apki, read_ratio):
        spec = spec_of(name)
        assert spec.apki == apki
        assert spec.read_ratio == read_ratio

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            get_workload_def("doom")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec("bad", -1, 0.5, "rodinia")
        with pytest.raises(ValueError):
            WorkloadSpec("bad", 10, 1.5, "rodinia")

    def test_scaled_footprint_preserves_ratio(self):
        spec = spec_of("backp")
        assert spec.scaled_footprint(12 * 1024) == spec.footprint_bytes // 1024

    def test_mean_gap(self):
        assert spec_of("pagerank").mean_gap_instructions == pytest.approx(1000 / 599)


class TestZipf:
    def test_pmf_sums_to_one(self):
        assert zipf_pmf(100, 0.9).sum() == pytest.approx(1.0)

    def test_pmf_is_decreasing(self):
        pmf = zipf_pmf(50, 1.1)
        assert all(pmf[i] >= pmf[i + 1] for i in range(49))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            zipf_pmf(0, 1.0)

    @given(
        n=st.integers(min_value=1, max_value=5000),
        alpha=st.floats(min_value=0.0, max_value=3.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_draws_match_generator_choice(self, n, alpha, seed):
        """The prebuilt CDF must reproduce ``rng.choice(n, p=pmf)`` draw
        for draw, consuming the generator identically — every workload
        digest rests on it, so a numpy change to ``choice`` fails here."""
        pmf, cdf = zipf_pmf(n, alpha), zipf_cdf(n, alpha)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [draw_rank(ours, cdf) for _ in range(64)]
        assert drawn == [int(theirs.choice(n, p=pmf)) for _ in range(64)]
        assert ours.random() == theirs.random()


class TestSyntheticTraces:
    def gen(self, name="backp"):
        return SyntheticTraceGenerator(spec_of(name), FOOTPRINT, 128, 2048)

    def test_deterministic_per_warp(self):
        g = self.gen()
        t1 = warp_trace(g, 3, 50)
        t2 = warp_trace(g, 3, 50)
        assert np.array_equal(t1.addrs, t2.addrs)
        assert np.array_equal(t1.gaps, t2.gaps)

    def test_warps_differ(self):
        g = self.gen()
        assert not np.array_equal(
            warp_trace(g, 0, 50).addrs, warp_trace(g, 1, 50).addrs
        )

    def test_addresses_within_footprint(self):
        t = warp_trace(self.gen(), 0, 200)
        assert (t.addrs >= 0).all()
        assert (t.addrs < FOOTPRINT).all()

    def test_addresses_line_aligned(self):
        t = warp_trace(self.gen(), 0, 200)
        assert (t.addrs % 128 == 0).all()

    def test_apki_tracks_table2(self):
        """Instructions per access (gap + the memory inst) must give the
        Table II APKI."""
        for name in ("pagerank", "backp", "lud"):
            spec = spec_of(name)
            g = SyntheticTraceGenerator(spec, FOOTPRINT)
            traces = [warp_trace(g, w, 300) for w in range(8)]
            insts = sum(t.total_instructions for t in traces)
            accesses = sum(len(t) for t in traces)
            measured_apki = 1000.0 * accesses / insts
            assert measured_apki == pytest.approx(spec.apki, rel=0.15), name

    def test_write_ratio_tracks_spec(self):
        spec = spec_of("backp")  # read ratio 0.53
        g = SyntheticTraceGenerator(spec, FOOTPRINT)
        writes = np.concatenate([warp_trace(g, w, 300).writes for w in range(8)])
        assert writes.mean() == pytest.approx(1 - spec.read_ratio, abs=0.08)

    def test_total_instructions(self):
        t = warp_trace(self.gen(), 0, 40)
        assert t.total_instructions == int(t.gaps.sum()) + 40

    def test_footprint_too_small_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(spec_of("backp"), 100, page_bytes=4096)


class TestGraphTraces:
    def test_csr_structure(self):
        csr = build_scale_free_csr(256, FOOTPRINT, 128, seed=3)
        assert csr.num_vertices == 256
        assert csr.indptr[-1] == len(csr.indices)
        # All neighbour ids valid.
        assert (csr.indices >= 0).all() and (csr.indices < 256).all()

    def test_csr_capacity_check(self):
        with pytest.raises(ValueError):
            build_scale_free_csr(10_000, 1 * MB, 128)

    def test_trace_addresses_in_footprint(self):
        g = GraphTraceGenerator(spec_of("pagerank"), FOOTPRINT, num_vertices=512)
        t = warp_trace(g, 0, 200)
        assert (t.addrs >= 0).all()
        assert (t.addrs < FOOTPRINT).all()

    def test_trace_deterministic(self):
        g = GraphTraceGenerator(spec_of("sssp"), FOOTPRINT, num_vertices=512)
        assert np.array_equal(warp_trace(g, 1, 100).addrs, warp_trace(g, 1, 100).addrs)

    def test_graph_workloads_get_graph_generator(self):
        gen = make_generator(spec_of("pagerank"), FOOTPRINT)
        assert isinstance(gen, GraphTraceGenerator)

    def test_synthetic_workloads_get_synthetic_generator(self):
        gen = make_generator(spec_of("backp"), FOOTPRINT)
        assert isinstance(gen, SyntheticTraceGenerator)

    def test_generate_traces_shape(self):
        traces = build_traces("bfsdata", FOOTPRINT, 8, 30)
        assert len(traces) == 8
        assert all(len(t) == 30 for t in traces)

    def test_all_workloads_generate(self):
        for name in WORKLOADS:
            traces = build_traces(name, FOOTPRINT, 2, 20)
            assert len(traces) == 2


class TestTraceWellFormed:
    """WarpTrace.well_formed: the workload layer's half of the audit
    contract (sim/audit.py checks it per warp at model construction)."""

    def test_generated_traces_are_well_formed(self):
        g = SyntheticTraceGenerator(spec_of("backp"), FOOTPRINT, 128, 2048)
        for w in range(4):
            assert warp_trace(g, w, 60).well_formed() == []

    def test_misaligned_arrays_reported(self):
        t = WarpTrace(
            gaps=np.array([1, 2], dtype=np.int64),
            addrs=np.array([0], dtype=np.int64),
            writes=np.array([False]),
        )
        problems = t.well_formed()
        assert len(problems) == 1 and "misaligned" in problems[0]

    def test_negative_gap_and_address_reported(self):
        t = WarpTrace(
            gaps=np.array([-1], dtype=np.int64),
            addrs=np.array([-128], dtype=np.int64),
            writes=np.array([True]),
        )
        problems = t.well_formed()
        assert any("gap" in p for p in problems)
        assert any("address" in p for p in problems)

    def test_empty_trace_reported(self):
        t = WarpTrace(
            gaps=np.array([], dtype=np.int64),
            addrs=np.array([], dtype=np.int64),
            writes=np.array([], dtype=bool),
        )
        assert any("empty" in p for p in t.well_formed())
