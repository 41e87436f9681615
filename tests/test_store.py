"""Result store tests: facet indexing, filtered queries (property-based
against brute force), and garbage collection of stale entries."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryMode
from repro.gpu.gpu import RunResult
from repro.harness.cache import SCHEMA_VERSION, ResultCache
from repro.harness.executor import RunConfig, SimulationJob
from repro.harness.store import STORE_COLUMNS, ResultStore

PLATFORMS = ("Ohm-base", "Ohm-BW", "Oracle")
WORKLOADS = ("backp", "pagerank", "gemm_reuse")
MODES = (MemoryMode.PLANAR, MemoryMode.TWO_LEVEL)


def fab_job(platform="Ohm-base", workload="backp", mode=MemoryMode.PLANAR,
            seed=7, num_warps=8):
    return SimulationJob(
        platform, workload, mode,
        RunConfig(num_warps=num_warps, accesses_per_warp=8, seed=seed),
    )


def fab_result(job: SimulationJob, exec_time_ps: int = 1000) -> RunResult:
    """A fabricated result — the store indexes facets and metrics, it
    never re-simulates, so synthetic payloads keep these tests fast."""
    return RunResult(
        platform=job.platform,
        workload=job.workload,
        mode=job.mode.value,
        instructions=100,
        exec_time_ps=exec_time_ps,
        demand_requests=10,
        mean_mem_latency_ps=5.0,
        counters={},
    )


@pytest.fixture()
def populated(tmp_path):
    cache = ResultCache(tmp_path)
    jobs = [
        fab_job(platform=p, workload=w, mode=m, seed=s)
        for p in PLATFORMS[:2]
        for w in WORKLOADS[:2]
        for m in MODES
        for s in (1, 2)
    ]
    for job in jobs:
        cache.put(job, fab_result(job))
    return tmp_path, jobs


class TestIndex:
    def test_indexes_every_entry(self, populated):
        cache_dir, jobs = populated
        store = ResultStore(cache_dir)
        assert len(store.entries()) == len(jobs)
        assert store.skipped == 0

    def test_entry_carries_job_facets(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = fab_job(platform="Ohm-BW", workload="pagerank",
                      mode=MemoryMode.TWO_LEVEL, seed=5, num_warps=16)
        cache.put(job, fab_result(job, exec_time_ps=4321))
        (entry,) = ResultStore(tmp_path).entries()
        assert entry.platform == "Ohm-BW"
        assert entry.workload == "pagerank"
        assert entry.mode == "two_level"
        assert entry.num_warps == 16
        assert entry.seed == 5
        assert entry.schema == SCHEMA_VERSION
        assert entry.exec_time_ps == 4321
        assert not entry.stale

    def test_rows_match_columns(self, populated):
        cache_dir, _ = populated
        store = ResultStore(cache_dir)
        for row in store.rows(store.entries()):
            assert tuple(row) == STORE_COLUMNS

    def test_missing_dir_is_empty(self, tmp_path):
        assert ResultStore(tmp_path / "absent").entries() == []

    def test_corrupt_entry_skipped_and_counted(self, populated):
        cache_dir, jobs = populated
        (cache_dir / ("deadbeef" * 8 + ".json")).write_text("{not json")
        store = ResultStore(cache_dir)
        assert len(store.entries()) == len(jobs)
        assert store.skipped == 1

    @pytest.mark.parametrize("counters", ["ab", [["k", 1]]], ids=["string", "pairs"])
    def test_counters_not_an_object_skipped(self, populated, counters):
        cache_dir, jobs = populated
        payload = {"schema": SCHEMA_VERSION, "job": jobs[0].to_dict(),
                   "result": dict(fab_result(jobs[0]).to_dict(), counters=counters)}
        (cache_dir / ("deadbeef" * 8 + ".json")).write_text(json.dumps(payload))
        store = ResultStore(cache_dir)
        assert len(store.entries()) == len(jobs)
        assert store.skipped == 1

    def test_non_fingerprint_files_ignored(self, populated):
        # The store only owns fingerprint-named files: anything else in
        # a (possibly misdirected) directory is invisible to it.
        cache_dir, jobs = populated
        (cache_dir / "BENCH_perf.json").write_text('{"benchmark": "x"}')
        store = ResultStore(cache_dir)
        assert len(store.entries()) == len(jobs)
        assert store.skipped == 0

    def test_pre_v4_entry_falls_back_to_result_facets(self, tmp_path):
        # A PR-2-era entry: schema 3, result only, no job payload.
        job = fab_job()
        legacy = {"schema": 3, "result": fab_result(job).to_dict()}
        (tmp_path / ("ab" * 32 + ".json")).write_text(json.dumps(legacy))
        (entry,) = ResultStore(tmp_path).entries()
        assert entry.platform == job.platform
        assert entry.workload == job.workload
        assert entry.num_warps is None  # sizing unknown pre-v4
        assert entry.stale


class TestQuery:
    def test_single_facet(self, populated):
        cache_dir, jobs = populated
        store = ResultStore(cache_dir)
        got = store.query(platform="Ohm-base")
        want = [j for j in jobs if j.platform == "Ohm-base"]
        assert len(got) == len(want)
        assert all(e.platform == "Ohm-base" for e in got)

    def test_conjunctive_facets(self, populated):
        cache_dir, jobs = populated
        got = ResultStore(cache_dir).query(
            platform="Ohm-BW", workload="backp", mode="planar"
        )
        assert len(got) == 2  # the two seeds
        assert all(
            (e.platform, e.workload, e.mode) == ("Ohm-BW", "backp", "planar")
            for e in got
        )

    def test_no_match(self, populated):
        cache_dir, _ = populated
        assert ResultStore(cache_dir).query(workload="no_such") == []

    def test_stale_excluded_by_default(self, populated):
        cache_dir, jobs = populated
        legacy = {"schema": 1, "result": fab_result(fab_job()).to_dict()}
        (cache_dir / ("cd" * 32 + ".json")).write_text(json.dumps(legacy))
        store = ResultStore(cache_dir)
        assert len(store.query()) == len(jobs)
        assert len(store.query(include_stale=True)) == len(jobs) + 1

    facet_strategy = st.fixed_dictionaries(
        {},
        optional={
            "platform": st.sampled_from(PLATFORMS),
            "workload": st.sampled_from(WORKLOADS),
            "mode": st.sampled_from([m.value for m in MODES]),
            "seed": st.integers(min_value=1, max_value=3),
            "num_warps": st.sampled_from([8, 16]),
        },
    )

    jobs_strategy = st.lists(
        st.builds(
            fab_job,
            platform=st.sampled_from(PLATFORMS),
            workload=st.sampled_from(WORKLOADS),
            mode=st.sampled_from(MODES),
            seed=st.integers(min_value=1, max_value=3),
            num_warps=st.sampled_from([8, 16]),
        ),
        min_size=0,
        max_size=12,
    )

    @given(jobs=jobs_strategy, facets=facet_strategy)
    @settings(max_examples=25, deadline=None)
    def test_query_equals_brute_force(self, tmp_path_factory, jobs, facets):
        """Property: a facet query returns exactly the entries a naive
        scan-and-filter of the cache directory would."""
        cache_dir = tmp_path_factory.mktemp("store")
        cache = ResultCache(cache_dir)
        for job in jobs:
            cache.put(job, fab_result(job))
        store = ResultStore(cache_dir)
        got = {e.fingerprint for e in store.query(**facets)}
        brute = {
            e.fingerprint
            for e in store.entries()
            if not e.stale
            and all(getattr(e, k) == v for k, v in facets.items())
        }
        assert got == brute
        # and the index covers exactly the deduplicated job set
        assert len(store.entries()) == len(set(jobs))


class TestGc:
    def test_gc_removes_stale_and_orphans(self, populated):
        import os
        import time

        from repro.harness.store import TMP_GRACE_SECONDS

        cache_dir, jobs = populated
        legacy = {"schema": 2, "result": fab_result(fab_job()).to_dict()}
        (cache_dir / ("ef" * 32 + ".json")).write_text(json.dumps(legacy))
        (cache_dir / ("0" * 64 + ".json")).write_text("{torn")
        (cache_dir / "BENCH_perf.json").write_text('{"not": "ours"}')
        orphan = cache_dir / "orphan123.tmp"
        orphan.write_text("half a result")
        stale_mtime = time.time() - TMP_GRACE_SECONDS - 60
        os.utime(orphan, (stale_mtime, stale_mtime))
        store = ResultStore(cache_dir)
        removed = store.gc()
        assert {p.name for p in removed} == {
            "ef" * 32 + ".json", "0" * 64 + ".json", "orphan123.tmp"
        }
        assert (cache_dir / "BENCH_perf.json").exists()  # never ours to gc
        assert len(store.entries()) == len(jobs)
        assert store.skipped == 0

    def test_gc_spares_fresh_tmp_of_live_writer(self, populated):
        # A just-created temp file is most likely a concurrent put() in
        # flight — gc must not yank it out from under the rename.
        cache_dir, _ = populated
        fresh = cache_dir / "inflight456.tmp"
        fresh.write_text("being written right now")
        assert ResultStore(cache_dir).gc() == []
        assert fresh.exists()

    def test_gc_dry_run_removes_nothing(self, populated):
        cache_dir, _ = populated
        broken = cache_dir / ("1" * 64 + ".json")
        broken.write_text("{torn")
        store = ResultStore(cache_dir)
        doomed = store.gc(dry_run=True)
        assert len(doomed) == 1
        assert broken.exists()

    def test_gc_keeps_current_schema(self, populated):
        cache_dir, jobs = populated
        assert ResultStore(cache_dir).gc() == []
        assert len(ResultStore(cache_dir).entries()) == len(jobs)

    def test_gc_missing_dir(self, tmp_path):
        assert ResultStore(tmp_path / "absent").gc() == []


class TestCli:
    def test_store_query_csv(self, populated, capsys):
        from repro.cli import main

        cache_dir, _ = populated
        assert main([
            "store", "query", "--cache-dir", str(cache_dir),
            "--platform", "Ohm-base", "--workload", "backp",
            "--mode", "planar", "--format", "csv",
        ]) == 0
        out = capsys.readouterr().out
        header, *rows = [l for l in out.splitlines() if l]
        assert header.startswith("fingerprint,platform,workload,mode")
        assert len(rows) == 2
        assert all(",Ohm-base,backp,planar," in r for r in rows)

    def test_store_query_json_to_file(self, populated, tmp_path):
        from repro.cli import main

        cache_dir, jobs = populated
        out = tmp_path / "q.json"
        assert main([
            "store", "query", "--cache-dir", str(cache_dir),
            "--format", "json", "-o", str(out),
        ]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == len(jobs)
        assert set(rows[0]) == set(STORE_COLUMNS)

    def test_store_gc_cli(self, populated, capsys):
        from repro.cli import main

        cache_dir, _ = populated
        broken = cache_dir / ("2" * 64 + ".json")
        broken.write_text("{torn")
        assert main(["store", "gc", "--cache-dir", str(cache_dir)]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert not broken.exists()
