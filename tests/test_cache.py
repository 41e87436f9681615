"""Persistent result cache: fingerprint stability, round-trips, reuse,
and the shared-directory concurrency stress test."""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import MemoryMode, ResultCache, RunConfig, Runner, SimulationJob
from repro.config import default_config
from repro.gpu.gpu import RunResult
from repro.harness.cache import SCHEMA_VERSION, job_fingerprint
from repro.harness.executor import SerialExecutor, execute_job

TINY = RunConfig(num_warps=8, accesses_per_warp=8)


def tiny_job(platform="Ohm-base", workload="backp", mode=MemoryMode.PLANAR,
             run_cfg=TINY, cfg=None):
    return SimulationJob(platform, workload, mode, run_cfg, cfg)


class TestFingerprint:
    def test_stable_across_instances(self):
        assert job_fingerprint(tiny_job()) == job_fingerprint(tiny_job())

    def test_platform_changes_fingerprint(self):
        assert job_fingerprint(tiny_job()) != job_fingerprint(
            tiny_job(platform="Oracle")
        )

    def test_workload_changes_fingerprint(self):
        assert job_fingerprint(tiny_job()) != job_fingerprint(
            tiny_job(workload="pagerank")
        )

    def test_mode_changes_fingerprint(self):
        assert job_fingerprint(tiny_job()) != job_fingerprint(
            tiny_job(mode=MemoryMode.TWO_LEVEL)
        )

    def test_run_config_changes_fingerprint(self):
        assert job_fingerprint(tiny_job()) != job_fingerprint(
            tiny_job(run_cfg=replace(TINY, accesses_per_warp=16))
        )

    def test_waveguides_change_fingerprint(self):
        assert job_fingerprint(tiny_job()) != job_fingerprint(
            tiny_job(run_cfg=replace(TINY, waveguides=4))
        )

    def test_explicit_cfg_override_changes_fingerprint(self):
        cfg = default_config(MemoryMode.PLANAR)
        hot = replace(cfg, hetero=replace(cfg.hetero, hot_threshold=99))
        assert job_fingerprint(tiny_job()) != job_fingerprint(tiny_job(cfg=hot))

    def test_equivalent_cfg_override_matches_default(self):
        # An explicit override identical to the mode-derived config is
        # the same simulation, so it must share a fingerprint.
        cfg = default_config(MemoryMode.PLANAR)
        assert job_fingerprint(tiny_job()) == job_fingerprint(tiny_job(cfg=cfg))


class TestSerialization:
    def test_run_result_round_trip(self):
        result = execute_job(tiny_job())
        assert RunResult.from_dict(result.to_dict()) == result

    def test_system_config_round_trip(self):
        from repro.config import SystemConfig

        cfg = default_config(MemoryMode.TWO_LEVEL).with_waveguides(4)
        assert SystemConfig.from_dict(cfg.to_dict()) == cfg

    def test_run_config_round_trip(self):
        assert RunConfig.from_dict(TINY.to_dict()) == TINY

    def test_pickle_round_trip_decodes_through_from_dict(self, monkeypatch):
        result = execute_job(tiny_job())
        pickled = pickle.dumps(result)
        calls = []
        decode = RunResult.from_dict

        def spy(data):
            calls.append(data)
            return decode(data)

        monkeypatch.setattr(RunResult, "from_dict", spy)
        back = pickle.loads(pickled)
        assert len(calls) == 1
        assert back == result
        assert back.fingerprint() == result.fingerprint()
        other = decode(json.loads(json.dumps(result.to_dict())))
        assert _same_key_objects(back, other) == len(result.counters)


def _same_key_objects(a: RunResult, b: RunResult) -> int:
    """How many counter names ``a`` and ``b`` share; asserts each shared
    name is one object in both."""
    names = {name: name for name in b.counters}
    shared = [name for name in a.counters if name in names]
    assert all(names[name] is name for name in shared)
    return len(shared)


class TestDecodedNamesAreShared:
    def test_results_from_different_files_share_names(self, tmp_path):
        jobs = [tiny_job(), tiny_job(workload="pagerank")]
        ResultCache(tmp_path).put(jobs[0], execute_job(jobs[0]))
        ResultCache(tmp_path).put(jobs[1], execute_job(jobs[1]))
        cache = ResultCache(tmp_path)
        a, b = (cache.get(job) for job in jobs)
        assert cache.hits == 2
        assert _same_key_objects(a, b) > len(a.counters) // 2

    def test_decoded_results_retain_less_than_plain_decode(self, tmp_path):
        """200 decoded results of one shape keep one copy of each name,
        so they retain well under what a plain ``json.loads`` plus
        ``dict(...)`` decode of the same files keeps."""
        import gc
        import tracemalloc

        job = tiny_job()
        payload = json.dumps({"result": execute_job(job).to_dict()})
        paths = [tmp_path / f"{i}.json" for i in range(200)]
        for path in paths:
            path.write_text(payload)

        def decoded(path):
            return RunResult.from_dict(json.loads(path.read_text())["result"])

        def plain(path):
            data = json.loads(path.read_text())["result"]
            return RunResult(**dict(data, counters=dict(data["counters"])))

        def retained(decode):
            gc.collect()
            tracemalloc.start()
            try:
                kept = [decode(path) for path in paths]
                size, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(kept) == len(paths)
            return size

        shared, unshared = retained(decoded), retained(plain)
        assert shared < 0.6 * unshared, (shared, unshared)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        assert cache.get(job) is None
        result = execute_job(job)
        cache.put(job, result)
        assert cache.get(job) == result
        assert cache.hits == 1 and cache.misses == 1 and cache.stores == 1

    def test_persists_across_instances(self, tmp_path):
        job = tiny_job()
        result = execute_job(job)
        ResultCache(tmp_path).put(job, result)
        fresh = ResultCache(tmp_path)
        assert fresh.get(job) == result

    def test_changed_run_config_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        cache.put(job, execute_job(job))
        assert cache.get(tiny_job(run_cfg=replace(TINY, accesses_per_warp=16))) is None

    def test_changed_waveguides_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        cache.put(job, execute_job(job))
        assert cache.get(tiny_job(run_cfg=replace(TINY, waveguides=8))) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        cache.put(job, execute_job(job))
        cache.path_for(job).write_text("{not json")
        assert cache.get(job) is None

    @pytest.mark.parametrize("counters", ["ab", [["k", 1]]], ids=["string", "pairs"])
    def test_counters_not_an_object_is_a_miss(self, tmp_path, counters):
        cache = ResultCache(tmp_path)
        job = tiny_job()
        cache.put(job, execute_job(job))
        path = cache.path_for(job)
        data = json.loads(path.read_text())
        data["result"]["counters"] = counters
        path.write_text(json.dumps(data))
        assert cache.get(job) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(tiny_job(), execute_job(tiny_job()))
        assert len(cache) == 1


class _CountingExecutor(SerialExecutor):
    """Serial executor that counts how many jobs actually simulate."""

    def __init__(self):
        self.executed = 0

    def run_jobs(self, jobs):
        self.executed += len(jobs)
        return super().run_jobs(jobs)


class TestRunnerCacheIntegration:
    def test_second_runner_never_simulates(self, tmp_path):
        warm = Runner(TINY, cache=ResultCache(tmp_path))
        a = warm.run("Ohm-base", "backp", MemoryMode.PLANAR)

        counting = _CountingExecutor()
        cold = Runner(TINY, executor=counting, cache=ResultCache(tmp_path))
        b = cold.run("Ohm-base", "backp", MemoryMode.PLANAR)
        assert counting.executed == 0
        assert cold.cache.hits == 1
        assert a == b

    def test_memo_shields_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = Runner(TINY, cache=cache)
        runner.run("Ohm-base", "backp", MemoryMode.PLANAR)
        runner.run("Ohm-base", "backp", MemoryMode.PLANAR)
        # The in-memory memo answers the repeat; the cache sees one miss.
        assert cache.misses == 1 and cache.hits == 0

    def test_cache_serves_identical_results_to_serial_path(self, tmp_path):
        plain = Runner(TINY).run("Auto-rw", "pagerank", MemoryMode.TWO_LEVEL)
        cached_runner = Runner(TINY, cache=ResultCache(tmp_path))
        first = cached_runner.run("Auto-rw", "pagerank", MemoryMode.TWO_LEVEL)
        again = Runner(TINY, cache=ResultCache(tmp_path)).run(
            "Auto-rw", "pagerank", MemoryMode.TWO_LEVEL
        )
        assert first == plain
        # JSON round-trip preserves every metric the figures consume.
        assert again.exec_time_ps == plain.exec_time_ps
        assert again.counters == pytest.approx(plain.counters)
        assert again.mean_mem_latency_ps == pytest.approx(plain.mean_mem_latency_ps)


class TestCacheEntryShape:
    def test_entry_carries_schema_and_job_facets(self, tmp_path):
        """v4 entries are self-describing: the result store indexes them
        without re-deriving anything from the fingerprint."""
        cache = ResultCache(tmp_path)
        job = tiny_job()
        cache.put(job, execute_job(job))
        data = json.loads(cache.path_for(job).read_text())
        assert data["schema"] == SCHEMA_VERSION
        assert data["job"] == job.to_dict()
        assert RunResult.from_dict(data["result"]) == execute_job(job)


# Driver for the concurrency stress test: one journaled BatchRun over
# the shared directory, fanned out over a 2-worker ParallelExecutor.
# Both contenders run the *same* batch, so every layer races: journal
# appends, cache writes, and shard claims.
_RACE_DRIVER = """
import sys
from repro.config import MemoryMode
from repro.harness.batch import BatchRun
from repro.harness.cache import ResultCache
from repro.harness.executor import ParallelExecutor, RunConfig, SimulationJob

root = sys.argv[1]
jobs = [
    SimulationJob("Ohm-base", "backp", MemoryMode.PLANAR,
                  RunConfig(num_warps=8, accesses_per_warp=8, seed=s))
    for s in range(6)
]
batch = BatchRun.open(root, jobs, shard_size=2)
batch.run(ParallelExecutor(2), ResultCache(root + "/cache"))
"""


@pytest.mark.slow
class TestConcurrentCacheRace:
    def test_two_parallel_batches_share_one_store(self, tmp_path):
        """Two ParallelExecutor batches race on the same jobs and the
        same cache/store directory: no corrupt or partial JSON may
        survive, and every job's stored content is exactly the one
        deterministic result."""
        driver = tmp_path / "driver.py"
        driver.write_text(_RACE_DRIVER)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(
            os.environ,
            PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
        )
        root = tmp_path / "shared"
        procs = [
            subprocess.Popen(
                [sys.executable, str(driver), str(root)],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for p in procs:
            _, err = p.communicate(timeout=300)
            assert p.returncode == 0, err.decode()

        jobs = [
            SimulationJob(
                "Ohm-base", "backp", MemoryMode.PLANAR,
                RunConfig(num_warps=8, accesses_per_warp=8, seed=s),
            )
            for s in range(6)
        ]
        cache_dir = root / "cache"
        # Exactly one file per unique job; no strays, no temp leftovers.
        files = sorted(cache_dir.glob("*"))
        assert sorted(f.name for f in files) == sorted(
            f"{job_fingerprint(j)}.json" for j in jobs
        )
        # Every entry parses cleanly and holds exactly-once content:
        # the racing writers can interleave, but each file is one
        # atomic rename of one complete, deterministic result.
        cache = ResultCache(cache_dir)
        for job in jobs:
            data = json.loads(cache.path_for(job).read_text())
            assert data["schema"] == SCHEMA_VERSION
            assert cache.get(job) == execute_job(job)
        # The store indexes the shared directory without skipping.
        from repro.harness.store import ResultStore

        store = ResultStore(cache_dir)
        assert len(store.entries()) == len(jobs)
        assert store.skipped == 0
        # The shared journal survived concurrent appenders: every
        # parseable record is a whole, valid shard completion.
        from repro.harness.batch import BatchRun, read_jsonl

        (batch,) = BatchRun.discover(root)
        recs = read_jsonl(batch.journal_path)
        assert {r["shard"] for r in recs} == {0, 1, 2}
        assert all(r["digest"] for r in recs)
        assert batch.status().done
