"""Process-parallel execution by default: parity, task plan, fallbacks.

The default :class:`Runner` fans a batch out over one forked worker per
available core.  These tests pin that the default is bit-identical to
in-process serial execution (materialized and streamed traces), that
the pool gets one task per trace-sharing group only when that keeps
every worker busy, and that no pool is started — and ``multiprocessing``
is not even imported — when none is needed.  A rerun served wholly from
the cache loads no numpy either: it simulates nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro import MemoryMode, RunConfig, Runner, SimulationJob
from repro.harness import executor as executor_mod
from repro.harness import experiments  # noqa: F401  (populates the registry)
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.harness.registry import EXPERIMENTS

QUICK = RunConfig(num_warps=48, accesses_per_warp=32)
TINY = RunConfig(num_warps=8, accesses_per_warp=8)
SRC = Path(__file__).resolve().parents[1] / "src"

# Runs the CLI in a fresh interpreter, then reports on stderr whether
# numpy was loaded along the way.
RUN_MAIN = """\
import sys
from repro.cli import main
rc = main(sys.argv[1:])
sys.stderr.write(f"numpy loaded: {'numpy' in sys.modules}\\n")
sys.exit(rc)
"""


def _jobs(workloads, platforms=("Ohm-base", "Oracle"), run_cfg=TINY):
    return [
        SimulationJob(p, w, MemoryMode.PLANAR, run_cfg)
        for w in workloads
        for p in platforms
    ]


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a fresh interpreter; capture bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True
    )


def _fingerprints(results: dict) -> dict:
    return {job: result.fingerprint() for job, result in results.items()}


@pytest.fixture
def two_cores(monkeypatch):
    """Make the default executor a two-worker pool on any machine."""
    monkeypatch.setattr(executor_mod, "available_cores", lambda: 2)


@pytest.fixture
def pools(monkeypatch):
    """Count the process pools built while a test runs."""
    from concurrent.futures import ProcessPoolExecutor

    built = []

    def counting(*args, **kwargs):
        built.append(kwargs.get("max_workers"))
        return ProcessPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(executor_mod.futures, "ProcessPoolExecutor", counting)
    return built


def _whereami(job: SimulationJob):
    """Picklable job function: the process that evaluated ``job``."""
    return os.getpid(), len(multiprocessing.active_children())


class TestDefaults:
    def test_make_executor_defaults_to_every_core(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "available_cores", lambda: 3)
        executor = make_executor()
        assert isinstance(executor, ParallelExecutor)
        assert executor.max_workers == 3
        monkeypatch.setattr(executor_mod, "available_cores", lambda: 1)
        assert isinstance(make_executor(), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_runner_uses_the_default_executor(self, two_cores):
        assert Runner(TINY).executor.max_workers == 2
        serial = SerialExecutor()
        assert Runner(TINY, executor=serial).executor is serial


class TestParity:
    def test_default_runner_matches_serial_on_quick_headline(
        self, two_cores, pools
    ):
        jobs = list(EXPERIMENTS["headline"].jobs(QUICK))
        default = Runner(QUICK).run_jobs(jobs)
        serial = Runner(QUICK, executor=SerialExecutor()).run_jobs(jobs)
        assert _fingerprints(default) == _fingerprints(serial)
        if threading.active_count() == 1:
            assert pools == [2]

    def test_streamed_same_workload_jobs_match_serial(
        self, two_cores, pools, monkeypatch
    ):
        # One trace-sharing group of two jobs: dispatched per job, so
        # both workers spill the same trace set side by side.
        monkeypatch.setenv("REPRO_STREAM_OPS_THRESHOLD", "0")
        monkeypatch.setattr(executor_mod, "_SPILL_FILES", {})
        jobs = _jobs(["pagerank"], platforms=("Hetero", "Ohm-BW"))
        default = Runner(TINY).run_jobs(jobs)
        serial = Runner(TINY, executor=SerialExecutor()).run_jobs(jobs)
        assert _fingerprints(default) == _fingerprints(serial)
        if threading.active_count() == 1:
            assert pools == [2]


class TestPlan:
    def test_groups_when_they_cover_every_worker(self):
        jobs = _jobs(["backp", "pagerank", "gemm_reuse"])
        tasks = ParallelExecutor(2).plan(jobs + jobs[:1])
        assert tasks == [tuple(jobs[0:2]), tuple(jobs[2:4]), tuple(jobs[4:6])]

    def test_per_job_when_groups_are_fewer_than_workers(self):
        jobs = _jobs(["backp", "pagerank", "gemm_reuse"])
        assert ParallelExecutor(4).plan(jobs) == [(job,) for job in jobs]

    def test_per_job_with_a_result_callback(self):
        jobs = _jobs(["backp", "pagerank", "gemm_reuse"])
        tasks = ParallelExecutor(2).plan(jobs, per_job=True)
        assert tasks == [(job,) for job in jobs]

    def test_sizing_splits_groups(self):
        small = _jobs(["backp"])
        large = _jobs(["backp"], run_cfg=RunConfig(num_warps=8, accesses_per_warp=16))
        tasks = ParallelExecutor(2).plan(small + large)
        assert tasks == [tuple(small), tuple(large)]

    def test_on_result_fires_once_per_unique_job(self):
        jobs = _jobs(["backp", "pagerank"])
        seen = []
        results = ParallelExecutor(2).run_jobs(
            jobs + jobs[:1], on_result=lambda job, result: seen.append(job)
        )
        assert sorted(seen, key=jobs.index) == jobs
        assert results[0] == results[-1]


class _OneWorkerInProcess(ThreadPoolExecutor):
    """Stands in for the process pool: one worker thread that shares
    this process's trace memo, so a test can read what a worker keeps."""

    def __init__(self, max_workers=None, mp_context=None):
        super().__init__(max_workers=1)


class TestWorkerMemo:
    @pytest.fixture
    def memo(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_TRACE_MEMO", {})
        monkeypatch.setattr(
            executor_mod.futures, "ProcessPoolExecutor", _OneWorkerInProcess
        )
        return executor_mod._TRACE_MEMO

    def test_grouped_task_drops_its_trace_set(self, memo):
        jobs = _jobs(["backp", "pagerank"])
        executor = ParallelExecutor(2)
        assert len(executor.plan(jobs)) == 2  # one task per trace set
        executor.run_jobs(jobs)
        assert memo == {}

    def test_per_job_tasks_keep_a_shared_trace_set(self, memo):
        jobs = _jobs(["backp", "pagerank"])
        executor = ParallelExecutor(4)
        assert len(executor.plan(jobs)) == 4  # one task per job
        executor.run_jobs(jobs)
        keys = {executor_mod._trace_key(job, job.resolved_config()) for job in jobs}
        assert set(memo) == keys


class TestFallbacks:
    def test_threaded_caller_runs_in_process(self):
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        helper.start()
        try:
            outcomes = ParallelExecutor(2).run_jobs(
                _jobs(["backp", "pagerank"]), fn=_whereami
            )
        finally:
            release.set()
            helper.join(timeout=10)
        assert not helper.is_alive()
        assert outcomes == [(os.getpid(), 0)] * 4
        assert multiprocessing.active_children() == []

    def test_all_cache_hits_start_no_pool(self, tmp_path, two_cores, monkeypatch):
        jobs = _jobs(["backp", "pagerank"])
        cache = ResultCache(tmp_path)
        filled = Runner(TINY, executor=SerialExecutor(), cache=cache).run_jobs(jobs)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for cache hits")

        monkeypatch.setattr(executor_mod.futures, "ProcessPoolExecutor", no_pool)
        rerun = Runner(TINY, cache=ResultCache(tmp_path)).run_jobs(jobs)
        assert _fingerprints(rerun) == _fingerprints(filled)

    def test_cli_import_leaves_multiprocessing_out(self):
        # Nor numpy or the service daemon and its socket stack: a
        # command loads only what it runs (DESIGN.md section 7, Rule 8).
        deferred = ("multiprocessing", "numpy", "socket", "repro.harness.service")
        code = "import repro.cli, sys; print(*(m for m in sys.argv[1:] if m in sys.modules))"
        assert _python(code, *deferred).stdout.split() == []

    def test_cache_hit_rerun_prints_same_bytes_without_numpy(self, tmp_path):
        argv = ["experiment", "fig16", "--quick", "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        fill = _python(RUN_MAIN, *argv)
        assert fill.stderr.endswith(b"numpy loaded: True\n")
        rerun = _python(RUN_MAIN, *argv)
        assert b" 0 misses" in rerun.stderr
        assert rerun.stderr.endswith(b"numpy loaded: False\n")
        assert rerun.stdout == fill.stdout
