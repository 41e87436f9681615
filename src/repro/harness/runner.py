"""The experiment service: memoizing front-end over executors + cache.

One :class:`Runner` owns a default :class:`RunConfig` (how big each
simulation is), an executor (how jobs are evaluated — by default
across one worker process per available core, or serially) and an
optional persistent :class:`~repro.harness.cache.ResultCache`.  Per-figure experiment specs
submit whole job batches through :meth:`Runner.run_jobs`, so Figs. 16,
17, 18 and 19 all read the same warm matrix, and a parallel executor
evaluates the distinct jobs concurrently.

The lookup order per job is: in-memory memo -> persistent cache ->
mode-blind twin -> executor.  A job that misses both stores is mapped
to the job it simulates as (:meth:`SimulationJob.simulated_as`): an
Origin two-level job is its planar twin, because Origin's DRAM-only
memory ignores the mode.  The executor runs each distinct twin once
per batch (a twin already in the memo is not re-run), and every job
gets its twin's result relabeled with its own ``mode`` and stored back
to both memo and cache under its own key — so cache keys, warm reruns
and every printed byte are what running each job would give.

When constructed with a ``batch_dir``, the runner routes every batch of
never-seen jobs through a journaled
:class:`~repro.harness.batch.BatchRun` instead of calling the executor
directly, so any entry point — a figure experiment, a sweep, the CLI —
becomes checkpointed and resumable without knowing about batches.
That path skips the twin mapping and executes every job, because the
shard journals count executed jobs.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.config import MemoryMode
from repro.core.platforms import PLATFORMS, Platform
from repro.gpu.gpu import RunResult
from repro.harness.batch import DEFAULT_SHARD_SIZE, BatchRun
from repro.harness.cache import ResultCache
from repro.harness.executor import (
    ParallelExecutor,
    RunConfig,
    SerialExecutor,
    SimulationJob,
    execute_job,
    make_executor,
)
from repro.workloads.registry import WORKLOADS

__all__ = [
    "ALL_PLATFORMS",
    "HETERO_PLATFORMS",
    "ALL_WORKLOADS",
    "RunConfig",
    "Runner",
    "SimulationJob",
    "SerialExecutor",
    "ParallelExecutor",
    "execute_job",
    "make_executor",
]

ALL_PLATFORMS = tuple(PLATFORMS)
HETERO_PLATFORMS = ("Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle")
ALL_WORKLOADS = tuple(WORKLOADS)


class Runner:
    """Memoizing simulation service for the benchmark harness."""

    def __init__(
        self,
        run_cfg: Optional[RunConfig] = None,
        executor: Optional[object] = None,
        cache: Optional[ResultCache] = None,
        batch_dir: Optional[Union[str, Path]] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> None:
        self.run_cfg = run_cfg or RunConfig()
        self.executor = executor if executor is not None else make_executor()
        self.batch_dir = Path(batch_dir) if batch_dir is not None else None
        self.shard_size = shard_size
        if cache is None and self.batch_dir is not None:
            # Batched runs must be able to merge journaled shards back,
            # so a persistent cache is not optional — default to the
            # batch root's shared one.
            cache = ResultCache(self.batch_dir / "cache")
        self.cache = cache
        self._results: Dict[SimulationJob, RunResult] = {}

    def job(
        self,
        platform: str,
        workload: str,
        mode: MemoryMode,
        run_cfg: Optional[RunConfig] = None,
    ) -> SimulationJob:
        """Job description under this runner's default sizing."""
        return SimulationJob(platform, workload, mode, run_cfg or self.run_cfg)

    def run_jobs(
        self, jobs: Sequence[SimulationJob]
    ) -> Dict[SimulationJob, RunResult]:
        """Evaluate a batch; only never-seen, distinct systems reach the
        executor (see :meth:`SimulationJob.simulated_as`)."""
        if self.batch_dir is not None:
            return self._run_jobs_batched(jobs)
        pending: List[SimulationJob] = []
        for job in dict.fromkeys(jobs):
            if job in self._results:
                continue
            if self.cache is not None:
                cached = self.cache.get(job)
                if cached is not None:
                    self._results[job] = cached
                    continue
            pending.append(job)
        if pending:
            twins = {job: job.simulated_as() for job in pending}
            todo = [
                t for t in dict.fromkeys(twins.values()) if t not in self._results
            ]
            for twin, result in zip(todo, self.executor.run_jobs(todo)):
                self._store(twin, result)
            for job, twin in twins.items():
                if twin != job:
                    result = self._results[twin]
                    self._store(job, replace(
                        result, mode=job.mode.value, counters=dict(result.counters)
                    ))
        return {job: self._results[job] for job in jobs}

    def _store(self, job: SimulationJob, result: RunResult) -> None:
        self._results[job] = result
        if self.cache is not None:
            self.cache.put(job, result)

    def _run_jobs_batched(
        self, jobs: Sequence[SimulationJob]
    ) -> Dict[SimulationJob, RunResult]:
        """Route never-memoized jobs through a journaled BatchRun.

        The batch identity covers the full not-yet-memoized job set (no
        cache pre-filter), so a re-invocation after a crash opens the
        *same* batch and skips its journaled shards outright — per-job
        cache shielding happens inside the shard loop.
        """
        todo = [j for j in dict.fromkeys(jobs) if j not in self._results]
        if todo:
            batch = BatchRun.open(self.batch_dir, todo, self.shard_size)
            self._results.update(
                batch.run(executor=self.executor, cache=self.cache)
            )
        return {job: self._results[job] for job in jobs}

    def run_job(self, job: SimulationJob) -> RunResult:
        return self.run_jobs([job])[job]

    def run(self, platform: str, workload: str, mode: MemoryMode) -> RunResult:
        """One simulation (memoized, cache-aware)."""
        return self.run_job(self.job(platform, workload, mode))

    def matrix(
        self,
        platforms: Iterable[str],
        workloads: Iterable[str],
        mode: MemoryMode,
    ) -> Dict[Tuple[str, str], RunResult]:
        """A (platform x workload) matrix, evaluated as one batch."""
        cells = [(p, w) for p in platforms for w in workloads]
        results = self.run_jobs([self.job(p, w, mode) for p, w in cells])
        return {
            (p, w): results[self.job(p, w, mode)] for p, w in cells
        }

    def platform(self, name: str) -> Platform:
        return PLATFORMS[name]
