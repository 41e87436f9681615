"""Execution backend: pure job descriptions plus pluggable executors.

Layer 1 of the experiment service (see DESIGN.md).  A
:class:`SimulationJob` is a frozen, hashable, picklable value that fully
describes one simulation — (platform, workload, mode, sizing, optional
config override) — and :func:`execute_job` turns one into a
:class:`~repro.gpu.gpu.RunResult` deterministically from scratch.

Executors evaluate whole job batches.  :class:`SerialExecutor` runs them
in-process; :class:`ParallelExecutor` fans them out over a forked
``concurrent.futures.ProcessPoolExecutor``, sending each worker whole
trace-sharing groups of jobs when there are enough of them, so each
trace set is still built once.  Because ``execute_job`` is a pure
function of the job, both produce bit-identical results.
:func:`make_executor` defaults to one worker per available core.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import shutil
import tempfile
import threading
from collections import Counter
from concurrent import futures
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import MemoryMode, SystemConfig, default_config
from repro.core.platforms import PLATFORMS
from repro.gpu.gpu import GpuModel, RunResult
from repro.workloads.registry import build_source, build_traces, get_workload_def
from repro.workloads.source import TraceSource
from repro.workloads.synthetic import WarpTrace
from repro.workloads.trace import (
    FileTraceSource,
    TraceMeta,
    TraceRecorder,
    save_stream,
)


@dataclass(frozen=True)
class RunConfig:
    """Simulation sizing: trade fidelity for wall-clock time.

    ``validate`` opts the run into the cross-layer invariant audit
    (``sim/audit.py``): the model is built with a strict
    :class:`~repro.sim.audit.Auditor` and any violated conservation law
    raises :class:`~repro.sim.audit.InvariantError` at the end of the
    run.  Validation never changes the simulated timeline or the
    counters — a validated run's ``RunResult`` is bit-identical to the
    un-validated one — but it is deliberately part of the job identity
    (and, when ``True``, of the cache fingerprint) so a cached
    un-validated result is never silently passed off as a validated
    run.
    """

    num_warps: int = 192
    accesses_per_warp: int = 80
    seed: int = 7
    waveguides: int = 1
    validate: bool = False

    #: Smallest ``accesses_per_warp`` that :meth:`scaled` will produce —
    #: below this a warp's access stream is too short to exercise the
    #: migration machinery at all.
    MIN_SCALED_ACCESSES = 8

    def scaled(self, factor: float) -> "RunConfig":
        """Sizing with ``accesses_per_warp`` multiplied by ``factor``.

        The product is truncated to an int and floored at
        :data:`MIN_SCALED_ACCESSES` (8), so aggressive down-scaling can
        never produce a degenerate trace.  ``scaled(1.0)`` is the
        identity whenever ``accesses_per_warp`` is already at or above
        the floor; a config below the floor is pulled *up* to it.
        """
        return replace(
            self,
            accesses_per_warp=max(
                self.MIN_SCALED_ACCESSES, int(self.accesses_per_warp * factor)
            ),
        )

    def to_dict(self) -> dict:
        data = {
            "num_warps": self.num_warps,
            "accesses_per_warp": self.accesses_per_warp,
            "seed": self.seed,
            "waveguides": self.waveguides,
        }
        # Emitted only when set: every pre-existing fingerprint, batch
        # manifest and cache entry (all written without the key) keeps
        # round-tripping to an equal RunConfig.
        if self.validate:
            data["validate"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        return cls(**data)


#: The named sizings every front end draws from, so no warps x accesses
#: pair is spelled out twice: ``quick`` is the CLI's ``--quick``, the
#: perf smoke cases and the full audit sweep; ``cli`` is the default of
#: the CLI's ``--warps``/``--accesses``; ``bench`` is the figure benches'
#: and the full perf cases' sizing, chosen so that Origin's working set
#: exceeds its DRAM.  ``RunConfig()`` itself (192 x 80) is the API
#: default and is not one of them (ROADMAP item 7 weighs a single one).
SIZING_PRESETS = {
    "quick": RunConfig(num_warps=48, accesses_per_warp=32),
    "cli": RunConfig(num_warps=96, accesses_per_warp=64),
    "bench": RunConfig(num_warps=192, accesses_per_warp=96),
}


@dataclass(frozen=True)
class SimulationJob:
    """Pure description of one (platform, workload, mode) simulation.

    ``cfg`` overrides the mode-derived :class:`SystemConfig` entirely —
    the sweep utilities use it to vary arbitrary knobs — while the
    common case derives the Table I configuration from ``mode`` and the
    ``run_cfg.waveguides`` count.
    """

    platform: str
    workload: str
    mode: MemoryMode
    run_cfg: RunConfig = RunConfig()
    cfg: Optional[SystemConfig] = None

    def resolved_config(self) -> SystemConfig:
        """The SystemConfig this job simulates under."""
        if self.cfg is not None:
            return self.cfg
        cfg = default_config(self.mode)
        if self.run_cfg.waveguides != 1:
            cfg = cfg.with_waveguides(self.run_cfg.waveguides)
        return cfg

    def simulated_as(self) -> "SimulationJob":
        """The job whose simulation this one's result is a relabel of.

        A two-level job on a :attr:`~repro.core.platforms.Platform.mode_blind`
        platform under the default config simulates exactly what its
        PLANAR twin does — the results differ only in the ``mode``
        label — so it returns that twin.  Every other job (including
        any ``cfg`` override, which may set arbitrary knobs) simulates
        as itself.
        """
        if (
            self.mode is MemoryMode.TWO_LEVEL
            and self.cfg is None
            and PLATFORMS[self.platform].mode_blind
        ):
            return replace(self, mode=MemoryMode.PLANAR)
        return self

    def to_dict(self) -> dict:
        """JSON-ready description; batch manifests persist these."""
        return {
            "platform": self.platform,
            "workload": self.workload,
            "mode": self.mode.value,
            "run_cfg": self.run_cfg.to_dict(),
            "cfg": None if self.cfg is None else self.cfg.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationJob":
        """Inverse of :meth:`to_dict` (round-trips exactly)."""
        cfg = data.get("cfg")
        return cls(
            platform=data["platform"],
            workload=data["workload"],
            mode=MemoryMode(data["mode"]),
            run_cfg=RunConfig.from_dict(data["run_cfg"]),
            cfg=None if cfg is None else SystemConfig.from_dict(cfg),
        )


# Worker-local trace memo: regenerating a workload's traces is pure in
# (workload, footprint, sizing, geometry, seed), and a matrix reuses the
# same traces across its seven platforms, so each process keeps them.
# Bounded FIFO so sizing sweeps in one long session can't accumulate
# every trace set ever generated.  A pool worker drops a set as soon as
# the task holding its whole group finishes (see ``_run_task``).
_TRACE_MEMO: Dict[Tuple, List[WarpTrace]] = {}
_TRACE_MEMO_MAX = 64

#: Per-process trace-pipeline counters: how many distinct trace sets
#: were generated (``memo_builds``), how often the memo served one back
#: (``memo_hits``), how many oversized sets were spilled to disk once
#: (``spill_builds``) and then re-streamed (``spill_hits``), and how
#: many jobs streamed straight off a recorded file (``replay_streams``).
#: A sweep whose builds stay near its distinct (workload, sizing, seed)
#: count — not its job count — is reusing traces as intended.
TRACE_STATS: Dict[str, int] = {
    "memo_builds": 0,
    "memo_hits": 0,
    "spill_builds": 0,
    "spill_hits": 0,
    "replay_streams": 0,
}

#: Above this many total ops (``num_warps * accesses_per_warp``) a job
#: streams its workload instead of materializing it through the memo:
#: the trace set is generated once per process into a chunked spill
#: file, and every job over it replays that file with bounded memory.
#: Override with the ``REPRO_STREAM_OPS_THRESHOLD`` environment
#: variable (0 streams everything).
DEFAULT_STREAM_OPS_THRESHOLD = 262_144

_SPILL_DIR: Optional[Path] = None
_SPILL_FILES: Dict[str, Path] = {}


class EnvSettingError(ValueError):
    """An environment variable the harness reads holds an invalid value."""


def stream_ops_threshold() -> int:
    """The streaming threshold, from ``REPRO_STREAM_OPS_THRESHOLD`` when
    set; anything but a non-negative integer raises
    :class:`EnvSettingError`."""
    text = os.environ.get("REPRO_STREAM_OPS_THRESHOLD")
    if text is None:
        return DEFAULT_STREAM_OPS_THRESHOLD
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise EnvSettingError(
            "REPRO_STREAM_OPS_THRESHOLD must be a non-negative integer "
            f"(0 streams everything), got {text!r}"
        )
    return value


def trace_cache_stats() -> Dict[str, int]:
    """Snapshot of this process's :data:`TRACE_STATS` counters."""
    return dict(TRACE_STATS)


def _trace_key(job: SimulationJob, cfg: SystemConfig) -> Tuple:
    """Everything that determines a job's trace set.

    The resolved :class:`WorkloadDef` itself is part of the key:
    re-registering a name with different parameters (``replace=True``)
    or re-recording a trace file (its digest is a def param) can never
    serve stale traces — mirroring the result cache, which fingerprints
    the resolved def for the same reason.
    """
    defn = get_workload_def(job.workload)
    return (
        defn,
        cfg.scale_down,
        job.run_cfg.num_warps,
        job.run_cfg.accesses_per_warp,
        cfg.gpu.line_bytes,
        cfg.hetero.page_bytes,
        job.run_cfg.seed,
    )


def _job_trace_key(job: SimulationJob) -> Tuple:
    """:func:`_trace_key` under the config ``job`` simulates with."""
    return _trace_key(job, job.resolved_config())


def traces_for(job: SimulationJob, cfg: SystemConfig) -> List[WarpTrace]:
    """Materialize (memoized) the warp traces a job simulates over.

    Resolution goes through the workload registry, so every family —
    Table II, the parametric families, composed scenarios and
    ``trace:<path>`` replays — shares this one path and its memo.
    """
    key = _trace_key(job, cfg)
    if key not in _TRACE_MEMO:
        while len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        defn = key[0]
        TRACE_STATS["memo_builds"] += 1
        _TRACE_MEMO[key] = build_traces(
            defn,
            defn.spec.scaled_footprint(cfg.scale_down),
            num_warps=job.run_cfg.num_warps,
            accesses_per_warp=job.run_cfg.accesses_per_warp,
            line_bytes=cfg.gpu.line_bytes,
            page_bytes=cfg.hetero.page_bytes,
            seed=job.run_cfg.seed,
        )
    else:
        TRACE_STATS["memo_hits"] += 1
    return _TRACE_MEMO[key]


def _spill_dir() -> Path:
    """This process's spill directory, made (and scheduled for removal
    at exit) on first use.

    :class:`ParallelExecutor` makes it before forking, so its workers
    write their spills here too: a forked worker leaves through
    ``os._exit`` and never runs the ``atexit`` hook itself.
    """
    global _SPILL_DIR
    if _SPILL_DIR is None:
        _SPILL_DIR = Path(tempfile.mkdtemp(prefix="repro-trace-spill-"))
        atexit.register(shutil.rmtree, _SPILL_DIR, ignore_errors=True)
    return _SPILL_DIR


def _spill_path_for(key: Tuple, defn) -> Path:
    """Stable per-process spill path for one resolved trace-set key.

    The spill is uncompressed JSONL: no other process reads it and it
    is deleted at exit, so gzip would only cost write time.  The name
    carries the pid because pool workers share their parent's
    directory and may spill the same trace set at once.
    """
    payload = json.dumps(
        [defn.fingerprint_payload(), list(key[1:])],
        sort_keys=True, separators=(",", ":"),
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]
    return _spill_dir() / f"{digest}-{os.getpid()}.jsonl"


def source_for(
    job: SimulationJob, cfg: SystemConfig
) -> Union[List[WarpTrace], TraceSource]:
    """The access streams a job simulates over, sized for the job.

    Three regimes, one per way a trace set can dominate a sweep's
    footprint:

    * ``trace:<path>`` replays always stream straight off the file
      (never materialized — the file already holds the full stream).
    * Generated workloads at or under :func:`stream_ops_threshold`
      total ops use the materialized memo (identical to the classic
      path — small traces are cheaper to keep than to re-derive).
    * Above the threshold, the stream is generated **once per process**
      into a chunked spill file, and this job — and every later job
      with the same resolved (workload, sizing, seed) — replays that
      file with peak memory bounded by O(warps x block).

    All three produce bit-identical :class:`~repro.gpu.gpu.RunResult`
    fingerprints (the streaming parity tests pin this).
    """
    defn = get_workload_def(job.workload)
    if defn.family == "trace":
        TRACE_STATS["replay_streams"] += 1
        return FileTraceSource(dict(defn.params)["path"])
    total_ops = job.run_cfg.num_warps * job.run_cfg.accesses_per_warp
    if total_ops <= stream_ops_threshold():
        return traces_for(job, cfg)
    key = _trace_key(job, cfg)
    cache_key = repr(key)
    path = _SPILL_FILES.get(cache_key)
    if path is None:
        path = _spill_path_for(key, defn)
        source = build_source(
            defn,
            defn.spec.scaled_footprint(cfg.scale_down),
            num_warps=job.run_cfg.num_warps,
            accesses_per_warp=job.run_cfg.accesses_per_warp,
            line_bytes=cfg.gpu.line_bytes,
            page_bytes=cfg.hetero.page_bytes,
            seed=job.run_cfg.seed,
        )
        meta = TraceMeta(
            workload=defn.name,
            platform="(spill)",
            mode="(spill)",
            line_bytes=cfg.gpu.line_bytes,
            num_warps=job.run_cfg.num_warps,
            spec=defn.spec,
        )
        save_stream(path, meta, source)
        _SPILL_FILES[cache_key] = path
        TRACE_STATS["spill_builds"] += 1
    else:
        TRACE_STATS["spill_hits"] += 1
    return FileTraceSource(path)


def execute_job(job: SimulationJob) -> RunResult:
    """Run one simulation from scratch.  Deterministic in ``job``.

    With ``job.run_cfg.validate`` set, the model carries a strict
    :class:`~repro.sim.audit.Auditor`: the result is bit-identical, but
    any violated cross-layer invariant raises
    :class:`~repro.sim.audit.InvariantError` instead of returning.
    """
    cfg = job.resolved_config()
    defn = get_workload_def(job.workload)
    traces = source_for(job, cfg)
    auditor = None
    if job.run_cfg.validate:
        from repro.sim.audit import Auditor

        auditor = Auditor(strict=True)
    return GpuModel(
        PLATFORMS[job.platform], cfg, defn.spec, traces, auditor=auditor
    ).run()


def execute_job_recorded(
    job: SimulationJob,
) -> Tuple[RunResult, List[WarpTrace]]:
    """Run one simulation while recording its executed access streams.

    Returns the normal :class:`RunResult` plus the per-warp traces the
    run actually issued (tenant labels preserved).  Saving those with
    :func:`repro.workloads.trace.save_traces` and replaying them as the
    ``trace:<path>`` workload under the same configuration reproduces
    the result fingerprint bit-identically.
    """
    cfg = job.resolved_config()
    defn = get_workload_def(job.workload)
    traces = traces_for(job, cfg)
    recorder = TraceRecorder(len(traces))
    model = GpuModel(
        PLATFORMS[job.platform], cfg, defn.spec, traces, recorder=recorder
    )
    result = model.run()
    recorded = recorder.to_traces(tenants=[t.tenant for t in traces])
    return result, recorded


class SerialExecutor:
    """Evaluate jobs one after the other in the calling process."""

    def run_jobs(
        self, jobs: Sequence[SimulationJob], fn=execute_job, on_result=None
    ) -> List:
        """``fn(job)`` per job, in job order; duplicates evaluated once.

        ``fn`` defaults to :func:`execute_job`; the audit sweep passes
        :func:`repro.harness.audit.execute_job_audited` to reuse this
        layer for outcome objects other than :class:`RunResult`.

        ``on_result(job, result)``, when given, fires once per *unique*
        job as its result lands — the service worker uses it to persist
        each result and refresh its lease heartbeat mid-shard, so a
        killed worker loses at most one job of progress.  An exception
        raised by the callback aborts the remaining jobs.
        """
        memo: Dict[SimulationJob, object] = {}
        out = []
        for job in jobs:
            if job not in memo:
                memo[job] = fn(job)
                if on_result is not None:
                    on_result(job, memo[job])
            out.append(memo[job])
        return out


def available_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS
    has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_task(fn, jobs: Sequence[SimulationJob], release: bool) -> List:
    """One pool task: ``fn`` over ``jobs``, in order, in one worker.

    ``release`` says the task holds every job of its trace set in this
    pool, so no later task in the worker reads the set again: it leaves
    the worker's memo once the task is done.
    """
    out = [fn(job) for job in jobs]
    if release:
        _TRACE_MEMO.pop(_job_trace_key(jobs[0]), None)
    return out


def _fork_context():
    """The pool's start method: fork where the platform offers it.

    Named explicitly because Python 3.14 changes the default.  Imported
    here, not at module level, so a run that never builds a pool never
    pays for ``multiprocessing``.
    """
    import multiprocessing

    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class ParallelExecutor:
    """Evaluate jobs concurrently across worker processes.

    Results are identical to :class:`SerialExecutor` — each job is an
    independent simulation — but a matrix finishes in roughly
    ``len(jobs) / max_workers`` of the serial time.
    """

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is None:
            max_workers = available_cores()
        if max_workers < 1:
            raise ValueError("need at least one worker")
        self.max_workers = max_workers

    def plan(
        self, jobs: Sequence[SimulationJob], per_job: bool = False
    ) -> List[Tuple[SimulationJob, ...]]:
        """Split the unique ``jobs`` into pool tasks.

        Jobs that share a trace set (same :func:`_trace_key`) form one
        task when there are at least as many such groups as workers, so
        each worker builds each of its trace sets once, as a serial run
        does.  Otherwise, or with ``per_job``, every job is its own task.
        """
        unique = list(dict.fromkeys(jobs))
        if per_job:
            return [(job,) for job in unique]
        groups: Dict[Tuple, List[SimulationJob]] = {}
        for job in unique:
            groups.setdefault(_job_trace_key(job), []).append(job)
        if len(groups) < min(self.max_workers, len(unique)):
            return [(job,) for job in unique]
        return [tuple(group) for group in groups.values()]

    def run_jobs(
        self, jobs: Sequence[SimulationJob], fn=execute_job, on_result=None
    ) -> List:
        """``fn(job)`` per job, in job order; duplicates evaluated once.

        ``fn`` must be a picklable top-level callable (it crosses the
        process boundary); results must be picklable too.

        Runs in-process, exactly as :class:`SerialExecutor`, when no
        pool is worth starting: fewer than two tasks, one worker, or
        other live threads in the caller (forking a threaded process is
        unsafe).

        ``on_result(job, result)`` fires in the *calling* process as
        each unique job's result arrives (completion order, not job
        order), and every job is then its own task, so the callback
        keeps its per-job cadence.  A callback exception stops
        consuming results; jobs already in flight run to completion but
        their results are discarded.
        """
        unique = list(dict.fromkeys(jobs))
        if (
            min(self.max_workers, len(unique)) < 2
            or threading.active_count() > 1
        ):
            return SerialExecutor().run_jobs(jobs, fn, on_result)
        tasks = self.plan(unique, per_job=on_result is not None)
        # A grouped plan gives each trace set one task; a per-job plan
        # may send several tasks of one set to the same worker, so those
        # keep the set in the worker's memo.
        keys = [_job_trace_key(task[0]) for task in tasks]
        sets = Counter(keys)
        _spill_dir()
        # Load numpy here, before the fork, so the workers share the
        # parent's copy; loading it in each worker after the fork costs
        # every worker the import and its own pages.
        import numpy  # noqa: F401
        results = {}
        with futures.ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(tasks)),
            mp_context=_fork_context(),
        ) as pool:
            futs = {
                pool.submit(_run_task, fn, task, sets[key] == 1): task
                for task, key in zip(tasks, keys)
            }
            for fut in futures.as_completed(futs):
                for job, result in zip(futs[fut], fut.result()):
                    results[job] = result
                    if on_result is not None:
                        on_result(job, result)
        return [results[job] for job in jobs]


def make_executor(jobs: Optional[int] = None):
    """``jobs`` worker processes, every available core when ``None``;
    1 means in-process serial execution."""
    if jobs is None:
        jobs = available_cores()
    return SerialExecutor() if jobs <= 1 else ParallelExecutor(jobs)
