"""Sharded batch scheduler with write-ahead journaling and resume.

Layer 4 of the experiment service (see DESIGN.md section 9).  A
:class:`BatchRun` takes an arbitrary :class:`SimulationJob` list, shards
it into deterministic chunks, and executes the shards through the
existing executors while journaling every completed shard to an
append-only JSONL manifest.  Because ``execute_job`` is a pure function
of the job and every result lands in the persistent
:class:`~repro.harness.cache.ResultCache`, a killed batch — SIGKILL,
OOM, power loss — resumes exactly where it left off: journaled shards
are skipped without touching the executor, and the merged results are
bit-identical to an uninterrupted run.

Layout of a batch root directory::

    <root>/
      cache/                    shared result cache (all batches)
      b-<id16>/
        manifest.json           immutable: shard plan + job descriptions
        journal.jsonl           append-only: one record per finished shard

The batch id is a digest of the (unordered) job fingerprint set plus the
shard size, so re-submitting the same work attaches to the existing
batch instead of starting over, and submitting different work can never
collide with an unrelated journal.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.gpu.gpu import RunResult
from repro.harness.cache import ResultCache, job_fingerprint, write_json_atomic
from repro.harness.executor import SerialExecutor, SimulationJob

log = logging.getLogger("repro.batch")

#: Bump when the manifest or journal record shape changes; old batches
#: then refuse to resume instead of misinterpreting their journals.
BATCH_SCHEMA = 1

#: Default jobs per shard — small enough that a kill loses little work,
#: large enough that journal appends are not the bottleneck.
DEFAULT_SHARD_SIZE = 16

MANIFEST_NAME = "manifest.json"
JOURNAL_NAME = "journal.jsonl"


class BatchError(RuntimeError):
    """A batch directory is inconsistent with the requested operation."""


# --------------------------------------------------------------------
# JSONL journal helpers
# --------------------------------------------------------------------

def append_jsonl(path: Union[str, Path], record: dict) -> None:
    """Append one record to a JSONL journal as a single atomic write.

    The record is serialized compactly and written with one
    ``os.write`` to a file opened ``O_APPEND``, so concurrent appenders
    interleave whole lines rather than bytes.  If a previous writer was
    killed mid-line (the file does not end in a newline), a separating
    newline is prepended so the torn fragment corrupts only itself.
    """
    path = Path(path)
    # O_CREAT does not create parent directories; without this, a
    # journal under a not-yet-created directory would lose the
    # (expensive) work done before the very first append.
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    data = line.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size > 0:
            with open(path, "rb") as fh:
                fh.seek(size - 1)
                if fh.read(1) != b"\n":
                    data = b"\n" + data
        os.write(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Every parseable record of a JSONL journal, in file order.

    Torn or corrupt lines (a writer killed mid-append) are skipped with
    a warning instead of poisoning the whole journal — the worst case
    is that one shard re-executes, which the result cache absorbs.
    """
    path = Path(path)
    records: List[dict] = []
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return records
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            log.warning("journal %s: skipping corrupt line %d", path, lineno)
            continue
        if isinstance(rec, dict):
            records.append(rec)
        else:
            log.warning("journal %s: skipping non-record line %d", path, lineno)
    return records


# --------------------------------------------------------------------
# Shard planning
# --------------------------------------------------------------------

def plan_shards(
    jobs: Sequence[SimulationJob], shard_size: int = DEFAULT_SHARD_SIZE
) -> Tuple[Tuple[SimulationJob, ...], ...]:
    """Deterministic shard plan: dedup (order-preserving), then chunk.

    Every unique job appears in exactly one shard; every shard except
    possibly the last holds exactly ``shard_size`` jobs.  The plan is a
    pure function of the job sequence, so planner and resumer always
    agree on what shard ``i`` contains.
    """
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    unique = list(dict.fromkeys(jobs))
    return tuple(
        tuple(unique[i : i + shard_size])
        for i in range(0, len(unique), shard_size)
    )


def _shard_digest(shard: Sequence[SimulationJob]) -> str:
    """Integrity digest of one shard's job fingerprints (order matters)."""
    h = hashlib.sha256()
    for job in shard:
        h.update(job_fingerprint(job).encode("ascii"))
    return h.hexdigest()


def batch_id(
    jobs: Sequence[SimulationJob], shard_size: int = DEFAULT_SHARD_SIZE
) -> str:
    """Stable identity of a batch: its unique job *set* plus shard size.

    Order-independent, so submitting the same matrix with jobs listed in
    a different order attaches to the same batch.
    """
    h = hashlib.sha256()
    h.update(f"schema={BATCH_SCHEMA};shard_size={shard_size};".encode("ascii"))
    for fp in sorted({job_fingerprint(j) for j in jobs}):
        h.update(fp.encode("ascii"))
    return h.hexdigest()


# --------------------------------------------------------------------
# Status records
# --------------------------------------------------------------------

@dataclass(frozen=True)
class ShardDone:
    """Progress callback payload: one shard just finished."""

    index: int
    total: int
    jobs: int
    executed: int
    wall_s: float


@dataclass(frozen=True)
class BatchStatus:
    """Point-in-time progress of one batch."""

    batch_id: str
    label: str
    total_shards: int
    completed_shards: int
    total_jobs: int
    completed_jobs: int

    @property
    def done(self) -> bool:
        return self.completed_shards == self.total_shards

    def to_row(self) -> dict:
        return {
            "batch": self.batch_id[:16],
            "label": self.label,
            "shards": f"{self.completed_shards}/{self.total_shards}",
            "jobs": f"{self.completed_jobs}/{self.total_jobs}",
            "state": "done" if self.done else "pending",
        }


# --------------------------------------------------------------------
# BatchRun
# --------------------------------------------------------------------

class BatchRun:
    """One sharded, journaled, resumable job batch on disk."""

    def __init__(
        self,
        batch_dir: Union[str, Path],
        shards: Tuple[Tuple[SimulationJob, ...], ...],
        shard_size: int,
        label: str = "",
    ) -> None:
        self.batch_dir = Path(batch_dir)
        self.shards = shards
        self.shard_size = shard_size
        self.label = label
        self.batch_id = batch_id(self.jobs, shard_size)
        # Fingerprinting resolves workload defs and builds full config
        # dicts — compute each shard's digest once per instance instead
        # of once per journal record per status()/run() call.
        self._shard_digests = tuple(_shard_digest(s) for s in shards)

    # -- construction -------------------------------------------------

    @classmethod
    def open(
        cls,
        root: Union[str, Path],
        jobs: Sequence[SimulationJob],
        shard_size: int = DEFAULT_SHARD_SIZE,
        label: str = "",
    ) -> "BatchRun":
        """Create a batch for ``jobs`` under ``root`` — or attach to it.

        The batch directory is keyed by :func:`batch_id`, so opening the
        same job set twice returns the same on-disk batch (with whatever
        progress its journal already records), which is exactly what
        ``repro batch run`` re-invoked after a crash wants.
        """
        if not jobs:
            raise BatchError("refusing to create an empty batch")
        shards = plan_shards(jobs, shard_size)
        batch = cls(
            Path(root) / f"b-{batch_id(jobs, shard_size)[:16]}",
            shards,
            shard_size,
            label,
        )
        manifest_path = batch.batch_dir / MANIFEST_NAME
        if manifest_path.exists():
            return cls.load(batch.batch_dir)
        batch.batch_dir.mkdir(parents=True, exist_ok=True)
        batch._write_manifest()
        return batch

    @classmethod
    def load(cls, batch_dir: Union[str, Path]) -> "BatchRun":
        """Attach to an existing batch directory (for status/resume)."""
        batch_dir = Path(batch_dir)
        path = batch_dir / MANIFEST_NAME
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise BatchError(f"{batch_dir} has no {MANIFEST_NAME}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise BatchError(f"unreadable manifest {path}: {exc}") from None
        if data.get("batch_schema") != BATCH_SCHEMA:
            raise BatchError(
                f"batch {batch_dir} has schema {data.get('batch_schema')!r}; "
                f"this build speaks schema {BATCH_SCHEMA}"
            )
        try:
            shards = tuple(
                tuple(SimulationJob.from_dict(j) for j in shard)
                for shard in data["shards"]
            )
            shard_size = int(data["shard_size"])
            label = data.get("label", "")
        except (KeyError, TypeError, ValueError) as exc:
            raise BatchError(f"malformed manifest {path}: {exc}") from None
        try:
            batch = cls(batch_dir, shards, shard_size, label)
        except (KeyError, OSError, ValueError) as exc:
            # batch_id fingerprints every job, which resolves its
            # workload — a deleted trace file or an unregistered name
            # must degrade to "this batch can't load", not crash
            # status/resume for the whole root.
            raise BatchError(
                f"batch {batch_dir}: cannot resolve its workloads ({exc})"
            ) from None
        if data.get("batch_id") != batch.batch_id:
            raise BatchError(
                f"batch {batch_dir}: manifest id {data.get('batch_id')!r} "
                "does not match its job set — manifest was edited or the "
                "fingerprint schema changed; delete the directory to restart"
            )
        return batch

    @classmethod
    def discover(cls, root: Union[str, Path]) -> List["BatchRun"]:
        """Every loadable batch under a root directory (sorted by id)."""
        root = Path(root)
        found = []
        if not root.is_dir():
            return found
        for sub in sorted(root.iterdir()):
            if (sub / MANIFEST_NAME).is_file():
                try:
                    found.append(cls.load(sub))
                except BatchError as exc:
                    log.warning("skipping %s: %s", sub, exc)
        return found

    def _write_manifest(self) -> None:
        payload = {
            "batch_schema": BATCH_SCHEMA,
            "batch_id": self.batch_id,
            "label": self.label,
            "shard_size": self.shard_size,
            "num_jobs": len(self.jobs),
            "shards": [[j.to_dict() for j in shard] for shard in self.shards],
        }
        write_json_atomic(
            self.batch_dir / MANIFEST_NAME, payload, indent=1, sort_keys=True
        )

    # -- introspection ------------------------------------------------

    @property
    def jobs(self) -> List[SimulationJob]:
        """Every unique job, in shard order."""
        return [job for shard in self.shards for job in shard]

    @property
    def journal_path(self) -> Path:
        return self.batch_dir / JOURNAL_NAME

    def default_cache(self) -> ResultCache:
        """The batch root's shared result cache (``<root>/cache``)."""
        return ResultCache(self.batch_dir.parent / "cache")

    def completed_shards(self) -> Dict[int, dict]:
        """Journaled shard index -> its completion record.

        A record only counts if its shard index is in range and its
        integrity digest matches the manifest's shard — a journal from
        a different plan (or a tampered one) can never mark work done
        that was not actually done for *this* batch.
        """
        done: Dict[int, dict] = {}
        for rec in read_jsonl(self.journal_path):
            idx = rec.get("shard")
            if not isinstance(idx, int) or not 0 <= idx < len(self.shards):
                log.warning("journal %s: ignoring out-of-range shard %r",
                            self.journal_path, idx)
                continue
            if rec.get("digest") != self._shard_digests[idx]:
                log.warning("journal %s: shard %d digest mismatch; will re-run",
                            self.journal_path, idx)
                continue
            done.setdefault(idx, rec)
        return done

    def status(self) -> BatchStatus:
        done = self.completed_shards()
        return BatchStatus(
            batch_id=self.batch_id,
            label=self.label,
            total_shards=len(self.shards),
            completed_shards=len(done),
            total_jobs=len(self.jobs),
            completed_jobs=sum(len(self.shards[i]) for i in done),
        )

    def pending_shards(self) -> List[int]:
        """Shard indices the journal does not cover yet, in plan order."""
        done = self.completed_shards()
        return [i for i in range(len(self.shards)) if i not in done]

    # -- execution ----------------------------------------------------

    def run_shard(
        self,
        idx: int,
        executor: Optional[object] = None,
        cache: Optional[ResultCache] = None,
        *,
        collect: Optional[Dict[SimulationJob, RunResult]] = None,
        annotate: Optional[dict] = None,
        on_result: Optional[Callable[[SimulationJob, RunResult], None]] = None,
        journaled: bool = False,
    ) -> Optional[ShardDone]:
        """Execute one shard (cache-probe first) and journal it.

        This is the single shard-execution primitive shared by
        :meth:`run` and the service worker (``harness/service.py``),
        which executes exactly the one shard it holds a lease on.

        Jobs the cache already holds are skipped (a shard whose
        executor died mid-way re-runs only its missing jobs); the rest
        go through ``executor.run_jobs``, each result is persisted to
        ``cache`` as it lands, and only then is the shard journaled —
        a journal record means "all results of this shard are durable".
        With ``journaled=True`` (the caller saw a journal record for
        this shard) and every result still cached, the shard is skipped
        entirely and ``None`` is returned.

        ``collect`` gathers every result (probed or executed) so the
        caller merges without a second cache read per job.  ``annotate``
        merges extra fields (worker id, reclaim provenance) into the
        journal record.  ``on_result(job, result)`` fires after each
        *executed* job's result is persisted — the worker's lease
        heartbeat lives there; an exception from it (e.g. the lease was
        lost) aborts the shard *before* the journal append, so a
        half-run shard is never marked done.
        """
        executor = executor or SerialExecutor()
        cache = cache if cache is not None else self.default_cache()
        shard = self.shards[idx]
        total = len(self.shards)
        t0 = time.perf_counter()
        pending = []
        for job in shard:
            result = cache.get(job)
            if result is None:
                pending.append(job)
            elif collect is not None:
                collect[job] = result
        if journaled and not pending:
            log.info("batch %s: shard %d/%d already journaled; skipping",
                     self.batch_id[:12], idx + 1, total)
            return None
        if journaled:
            log.warning(
                "batch %s: shard %d journaled but %d result(s) missing "
                "from cache %s; re-running the shard",
                self.batch_id[:12], idx, len(pending), cache.cache_dir,
            )
        if pending:
            def _persist(job: SimulationJob, result: RunResult) -> None:
                cache.put(job, result)
                if collect is not None:
                    collect[job] = result
                if on_result is not None:
                    on_result(job, result)

            if on_result is None:
                # Classic path: executors that predate the on_result
                # hook (tests subclass them) keep working unchanged.
                for job, result in zip(pending, executor.run_jobs(pending)):
                    _persist(job, result)
            else:
                executor.run_jobs(pending, on_result=_persist)
        wall = time.perf_counter() - t0
        record = {
            "shard": idx,
            "jobs": len(shard),
            "executed": len(pending),
            "digest": self._shard_digests[idx],
            "wall_s": round(wall, 6),
        }
        if annotate:
            record.update(annotate)
        append_jsonl(self.journal_path, record)
        log.info(
            "batch %s: shard %d/%d done (%d jobs, %d executed, %.2fs)",
            self.batch_id[:12], idx + 1, total, len(shard),
            len(pending), wall,
        )
        return ShardDone(idx, total, len(shard), len(pending), wall)

    def run(
        self,
        executor: Optional[object] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[ShardDone], None]] = None,
    ) -> Dict[SimulationJob, RunResult]:
        """Execute every shard the journal does not already cover.

        Per shard this is exactly :meth:`run_shard`; journaled shards
        are skipped only after a cache probe confirms their results are
        still present — a pruned or mismatched cache directory forces a
        re-run instead of leaving the batch permanently unresumable.
        Returns the merged results of the whole batch.
        """
        executor = executor or SerialExecutor()
        # `cache or ...` would be wrong: an *empty* ResultCache is falsy
        # (it defines __len__), and silently swapping in the default
        # would strand every result outside the caller's directory.
        cache = cache if cache is not None else self.default_cache()
        done = self.completed_shards()
        merged: Dict[SimulationJob, RunResult] = {}
        for idx in range(len(self.shards)):
            shard_done = self.run_shard(
                idx, executor, cache, collect=merged, journaled=idx in done
            )
            if shard_done is not None and progress is not None:
                progress(shard_done)
        # Every result was collected on the way through (probe or
        # execution) — no second read of N cache files.
        return {job: merged[job] for job in self.jobs}

    def resume(
        self,
        executor: Optional[object] = None,
        cache: Optional[ResultCache] = None,
        progress: Optional[Callable[[ShardDone], None]] = None,
    ) -> Dict[SimulationJob, RunResult]:
        """Alias of :meth:`run` — running *is* resuming (idempotent)."""
        return self.run(executor=executor, cache=cache, progress=progress)

    def results(
        self, cache: Optional[ResultCache] = None
    ) -> Dict[SimulationJob, RunResult]:
        """Merged results of a completed batch, read from the cache.

        Raises :class:`BatchError` if any job's result is missing —
        either the batch is not finished or the cache was pruned; run
        (resume) the batch first.
        """
        cache = cache if cache is not None else self.default_cache()
        merged: Dict[SimulationJob, RunResult] = {}
        for job in self.jobs:
            result = cache.get(job)
            if result is None:
                raise BatchError(
                    f"batch {self.batch_id[:12]}: no cached result for "
                    f"{job.platform}/{job.workload}/{job.mode.value} in "
                    f"{cache.cache_dir} — wrong --cache-dir, or the entry "
                    "was pruned; resuming with this cache re-computes it"
                )
            merged[job] = result
        return merged
