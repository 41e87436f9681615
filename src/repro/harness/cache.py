"""Persistent on-disk cache of simulation results.

Layer 2 of the experiment service (see DESIGN.md).  Each
:class:`~repro.harness.executor.SimulationJob` is fingerprinted over its
*fully resolved* inputs — the complete :class:`SystemConfig`, the
:class:`RunConfig` sizing, platform, workload and mode — so a hit is
guaranteed to describe the same deterministic simulation, and changing
any knob (a waveguide count, an XPoint latency, a trace seed) changes
the key.  Results are stored one JSON file per fingerprint, written
atomically, so concurrent runs and repeated CLI/benchmark invocations
share work across processes and across sessions.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Optional, Union

from repro.config import SystemConfig
from repro.gpu.gpu import RunResult
from repro.harness.executor import RunConfig, SimulationJob
from repro.workloads.registry import get_workload_def
from repro.workloads.spec import WorkloadDef

log = logging.getLogger("repro.cache")


def write_json_atomic(
    path: Union[str, Path],
    payload: dict,
    indent: Optional[int] = None,
    sort_keys: bool = False,
) -> None:
    """Write a JSON document atomically: temp file in the same
    directory, then ``os.replace`` — readers never see a partial file.
    Shared by the result cache and the batch manifest writer."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=indent, sort_keys=sort_keys)
            fh.flush()
            # Data must be durable *before* the rename publishes it:
            # the batch journal fsyncs its shard records on the promise
            # that every published result already survived a crash.
            os.fsync(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise

# Bump when the fingerprint payload or RunResult schema changes shape;
# stale entries then simply miss instead of deserializing garbage.
# v2: Stats.snapshot() grew latency ".min"/".max" counters (PR 2), so
# pre-PR-2 cached results have a different counter shape.
# v3: the workload subsystem became declarative (PR 3) — the fingerprint
# now folds in the resolved WorkloadDef (family, params, spec, and for
# trace replays the file digest), so same-named workloads with
# different parameters can never alias a cached result.
# v4: entries carry the job's facets (platform, workload, mode, sizing)
# alongside the result so the result store (harness/store.py) can index
# and query the cache directory without re-deriving fingerprints;
# ``repro store gc`` reclaims pre-v4 entries.
SCHEMA_VERSION = 4


def _canonical(payload) -> str:
    """The sorted-key, compact JSON text every fingerprint hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# Sub-payload memos: each holds the canonical JSON *text* of one frozen
# value, keyed by that value — never by a workload name — so a
# re-registered workload or a re-recorded trace (its digest is a def
# param) resolves to a new def and misses.
@lru_cache(maxsize=64)
def _system_text(cfg: SystemConfig) -> str:
    return _canonical(cfg.to_dict())


@lru_cache(maxsize=256)
def _workload_text(defn: WorkloadDef) -> str:
    return _canonical(defn.fingerprint_payload())


@lru_cache(maxsize=64)
def _run_cfg_text(run_cfg: RunConfig) -> str:
    return _canonical(run_cfg.to_dict())


def job_fingerprint(job: SimulationJob) -> str:
    """Stable hex digest of everything that determines a job's result.

    The digest covers the canonical JSON of ``{"schema", "platform",
    "workload", "workload_def", "mode", "run_cfg", "system"}``.  The
    envelope is spliced by hand, in sorted-key order, around the
    memoized sub-payload texts, which is byte-for-byte what
    :func:`_canonical` makes of the whole dict.
    """
    canonical = (
        f'{{"mode":{json.dumps(job.mode.value)}'
        f',"platform":{json.dumps(job.platform)}'
        f',"run_cfg":{_run_cfg_text(job.run_cfg)}'
        f',"schema":{SCHEMA_VERSION}'
        f',"system":{_system_text(job.resolved_config())}'
        f',"workload":{json.dumps(job.workload)}'
        f',"workload_def":{_workload_text(get_workload_def(job.workload))}}}'
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of ``<fingerprint>.json`` RunResult files."""

    def __init__(self, cache_dir: Union[str, Path]) -> None:
        self.cache_dir = Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise NotADirectoryError(
                f"cache path {self.cache_dir} exists and is not a directory"
            )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, job: SimulationJob) -> Path:
        return self.cache_dir / f"{job_fingerprint(job)}.json"

    def get(self, job: SimulationJob) -> Optional[RunResult]:
        """Cached result, or ``None`` on miss (corrupt entries miss too)."""
        path = self.path_for(job)
        try:
            data = json.loads(path.read_text())
            result = RunResult.from_dict(data["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
            log.warning("cache entry %s unreadable (%s); re-running", path.name, exc)
            self.misses += 1
            return None
        self.hits += 1
        log.info(
            "cache hit %s/%s/%s (%s)",
            job.platform, job.workload, job.mode.value, path.name[:12],
        )
        return result

    def put(self, job: SimulationJob, result: RunResult) -> None:
        """Atomically persist one result (write temp file, then rename)."""
        payload = {
            "schema": SCHEMA_VERSION,
            "job": job.to_dict(),
            "result": result.to_dict(),
        }
        write_json_atomic(self.path_for(job), payload)
        self.stores += 1

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def summary(self) -> str:
        return f"cache: {self.hits} hits, {self.misses} misses, {self.stores} stores"
