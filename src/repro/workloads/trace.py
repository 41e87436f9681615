"""Memory-trace format: record any simulation, replay it as a workload.

The format is compact JSONL (gzip-compressed when the path ends in
``.gz``):

* **line 1** — a header object: ``format`` (``"repro-trace"``),
  ``version``, the originating ``workload``/``platform``/``mode``,
  ``line_bytes``, ``num_warps``, and the full ``spec`` dict of the
  recorded workload (so a replay carries the original
  :class:`~repro.workloads.spec.WorkloadSpec` — including its name,
  which keeps the replayed :class:`~repro.gpu.gpu.RunResult`
  bit-identical to the recorded run).
* **one line per warp** — ``{"warp": i, "tenant": ..., "gaps": [...],
  "addrs": [...], "writes": [0/1, ...]}``.

Recording hooks into the warp's memory-issue path: a
:class:`TraceRecorder` handed to :class:`~repro.gpu.gpu.GpuModel` (via
``repro run --record-trace`` or ``repro workloads record``) captures
every ``(gap, addr, write)`` exactly as executed.  Because the
simulator is a deterministic function of (traces, config), replaying a
recorded file under the same configuration reproduces the original
``RunResult`` fingerprint bit-identically — the property the trace
tests pin down.

Replay is addressed through the registry as the workload name
``trace:<path>`` and therefore works everywhere a workload name does:
``repro run``, experiment specs, sweeps, parallel executors and the
persistent result cache (the file's SHA-256 is folded into the cache
fingerprint).
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, List, Optional, Sequence, Union

from repro.workloads.source import Block, TraceSource, WarpStream, materialize, round_robin
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import WarpTrace

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1
#: The chunked (v2) format: after the header, each line is one warp's
#: next block ``{"w": i, "g": [...], "a": [...], "wr": [0/1, ...]}``
#: (plus ``"t"``, the tenant label, on a warp's first record), warps
#: interleaved round-robin so a replaying reader parks at most one
#: round of blocks; a warp's stream ends with ``{"w": i, "end": 1}``.
#: Missing end markers mean the file was truncated mid-stream, and a
#: warp with an end marker but no blocks is legitimately empty (the
#: ``repro trace filter`` stage emits exactly that for dropped warps).
TRACE_VERSION_CHUNKED = 2

#: Registry prefix: ``trace:<path>`` resolves to a replay workload.
TRACE_PREFIX = "trace:"


class TraceFormatError(ValueError):
    """Raised when a trace file is malformed or has the wrong version."""


@dataclass(frozen=True)
class TraceMeta:
    """Header of a trace file: provenance plus the recorded spec."""

    workload: str
    platform: str
    mode: str
    line_bytes: int
    num_warps: int
    spec: WorkloadSpec

    def to_dict(self, version: int = TRACE_VERSION) -> dict:
        from dataclasses import asdict

        return {
            "format": TRACE_FORMAT,
            "version": version,
            "workload": self.workload,
            "platform": self.platform,
            "mode": self.mode,
            "line_bytes": self.line_bytes,
            "num_warps": self.num_warps,
            "spec": asdict(self.spec),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceMeta":
        meta, _version = _meta_and_version(data)
        return meta


def _meta_and_version(data: dict) -> tuple["TraceMeta", int]:
    """Parse a header dict into its meta and format version."""
    if data.get("format") != TRACE_FORMAT:
        raise TraceFormatError("not a repro-trace file (bad format marker)")
    version = data.get("version")
    if version not in (TRACE_VERSION, TRACE_VERSION_CHUNKED):
        raise TraceFormatError(
            f"unsupported trace version {version!r} (this build reads "
            f"v{TRACE_VERSION} and v{TRACE_VERSION_CHUNKED})"
        )
    meta = TraceMeta(
        workload=data["workload"],
        platform=data["platform"],
        mode=data["mode"],
        line_bytes=data["line_bytes"],
        num_warps=data["num_warps"],
        spec=WorkloadSpec(**data["spec"]),
    )
    return meta, version


class TraceRecorder:
    """Collects each warp's executed ``(gap, addr, write)`` stream.

    Handed to :class:`~repro.gpu.gpu.GpuModel`, which threads it into
    every warp; the warp calls :meth:`record` once per memory
    instruction at issue time.  Accesses are appended in per-warp
    program order, so the recording is exactly the stream a replay
    feeds back.
    """

    def __init__(self, num_warps: int) -> None:
        if num_warps < 1:
            raise ValueError("need at least one warp")
        self._streams: List[List[tuple]] = [[] for _ in range(num_warps)]

    def record(self, warp_id: int, gap: int, addr: int, is_write: bool) -> None:
        """Append one executed access to ``warp_id``'s stream."""
        self._streams[warp_id].append((gap, addr, is_write))

    def to_traces(
        self, tenants: Optional[Sequence[Optional[str]]] = None
    ) -> List[WarpTrace]:
        """The recording as replayable :class:`WarpTrace` objects."""
        import numpy as np

        traces = []
        for w, stream in enumerate(self._streams):
            if not stream:
                raise ValueError(f"warp {w} recorded no accesses")
            gaps, addrs, writes = zip(*stream)
            traces.append(
                WarpTrace(
                    gaps=np.asarray(gaps, dtype=np.int64),
                    addrs=np.asarray(addrs, dtype=np.int64),
                    writes=np.asarray(writes, dtype=bool),
                    tenant=tenants[w] if tenants is not None else None,
                )
            )
        return traces


def _open_for_write(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_for_read(path: Path):
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def save_traces(
    path: Union[str, Path], meta: TraceMeta, traces: Sequence[WarpTrace]
) -> Path:
    """Write a trace file (header line + one JSONL record per warp)."""
    path = Path(path)
    if len(traces) != meta.num_warps:
        raise ValueError(
            f"meta says {meta.num_warps} warps, got {len(traces)} traces"
        )
    with _open_for_write(path) as fh:
        fh.write(json.dumps(meta.to_dict(), separators=(",", ":")) + "\n")
        for w, trace in enumerate(traces):
            record = {
                "warp": w,
                "tenant": trace.tenant,
                "gaps": trace.gaps.tolist(),
                "addrs": trace.addrs.tolist(),
                "writes": [int(b) for b in trace.writes.tolist()],
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
    return path


def _read_header(fh: IO[str], label: str) -> tuple[TraceMeta, int]:
    """Parse the header line from an open text stream."""
    try:
        header_line = fh.readline()
    except (EOFError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"{label}: not a readable trace file ({exc})") from None
    if not header_line.strip():
        raise TraceFormatError(f"{label}: empty trace file")
    try:
        return _meta_and_version(json.loads(header_line))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{label}: unreadable header ({exc})") from None


def read_trace_meta(path: Union[str, Path]) -> TraceMeta:
    """Read only the header of a trace file.

    This is what name resolution (``trace:<path>`` -> WorkloadDef)
    uses: building the def needs the recorded spec and provenance, not
    the warp records, so resolving a large trace stays cheap.
    """
    path = Path(path)
    try:
        with _open_for_read(path) as fh:
            return _read_header(fh, str(path))[0]
    except (EOFError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"{path}: not a readable trace file ({exc})") from None


class _TraceDemux:
    """Sequential record reader demultiplexed into per-warp block queues.

    One pass over the file serves every warp's stream: a pull for warp
    ``w`` reads records — parking other warps' blocks on their queues —
    until ``w``'s next block or its end-of-stream surfaces.  For v2
    files written round-robin the parking is bounded by one round of
    blocks; a v1 file parks whole-warp records (still line-incremental:
    each record becomes native lists straight from the JSON parser,
    never numpy arrays or per-op tuples).

    Truncation fails loudly on both formats: v1 requires exactly
    ``num_warps`` records by EOF, v2 requires every warp's end marker.
    """

    def __init__(
        self,
        fh: IO[str],
        num_warps: int,
        version: int,
        label: str,
        streams: Optional[List[WarpStream]] = None,
    ) -> None:
        self._fh: Optional[IO[str]] = fh
        self._num_warps = num_warps
        self._version = version
        self._label = label
        self._streams = streams
        self._queues: List[deque] = [deque() for _ in range(num_warps)]
        self._ended = [False] * num_warps
        self._seen = [False] * num_warps

    def pull(self, warp_id: int) -> Optional[Block]:
        queue = self._queues[warp_id]
        while not queue and not self._ended[warp_id] and self._fh is not None:
            self._read_record()
        return queue.popleft() if queue else None

    def _close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def _read_record(self) -> None:
        assert self._fh is not None
        try:
            line = self._fh.readline()
        except (EOFError, UnicodeDecodeError) as exc:
            self._fh = None
            raise TraceFormatError(
                f"{self._label}: not a readable trace file ({exc})"
            ) from None
        if not line:
            self._close()
            self._check_complete()
            return
        if not line.strip():
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            self._close()
            raise TraceFormatError(
                f"{self._label}: corrupt warp record ({exc})"
            ) from None
        if self._version == TRACE_VERSION:
            self._park_v1(record)
        else:
            self._park_v2(record)

    def _warp_of(self, record: dict, key: str) -> int:
        try:
            warp_id = int(record[key])
        except (KeyError, TypeError, ValueError):
            self._close()
            raise TraceFormatError(
                f"{self._label}: warp record without a usable {key!r} field"
            ) from None
        if not 0 <= warp_id < self._num_warps:
            self._close()
            raise TraceFormatError(
                f"{self._label}: header says {self._num_warps} warps, "
                f"file has a record for warp {warp_id}"
            )
        return warp_id

    def _set_tenant(self, warp_id: int, tenant: Optional[str]) -> None:
        if tenant is not None and self._streams is not None:
            self._streams[warp_id].tenant = tenant

    def _park_v1(self, record: dict) -> None:
        warp_id = self._warp_of(record, "warp")
        self._seen[warp_id] = True
        self._ended[warp_id] = True  # one record per warp in v1
        self._set_tenant(warp_id, record.get("tenant"))
        try:
            block = (
                record["gaps"],
                record["addrs"],
                [bool(v) for v in record["writes"]],
            )
        except (KeyError, TypeError) as exc:
            self._close()
            raise TraceFormatError(
                f"{self._label}: corrupt warp record ({exc})"
            ) from None
        self._queues[warp_id].append(block)

    def _park_v2(self, record: dict) -> None:
        warp_id = self._warp_of(record, "w")
        self._seen[warp_id] = True
        if record.get("end"):
            self._ended[warp_id] = True
            return
        self._set_tenant(warp_id, record.get("t"))
        try:
            block = (
                record["g"],
                record["a"],
                [bool(v) for v in record["wr"]],
            )
        except (KeyError, TypeError) as exc:
            self._close()
            raise TraceFormatError(
                f"{self._label}: corrupt warp record ({exc})"
            ) from None
        self._queues[warp_id].append(block)

    def _check_complete(self) -> None:
        if self._version == TRACE_VERSION:
            seen = sum(self._seen)
            if seen != self._num_warps:
                raise TraceFormatError(
                    f"{self._label}: header says {self._num_warps} warps, "
                    f"file has {seen}"
                )
            return
        missing = [w for w, ended in enumerate(self._ended) if not ended]
        if missing:
            raise TraceFormatError(
                f"{self._label}: truncated stream — no end marker for "
                f"warp(s) {missing[:8]}"
            )


class FileTraceSource(TraceSource):
    """Streams a trace file (v1 or the chunked v2 format) warp by warp.

    Built from a path (re-streamable: each :meth:`streams` call reopens
    the file) or an already-open text stream such as stdin (single
    shot).  Only the header is read at construction; warp records are
    parsed incrementally as the streams are pulled, so peak memory is
    bounded by parked blocks, not trace length.
    """

    def __init__(
        self,
        path_or_fh: Union[str, Path, IO[str]],
        label: Optional[str] = None,
    ) -> None:
        if isinstance(path_or_fh, (str, Path)):
            self.path: Optional[Path] = Path(path_or_fh)
            self._fh: Optional[IO[str]] = None
            self.label = label or str(self.path)
            with _open_for_read(self.path) as fh:
                self.meta, self.version = _read_header(fh, self.label)
        else:
            self.path = None
            self._fh = path_or_fh
            self.label = label or getattr(path_or_fh, "name", "<stream>")
            self.meta, self.version = _read_header(path_or_fh, self.label)
        self.num_warps = self.meta.num_warps

    def streams(self) -> List[WarpStream]:
        if self.path is not None:
            fh = _open_for_read(self.path)
            fh.readline()  # skip the header
        else:
            fh, self._fh = self._fh, None
            if fh is None:
                raise RuntimeError(
                    f"{self.label}: a stream-backed trace source can only "
                    "be streamed once"
                )
        streams = [WarpStream(w, None) for w in range(self.num_warps)]
        if self.version >= TRACE_VERSION_CHUNKED:
            # v2 end markers declare emptiness explicitly (a filtered
            # warp keeping its SM slot) — not a well-formedness problem.
            for stream in streams:
                stream.allow_empty = True
        demux = _TraceDemux(fh, self.num_warps, self.version, self.label, streams)

        def block_iter(warp_id: int) -> Iterator[Block]:
            while True:
                block = demux.pull(warp_id)
                if block is None:
                    return
                yield block

        for w, stream in enumerate(streams):
            stream._blocks = block_iter(w)
        return streams

    def blocks(self, warp_id: int) -> Iterator[Block]:
        """One warp's blocks via a dedicated pass over the file.

        Correct but O(file) per warp — composition fallbacks use
        :func:`materialize` instead; :meth:`streams` is the shared
        single-pass path.
        """
        if self.path is None:
            raise RuntimeError(
                f"{self.label}: per-warp block iteration needs a seekable file"
            )
        fh = _open_for_read(self.path)
        fh.readline()
        demux = _TraceDemux(fh, self.num_warps, self.version, self.label)
        while True:
            block = demux.pull(warp_id)
            if block is None:
                return
            yield block


class ChunkedTraceWriter:
    """Writes the chunked (v2) trace format to an open text stream.

    Callers interleave :meth:`write_block` across warps (round-robin —
    that interleave is what bounds a replaying reader's parking) and
    close each warp's stream with :meth:`end_warp`.
    """

    def __init__(self, fh: IO[str], meta: TraceMeta) -> None:
        self._fh = fh
        self._meta = meta
        self._labelled = [False] * meta.num_warps
        self._ended = [False] * meta.num_warps
        fh.write(
            json.dumps(meta.to_dict(version=TRACE_VERSION_CHUNKED),
                       separators=(",", ":")) + "\n"
        )

    def write_block(
        self,
        warp_id: int,
        gaps: Sequence[int],
        addrs: Sequence[int],
        writes: Sequence[bool],
        tenant: Optional[str] = None,
    ) -> None:
        if self._ended[warp_id]:
            raise ValueError(f"warp {warp_id} already ended")
        record = {
            "w": warp_id,
            "g": list(gaps),
            "a": list(addrs),
            "wr": [int(b) for b in writes],
        }
        if tenant is not None and not self._labelled[warp_id]:
            record["t"] = tenant
            self._labelled[warp_id] = True
        self._fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def end_warp(self, warp_id: int) -> None:
        if not self._ended[warp_id]:
            self._ended[warp_id] = True
            self._fh.write(json.dumps({"w": warp_id, "end": 1}) + "\n")

    def finish(self) -> None:
        """End every warp that has not been ended explicitly."""
        for w in range(self._meta.num_warps):
            self.end_warp(w)


def save_stream(
    path: Union[str, Path], meta: TraceMeta, source: TraceSource
) -> Path:
    """Spill a :class:`TraceSource` to a chunked (v2) trace file.

    Blocks are written round-robin across warps — one block per live
    warp per round — so replaying the file parks at most one round of
    blocks.  Peak memory is the source's own streaming state plus one
    block per warp.
    """
    path = Path(path)
    if source.num_warps != meta.num_warps:
        raise ValueError(
            f"meta says {meta.num_warps} warps, source has {source.num_warps}"
        )
    with _open_for_write(path) as fh:
        writer = ChunkedTraceWriter(fh, meta)
        for stream, block in round_robin(source.streams()):
            if block is None:
                writer.end_warp(stream.warp_id)
            else:
                writer.write_block(stream.warp_id, *block, tenant=stream.tenant)
        writer.finish()
    return path


def load_traces(path: Union[str, Path]) -> tuple[TraceMeta, List[WarpTrace]]:
    """Read a trace file back into its header and warp traces.

    Materializing adapter over the streaming reader — one parser for
    both formats; the streaming path (:class:`FileTraceSource`) is
    what replay uses.
    """
    source = FileTraceSource(path)
    return source.meta, materialize(source)


def trace_file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of the file bytes — the cache-fingerprint component."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def trace_path_of(name: str) -> Optional[str]:
    """The path inside a ``trace:<path>`` workload name, else ``None``."""
    if name.startswith(TRACE_PREFIX):
        return name[len(TRACE_PREFIX):]
    return None
