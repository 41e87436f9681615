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
import os
import re
from array import array
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
#: interleaved round-robin; a warp's stream ends with
#: ``{"w": i, "end": 1}``.  A file replay seeks each warp to its own
#: records and parks nothing; a sequential read of a pipe parks the
#: blocks of warps that fall behind, however far that is.
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


def _parse_record(
    line: Union[str, bytes], version: int, num_warps: int, label: str
) -> tuple[int, Optional[Block], Optional[str]]:
    """Decode one record line into ``(warp_id, block, tenant)``.

    ``block`` is ``None`` for a v2 end marker.  Every malformed-record
    message both readers raise is made here.
    """
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                f"{label}: not a readable trace file ({exc})"
            ) from None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{label}: corrupt warp record ({exc})") from None
    v1 = version == TRACE_VERSION
    key = "warp" if v1 else "w"
    try:
        warp_id = int(record[key])
    except (KeyError, TypeError, ValueError):
        raise TraceFormatError(
            f"{label}: warp record without a usable {key!r} field"
        ) from None
    if not 0 <= warp_id < num_warps:
        raise TraceFormatError(
            f"{label}: header says {num_warps} warps, "
            f"file has a record for warp {warp_id}"
        )
    if not v1 and record.get("end"):
        return warp_id, None, None
    if v1:
        gk, ak, wk, tk = "gaps", "addrs", "writes", "tenant"
    else:
        gk, ak, wk, tk = "g", "a", "wr", "t"
    try:
        block = (record[gk], record[ak], [bool(v) for v in record[wk]])
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(f"{label}: corrupt warp record ({exc})") from None
    return warp_id, block, record.get(tk)


def _truncation_error(
    ended: Sequence[bool], version: int, label: str
) -> Optional[str]:
    """The message for a file that ends before every warp does."""
    if version == TRACE_VERSION:
        seen = sum(ended)
        if seen != len(ended):
            return f"{label}: header says {len(ended)} warps, file has {seen}"
        return None
    missing = [w for w, done in enumerate(ended) if not done]
    if missing:
        return (
            f"{label}: truncated stream — no end marker for "
            f"warp(s) {missing[:8]}"
        )
    return None


class _RecordReader:
    """One open trace file serving every warp's block iterator.

    The file closes when the last warp's stream ends, or on the first
    format error.  Records for a warp after its end (a v2 end marker,
    or v1's one record) are ignored.
    """

    def __init__(
        self,
        fh: IO,
        num_warps: int,
        version: int,
        label: str,
        streams: Optional[List[WarpStream]] = None,
    ) -> None:
        self._fh: Optional[IO] = fh
        self._num_warps = num_warps
        self._version = version
        self._label = label
        self._streams = streams
        self._live = set(range(num_warps))  # warps whose stream goes on

    def pull(self, warp_id: int) -> Optional[Block]:
        raise NotImplementedError

    def blocks(self, warp_id: int) -> Iterator[Block]:
        while True:
            block = self.pull(warp_id)
            if block is None:
                return
            yield block

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()

    def _fail(self, message: str) -> TraceFormatError:
        self.close()
        return TraceFormatError(message)

    def _end(self, warp_id: int) -> None:
        self._live.discard(warp_id)
        if not self._live:
            self.close()

    def _parse(self, line: Union[str, bytes]) -> tuple[int, Optional[Block]]:
        try:
            warp_id, block, tenant = _parse_record(
                line, self._version, self._num_warps, self._label
            )
        except TraceFormatError:
            self.close()
            raise
        if tenant is not None and self._streams is not None:
            self._streams[warp_id].tenant = tenant
        return warp_id, block


class _TraceDemux(_RecordReader):
    """Sequential reader demultiplexed into per-warp block queues.

    Serves the inputs that cannot seek: stdin, open handles and ``.gz``
    files.  A pull for warp ``w`` reads records — parking other warps'
    blocks on their queues — until ``w``'s next block or its end
    surfaces.  How much parks depends on how far the consumers drift
    apart, not on the writer's round-robin order: read this way, the
    288×1024 Hetero drain of a spill parked up to 674 blocks (2.3
    rounds); a v1 file parks whole-warp records.

    Truncation fails loudly on both formats: v1 requires exactly
    ``num_warps`` records by EOF, v2 requires every warp's end marker.
    """

    def __init__(self, fh: IO[str], *args, **kwargs) -> None:
        super().__init__(fh, *args, **kwargs)
        self._queues: List[deque] = [deque() for _ in range(self._num_warps)]
        self._ended = [False] * self._num_warps

    def pull(self, warp_id: int) -> Optional[Block]:
        queue = self._queues[warp_id]
        while not queue and not self._ended[warp_id] and self._fh is not None:
            self._read_record()
        if queue:
            return queue.popleft()
        self._end(warp_id)
        return None

    def _read_record(self) -> None:
        assert self._fh is not None
        try:
            line = self._fh.readline()
        except (EOFError, UnicodeDecodeError) as exc:
            raise self._fail(
                f"{self._label}: not a readable trace file ({exc})"
            ) from None
        if not line:
            message = _truncation_error(self._ended, self._version, self._label)
            if message is not None:
                raise self._fail(message)
            self.close()
            return
        if not line.strip():
            return
        warp_id, block = self._parse(line)
        if self._ended[warp_id]:
            return
        if block is not None:
            self._queues[warp_id].append(block)
        if block is None or self._version == TRACE_VERSION:
            self._ended[warp_id] = True


#: The warp-id prefix the writers give each record (``save_traces``
#: for v1, ``ChunkedTraceWriter`` for v2), read without decoding the
#: rest of the line.
_WARP_PREFIX = {
    TRACE_VERSION: re.compile(rb'\{"warp":(0|[1-9][0-9]*),'),
    TRACE_VERSION_CHUNKED: re.compile(rb'\{"w":(0|[1-9][0-9]*),'),
}
_WARP_KEY = {TRACE_VERSION: b'"warp"', TRACE_VERSION_CHUNKED: b'"w"'}


class _TraceIndex:
    """Where each warp's blocks sit in a seekable trace file.

    ``offsets[w]`` holds the byte offset of each of warp ``w``'s block
    records (8 B per block), ``ended[w]`` whether the file ends the warp
    (a v2 end marker, or v1's one record), and ``error`` the message a
    warp that runs out of offsets without ending raises: the first bad
    record, where indexing stopped, or else the truncation message.
    That is the error a sequential read would have met first, so both
    readers fail alike.  ``signature`` is the file's (size, mtime) when
    indexed.
    """

    __slots__ = ("signature", "offsets", "ended", "error")

    def __init__(
        self,
        signature: tuple,
        offsets: List[array],
        ended: List[bool],
        error: Optional[str],
    ) -> None:
        self.signature = signature
        self.offsets = offsets
        self.ended = ended
        self.error = error


def _index_trace(
    fh: IO[bytes], signature: tuple, num_warps: int, version: int, label: str
) -> _TraceIndex:
    """One binary pass over ``fh``, noting each warp's record offsets.

    A line that starts with the writer's warp-id prefix, ends with
    ``}`` and a newline, and holds no escape, no second warp key and
    (v2) no ``"end"`` is indexed as a block of that warp undecoded;
    any other line goes through :func:`_parse_record`, as the
    sequential reader reads it.  So every format error surfaces as the
    same message on both readers, and all but one kind at the same
    pull: a line of the first kind that is not a valid record fails
    only when its own warp reaches it.
    """
    offsets = [array("q") for _ in range(num_warps)]
    ended = [False] * num_warps
    prefix = _WARP_PREFIX[version]
    key = _WARP_KEY[version]
    chunked = version == TRACE_VERSION_CHUNKED
    fh.seek(0)
    pos = len(fh.readline())  # the header
    error = None
    for line in fh:
        start = pos
        pos += len(line)
        match = prefix.match(line)
        if (
            match is not None
            and line.endswith(b"}\n")
            and int(match.group(1)) < num_warps
            and b"\\" not in line
            and line.find(key, match.end()) == -1
            and not (chunked and b'"end"' in line)
        ):
            warp_id, is_block = int(match.group(1)), True
        elif not line.strip():
            continue
        else:
            try:
                warp_id, block, _tenant = _parse_record(
                    line, version, num_warps, label
                )
            except TraceFormatError as exc:
                error = str(exc)
                break
            is_block = block is not None
        if ended[warp_id]:
            continue
        if is_block:
            offsets[warp_id].append(start)
        if not (is_block and chunked):
            ended[warp_id] = True
    else:
        error = _truncation_error(ended, version, label)
    return _TraceIndex(signature, offsets, ended, error)


class _IndexedReader(_RecordReader):
    """Seeks each warp to its own next record: a replay parks nothing.

    All warps share one binary handle; a pull seeks to the warp's next
    offset in the :class:`_TraceIndex` and decodes only that line, so
    the reader holds the index and no decoded block.
    """

    def __init__(self, fh: IO[bytes], index: _TraceIndex, *args, **kwargs) -> None:
        super().__init__(fh, *args, **kwargs)
        self._index = index
        self._next = [0] * self._num_warps

    def pull(self, warp_id: int) -> Optional[Block]:
        fh = self._fh
        if fh is None:
            return None
        offsets = self._index.offsets[warp_id]
        i = self._next[warp_id]
        if i == len(offsets):
            if not self._index.ended[warp_id]:
                raise self._fail(self._index.error)
            self._end(warp_id)
            return None
        self._next[warp_id] = i + 1
        fh.seek(offsets[i])
        return self._parse(fh.readline())[1]


class FileTraceSource(TraceSource):
    """Streams a trace file (v1 or the chunked v2 format) warp by warp.

    Built from a path (re-streamable: each :meth:`streams` call reopens
    the file) or an already-open text stream such as stdin (single
    shot).  Only the header is read at construction.  An uncompressed
    path is replayed through a :class:`_TraceIndex` built by one binary
    pass (and rebuilt if the file's size or mtime changes), so each
    warp reads its own records and peak memory is one block per warp
    plus 8 B of index per block.  Stdin, open handles and ``.gz`` files
    go through the sequential :class:`_TraceDemux`, which parks the
    blocks of warps that fall behind.
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
        self._index: Optional[_TraceIndex] = None

    def _reader(self, streams: Optional[List[WarpStream]] = None) -> _RecordReader:
        args = (self.num_warps, self.version, self.label, streams)
        if self.path is None:
            fh, self._fh = self._fh, None
            if fh is None:
                raise RuntimeError(
                    f"{self.label}: a stream-backed trace source can only "
                    "be streamed once"
                )
            return _TraceDemux(fh, *args)
        if self.path.suffix != ".gz":
            raw = open(self.path, "rb")
            if raw.seekable():
                st = os.fstat(raw.fileno())
                signature = (st.st_size, st.st_mtime_ns)
                if self._index is None or self._index.signature != signature:
                    try:
                        self._index = _index_trace(
                            raw, signature, self.num_warps, self.version,
                            self.label,
                        )
                    except BaseException:
                        raw.close()
                        raise
                return _IndexedReader(raw, self._index, *args)
            raw.close()
        fh = _open_for_read(self.path)
        fh.readline()  # skip the header
        return _TraceDemux(fh, *args)

    def streams(self) -> List[WarpStream]:
        streams = [WarpStream(w, None) for w in range(self.num_warps)]
        if self.version >= TRACE_VERSION_CHUNKED:
            # v2 end markers declare emptiness explicitly (a filtered
            # warp keeping its SM slot) — not a well-formedness problem.
            for stream in streams:
                stream.allow_empty = True
        reader = self._reader(streams)
        for w, stream in enumerate(streams):
            stream._blocks = reader.blocks(w)
        return streams

    def blocks(self, warp_id: int) -> Iterator[Block]:
        """One warp's blocks on a handle of its own.

        A seekable file reads only this warp's records through the
        index; a ``.gz`` file makes a sequential pass, parking the other
        warps' blocks.
        """
        if self.path is None:
            raise RuntimeError(
                f"{self.label}: per-warp block iteration needs a seekable file"
            )
        reader = self._reader()
        try:
            yield from reader.blocks(warp_id)
        finally:
            reader.close()


class ChunkedTraceWriter:
    """Writes the chunked (v2) trace format to an open text stream.

    Callers interleave :meth:`write_block` across warps (round-robin,
    which keeps a sequential reader of a pipe near one round of parked
    blocks) and close each warp's stream with :meth:`end_warp`.
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
    warp per round.  Peak memory is the source's own streaming state
    plus one block per warp; replaying the file seeks each warp to its
    own records and parks nothing.
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
