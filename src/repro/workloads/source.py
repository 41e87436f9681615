"""Streaming trace sources: a trace is a sequence, not a list.

Everything that *produces* warp accesses — the synthetic/graph/family
generators, phased and multi-tenant compositions, recorded trace files
— and everything that *consumes* them — the warp steppers in
``gpu/warp.py``, the materializing adapters, the ``repro trace``
pipeline stages — speaks one bounded-lookahead iterator interface:

* a **block** is three parallel native-typed lists
  ``(gaps, addrs, writes)`` covering a contiguous slice of one warp's
  access stream;
* a :class:`WarpStream` hands out one warp's blocks in order
  (:meth:`WarpStream.next_block`), accounting ops and instructions as
  they pass so the invariant audit can reconcile a fully-consumed
  stream exactly like a materialized :class:`WarpTrace`;
* a :class:`TraceSource` is a re-streamable factory of per-warp
  streams — calling :meth:`TraceSource.streams` again replays the
  same trace from the start (the executor's trace memo relies on
  this).

Consumers hold at most one block per warp, so peak memory for the
consuming side is O(warps x block) regardless of trace length.  The
producing side is honest about where it must buffer (DESIGN.md
section 12): generated families draw their per-warp gap and write
vectors in one shot — the frozen workload digests pin the RNG
consumption order, which a per-chunk regeneration would break — and
stream only the address loop.  Replaying an uncompressed trace file
(``workloads/trace.py``) seeks each warp to its own records and holds
8 B of index per block besides; only a non-seekable input (stdin, an
open handle, a ``.gz`` file) is read front to back and parks the
blocks of warps that fall behind.

:func:`materialize` is the single adapter back to ``List[WarpTrace]``:
the registry's ``build_traces`` is ``materialize(build_source(...))``,
and the executor's small-trace memo holds its result.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.workloads.synthetic import WarpTrace

#: Ops per generated or spilled block, the one block-size decision
#: (generators take it as a required argument).  A decoded 128-op block
#: is ~7 KB of native lists and consumers hold one per warp, so
#: replaying a 288-warp spill peaks at ~2.4 MB whatever the trace
#: length.  Smaller blocks trade memory for block advances: a streamed
#: 288x1024 drain spends ~0.13 s of ~4 s in ``next_block`` (DESIGN.md
#: section 12.2).
DEFAULT_BLOCK_OPS = 128

#: One contiguous slice of a warp's access stream: parallel native
#: ``(gaps, addrs, writes)`` lists, directly indexable by the fused
#: warp stepper.
Block = Tuple[List[int], List[int], List[bool]]


class WarpStream:
    """One warp's access stream, pulled block by block.

    Doubles as the audit-visible trace view of a streamed warp
    (``warp.trace``): it exposes the same surface the conservation
    checks read off a :class:`WarpTrace` — ``tenant``, ``len()`` (ops
    seen so far), :attr:`total_instructions` and :meth:`well_formed` —
    all reflecting exactly what has flowed through.  Block-level
    well-formedness problems (misaligned lists, negative gaps or
    addresses, a stream that ends without a single op) are recorded at
    pull time through :attr:`on_problem` when set, so an audited run
    flags a malformed stream the moment it surfaces instead of crashing
    on the symptom.
    """

    __slots__ = (
        "warp_id",
        "tenant",
        "ops_seen",
        "instructions_seen",
        "on_problem",
        "allow_empty",
        "_blocks",
        "_problems",
    )

    def __init__(
        self,
        warp_id: int,
        blocks: Optional[Iterator[Block]],
        tenant: Optional[str] = None,
    ) -> None:
        self.warp_id = warp_id
        self.tenant = tenant
        self.ops_seen = 0
        self.instructions_seen = 0
        self.on_problem: Optional[Callable[[int, str], None]] = None
        # A generated warp that never issues is a bug; a chunked (v2)
        # trace file may *declare* a warp empty (an end marker with no
        # blocks — what `trace filter` emits to preserve SM placement).
        # The v2 reader sets this so declared emptiness isn't flagged.
        self.allow_empty = False
        self._blocks = blocks
        self._problems: List[str] = []

    def _problem(self, message: str) -> None:
        self._problems.append(message)
        if self.on_problem is not None:
            self.on_problem(self.warp_id, message)

    def next_block(self) -> Optional[Block]:
        """The next non-empty block, or ``None`` when the stream ends.

        Each delivered block is validated (alignment, negative gaps and
        addresses — the same contract :meth:`WarpTrace.well_formed`
        states) and accounted into :attr:`ops_seen` and
        :attr:`instructions_seen`.  A malformed block is still
        delivered, truncated to its aligned prefix, so an un-audited
        run degrades exactly like its materialized counterpart instead
        of silently dropping ops.
        """
        blocks = self._blocks
        if blocks is None:
            return None
        for block in blocks:
            gaps, addrs, writes = block
            n = len(addrs)
            if len(gaps) != n or len(writes) != n:
                self._problem(
                    "misaligned block: "
                    f"{len(gaps)} gaps, {n} addrs, {len(writes)} writes"
                )
                n = min(len(gaps), n, len(writes))
                block = (gaps[:n], addrs[:n], writes[:n])
                gaps, addrs, writes = block
            if n == 0:
                continue
            if min(gaps) < 0:
                self._problem(f"negative compute gap ({min(gaps)})")
            if min(addrs) < 0:
                self._problem(f"negative address ({min(addrs)})")
            self.ops_seen += n
            self.instructions_seen += sum(gaps) + n
            return block
        self._blocks = None
        if self.ops_seen == 0 and not self.allow_empty:
            self._problem("empty trace (a warp must issue at least once)")
        return None

    def __len__(self) -> int:
        return self.ops_seen

    @property
    def total_instructions(self) -> int:
        """Compute instructions plus one memory instruction per op seen."""
        return self.instructions_seen

    def well_formed(self) -> List[str]:
        """Problems observed so far (grows as blocks are pulled)."""
        return list(self._problems)


class TraceSource:
    """A re-streamable trace: per-warp block iterators on demand.

    Subclasses implement :meth:`blocks` (a *fresh* iterator per call)
    and may override :meth:`streams` when per-warp iterators cannot be
    independent (a trace file shares one handle).  ``num_warps`` is fixed at
    construction; sizing is baked into the source, mirroring how a
    trace file fixes its own shape.
    """

    num_warps: int

    def tenant_of(self, warp_id: int) -> Optional[str]:
        return None

    def blocks(self, warp_id: int) -> Iterator[Block]:
        raise NotImplementedError

    def streams(self) -> List[WarpStream]:
        """Fresh streams, one per warp, replaying from the start."""
        return [
            WarpStream(w, self.blocks(w), self.tenant_of(w))
            for w in range(self.num_warps)
        ]


def round_robin(
    streams: List[WarpStream],
) -> Iterator[Tuple[WarpStream, Optional[Block]]]:
    """Pull one block per live stream per round, in warp order.

    Yields ``(stream, block)`` per block and ``(stream, None)`` once as
    each stream ends.  This is the order the spill writer emits and the
    fused drain roughly consumes in, so a caller that keeps each warp's
    latest block holds what a drain holds: one block per warp.
    """
    live = streams
    while live:
        still = []
        for stream in live:
            block = stream.next_block()
            yield stream, block
            if block is not None:
                still.append(stream)
        live = still


def chunk_columns(
    columns: Tuple[List[int], List[int], List[bool]],
    block_ops: Optional[int],
) -> Iterator[Block]:
    """Slice compiled trace columns into ``block_ops``-sized blocks.

    ``block_ops=None`` delivers the columns as one block — the
    zero-copy path the materialized-trace stream uses, keeping the
    fused stepper's inner loop byte-identical to the list-backed one.
    """
    gaps, addrs, writes = columns
    if block_ops is None or len(addrs) <= block_ops:
        yield columns  # type: ignore[misc]
        return
    for lo in range(0, len(addrs), block_ops):
        hi = lo + block_ops
        yield (gaps[lo:hi], addrs[lo:hi], writes[lo:hi])


class MaterializedTraceSource(TraceSource):
    """Streams an in-memory ``List[WarpTrace]``.

    With the default ``block_ops=None`` each warp is one block — its
    cached :attr:`WarpTrace.columns` — so streaming a materialized
    trace costs nothing over consuming it directly.  Tests pass a small
    ``block_ops`` to force multi-block consumption.
    """

    def __init__(
        self, traces: List[WarpTrace], block_ops: Optional[int] = None
    ) -> None:
        self.traces = list(traces)
        self.num_warps = len(self.traces)
        self.block_ops = block_ops

    def tenant_of(self, warp_id: int) -> Optional[str]:
        return self.traces[warp_id].tenant

    def blocks(self, warp_id: int) -> Iterator[Block]:
        return chunk_columns(self.traces[warp_id].columns, self.block_ops)


class GeneratedTraceSource(TraceSource):
    """Streams a family generator's per-warp block generators.

    ``generator`` is any of the trace generators exposing
    ``warp_blocks(warp_id, num_accesses, block_ops)``; each warp's
    stream is generated independently (all cross-warp state lives in
    the generator's constructor), so warps may be pulled in any order.
    ``block_ops=None`` means :data:`DEFAULT_BLOCK_OPS`.
    """

    def __init__(
        self,
        generator,
        num_warps: int,
        accesses_per_warp: int,
        block_ops: Optional[int] = None,
    ) -> None:
        if num_warps < 1:
            raise ValueError("need at least one warp")
        self.generator = generator
        self.num_warps = num_warps
        self.accesses_per_warp = accesses_per_warp
        self.block_ops = DEFAULT_BLOCK_OPS if block_ops is None else block_ops

    def blocks(self, warp_id: int) -> Iterator[Block]:
        return self.generator.warp_blocks(
            warp_id, self.accesses_per_warp, self.block_ops
        )


def trace_from_blocks(blocks: Iterable[Block]) -> WarpTrace:
    """Concatenate one warp's blocks back into an unlabelled
    :class:`WarpTrace` — the one block-to-trace concatenation."""
    import numpy as np

    gaps: List[int] = []
    addrs: List[int] = []
    writes: List[bool] = []
    for g, a, w in blocks:
        gaps.extend(g)
        addrs.extend(a)
        writes.extend(w)
    return WarpTrace(
        gaps=np.asarray(gaps, dtype=np.int64),
        addrs=np.asarray(addrs, dtype=np.int64),
        writes=np.asarray(writes, dtype=bool),
    )


def materialize(source: TraceSource) -> List[WarpTrace]:
    """Drain a source into ``List[WarpTrace]`` — the one adapter back.

    Consumes each stream fully before reading its tenant label, since
    file streams may only learn their tenant from the first record.
    """
    traces: List[WarpTrace] = []
    for stream in source.streams():
        trace = trace_from_blocks(iter(stream.next_block, None))
        traces.append(replace(trace, tenant=stream.tenant))
    return traces
