"""Warps: the GPU's unit of lock-step execution.

Each warp alternates compute bursts (``gap`` instructions from its
trace) with one memory instruction.  The SM's issue server serializes
bursts from its warps; a warp blocked on memory costs nothing until its
response arrives — this is warp-level latency hiding, and it is what
converts memory-system improvements into IPC (Fig. 16).

:class:`WarpLane` is the stepper behind the engine's warp lane (see
``sim/engine.py``).  All warps' progress lives in slotted columns
(cursor/retired arrays, per-warp trace columns) and one table-driven
loop steps whichever warp the lane heap surfaces next.  Because
``StreamingMultiprocessor.access_memory`` returns completion times
synchronously, each step computes its successor event inline and
replaces the heap head in a single sift — no tuples, closures or
bound-method dispatch per event.  A burst and its memory issue remain
distinct timeline events, with the ``(time, seq)`` stamps the golden
fingerprints freeze.  :class:`Warp` is the per-warp record the lane
writes its results into.
"""

from __future__ import annotations

import heapq
from array import array
from typing import TYPE_CHECKING, Callable, List, Optional, Union

from repro.sim.engine import (
    LANE_SEQ_BITS,
    LANE_SEQ_LIMIT,
    LANE_TIME_SHIFT,
    LANE_WARP_BITS,
    LANE_WARP_MASK,
    Engine,
)
from repro.sim.stats import Stats
from repro.workloads.source import WarpStream
from repro.workloads.synthetic import WarpTrace

if TYPE_CHECKING:
    from repro.gpu.sm import StreamingMultiprocessor
    from repro.workloads.trace import TraceRecorder

#: Lane phase payloads: the warp's next step issues a compute burst /
#: issues its pending memory instruction.
PHASE_BURST = 0
PHASE_MEM = 1


def _capture_sm_methods() -> dict:
    # Captured at import, before any test/subclass patches: the exact
    # functions whose semantics WarpLane inlines.  The lane compares
    # against these to decide whether inlining is sound.
    from repro.gpu.sm import StreamingMultiprocessor

    return {
        "issue_burst": StreamingMultiprocessor.issue_burst,
        "access_memory": StreamingMultiprocessor.access_memory,
    }


_SM_METHODS = _capture_sm_methods()


class Warp:
    """One warp's identity, trace and final progress.

    ``trace`` is either a materialized :class:`WarpTrace` or a
    :class:`~repro.workloads.source.WarpStream` (bounded-lookahead
    block iterator); the audit layer duck-types against it (``tenant``
    / ``len`` / ``well_formed``).  :class:`WarpLane` drives the warp and
    mirrors ``instructions_retired``, ``_cursor`` (ops consumed) and
    ``finished`` back into this record.
    """

    __slots__ = (
        "warp_id",
        "sm",
        "trace",
        "_cursor",
        "instructions_retired",
        "finished",
    )

    def __init__(
        self,
        warp_id: int,
        sm: "StreamingMultiprocessor",
        trace: Union[WarpTrace, WarpStream],
    ) -> None:
        self.warp_id = warp_id
        self.sm = sm
        self.trace = trace
        self._cursor = 0
        self.instructions_retired = 0
        self.finished = False


class WarpLane:
    """Array-structured stepper for every warp, on the engine's warp lane.

    Owns the slotted per-warp state (``cursor``/``retired`` columns plus
    the traces compiled to parallel gap/addr/write lists) and installs
    two entry points on the engine: ``step`` (one event, used by the
    capped and validating per-event loop) and ``drain`` (the fused bulk
    loop an uncapped run hands the whole lane to).

    The :class:`Warp` records stay the user-visible surface — the lane
    mirrors ``instructions_retired``/``_cursor``/``finished`` back into
    them at finish and via :meth:`sync`.
    """

    __slots__ = (
        "_engine",
        "_warps",
        "_num_warps",
        "_cursor",
        "_retired",
        "_nops",
        "_base",
        "_streams",
        "_gaps",
        "_addrs",
        "_writes",
        "_sms",
        "_access",
        "_mem_fp",
        "_issue",
        "_inline_burst",
        "_period",
        "_recorder",
        "_on_done",
        "_cdict",
    )

    def __init__(
        self,
        engine: Engine,
        warps: List[Warp],
        stats: Stats,
        on_done: Callable[[Warp], None],
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        self._engine = engine
        self._warps = warps
        n = len(warps)
        self._num_warps = n
        self._cursor = array("q", bytes(8 * n))  # index within the block
        self._retired = array("q", bytes(8 * n))
        self._base = array("q", bytes(8 * n))  # ops consumed before it
        self._nops: List[int] = []
        self._streams: List[Optional[WarpStream]] = []
        self._gaps: List[List[int]] = []
        self._addrs: List[List[int]] = []
        self._writes: List[List[bool]] = []
        self._sms = [w.sm for w in warps]
        # The fused drain inlines SM issue accounting and the memory
        # access — but only for pristine SMs.  A subclassed or patched
        # SM (the audit drift tests inject counter leaks this way, the
        # reference-oracle test wraps ``access_memory``) keeps the
        # reference method on the event path.  "Pristine" means the
        # method is still the exact function this module captured at
        # import time, with no instance override shadowing it.  The
        # per-event loop always calls the reference methods.
        def _pristine(sm: "StreamingMultiprocessor", name: str) -> bool:
            return (
                name not in sm.__dict__
                and getattr(type(sm), name) is _SM_METHODS[name]
            )

        self._inline_burst = all(_pristine(w.sm, "issue_burst") for w in warps)
        self._issue = [w.sm.issue_burst for w in warps]
        self._access = [w.sm.access_memory for w in warps]
        self._period = [w.sm.period_ps for w in warps]
        # Drain-level memory fusion: when *every* SM's ``access_memory``
        # is pristine and all SMs share one constant pack (they always
        # do on a real model — the pack holds the shared
        # engine/interconnect/slices/stats handles, and the only per-SM
        # state, ``_issue_free_at``, lives in the burst phase), the
        # fused drain unpacks that one tuple before its loop and
        # inlines the whole access in the MEM branch — no bound call
        # per memory event.  Any mixed or patched configuration keeps
        # the per-warp ``access[w](...)`` dispatch.
        mem_fp = None
        if n and all(_pristine(sm, "access_memory") for sm in self._sms):
            base = self._sms[0]._fp
            if base is not None and all(
                sm._fp == base for sm in self._sms
            ):
                mem_fp = base
        self._mem_fp = mem_fp
        for w in warps:
            trace = w.trace
            if isinstance(trace, WarpStream):
                # Streamed warp: start empty, the first burst pulls the
                # first block.
                self._streams.append(trace)
                self._nops.append(0)
                self._gaps.append([])
                self._addrs.append([])
                self._writes.append([])
            else:
                self._streams.append(None)
                gaps, addrs, writes = trace.columns
                self._nops.append(len(addrs))
                self._gaps.append(gaps)
                self._addrs.append(addrs)
                self._writes.append(writes)
        self._recorder = recorder
        self._on_done = on_done
        self._cdict = stats.counters
        engine.attach_warp_lane(n, self._step_one, self._drain)

    # -- per-event stepping (start, capped/validating runs) -------------

    def start_all(self) -> None:
        """Issue every warp's first burst synchronously, in warp order.

        The first burst is not an event: it runs at the current time
        and schedules the warp's first memory issue on the lane.
        """
        for w in range(self._num_warps):
            self._burst(w)

    def _advance(self, w: int) -> bool:
        """Swap warp ``w``'s next block in; False when exhausted.

        The swap is in-place on the per-warp column slots
        (``self._gaps[w] = ...``), so the fused drain's local aliases of
        the *outer* lists observe it mid-loop.  Runs once per block
        boundary — every ``block_ops`` events, not per event.
        """
        stream = self._streams[w]
        if stream is None:
            return False
        block = stream.next_block()
        if block is None:
            return False
        gaps, addrs, writes = block
        self._base[w] += self._nops[w]
        self._gaps[w] = gaps
        self._addrs[w] = addrs
        self._writes[w] = writes
        self._nops[w] = len(addrs)
        self._cursor[w] = 0
        return True

    def _burst(self, w: int) -> None:
        """One burst phase for warp ``w`` (or its finish)."""
        cursor = self._cursor[w]
        if cursor >= self._nops[w]:
            if self._advance(w):
                cursor = 0
            else:
                self._finish(w)
                return
        n = self._gaps[w][cursor] + 1
        end = self._issue[w](n)
        self._retired[w] += n
        self._engine.lane_schedule(w, end, PHASE_MEM)

    def _mem(self, w: int) -> None:
        """One memory-issue phase for warp ``w``."""
        cursor = self._cursor[w]
        addr = self._addrs[w][cursor]
        write = self._writes[w][cursor]
        if self._recorder is not None:
            self._recorder.record(w, self._gaps[w][cursor], addr, write)
        complete = self._access[w](addr, write)
        self._cursor[w] = cursor + 1
        self._engine.lane_schedule(w, complete, PHASE_BURST)

    def _finish(self, w: int) -> None:
        warp = self._warps[w]
        warp.finished = True
        warp.instructions_retired = self._retired[w]
        warp._cursor = self._base[w] + self._cursor[w]
        self._on_done(warp)

    def _step_one(self, w: int, phase: int) -> None:
        """Execute one lane event (the engine's per-event hook)."""
        if phase == PHASE_MEM:
            self._mem(w)
        else:
            self._burst(w)

    def sync(self) -> None:
        """Mirror lane columns back into the :class:`Warp` objects."""
        cursors = self._cursor
        retired = self._retired
        base = self._base
        for w, warp in enumerate(self._warps):
            warp.instructions_retired = retired[w]
            warp._cursor = base[w] + cursors[w]

    # -- fused drain ----------------------------------------------------

    def _drain(self) -> None:
        """Run every lane event, in order, until the lane is empty.

        An uncapped ``Engine.run`` hands the whole lane here.
        Everything per-event is a local: the loop peeks the lane head,
        inlines the phase body, and replaces the head with the
        successor event in a single heap sift (``heapreplace``),
        touching ``engine.now`` once per event and flushing ``_seq``
        and ``events_processed`` on exit.

        When :attr:`_mem_fp` is set (every SM's ``access_memory`` is
        pristine and all share one constant pack), the MEM branch runs
        the whole access inline — crossbar window, page-interleave
        routing, the slice ``serve`` call and the demand counters —
        against constants unpacked once before the loop; the arithmetic
        and the update order are exactly
        ``StreamingMultiprocessor.access_memory``'s.

        Constant per-event counter increments (``noc.bits``,
        ``noc.busy_ps``, ``mem.demand_requests``, ``gpu.instructions``
        and the memory-latency stat) accumulate in locals and flush in
        one batch on exit.  That is exact: all of them are
        integer-valued accumulators, so ``n`` adds of a constant and
        one add of ``n * constant`` produce the same float, and
        min/max merge associatively.  Nothing observes these counters
        mid-drain (readers run post-drain; ``on_done`` touches only
        the model's completion fields), and the flush sits in the
        ``finally`` — split so an event that raises mid-body leaves
        exactly the updates the reference ordering would have made.
        """
        eng = self._engine
        heap = eng._lane_heap
        phases = eng._lane_phase
        cursors = self._cursor
        retired = self._retired
        base = self._base
        nops = self._nops
        gaps = self._gaps
        addrs = self._addrs
        writes = self._writes
        sms = self._sms
        periods = self._period
        access = self._access
        issue = self._issue
        inline_burst = self._inline_burst
        warps = self._warps
        rec = self._recorder
        cd = self._cdict
        heapreplace = heapq.heapreplace
        heappop = heapq.heappop
        seq = eng._seq
        count = eng.events_processed
        warp_mask = LANE_WARP_MASK
        time_shift = LANE_TIME_SHIFT
        warp_bits = LANE_WARP_BITS
        seq_bits = LANE_SEQ_BITS
        mem_fp = self._mem_fp
        if mem_fp is not None:
            (
                _engine, ic, noc_cd, line_bits, occupancy,
                ic_latency, slices, page_bytes, nslices, mem_cd, lat,
            ) = mem_fp
        # Batched counter accumulators (flushed in the ``finally``).
        # ``noc_n`` counts crossbar windows opened (committed *before*
        # the serve call in the reference ordering); ``mem_n`` counts
        # accesses that completed (committed after).
        noc_n = 0
        mem_n = 0
        lat_total = 0
        lat_min = 0
        lat_max = 0
        burst_insns = 0
        try:
            while heap:
                key = heap[0]
                t = key >> time_shift
                count += 1
                eng.now = t
                w = key & warp_mask
                if phases[w] == 1:  # PHASE_MEM
                    cursor = cursors[w]
                    addr = addrs[w][cursor]
                    write = writes[w][cursor]
                    if rec is not None:
                        rec.record(w, gaps[w][cursor], addr, write)
                    if mem_fp is None:
                        complete = access[w](addr, write)
                    else:
                        # access_memory, fully inlined (same
                        # arithmetic and counter-update order).
                        busy = ic._busy_until
                        start = t if t > busy else busy
                        ic._busy_until = start + occupancy
                        noc_n += 1
                        if addr < 0:
                            raise ValueError("negative address")
                        page = addr // page_bytes
                        complete = slices[page % nslices].serve(
                            (page // nslices) * page_bytes
                            + (addr - page * page_bytes),
                            write,
                            start + occupancy + ic_latency,
                        )
                        value = complete - t
                        if mem_n == 0:
                            lat_min = value
                            lat_max = value
                        elif value < lat_min:
                            lat_min = value
                        elif value > lat_max:
                            lat_max = value
                        mem_n += 1
                        lat_total += value
                    cursors[w] = cursor + 1
                    phases[w] = 0  # PHASE_BURST
                    heapreplace(
                        heap, ((complete << seq_bits) | seq) << warp_bits | w
                    )
                    seq += 1
                else:  # PHASE_BURST (block advance, or finish)
                    cursor = cursors[w]
                    if cursor >= nops[w]:
                        if self._advance(w):
                            # _advance swapped the column slots in place
                            # (the local aliases of the outer lists see
                            # the new block) and zeroed cursors[w].
                            cursor = 0
                        else:
                            heappop(heap)
                            phases[w] = -1  # LANE_IDLE
                            warp = warps[w]
                            warp.finished = True
                            warp.instructions_retired = retired[w]
                            warp._cursor = base[w] + cursor
                            self._on_done(warp)
                            continue  # no successor event, seq unchanged
                    gap = gaps[w][cursor]
                    n = gap + 1
                    if inline_burst:
                        if n < 1:
                            raise ValueError(
                                "a burst needs at least one instruction"
                            )
                        sm = sms[w]
                        free = sm._issue_free_at
                        start = t if t > free else free
                        end = start + n * periods[w]
                        sm._issue_free_at = end
                        burst_insns += n
                    else:
                        end = issue[w](n)
                    retired[w] += n
                    phases[w] = 1  # PHASE_MEM
                    heapreplace(
                        heap, ((end << seq_bits) | seq) << warp_bits | w
                    )
                    seq += 1
                if seq >= LANE_SEQ_LIMIT:
                    raise OverflowError("event sequence space exhausted")
        finally:
            eng._seq = seq
            eng.events_processed = count
            if burst_insns:
                cd["gpu.instructions"] += burst_insns
            if noc_n:
                noc_cd["noc.bits"] += noc_n * line_bits
                noc_cd["noc.busy_ps"] += noc_n * occupancy
            if mem_n:
                mem_cd["mem.demand_requests"] += mem_n
                if lat.count == 0:
                    lat.min_value = lat_min
                    lat.max_value = lat_max
                else:
                    if lat_min < lat.min_value:
                        lat.min_value = lat_min
                    if lat_max > lat.max_value:
                        lat.max_value = lat_max
                lat.count += mem_n
                lat.total += lat_total
