"""Event queue at the heart of the simulator.

Every event in a GPU run is a warp event: a warp alternates compute
bursts with memory instructions, and the memory system answers each
access synchronously (``serve(addr, is_write, now) -> completion``), so
nothing else ever needs to wake on the clock.  The engine is therefore
a single typed **warp lane**.  Each warp has at most one pending event,
which carries no payload beyond *which warp* and *which phase*.  The
lane stores the phase in an ``array('q')`` column indexed by warp and
orders events with a heap of plain integers encoding
``(time_ps, seq, warp)``, so scheduling a warp event allocates no tuple
and dispatching one calls no bound method: the fused drain (installed
by :class:`repro.gpu.warp.WarpLane`) steps warps in a table-driven
loop.  Events at equal timestamps run in scheduling order (the global
``seq`` counter), which keeps runs fully deterministic — the golden
``RunResult`` fingerprints freeze that order.

Lane contract (for lane implementors, i.e. ``gpu/warp.py``):

* a warp has at most one pending lane event; its step schedules the
  successor via :meth:`Engine.lane_schedule` (or inlines the column
  writes inside a fused drain);
* ``step(warp, phase)`` is invoked with ``now`` already advanced and
  the event already popped (its phase column reset to ``LANE_IDLE``);
* a fused ``drain()`` must process lane events in ``(time, seq)`` order
  until the lane empties, and leave ``now``, ``_seq`` and
  ``events_processed`` exactly as the per-event loop would have.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Optional

PS_PER_NS = 1_000
PS_PER_US = 1_000_000

#: Phase column value marking "no pending event" for a lane warp.
LANE_IDLE = -1

#: Lane key encoding: ``((time_ps << SEQ_BITS) | seq) << WARP_BITS | warp``.
#: Comparing keys compares ``(time, seq)`` first — warp id is payload.
LANE_SEQ_BITS = 40
LANE_SEQ_LIMIT = 1 << LANE_SEQ_BITS
LANE_WARP_BITS = 20
LANE_WARP_LIMIT = 1 << LANE_WARP_BITS
LANE_WARP_MASK = LANE_WARP_LIMIT - 1
LANE_TIME_SHIFT = LANE_SEQ_BITS + LANE_WARP_BITS


def ns(value: float) -> int:
    """Convert nanoseconds to the engine's picosecond time base."""
    return int(round(value * PS_PER_NS))


def us(value: float) -> int:
    """Convert microseconds to the engine's picosecond time base."""
    return int(round(value * PS_PER_US))


def freq_ghz_to_period_ps(freq_ghz: float) -> int:
    """Clock period in picoseconds for a frequency given in GHz.

    >>> freq_ghz_to_period_ps(1.0)
    1000
    >>> freq_ghz_to_period_ps(30.0)
    33
    """
    if freq_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {freq_ghz}")
    return max(1, int(round(1_000.0 / freq_ghz)))


class Engine:
    """A deterministic warp-event queue with integer time.

    >>> eng = Engine()
    >>> seen = []
    >>> eng.attach_warp_lane(2, lambda warp, phase: seen.append((eng.now, warp)))
    >>> eng.lane_schedule(0, 5, 0)
    >>> eng.lane_schedule(1, 1, 0)
    >>> eng.run()
    >>> seen
    [(1, 1), (5, 0)]
    """

    __slots__ = (
        "_seq",
        "now",
        "events_processed",
        "_lane_heap",
        "_lane_phase",
        "_lane_step",
        "_lane_drain",
    )

    def __init__(self) -> None:
        self._seq = 0
        self.now = 0
        self.events_processed = 0
        self._lane_heap: list[int] = []
        self._lane_phase: Optional[array] = None
        self._lane_step: Optional[Callable[[int, int], None]] = None
        self._lane_drain: Optional[Callable[[], None]] = None

    def attach_warp_lane(
        self,
        num_warps: int,
        step: Callable[[int, int], None],
        drain: Optional[Callable[[], None]] = None,
    ) -> None:
        """Install the warp lane (see the module docstring).

        ``step(warp, phase)`` executes one lane event; the optional
        ``drain()`` is the fused bulk path the unlimited :meth:`run`
        hands the whole lane to (falling back to per-event ``step``
        dispatch when absent).
        """
        if self._lane_step is not None:
            raise RuntimeError("a warp lane is already attached")
        if num_warps < 1:
            raise ValueError("a warp lane needs at least one warp")
        if num_warps >= LANE_WARP_LIMIT:
            raise ValueError(
                f"warp lane supports at most {LANE_WARP_LIMIT - 1} warps, "
                f"got {num_warps}"
            )
        self._lane_phase = array("q", [LANE_IDLE]) * num_warps
        self._lane_step = step
        self._lane_drain = drain

    def lane_schedule(self, warp: int, time_ps: int, phase: int) -> None:
        """Schedule warp ``warp``'s next lane event at ``time_ps``.

        Exactly one event may be pending per warp; the event occupies
        the warp's phase slot and one integer heap entry — no tuple,
        no callable.
        """
        if time_ps < self.now:
            raise ValueError(
                f"cannot schedule at {time_ps} ps: current time is "
                f"{self.now} ps (events may not run in the past)"
            )
        if phase < 0:
            raise ValueError(f"lane phase must be non-negative, got {phase}")
        if self._lane_phase[warp] != LANE_IDLE:
            raise RuntimeError(f"warp {warp} already has a pending lane event")
        seq = self._seq
        if seq >= LANE_SEQ_LIMIT:
            raise OverflowError("event sequence space exhausted")
        self._seq = seq + 1
        self._lane_phase[warp] = phase
        heapq.heappush(
            self._lane_heap,
            ((time_ps << LANE_SEQ_BITS) | seq) << LANE_WARP_BITS | warp,
        )

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._lane_heap)

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the queue.

        Args:
            max_events: hard cap on processed events, a guard against
                runaway feedback loops in misconfigured models.

        With no cap the whole lane goes to the attached fused drain,
        the simulator's innermost loop; a cap (or a lane without a
        drain) runs the per-event loop instead.
        """
        if max_events is None and self._lane_drain is not None:
            self._lane_drain()
        else:
            self._run_guarded(max_events)

    def _run_guarded(
        self,
        max_events: Optional[int],
        record: Optional[Callable[..., None]] = None,
    ) -> None:
        """Per-event drain honouring ``max_events``.

        ``record`` is the audit hook: :class:`ValidatingEngine` passes
        its auditor's violation recorder so event-time monotonicity is
        checked on every pop.
        """
        heap = self._lane_heap
        phases = self._lane_phase
        step = self._lane_step
        processed = 0
        while heap:
            if max_events is not None and processed >= max_events:
                break
            key = heapq.heappop(heap)
            time_ps = key >> LANE_TIME_SHIFT
            if record is not None and time_ps < self.now:
                record(
                    "engine.monotonic_time",
                    "engine",
                    "event popped before current time",
                    expected=self.now,
                    actual=time_ps,
                )
            processed += 1
            self.now = time_ps
            self.events_processed += 1
            warp = key & LANE_WARP_MASK
            phase = phases[warp]
            phases[warp] = LANE_IDLE
            step(warp, phase)
