"""Streaming multiprocessor: an issue server shared by its warps.

The SM issues one instruction per cycle; compute bursts from different
warps serialize on this capacity.  Memory instructions go through the
interconnect and the memory system; the warp sleeps until the response
timestamp.  The traces are post-cache streams, so no on-chip cache is
modelled.

:meth:`StreamingMultiprocessor.access_memory` is the reference memory
path: warps hand it a bare ``(addr, is_write)`` pair.
:meth:`~StreamingMultiprocessor._access_uncached` is its fast variant,
which the warp lane binds while both methods are pristine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gpu.interconnect import Interconnect
from repro.sim.engine import Engine, freq_ghz_to_period_ps
from repro.sim.stats import Stats

if TYPE_CHECKING:
    from repro.core.memsystem import MemorySystem


class StreamingMultiprocessor:  # reprolint: allow(R2) the fused warp drain probes sm.__dict__ to detect instance patches (gpu/warp.py uniformity check)
    """One SM: issue bandwidth + the memory path of its warps."""

    def __init__(
        self,
        sm_id: int,
        engine: Engine,
        memory: "MemorySystem",
        interconnect: Interconnect,
        stats: Stats,
        freq_ghz: float = 1.2,
        line_bytes: int = 128,
    ) -> None:
        self.sm_id = sm_id
        self.engine = engine
        self.memory = memory
        self.interconnect = interconnect
        self.stats = stats
        self.period_ps = freq_ghz_to_period_ps(freq_ghz)
        self.line_bytes = line_bytes
        self._issue_free_at = 0
        # Pre-bound stat handles: every per-event name resolved once;
        # the busiest three are raw dict updates on constant keys.
        self._cdict = stats.counters
        self._lat_mem = stats.latency_handle("mem.latency_ps")
        self._line_bits = line_bytes * 8
        # Demand-path specialization: every demand access moves exactly
        # one line, so the crossbar occupancy is a constant — computed
        # once here, letting the fast path inline the traverse.
        self._noc_occupancy_ps = interconnect.occupancy_ps(self._line_bits)
        self._serve_addr = memory.serve_addr
        # Page-interleave routing, pre-resolved: when the memory system
        # is the real one (not a test double), the fast path picks the
        # slice itself and calls its ``serve`` directly — the
        # ``serve_addr`` dispatch hop disappears from the per-event path.
        from repro.core.memsystem import MemorySystem

        if type(memory) is MemorySystem:
            # One-tuple constant pack for the fast path: one
            # unpack replaces a dozen attribute chains per access.
            self._fp = (
                engine,
                interconnect,
                interconnect._cdict,
                self._line_bits,
                self._noc_occupancy_ps,
                interconnect.latency_ps,
                memory.slices,
                memory.page_bytes,
                memory._num_slices,
                self._cdict,
                self._lat_mem,
            )
        else:
            self._fp = None

    def issue_burst(self, instructions: int) -> int:
        """Claim issue slots for ``instructions``; returns finish time."""
        if instructions < 1:
            raise ValueError("a burst needs at least one instruction")
        free_at = self._issue_free_at
        now = self.engine.now
        start = now if now > free_at else free_at
        end = start + instructions * self.period_ps
        self._issue_free_at = end
        self._cdict["gpu.instructions"] += instructions
        return end

    def access_memory(self, addr: int, is_write: bool) -> int:
        """Run the memory path synchronously; returns completion time.

        The reference path: crossbar ``traverse``, the memory system's
        ``serve_addr``, the demand counter and the latency ``record``.
        """
        now = self.engine.now
        arrive = self.interconnect.traverse(now, self._line_bits)
        complete = self.memory.serve_addr(addr, is_write, arrive)
        self._cdict["mem.demand_requests"] += 1
        self._lat_mem.record(complete - now)
        return complete

    def _access_uncached(self, addr: int, is_write: bool) -> int:
        """Fast variant of :meth:`access_memory`.

        Same arithmetic and the same counter-update order, with
        the crossbar traverse inlined against the precomputed line
        occupancy (the ``int(round(...))`` per call goes away), the
        page-interleave routing resolved here (no ``serve_addr`` hop)
        and the latency stat updated in place (no ``record`` call).
        """
        fp = self._fp
        if fp is None:
            # Test doubles / custom memory systems: generic route.
            now = self.engine.now
            ic = self.interconnect
            busy = ic._busy_until
            start = now if now > busy else busy
            occupancy = self._noc_occupancy_ps
            ic._busy_until = start + occupancy
            noc_counters = ic._cdict
            noc_counters["noc.bits"] += self._line_bits
            noc_counters["noc.busy_ps"] += occupancy
            complete = self._serve_addr(
                addr, is_write, start + occupancy + ic.latency_ps
            )
            self._cdict["mem.demand_requests"] += 1
            value = complete - now
            lat = self._lat_mem
        else:
            (
                engine, ic, noc_counters, line_bits, occupancy,
                ic_latency, slices, page_bytes, n, cdict, lat,
            ) = fp
            now = engine.now
            busy = ic._busy_until
            start = now if now > busy else busy
            ic._busy_until = start + occupancy
            noc_counters["noc.bits"] += line_bits
            noc_counters["noc.busy_ps"] += occupancy
            if addr < 0:
                raise ValueError("negative address")
            page = addr // page_bytes
            complete = slices[page % n].serve(
                (page // n) * page_bytes + (addr - page * page_bytes),
                is_write,
                start + occupancy + ic_latency,
            )
            cdict["mem.demand_requests"] += 1
            value = complete - now
        # LatencyStat.record, inlined (same update rules).
        if lat.count == 0:
            lat.min_value = value
            lat.max_value = value
        elif value < lat.min_value:
            lat.min_value = value
        elif value > lat.max_value:
            lat.max_value = value
        lat.count += 1
        lat.total += value
        return complete
