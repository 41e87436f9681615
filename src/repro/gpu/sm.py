"""Streaming multiprocessor: an issue server shared by its warps.

The SM issues one instruction per cycle; compute bursts from different
warps serialize on this capacity.  Memory instructions go through the
interconnect and the memory system; the warp sleeps until the response
timestamp.  The traces are post-cache streams, so no on-chip cache is
modelled.

:meth:`StreamingMultiprocessor.access_memory` is the memory path:
warps hand it a bare ``(addr, is_write)`` pair.  The warp lane's fused
drain inlines it against the SM's constant pack ``_fp`` while the
method is pristine.
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
        # Page-interleave routing, pre-resolved: when the memory system
        # is the real one (not a test double), the fused drain picks the
        # slice itself and calls its ``serve`` directly — no
        # ``serve_addr`` dispatch hop per event.  Every demand access
        # moves exactly one line, so the crossbar occupancy is a
        # constant.  One-tuple constant pack: one unpack replaces a
        # dozen attribute chains.
        from repro.core.memsystem import MemorySystem

        if type(memory) is MemorySystem:
            self._fp = (
                engine,
                interconnect,
                interconnect._cdict,
                self._line_bits,
                interconnect.occupancy_ps(self._line_bits),
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
