"""The full Ohm memory system: six controller slices behind a page
interleave (Figure 6b)."""

from __future__ import annotations

from typing import List, Sequence

from repro.config import SystemConfig
from repro.core.slices import SliceBase
from repro.sim.stats import Stats


class MemorySystem:
    """Routes requests to memory-controller slices by page interleave."""

    def __init__(self, cfg: SystemConfig, slices: Sequence[SliceBase], stats: Stats) -> None:
        if not slices:
            raise ValueError("need at least one slice")
        self.cfg = cfg
        self.slices: List[SliceBase] = list(slices)
        self.stats = stats
        self.page_bytes = cfg.hetero.page_bytes
        self._num_slices = len(self.slices)

    def route(self, addr: int) -> tuple[SliceBase, int]:
        """Global address -> (slice, slice-local address)."""
        if addr < 0:
            raise ValueError("negative address")
        page, offset = divmod(addr, self.page_bytes)
        n = self._num_slices
        slice_id = page % n
        local_page = page // n
        return self.slices[slice_id], local_page * self.page_bytes + offset

    def serve_addr(self, addr: int, is_write: bool, now_ps: int) -> int:
        """Serve a bare demand access; returns its completion time.

        The per-event entry point, with the interleave arithmetic inline.
        """
        if addr < 0:
            raise ValueError("negative address")
        page, offset = divmod(addr, self.page_bytes)
        n = self._num_slices
        return self.slices[page % n].serve(
            (page // n) * self.page_bytes + offset, is_write, now_ps
        )
