"""Logical→media address translation for the XPoint logic layer.

The translator composes region decode with Start-Gap wear levelling, so
the controller never needs a DRAM-resident mapping table (Section III-A
— the design goal the paper calls out when it folds the XPoint
controller into the XPoint logic layer).
"""

from __future__ import annotations

from repro.xpoint.wear_leveling import StartGap


class RegionTranslator:
    """Splits the XPoint space into regions, each with its own Start-Gap.

    Per-region Start-Gap keeps the extra-copy overhead of a gap move
    bounded to one region row instead of the whole device.
    """

    __slots__ = ("row_bytes", "num_rows", "region_rows", "num_regions", "_gaps")

    def __init__(
        self,
        capacity_bytes: int,
        row_bytes: int,
        region_rows: int = 256,
        start_gap_period: int = 100,
    ) -> None:
        if capacity_bytes < row_bytes:
            raise ValueError("capacity smaller than one row")
        self.row_bytes = row_bytes
        self.num_rows = capacity_bytes // row_bytes
        self.region_rows = min(region_rows, self.num_rows)
        self.num_regions = (self.num_rows + self.region_rows - 1) // self.region_rows
        self._gaps = [
            StartGap(self._rows_in_region(r), period=start_gap_period)
            for r in range(self.num_regions)
        ]

    def _rows_in_region(self, region: int) -> int:
        if region < self.num_regions - 1:
            return self.region_rows
        return self.num_rows - self.region_rows * (self.num_regions - 1)

    def translate(self, addr: int) -> int:
        """Translate a logical byte address into a media byte address."""
        if addr < 0:
            raise ValueError("negative address")
        row = (addr // self.row_bytes) % self.num_rows
        offset = addr % self.row_bytes
        region = row // self.region_rows
        local = row - region * self.region_rows
        physical_local = self._gaps[region].translate(local)
        # Physical rows in a region occupy region_rows + 1 slots; regions
        # are laid out back to back in the media address space.
        media_row = region * (self.region_rows + 1) + physical_local
        return media_row * self.row_bytes + offset

    def record_write(self, addr: int) -> bool:
        """Account a write; returns True when a gap rotation occurred."""
        row = (addr // self.row_bytes) % self.num_rows
        region = row // self.region_rows
        return self._gaps[region].record_write()

    def record_writes(self, addr: int, writes: int) -> int:
        """Bulk-account ``writes`` writes landing in ``addr``'s region.

        Closed-form (:meth:`StartGap.advance`); returns the number of
        gap rotations performed.  Wear scenarios use this to age a
        region by millions of writes without a per-write loop.
        """
        row = (addr // self.row_bytes) % self.num_rows
        region = row // self.region_rows
        return self._gaps[region].advance(writes)

    def rotation_copy_addrs(self, addr: int) -> tuple[int, int]:
        """Media byte addresses (read, write) of the last gap rotation
        in ``addr``'s region.

        A rotation copies the line adjacent to the gap into the gap
        slot — *not* the row whose write triggered the move.  Call with
        post-move registers (right after ``record_write`` returns True).
        """
        row = (addr // self.row_bytes) % self.num_rows
        region = row // self.region_rows
        read_slot, write_slot = self._gaps[region].rotation_copy_slots()
        base = region * (self.region_rows + 1)
        return (
            (base + read_slot) * self.row_bytes,
            (base + write_slot) * self.row_bytes,
        )

    @property
    def gaps(self) -> list[StartGap]:
        """Per-region Start-Gap remappers (audit/scenario access)."""
        return self._gaps

    @property
    def total_gap_moves(self) -> int:
        return sum(g.gap_moves for g in self._gaps)
