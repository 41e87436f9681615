"""The XPoint controller logic layer (Figure 4 / Section III-A).

Sits between the (optical or electrical) memory channel and the XPoint
media.  It owns:

* read buffer and persistent write buffer that decouple the channel
  clock from the media clock (DDR-T is asynchronous);
* address translation + Start-Gap wear levelling (no DRAM buffer);
* SECDED ECC accounting on every media access;
* the *auto-read/write* snarf capability and the *swap* DDR sequence
  generator that Ohm-GPU adds (Sections IV-B and V-A) — those entry
  points live here but are orchestrated by ``repro.core``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.config import XPointConfig
from repro.sim.engine import ns
from repro.sim.stats import Stats
from repro.xpoint.device import XPointDevice
from repro.xpoint.translation import RegionTranslator

# DDR-T handshake cost: command + ready/response message on the channel
# are modelled by the channel itself; this is the controller-side
# processing latency per request.
CONTROLLER_LATENCY_NS = 5.0


class XPointController:
    """Logic-layer controller stacked on the XPoint die."""

    __slots__ = (
        "cfg", "stats", "name", "device", "translator",
        "read_buffer_entries", "write_buffer_entries", "_write_buffer",
        "_wbuf_addr_counts", "_ctrl_latency_ps", "_busy_until_ps",
        "_c_gap_rotations", "_c_wbuf_hits", "_c_ecc_decodes",
        "_c_ecc_encodes", "_c_wbuf_stalls", "_c_snarfs", "_cdict",
        "_k_wbuf_hits", "_k_ecc_decodes", "_k_ecc_encodes", "_translate",
        "_media_access", "_k_media_acc", "_k_media_reads",
        "_k_media_writes", "_def_reads", "_def_stall_writes", "_fp",
    )

    def __init__(
        self,
        cfg: XPointConfig,
        capacity_bytes: int,
        stats: Optional[Stats] = None,
        name: str = "xpctrl",
        read_buffer_entries: int = 32,
        write_buffer_entries: int = 64,
    ) -> None:
        self.cfg = cfg
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self.device = XPointDevice(cfg, capacity_bytes, self.stats, name=f"{name}.media")
        self.translator = RegionTranslator(
            capacity_bytes, cfg.row_bytes, start_gap_period=cfg.start_gap_period
        )
        self.read_buffer_entries = read_buffer_entries
        self.write_buffer_entries = write_buffer_entries
        # Bare (addr, ready_ps) tuples — everything buffered is a write,
        # so no per-write record object is allocated on the demand path.
        self._write_buffer: Deque[tuple] = deque()
        # Multiset of buffered addresses so the per-read write-buffer
        # membership probe is O(1) instead of scanning the deque.
        self._wbuf_addr_counts: Dict[int, int] = {}
        self._ctrl_latency_ps = ns(CONTROLLER_LATENCY_NS)
        self._busy_until_ps = 0
        counter = self.stats.counter
        self._c_gap_rotations = counter(f"{name}.gap_rotations")
        self._c_wbuf_hits = counter(f"{name}.wbuf_hits")
        self._c_ecc_decodes = counter(f"{name}.ecc_decodes")
        self._c_ecc_encodes = counter(f"{name}.ecc_encodes")
        self._c_wbuf_stalls = counter(f"{name}.wbuf_stalls")
        self._c_snarfs = counter(f"{name}.snarfs")
        # Hot-path handles: read()/write() run per demand XPoint access.
        self._cdict = self.stats.counters
        self._k_wbuf_hits = self._c_wbuf_hits.name
        self._k_ecc_decodes = self._c_ecc_decodes.name
        self._k_ecc_encodes = self._c_ecc_encodes.name
        self._translate = self.translator.translate
        self._media_access = self.device.access
        # Fused-path constant pack: read()/write() inline the region
        # translate + Start-Gap remap + media bank access (identical
        # arithmetic to translator.translate + device.access), so the
        # per-access constants load as one tuple unpack instead of a
        # dozen attribute chains.  The Start-Gap registers themselves
        # mutate, so they are read from the (stable) gap objects.
        # Deferred fused-path counts: the media accesses performed by
        # the fused read/drain bodies batch here and fold into the
        # shared counters on demand (Stats.register_flush) — exact,
        # since every one is an integer-valued +1.
        self._k_media_acc = self.device._c_accesses.name
        self._k_media_reads = self.device._c_reads.name
        self._k_media_writes = self.device._c_writes.name
        self._def_reads = 0
        self._def_stall_writes = 0
        self.stats.register_flush(self._flush_deferred)
        tr = self.translator
        dev = self.device
        self._fp = (
            tr.row_bytes,
            tr.num_rows,
            tr.region_rows,
            tr._gaps,
            dev._bank_busy_until,
            dev.cfg.banks_per_device,
            dev.capacity_bytes,
            dev.read_ps,
            dev.write_ps,
            dev._c_accesses.name,
            dev._c_reads.name,
            dev._c_writes.name,
            dev.write_counts,
        )

    def _flush_deferred(self) -> None:
        """Fold batched fused-path media counts into the counters.

        Idempotent; registered with the shared :class:`Stats`, which
        runs it before any counter read (``get``/``snapshot``).
        """
        n = self._def_reads
        if n:
            self._def_reads = 0
            cd = self._cdict
            cd[self._k_media_acc] += n
            cd[self._k_media_reads] += n
            cd[self._k_ecc_decodes] += n
        n = self._def_stall_writes
        if n:
            self._def_stall_writes = 0
            cd = self._cdict
            cd[self._k_media_acc] += n
            cd[self._k_media_writes] += n

    def _drain_one_write(self, now_ps: int) -> None:
        """Retire the oldest buffered write to the media."""
        addr, ready_ps = self._write_buffer.popleft()
        remaining = self._wbuf_addr_counts[addr] - 1
        if remaining:
            self._wbuf_addr_counts[addr] = remaining
        else:
            del self._wbuf_addr_counts[addr]
        media_addr = self.translator.translate(addr)
        finish = self.device.access(media_addr, True, max(now_ps, ready_ps))
        if self.translator.record_write(addr):
            # Start-Gap rotation: copy the line adjacent to the gap into
            # the gap slot — one extra read+write, charged to the rows
            # the copy actually touches (not the triggering row, which
            # would double-charge its wear and miss the gap slot's).
            copy_read, copy_write = self.translator.rotation_copy_addrs(addr)
            gap_finish = self.device.access(copy_read, False, finish)
            self.device.access(copy_write, True, gap_finish)
            self._c_gap_rotations.add(1)

    def read(self, addr: int, now_ps: int) -> int:
        """Asynchronous (DDR-T) read; returns data-ready time (ps).

        The miss path fuses the translator (region decode + Start-Gap
        remap, bounds check elided — a logical address below media
        capacity always decodes to an in-range local line) and the
        media bank access; arithmetic and accounting are identical to
        ``translator.translate`` + ``device.access``.
        """
        busy = self._busy_until_ps
        start = (now_ps if now_ps > busy else busy) + self._ctrl_latency_ps
        # Write buffer hit: serve from the persistent write buffer.
        if addr in self._wbuf_addr_counts:
            self._cdict[self._k_wbuf_hits] += 1
            return start
        (
            row_bytes, num_rows, region_rows, gaps,
            bank_busy, num_banks, capacity, read_ps, _write_ps,
            k_acc, k_reads, _k_writes, _wcounts,
        ) = self._fp
        row = (addr // row_bytes) % num_rows
        region = row // region_rows
        gap = gaps[region]
        physical = (row - region * region_rows + gap.start) % gap.num_lines
        if physical >= gap.gap:
            physical += 1
        media_addr = (
            (region * (region_rows + 1) + physical) * row_bytes
            + addr % row_bytes
        )
        bank = (media_addr % capacity) // row_bytes % num_banks
        t = bank_busy[bank]
        if start > t:
            t = start
        finish = t + read_ps
        bank_busy[bank] = finish
        self._def_reads += 1  # media access + read + ECC decode, batched
        self._busy_until_ps = start
        return finish

    def write(self, addr: int, now_ps: int) -> int:
        """Asynchronous write; returns *acceptance* time, not persist time.

        The persistent write buffer absorbs the 763 ns media write — the
        channel sees only the buffer-insert latency unless the buffer is
        full, in which case the caller stalls for one drain.  The
        buffer-full branch fuses the drained write's translate + media
        access and the incoming write's stall-point translate
        (arithmetic identical to :meth:`_drain_one_write` followed by
        ``device.bank_busy_until(translator.translate(addr))``).
        """
        busy = self._busy_until_ps
        start = (now_ps if now_ps > busy else busy) + self._ctrl_latency_ps
        self._cdict[self._k_ecc_encodes] += 1
        if len(self._write_buffer) >= self.write_buffer_entries:
            (
                row_bytes, num_rows, region_rows, gaps,
                bank_busy, num_banks, capacity, _read_ps, write_ps,
                k_acc, _k_reads, k_writes, wcounts,
            ) = self._fp
            # Retire the oldest buffered write to the media.
            drained_addr, ready_ps = self._write_buffer.popleft()
            wbuf_counts = self._wbuf_addr_counts
            remaining = wbuf_counts[drained_addr] - 1
            if remaining:
                wbuf_counts[drained_addr] = remaining
            else:
                del wbuf_counts[drained_addr]
            row = (drained_addr // row_bytes) % num_rows
            region = row // region_rows
            gap = gaps[region]
            physical = (row - region * region_rows + gap.start) % gap.num_lines
            if physical >= gap.gap:
                physical += 1
            media_addr = (
                (region * (region_rows + 1) + physical) * row_bytes
                + drained_addr % row_bytes
            )
            media_row = (media_addr % capacity) // row_bytes
            bank = media_row % num_banks
            t = start if start > ready_ps else ready_ps
            b = bank_busy[bank]
            if b > t:
                t = b
            finish = t + write_ps
            bank_busy[bank] = finish
            self._def_stall_writes += 1  # media access + write, batched
            wcounts[media_row] += 1
            if gap.record_write():
                # Start-Gap rotation: copy the line adjacent to the gap
                # into the gap slot — charged to the rows the copy
                # actually touches (post-move registers), mirroring
                # _drain_one_write.
                base = region * (region_rows + 1)
                copy_read = (base + gap.gap) * row_bytes
                copy_write = (
                    base + (gap.gap + 1) % (gap.num_lines + 1)
                ) * row_bytes
                gap_finish = self.device.access(copy_read, False, finish)
                self.device.access(copy_write, True, gap_finish)
                self._c_gap_rotations.add(1)
            self._c_wbuf_stalls.add(1)
            # Stall the channel until the drained write's slot frees:
            # translate the *incoming* address (post-rotation registers)
            # and read its media bank's horizon.
            row = (addr // row_bytes) % num_rows
            region = row // region_rows
            gap = gaps[region]
            physical = (row - region * region_rows + gap.start) % gap.num_lines
            if physical >= gap.gap:
                physical += 1
            in_media = (
                (region * (region_rows + 1) + physical) * row_bytes
                + addr % row_bytes
            )
            horizon = bank_busy[(in_media % capacity) // row_bytes % num_banks]
            if horizon > start:
                start = horizon
        self._write_buffer.append((addr, start))
        counts = self._wbuf_addr_counts
        counts[addr] = counts.get(addr, 0) + 1
        self._busy_until_ps = start
        return start

    def flush(self, now_ps: int) -> int:
        """Drain the whole write buffer; returns completion time."""
        t = now_ps
        while self._write_buffer:
            self._drain_one_write(t)
            t = max(t, self._busy_until_ps)
        return t

    # ---- Ohm-GPU extension hooks (orchestrated by repro.core) ----

    def snarf_write(self, addr: int, now_ps: int) -> int:
        """Auto-read/write: absorb data seen on the waveguide into XPoint.

        The controller hooked command/address/data/ECC off the memory
        route, so no second channel transfer is needed; only the media
        write (buffered) happens here.
        """
        self._c_snarfs.add(1)
        return self.write(addr, now_ps)

    @property
    def write_buffer_occupancy(self) -> int:
        return len(self._write_buffer)
