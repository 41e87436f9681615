"""A DRAM device: a set of banks behind an address decoder plus refresh.

Refresh is modelled as periodic whole-device unavailability windows
(tREFI / tRFC), which is the granularity the evaluation needs — the
paper only relies on refresh as the window in which naive designs could
sneak migrations through (Section IV-B), an approach it rejects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import DramTimingConfig
from repro.dram.bank import Bank, BankState
from repro.dram.timing import DramTiming
from repro.sim.stats import Stats


@dataclass(frozen=True, slots=True)
class DramAddress:
    bank: int
    row: int
    col: int


class DramDevice:
    """Bank array + address decode for one DRAM device."""

    __slots__ = (
        "cfg", "capacity_bytes", "timing", "banks", "stats", "name",
        "enable_refresh", "rows_per_bank", "_cdict", "_k_refresh_stalls",
        "_k_accesses", "_k_writes", "_k_reads", "_k_row_hits",
        "_k_activations", "_dc", "_fp",
    )

    def __init__(
        self,
        cfg: DramTimingConfig,
        capacity_bytes: int,
        stats: Optional[Stats] = None,
        name: str = "dram",
        enable_refresh: bool = True,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.cfg = cfg
        self.capacity_bytes = capacity_bytes
        self.timing = DramTiming.from_config(cfg)
        self.banks = [Bank(self.timing) for _ in range(cfg.banks_per_device)]
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self.enable_refresh = enable_refresh
        rows_total = max(1, capacity_bytes // cfg.row_bytes)
        self.rows_per_bank = max(1, rows_total // cfg.banks_per_device)
        # Hot-path accounting: pre-formatted keys into the shared
        # counter dict (see DESIGN.md, "Performance").
        self._cdict = self.stats.counters
        self._k_refresh_stalls = f"{name}.refresh_stalls"
        self._k_accesses = f"{name}.accesses"
        self._k_writes = f"{name}.writes"
        self._k_reads = f"{name}.reads"
        self._k_row_hits = f"{name}.row_hits"
        self._k_activations = f"{name}.activations"
        # Deferred outcome counts of :meth:`access` — [read row-hit,
        # read activation, write row-hit, write activation] — folded
        # into the shared counters by :meth:`_flush_deferred`.
        self._dc = [0, 0, 0, 0]
        self.stats.register_flush(self._flush_deferred)
        # One-tuple constant pack for :meth:`access`: everything the
        # per-access state machine needs, loaded with a single unpack
        # instead of a dozen attribute chains.  The three open-page
        # outcomes resolve to constant (latency, occupancy) pairs, so
        # the state machine runs on plain integer adds with no
        # timing-table or classify calls per access.
        t = self.timing
        self._fp = (
            enable_refresh,
            t.refresh_interval_ps,
            t.refresh_latency_ps,
            capacity_bytes,
            cfg.row_bytes,
            len(self.banks),
            self.rows_per_bank,
            self.banks,
            BankState.ACTIVE,
            BankState.IDLE,
            t.t_cl_ps,
            t.t_burst_ps,
            t.t_rcd_ps + t.t_cl_ps,
            t.t_rcd_ps + t.t_burst_ps,
            t.t_rp_ps + t.t_rcd_ps + t.t_cl_ps,
            t.t_rp_ps + t.t_rcd_ps + t.t_burst_ps,
            self._dc,
        )

    def _flush_deferred(self) -> None:
        """Fold the batched outcome counts into the counters.

        Idempotent; registered with the shared :class:`Stats`, which
        runs it before any counter read (``get``/``snapshot``).  Zero
        counts are skipped so a key the run never touched stays absent.
        """
        dc = self._dc
        rd_hit, rd_act, wr_hit, wr_act = dc
        accesses = rd_hit + rd_act + wr_hit + wr_act
        if not accesses:
            return
        dc[0] = dc[1] = dc[2] = dc[3] = 0
        counters = self._cdict
        counters[self._k_accesses] += accesses
        for key, n in (
            (self._k_reads, rd_hit + rd_act),
            (self._k_writes, wr_hit + wr_act),
            (self._k_row_hits, rd_hit + wr_hit),
            (self._k_activations, rd_act + wr_act),
        ):
            if n:
                counters[key] += n

    def decode(self, addr: int) -> DramAddress:
        """Row-interleaved mapping: consecutive rows hit different banks."""
        if addr < 0:
            raise ValueError("negative address")
        line = addr % self.capacity_bytes
        row_index = line // self.cfg.row_bytes
        col = line % self.cfg.row_bytes
        bank = row_index % len(self.banks)
        row = (row_index // len(self.banks)) % self.rows_per_bank
        return DramAddress(bank=bank, row=row, col=col)

    def _refresh_delay(self, now_ps: int) -> int:
        """Extra wait if ``now_ps`` lands inside a refresh window."""
        if not self.enable_refresh:
            return 0
        interval = self.timing.refresh_interval_ps
        offset = now_ps % interval
        window = self.timing.refresh_latency_ps
        if offset < window:
            self._cdict[self._k_refresh_stalls] += 1
            return window - offset
        return 0

    def access(self, addr: int, is_write: bool, now_ps: int) -> int:
        """Issue a column access; returns the completion time (ps).

        The one demand-path body of the bank row-buffer state machine:
        every slice ``serve``, reference and fast, calls it.  It inlines
        :meth:`decode` (address math only — no :class:`DramAddress`
        record is allocated per access), :meth:`_refresh_delay` and
        :meth:`Bank.access` against the precomputed outcome timings;
        ``tests/test_dram.py`` checks it against those three on a twin
        device.  The outcome counts batch in ``_dc`` (see
        :meth:`_flush_deferred`); the refresh-stall counter is a direct
        add.
        """
        if addr < 0:
            raise ValueError("negative address")
        (
            enable_refresh, refresh_interval, refresh_window,
            capacity, row_bytes, num_banks, rows_per_bank, banks,
            ACTIVE, IDLE,
            hit_lat, hit_occ, closed_lat, closed_occ,
            conflict_lat, conflict_occ, dc,
        ) = self._fp
        if enable_refresh:
            offset = now_ps % refresh_interval
            if offset < refresh_window:
                self._cdict[self._k_refresh_stalls] += 1
                now_ps += refresh_window - offset
        row_index = (addr % capacity) // row_bytes
        bank = banks[row_index % num_banks]
        row = (row_index // num_banks) % rows_per_bank
        busy = bank.busy_until_ps
        start = now_ps if now_ps > busy else busy
        if bank.state is ACTIVE and bank.open_row == row:
            bank.row_hits += 1
            bank.accesses += 1
            bank.busy_until_ps = start + hit_occ
            dc[2 if is_write else 0] += 1
            return start + hit_lat
        if bank.state is IDLE:
            latency = closed_lat
            occupancy = closed_occ
        else:
            latency = conflict_lat
            occupancy = conflict_occ
        bank.activations += 1
        bank.accesses += 1
        bank.state = ACTIVE
        bank.open_row = row
        bank.busy_until_ps = start + occupancy
        dc[3 if is_write else 1] += 1
        return start + latency

    def activate_for_swap(self, addr: int, now_ps: int) -> int:
        """Preset the target bank for an externally driven swap."""
        loc = self.decode(addr)
        return self.banks[loc.bank].activate(loc.row, now_ps)

    def occupy_bank(self, addr: int, now_ps: int, duration_ps: int) -> tuple[int, int]:
        """Reserve the addressed bank for the XPoint DDR sequence generator."""
        loc = self.decode(addr)
        return self.banks[loc.bank].occupy(now_ps, duration_ps)

    def bank_busy_until(self, addr: int) -> int:
        return self.banks[self.decode(addr).bank].busy_until_ps

    @property
    def total_activations(self) -> int:
        """All row activations, demand *and* swap presets.

        The ``<name>.activations`` stats counter deliberately counts
        only demand-path activations (it feeds the Fig. 19 energy
        model at the paper's granularity); swap presets issued through
        :meth:`activate_for_swap` are visible here and in
        :attr:`total_preset_activations`, and the audit layer
        reconciles ``counter == total_activations -
        total_preset_activations`` exactly.
        """
        return sum(b.activations for b in self.banks)

    @property
    def total_preset_activations(self) -> int:
        """Row activations issued as swap presets (:meth:`activate_for_swap`)."""
        return sum(b.preset_activations for b in self.banks)

    @property
    def total_accesses(self) -> int:
        return sum(b.accesses for b in self.banks)
