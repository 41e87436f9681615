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


class DramDevice:  # reprolint: allow(R2) the slice fast path probes dram.__dict__ to detect instance patches (core/slices.py _dram_constant_pack)
    """Bank array + address decode for one DRAM device."""

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
        self._num_banks = len(self.banks)
        # Demand-path flattening: the three open-page outcomes resolve
        # to constant (latency, occupancy) pairs, precomputed so
        # :meth:`access` runs the bank state machine inline with plain
        # integer adds — no timing-table or classify calls per access.
        t = self.timing
        self._row_bytes = cfg.row_bytes
        self._hit_lat = t.t_cl_ps
        self._hit_occ = t.t_burst_ps
        self._closed_lat = t.t_rcd_ps + t.t_cl_ps
        self._closed_occ = t.t_rcd_ps + t.t_burst_ps
        self._conflict_lat = t.t_rp_ps + t.t_rcd_ps + t.t_cl_ps
        self._conflict_occ = t.t_rp_ps + t.t_rcd_ps + t.t_burst_ps
        # One-tuple constant pack for :meth:`access`: everything the
        # per-access state machine needs, loaded with a single unpack
        # instead of a dozen attribute chains.  All entries are
        # construction-time constants (or stable containers).
        self._fp = (
            self.enable_refresh,
            t.refresh_interval_ps,
            t.refresh_latency_ps,
            self.capacity_bytes,
            self._row_bytes,
            self._num_banks,
            self.rows_per_bank,
            self.banks,
            BankState.ACTIVE,
            BankState.IDLE,
            self._hit_lat,
            self._hit_occ,
            self._closed_lat,
            self._closed_occ,
            self._conflict_lat,
            self._conflict_occ,
        )

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

        Inlines :meth:`decode` (address math only — no
        :class:`DramAddress` record is allocated per access), the
        refresh-window check, *and* the bank's row-buffer state machine
        against the precomputed outcome timings; this runs once or more
        per demand request.  Keep it in lock-step with
        :meth:`Bank.access` — the audit reconciles both ledgers.
        """
        if addr < 0:
            raise ValueError("negative address")
        (
            enable_refresh, refresh_interval, refresh_window,
            capacity, row_bytes, num_banks, rows_per_bank, banks,
            ACTIVE, IDLE,
            hit_lat, hit_occ, closed_lat, closed_occ,
            conflict_lat, conflict_occ,
        ) = self._fp
        counters = self._cdict
        if enable_refresh:
            offset = now_ps % refresh_interval
            if offset < refresh_window:
                counters[self._k_refresh_stalls] += 1
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
            counters[self._k_accesses] += 1
            counters[self._k_writes if is_write else self._k_reads] += 1
            counters[self._k_row_hits] += 1
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
        counters[self._k_accesses] += 1
        counters[self._k_writes if is_write else self._k_reads] += 1
        counters[self._k_activations] += 1
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
