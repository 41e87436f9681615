"""Per-memory-controller slices of the Ohm memory system.

A GPU has six memory controllers (Table I); each owns one virtual
channel, one DRAM device and one XPoint device (with its logic-layer
controller).  Addresses are page-interleaved across slices by
:class:`repro.core.memsystem.MemorySystem`.

Each slice variant implements ``serve(addr, is_write, now_ps) -> int``
returning the demand request's completion time, reserving every
resource (channel routes, DRAM banks, XPoint buffers) on the shared
timeline.  Migration work triggered by a request reserves resources in
the future without blocking the caller — *how much* of it lands on the
data route is exactly what distinguishes the platforms.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.channel.base import ChannelPort, RouteKind
from repro.channel.electrical import ElectricalChannel
from repro.config import SystemConfig
from repro.core.functions import MigrationCaps
from repro.core.handshake import DdrMonitor, DdrSequenceGenerator
from repro.dram.device import DramDevice
from repro.hetero.hotness import HotnessTracker
from repro.hetero.planar import PlanarMapper
from repro.hetero.two_level import CacheLookup, DramCacheDirectory
from repro.hoststorage.pcie import HostLink
from repro.optical.channel import VirtualChannel
from repro.optical.mrr import FULL_TUNE_PS
from repro.optical.wom import EFFECTIVE_BANDWIDTH_FRACTION
from repro.sim.records import RequestKind
from repro.sim.stats import Stats
from repro.xpoint.controller import XPointController

CMD_BITS = 64  # command + address on the channel
DEVICE_DRAM = 0  # demux target ids on the virtual channel
DEVICE_XPOINT = 1


class SliceBase:
    """Shared plumbing: channel helpers and DRAM streaming occupancy.

    ``_cmd``/``_data`` ride :meth:`ChannelPort.transfer_window`, the
    allocation-free primitive (a ``(start, end)`` tuple, no
    ``TransferResult``) — these run two-plus times per demand request.
    """

    def __init__(self, cfg: SystemConfig, chan: ChannelPort, stats: Stats, name: str) -> None:
        self.cfg = cfg
        self.chan = chan
        self.stats = stats
        self.name = name
        self.line_bits = cfg.gpu.line_bytes * 8
        self.page_bits = cfg.hetero.page_bytes * 8
        self.lines_per_page = cfg.hetero.page_bytes // cfg.gpu.line_bytes
        self._window = chan.transfer_window
        # Demand fast path: the specialized DEMAND/DATA window with the
        # two payload durations (command beat, one line) precomputed.
        self._dwin = chan.demand_data_window
        self._cmd_dur = chan.data_duration_ps(CMD_BITS)
        self._line_dur = chan.data_duration_ps(self.line_bits)
        self._cdict = stats.counters
        self._page_occupancy_ps: Optional[int] = None

    def refresh_channel_binding(self) -> None:
        """Re-resolve the cached ``transfer_window`` binding.

        The audit layer wraps a port's ``transfer_window`` *after* slice
        construction; anything that replaces that method must call this
        so the slice's pre-bound hot-path handle sees the wrapper.  The
        specialized demand binding is dropped at the same time: a
        wrapped ``transfer_window`` must observe every window, so demand
        windows fall back to routing through it — and the fully inlined
        ``serve`` fast path (see :meth:`_bind_fast_path`) is removed so
        the reference implementation (whose windows all route through
        the wrapper) answers again.
        """
        self._window = self.chan.transfer_window
        self._dwin = self._demand_data_fallback
        self.__dict__.pop("serve", None)

    def _bind_fast_path(self) -> None:
        """Install a channel-specialized ``serve`` fast path, if any.

        Concrete slices may provide ``_serve_fast_optical`` /
        ``_serve_fast_electrical`` — fully inlined serve variants whose
        channel-window bodies are arithmetic- and accounting-identical
        to :meth:`ChannelPort.demand_data_window` of the matching
        channel type.  The match is exact (``type() is``), so a
        subclassed or wrapped channel keeps the reference ``serve``.
        The binding is an instance attribute shadowing the class
        method; :meth:`refresh_channel_binding` removes it so a
        validated (audit-instrumented) run routes every window through
        the wrapped ``transfer_window``.
        """
        ch = self.chan
        chan_type = type(ch)
        if chan_type is VirtualChannel:
            fast = getattr(self, "_serve_fast_optical", None)
        elif chan_type is ElectricalChannel:
            fast = getattr(self, "_serve_fast_electrical", None)
        else:
            fast = None
        if fast is None or ch._cdict is not self._cdict:
            return
        self._ch_k_route_data = ch._k_route_data
        self._ch_k_demand_bits = ch._k_demand_bits
        self._ch_k_demand_busy = ch._k_demand_busy
        self._ch_k_transfers = ch._k_transfers
        self._ch_k_energy = ch._k_energy
        # Same operands as the reference per-transfer multiply, computed
        # once — the product (and thus the accumulated float) is
        # bit-identical.
        self._cmd_energy = CMD_BITS * ch._energy_pj_per_bit
        self._line_energy = self.line_bits * ch._energy_pj_per_bit
        if chan_type is VirtualChannel:
            self._ch_k_demux = ch._k_demux
            self._ch_k_mrr = ch._k_mrr
            self._cmd_mrr = CMD_BITS * ch._mrr_tuning_fj_per_bit / 1000.0
            self._line_mrr = self.line_bits * ch._mrr_tuning_fj_per_bit / 1000.0
            degraded_rate = ch._bits_per_ps * EFFECTIVE_BANDWIDTH_FRACTION
            cmd_wom = int(round(CMD_BITS / degraded_rate))
            self._cmd_dur_wom = cmd_wom if cmd_wom >= 1 else 1
            line_wom = int(round(self.line_bits / degraded_rate))
            self._line_dur_wom = line_wom if line_wom >= 1 else 1
            # Channel-side constant pack: the fast serves load all of
            # this with one tuple unpack instead of ~20 attribute
            # chains.  Every entry is a construction-time constant.
            self._fp_chan = (
                ch,
                self._cdict,
                ch.wom_coded,
                self._ch_k_demux,
                self._ch_k_route_data,
                self._ch_k_demand_bits,
                self._ch_k_demand_busy,
                self._ch_k_transfers,
                self._ch_k_energy,
                self._ch_k_mrr,
                self._cmd_dur,
                self._line_dur,
                self._cmd_dur_wom,
                self._line_dur_wom,
                self._cmd_energy,
                self._line_energy,
                self._cmd_mrr,
                self._line_mrr,
                self.line_bits,
                CMD_BITS + self.line_bits,
            )
        else:
            self._fp_chan = (
                ch,
                self._cdict,
                self._ch_k_route_data,
                self._ch_k_demand_bits,
                self._ch_k_demand_busy,
                self._ch_k_transfers,
                self._ch_k_energy,
                self._cmd_dur,
                self._line_dur,
                self._cmd_dur + self._line_dur,
                self._cmd_energy,
                self._line_energy,
                CMD_BITS + self.line_bits,
            )
        self.serve = fast

    def _demand_data_fallback(
        self, now: int, bits: int, duration_ps: int, device: int = 0
    ) -> int:
        return self._window(
            now, bits, RequestKind.DEMAND, RouteKind.DATA, device
        )[1]

    # -- channel helpers -----------------------------------------------

    def _cmd(self, now: int, kind: RequestKind, device: int) -> int:
        return self._window(now, CMD_BITS, kind, RouteKind.DATA, device)[1]

    def _data(
        self,
        now: int,
        bits: int,
        kind: RequestKind,
        route: RouteKind = RouteKind.DATA,
        device: int = 0,
    ) -> int:
        return self._window(now, bits, kind, route, device)[1]

    def _dram_page_occupancy_ps(self) -> int:
        """Streaming page read/write: activate + first CAS + pipelined
        line bursts at the channel rate.  Constant per slice, so it is
        computed once and cached."""
        if self._page_occupancy_ps is None:
            line_burst = max(1, int(round(self.line_bits / self.chan.bits_per_ps)))
            t = self._dram_timing()
            self._page_occupancy_ps = (
                t.t_rcd_ps + t.t_cl_ps + self.lines_per_page * line_burst
            )
        return self._page_occupancy_ps

    def _dram_timing(self):
        raise NotImplementedError

    def serve(self, addr: int, is_write: bool, now_ps: int) -> int:
        raise NotImplementedError


class DramOnlySlice(SliceBase):
    """Oracle: a DRAM device big enough that nothing ever migrates."""

    def __init__(
        self,
        cfg: SystemConfig,
        chan: ChannelPort,
        dram: DramDevice,
        stats: Stats,
        name: str,
    ) -> None:
        super().__init__(cfg, chan, stats, name)
        self.dram = dram

    def _dram_timing(self):
        return self.dram.timing

    def serve(self, addr: int, is_write: bool, now_ps: int) -> int:
        dwin = self._dwin
        t = dwin(now_ps, CMD_BITS, self._cmd_dur, DEVICE_DRAM)
        if is_write:
            # Writes put the data on the channel first; the column write
            # happens once it lands.
            t = dwin(t, self.line_bits, self._line_dur, DEVICE_DRAM)
            return self.dram.access(addr, True, t)
        t = self.dram.access(addr, False, t)
        return dwin(t, self.line_bits, self._line_dur, DEVICE_DRAM)


class OriginSlice(DramOnlySlice):
    """Origin: small DRAM; non-resident pages fault to the host.

    Page residency uses LRU over the slice's DRAM page frames: the
    resident map is kept in recency order (every touch moves its page
    to the end), so the victim is its first entry.  A fault costs host
    latency + a PCIe page transfer + writing the page into DRAM through
    the memory channel (the DMA traffic of Fig. 3b).
    """

    def __init__(
        self,
        cfg: SystemConfig,
        chan: ChannelPort,
        dram: DramDevice,
        host: HostLink,
        stats: Stats,
        name: str,
    ) -> None:
        super().__init__(cfg, chan, dram, stats, name)
        self.host = host
        self.page_bytes = cfg.hetero.page_bytes
        self.num_frames = max(1, dram.capacity_bytes // self.page_bytes)
        # page -> dirty, least recently used first.
        self._resident: OrderedDict[int, bool] = OrderedDict()
        self._c_faults = stats.counter("host.faults")
        self._c_writebacks = stats.counter("host.writebacks")
        self._c_dma_time = stats.counter("host.dma_time_ps")
        self._bind_fast_path()
        self._fp_mem = (
            self.page_bytes,
            self.num_frames,
            self._resident,
            dram.access,
        )
        # Deferred demand-pair count of the fast serve (electrical
        # demand pairs are constant-duration, so the count alone
        # reconstructs bits/busy/route/transfers exactly).
        self._dc = [0]
        stats.register_flush(self._flush_deferred)

    def _flush_deferred(self) -> None:
        """Fold the fast serve's batched counts into the counters."""
        dc = self._dc
        npairs = dc[0]
        if npairs:
            dc[0] = 0
            counters = self._cdict
            dpair = self._cmd_dur + self._line_dur
            counters[self._ch_k_demand_bits] += npairs * (CMD_BITS + self.line_bits)
            counters[self._ch_k_demand_busy] += npairs * dpair
            counters[self._ch_k_route_data] += npairs * dpair
            counters[self._ch_k_transfers] += 2 * npairs

    def serve(self, addr: int, is_write: bool, now_ps: int) -> int:
        page = addr // self.page_bytes
        ready = now_ps
        resident = self._resident
        if page in resident:
            resident.move_to_end(page)
        elif len(resident) < self.num_frames:
            # Free frames left: the page was staged before kernel launch
            # (bulk host->GPU copy ahead of time), no demand fault.
            resident[page] = False
        else:
            ready = self._fault(page, now_ps)
        if is_write:
            resident[page] = True
        return super().serve(addr, is_write, ready)

    def _serve_fast_electrical(self, addr: int, is_write: bool, now_ps: int) -> int:
        """:meth:`serve` with the electrical demand windows inlined.

        Identical arithmetic and accounting to :meth:`serve` (residency
        bookkeeping, then :meth:`DramOnlySlice.serve`) over an
        :class:`ElectricalChannel`; each window body mirrors
        ``ElectricalChannel.demand_data_window``.  The fault slow path
        is untouched — it still routes through :meth:`_fault` and the
        generic channel helpers.  Keep in lock-step with :meth:`serve`.
        """
        (
            ch, counters,
            k_route, k_bits, k_busy, k_tr, k_e,
            cmd_dur, line_dur, dpair, cmd_e, line_e, bits_pair,
        ) = self._fp_chan
        page_bytes, num_frames, resident, dram_access = self._fp_mem
        dc = self._dc
        page = addr // page_bytes
        ready = now_ps
        if page in resident:
            resident.move_to_end(page)
        elif len(resident) < num_frames:
            # Free frames left: the page was staged before kernel launch
            # (bulk host->GPU copy ahead of time), no demand fault.
            resident[page] = False
        else:
            ready = self._fault(page, now_ps)
        if is_write:
            resident[page] = True
        # Command beat (demand/data window, inlined); the channel's busy
        # horizon commits once per serve, and the two windows' integer
        # counters merge into single adds (exact for integer-valued
        # accumulators) — the float energy accumulator keeps its two
        # per-window adds in order.
        busy = ch._busy
        start = ready if ready > busy else busy
        t = start + cmd_dur
        if is_write:
            # Writes put the data on the channel first; the column write
            # happens once it lands.
            end = t + line_dur
            ch._busy = end
            dc[0] += 1
            counters[k_e] += cmd_e
            counters[k_e] += line_e
            return dram_access(addr, True, end)
        t2 = dram_access(addr, False, t)
        start = t2 if t2 > t else t
        end = start + line_dur
        ch._busy = end
        dc[0] += 1
        counters[k_e] += cmd_e
        counters[k_e] += line_e
        return end

    def _fault(self, page: int, now_ps: int) -> int:
        self._c_faults.add(1)
        if len(self._resident) >= self.num_frames:
            _, dirty = self._resident.popitem(last=False)
            if dirty:
                # Dirty victim: write the page back to the host first.
                self._c_writebacks.add(1)
                now_ps = self.host.transfer(now_ps, self.page_bytes)
        self._resident[page] = False
        # Host-side latency + PCIe transfer of the page.
        arrive = self.host.transfer(now_ps, self.page_bytes)
        # DMA the page into DRAM through the memory channel.
        self.dram.occupy_bank(page * self.page_bytes, arrive, self._dram_page_occupancy_ps())
        done = self._data(
            arrive, self.page_bits, RequestKind.HOST_DMA, device=DEVICE_DRAM
        )
        self._c_dma_time.add(done - arrive)
        return done


class HeteroSliceBase(SliceBase):
    """Shared parts of the planar and two-level hetero slices."""

    def __init__(
        self,
        cfg: SystemConfig,
        chan: ChannelPort,
        dram: DramDevice,
        xp: XPointController,
        caps: MigrationCaps,
        stats: Stats,
        name: str,
    ) -> None:
        super().__init__(cfg, chan, stats, name)
        self.dram = dram
        self.xp = xp
        self.caps = caps
        self.seq_gen = DdrSequenceGenerator()
        self.ddr_monitor = DdrMonitor()

    def _dram_timing(self):
        return self.dram.timing

    # -- device-side bulk helpers --------------------------------------

    def _xp_page_read(self, xp_addr: int, now: int) -> int:
        t = now
        line = self.cfg.gpu.line_bytes
        for i in range(self.lines_per_page):
            t = max(t, self.xp.read(xp_addr + i * line, now))
        return t

    def _xp_page_write(self, xp_addr: int, now: int) -> int:
        t = now
        line = self.cfg.gpu.line_bytes
        for i in range(self.lines_per_page):
            t = max(t, self.xp.write(xp_addr + i * line, now))
        return t


class PlanarSlice(HeteroSliceBase):
    """Planar memory mode (Fig. 7a) with per-platform swap execution."""

    def __init__(self, cfg, chan, dram, xp, caps, stats, name) -> None:
        super().__init__(cfg, chan, dram, xp, caps, stats, name)
        page = cfg.hetero.page_bytes
        num_groups = max(1, dram.capacity_bytes // page)
        slots = cfg.hetero.dram_to_xpoint_ratio + 1
        self.mapper = PlanarMapper(num_groups, slots)
        self.hotness = HotnessTracker(
            cfg.hetero.hot_threshold, cfg.hetero.hotness_decay_accesses
        )
        self.page_bytes = page
        self._c_migrations = stats.counter("mem.migrations")
        self._c_swaps = stats.counter("mem.swaps")
        self._bind_fast_path()
        # Memory-side constant pack for the fast serve (containers are
        # stable identities; their contents mutate in place).
        self._fp_mem = (
            page,
            self.mapper.num_groups,
            self.mapper.slots_per_group,
            self.mapper._dram_slot,
            self.mapper._xp_page_of_slot,
            self.mapper,
            self.dram.access,
            self.xp.read,
            self.xp.write,
            self.hotness,
        )
        # Deferred integer counter accumulators for the fast serve:
        # [pair_dur_sum, pair_count].  Folded into the shared counters
        # on demand — exact for integer-valued accumulators (see
        # Stats.register_flush).
        self._dc = [0, 0]
        stats.register_flush(self._flush_deferred)

    def _flush_deferred(self) -> None:
        """Fold the fast serve's batched counts into the counters."""
        dc = self._dc
        pair_dur, npairs = dc
        if npairs:
            dc[0] = dc[1] = 0
            counters = self._cdict
            counters[self._ch_k_route_data] += pair_dur
            counters[self._ch_k_demand_bits] += npairs * (CMD_BITS + self.line_bits)
            counters[self._ch_k_demand_busy] += pair_dur
            counters[self._ch_k_transfers] += 2 * npairs

    def serve(self, addr: int, is_write: bool, now_ps: int) -> int:
        page, offset = divmod(addr, self.page_bytes)
        # Mapping-table lookup, inlined from PlanarMapper.lookup: the
        # per-request path builds no PlanarPlacement record (the
        # allocation showed up as GC pressure) — keep the two in sync.
        mapper = self.mapper
        group = page % mapper.num_groups
        slot = page // mapper.num_groups
        if slot >= mapper.slots_per_group:
            raise mapper._capacity_error(page)
        dwin = self._dwin
        if mapper._dram_slot[group] == slot:
            dram_addr = group * self.page_bytes + offset
            t = dwin(now_ps, CMD_BITS, self._cmd_dur, DEVICE_DRAM)
            if is_write:
                t = dwin(t, self.line_bits, self._line_dur, DEVICE_DRAM)
                return self.dram.access(dram_addr, True, t)
            t = self.dram.access(dram_addr, False, t)
            return dwin(t, self.line_bits, self._line_dur, DEVICE_DRAM)
        # XPoint access path.
        xp_addr = mapper._xp_page(group, slot) * self.page_bytes + offset
        t = dwin(now_ps, CMD_BITS, self._cmd_dur, DEVICE_XPOINT)
        if is_write:
            # Data rides the channel, then lands in the persistent write
            # buffer (DDR-T posts the write; media persistence is async).
            done = dwin(t, self.line_bits, self._line_dur, DEVICE_XPOINT)
            self.xp.write(xp_addr, done)
        else:
            t = self.xp.read(xp_addr, t)
            done = dwin(t, self.line_bits, self._line_dur, DEVICE_XPOINT)
        # Hot-page detection happens on XPoint traffic only.
        if self.hotness.record((group, slot)):
            self._migrate(page, done)
            self.hotness.reset((group, slot))
        return done

    def _serve_fast_optical(self, addr: int, is_write: bool, now_ps: int) -> int:
        """:meth:`serve` with the optical demand windows fully inlined.

        Arithmetic- and accounting-identical to :meth:`serve` over a
        :class:`VirtualChannel`: every window body mirrors
        ``VirtualChannel.demand_data_window`` (same counter keys, same
        update order, same WOM degradation math — the degraded
        durations and energy/MRR increments are the same expressions
        precomputed in :meth:`SliceBase._bind_fast_path`).  The second
        window of each pair targets the same demux device as the
        first with nothing touching the channel in between, so its
        retune check is statically false and elided.  Keep in
        lock-step with :meth:`serve`.
        """
        (
            ch, counters, wom,
            k_demux, k_route, k_bits, k_busy, k_tr, k_e, k_mrr,
            cmd_dur, line_dur, cmd_dur_wom, line_dur_wom,
            cmd_e, line_e, cmd_mrr, line_mrr,
            line_bits, bits_pair,
        ) = self._fp_chan
        (
            page_bytes, num_groups, slots_per_group, dram_slot,
            xp_overrides, mapper, dram_access, xp_read, xp_write, hot,
        ) = self._fp_mem
        page = addr // page_bytes
        offset = addr - page * page_bytes
        group = page % num_groups
        slot = page // num_groups
        if slot >= slots_per_group:
            raise mapper._capacity_error(page)
        dc = self._dc
        # Command beat (demand/data window, inlined).  The channel's
        # busy horizon is committed once per serve — between the paired
        # windows nothing else reads it — and the two windows' integer
        # counters (route/bits/busy/transfers) merge into single adds
        # (exact for integer-valued accumulators); the float energy/MRR
        # accumulators keep their two per-window adds in order.
        start = ch._busy_data
        if now_ps > start:
            start = now_ps
        wau = ch._wom_active_until if wom else 0
        if dram_slot[group] == slot:
            if ch._dev_data != DEVICE_DRAM:
                start += FULL_TUNE_PS
                ch._dev_data = DEVICE_DRAM
                counters[k_demux] += 1
            dur = cmd_dur_wom if wom and start < wau else cmd_dur
            t = start + dur
            dram_addr = group * page_bytes + offset
            if is_write:
                # Line beat rides the channel, then the column write.
                dur2 = line_dur_wom if wom and t < wau else line_dur
                end = t + dur2
                ch._busy_data = end
                dc[0] += dur + dur2  # route + demand busy, batched
                dc[1] += 1  # demand bits + transfers, batched
                counters[k_e] += cmd_e
                counters[k_e] += line_e
                counters[k_mrr] += cmd_mrr
                counters[k_mrr] += line_mrr
                return dram_access(dram_addr, True, end)
            t2 = dram_access(dram_addr, False, t)
            start = t if t2 < t else t2
            dur2 = line_dur_wom if wom and start < wau else line_dur
            end = start + dur2
            ch._busy_data = end
            dc[0] += dur + dur2
            dc[1] += 1
            counters[k_e] += cmd_e
            counters[k_e] += line_e
            counters[k_mrr] += cmd_mrr
            counters[k_mrr] += line_mrr
            return end
        # XPoint access path (PlanarMapper._xp_page, inlined).
        xp_page = xp_overrides[group].get(slot)
        if xp_page is None:
            if slot == 0:
                raise KeyError(f"slot 0 of group {group} has no XPoint page yet")
            xp_page = group * (slots_per_group - 1) + (slot - 1)
        xp_addr = xp_page * page_bytes + offset
        if ch._dev_data != DEVICE_XPOINT:
            start += FULL_TUNE_PS
            ch._dev_data = DEVICE_XPOINT
            counters[k_demux] += 1
        dur = cmd_dur_wom if wom and start < wau else cmd_dur
        t = start + dur
        if is_write:
            # Data rides the channel, then lands in the persistent write
            # buffer (DDR-T posts the write; media persistence is async).
            dur2 = line_dur_wom if wom and t < wau else line_dur
            done = t + dur2
            ch._busy_data = done
            dc[0] += dur + dur2
            dc[1] += 1
            counters[k_e] += cmd_e
            counters[k_e] += line_e
            counters[k_mrr] += cmd_mrr
            counters[k_mrr] += line_mrr
            xp_write(xp_addr, done)
        else:
            t2 = xp_read(xp_addr, t)
            start = t if t2 < t else t2
            dur2 = line_dur_wom if wom and start < wau else line_dur
            done = start + dur2
            ch._busy_data = done
            dc[0] += dur + dur2
            dc[1] += 1
            counters[k_e] += cmd_e
            counters[k_e] += line_e
            counters[k_mrr] += cmd_mrr
            counters[k_mrr] += line_mrr
        # Hot-page detection (HotnessTracker.record, inlined).
        hot.total_tracked += 1
        hot._since_decay += 1
        if hot._since_decay >= hot.decay_accesses:
            hot._decay()
        hcounts = hot._counts
        hkey = (group, slot)
        count = hcounts[hkey] + 1
        hcounts[hkey] = count
        if count == hot.threshold:
            self._migrate(page, done)
            hcounts.pop(hkey, None)
        return done

    # -- migration ------------------------------------------------------

    def _migrate(self, page: int, now_ps: int) -> None:
        plan = self.mapper.plan_swap(page)
        if plan is None:
            return
        self._c_migrations.add(1)
        self._c_swaps.add(1)
        dram_addr = plan.dram_page * self.page_bytes
        xp_addr = plan.xpoint_page * self.page_bytes
        if self.caps.swap:
            self._migrate_swap_function(dram_addr, xp_addr, now_ps)
        else:
            self._migrate_controller_copy(dram_addr, xp_addr, now_ps)
        self.mapper.commit_swap(plan)

    def _migrate_controller_copy(self, dram_addr: int, xp_addr: int, now: int) -> None:
        """Baseline: the MC copies everything through its buffer; every
        leg occupies the shared data route (Fig. 7a step 6 problem)."""
        occupancy = self._dram_page_occupancy_ps()
        # Leg 1: read the DRAM page to the MC buffer.
        start, dev_done = self.dram.occupy_bank(dram_addr, now, occupancy)
        t = self._data(dev_done, self.page_bits, RequestKind.MIGRATION, device=DEVICE_DRAM)
        if self.caps.auto_rw:
            # Auto-read/write: XPoint snarfed leg 1 off the waveguide, so
            # the MC->XPoint transfer disappears (Fig. 9a).
            for i in range(self.lines_per_page):
                self.xp.snarf_write(xp_addr + i * self.cfg.gpu.line_bytes, t)
        else:
            t = self._data(t, self.page_bits, RequestKind.MIGRATION, device=DEVICE_XPOINT)
            self._xp_page_write(xp_addr, t)
        # Legs 3-4: XPoint page to DRAM (no snarf possible: DRAM has no
        # controller to perform it — Section IV-B).
        t2 = self._xp_page_read(xp_addr, now)
        t2 = self._data(t2, self.page_bits, RequestKind.MIGRATION, device=DEVICE_XPOINT)
        t2 = self._data(t2, self.page_bits, RequestKind.MIGRATION, device=DEVICE_DRAM)
        self.dram.occupy_bank(dram_addr, t2, occupancy)

    def _migrate_swap_function(self, dram_addr: int, xp_addr: int, now: int) -> None:
        """SWAP-CMD path (Fig. 10a/11): the XPoint controller drives the
        whole exchange over the memory route; the data route only
        carries the command and completion signals."""
        # Step 1: MC presets the target DRAM bank to a stable state.
        bank_ready = self.dram.activate_for_swap(dram_addr, now)
        self.seq_gen.preset(dram_addr)
        # Step 2: SWAP-CMD with DRAM/XPoint addresses and size rides the
        # data route (it is tiny: metadata only).
        t = self._data(bank_ready, CMD_BITS * 2, RequestKind.MIGRATION, device=DEVICE_XPOINT)
        t += self.seq_gen.start(dram_addr)
        # Steps 3-4: DDR sequence generator moves both pages over the
        # memory route; the DRAM bank is occupied, the data route is not.
        occupancy = self._dram_page_occupancy_ps()
        _, bank_done = self.dram.occupy_bank(dram_addr, t, 2 * occupancy)
        leg1 = self._data(t, self.page_bits, RequestKind.MIGRATION, RouteKind.MEMORY, DEVICE_XPOINT)
        self._xp_page_write(xp_addr + 0, leg1)
        leg2_src = self._xp_page_read(xp_addr, t)
        leg2 = self._data(
            max(leg1, leg2_src), self.page_bits, RequestKind.MIGRATION, RouteKind.MEMORY, DEVICE_DRAM
        )
        end = max(bank_done, leg2)
        if self.caps.wom_coded and hasattr(self.chan, "set_wom_window"):
            # WOM coding: demand traffic on the data route runs at 2/3
            # width while the swap shares the light (Section V-B).
            self.chan.set_wom_window(now, end - t)
        # Steps 5-6: ready + confirm ride the DDR-T side band (they are
        # single-cycle signals, not data-route occupancies).
        self.seq_gen.finish()
        self.seq_gen.confirm()


class TwoLevelSlice(HeteroSliceBase):
    """Two-level memory mode (Fig. 7b): DRAM as a direct-mapped cache."""

    def __init__(self, cfg, chan, dram, xp, caps, stats, name) -> None:
        super().__init__(cfg, chan, dram, xp, caps, stats, name)
        self.num_sets = max(1, dram.capacity_bytes // cfg.gpu.line_bytes)
        self.directory = DramCacheDirectory(self.num_sets)
        self.line_bytes = cfg.gpu.line_bytes
        self._c_hits = stats.counter("mem.dram_cache_hits")
        self._c_misses = stats.counter("mem.dram_cache_misses")
        self._c_migrations = stats.counter("mem.migrations")
        self._bind_fast_path()
        directory = self.directory
        mig_keys = chan._kind_keys[RequestKind.MIGRATION]
        self._fp_mem = (
            self.line_bytes,
            directory,
            directory._valid,
            directory._dirty,
            directory._tag,
            directory.num_sets,
            dram.access,
            xp.read,
            xp.write,
            self._c_hits.name,
            self._c_misses.name,
            self._c_migrations.name,
            mig_keys[0],
            mig_keys[1],
            # The fully inlined miss body covers only the baseline data
            # movement; platforms with auto-read/write or reverse-write
            # capabilities route misses through the reference _miss.
            not (caps.auto_rw or caps.reverse_write),
        )
        self._k_mig_bits = mig_keys[0]
        self._k_mig_busy = mig_keys[1]
        # Deferred integer counter accumulators for the fast serve:
        # [demand pair duration sum, demand pair count,
        #  migration window duration sum, migration window count].
        self._dc = [0, 0, 0, 0]
        stats.register_flush(self._flush_deferred)

    def _flush_deferred(self) -> None:
        """Fold the fast serve's batched counts into the counters."""
        dc = self._dc
        pair_dur, npairs, mig_dur, nmig = dc
        if npairs or nmig:
            dc[0] = dc[1] = dc[2] = dc[3] = 0
            counters = self._cdict
            counters[self._ch_k_route_data] += pair_dur + mig_dur
            counters[self._ch_k_demand_bits] += npairs * (CMD_BITS + self.line_bits)
            counters[self._ch_k_demand_busy] += pair_dur
            counters[self._ch_k_transfers] += 2 * npairs + nmig
            counters[self._k_mig_bits] += nmig * self.line_bits
            counters[self._k_mig_busy] += mig_dur

    def serve(self, addr: int, is_write: bool, now_ps: int) -> int:
        line_index = addr // self.line_bytes
        lookup = self.directory.lookup(line_index)
        set_addr = lookup.set_index * self.line_bytes
        dwin = self._dwin
        # Tag check and data fetch are ONE DRAM access: the metadata
        # lives in the line's ECC region (Section III-B).
        t = dwin(now_ps, CMD_BITS, self._cmd_dur, DEVICE_DRAM)
        t = self.dram.access(set_addr, False, t)
        t = dwin(t, self.line_bits, self._line_dur, DEVICE_DRAM)
        if lookup.hit:
            self._c_hits.add(1)
            if is_write:
                self.directory.mark_dirty(line_index)
                t = self.dram.access(set_addr, True, t)
            return t
        self._c_misses.add(1)
        return self._miss(line_index, lookup, set_addr, is_write, t)

    def _serve_fast_optical(self, addr: int, is_write: bool, now_ps: int) -> int:
        """:meth:`serve` with directory probe and windows inlined.

        Identical arithmetic and accounting to :meth:`serve` over a
        :class:`VirtualChannel`; the directory probe touches the
        valid/dirty/tag arrays directly (a :class:`CacheLookup` record
        is built only on the miss path, where :meth:`_miss` needs it),
        and both demand windows mirror
        ``VirtualChannel.demand_data_window``.  Keep in lock-step with
        :meth:`serve`.
        """
        (
            ch, counters, wom,
            k_demux, k_route, k_bits, k_busy, k_tr, k_e, k_mrr,
            cmd_dur, line_dur, cmd_dur_wom, line_dur_wom,
            cmd_e, line_e, cmd_mrr, line_mrr,
            line_bits, bits_pair,
        ) = self._fp_chan
        (
            line_bytes, directory, dvalid, ddirty, dtag, num_sets,
            dram_access, xp_read, xp_write,
            k_hits, k_misses, k_migrations, k_mig_bits, k_mig_busy,
            miss_inline,
        ) = self._fp_mem
        dc = self._dc
        line_index = addr // line_bytes
        set_index = line_index % num_sets
        tag = line_index // num_sets
        valid = dvalid[set_index]
        victim_tag = dtag[set_index]
        hit = valid and victim_tag == tag
        if hit:
            directory.hits += 1
        else:
            directory.misses += 1
        set_addr = set_index * line_bytes
        # Command beat; tag check and data fetch are ONE DRAM access —
        # the metadata lives in the line's ECC region (Section III-B).
        # As in the planar fast serve, the channel's busy horizon
        # commits once per window pair and the integer counters of a
        # pair merge into single adds (exact for integer-valued
        # accumulators); float energy/MRR adds stay separate, in order.
        start = ch._busy_data
        if now_ps > start:
            start = now_ps
        if ch._dev_data != DEVICE_DRAM:
            start += FULL_TUNE_PS
            ch._dev_data = DEVICE_DRAM
            counters[k_demux] += 1
        wau = ch._wom_active_until if wom else 0
        dur = cmd_dur_wom if wom and start < wau else cmd_dur
        t = start + dur
        t2 = dram_access(set_addr, False, t)
        start = t if t2 < t else t2
        dur2 = line_dur_wom if wom and start < wau else line_dur
        t = start + dur2
        ch._busy_data = t
        dc[0] += dur + dur2
        dc[1] += 1
        counters[k_e] += cmd_e
        counters[k_e] += line_e
        counters[k_mrr] += cmd_mrr
        counters[k_mrr] += line_mrr
        if hit:
            counters[k_hits] += 1
            if is_write:
                # mark_dirty's residency check is statically true here.
                ddirty[set_index] = True
                return dram_access(set_addr, True, t)
            return t
        counters[k_misses] += 1
        if not miss_inline:
            lookup = CacheLookup(
                hit, set_index, tag, victim_tag,
                ddirty[set_index], valid,
            )
            return self._miss(line_index, lookup, set_addr, is_write, t)
        # -- baseline miss, fully inlined (mirrors :meth:`_miss` with
        # neither auto-read/write nor reverse-write) --
        xp_addr = line_index * line_bytes
        counters[k_migrations] += 1
        busy = t
        # Eviction of the victim line: one MIGRATION window on the data
        # route to the XPoint device, then the buffered media write.
        if valid and ddirty[set_index]:
            vstart = busy
            if ch._dev_data != DEVICE_XPOINT:
                vstart += FULL_TUNE_PS
                ch._dev_data = DEVICE_XPOINT
                counters[k_demux] += 1
            vdur = line_dur_wom if wom and vstart < wau else line_dur
            busy = vstart + vdur
            dc[2] += vdur
            dc[3] += 1
            counters[k_e] += line_e
            counters[k_mrr] += line_mrr
            xp_write((victim_tag * num_sets + set_index) * line_bytes, busy)
        # Fill from XPoint: command beat + demand-critical line transfer.
        fstart = busy
        if ch._dev_data != DEVICE_XPOINT:
            fstart += FULL_TUNE_PS
            ch._dev_data = DEVICE_XPOINT
            counters[k_demux] += 1
        fdur = cmd_dur_wom if wom and fstart < wau else cmd_dur
        f1 = fstart + fdur
        r = xp_read(xp_addr, f1)
        rstart = f1 if r < f1 else r
        rdur = line_dur_wom if wom and rstart < wau else line_dur
        ret = rstart + rdur
        dc[0] += fdur + rdur
        dc[1] += 1
        counters[k_e] += cmd_e
        counters[k_e] += line_e
        counters[k_mrr] += cmd_mrr
        counters[k_mrr] += line_mrr
        # Second data-route transfer writes the line into the DRAM
        # cache (MIGRATION window back to the DRAM device).
        mstart = ret
        if ch._dev_data != DEVICE_DRAM:
            mstart += FULL_TUNE_PS
            ch._dev_data = DEVICE_DRAM
            counters[k_demux] += 1
        mdur = line_dur_wom if wom and mstart < wau else line_dur
        fill = mstart + mdur
        ch._busy_data = fill
        dc[2] += mdur
        dc[3] += 1
        counters[k_e] += line_e
        counters[k_mrr] += line_mrr
        # Cache-fill write; its completion time is unused, matching
        # the reference.
        dram_access(set_addr, True, fill)
        # directory.fill, inlined.
        dvalid[set_index] = True
        ddirty[set_index] = is_write
        dtag[set_index] = tag
        return ret

    def _miss(self, line_index, lookup, set_addr, is_write, now: int) -> int:
        xp_addr = line_index * self.line_bytes
        self._c_migrations.add(1)
        # --- eviction of the victim line ---
        if lookup.victim_valid and lookup.victim_dirty:
            victim_addr = self.directory.victim_line_index(lookup) * self.line_bytes
            if self.caps.auto_rw:
                # The XPoint controller snarfed the tag-check read off
                # the waveguide and owns the eviction (Fig. 9b).
                self.xp.snarf_write(victim_addr, now)
            else:
                t = self._data(now, self.line_bits, RequestKind.MIGRATION, device=DEVICE_XPOINT)
                self.xp.write(victim_addr, t)
        # --- fill from XPoint ---
        t = self._dwin(now, CMD_BITS, self._cmd_dur, DEVICE_XPOINT)
        t = self.xp.read(xp_addr, t)
        # Demand-critical transfer: XPoint -> memory controller.
        t = self._dwin(t, self.line_bits, self._line_dur, DEVICE_XPOINT)
        if self.caps.reverse_write:
            # Reverse write: XPoint streams the same line to DRAM over
            # the memory route while the armed DDR monitor lets the MC
            # snarf it off the channel (Fig. 10b/12).
            self.ddr_monitor.arm()
            self.ddr_monitor.snarf()
            fill = self._data(
                t, self.line_bits, RequestKind.MIGRATION, RouteKind.MEMORY, DEVICE_DRAM
            )
            self.dram.access(set_addr, True, fill)
            self.ddr_monitor.complete()
        else:
            # Baseline: a second data-route transfer writes the line
            # into the DRAM cache.
            fill = self._data(t, self.line_bits, RequestKind.MIGRATION, device=DEVICE_DRAM)
            self.dram.access(set_addr, True, fill)
        self.directory.fill(line_index, dirty=is_write)
        return t
