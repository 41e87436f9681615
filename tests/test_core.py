"""Core-package tests: capabilities, handshake protocols, platform
builders, memory-system routing and slice behaviours."""

import pytest

from repro.config import MemoryMode, default_config
from repro.core.functions import (
    CAPS_AUTO_RW,
    CAPS_BW,
    CAPS_NONE,
    CAPS_WOM,
    FunctionKind,
)
from repro.core.handshake import DdrMonitor, DdrSequenceGenerator, SwapState
from repro.core.platforms import PLATFORMS, build_memory_system
from repro.core.slices import PlanarSlice, TwoLevelSlice
from repro.sim.stats import Stats


class TestCaps:
    def test_dual_routes_derived(self):
        assert not CAPS_NONE.dual_routes
        assert CAPS_AUTO_RW.dual_routes
        assert CAPS_WOM.dual_routes

    def test_laser_scales_match_paper(self):
        """Section VI: 2x for Auto-rw and Ohm-WOM, 4x for Ohm-BW."""
        assert CAPS_NONE.laser_scale == 1.0
        assert CAPS_AUTO_RW.laser_scale == 2.0
        assert CAPS_WOM.laser_scale == 2.0
        assert CAPS_BW.laser_scale == 4.0

    def test_supports(self):
        assert CAPS_WOM.supports(FunctionKind.SWAP)
        assert not CAPS_AUTO_RW.supports(FunctionKind.REVERSE_WRITE)


class TestHandshake:
    def test_swap_protocol_sequence(self):
        gen = DdrSequenceGenerator()
        gen.preset(0x1000)
        gen.start(0x1000)
        assert gen.busy
        gen.finish()
        gen.confirm()
        assert gen.state is SwapState.IDLE
        assert gen.swaps_completed == 1

    def test_swap_without_preset_rejected(self):
        with pytest.raises(RuntimeError):
            DdrSequenceGenerator().start(0x1000)

    def test_swap_wrong_address_rejected(self):
        gen = DdrSequenceGenerator()
        gen.preset(0x1000)
        with pytest.raises(RuntimeError):
            gen.start(0x2000)

    def test_double_preset_rejected(self):
        gen = DdrSequenceGenerator()
        gen.preset(0x1000)
        gen.start(0x1000)
        with pytest.raises(RuntimeError):
            gen.preset(0x2000)

    def test_confirm_before_finish_rejected(self):
        gen = DdrSequenceGenerator()
        gen.preset(0)
        gen.start(0)
        with pytest.raises(RuntimeError):
            gen.confirm()

    def test_monitor_protocol(self):
        mon = DdrMonitor()
        mon.arm()
        mon.snarf()
        mon.complete()
        assert mon.snarfed_lines == 1

    def test_snarf_without_arming_rejected(self):
        with pytest.raises(RuntimeError):
            DdrMonitor().snarf()

    def test_double_arm_rejected(self):
        mon = DdrMonitor()
        mon.arm()
        with pytest.raises(RuntimeError):
            mon.arm()


class TestPlatformBuilders:
    def test_all_seven_platforms_defined(self):
        assert set(PLATFORMS) == {
            "Origin", "Hetero", "Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle",
        }

    def test_channel_types(self):
        assert PLATFORMS["Origin"].channel == "electrical"
        assert PLATFORMS["Hetero"].channel == "electrical"
        assert all(
            PLATFORMS[p].channel == "optical"
            for p in ("Ohm-base", "Auto-rw", "Ohm-WOM", "Ohm-BW", "Oracle")
        )

    @pytest.mark.parametrize("name", list(PLATFORMS))
    def test_build_each_platform(self, name):
        cfg = default_config(MemoryMode.PLANAR)
        ms = build_memory_system(PLATFORMS[name], cfg, Stats())
        assert len(ms.slices) == cfg.electrical.num_channels

    def test_origin_slices_share_one_pcie_link(self):
        cfg = default_config()
        ms = build_memory_system(PLATFORMS["Origin"], cfg, Stats())
        links = {id(s.host) for s in ms.slices}
        assert len(links) == 1

    def test_hetero_slice_types_by_mode(self):
        for mode, cls in ((MemoryMode.PLANAR, PlanarSlice), (MemoryMode.TWO_LEVEL, TwoLevelSlice)):
            ms = build_memory_system(PLATFORMS["Ohm-base"], default_config(mode), Stats())
            assert all(isinstance(s, cls) for s in ms.slices)

    def test_oracle_has_full_capacity_dram(self):
        cfg = default_config(MemoryMode.PLANAR)
        ms = build_memory_system(PLATFORMS["Oracle"], cfg, Stats())
        total = sum(s.dram.capacity_bytes for s in ms.slices)
        assert total >= cfg.hetero_capacity * 0.99

    def test_wom_platform_gets_wom_channels(self):
        ms = build_memory_system(PLATFORMS["Ohm-WOM"], default_config(), Stats())
        assert all(s.chan.wom_coded for s in ms.slices)
        assert all(s.chan.dual_routes for s in ms.slices)

    def test_bw_platform_dual_routes_without_wom(self):
        ms = build_memory_system(PLATFORMS["Ohm-BW"], default_config(), Stats())
        assert all(not s.chan.wom_coded for s in ms.slices)
        assert all(s.chan.dual_routes for s in ms.slices)

    def test_base_platform_no_dual_routes(self):
        ms = build_memory_system(PLATFORMS["Ohm-base"], default_config(), Stats())
        assert all(not s.chan.dual_routes for s in ms.slices)


class TestMemorySystemRouting:
    def make(self):
        cfg = default_config(MemoryMode.PLANAR)
        return build_memory_system(PLATFORMS["Oracle"], cfg, Stats()), cfg

    def test_pages_interleave_over_slices(self):
        ms, cfg = self.make()
        page = cfg.hetero.page_bytes
        s0, _ = ms.route(0)
        s1, _ = ms.route(page)
        assert s0 is not s1

    def test_offsets_preserved(self):
        ms, cfg = self.make()
        _, local = ms.route(cfg.hetero.page_bytes * 6 + 100)
        assert local % cfg.hetero.page_bytes == 100

    def test_local_addresses_compact(self):
        ms, cfg = self.make()
        page = cfg.hetero.page_bytes
        _, local = ms.route(page * 6)  # second page on slice 0
        assert local == page

    def test_negative_address_rejected(self):
        ms, _ = self.make()
        with pytest.raises(ValueError):
            ms.route(-1)

    def test_serve_addr_serves_on_the_routed_slice(self):
        ms, cfg = self.make()
        addr = cfg.hetero.page_bytes * 7 + 128
        done = ms.serve_addr(addr, False, 1000)
        assert done > 1000
        twin, _ = self.make()
        slice_, local = twin.route(addr)
        assert slice_.serve(local, False, 1000) == done


class TestSliceBehaviours:
    def _planar(self, caps=CAPS_NONE, mode=MemoryMode.PLANAR, platform="Ohm-base"):
        cfg = default_config(mode)
        return build_memory_system(PLATFORMS[platform], cfg, Stats()), cfg

    def test_planar_xpoint_read_slower_than_dram(self):
        ms, cfg = self._planar()
        s = ms.slices[0]
        t_dram = s.serve(0, False, 0)  # slot 0: DRAM
        # A slot-1 page lives in XPoint.
        xp_addr = cfg.hetero.page_bytes * s.mapper.num_groups
        t_xp = s.serve(xp_addr, False, 0) - 0
        assert t_xp > t_dram

    def test_planar_hot_page_migrates_to_dram(self):
        ms, cfg = self._planar()
        s = ms.slices[0]
        xp_addr = cfg.hetero.page_bytes * s.mapper.num_groups
        page = xp_addr // cfg.hetero.page_bytes
        assert not s.mapper.lookup(page).in_dram
        t = 0
        for _ in range(cfg.hetero.hot_threshold + 1):
            t = s.serve(xp_addr, False, t) + 1
        assert s.mapper.lookup(page).in_dram
        assert s.stats.get("mem.swaps") == 1

    def test_swap_function_uses_memory_route(self):
        ms, cfg = self._planar(platform="Ohm-BW")
        s = ms.slices[0]
        xp_addr = cfg.hetero.page_bytes * s.mapper.num_groups
        t = 0
        for _ in range(cfg.hetero.hot_threshold + 1):
            t = s.serve(xp_addr, False, t) + 1
        # Migration page data rode the memory route, not the data route.
        assert s.stats.get("ochan0.busy_ps.route.memory") > 0
        assert s.seq_gen.swaps_completed == 1

    def test_baseline_swap_occupies_data_route_only(self):
        ms, cfg = self._planar(platform="Ohm-base")
        s = ms.slices[0]
        xp_addr = cfg.hetero.page_bytes * s.mapper.num_groups
        t = 0
        for _ in range(cfg.hetero.hot_threshold + 1):
            t = s.serve(xp_addr, False, t) + 1
        assert s.stats.get("mem.swaps") == 1
        assert s.stats.get("ochan0.busy_ps.route.memory", 0) == 0
        assert s.stats.get("ochan0.busy_ps.migration") > 0

    def test_two_level_miss_then_hit(self):
        ms, cfg = self._planar(mode=MemoryMode.TWO_LEVEL)
        s = ms.slices[0]
        t1 = s.serve(0, False, 0)
        t2 = s.serve(0, False, t1 + 1) - (t1 + 1)
        assert s.stats.get("mem.dram_cache_misses") == 1
        assert s.stats.get("mem.dram_cache_hits") == 1
        assert t2 < t1  # hit is faster than the cold miss

    def test_two_level_reverse_write_keeps_fill_off_data_route(self):
        ms_base, cfg = self._planar(mode=MemoryMode.TWO_LEVEL, platform="Ohm-base")
        ms_bw, _ = self._planar(mode=MemoryMode.TWO_LEVEL, platform="Ohm-BW")
        for s in (ms_base.slices[0], ms_bw.slices[0]):
            s.serve(0, False, 0)
        base_mig = ms_base.slices[0].stats.get("ochan0.busy_ps.migration")
        bw_route = ms_bw.slices[0].stats.get("ochan0.busy_ps.route.memory")
        assert base_mig > 0  # baseline fill write occupies the channel
        assert bw_route > 0  # reverse write moved it to the memory route

    def test_two_level_auto_rw_snarfs_dirty_eviction(self):
        ms, cfg = self._planar(mode=MemoryMode.TWO_LEVEL, platform="Auto-rw")
        s = ms.slices[0]
        s.serve(0, True, 0)  # fill set 0, dirty
        conflict = s.num_sets * s.line_bytes  # same set, different tag
        s.serve(conflict, False, 10_000_000)
        assert s.stats.get("mc0.xp.snarfs") == 1

    def test_origin_faults_after_capacity(self):
        cfg = default_config(MemoryMode.PLANAR)
        ms = build_memory_system(PLATFORMS["Origin"], cfg, Stats())
        s = ms.slices[0]
        t = 0
        for page in range(s.num_frames + 5):
            t = s.serve(page * s.page_bytes, False, t) + 1
        # Staged pages are free; the 5 extra pages fault.
        assert s.stats.get("host.faults") == 5

    def test_origin_dirty_writeback(self):
        cfg = default_config(MemoryMode.PLANAR)
        ms = build_memory_system(PLATFORMS["Origin"], cfg, Stats())
        s = ms.slices[0]
        t = s.serve(0, True, 0)  # dirty page 0
        for page in range(1, s.num_frames + 1):  # evict page 0
            t = s.serve(page * s.page_bytes, False, t) + 1
        assert s.stats.get("host.writebacks") == 1
