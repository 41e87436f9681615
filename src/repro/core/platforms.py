"""The seven evaluated GPU platforms (Section VI) and their builders."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.channel.base import ChannelPort
from repro.channel.electrical import ElectricalChannel
from repro.config import MemoryMode, SystemConfig
from repro.core.functions import CAPS_AUTO_RW, CAPS_BW, CAPS_NONE, CAPS_WOM, MigrationCaps
from repro.core.memsystem import MemorySystem
from repro.core.slices import DramOnlySlice, OriginSlice, PlanarSlice, TwoLevelSlice
from repro.dram.device import DramDevice
from repro.hoststorage.pcie import HostLink
from repro.optical.channel import OpticalChannel
from repro.sim.stats import Stats
from repro.xpoint.controller import XPointController


@dataclass(frozen=True)
class Platform:
    """A named system configuration from the evaluation."""

    name: str
    channel: str  # "electrical" | "optical"
    memory: str  # "dram_small" | "hetero" | "dram_oracle"
    caps: MigrationCaps

    @property
    def laser_scale(self) -> float:
        if self.channel != "optical":
            return 0.0
        return self.caps.laser_scale

    @property
    def uses_optical(self) -> bool:
        return self.channel == "optical"

    @property
    def uses_xpoint(self) -> bool:
        return self.memory == "hetero"

    @property
    def mode_blind(self) -> bool:
        """Whether the planar/two-level mode cannot change a run.

        Only Origin: its DRAM-only slices read ``cfg.hetero.page_bytes``
        and ``cfg.dram_capacity``, neither of which the mode sets.
        Oracle is not blind — its DRAM is sized from the mode's
        ``dram_to_xpoint_ratio``.
        """
        return self.memory == "dram_small"


PLATFORMS: Dict[str, Platform] = {
    "Origin": Platform("Origin", "electrical", "dram_small", CAPS_NONE),
    "Hetero": Platform("Hetero", "electrical", "hetero", CAPS_NONE),
    "Ohm-base": Platform("Ohm-base", "optical", "hetero", CAPS_NONE),
    "Auto-rw": Platform("Auto-rw", "optical", "hetero", CAPS_AUTO_RW),
    "Ohm-WOM": Platform("Ohm-WOM", "optical", "hetero", CAPS_WOM),
    "Ohm-BW": Platform("Ohm-BW", "optical", "hetero", CAPS_BW),
    "Oracle": Platform("Oracle", "optical", "dram_oracle", CAPS_NONE),
}


def _channel_ports(
    platform: Platform, cfg: SystemConfig, stats: Stats
) -> list[ChannelPort]:
    n = cfg.electrical.num_channels
    if platform.channel == "electrical":
        return [
            ElectricalChannel(
                cfg.electrical,
                stats,
                name=f"echan{i}",
                bandwidth_scale_down=cfg.bandwidth_scale_down,
            )
            for i in range(n)
        ]
    optical = OpticalChannel(
        cfg.optical,
        stats,
        dual_routes=platform.caps.dual_routes,
        wom_coded=platform.caps.wom_coded,
        bandwidth_scale_down=cfg.bandwidth_scale_down,
    )
    return [optical.vchannel_for_controller(i) for i in range(n)]


def build_memory_system(
    platform: Platform,
    cfg: SystemConfig,
    stats: Optional[Stats] = None,
    host: Optional[HostLink] = None,
) -> MemorySystem:
    """Instantiate the platform's memory system for one run."""
    stats = stats if stats is not None else Stats()
    ports = _channel_ports(platform, cfg, stats)
    n = len(ports)
    slices = []
    dram_slice_cap = max(cfg.hetero.page_bytes, cfg.dram_capacity // n)
    xp_slice_cap = max(cfg.hetero.page_bytes, cfg.xpoint_capacity // n)
    if platform.memory == "dram_small" and host is None:
        # One PCIe link shared by all MCs.
        host = HostLink(
            cfg.host, stats, bandwidth_scale_down=cfg.host_bandwidth_scale_down
        )
    for i, port in enumerate(ports):
        name = f"mc{i}"
        if platform.memory == "dram_small":
            dram = DramDevice(cfg.dram_timing, dram_slice_cap, stats, name=f"{name}.dram")
            slices.append(OriginSlice(cfg, port, dram, host, stats, name))
        elif platform.memory == "dram_oracle":
            dram = DramDevice(
                cfg.dram_timing, dram_slice_cap + xp_slice_cap, stats, name=f"{name}.dram"
            )
            slices.append(DramOnlySlice(cfg, port, dram, stats, name))
        elif platform.memory == "hetero":
            dram = DramDevice(cfg.dram_timing, dram_slice_cap, stats, name=f"{name}.dram")
            xp = XPointController(cfg.xpoint, xp_slice_cap, stats, name=f"{name}.xp")
            slice_cls = (
                PlanarSlice if cfg.hetero.mode is MemoryMode.PLANAR else TwoLevelSlice
            )
            slices.append(slice_cls(cfg, port, dram, xp, platform.caps, stats, name))
        else:
            raise ValueError(f"unknown memory organization {platform.memory!r}")
    return MemorySystem(cfg, slices, stats)
