"""System configuration mirroring Table I of the paper.

All latency values are stored in nanoseconds (as printed in the paper)
and converted to picoseconds at the simulation boundary.  Capacities are
stored in bytes.  The paper scales workload footprints to 8 GB and the
GPU memory down by 12x to keep simulation time tractable; we expose the
same knob as :attr:`SystemConfig.scale_down` and scale further by
default because this simulator is pure Python.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

KB = 1024
MB = 1024 * KB
GB = 1024 * MB


class MemoryMode(enum.Enum):
    """Operating mode of the heterogeneous memory (Section III-B)."""

    PLANAR = "planar"
    TWO_LEVEL = "two_level"


@dataclass(frozen=True)
class GpuConfig:
    """GPU-core side of Table I."""

    num_sms: int = 16
    sm_freq_ghz: float = 1.2
    warps_per_sm: int = 24
    # Traces are post-cache streams, so no cache model exists.
    l1_size: int = 48 * KB  # read by no model; kept: job fingerprints hash it
    l1_ways: int = 6  # read by no model; kept: job fingerprints hash it
    l2_size: int = 6 * MB  # read by no model; kept: job fingerprints hash it
    l2_ways: int = 8  # read by no model; kept: job fingerprints hash it
    line_bytes: int = 128


@dataclass(frozen=True)
class DramTimingConfig:
    """DRAM timing parameters (Table I, right column)."""

    t_rcd_ns: float = 25.0
    t_rp_ns: float = 10.0
    t_cl_ns: float = 11.0
    t_rrd_ns: float = 5.0
    t_burst_ns: float = 2.0  # one line's data burst (bank occupancy)
    refresh_interval_ns: float = 7_800.0  # tREFI
    refresh_latency_ns: float = 350.0  # tRFC
    banks_per_device: int = 16
    row_bytes: int = 2 * KB


@dataclass(frozen=True)
class XPointConfig:
    """3D XPoint timing from Optane DC PMM measurements [27], [28]."""

    read_ns: float = 190.0
    write_ns: float = 763.0
    banks_per_device: int = 32
    # Optane-like internal block: 256 B, interleaved across banks so a
    # 4 KB page migration spreads over the whole bank array.
    row_bytes: int = 256
    # Start-Gap wear levelling: move the gap once per this many writes.
    start_gap_period: int = 100


@dataclass(frozen=True)
class ElectricalChannelConfig:
    """Baseline GDDR-style electrical channels (Table I)."""

    num_channels: int = 6
    lane_bits: int = 32
    freq_ghz: float = 15.0
    # Energy per bit moved over an electrical lane (pJ/bit).  An optical
    # lane is ~10x cheaper [38], [59]; see OpticalChannelConfig.
    energy_pj_per_bit: float = 5.0

    @property
    def total_bandwidth_bits_per_ns(self) -> float:
        return self.num_channels * self.lane_bits * self.freq_ghz


@dataclass(frozen=True)
class OpticalChannelConfig:
    """Optical channel (Table I): 96-bit @ 30 GHz, six virtual channels."""

    channel_width_bits: int = 96
    freq_ghz: float = 30.0
    num_virtual_channels: int = 6
    num_waveguides: int = 1
    strategy: str = "static"  # static channel division
    # Optical power model (Table I).
    mrr_tuning_fj_per_bit: float = 200.0
    filter_drop_db: float = 1.5
    waveguide_loss_db_per_cm: float = 0.3
    splitter_loss_db: float = 0.2
    detector_loss_db: float = 0.1
    modulator_loss_db: float = 1.0  # worst case of the 0~1 dB range
    laser_power_mw: float = 0.73  # single-wavelength default from [38]
    waveguide_length_cm: float = 4.0
    energy_pj_per_bit: float = 0.5  # ~10x below electrical [59]

    @property
    def vchannel_width_bits(self) -> int:
        return self.channel_width_bits // self.num_virtual_channels

    @property
    def total_bandwidth_bits_per_ns(self) -> float:
        return self.channel_width_bits * self.freq_ghz * self.num_waveguides


@dataclass(frozen=True)
class HeteroConfig:
    """Capacity layout of the heterogeneous memory (Table I)."""

    mode: MemoryMode = MemoryMode.PLANAR
    # DRAM : XPoint capacity ratio — 1:8 planar, 1:64 two-level.
    dram_to_xpoint_ratio: int = 8
    page_bytes: int = 2 * KB
    # A planar-group XPoint page becomes hot after this many accesses
    # within the decay window.
    hot_threshold: int = 14
    hotness_decay_accesses: int = 4096


@dataclass(frozen=True)
class HostConfig:
    """Host PCIe DMA link backing Fig. 3 and the Origin platform's page faults."""

    pcie_bandwidth_gb_per_s: float = 16.0
    pcie_latency_us: float = 4.0
    # Z-NAND class device [57]; no SSD model exists.
    ssd_read_latency_us: float = 20.0  # read by no model; kept: job fingerprints hash it
    ssd_write_latency_us: float = 25.0  # read by no model; kept: job fingerprints hash it


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration; one instance fully describes a run."""

    gpu: GpuConfig = field(default_factory=GpuConfig)
    dram_timing: DramTimingConfig = field(default_factory=DramTimingConfig)
    xpoint: XPointConfig = field(default_factory=XPointConfig)
    electrical: ElectricalChannelConfig = field(default_factory=ElectricalChannelConfig)
    optical: OpticalChannelConfig = field(default_factory=OpticalChannelConfig)
    hetero: HeteroConfig = field(default_factory=HeteroConfig)
    host: HostConfig = field(default_factory=HostConfig)
    # Baseline GPU DRAM capacity before scaling: 24 GB (NVIDIA K80).
    base_dram_capacity: int = 24 * GB
    # Paper scales by 12x; we scale much further for pure-Python runs.
    # The DRAM:XPoint ratio and each workload's nominal footprint:DRAM
    # ratio are preserved, but the footprint a run *touches* depends on
    # its sizing (warps x accesses), so whether it overflows DRAM is not.
    scale_down: int = 12 * 1024
    # Bandwidth scaling: the scaled-down GPU issues ~1000x fewer
    # requests per second than the real one, so channel/PCIe bandwidths
    # scale down too — otherwise the channel contention the paper
    # studies (Fig. 8: migrations consume 39%/26% of bandwidth) would
    # vanish.  Latency constants are NOT scaled.  The electrical:optical
    # bandwidth equality of Table I is preserved exactly.
    bandwidth_scale_down: int = 24
    # The host PCIe link scales less aggressively: page-fault cost is
    # dominated by its fixed latency, which does not scale.
    host_bandwidth_scale_down: int = 4

    @property
    def dram_capacity(self) -> int:
        return self.base_dram_capacity // self.scale_down

    @property
    def xpoint_capacity(self) -> int:
        return self.dram_capacity * self.hetero.dram_to_xpoint_ratio

    @property
    def hetero_capacity(self) -> int:
        return self.dram_capacity + self.xpoint_capacity

    def with_mode(self, mode: MemoryMode) -> "SystemConfig":
        """Copy of this config switched to ``mode`` with the paper's
        capacity ratio for that mode (1:8 planar, 1:64 two-level)."""
        ratio = 8 if mode is MemoryMode.PLANAR else 64
        hetero = replace(self.hetero, mode=mode, dram_to_xpoint_ratio=ratio)
        return replace(self, hetero=hetero)

    def with_waveguides(self, n: int) -> "SystemConfig":
        """Copy with ``n`` optical waveguides (Fig. 20a sweep)."""
        if n < 1:
            raise ValueError("need at least one waveguide")
        return replace(self, optical=replace(self.optical, num_waveguides=n))

    def to_dict(self) -> dict:
        """JSON-ready nested dict; the result-cache fingerprint input."""
        data = asdict(self)
        data["hetero"]["mode"] = self.hetero.mode.value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SystemConfig":
        """Inverse of :meth:`to_dict` (``cfg == from_dict(cfg.to_dict())``)."""
        hetero = dict(data["hetero"])
        hetero["mode"] = MemoryMode(hetero["mode"])
        return cls(
            gpu=GpuConfig(**data["gpu"]),
            dram_timing=DramTimingConfig(**data["dram_timing"]),
            xpoint=XPointConfig(**data["xpoint"]),
            electrical=ElectricalChannelConfig(**data["electrical"]),
            optical=OpticalChannelConfig(**data["optical"]),
            hetero=HeteroConfig(**hetero),
            host=HostConfig(**data["host"]),
            base_dram_capacity=data["base_dram_capacity"],
            scale_down=data["scale_down"],
            bandwidth_scale_down=data["bandwidth_scale_down"],
            host_bandwidth_scale_down=data["host_bandwidth_scale_down"],
        )


@lru_cache(maxsize=8)
def default_config(mode: MemoryMode = MemoryMode.PLANAR) -> SystemConfig:
    """The Table I configuration in the requested memory mode.

    Memoized: configs are frozen, so every job of a mode shares one
    instance instead of rebuilding it per cache-key derivation.
    """
    return SystemConfig().with_mode(mode)
