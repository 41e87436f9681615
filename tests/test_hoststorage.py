"""Host/storage substrate tests: PCIe, Fig. 3 phase model."""

import pytest

from repro.config import HostConfig, default_config
from repro.hoststorage.gpudirect import GpuSsdSystem
from repro.hoststorage.pcie import HostLink
from repro.sim.engine import us
from repro.workloads.registry import WORKLOADS


class TestHostLink:
    def test_transfer_includes_latency(self):
        link = HostLink(HostConfig())
        t = link.transfer(0, 4096)
        assert t >= us(HostConfig().pcie_latency_us)

    def test_link_serializes_occupancy(self):
        link = HostLink(HostConfig())
        t1 = link.transfer(0, 1 << 20)
        t2 = link.transfer(0, 1 << 20)
        assert t2 > t1

    def test_bandwidth_scaling(self):
        fast = HostLink(HostConfig())
        slow = HostLink(HostConfig(), bandwidth_scale_down=8)
        assert slow.transfer(0, 1 << 20) > fast.transfer(0, 1 << 20)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            HostLink(HostConfig()).transfer(0, 0)


class TestFig3Model:
    def test_fractions_sum_to_one(self):
        system = GpuSsdSystem(default_config())
        for name in WORKLOADS:
            b = system.phase_breakdown(WORKLOADS[name])
            total = b.data_move_frac + b.storage_frac + b.gpu_frac
            assert total == pytest.approx(1.0)

    def test_average_matches_paper_shape(self):
        """Fig. 3a: storage ~21 %, data movement ~45 % on average, and
        movement+storage exceeds GPU compute by >= 1.9x."""
        system = GpuSsdSystem(default_config())
        rows = [system.phase_breakdown(WORKLOADS[n]) for n in WORKLOADS]
        move = sum(r.data_move_frac for r in rows) / len(rows)
        storage = sum(r.storage_frac for r in rows) / len(rows)
        assert 0.30 <= move <= 0.60
        assert 0.10 <= storage <= 0.35
        mean_ratio = sum(r.movement_over_compute for r in rows) / len(rows)
        assert mean_ratio > 1.5

    def test_compute_heavy_apps_have_larger_gpu_share(self):
        system = GpuSsdSystem(default_config())
        lud = system.phase_breakdown(WORKLOADS["lud"])  # APKI 20
        pr = system.phase_breakdown(WORKLOADS["pagerank"])  # APKI 599
        assert lud.gpu_frac > pr.gpu_frac

    def test_memory_breakdown_fractions(self):
        system = GpuSsdSystem(default_config())
        for name in WORKLOADS:
            b = system.memory_breakdown(WORKLOADS[name])
            assert b.dma_time_frac + b.dram_time_frac == pytest.approx(1.0)
            assert 0.0 < b.dma_energy_frac < 1.0

    def test_dma_energy_fraction_near_paper(self):
        """Fig. 3b: DMA is ~19 % of memory-subsystem energy on average."""
        system = GpuSsdSystem(default_config())
        vals = [
            system.memory_breakdown(WORKLOADS[n]).dma_energy_frac for n in WORKLOADS
        ]
        mean = sum(vals) / len(vals)
        assert 0.08 <= mean <= 0.40
