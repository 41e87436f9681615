"""Host-side substrate: PCIe DMA link and the GPU+SSD phase model.

Backs the Origin platform's page faults and the Fig. 3 motivation
study of a GPU+SSD integrated system.
"""

from repro.hoststorage.pcie import HostLink
from repro.hoststorage.gpudirect import GpuSsdSystem, PhaseBreakdown

__all__ = ["HostLink", "GpuSsdSystem", "PhaseBreakdown"]
