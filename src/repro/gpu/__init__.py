"""GPU substrate: SMs with warp-level latency hiding and the SM<->memory
interconnect (Figure 2's baseline GPU)."""

from repro.gpu.gpu import GpuModel, RunResult
from repro.gpu.interconnect import Interconnect
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import Warp

__all__ = [
    "Interconnect",
    "StreamingMultiprocessor",
    "Warp",
    "GpuModel",
    "RunResult",
]
