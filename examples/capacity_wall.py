"""The capacity wall: why a DRAM-only GPU loses to heterogeneous memory.

Reproduces the motivation of Sections I-II end to end:

1. the Fig. 3 phase model — on a GPU+SSD system, data movement dominates
   execution time for large workloads;
2. the Origin-vs-heterogeneous comparison — when the footprint exceeds
   GPU DRAM, host page traffic on PCIe costs far more than serving the
   cold tail from XPoint ever does.

Run:  python examples/capacity_wall.py
(set REPRO_SMOKE=1 for a fast CI-sized run)
"""

import os

from repro import MemoryMode, RunConfig, Runner, default_config
from repro.hoststorage.gpudirect import GpuSsdSystem
from repro.workloads.registry import WORKLOADS

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
SIZING = RunConfig(num_warps=16, accesses_per_warp=12) if SMOKE else RunConfig(
    num_warps=192, accesses_per_warp=96
)


def fig3_motivation() -> None:
    print("== GPU+SSD system: where does time go? (Fig. 3a) ==")
    system = GpuSsdSystem(default_config())
    print(f"  {'workload':9s} {'data move':>10s} {'storage':>8s} {'GPU':>6s}")
    for name, spec in WORKLOADS.items():
        b = system.phase_breakdown(spec)
        print(
            f"  {name:9s} {b.data_move_frac:>9.0%} "
            f"{b.storage_frac:>8.0%} {b.gpu_frac:>6.0%}"
        )
    print()


def origin_vs_hetero() -> None:
    print("== Origin (DRAM-only + host paging) vs Ohm-GPU ==")
    runner = Runner(SIZING)
    print(f"  {'workload':9s} {'Origin':>10s} {'Ohm-BW':>10s} {'speedup':>8s} {'faults':>7s}")
    for name in ("backp", "GRAMS", "pagerank", "sssp"):
        origin = runner.run("Origin", name, MemoryMode.PLANAR)
        ohm = runner.run("Ohm-BW", name, MemoryMode.PLANAR)
        print(
            f"  {name:9s} {origin.exec_time_ps / 1e6:8.1f}us "
            f"{ohm.exec_time_ps / 1e6:8.1f}us "
            f"{origin.exec_time_ps / ohm.exec_time_ps:7.2f}x "
            f"{origin.counters.get('host.faults', 0):7.0f}"
        )
    print(
        "\nOhm-GPU keeps the whole footprint on-board (DRAM + XPoint over "
        "the optical\nchannel), so the host link never throttles the kernels."
    )


def main() -> None:
    fig3_motivation()
    origin_vs_hetero()


if __name__ == "__main__":
    main()
