"""Graph analytics on heterogeneous GPU memory.

The motivating workloads of the paper are large-graph kernels whose
footprints exceed GPU DRAM.  This example compares both heterogeneous
memory modes (planar vs two-level) across all six GraphBIG workloads on
the full Ohm-GPU design, and shows where each mode wins.

Run:  python examples/graph_analytics.py
(set REPRO_SMOKE=1 for a fast CI-sized run)
"""

import os

from repro import MemoryMode, RunConfig, Runner
from repro.workloads.registry import WORKLOADS

GRAPH_APPS = [name for name, spec in WORKLOADS.items() if spec.is_graph]

SMOKE = os.environ.get("REPRO_SMOKE") == "1"
SIZING = RunConfig(num_warps=16, accesses_per_warp=12) if SMOKE else RunConfig(
    num_warps=96, accesses_per_warp=64
)


def main() -> None:
    runner = Runner(SIZING)

    print("Ohm-BW on GraphBIG workloads — planar vs two-level memory mode\n")
    print(f"{'workload':9s} {'APKI':>5s} {'planar_lat':>11s} {'2lvl_lat':>9s} "
          f"{'planar_migbw':>13s} {'2lvl_migbw':>11s} {'faster_mode':>12s}")
    for name in GRAPH_APPS:
        spec = WORKLOADS[name]
        planar = runner.run("Ohm-BW", name, MemoryMode.PLANAR)
        two = runner.run("Ohm-BW", name, MemoryMode.TWO_LEVEL)
        faster = "planar" if planar.exec_time_ps < two.exec_time_ps else "two-level"
        print(
            f"{name:9s} {spec.apki:5.0f} "
            f"{planar.mean_mem_latency_ps / 1000:9.1f}ns "
            f"{two.mean_mem_latency_ps / 1000:7.1f}ns "
            f"{planar.migration_bandwidth_fraction:13.1%} "
            f"{two.migration_bandwidth_fraction:11.1%} "
            f"{faster:>12s}"
        )

    print(
        "\nPlanar mode maximizes capacity (1:8 DRAM:XPoint) and swaps hot "
        "pages;\ntwo-level mode (1:64) runs DRAM as a direct-mapped cache "
        "with tag-in-ECC metadata."
    )


if __name__ == "__main__":
    main()
