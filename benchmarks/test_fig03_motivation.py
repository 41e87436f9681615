"""Fig. 3: motivation study on the GPU+SSD integrated system.

Paper: storage access 21 % and GPU<->SSD transfers 45 % of execution
time on average; DMA costs the memory subsystem 31 % of time and 19 %
of energy.
"""

from conftest import bench_once, report

from repro.harness.experiments import make_fig3_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table


def test_fig3_breakdowns(benchmark, runner):
    rows = bench_once(benchmark, run_spec, make_fig3_spec(), runner).payload
    report()
    report(
        format_table(
            ["workload", "data_move", "storage", "gpu", "dma_time", "dma_energy"],
            [
                (
                    r["workload"],
                    r["data_move_frac"],
                    r["storage_frac"],
                    r["gpu_frac"],
                    r["dma_time_frac"],
                    r["dma_energy_frac"],
                )
                for r in rows
            ],
            title="Fig. 3a/3b — GPU+SSD execution and memory breakdowns",
        )
    )
    n = len(rows)
    move = sum(r["data_move_frac"] for r in rows) / n
    storage = sum(r["storage_frac"] for r in rows) / n
    report(
        f"\nmean data-move {move:.2f} (paper 0.45), "
        f"mean storage {storage:.2f} (paper 0.21)"
    )
    assert 0.2 <= move <= 0.7
    assert 0.1 <= storage <= 0.4
