"""Fig. 19: energy breakdown of the GPU memory systems.

Paper: the optical channel cuts DMA power 57 % versus electrical;
dynamic DRAM/XPoint energy is platform-independent; Ohm-WOM trims static
DRAM energy 19 %/11 % via shorter execution; dual-route platforms pay
more laser power but total energy still drops ~1-2 %.
"""

from conftest import bench_once, report

from repro.harness.experiments import ENERGY_PLATFORMS, make_fig19_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS


def test_fig19_energy(benchmark, runner):
    data = bench_once(benchmark, run_spec, make_fig19_spec(), runner).payload
    for mode, rows in data.items():
        table = []
        for w in WORKLOADS:
            for p in ENERGY_PLATFORMS:
                b = rows[(w, p)]
                table.append(
                    (
                        w,
                        p,
                        b.xpoint_j * 1e6,
                        b.dram_dynamic_j * 1e6,
                        b.dram_static_j * 1e6,
                        b.optical_j * 1e6,
                        b.electrical_j * 1e6,
                    )
                )
        report()
        report(
            format_table(
                ["workload", "platform", "XPoint_uJ", "DRAMdyn_uJ", "DRAMsta_uJ", "Optical_uJ", "Elec_uJ"],
                table,
                title=f"Fig. 19 ({mode}) — energy breakdown",
            )
        )

        def mean_channel(p):
            vals = [rows[(w, p)] for w in WORKLOADS]
            return sum(v.optical_j + v.electrical_j for v in vals) / len(vals)

        hetero_chan = mean_channel("Hetero")
        base_chan = mean_channel("Ohm-base")
        reduction = 1 - base_chan / hetero_chan
        report(f"channel (DMA) energy reduction vs Hetero: {reduction:.2f} (paper 0.57)")
        assert base_chan < hetero_chan  # optical cheaper than electrical
        # Dynamic energies are platform-independent given equal requests.
        for w in WORKLOADS:
            dyn = {p: rows[(w, p)].dram_dynamic_j for p in ("Ohm-base", "Auto-rw")}
            assert abs(dyn["Ohm-base"] - dyn["Auto-rw"]) / max(dyn["Ohm-base"], 1e-18) < 0.25
