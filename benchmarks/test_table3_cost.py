"""Table III: cost estimation of the Ohm memory configurations.

Paper: planar Ohm-BW adds 7.6 % and two-level 13.5 % to the $5k K80;
Ohm-BW uses ~41 % more MRRs than Ohm-base at a ~$4 premium.
"""

import pytest

from conftest import bench_once, report

from repro.harness.experiments import make_table3_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table


def test_table3_cost(benchmark, runner):
    rows = bench_once(benchmark, run_spec, make_table3_spec(), runner).payload
    report()
    report(
        format_table(
            ["mode", "platform", "DRAM_GB", "DRAM_$", "XP_GB", "XP_$",
             "modulators", "detectors", "MRR_$", "total_$", "increase"],
            [
                (r["mode"], r["platform"], r["dram_gb"], r["dram_price"],
                 r["xpoint_gb"], r["xpoint_price"], r["modulators"],
                 r["detectors"], r["mrr_price"], r["total_cost"], r["cost_increase"])
                for r in rows
            ],
            title="Table III — cost estimation",
        )
    )
    by_key = {(r["mode"], r["platform"]): r for r in rows}
    assert by_key[("planar", "Ohm-BW")]["cost_increase"] == pytest.approx(0.076, abs=0.01)
    assert by_key[("two_level", "Ohm-BW")]["cost_increase"] == pytest.approx(0.135, abs=0.01)
