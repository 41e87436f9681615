"""Fig. 20b: bit error rate of the optical channel per platform/function.

Paper values: Ohm-base rd/wr 7.2e-16; Ohm-WOM auto 6.1e-16, swap
9.9e-16; Ohm-BW worst 9.3e-16 — all under the 1e-15 requirement.
"""

import pytest

from conftest import bench_once, report

from repro.harness.experiments import make_fig20b_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.optical.ber import RELIABILITY_REQUIREMENT

PAPER = {
    "Ohm-base rd/wr": 7.2e-16,
    "Ohm-WOM auto": 6.1e-16,
    "Ohm-WOM swap": 9.9e-16,
    "Ohm-BW swap": 9.3e-16,
}


def test_fig20b_ber(benchmark, runner):
    budgets = bench_once(benchmark, run_spec, make_fig20b_spec(), runner).payload
    report()
    report(
        format_table(
            ["link", "laser_scale", "received_mW", "BER", "meets_1e-15"],
            [
                (b.label, b.laser_scale, b.received_power_mw, b.ber, str(b.reliable))
                for b in budgets
            ],
            title="Fig. 20b — optical link BER",
        )
    )
    measured = {b.label: b.ber for b in budgets}
    for label, paper_ber in PAPER.items():
        assert measured[label] == pytest.approx(paper_ber, rel=0.05), label
    assert all(b.ber <= RELIABILITY_REQUIREMENT for b in budgets)
