"""Fig. 15 / Section V-C: MRR layout optimization.

Paper: the per-mode customized layouts need 58 % (planar) and 42 %
(two-level) fewer MRRs than the general dual-route design.
"""

import pytest

from conftest import bench_once, report

from repro.harness.experiments import make_fig15_spec
from repro.harness.registry import run_spec
from repro.harness.report import format_table


def test_fig15_mrr_layouts(benchmark, runner):
    rows = bench_once(benchmark, run_spec, make_fig15_spec(), runner).payload
    report()
    report(
        format_table(
            ["layout", "transmitters", "receivers", "total", "reduction_vs_general"],
            [
                (r["layout"], r["transmitters"], r["receivers"], r["total"], r["reduction_vs_general"])
                for r in rows
            ],
            title="Fig. 15 — MRRs per DRAM+XPoint pair per bit-lane",
        )
    )
    by_label = {r["layout"]: r for r in rows}
    assert by_label["planar"]["reduction_vs_general"] == pytest.approx(0.58, abs=0.02)
    assert by_label["two-level"]["reduction_vs_general"] == pytest.approx(0.42, abs=0.02)
