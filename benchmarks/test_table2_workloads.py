"""Table II: workload characteristics, verified against the generated
traces (measured APKI and read ratio vs the table's values)."""


from conftest import bench_once, report

from repro.config import MB
from repro.harness.report import format_table
from repro.workloads.registry import WORKLOADS, build_traces


def _measure():
    rows = []
    for name, spec in WORKLOADS.items():
        traces = build_traces(name, 8 * MB, num_warps=16, accesses_per_warp=128)
        insts = sum(t.total_instructions for t in traces)
        accesses = sum(len(t) for t in traces)
        writes = sum(int(t.writes.sum()) for t in traces)
        rows.append(
            (
                name,
                spec.apki,
                1000.0 * accesses / insts,
                spec.read_ratio,
                1.0 - writes / accesses,
            )
        )
    return rows


def test_table2_workload_characteristics(benchmark):
    rows = bench_once(benchmark, _measure)
    report()
    report(
        format_table(
            ["workload", "APKI(paper)", "APKI(measured)", "read(paper)", "read(measured)"],
            rows,
            title="Table II — workload characteristics",
        )
    )
    for name, apki, apki_m, rd, rd_m in rows:
        assert abs(apki_m - apki) / apki < 0.35, name
        assert abs(rd_m - rd) < 0.25, name
