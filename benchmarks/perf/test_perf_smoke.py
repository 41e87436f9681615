"""Perf-smoke benchmark: events/sec of the simulation core.

The quick companion to ``repro perf``: runs the CI-sized smoke cases,
prints the events/sec table, writes ``BENCH_perf.json`` (CI uploads it
as an artifact) and sanity-checks the measurements.  Determinism of the
event *count* is asserted — the clock is the only thing allowed to
vary between machines.

Run the figure-sized suite locally with::

    PYTHONPATH=src python -m repro.cli perf -o BENCH_perf.json
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.harness.perf import SMOKE_CASES, measure_case, run_suite, write_bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_perf_smoke_suite_writes_bench_json(tmp_path):
    measurements = run_suite(SMOKE_CASES, repeats=2)
    out = os.environ.get("REPRO_BENCH_PERF_OUT", str(tmp_path / "BENCH_perf.json"))
    payload = write_bench(out, measurements)

    assert len(measurements) == len(SMOKE_CASES)
    for m in measurements:
        assert m.events > 0
        assert m.wall_s > 0
        assert m.events_per_sec > 0
        # Each warp contributes one issue event and one completion event
        # per access: the deterministic simulation implies a fixed count.
        case = next(c for c in SMOKE_CASES if c.name == m.case)
        expected_min = case.run_cfg.num_warps * case.run_cfg.accesses_per_warp
        assert m.events >= expected_min

    on_disk = json.loads(pathlib.Path(out).read_text())
    assert on_disk == json.loads(json.dumps(payload))  # round-trips
    assert on_disk["unit"] == "events_per_sec"
    # Cases that predate the PR-2 overhaul carry a recorded baseline;
    # newer workload-family cases legitimately have none.
    assert set(on_disk["baseline"]["events_per_sec"]) >= {
        m.case for m in measurements if m.baseline_events_per_sec is not None
    }
    assert {"headline_smoke", "two_level_smoke", "origin_smoke"} <= {
        m.case for m in measurements if m.baseline_events_per_sec is not None
    }

    print("\nperf smoke (best of 2):")
    for m in measurements:
        speedup = m.speedup_vs_baseline
        print(
            f"  {m.case:16s} {m.events:6d} events  "
            f"{m.wall_s * 1e3:7.1f} ms  {m.events_per_sec:10,.0f} ev/s  "
            + (f"{speedup:.2f}x vs baseline" if speedup else "")
        )


def test_event_count_is_deterministic():
    case = SMOKE_CASES[0]
    a = measure_case(case, repeats=1)
    b = measure_case(case, repeats=1)
    assert a.events == b.events
    assert a.instructions == b.instructions


def _stub_measurement(name, eps, repeats=1):
    from repro.harness.perf import PerfMeasurement

    return PerfMeasurement(
        case=name, platform="Ohm-BW", workload="pagerank", mode="planar",
        events=100, instructions=50, wall_s=100.0 / eps,
        events_per_sec=eps, repeats=repeats,
    )


class TestBenchHistory:
    def test_write_bench_appends_history(self, tmp_path):
        """Each write keeps the prior trajectory and appends one entry
        (timestamp passed in, git rev, per-case events/sec)."""
        from repro.harness.perf import load_bench, write_bench

        out = str(tmp_path / "bench.json")
        write_bench(
            out, [_stub_measurement("headline", 100.0)],
            timestamp="2026-08-08T00:00:00+00:00", git_rev="abc1234",
        )
        write_bench(
            out, [_stub_measurement("headline", 120.0)],
            timestamp="2026-08-09T00:00:00+00:00", git_rev="def5678",
        )
        payload = load_bench(out)
        assert [h["git_rev"] for h in payload["history"]] == ["abc1234", "def5678"]
        assert [h["timestamp"] for h in payload["history"]] == [
            "2026-08-08T00:00:00+00:00", "2026-08-09T00:00:00+00:00",
        ]
        assert [h["events_per_sec"]["headline"] for h in payload["history"]] == [
            100.0, 120.0,
        ]
        # ``current`` still reflects the latest measurement set.
        assert payload["current"][0]["events_per_sec"] == 120.0

    def test_write_bench_tolerates_corrupt_prior(self, tmp_path):
        from repro.harness.perf import load_bench, write_bench

        out = tmp_path / "bench.json"
        out.write_text("{not json")
        write_bench(str(out), [_stub_measurement("headline", 100.0)])
        payload = load_bench(str(out))
        assert len(payload["history"]) == 1


class TestCompareBench:
    def test_regression_detected_over_threshold(self):
        from repro.harness.perf import bench_payload, compare_bench

        old = bench_payload([_stub_measurement("headline", 100.0)])
        new = bench_payload([_stub_measurement("headline", 89.0)])
        comparisons, regressions = compare_bench(old, new)
        assert len(comparisons) == 1
        assert [c.case for c in regressions] == ["headline"]

    def test_loss_within_threshold_passes(self):
        from repro.harness.perf import bench_payload, compare_bench

        old = bench_payload([_stub_measurement("headline", 100.0)])
        new = bench_payload([_stub_measurement("headline", 91.0)])
        _, regressions = compare_bench(old, new)
        assert regressions == []

    def test_disjoint_cases_are_not_regressions(self):
        from repro.harness.perf import bench_payload, compare_bench

        old = bench_payload([_stub_measurement("headline", 100.0)])
        new = bench_payload([_stub_measurement("renamed", 1.0)])
        comparisons, regressions = compare_bench(old, new)
        assert comparisons == [] and regressions == []

    def test_cli_compare_gate(self, tmp_path, monkeypatch, capsys):
        """`repro perf --compare old.json` exits 1 on a >10% loss and
        0 otherwise (measurement stubbed for speed)."""
        from repro.cli import main
        from repro.harness import perf
        from repro.harness.perf import write_bench

        old = str(tmp_path / "old.json")
        write_bench(old, [_stub_measurement("headline_smoke", 1000.0)])

        eps = {"value": 850.0}

        def fake_measure(case, repeats=3):
            return _stub_measurement(case.name, eps["value"], repeats)

        monkeypatch.setattr(perf, "measure_case", fake_measure)
        out = str(tmp_path / "new.json")
        argv = ["perf", "--smoke", "-o", out, "--compare", old]
        assert main(argv) == 1
        assert "REGRESSION" in capsys.readouterr().out

        eps["value"] = 990.0
        assert main(argv) == 0
