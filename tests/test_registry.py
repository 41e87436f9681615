"""Executor and experiment-registry tests on a tiny matrix."""

import json

import pytest

from repro import MemoryMode, RunConfig, Runner, SimulationJob
from repro.harness.executor import (
    ParallelExecutor,
    SerialExecutor,
    execute_job,
    make_executor,
)
from repro.harness.registry import (
    EXPERIMENTS,
    experiment_names,
    get_experiment,
    run_experiment,
    run_spec,
)
from repro.harness import experiments as E
from repro.harness.report import emit_csv, emit_json

TINY = RunConfig(num_warps=8, accesses_per_warp=8)
APPS = ("backp", "pagerank")

JOBS = [
    SimulationJob("Ohm-base", "backp", MemoryMode.PLANAR, TINY),
    SimulationJob("Oracle", "backp", MemoryMode.PLANAR, TINY),
    SimulationJob("Ohm-base", "pagerank", MemoryMode.TWO_LEVEL, TINY),
]


class TestExecutors:
    def test_serial_matches_execute_job(self):
        results = SerialExecutor().run_jobs(JOBS)
        assert results[0] == execute_job(JOBS[0])

    def test_serial_preserves_order_and_duplicates(self):
        results = SerialExecutor().run_jobs([JOBS[0], JOBS[1], JOBS[0]])
        assert results[0] == results[2]
        assert results[0].platform == "Ohm-base"
        assert results[1].platform == "Oracle"

    def test_parallel_identical_to_serial(self):
        serial = SerialExecutor().run_jobs(JOBS)
        parallel = ParallelExecutor(2).run_jobs(JOBS)
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_parallel_single_job_falls_back(self):
        assert ParallelExecutor(4).run_jobs([JOBS[0]])[0] == execute_job(JOBS[0])

    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        assert make_executor(3).max_workers == 3

    def test_parallel_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ParallelExecutor(0)

    def test_job_is_hashable_key(self):
        assert len({JOBS[0], JOBS[0], JOBS[1]}) == 2


class TestRunnerBatching:
    def test_run_jobs_memoizes_across_batches(self):
        calls = []

        class Spy(SerialExecutor):
            def run_jobs(self, jobs):
                calls.append(len(jobs))
                return super().run_jobs(jobs)

        runner = Runner(TINY, executor=Spy())
        runner.run_jobs(JOBS)
        runner.run_jobs(JOBS)  # fully memoized: executor not re-entered
        assert calls == [3]

    def test_matrix_is_one_batch(self):
        calls = []

        class Spy(SerialExecutor):
            def run_jobs(self, jobs):
                calls.append(len(jobs))
                return super().run_jobs(jobs)

        runner = Runner(TINY, executor=Spy())
        m = runner.matrix(("Ohm-base", "Oracle"), APPS, MemoryMode.PLANAR)
        assert calls == [4]
        assert set(m) == {(p, w) for p in ("Ohm-base", "Oracle") for w in APPS}


class TestRegistry:
    def test_all_figures_registered(self):
        assert {
            "fig3", "fig8", "fig15", "fig16", "fig17", "fig18", "fig19",
            "fig20a", "fig20b", "fig21", "table3", "headline",
        } <= set(experiment_names())

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_specs_declare_schema(self):
        for spec in EXPERIMENTS.values():
            assert spec.columns, spec.name

    def test_run_experiment_analytic(self):
        result = run_experiment("fig15")
        assert {r["layout"] for r in result.payload} == {
            "general", "ohm-base", "planar", "two-level"
        }
        assert set(result.rows[0]) == set(result.spec.columns)

    def test_spec_rows_match_columns(self):
        runner = Runner(TINY)
        result = run_spec(E.make_fig16_spec(APPS), runner)
        for row in result.rows:
            assert set(row) == set(result.spec.columns)

    def test_fig20a_spec_uses_waveguide_jobs(self):
        spec = E.make_fig20a_spec(("backp",), (1, 4))
        jobs = spec.jobs(TINY)
        waveguides = {j.run_cfg.waveguides for j in jobs}
        assert waveguides == {1, 4}
        # Sizing fields other than waveguides survive the sweep
        # (regression: fig20a used to hand-copy RunConfig fields).
        assert all(j.run_cfg.accesses_per_warp == TINY.accesses_per_warp for j in jobs)

    def test_fig20a_rows(self):
        rows = run_spec(E.make_fig20a_spec(("backp",), (1, 2)), Runner(TINY)).payload
        assert len(rows) == 4  # 2 counts x {Ohm-base, Ohm-BW}
        assert {r["platform"] for r in rows} == {"Ohm-base", "Ohm-BW"}


class TestEmitters:
    ROWS = [
        {"mode": "planar", "workload": "backp", "platform": "Oracle", "value": 1.25},
        {"mode": "planar", "workload": "backp", "platform": "Ohm-BW", "value": 1.1},
    ]

    def test_emit_json_round_trips(self):
        data = json.loads(emit_json(self.ROWS))
        assert data == self.ROWS

    def test_emit_json_column_selection(self):
        data = json.loads(emit_json(self.ROWS, columns=("platform", "value")))
        assert data[0] == {"platform": "Oracle", "value": 1.25}

    def test_emit_csv_header_and_rows(self):
        text = emit_csv(self.ROWS)
        lines = text.strip().split("\n")
        assert lines[0].split(",") == ["mode", "workload", "platform", "value"]
        assert len(lines) == 3
        assert "Oracle" in lines[1]

    def test_emit_csv_empty(self):
        assert emit_csv([]) == ""

    def test_emit_csv_fixed_columns(self):
        text = emit_csv(self.ROWS, columns=("value", "platform"))
        assert text.splitlines()[0] == "value,platform"
