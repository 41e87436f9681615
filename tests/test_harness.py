"""Harness tests: runner memoization, report formatting, experiment
specs on a tiny matrix."""

import pytest

from repro import MemoryMode, RunConfig, Runner
from repro.harness.experiments import (
    make_fig3_spec,
    make_fig8_spec,
    make_fig15_spec,
    make_fig16_spec,
    make_fig17_spec,
    make_fig18_spec,
    make_fig19_spec,
    make_fig20b_spec,
    make_fig21_spec,
    make_headline_spec,
    make_table3_spec,
)
from repro.harness.registry import run_spec
from repro.harness.report import format_table
from repro.sim.records import RequestKind

TINY = RunConfig(num_warps=12, accesses_per_warp=16)
APPS = ("backp", "pagerank")


@pytest.fixture(scope="module")
def runner():
    return Runner(TINY)


class TestRunner:
    def test_scaled_run_config(self):
        cfg = RunConfig(accesses_per_warp=100).scaled(0.5)
        assert cfg.accesses_per_warp == 50

    def test_scaled_floor(self):
        assert RunConfig(accesses_per_warp=10).scaled(0.01).accesses_per_warp == 8

    def test_scaled_identity(self):
        # scaled(1.0) is the identity for any config at/above the floor.
        cfg = RunConfig(num_warps=32, accesses_per_warp=64, seed=3, waveguides=2)
        assert cfg.scaled(1.0) == cfg
        at_floor = RunConfig(accesses_per_warp=RunConfig.MIN_SCALED_ACCESSES)
        assert at_floor.scaled(1.0) == at_floor

    def test_scaled_floor_boundary(self):
        # Landing exactly on the floor is allowed; one below clamps up.
        assert RunConfig(accesses_per_warp=16).scaled(0.5).accesses_per_warp == 8
        assert RunConfig(accesses_per_warp=15).scaled(0.5).accesses_per_warp == 8
        assert RunConfig.MIN_SCALED_ACCESSES == 8

    def test_scaled_pulls_sub_floor_config_up(self):
        # The documented exception: a config already below the floor is
        # raised to it even at factor 1.0 (scaled() never emits < 8).
        assert RunConfig(accesses_per_warp=4).scaled(1.0).accesses_per_warp == 8

    def test_matrix_shape(self, runner):
        m = runner.matrix(("Oracle", "Ohm-base"), APPS, MemoryMode.PLANAR)
        assert set(m) == {(p, w) for p in ("Oracle", "Ohm-base") for w in APPS}

    def test_waveguide_config_isolated(self):
        r1 = Runner(RunConfig(num_warps=8, accesses_per_warp=8, waveguides=1))
        r2 = Runner(RunConfig(num_warps=8, accesses_per_warp=8, waveguides=8))
        a = r1.run("Ohm-base", "backp", MemoryMode.PLANAR)
        b = r2.run("Ohm-base", "backp", MemoryMode.PLANAR)
        assert a.exec_time_ps >= b.exec_time_ps


class TestReport:
    def test_basic_table(self):
        out = format_table(["a", "b"], [(1, 2.5), ("x", 0.001)])
        assert "a" in out and "x" in out
        assert "2.500" in out

    def test_scientific_for_tiny_values(self):
        out = format_table(["v"], [(7.2e-16,)])
        assert "7.20e-16" in out

    def test_title(self):
        out = format_table(["v"], [(1,)], title="T")
        assert out.startswith("T\n")

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [(1,)])


class TestRecords:
    def test_request_kinds(self):
        assert {k.value for k in RequestKind} == {"demand", "migration", "host_dma"}


class TestExperimentFunctions:
    """Each figure spec reduces to well-formed data on a tiny matrix."""

    def test_figure3_rows(self, runner):
        rows = run_spec(make_fig3_spec(APPS), runner).payload
        assert len(rows) == 2
        for r in rows:
            assert r["data_move_frac"] + r["storage_frac"] + r["gpu_frac"] == pytest.approx(1.0)

    def test_figure8_keys(self, runner):
        data = run_spec(make_fig8_spec(APPS), runner).payload
        assert set(data) == {"planar", "two_level"}
        assert ("backp", "migration_bw_frac") in data["planar"].values

    def test_figure16_normalized_to_base(self, runner):
        data = run_spec(make_fig16_spec(APPS), runner).payload
        for mode in data.values():
            for w in APPS:
                assert mode.values[(w, "Ohm-base")] == pytest.approx(1.0)

    def test_figure17_oracle_below_base(self, runner):
        data = run_spec(make_fig17_spec(APPS), runner).payload
        for mode in data.values():
            assert mode.mean_over_workloads("Oracle") <= 1.0

    def test_figure18_fractions_bounded(self, runner):
        data = run_spec(make_fig18_spec(APPS), runner).payload
        for mode in data.values():
            assert all(0.0 <= v <= 1.0 for v in mode.values.values())

    def test_figure19_breakdowns_positive(self, runner):
        data = run_spec(make_fig19_spec(APPS), runner).payload
        for mode_rows in data.values():
            for b in mode_rows.values():
                assert b.total_j > 0

    def test_figure20b_has_seven_links(self, runner):
        assert len(run_spec(make_fig20b_spec(), runner).payload) == 7

    def test_figure15_has_four_layouts(self, runner):
        labels = {r["layout"] for r in run_spec(make_fig15_spec(), runner).payload}
        assert labels == {"general", "ohm-base", "planar", "two-level"}

    def test_table3_rows(self, runner):
        rows = run_spec(make_table3_spec(), runner).payload
        assert len(rows) == 4  # 2 modes x {Ohm-base, Ohm-BW}

    def test_figure21_positive(self, runner):
        data = run_spec(make_fig21_spec(APPS), runner).payload
        for mode in data.values():
            assert all(v > 0 for v in mode.values.values())

    def test_headline_keys(self, runner):
        h = run_spec(make_headline_spec(APPS), runner).payload
        assert h["speedup_vs_origin"] > 0
        assert h["speedup_vs_ohm_base"] > 0


class TestBarChart:
    def test_basic_chart(self):
        from repro.harness.report import format_bar_chart

        out = format_bar_chart([("a", 2.0), ("b", 1.0)], width=4)
        assert "a 2.000 ####" in out
        assert "b 1.000 ##" in out

    def test_title_and_unit(self):
        from repro.harness.report import format_bar_chart

        out = format_bar_chart([("x", 1.0)], width=2, title="T", unit="x")
        assert out.startswith("T\n")
        assert "1.000x" in out

    def test_zero_peak(self):
        from repro.harness.report import format_bar_chart

        out = format_bar_chart([("x", 0.0)], width=10)
        assert "#" not in out

    def test_validation(self):
        import pytest

        from repro.harness.report import format_bar_chart

        with pytest.raises(ValueError):
            format_bar_chart([])
        with pytest.raises(ValueError):
            format_bar_chart([("a", -1.0)])
