"""Cross-layer invariant audit tests (sim/audit.py + harness/audit.py).

Three angles:

* **clean runs** — every platform/mode/workload shape passes the audit
  and the audited result is bit-identical to the un-audited one;
* **detection** — injected accounting drift of each class (channel,
  DRAM, XPoint, GPU conservation, tenant attribution, stray energy
  counters) is caught by the matching invariant, proving the audit is
  not vacuously green;
* **harness** — the sweep's matrix builder, outcome rows and CLI gate
  behave;
* **catalogue** — DESIGN.md §10.1 lists exactly the invariants the
  auditor records (the ``tools/check_docs.py`` gate).
"""

import json
import pathlib
import sys

import pytest

from repro.config import MemoryMode
from repro.core.platforms import PLATFORMS
from repro.gpu.gpu import GpuModel
from repro.harness.audit import (
    AUDIT_SCHEMA,
    AuditOutcome,
    audit_jobs,
    audit_report,
    execute_job_audited,
    run_audit,
)
from repro.harness.executor import (
    RunConfig,
    SerialExecutor,
    SimulationJob,
    execute_job,
    traces_for,
)
from repro.sim.audit import (
    Auditor,
    InvariantError,
    InvariantViolation,
    ValidatingEngine,
)
from repro.workloads.registry import get_workload_def

SMALL = RunConfig(num_warps=16, accesses_per_warp=16)

REPO = pathlib.Path(__file__).resolve().parent.parent
if str(REPO) not in sys.path:
    sys.path.insert(0, str(REPO))

from tools.check_docs import check_invariant_catalogue  # noqa: E402


def audited_model(platform, workload, mode, run_cfg=SMALL, strict=False):
    """(model, auditor) for one job, built but not yet run."""
    job = SimulationJob(platform, workload, mode, run_cfg)
    cfg = job.resolved_config()
    defn = get_workload_def(workload)
    auditor = Auditor(strict=strict)
    model = GpuModel(
        PLATFORMS[platform], cfg, defn.spec, traces_for(job, cfg), auditor=auditor
    )
    return model, auditor


class TestViolationRecords:
    def test_round_trip(self):
        v = InvariantViolation("dram.access_split", "mc0.dram", "boom", 4.0, 5.0)
        assert InvariantViolation.from_dict(v.to_dict()) == v

    def test_str_includes_both_sides(self):
        v = InvariantViolation("x.y", "c", "m", expected=1, actual=2)
        s = str(v)
        assert "x.y" in s and "expected 1" in s and "got 2" in s

    def test_error_lists_violations(self):
        violations = [
            InvariantViolation(f"inv{i}", "c", "m") for i in range(8)
        ]
        err = InvariantError(violations)
        assert "8 invariant violation(s)" in str(err)
        assert "inv0" in str(err) and "... and 3 more" in str(err)
        assert err.violations == violations

    def test_error_survives_pickling(self):
        # Parallel executors ship worker exceptions through pickle; the
        # structured records must survive the round trip intact.
        import pickle

        violations = [InvariantViolation("a.b", "c", "m", 1.0, 2.0)]
        err = pickle.loads(pickle.dumps(InvariantError(violations)))
        assert err.violations == violations
        assert "1 invariant violation(s)" in str(err)

    def test_check_counts_and_records(self):
        a = Auditor()
        assert a.check("i", "c", True, "fine")
        assert not a.check("i", "c", False, "bad", expected=1, actual=2)
        assert a.checks_run == 2
        assert len(a.violations) == 1
        with pytest.raises(InvariantError):
            a.raise_if_violations()


def validating_lane(auditor, num_warps=4, drain=None):
    """(engine, seen): a validating engine whose lane logs its steps."""
    eng = ValidatingEngine(auditor)
    seen = []
    eng.attach_warp_lane(
        num_warps, lambda warp, phase: seen.append((eng.now, warp)), drain
    )
    return eng, seen


class TestValidatingEngine:
    def test_runs_events_in_order(self):
        a = Auditor()
        eng, seen = validating_lane(a)
        eng.lane_schedule(0, 5, 0)
        eng.lane_schedule(1, 1, 0)
        eng.run()
        assert seen == [(1, 1), (5, 0)]
        assert not a.violations

    def test_detects_non_monotonic_heap(self):
        # lane_schedule refuses past scheduling, so move the clock past
        # a queued event directly — the validating engine must notice
        # the broken heap discipline.
        a = Auditor()
        eng, _ = validating_lane(a)
        eng.lane_schedule(0, 10, 0)
        eng.now = 50
        eng.run()
        assert [v.invariant for v in a.violations] == ["engine.monotonic_time"]

    def test_respects_max_events(self):
        a = Auditor()
        eng, seen = validating_lane(a)
        for w, t in enumerate((1, 2, 3)):
            eng.lane_schedule(w, t, 0)
        eng.run(max_events=2)
        assert seen == [(1, 0), (2, 1)]
        assert eng.pending() == 1
        assert eng.events_processed == 2
        eng.run(max_events=1)
        assert eng.pending() == 0
        assert eng.events_processed == 3

    def test_warp_lane_drains_through_guarded_loop(self):
        # A validating engine never enters the fused lane drain: lane
        # events pop one at a time through the per-event loop, in the
        # exact (time, seq) order, with monotonicity checked.
        a = Auditor()
        drained = []
        eng, seen = validating_lane(a, drain=lambda: drained.append(True))
        eng.lane_schedule(0, 3, 0)
        eng.lane_schedule(2, 5, 0)
        eng.lane_schedule(1, 5, 0)  # ties with warp 2: schedule order wins
        eng.lane_schedule(3, 9, 0)
        eng.run()
        assert drained == []
        assert seen == [(3, 0), (5, 2), (5, 1), (9, 3)]
        assert eng.events_processed == 4
        assert not a.violations


CLEAN_CASES = [
    ("Origin", "pagerank", MemoryMode.PLANAR),
    ("Hetero", "backp", MemoryMode.PLANAR),
    ("Ohm-base", "backp", MemoryMode.TWO_LEVEL),
    ("Auto-rw", "gemm_reuse", MemoryMode.PLANAR),
    ("Ohm-WOM", "pagerank", MemoryMode.PLANAR),
    ("Ohm-BW", "mix_gemm_chase", MemoryMode.PLANAR),
    ("Ohm-BW", "backp", MemoryMode.TWO_LEVEL),
    ("Oracle", "stream_scan", MemoryMode.PLANAR),
]


class TestCleanRuns:
    @pytest.mark.parametrize("platform,workload,mode", CLEAN_CASES)
    def test_audit_is_clean(self, platform, workload, mode):
        outcome = execute_job_audited(
            SimulationJob(platform, workload, mode, SMALL)
        )
        assert outcome.violations == ()
        assert outcome.checks > 20

    def test_audited_result_is_bit_identical(self):
        job = SimulationJob("Ohm-BW", "pagerank", MemoryMode.PLANAR, SMALL)
        plain = execute_job(job)
        audited = execute_job_audited(job)
        assert audited.fingerprint == plain.fingerprint()

    def test_validate_flag_is_bit_identical_and_clean(self):
        base = SimulationJob("Ohm-WOM", "backp", MemoryMode.TWO_LEVEL, SMALL)
        validated = SimulationJob(
            "Ohm-WOM", "backp", MemoryMode.TWO_LEVEL,
            RunConfig(num_warps=16, accesses_per_warp=16, validate=True),
        )
        assert execute_job(validated).fingerprint() == execute_job(base).fingerprint()

class TestDetection:
    """Injected drift of every class must trip the matching invariant."""

    def _violations(self, model, auditor):
        model.run()
        return {v.invariant for v in auditor.violations}

    def test_channel_bits_drift(self):
        model, auditor = audited_model("Hetero", "backp", MemoryMode.PLANAR)
        chan = model.memory.slices[0].chan
        model.stats.add(f"{chan.name}.bits.demand", 64)  # phantom bits
        assert "channel.bits_conserved" in self._violations(model, auditor)

    def test_channel_window_drift(self):
        model, auditor = audited_model("Ohm-base", "backp", MemoryMode.PLANAR)
        chan = model.memory.slices[0].chan
        model.stats.add(f"{chan.name}.transfers", 1)  # phantom transfer
        assert "channel.windows_conserved" in self._violations(model, auditor)

    def test_channel_route_budget_drift(self):
        model, auditor = audited_model("Ohm-BW", "backp", MemoryMode.PLANAR)
        chan = model.memory.slices[0].chan
        model.stats.add(f"{chan.name}.busy_ps.route.data", 1000)
        assert "channel.busy_routes" in self._violations(model, auditor)

    def test_dram_bank_drift(self):
        model, auditor = audited_model("Origin", "backp", MemoryMode.PLANAR)
        model.memory.slices[0].dram.banks[0].accesses += 1
        got = self._violations(model, auditor)
        assert "dram.bank_accesses" in got

    def test_dram_counter_drift(self):
        model, auditor = audited_model("Oracle", "backp", MemoryMode.PLANAR)
        dram = model.memory.slices[0].dram
        model.stats.add(f"{dram.name}.reads", 3)  # reads no one issued
        assert "dram.access_split" in self._violations(model, auditor)

    def test_xpoint_write_drift(self):
        model, auditor = audited_model("Ohm-base", "backp", MemoryMode.PLANAR)
        xp = model.memory.slices[0].xp
        model.stats.add(f"{xp.name}.ecc_encodes", 2)  # unaccounted writes
        assert "xpoint.write_conservation" in self._violations(model, auditor)

    def test_gpu_request_drift(self):
        model, auditor = audited_model("Hetero", "backp", MemoryMode.PLANAR)
        model.stats.add("mem.demand_requests", 1)  # a request out of thin air
        got = self._violations(model, auditor)
        assert "gpu.requests_conserved" in got
        assert "gpu.latency_samples" in got

    def test_instruction_drift(self):
        model, auditor = audited_model("Oracle", "backp", MemoryMode.PLANAR)
        model.stats.add("gpu.instructions", 7)
        assert "gpu.instructions_conserved" in self._violations(model, auditor)

    def test_tenant_attribution_drift(self):
        model, auditor = audited_model(
            "Ohm-BW", "mix_gemm_chase", MemoryMode.PLANAR
        )
        model.stats.add("tenant.gemm.instructions", 100)  # phantom work
        assert "tenant.instructions" in self._violations(model, auditor)

    def test_stray_energy_counter(self):
        # A counter that *looks* optical on an electrical platform: the
        # breakdown's name patterns absorb it, the model-derived
        # re-derivation does not — reconciliation must fail.
        model, auditor = audited_model("Hetero", "backp", MemoryMode.PLANAR)
        model.stats.add("ochan9.energy_pj", 5e6)
        assert "energy.total_reconciles" in self._violations(model, auditor)

    def test_malformed_trace_detected_at_construction(self):
        import numpy as np

        from repro.workloads.synthetic import WarpTrace

        job = SimulationJob("Oracle", "backp", MemoryMode.PLANAR, SMALL)
        cfg = job.resolved_config()
        defn = get_workload_def("backp")
        bad = WarpTrace(
            gaps=np.array([3, -2], dtype=np.int64),
            addrs=np.array([0, -128], dtype=np.int64),
            writes=np.array([False, True]),
        )
        auditor = Auditor()
        GpuModel(
            PLATFORMS["Oracle"], cfg, defn.spec,
            [bad] + traces_for(job, cfg), auditor=auditor,
        )
        got = {v.invariant for v in auditor.violations}
        assert got == {"workload.trace_wellformed"}
        assert len(auditor.violations) == 2  # negative gap AND address

    def test_malformed_trace_raises_at_construction_when_strict(self):
        # Without this, a bad trace dies mid-run on the symptom (a
        # negative-length issue burst) instead of the diagnosis.
        import numpy as np

        from repro.workloads.synthetic import WarpTrace

        job = SimulationJob("Oracle", "backp", MemoryMode.PLANAR, SMALL)
        cfg = job.resolved_config()
        defn = get_workload_def("backp")
        bad = WarpTrace(
            gaps=np.array([-1], dtype=np.int64),
            addrs=np.array([0], dtype=np.int64),
            writes=np.array([False]),
        )
        with pytest.raises(InvariantError) as exc:
            GpuModel(
                PLATFORMS["Oracle"], cfg, defn.spec, [bad],
                auditor=Auditor(strict=True),
            )
        assert any(
            v.invariant == "workload.trace_wellformed"
            for v in exc.value.violations
        )

    def test_crashed_job_becomes_audit_outcome(self, monkeypatch):
        # One exploding job must not kill a whole sweep.
        import repro.harness.audit as audit_mod

        class Boom:
            def __init__(self, *a, **k):
                raise RuntimeError("kaboom")

        monkeypatch.setattr(audit_mod, "GpuModel", Boom)
        outcome = execute_job_audited(
            SimulationJob("Oracle", "backp", MemoryMode.PLANAR, SMALL)
        )
        assert not outcome.ok
        assert outcome.fingerprint == ""
        assert any(
            v["invariant"] == "run.crashed" and "kaboom" in v["message"]
            for v in outcome.violations
        )

    def test_well_formed_trace_reports_nothing(self):
        job = SimulationJob("Oracle", "backp", MemoryMode.PLANAR, SMALL)
        for trace in traces_for(job, job.resolved_config()):
            assert trace.well_formed() == []

    def test_strict_mode_raises(self):
        model, auditor = audited_model(
            "Hetero", "backp", MemoryMode.PLANAR, strict=True
        )
        model.stats.add("mem.demand_requests", 1)
        with pytest.raises(InvariantError) as exc:
            model.run()
        assert any(
            v.invariant == "gpu.requests_conserved" for v in exc.value.violations
        )

    def test_validate_run_config_raises_on_drift(self, monkeypatch):
        # End-to-end: RunConfig(validate=True) arms a strict auditor
        # inside execute_job.
        from repro.gpu import sm as sm_mod

        original = sm_mod.StreamingMultiprocessor.issue_burst

        def leaky(self, instructions):
            self._cdict["gpu.instructions"] += 0.5  # drifting counter
            return original(self, instructions)

        monkeypatch.setattr(
            sm_mod.StreamingMultiprocessor, "issue_burst", leaky
        )
        job = SimulationJob(
            "Oracle", "backp", MemoryMode.PLANAR,
            RunConfig(num_warps=8, accesses_per_warp=8, validate=True),
        )
        with pytest.raises(InvariantError):
            execute_job(job)


class TestBankAccountingFix:
    """The latent bug the audit flushed out: swap presets were invisible
    to the device counter that feeds the energy model, and bulk swap
    occupancies let per-bank activations exceed per-bank accesses."""

    def _swap_model(self):
        job = SimulationJob(
            "Ohm-BW", "pagerank", MemoryMode.PLANAR,
            RunConfig(num_warps=24, accesses_per_warp=24),
        )
        cfg = job.resolved_config()
        defn = get_workload_def("pagerank")
        model = GpuModel(
            PLATFORMS["Ohm-BW"], cfg, defn.spec, traces_for(job, cfg)
        )
        result = model.run()
        return model, result

    def test_swap_presets_are_tracked(self):
        model, result = self._swap_model()
        assert result.counters.get("mem.swaps", 0) > 0, "sizing must swap"
        presets = sum(
            s.dram.total_preset_activations for s in model.memory.slices
        )
        occupancies = sum(
            b.occupancies for s in model.memory.slices for b in s.dram.banks
        )
        assert presets > 0 and occupancies > 0

    def test_device_counter_reconciles_exactly(self):
        model, result = self._swap_model()
        for s in model.memory.slices:
            dram = s.dram
            counted = result.counters.get(f"{dram.name}.activations", 0.0)
            assert counted == (
                dram.total_activations - dram.total_preset_activations
            )

    def test_per_bank_activations_bounded(self):
        model, _ = self._swap_model()
        for s in model.memory.slices:
            for bank in s.dram.banks:
                assert bank.activations <= bank.accesses + bank.occupancies

    def test_bank_unit_accounting(self):
        from repro.dram.bank import Bank
        from repro.dram.timing import DramTiming
        from repro.config import DramTimingConfig

        bank = Bank(DramTiming.from_config(DramTimingConfig()))
        bank.activate(row=3, now_ps=0)
        assert bank.activations == 1
        assert bank.preset_activations == 1
        assert bank.accesses == 0
        bank.occupy(now_ps=0, duration_ps=100)
        assert bank.occupancies == 1
        bank.access(row=3, now_ps=500)
        assert bank.accesses == 1
        assert bank.activations == 1  # row hit, no new activation
        assert bank.activations <= bank.accesses + bank.occupancies


class TestSweepHarness:
    def test_matrix_shape(self):
        jobs = audit_jobs(
            run_cfg=SMALL,
            platforms=("Origin", "Oracle"),
            workloads=("backp", "pagerank"),
        )
        assert len(jobs) == 2 * 2 * len(MemoryMode)
        assert len(set(jobs)) == len(jobs)

    def test_smoke_matrix_is_small_but_covers_platforms(self):
        jobs = audit_jobs(smoke=True)
        assert {j.platform for j in jobs} == set(PLATFORMS)
        assert len(jobs) <= 80

    def test_unknown_platform_rejected(self):
        with pytest.raises(KeyError):
            audit_jobs(platforms=("GTX",))

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            audit_jobs(workloads=("nope",))

    def test_outcome_row_flattens_violations(self):
        o = AuditOutcome(
            platform="Origin", workload="backp", mode="planar", checks=10,
            violations=(
                InvariantViolation("a.b", "c", "m", 1, 2).to_dict(),
            ),
            fingerprint="f" * 64,
        )
        assert not o.ok
        row = o.to_row()
        assert row["violations"] == 1 and row["ok"] is False
        assert "a.b" in row["detail"]

    def test_report_totals(self):
        jobs = audit_jobs(
            run_cfg=SMALL, platforms=("Oracle",), workloads=("backp",),
            modes=(MemoryMode.PLANAR,),
        )
        outcomes = run_audit(jobs)
        report = audit_report(outcomes)
        assert report["jobs"] == 1
        assert report["ok"] is True
        assert report["violations"] == 0
        assert report["schema"] == AUDIT_SCHEMA

    def test_executor_fn_plumbing(self):
        jobs = audit_jobs(
            run_cfg=SMALL, platforms=("Oracle",), workloads=("backp",),
            modes=(MemoryMode.PLANAR,),
        )
        calls = []

        def fake(job):
            calls.append(job)
            return "sentinel"

        out = SerialExecutor().run_jobs(jobs + jobs, fn=fake)
        assert out == ["sentinel"] * 2
        assert len(calls) == 1  # deduplicated


class TestRunConfigValidate:
    def test_to_dict_omits_false(self):
        assert "validate" not in RunConfig().to_dict()

    def test_to_dict_includes_true(self):
        assert RunConfig(validate=True).to_dict()["validate"] is True

    def test_round_trip(self):
        for rc in (RunConfig(), RunConfig(validate=True)):
            assert RunConfig.from_dict(rc.to_dict()) == rc

    def test_legacy_dict_defaults_false(self):
        legacy = {
            "num_warps": 5, "accesses_per_warp": 6, "seed": 7, "waveguides": 1,
        }
        assert RunConfig.from_dict(legacy).validate is False

    def test_cache_fingerprint_unchanged_for_default(self):
        # The validate field must not shift existing cache fingerprints.
        from repro.harness.cache import job_fingerprint

        job = SimulationJob("Oracle", "backp", MemoryMode.PLANAR, RunConfig())
        payload = json.dumps(job.to_dict(), sort_keys=True)
        assert "validate" not in payload
        assert job_fingerprint(job)  # and it still fingerprints


class TestAuditCli:
    def test_audit_smoke_subset(self, capsys):
        from repro.cli import main

        rc = main([
            "audit", "--smoke", "--platform", "Oracle", "Origin",
            "--workload", "backp", "--mode", "planar",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "CLEAN" in err

    def test_audit_json_report(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "audit.json"
        rc = main([
            "audit", "--smoke", "--platform", "Oracle",
            "--workload", "backp", "--mode", "planar",
            "--format", "json", "-o", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True and report["jobs"] == 1

    def test_audit_rejects_unknown_workload(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["audit", "--workload", "definitely_not_registered"])

    def test_run_validate_flag(self, capsys):
        from repro.cli import main

        rc = main([
            "run", "--platform", "Oracle", "--workload", "backp",
            "--quick", "--validate",
        ])
        assert rc == 0
        assert "exec time" in capsys.readouterr().out


class TestCatalogue:
    """The DESIGN.md §10.1 gate fails on a missing or a stale row."""

    DESIGN = (REPO / "DESIGN.md").read_text(encoding="utf-8")

    def test_catalogue_matches_the_auditor(self):
        assert check_invariant_catalogue(self.DESIGN) == []

    def test_missing_row_fails(self):
        row = next(
            line for line in self.DESIGN.splitlines()
            if line.startswith("| `xpoint.startgap_rotations`")
        )
        failures = check_invariant_catalogue(self.DESIGN.replace(row + "\n", ""))
        assert len(failures) == 1
        assert "'xpoint.startgap_rotations'" in failures[0]

    def test_stale_row_fails(self):
        design = self.DESIGN.replace(
            "| `engine.heap_drain` |", "| `engine.heap_drain` / `cache.access_split` |"
        )
        failures = check_invariant_catalogue(design)
        assert len(failures) == 1
        assert "'cache.access_split'" in failures[0]

    def test_loop_built_ids_are_expanded(self):
        design = self.DESIGN.replace(" / `tenant.accesses`", "")
        failures = check_invariant_catalogue(design)
        assert len(failures) == 1
        assert "'tenant.accesses'" in failures[0]
