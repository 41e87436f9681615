"""The audit sweep: invariant checks over the workload x platform matrix.

``repro audit`` drives this module.  It builds the full
workload-registry x platform (x memory-mode) job matrix, evaluates each
job through the existing executor layer with a collecting (non-strict)
:class:`~repro.sim.audit.Auditor` attached, and folds the per-job
outcomes into one report — a table for terminals plus json/csv through
the structured emitters in :mod:`repro.harness.report`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.config import MemoryMode
from repro.core.platforms import PLATFORMS
from repro.gpu.gpu import GpuModel
from repro.harness.executor import (
    SIZING_PRESETS,
    RunConfig,
    SerialExecutor,
    SimulationJob,
    traces_for,
)
from repro.sim.audit import Auditor
from repro.workloads.registry import REGISTRY, get_workload_def

AUDIT_SCHEMA = 1

#: Row schema shared by the table printer and the json/csv emitters.
AUDIT_COLUMNS = (
    "platform",
    "workload",
    "mode",
    "checks",
    "violations",
    "ok",
    "detail",
)

#: The CI gate: small but shaped like the full sweep — every platform,
#: every trace family (Table II synthetic + graph, the parametric
#: families, a multi-tenant composition), both memory modes.
SMOKE_WORKLOADS = ("pagerank", "backp", "gemm_reuse", "stream_scan", "mix_gemm_chase")
SMOKE_SIZING = RunConfig(num_warps=24, accesses_per_warp=24)

#: Default sizing of the full sweep (the ``quick`` preset); big enough
#: that every slice type faults/migrates/swaps, small enough that the
#: ~270-job matrix stays in whole-minutes territory on one core.
DEFAULT_SIZING = SIZING_PRESETS["quick"]


@dataclass(frozen=True)
class AuditOutcome:
    """One job's audit verdict (picklable: crosses worker processes)."""

    platform: str
    workload: str
    mode: str
    checks: int
    violations: Tuple[dict, ...]
    fingerprint: str

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "platform": self.platform,
            "workload": self.workload,
            "mode": self.mode,
            "checks": self.checks,
            "violations": list(self.violations),
            "fingerprint": self.fingerprint,
        }

    def to_row(self) -> dict:
        """Flat row for the table printer and the json/csv emitters."""
        detail = "; ".join(
            f"[{v['invariant']}] {v['component']}: {v['message']}"
            for v in self.violations[:3]
        )
        if len(self.violations) > 3:
            detail += f"; ... and {len(self.violations) - 3} more"
        return {
            "platform": self.platform,
            "workload": self.workload,
            "mode": self.mode,
            "checks": self.checks,
            "violations": len(self.violations),
            "ok": self.ok,
            "detail": detail,
        }


def execute_job_audited(job: SimulationJob) -> AuditOutcome:
    """Run one simulation under a collecting auditor.

    The non-strict twin of
    :func:`repro.harness.executor.execute_job` with
    ``run_cfg.validate``: instead of raising on the first run whose
    invariants fail, every violation is captured so a sweep can report
    the whole matrix.  Top-level and picklable by design — the parallel
    executor maps it across worker processes.
    """
    cfg = job.resolved_config()
    defn = get_workload_def(job.workload)
    traces = traces_for(job, cfg)
    auditor = Auditor(strict=False)
    fingerprint = ""
    try:
        model = GpuModel(
            PLATFORMS[job.platform], cfg, defn.spec, traces, auditor=auditor
        )
        fingerprint = model.run().fingerprint()
    except Exception as exc:  # noqa: BLE001 - one crashed job must not
        # kill a whole sweep: surface it as its own audit record (the
        # construction-time violations already collected stay attached).
        auditor.record(
            "run.crashed",
            f"{job.platform}/{job.workload}/{job.mode.value}",
            f"{type(exc).__name__}: {exc}",
        )
    return AuditOutcome(
        platform=job.platform,
        workload=job.workload,
        mode=job.mode.value,
        checks=auditor.checks_run,
        violations=tuple(v.to_dict() for v in auditor.violations),
        fingerprint=fingerprint,
    )


def audit_jobs(
    run_cfg: Optional[RunConfig] = None,
    platforms: Optional[Iterable[str]] = None,
    workloads: Optional[Iterable[str]] = None,
    modes: Optional[Iterable[MemoryMode]] = None,
    smoke: bool = False,
) -> List[SimulationJob]:
    """The audit matrix: workload-registry x platforms x memory modes.

    Defaults cover the *full* registry (every Table II workload, every
    parametric family variant, the composed scenarios) on every
    platform in both memory modes; ``smoke`` shrinks it to the CI gate.
    """
    if smoke:
        run_cfg = run_cfg or SMOKE_SIZING
        workloads = tuple(workloads) if workloads is not None else SMOKE_WORKLOADS
    else:
        run_cfg = run_cfg or DEFAULT_SIZING
        workloads = tuple(workloads) if workloads is not None else tuple(REGISTRY)
    platforms = tuple(platforms) if platforms is not None else tuple(PLATFORMS)
    modes = tuple(modes) if modes is not None else tuple(MemoryMode)
    for name in platforms:
        if name not in PLATFORMS:
            raise KeyError(f"unknown platform {name!r}; choose from {list(PLATFORMS)}")
    for name in workloads:
        get_workload_def(name)  # raises KeyError on unknown names
    return [
        SimulationJob(p, w, m, run_cfg)
        for w in workloads
        for p in platforms
        for m in modes
    ]


def run_audit(
    jobs: Sequence[SimulationJob], executor: Optional[object] = None
) -> List[AuditOutcome]:
    """Audit every job; outcomes in job order, duplicates audited once."""
    executor = executor or SerialExecutor()
    return executor.run_jobs(list(jobs), fn=execute_job_audited)


def audit_report(outcomes: Sequence[AuditOutcome]) -> dict:
    """The JSON report document ``repro audit`` emits."""
    total_violations = sum(len(o.violations) for o in outcomes)
    return {
        "schema": AUDIT_SCHEMA,
        "jobs": len(outcomes),
        "checks": sum(o.checks for o in outcomes),
        "violations": total_violations,
        "ok": total_violations == 0,
        "outcomes": [o.to_dict() for o in outcomes],
    }
