"""The open-loop scenario runner: arrivals, admission, SLOs, degradation.

Execution has two layers:

1. **Service measurement** — each tenant class's solo service time is
   one closed-loop :class:`SimulationJob` run through the harness
   :class:`Runner` (result cache, batch journaling, serial or parallel
   executor, streamed or materialized traces — all of PR 1/4/7's
   machinery, so measurements are cached, crash-resumable and
   bit-identical across execution strategies).
2. **Open-loop queueing** — tenants arrive by the spec's seeded process,
   queue FIFO for SM capacity slots (admission rejects arrivals once the
   queue is full), run for their measured service time stretched by the
   active degradation epoch, and report per-tenant latency percentiles,
   queueing delay and SLO violations.

Everything is integer picoseconds and every tie in the event loop is
broken by an explicit sequence number, so a scenario result — and its
SHA-256 fingerprint — is a pure function of ``(spec, RunConfig)``.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import MemoryMode
from repro.harness.executor import SimulationJob
from repro.harness.report import format_table
from repro.harness.runner import Runner
from repro.scenarios.arrivals import arrival_times_ps
from repro.scenarios.degradation import Schedule, build_schedule
from repro.scenarios.spec import ScenarioSpec
from repro.sim.audit import Auditor
from repro.sim.stats import Histogram
from repro.workloads.compose import tenant_assignment

#: Sojourn/queueing histograms use this many bins per mean service time;
#: percentiles are reported at bin resolution.
BINS_PER_SERVICE = 50


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one open-loop scenario run (fingerprintable)."""

    scenario: str
    seed: int
    horizon_ps: int
    capacity_slots: int
    rate_per_ps: float
    totals: Dict[str, int]
    tenants: Dict[str, Dict[str, float]]
    degradation: Dict[str, float]
    checks_run: int = 0  # excluded from the fingerprint (validate-invariant)

    def to_dict(self) -> Dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "horizon_ps": self.horizon_ps,
            "capacity_slots": self.capacity_slots,
            "rate_per_ps": self.rate_per_ps,
            "totals": dict(self.totals),
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
            "degradation": dict(self.degradation),
        }

    def fingerprint(self) -> str:
        """Canonical SHA-256 over the result (same idiom as RunResult)."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def report(self) -> str:
        """The ``repro scenario run`` text: totals and per-tenant table."""
        t = self.totals
        lines = [
            f"scenario        : {self.scenario} (seed {self.seed})",
            f"horizon         : {self.horizon_ps / 1e6:.2f} us",
            f"arrivals        : {t['arrivals']} "
            f"(admitted {t['admitted']}, rejected {t['rejected']})",
            f"completed       : {t['completed']} "
            f"({t['in_flight']} in flight at horizon)",
            f"slo violations  : {t['slo_violations']}   peak slots "
            f"{t['max_slots_used']}/{self.capacity_slots}, peak queue "
            f"{t['max_queued']}",
        ]
        if self.degradation:
            pairs = ", ".join(f"{k}={v:g}" for k, v in self.degradation.items())
            lines.append(f"degradation     : {pairs}")
        rows = [
            (
                name,
                f"{m['arrivals']:.0f}",
                f"{m['rejected']:.0f}",
                f"{m['completed']:.0f}",
                f"{m['p50_latency_ps'] / 1e6:.2f}",
                f"{m['p99_latency_ps'] / 1e6:.2f}",
                f"{m['p99_queue_ps'] / 1e6:.2f}",
                f"{m['slo_violations']:.0f}",
            )
            for name, m in self.tenants.items()
        ]
        lines.append(
            format_table(
                [
                    "tenant", "arr", "rej", "done",
                    "p50 us", "p99 us", "q-p99 us", "slo-viol",
                ],
                rows,
                title="per-tenant",
            )
        )
        lines.append(f"fingerprint     : {self.fingerprint()}")
        return "\n".join(lines)


def _scenario_seed(spec: ScenarioSpec, run_seed: int) -> int:
    """Mix the spec's seed with the RunConfig seed (both matter)."""
    return spec.seed * 1_000_003 + run_seed


def run_scenario(
    spec: ScenarioSpec,
    runner: Optional[Runner] = None,
    validate: bool = False,
) -> ScenarioResult:
    """Run one open-loop scenario; audit it when ``validate`` is set.

    ``runner`` supplies sizing (``run_cfg``), caching, journaling and
    the executor; ``validate`` additionally audits the service-time GPU
    runs themselves (``run_cfg.validate`` is respected if already set).
    """
    runner = runner or Runner()
    run_cfg = runner.run_cfg
    validate = validate or run_cfg.validate

    # ---- layer 1: measured solo service times (cached, journaled) ----
    jobs = [
        SimulationJob(t.platform, t.workload, MemoryMode(t.mode), run_cfg)
        for t in spec.tenants
    ]
    results = runner.run_jobs(jobs)  # Dict[job, RunResult], memo/cache-aware
    service_ps = [int(results[j].exec_time_ps) for j in jobs]
    if any(s <= 0 for s in service_ps):
        raise ValueError(f"{spec.name}: a tenant class measured zero service time")

    weights = [t.weight for t in spec.tenants]
    total_w = sum(weights)
    mean_service = sum(w * s for w, s in zip(weights, service_ps)) / total_w
    mean_demand = sum(
        w * s * t.slots for w, s, t in zip(weights, service_ps, spec.tenants)
    ) / total_w
    horizon_ps = int(spec.horizon_services * mean_service)
    rate_per_ps = spec.arrivals.offered_load * spec.capacity_slots / mean_demand

    seed = _scenario_seed(spec, run_cfg.seed)
    arrivals = arrival_times_ps(spec.arrivals, rate_per_ps, horizon_ps, seed)
    classes = tenant_assignment(weights, len(arrivals)) if arrivals else []
    schedule: Optional[Schedule] = build_schedule(
        spec.degradation, spec.num_epochs, seed + 1
    )

    # ---- layer 2: the open-loop queueing simulation ------------------
    ntc = len(spec.tenants)
    slo_ps = [
        int(t.slo_multiplier * s) for t, s in zip(spec.tenants, service_ps)
    ]
    bin_width = max(1, int(mean_service) // BINS_PER_SERVICE)
    sojourn = [Histogram(bin_width) for _ in range(ntc)]
    qdelay = [Histogram(bin_width) for _ in range(ntc)]
    n_arrived = [0] * ntc
    n_rejected = [0] * ntc
    n_dispatched = [0] * ntc
    n_completed = [0] * ntc
    n_slo = [0] * ntc
    qdelay_total = [0] * ntc

    def epoch_of(t: int) -> int:
        return min(spec.num_epochs - 1, t * spec.num_epochs // horizon_ps)

    def scales(t: int) -> tuple:
        if schedule is None:
            return 1.0, 1.0
        st = schedule.state(epoch_of(t))
        return st.service_scale, st.capacity_scale

    queue: deque = deque()  # (arrival_ps, class_idx)
    running: List = []  # heap of (finish_ps, seq, class_idx, arrival_ps)
    seq = 0
    used_slots = 0
    max_used = 0
    max_queued = 0

    def dispatch(now: int) -> None:
        nonlocal seq, used_slots, max_used
        svc_scale, cap_scale = scales(now)
        eff_cap = max(1, int(spec.capacity_slots * cap_scale + 0.5))
        while queue:
            arr_ps, cls = queue[0]
            slots = spec.tenants[cls].slots
            if used_slots + slots > eff_cap:
                break  # FIFO: no skipping past the head
            queue.popleft()
            delay = now - arr_ps
            qdelay[cls].record(delay)
            qdelay_total[cls] += delay
            n_dispatched[cls] += 1
            used_slots += slots
            if used_slots > max_used:
                max_used = used_slots
            service = int(service_ps[cls] * svc_scale)
            heapq.heappush(running, (now + service, seq, cls, arr_ps))
            seq += 1

    ai = 0
    n = len(arrivals)
    while True:
        next_done = running[0][0] if running else None
        next_arr = arrivals[ai] if ai < n else None
        if next_done is not None and (next_arr is None or next_done <= next_arr):
            if next_done > horizon_ps:
                break  # everything left in `running` is in flight
            finish, _, cls, arr_ps = heapq.heappop(running)
            used_slots -= spec.tenants[cls].slots
            n_completed[cls] += 1
            total_latency = finish - arr_ps
            sojourn[cls].record(total_latency)
            if total_latency > slo_ps[cls]:
                n_slo[cls] += 1
            dispatch(finish)
        elif next_arr is not None:
            cls = classes[ai]
            ai += 1
            n_arrived[cls] += 1
            if len(queue) >= spec.queue_limit:
                n_rejected[cls] += 1
            else:
                queue.append((next_arr, cls))
                if len(queue) > max_queued:
                    max_queued = len(queue)
                dispatch(next_arr)
        else:
            break

    in_flight = [0] * ntc
    for _, _, cls, _ in running:
        in_flight[cls] += 1
    for _, cls in queue:
        in_flight[cls] += 1

    # ---- report ------------------------------------------------------
    tenants: Dict[str, Dict[str, float]] = {}
    for i, t in enumerate(spec.tenants):
        admitted = n_arrived[i] - n_rejected[i]
        tenants[t.name] = {
            "arrivals": n_arrived[i],
            "admitted": admitted,
            "rejected": n_rejected[i],
            "completed": n_completed[i],
            "in_flight": in_flight[i],
            "slo_violations": n_slo[i],
            "slo_ps": slo_ps[i],
            "service_solo_ps": service_ps[i],
            "p50_latency_ps": sojourn[i].percentile(50),
            "p99_latency_ps": sojourn[i].percentile(99),
            "p50_queue_ps": qdelay[i].percentile(50),
            "p99_queue_ps": qdelay[i].percentile(99),
            "mean_queue_ps": (
                qdelay_total[i] / n_dispatched[i] if n_dispatched[i] else 0.0
            ),
        }
    totals = {
        "arrivals": sum(n_arrived),
        "admitted": sum(n_arrived) - sum(n_rejected),
        "rejected": sum(n_rejected),
        "completed": sum(n_completed),
        "in_flight": sum(in_flight),
        "slo_violations": sum(n_slo),
        "max_slots_used": max_used,
        "max_queued": max_queued,
    }

    checks_run = 0
    if validate:
        auditor = Auditor(strict=False)
        _audit_scenario(
            auditor, spec, totals, tenants,
            sojourn, qdelay, n_dispatched, in_flight, schedule,
        )
        checks_run = auditor.checks_run
        auditor.raise_if_violations()

    return ScenarioResult(
        scenario=spec.name,
        seed=run_cfg.seed,
        horizon_ps=horizon_ps,
        capacity_slots=spec.capacity_slots,
        rate_per_ps=rate_per_ps,
        totals=totals,
        tenants=tenants,
        degradation=schedule.report() if schedule is not None else {},
        checks_run=checks_run,
    )


def _audit_scenario(
    auditor: Auditor,
    spec: ScenarioSpec,
    totals: Dict[str, int],
    tenants: Dict[str, Dict[str, float]],
    sojourn: List[Histogram],
    qdelay: List[Histogram],
    n_dispatched: List[int],
    in_flight: List[int],
    schedule: Optional[Schedule],
) -> None:
    """Open-loop conservation: every arrival is accounted for exactly once."""
    auditor.check_equal(
        "scenario.admission", spec.name,
        totals["arrivals"],
        totals["admitted"] + totals["rejected"],
        "arrivals != admitted + rejected",
    )
    auditor.check_equal(
        "scenario.completion", spec.name,
        totals["admitted"],
        totals["completed"] + totals["in_flight"],
        "admitted != completed + in-flight",
    )
    auditor.check(
        "scenario.capacity", spec.name,
        totals["max_slots_used"] <= spec.capacity_slots,
        "more slots in use than SM capacity",
        expected=spec.capacity_slots,
        actual=totals["max_slots_used"],
    )
    auditor.check(
        "scenario.queue_bound", spec.name,
        totals["max_queued"] <= spec.queue_limit,
        "queue grew past the admission limit",
        expected=spec.queue_limit,
        actual=totals["max_queued"],
    )
    for i, t in enumerate(spec.tenants):
        m = tenants[t.name]
        auditor.check_equal(
            "scenario.tenant_admission", t.name,
            m["arrivals"], m["admitted"] + m["rejected"],
            "per-tenant arrivals != admitted + rejected",
        )
        auditor.check_equal(
            "scenario.tenant_completion", t.name,
            m["admitted"], m["completed"] + m["in_flight"],
            "per-tenant admitted != completed + in-flight",
        )
        auditor.check_equal(
            "scenario.latency_samples", t.name,
            sojourn[i].count, m["completed"],
            "latency histogram count != completions",
        )
        auditor.check_equal(
            "scenario.queue_samples", t.name,
            qdelay[i].count, n_dispatched[i],
            "queueing histogram count != dispatches",
        )
        running = n_dispatched[i] - int(m["completed"])
        auditor.check(
            "scenario.dispatch_split", t.name,
            0 <= running <= in_flight[i],
            "dispatched-but-not-completed jobs outside [0, in-flight]",
            expected=in_flight[i],
            actual=running,
        )
        auditor.check(
            "scenario.slo_bound", t.name,
            m["slo_violations"] <= m["completed"],
            "more SLO violations than completions",
            expected=m["completed"],
            actual=m["slo_violations"],
        )
    if schedule is not None:
        schedule.audit(auditor)
