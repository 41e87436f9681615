"""Top-level GPU model: SMs + warps + a platform's memory system.

``GpuModel.run`` replays every warp's trace through the event engine and
returns a :class:`RunResult` with IPC, memory latency, channel
bandwidth split and the raw stats — the quantities every evaluation
figure is built from.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.config import SystemConfig
from repro.core.memsystem import MemorySystem
from repro.core.platforms import Platform, build_memory_system
from repro.gpu.interconnect import Interconnect
from repro.gpu.sm import StreamingMultiprocessor
from repro.gpu.warp import Warp, WarpLane
from repro.sim.audit import Auditor, ValidatingEngine
from repro.sim.engine import Engine
from repro.sim.stats import Stats
from repro.workloads.source import TraceSource
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import WarpTrace
from repro.workloads.trace import TraceRecorder


@dataclass(frozen=True, slots=True)
class RunResult:
    """Metrics of one (platform, workload, mode) simulation."""

    platform: str
    workload: str
    mode: str
    instructions: int
    exec_time_ps: int
    demand_requests: int
    mean_mem_latency_ps: float
    counters: Dict[str, float]

    @property
    def ipc(self) -> float:
        """GPU-wide instructions per SM-clock cycle."""
        if self.exec_time_ps == 0:
            return 0.0
        return self.instructions / self.exec_time_ps  # per picosecond
        # (callers only ever use IPC ratios, so the time base cancels)

    @property
    def performance(self) -> float:
        """1 / execution time — what Figs. 16/20a/21 normalize."""
        return 1.0 / self.exec_time_ps if self.exec_time_ps else 0.0

    def channel_busy_ps(self, kind: str) -> float:
        """Total channel occupancy of one traffic kind over all slices."""
        return sum(
            v for k, v in self.counters.items()
            if k.endswith(f".busy_ps.{kind}") and ".route." not in k
        )

    @property
    def migration_bandwidth_fraction(self) -> float:
        """Share of *data-route* channel time spent on migration —
        the quantity of Figs. 8 and 18."""
        demand = self.channel_busy_ps("demand")
        # Only migration traffic that landed on the data route competes
        # with demand requests; memory-route transfers are free.
        migration = sum(
            v for k, v in self.counters.items() if k.endswith(".busy_ps.migration")
        )
        memory_route = sum(
            v for k, v in self.counters.items()
            if k.endswith(".busy_ps.route.memory")
        )
        migration_on_data = max(0.0, migration - memory_route)
        total = demand + migration_on_data
        return migration_on_data / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-ready payload; the persistent result cache stores this."""
        return {
            "platform": self.platform,
            "workload": self.workload,
            "mode": self.mode,
            "instructions": self.instructions,
            "exec_time_ps": self.exec_time_ps,
            "demand_requests": self.demand_requests,
            "mean_mem_latency_ps": self.mean_mem_latency_ps,
            "counters": dict(self.counters),
        }

    def fingerprint(self) -> str:
        """SHA-256 of the canonical :meth:`to_dict` JSON.

        ``repro workloads record``/``replay`` print this so a replay
        can be checked bit-identical against its recorded run; the
        golden-fingerprint regression tests freeze the same quantity.
        """
        import hashlib
        import json

        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        """Inverse of :meth:`to_dict` (stable round-trip).

        The one way a result enters a process from outside it: cache
        and store files, batch shards and, through :meth:`__reduce__`,
        pool workers.  Counter names go through :func:`sys.intern`, so
        every decoded result shares one copy of each name instead of
        holding its own (about 9 KB of a 14 KB result).  Counters that
        are not a JSON object raise :class:`TypeError`.
        """
        counters = data["counters"]
        if not isinstance(counters, dict):
            raise TypeError(
                f"counters must be a JSON object, not {type(counters).__name__}"
            )
        return cls(
            platform=data["platform"],
            workload=data["workload"],
            mode=data["mode"],
            instructions=data["instructions"],
            exec_time_ps=data["exec_time_ps"],
            demand_requests=data["demand_requests"],
            mean_mem_latency_ps=data["mean_mem_latency_ps"],
            counters={sys.intern(k): v for k, v in counters.items()},
        )

    def __reduce__(self):
        # Unpickling (a pool worker's result) decodes through from_dict.
        return (RunResult.from_dict, (self.to_dict(),))


class GpuModel:  # reprolint: allow(R2) once-per-run orchestrator, never allocated per event; audit/recorder seams attach run-scoped state
    """Assembles SMs and warps around a platform's memory system."""

    def __init__(
        self,
        platform: Platform,
        cfg: SystemConfig,
        spec: WorkloadSpec,
        traces: Union[List[WarpTrace], TraceSource],
        recorder: Optional[TraceRecorder] = None,
        auditor: Optional[Auditor] = None,
    ) -> None:
        # A TraceSource streams each warp's access blocks on demand
        # (bounded lookahead); a trace list is the materialized classic.
        # Both drive the same warp stepping — the golden-fingerprint
        # parity tests pin the two paths bit-identical.
        streams = traces.streams() if isinstance(traces, TraceSource) else None
        if not (streams if streams is not None else traces):
            raise ValueError("need at least one warp trace")
        if streams is not None and auditor is not None:
            # Materialized traces are audited whole at construction
            # (auditor.instrument); a streamed warp's problems surface
            # at pull time, so route them to the auditor as they appear
            # — strict mode turns the first one into an InvariantError.
            def on_problem(warp_id: int, message: str) -> None:
                auditor.record(
                    "workload.trace_wellformed", f"warp{warp_id}", message
                )
                if auditor.strict:
                    auditor.raise_if_violations()

            for stream in streams:
                stream.on_problem = on_problem
        self.platform = platform
        self.cfg = cfg
        self.spec = spec
        self.auditor = auditor
        # Zero-cost rule: the un-audited engine and channels are the
        # exact production objects — audit instrumentation is installed
        # here, at construction, never checked per event.
        self.engine = Engine() if auditor is None else ValidatingEngine(auditor)
        self.stats = Stats()
        self.memory: MemorySystem = build_memory_system(platform, cfg, self.stats)
        self.interconnect = Interconnect(stats=self.stats)
        self.sms = [
            StreamingMultiprocessor(
                sm_id=i,
                engine=self.engine,
                memory=self.memory,
                interconnect=self.interconnect,
                stats=self.stats,
                freq_ghz=cfg.gpu.sm_freq_ghz,
                line_bytes=cfg.gpu.line_bytes,
            )
            for i in range(cfg.gpu.num_sms)
        ]
        self._warps: List[Warp] = []
        self._remaining = 0
        for w, trace in enumerate(streams if streams is not None else traces):
            sm = self.sms[w % len(self.sms)]
            self._warps.append(Warp(w, sm, trace))
        self._remaining = len(self._warps)
        # All warp events ride the engine's typed lane; the Warp objects
        # remain the inspectable per-warp surface the lane syncs into.
        self._lane = WarpLane(
            self.engine, self._warps, self.stats, self._warp_done, recorder
        )
        self._tenant_finish_ps: Dict[str, int] = {}
        self._ran = False
        if auditor is not None:
            auditor.instrument(self)

    @property
    def warps(self) -> List[Warp]:
        """The model's warps (read-only view; the audit layer walks it)."""
        return list(self._warps)

    def _warp_done(self, warp: Warp) -> None:
        self._remaining -= 1
        tenant = warp.trace.tenant
        if tenant is not None:
            self._tenant_finish_ps[tenant] = self.engine.now

    def run(self, max_events: Optional[int] = None) -> RunResult:
        """Simulate every warp to completion and fold the result.

        A model is single-use: its warps, counters and clock are
        consumed by the run, so a second call raises
        :class:`RuntimeError` — build a new model to simulate again.
        """
        if self._ran:
            raise RuntimeError(
                "GpuModel.run() can be called only once per model; "
                "build a new GpuModel to simulate again"
            )
        self._ran = True
        # The event loop allocates almost nothing that survives a step,
        # so generational GC passes over it are pure overhead (~5% of
        # wall time); collection is suspended for the drain and restored
        # even if a callback raises.
        import gc

        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._lane.start_all()
            self.engine.run(max_events=max_events)
            self._lane.sync()
        finally:
            if gc_was_enabled:
                gc.enable()
        if self._remaining:
            raise RuntimeError(
                f"{self._remaining} warps unfinished (max_events too low?)"
            )
        instructions = sum(w.instructions_retired for w in self._warps)
        lat = self.stats.latency("mem.latency_ps")
        counters = self.stats.snapshot()
        self._attribute_tenants(counters)
        result = RunResult(
            platform=self.platform.name,
            workload=self.spec.name,
            mode=self.cfg.hetero.mode.value,
            instructions=instructions,
            exec_time_ps=self.engine.now,
            demand_requests=lat.count,
            mean_mem_latency_ps=lat.mean,
            counters=counters,
        )
        if self.auditor is not None:  # reprolint: allow(R4) post-run finish hook — runs once per run, not per event (§10.2)
            # Post-run conservation checks; a strict auditor raises
            # InvariantError here with every violation attached.
            self.auditor.finish(self, result)
        return result

    def _attribute_tenants(self, counters: Dict[str, float]) -> None:
        """Fold per-tenant aggregates into the result counters.

        Multi-tenant compositions label each warp's trace with its
        tenant; here the per-warp retirement counts become
        ``tenant.<name>.{warps,instructions,accesses,finish_ps}``
        counters so a mix reports who consumed what and when each
        tenant's last warp drained.  Unlabelled runs add nothing.
        """
        for warp in self._warps:
            tenant = warp.trace.tenant
            if tenant is None:
                continue
            prefix = f"tenant.{tenant}."
            counters[prefix + "warps"] = counters.get(prefix + "warps", 0.0) + 1
            counters[prefix + "instructions"] = (
                counters.get(prefix + "instructions", 0.0) + warp.instructions_retired
            )
            counters[prefix + "accesses"] = (
                counters.get(prefix + "accesses", 0.0) + len(warp.trace)
            )
        for tenant, finish in self._tenant_finish_ps.items():
            counters[f"tenant.{tenant}.finish_ps"] = finish
