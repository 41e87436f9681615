"""Performance benchmarks for the simulation core itself.

Where the figure benchmarks measure the *modelled* system, this module
measures the *simulator*: how many engine events per second the core
loop sustains on calibrated, figure-sized jobs.  ``repro perf`` (and the
``benchmarks/perf`` pytest suite) runs these cases and writes the
results — alongside the recorded pre-optimization baseline — to
``BENCH_perf.json``, so every future PR is held to a measured standard.

Methodology: traces are generated (and memoized) and the model is
constructed before the clock starts, so a measurement covers the event
loop only; each case reports the best of ``repeats`` runs (events/sec
is noise-sensitive and the best run is the closest estimate of the
machine's capability).  Each case runs alone in a fresh child process,
so its peak resident set is its own.
Events/sec is deterministic work over wall time — the event *count* for
a case never varies, only the clock.
"""

from __future__ import annotations

import json
import platform as _platform
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import MemoryMode
from repro.core.platforms import PLATFORMS
from repro.gpu.gpu import GpuModel
from repro.harness.executor import SIZING_PRESETS, RunConfig, SimulationJob, traces_for
from repro.harness.report import format_table
from repro.workloads.registry import get_workload_def

#: Figure-sized jobs (the shape the experiment matrix runs at) plus
#: quick smoke variants for CI.  "headline" is the acceptance case.
_FULL_SIZING = SIZING_PRESETS["bench"]
_SMOKE_SIZING = SIZING_PRESETS["quick"]


@dataclass(frozen=True)
class PerfCase:
    """One calibrated workload for the simulator-speed benchmark."""

    name: str
    platform: str
    workload: str
    mode: MemoryMode
    run_cfg: RunConfig


PERF_CASES: tuple[PerfCase, ...] = (
    PerfCase("headline", "Ohm-BW", "pagerank", MemoryMode.PLANAR, _FULL_SIZING),
    PerfCase("two_level", "Ohm-base", "backp", MemoryMode.TWO_LEVEL, _FULL_SIZING),
    PerfCase("origin", "Origin", "bfsdata", MemoryMode.PLANAR, _FULL_SIZING),
    # Workload-subsystem-v2 families: a reuse-heavy dense kernel and a
    # composed multi-tenant mix (tenant attribution on the result path).
    PerfCase("gemm", "Ohm-BW", "gemm_reuse", MemoryMode.PLANAR, _FULL_SIZING),
    PerfCase("mix", "Ohm-base", "mix_gemm_chase", MemoryMode.PLANAR, _FULL_SIZING),
)

SMOKE_CASES: tuple[PerfCase, ...] = (
    PerfCase("headline_smoke", "Ohm-BW", "pagerank", MemoryMode.PLANAR, _SMOKE_SIZING),
    PerfCase("two_level_smoke", "Ohm-base", "backp", MemoryMode.TWO_LEVEL, _SMOKE_SIZING),
    PerfCase("origin_smoke", "Origin", "bfsdata", MemoryMode.PLANAR, _SMOKE_SIZING),
    PerfCase("gemm_smoke", "Ohm-BW", "gemm_reuse", MemoryMode.PLANAR, _SMOKE_SIZING),
    PerfCase("mix_smoke", "Ohm-base", "mix_gemm_chase", MemoryMode.PLANAR, _SMOKE_SIZING),
)

#: Events/sec of the event loop *before* the PR-2 hot-path overhaul
#: (pre-bound stat handles, lean run loop, compiled warp traces),
#: captured on the reference dev container with the same best-of-N
#: methodology.  Speedups reported by ``repro perf`` are relative to
#: these; on different hardware the ratio is still meaningful because
#: both sides scale with single-core speed.
BASELINE_EVENTS_PER_SEC: Dict[str, float] = {
    "headline": 81_668.9,
    "two_level": 49_484.9,
    "origin": 95_456.4,
    "headline_smoke": 83_132.4,
    "two_level_smoke": 47_798.5,
    "origin_smoke": 102_973.5,
}


@dataclass(frozen=True)
class PerfMeasurement:
    """Best-of-N timing of one case on this machine.

    ``peak_rss_bytes`` is the high-water resident set of a fresh child
    process that ran only this case (interpreter and imports included),
    so no case carries an earlier one's memory, and
    ``trace_peak_bytes`` is the tracemalloc allocation peak of
    regenerating the case's trace set through the *streaming* pipeline
    (memo-bypassing, so it tracks what the pipeline actually costs, not
    what the memo already holds).  Both are ``None`` on platforms or
    call sites that don't measure memory — history records and the
    compare gate just skip such cases.
    """

    case: str
    platform: str
    workload: str
    mode: str
    events: int
    instructions: int
    wall_s: float
    events_per_sec: float
    repeats: int
    peak_rss_bytes: Optional[int] = None
    trace_peak_bytes: Optional[int] = None

    @property
    def baseline_events_per_sec(self) -> Optional[float]:
        return BASELINE_EVENTS_PER_SEC.get(self.case)

    @property
    def speedup_vs_baseline(self) -> Optional[float]:
        base = self.baseline_events_per_sec
        return self.events_per_sec / base if base else None

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "platform": self.platform,
            "workload": self.workload,
            "mode": self.mode,
            "events": self.events,
            "instructions": self.instructions,
            "wall_s": self.wall_s,
            "events_per_sec": self.events_per_sec,
            "repeats": self.repeats,
            "peak_rss_bytes": self.peak_rss_bytes,
            "trace_peak_bytes": self.trace_peak_bytes,
            "baseline_events_per_sec": self.baseline_events_per_sec,
            "speedup_vs_baseline": self.speedup_vs_baseline,
        }


def peak_rss_bytes() -> Optional[int]:
    """This process's own peak resident set, in bytes.

    Linux reports ``VmHWM``: a process started by fork and exec, as a
    spawn-context worker is, inherits its parent's ``ru_maxrss`` across
    the exec, but its ``VmHWM`` starts afresh.  Elsewhere this falls
    back to ``ru_maxrss`` (kilobytes on Linux), and platforms without
    the ``resource`` module (Windows) report ``None``.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _trace_peak_bytes(case: PerfCase, cfg) -> Optional[int]:
    """Allocation peak of streaming the case's trace set, per tracemalloc.

    Builds a fresh streamed source and consumes it round-robin, keeping
    every warp's latest block as the spill writer and the fused drain
    do — the number the constant-memory pipeline is accountable for.
    Tracemalloc slows allocation, so this runs outside every timed
    region.
    """
    import tracemalloc

    from repro.workloads.registry import build_source
    from repro.workloads.source import round_robin

    defn = get_workload_def(case.workload)
    if defn.family == "trace":
        return None  # replay streams a file; nothing is generated
    if tracemalloc.is_tracing():  # don't fight an outer profiler
        return None
    tracemalloc.start()
    try:
        source = build_source(
            defn,
            defn.spec.scaled_footprint(cfg.scale_down),
            num_warps=case.run_cfg.num_warps,
            accesses_per_warp=case.run_cfg.accesses_per_warp,
            line_bytes=cfg.gpu.line_bytes,
            page_bytes=cfg.hetero.page_bytes,
            seed=case.run_cfg.seed,
        )
        held: dict = {}
        for stream, block in round_robin(source.streams()):
            held[stream.warp_id] = block
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def measure_case(case: PerfCase, repeats: int = 3) -> PerfMeasurement:
    """Time one case; returns the best (fastest) of ``repeats`` runs.

    The case runs alone in a fresh child (a one-worker spawn-context
    pool), so its ``peak_rss_bytes`` is its own.
    """
    if repeats < 1:
        raise ValueError("need at least one repeat")
    import multiprocessing
    from concurrent import futures

    with futures.ProcessPoolExecutor(
        max_workers=1, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return pool.submit(_measure_here, case, repeats).result()


def _measure_here(case: PerfCase, repeats: int) -> PerfMeasurement:
    """:func:`measure_case`'s body, in the calling process."""
    job = SimulationJob(case.platform, case.workload, case.mode, case.run_cfg)
    cfg = job.resolved_config()
    spec = get_workload_def(case.workload).spec
    traces = traces_for(job, cfg)  # generated outside the timed region
    platform = PLATFORMS[case.platform]
    best_dt = None
    events = instructions = 0
    for _ in range(repeats):
        model = GpuModel(platform, cfg, spec, traces)
        t0 = time.perf_counter()
        result = model.run()
        dt = time.perf_counter() - t0
        events = model.engine.events_processed
        instructions = result.instructions
        if best_dt is None or dt < best_dt:
            best_dt = dt
    return PerfMeasurement(
        case=case.name,
        platform=case.platform,
        workload=case.workload,
        mode=case.mode.value,
        events=events,
        instructions=instructions,
        wall_s=best_dt,
        events_per_sec=events / best_dt if best_dt else 0.0,
        repeats=repeats,
        peak_rss_bytes=peak_rss_bytes(),
        trace_peak_bytes=_trace_peak_bytes(case, cfg),
    )


def run_suite(
    cases: Sequence[PerfCase] = PERF_CASES, repeats: int = 3
) -> List[PerfMeasurement]:
    """Measure every case, in order, in this process."""
    return [measure_case(case, repeats) for case in cases]


def git_revision(root: Optional[str] = None) -> Optional[str]:
    """Short git revision of ``root`` (cwd by default), or ``None``.

    Best-effort: a missing git binary, a non-repo directory or any git
    failure degrades to ``None`` rather than failing a benchmark write.
    """
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=root,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def load_bench(path: str) -> Optional[dict]:
    """Parse a ``BENCH_perf.json`` document; ``None`` if absent/corrupt."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def history_entry(
    measurements: Sequence[PerfMeasurement],
    timestamp: Optional[str] = None,
    git_rev: Optional[str] = None,
) -> dict:
    """One append-only trajectory record: when, which code, how fast.

    The timestamp is passed in by the caller (the CLI stamps wall-clock
    time; tests pass fixed strings so records stay deterministic).
    """
    entry = {
        "timestamp": timestamp,
        "git_rev": git_rev,
        "events_per_sec": {m.case: m.events_per_sec for m in measurements},
    }
    rss = {
        m.case: m.peak_rss_bytes
        for m in measurements
        if m.peak_rss_bytes is not None
    }
    trace_peak = {
        m.case: m.trace_peak_bytes
        for m in measurements
        if m.trace_peak_bytes is not None
    }
    # Memory maps ride along only when measured, so records written by
    # older versions (or memory-less stubs) stay shaped as before.
    if rss:
        entry["peak_rss_bytes"] = rss
    if trace_peak:
        entry["trace_peak_bytes"] = trace_peak
    return entry


def bench_payload(
    measurements: Sequence[PerfMeasurement],
    history: Optional[Sequence[dict]] = None,
) -> dict:
    """The ``BENCH_perf.json`` document: before/after events per second.

    ``history`` carries the per-PR trajectory (see :func:`write_bench`);
    ``current`` is still the latest full measurement set, so existing
    readers keep working.
    """
    return {
        "benchmark": "simulation-core events/sec",
        "unit": "events_per_sec",
        "python": _platform.python_version(),
        "machine": _platform.machine(),
        "baseline": {
            "label": "pre-optimization (PR 1 simulation core)",
            "events_per_sec": dict(BASELINE_EVENTS_PER_SEC),
        },
        "current": [m.to_dict() for m in measurements],
        "history": list(history) if history else [],
    }


def write_bench(
    path: str,
    measurements: Sequence[PerfMeasurement],
    timestamp: Optional[str] = None,
    git_rev: Optional[str] = None,
) -> dict:
    """Write ``BENCH_perf.json``, appending to its ``history`` list.

    An existing document at ``path`` contributes its history (so the
    perf trajectory accumulates across PRs instead of being overwritten
    with each ``current``); the new measurements are appended as one
    :func:`history_entry` and also become the new ``current``.
    """
    prior = load_bench(path)
    history: List[dict] = []
    if prior is not None:
        prior_history = prior.get("history")
        if isinstance(prior_history, list):
            history.extend(prior_history)
    history.append(history_entry(measurements, timestamp, git_rev))
    payload = bench_payload(measurements, history)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return payload


def current_events_per_sec(payload: dict) -> Dict[str, float]:
    """``case -> events_per_sec`` from a bench document's ``current``."""
    out: Dict[str, float] = {}
    for rec in payload.get("current", []):
        try:
            out[rec["case"]] = float(rec["events_per_sec"])
        except (KeyError, TypeError, ValueError):
            continue
    return out


@dataclass(frozen=True)
class PerfComparison:
    """One case present in both sides of a bench diff."""

    case: str
    old_events_per_sec: float
    new_events_per_sec: float

    @property
    def ratio(self) -> float:
        if self.old_events_per_sec <= 0:
            return float("inf")
        return self.new_events_per_sec / self.old_events_per_sec

    def is_regression(self, threshold: float) -> bool:
        """True if the new number lost more than ``threshold`` fraction."""
        return (
            self.old_events_per_sec > 0
            and self.new_events_per_sec
            < self.old_events_per_sec * (1.0 - threshold)
        )


def compare_bench(
    old_payload: dict,
    new_payload: dict,
    threshold: float = 0.10,
) -> tuple[List[PerfComparison], List[PerfComparison]]:
    """Diff two bench documents case-by-case.

    Returns ``(comparisons, regressions)``: every case present in both
    ``current`` sections, and the subset whose events/sec dropped by
    more than ``threshold`` (default 10%).  Cases present on only one
    side are ignored — a renamed or added case is not a regression.
    """
    old_eps = current_events_per_sec(old_payload)
    new_eps = current_events_per_sec(new_payload)
    comparisons = [
        PerfComparison(case, old_eps[case], new_eps[case])
        for case in sorted(old_eps)
        if case in new_eps
    ]
    regressions = [c for c in comparisons if c.is_regression(threshold)]
    return comparisons, regressions


def current_memory_bytes(payload: dict, field: str) -> Dict[str, int]:
    """``case -> bytes`` of one memory field from a bench ``current``."""
    out: Dict[str, int] = {}
    for rec in payload.get("current", []):
        value = rec.get(field) if isinstance(rec, dict) else None
        if value is None:
            continue
        try:
            out[rec["case"]] = int(value)
        except (KeyError, TypeError, ValueError):
            continue
    return out


@dataclass(frozen=True)
class MemoryComparison:
    """One case's peak-memory delta between two bench documents."""

    case: str
    field: str
    old_bytes: int
    new_bytes: int

    @property
    def ratio(self) -> float:
        if self.old_bytes <= 0:
            return float("inf")
        return self.new_bytes / self.old_bytes

    def is_regression(self, threshold: float) -> bool:
        """True if peak memory *grew* by more than ``threshold``."""
        return (
            self.old_bytes > 0
            and self.new_bytes > self.old_bytes * (1.0 + threshold)
        )


def compare_bench_memory(
    old_payload: dict,
    new_payload: dict,
    threshold: float = 0.25,
) -> tuple[List[MemoryComparison], List[MemoryComparison]]:
    """Diff peak-memory columns of two bench documents.

    Mirrors :func:`compare_bench` but in the growth direction: a case
    regresses when either its ``trace_peak_bytes`` (the streaming
    pipeline's allocation peak — the sensitive signal) or its
    ``peak_rss_bytes`` grew by more than ``threshold`` (default 25%).
    Cases lacking memory data on either side — older bench files, or
    platforms that can't measure — are skipped, never failed.
    """
    comparisons: List[MemoryComparison] = []
    for field in ("trace_peak_bytes", "peak_rss_bytes"):
        old_mem = current_memory_bytes(old_payload, field)
        new_mem = current_memory_bytes(new_payload, field)
        comparisons.extend(
            MemoryComparison(case, field, old_mem[case], new_mem[case])
            for case in sorted(old_mem)
            if case in new_mem
        )
    regressions = [c for c in comparisons if c.is_regression(threshold)]
    return comparisons, regressions


# -- reports ----------------------------------------------------------------


def _mib(n: Optional[int]) -> str:
    return f"{n / 2**20:.1f}" if n is not None else "n/a"


def suite_table(measurements: Sequence[PerfMeasurement], repeats: int) -> str:
    """The ``repro perf`` report: one row per measured case."""
    rows = []
    for m in measurements:
        speedup = m.speedup_vs_baseline
        rows.append(
            (
                m.case,
                m.events,
                m.wall_s * 1e3,
                m.events_per_sec,
                m.baseline_events_per_sec or 0.0,
                f"{speedup:.2f}x" if speedup else "n/a",
                _mib(m.trace_peak_bytes),
                _mib(m.peak_rss_bytes),
            )
        )
    return format_table(
        [
            "case",
            "events",
            "wall_ms",
            "events_per_sec",
            "baseline_eps",
            "speedup",
            "trace_peak_mib",
            "peak_rss_mib",
        ],
        rows,
        title=f"simulation-core performance (best of {repeats} runs per case)",
    )


def compare_tables(
    old_payload: dict, new_payload: dict, against: str
) -> tuple[List[str], List[str]]:
    """The ``repro perf --compare`` gate against the bench file ``against``.

    Returns the diff tables to print (none when the two documents share
    no case) and the names of the cases that regressed in events/sec or
    peak memory, in first-seen order.
    """
    comparisons, regressions = compare_bench(old_payload, new_payload)
    if not comparisons:
        return [], []
    tables = [
        format_table(
            ["case", "old_eps", "new_eps", "ratio", "verdict"],
            [
                (
                    c.case,
                    c.old_events_per_sec,
                    c.new_events_per_sec,
                    f"{c.ratio:.3f}",
                    "REGRESSION" if c in regressions else "ok",
                )
                for c in comparisons
            ],
            title=f"perf comparison vs {against} (gate: >10% loss)",
        )
    ]
    mem_comparisons, mem_regressions = compare_bench_memory(old_payload, new_payload)
    if mem_comparisons:
        tables.append(
            format_table(
                ["case", "field", "old_mib", "new_mib", "ratio", "verdict"],
                [
                    (
                        c.case,
                        c.field,
                        _mib(c.old_bytes),
                        _mib(c.new_bytes),
                        f"{c.ratio:.3f}",
                        "REGRESSION" if c in mem_regressions else "ok",
                    )
                    for c in mem_comparisons
                ],
                title=f"peak-memory comparison vs {against} (gate: >25% growth)",
            )
        )
    regressed = [c.case for c in regressions] + [c.case for c in mem_regressions]
    return tables, list(dict.fromkeys(regressed))
