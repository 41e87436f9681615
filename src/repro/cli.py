"""Command-line interface: run platforms, workloads and experiments.

Usage examples::

    python -m repro.cli run --platform Ohm-BW --workload pagerank --mode planar
    python -m repro.cli run --platform Ohm-BW --workload gemm_reuse --quick
    python -m repro.cli run --platform Ohm-BW --workload pagerank --profile
    python -m repro.cli compare --workload backp --mode two_level
    python -m repro.cli experiment fig16 --jobs 4 --cache-dir .repro-cache
    python -m repro.cli experiment families --quick
    python -m repro.cli export fig16 --format csv -o fig16.csv
    python -m repro.cli workloads list
    python -m repro.cli workloads describe mix_gemm_chase
    python -m repro.cli workloads record --platform Ohm-BW --workload pagerank -o pr.jsonl.gz
    python -m repro.cli workloads replay --trace pr.jsonl.gz --platform Ohm-BW
    python -m repro.cli batch run --experiment fig16 fig17 --batch-dir .repro-batch --jobs 4
    python -m repro.cli batch status --batch-dir .repro-batch
    python -m repro.cli batch resume --batch-dir .repro-batch --jobs 4
    python -m repro.cli store query --platform Ohm-BW --workload gemm_reuse --format json
    python -m repro.cli store gc --cache-dir .repro-batch/cache
    python -m repro.cli run --platform Ohm-BW --workload pagerank --validate
    python -m repro.cli audit --smoke
    python -m repro.cli audit --jobs 4 --format json -o audit.json
    python -m repro.cli perf -o BENCH_perf.json
    python -m repro.cli list

Simulating commands fan their matrix out over one worker process per
available core; ``--jobs N`` uses N workers instead, and ``--jobs 1``
runs everything in-process (``repro worker`` alone defaults to 1,
since workers are themselves the unit of parallelism).
``--cache-dir`` persists every result so repeated invocations are
near-instant (cache hits are logged).  ``export`` emits
an experiment's rows as json or csv via the structured emitters.
``perf`` benchmarks the simulator itself (events/sec per calibrated
case, written to ``BENCH_perf.json``); ``run --profile`` wraps one
simulation in cProfile for hot-path hunts.

The ``batch`` group fronts the sharded batch scheduler (DESIGN.md
section 9): ``batch run`` shards one or more experiments' job matrices
into a journaled, resumable batch; ``batch status`` reports per-batch
shard progress; ``batch resume`` picks every incomplete batch up
exactly where its journal left off.  Any simulating command also takes
``--batch-dir`` directly to journal its own matrix.  The ``store``
group queries the persistent result cache by job facets (``store
query``) and reclaims stale-schema entries (``store gc``).

``--validate`` (any simulating command) runs with the cross-layer
invariant audit armed: a violated conservation law aborts the command
with every recorded violation.  ``audit`` sweeps the whole
workload-registry x platform x mode matrix under a collecting auditor
and reports per-job verdicts (table/json/csv); ``--smoke`` is the
CI-sized gate.  See DESIGN.md section 10 for the invariant catalogue.

The ``workloads`` group fronts the workload subsystem (see
docs/WORKLOADS.md): ``list``/``describe`` introspect the registry,
``record`` dumps a run's per-warp access stream to a compact JSONL
trace, and ``replay`` (or any ``--workload trace:<path>``) re-simulates
it — bit-identically when configuration matches, as the printed result
fingerprints show.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import MemoryMode, RunConfig, Runner
from repro.core.platforms import PLATFORMS
from repro.harness import experiments  # noqa: F401  (populates the registry)
from repro.harness.batch import DEFAULT_SHARD_SIZE, BatchError, BatchRun
from repro.harness.cache import ResultCache
from repro.harness.executor import SIZING_PRESETS, EnvSettingError, make_executor
from repro.harness.store import STORE_COLUMNS, ResultStore
from repro.harness.registry import (
    EXPERIMENTS,
    ExperimentResult,
    run_spec,
)
from repro.harness.report import EMITTERS, format_table
from repro.sim.audit import InvariantError
from repro.workloads.registry import (
    FAMILIES,
    REGISTRY,
    WorkloadSizingError,
    get_workload_def,
)
from repro.workloads.trace import TraceFormatError


def _mode(name: str) -> MemoryMode:
    return MemoryMode(name)


def _positive_int(text: str) -> int:
    """argparse ``type=`` wrapper for flags that must be >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _read_trace(open_fn, *args, **kwargs):
    """Call ``open_fn``, turning trace-reading errors into a clean exit."""
    try:
        return open_fn(*args, **kwargs)
    except FileNotFoundError as exc:
        raise SystemExit(f"repro: trace file not found: {exc.filename or exc}")
    except TraceFormatError as exc:
        raise SystemExit(f"repro: {exc}")
    except OSError as exc:
        # gzip.BadGzipFile, permission errors, ... — anything the trace
        # reader hits below the format layer.
        raise SystemExit(f"repro: cannot read trace: {exc}")


def _resolve_workload(name: str):
    """Resolve a workload name to its def, exiting cleanly on failure.

    Accepts any registered name plus ``trace:<path>`` replays, which is
    why ``--workload`` is validated here instead of with a static
    argparse ``choices`` list.
    """
    try:
        return _read_trace(get_workload_def, name)
    except KeyError as exc:
        raise SystemExit(f"repro: {exc.args[0]}")


def _workload(name: str) -> str:
    """argparse ``type=`` wrapper: validate, return the name unchanged."""
    _resolve_workload(name)
    return name


def _print_rows(result: ExperimentResult) -> None:
    """Generic experiment printer: the spec's rows as an ASCII table."""
    rows = result.rows
    columns = list(result.spec.columns)
    print(
        format_table(
            columns,
            [tuple(r.get(c) for c in columns) for r in rows],
            title=result.spec.title,
        )
    )


def _print_two_mode(result: ExperimentResult) -> None:
    for mode, fig in result.payload.items():
        platforms = sorted({p for (_, p) in fig.values})
        print(f"\n== {fig.name} ({mode}) ==")
        for p in platforms:
            print(f"  {p:20s} {fig.mean_over_workloads(p):.3f}")


def _print_fig3(result: ExperimentResult) -> None:
    print(
        format_table(
            ["workload", "data_move", "storage", "gpu"],
            [
                (r["workload"], r["data_move_frac"], r["storage_frac"], r["gpu_frac"])
                for r in result.payload
            ],
            title="Fig. 3a",
        )
    )


def _print_fig20b(result: ExperimentResult) -> None:
    for b in result.payload:
        print(f"  {b.label:16s} BER {b.ber:.2e} ({'OK' if b.reliable else 'FAIL'})")


def _print_fig15(result: ExperimentResult) -> None:
    for r in result.payload:
        print(
            f"  {r['layout']:9s} total {r['total']:2d} "
            f"(reduction {r['reduction_vs_general']:.0%})"
        )


def _print_table3(result: ExperimentResult) -> None:
    for r in result.payload:
        print(
            f"  {r['mode']:9s} {r['platform']:9s} ${r['total_cost']:.0f} "
            f"(+{r['cost_increase']:.1%})"
        )


def _print_headline(result: ExperimentResult) -> None:
    h = result.payload
    print(f"  Ohm-BW vs Origin  : {h['speedup_vs_origin']:.2f}x (paper 2.81x)")
    print(f"  Ohm-BW vs Ohm-base: {h['speedup_vs_ohm_base']:.2f}x (paper 1.27x)")


# Figure-specific pretty-printers; anything not listed falls back to the
# generic row table, so newly registered experiments print for free.
PRINTERS = {
    "fig3": _print_fig3,
    "fig8": _print_two_mode,
    "fig16": _print_two_mode,
    "fig17": _print_two_mode,
    "fig18": _print_two_mode,
    "fig20b": _print_fig20b,
    "fig15": _print_fig15,
    "table3": _print_table3,
    "fig21": _print_two_mode,
    "headline": _print_headline,
}


def _run_config(args: argparse.Namespace) -> RunConfig:
    """The sizing flags as a RunConfig (``--quick`` is the quick preset)."""
    warps, accesses = args.warps, args.accesses
    if args.quick:
        quick = SIZING_PRESETS["quick"]
        warps, accesses = quick.num_warps, quick.accesses_per_warp
    return RunConfig(
        num_warps=warps, accesses_per_warp=accesses, validate=args.validate
    )


def _enable_log(name: str) -> None:
    """Route one harness logger's INFO records to stderr."""
    log = logging.getLogger(name)
    log.setLevel(logging.INFO)
    if not log.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        log.addHandler(handler)


def _open_cache(path) -> ResultCache:
    """Open a ``--cache-dir``, exiting cleanly when it cannot be made."""
    try:
        return ResultCache(path)
    except OSError as exc:
        raise SystemExit(f"repro: --cache-dir: {exc}")


def _write_out(text: str, output: Optional[str], wrote: str) -> None:
    """Send a report to ``-o`` (noting ``wrote`` on stderr) or stdout."""
    if output:
        with open(output, "w") as fh:
            fh.write(text)
        print(wrote, file=sys.stderr)
    elif text:
        print(text, end="" if text.endswith("\n") else "\n")


def _make_runner(args: argparse.Namespace) -> Runner:
    """Assemble the experiment service the flags describe."""
    cache = None
    if args.cache_dir:
        # Surface per-job cache hits on stderr (acceptance: hits logged).
        _enable_log("repro.cache")
        cache = _open_cache(args.cache_dir)
    if args.batch_dir:
        # Surface per-shard progress and skip decisions on stderr.
        _enable_log("repro.batch")
    try:
        return Runner(
            _run_config(args),
            executor=make_executor(args.jobs),
            cache=cache,
            batch_dir=args.batch_dir,
            shard_size=args.shard_size,
        )
    except OSError as exc:
        # Runner creates <batch-dir>/cache eagerly when batching.
        raise SystemExit(f"repro: --batch-dir: {exc}")


def _finish(runner: Runner) -> None:
    if runner.cache is not None:
        print(runner.cache.summary(), file=sys.stderr)


def _print_result(result) -> None:
    """The standard one-run report (also used by record/replay)."""
    print(f"platform        : {result.platform}")
    print(f"workload        : {result.workload} ({result.mode})")
    print(f"instructions    : {result.instructions}")
    print(f"exec time       : {result.exec_time_ps / 1e6:.2f} us")
    print(f"mean mem latency: {result.mean_mem_latency_ps / 1e3:.1f} ns")
    print(f"migration bw    : {result.migration_bandwidth_fraction:.1%}")
    tenants = sorted(
        {k.split(".")[1] for k in result.counters if k.startswith("tenant.")}
    )
    for t in tenants:
        c = result.counters
        print(
            f"tenant {t:9s} : {c.get(f'tenant.{t}.warps', 0):.0f} warps, "
            f"{c.get(f'tenant.{t}.instructions', 0):.0f} instructions, "
            f"finished at {c.get(f'tenant.{t}.finish_ps', 0) / 1e6:.2f} us"
        )


def _record_to(path: str, args: argparse.Namespace) -> int:
    """Run one simulation with the trace recorder and save the stream."""
    from repro.harness.executor import SimulationJob, execute_job_recorded
    from repro.workloads.trace import TraceMeta, save_traces

    job = SimulationJob(
        args.platform, args.workload, _mode(args.mode), _run_config(args)
    )
    result, recorded = execute_job_recorded(job)
    defn = get_workload_def(args.workload)
    meta = TraceMeta(
        workload=defn.spec.name,
        platform=args.platform,
        mode=args.mode,
        line_bytes=job.resolved_config().gpu.line_bytes,
        num_warps=len(recorded),
        spec=defn.spec,
    )
    save_traces(path, meta, recorded)
    _print_result(result)
    print(f"fingerprint     : {result.fingerprint()}")
    print(f"wrote trace     : {path} ({len(recorded)} warps)", file=sys.stderr)
    return 0


def _run_stdin_trace(args: argparse.Namespace) -> int:
    """`repro run --stdin-trace`: simulate a trace piped on stdin.

    The terminal stage of a ``repro trace ...`` pipeline: the stream is
    replayed directly off the pipe (single pass, never materialized),
    under the spec recorded in the trace header.
    """
    from repro.config import default_config
    from repro.gpu.gpu import GpuModel

    source = _trace_source_arg("-")
    cfg = default_config(_mode(args.mode))
    auditor = None
    if args.validate:
        from repro.sim.audit import Auditor

        auditor = Auditor(strict=True)
    result = GpuModel(
        PLATFORMS[args.platform], cfg, source.meta.spec, source, auditor=auditor
    ).run()
    _print_result(result)
    print(f"fingerprint     : {result.fingerprint()}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """`repro run`: one simulation (optionally profiled/recorded)."""
    if args.stdin_trace:
        return _run_stdin_trace(args)
    if args.record_trace:
        return _record_to(args.record_trace, args)
    runner = _make_runner(args)
    if args.profile:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        result = runner.run(args.platform, args.workload, _mode(args.mode))
        profiler.disable()
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    else:
        result = runner.run(args.platform, args.workload, _mode(args.mode))
    _print_result(result)
    _finish(runner)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """`repro compare`: every platform on one workload, one table."""
    runner = _make_runner(args)
    mode = _mode(args.mode)
    results = runner.matrix(tuple(PLATFORMS), (args.workload,), mode)
    base = results[("Ohm-base", args.workload)]
    rows = []
    for name in PLATFORMS:
        r = results[(name, args.workload)]
        rows.append(
            (
                name,
                r.performance / base.performance,
                r.mean_mem_latency_ps / 1e3,
                r.migration_bandwidth_fraction,
            )
        )
    print(
        format_table(
            ["platform", "perf_vs_base", "latency_ns", "migration_bw"],
            rows,
            title=f"{args.workload} ({mode.value})",
        )
    )
    _finish(runner)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    """`repro experiment`: regenerate a registered figure/table."""
    runner = _make_runner(args)
    result = run_spec(EXPERIMENTS[args.name], runner)
    PRINTERS.get(args.name, _print_rows)(result)
    _finish(runner)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """`repro export`: emit an experiment's rows as json/csv."""
    runner = _make_runner(args)
    result = run_spec(EXPERIMENTS[args.name], runner)
    text = EMITTERS[args.format](result.rows, columns=result.spec.columns)
    _write_out(text, args.output, f"wrote {len(result.rows)} rows to {args.output}")
    _finish(runner)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """`repro audit`: invariant-check the workload x platform matrix."""
    import dataclasses

    from repro.harness.audit import (
        AUDIT_COLUMNS,
        DEFAULT_SIZING,
        SMOKE_SIZING,
        audit_jobs,
        audit_report,
        run_audit,
    )

    run_cfg = SMOKE_SIZING if args.smoke else DEFAULT_SIZING
    if args.warps:
        run_cfg = dataclasses.replace(run_cfg, num_warps=args.warps)
    if args.accesses:
        run_cfg = dataclasses.replace(run_cfg, accesses_per_warp=args.accesses)
    try:
        jobs = audit_jobs(
            run_cfg=run_cfg,
            platforms=args.platform or None,
            workloads=args.workload or None,
            modes=[_mode(args.mode)] if args.mode else None,
            smoke=args.smoke,
        )
    except KeyError as exc:
        raise SystemExit(f"repro: {exc.args[0]}")
    outcomes = run_audit(jobs, executor=make_executor(args.jobs))
    report = audit_report(outcomes)
    failing = [o for o in outcomes if not o.ok]
    if args.format == "table":
        shown = failing or []
        text = ""
        if shown:
            rows = [o.to_row() for o in shown]
            text = format_table(
                list(AUDIT_COLUMNS),
                [tuple(r[c] for c in AUDIT_COLUMNS) for r in rows],
                title="invariant violations",
            ) + "\n"
    elif args.format == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        rows = [o.to_row() for o in outcomes]
        text = EMITTERS["csv"](rows, columns=AUDIT_COLUMNS)
    _write_out(text, args.output, f"wrote audit report to {args.output}")
    verdict = "CLEAN" if report["ok"] else "VIOLATED"
    print(
        f"audit: {report['jobs']} jobs, {report['checks']} checks, "
        f"{report['violations']} violation(s) in {len(failing)} job(s) "
        f"— {verdict}",
        file=sys.stderr,
    )
    return 0 if report["ok"] else 1


def cmd_perf(args: argparse.Namespace) -> int:
    """`repro perf`: benchmark the simulator core (events/sec)."""
    from repro.harness.perf import (
        PERF_CASES,
        SMOKE_CASES,
        bench_payload,
        compare_tables,
        git_revision,
        load_bench,
        run_suite,
        suite_table,
        write_bench,
    )

    cases = SMOKE_CASES if args.smoke else PERF_CASES
    measurements = run_suite(cases, repeats=args.repeats)
    print(suite_table(measurements, args.repeats))
    from datetime import datetime, timezone

    timestamp = datetime.now(timezone.utc).isoformat(timespec="seconds")  # reprolint: allow(R3) perf-history metadata stamp; never feeds a fingerprint
    if args.output:
        payload = write_bench(
            args.output, measurements, timestamp=timestamp, git_rev=git_revision()
        )
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        payload = bench_payload(measurements)
    if args.compare:
        old = load_bench(args.compare)
        if old is None:
            raise SystemExit(f"repro: --compare: cannot read {args.compare}")
        tables, regressed = compare_tables(old, payload, args.compare)
        if not tables:
            print(
                f"--compare: no cases in common with {args.compare}; "
                "nothing to gate",
                file=sys.stderr,
            )
            return 0
        for table in tables:
            print(table)
        if regressed:
            names = ", ".join(regressed)
            print(f"repro perf: regression gate FAILED: {names}", file=sys.stderr)
            return 1
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """`repro lint`: run reprolint (DESIGN.md section 15) on src/repro.

    The linter lives in ``tools/reprolint`` next to the sources it
    checks, so this command needs the repository checkout — an
    installed-only ``repro`` points the user at the in-repo form.
    """
    repo_root = Path(__file__).resolve().parents[2]
    if not (repo_root / "tools" / "reprolint").is_dir():
        raise SystemExit(
            "repro: lint needs the repository checkout "
            "(tools/reprolint not found; run `python -m tools.reprolint` "
            "from the repo root)"
        )
    if str(repo_root) not in sys.path:
        sys.path.insert(0, str(repo_root))
    from tools.reprolint.cli import main as lint_main

    forwarded: list = list(args.paths)
    forwarded += ["--format", args.format]
    if args.select:
        forwarded += ["--select", args.select]
    if args.show_suppressed:
        forwarded.append("--show-suppressed")
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


def cmd_list(_args: argparse.Namespace) -> int:
    """`repro list`: one-line inventory of every registered name."""
    print("platforms :", ", ".join(PLATFORMS))
    print("workloads :", ", ".join(REGISTRY))
    print("modes     :", ", ".join(m.value for m in MemoryMode))
    print("experiments:", ", ".join(EXPERIMENTS))
    return 0


def cmd_workloads_list(_args: argparse.Namespace) -> int:
    """`repro workloads list`: the registry as a table."""
    rows = [
        (defn.name, defn.family, defn.summary) for defn in REGISTRY.values()
    ]
    print(format_table(["name", "family", "summary"], rows, title="workloads"))
    return 0


def cmd_workloads_describe(args: argparse.Namespace) -> int:
    """`repro workloads describe`: spec, params and family docs."""
    defn = _resolve_workload(args.name)
    print(f"{defn.name}  [family: {defn.family}]")
    if defn.summary:
        print(f"  {defn.summary}\n")
    spec = defn.spec
    print(
        f"  characteristics: APKI {spec.apki:.0f}, {spec.read_ratio:.0%} reads, "
        f"suite {spec.suite}, footprint {spec.footprint_bytes / 2**30:.1f} GiB"
    )
    if defn.params:
        print("  parameters:")
        for key, value in defn.params:
            print(f"    {key} = {value}")
    print("\n  family documentation:")
    for line in FAMILIES[defn.family].splitlines():
        print(f"    {line}")
    return 0


def cmd_workloads_record(args: argparse.Namespace) -> int:
    """`repro workloads record`: simulate once, dump the trace."""
    return _record_to(args.output, args)


def cmd_workloads_replay(args: argparse.Namespace) -> int:
    """`repro workloads replay`: re-simulate a recorded trace."""
    args.workload = _workload(f"trace:{args.trace}")
    runner = _make_runner(args)
    result = runner.run(args.platform, args.workload, _mode(args.mode))
    _print_result(result)
    print(f"fingerprint     : {result.fingerprint()}")
    _finish(runner)
    return 0


# --------------------------------------------------------------------
# `repro scenario` — open-loop traffic scenarios (DESIGN.md section 14)
# --------------------------------------------------------------------


def _resolve_scenario(name: str):
    from repro.scenarios import get_scenario

    try:
        return get_scenario(name)
    except KeyError as exc:
        raise SystemExit(f"repro: {exc.args[0]}")


def cmd_scenario_list(_args: argparse.Namespace) -> int:
    """`repro scenario list`: the scenario registry as a table."""
    from repro.scenarios import SCENARIOS

    rows = [
        (
            spec.name,
            spec.arrivals.kind,
            spec.degradation.kind if spec.degradation else "-",
            spec.title,
        )
        for spec in SCENARIOS.values()
    ]
    print(
        format_table(
            ["name", "arrivals", "degradation", "title"], rows, title="scenarios"
        )
    )
    return 0


def cmd_scenario_describe(args: argparse.Namespace) -> int:
    """`repro scenario describe`: spec, mix, policy and schedule."""
    print(_resolve_scenario(args.name).describe())
    return 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    """`repro scenario run`: one open-loop scenario end to end."""
    from repro.scenarios import run_scenario

    spec = _resolve_scenario(args.name)
    runner = _make_runner(args)
    result = run_scenario(spec, runner, validate=bool(args.validate))
    if args.format == "json":
        payload = result.to_dict()
        payload["fingerprint"] = result.fingerprint()
        payload["checks_run"] = result.checks_run
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        _write_out(text, args.output, f"wrote {args.output}")
    else:
        print(result.report())
        if result.checks_run:
            print(f"audit           : {result.checks_run} checks passed")
    _finish(runner)
    return 0


# --------------------------------------------------------------------
# `repro trace` — composable NDJSON pipeline stages
# --------------------------------------------------------------------

def _trace_source_arg(path: str):
    """Open a trace stage's input: a path, or ``-`` for stdin."""
    from repro.workloads.trace import FileTraceSource

    if path == "-":
        return _read_trace(FileTraceSource, sys.stdin, label="<stdin>")
    return _read_trace(FileTraceSource, path)


def _pump_stage(source, transform=None, passes: int = 1) -> int:
    """Round-robin a source's blocks through ``transform`` onto stdout.

    The stage skeleton every ``repro trace`` subcommand shares: pull one
    block per live warp per round, apply ``transform(warp_id, stream,
    block) -> block | None`` (``None`` drops the warp — its stream is
    ended immediately, preserving the warp count and therefore SM
    placement), and emit the chunked v2 format.  A file input is read
    by per-warp offsets and parks nothing; stdin is read front to back,
    and the round-robin pull keeps both it and a downstream stage
    reading this output near one round of parked blocks.  Peak memory
    is one block per warp regardless of trace length.  ``passes > 1``
    streams the whole source that many times end to end (a
    re-streamable source only); every warp's end marker then waits for
    the last pass.
    """
    from repro.workloads.trace import ChunkedTraceWriter

    writer = ChunkedTraceWriter(sys.stdout, source.meta)
    try:
        for _ in range(passes):
            live = source.streams()
            # Dropped warps keep being pulled one block per round
            # (discarded, never written): on stdin their records would
            # otherwise park unboundedly in the demultiplexer while the
            # surviving warps stream past them.  Once no warp is being
            # *written* any more the stage exits without draining —
            # early termination, upstream sees SIGPIPE.
            drains: list = []
            while live:
                still = []
                for stream in live:
                    block = stream.next_block()
                    if block is None:
                        if passes == 1:
                            writer.end_warp(stream.warp_id)
                        continue
                    if transform is not None:
                        block = transform(stream.warp_id, stream, block)
                        if block is None:
                            writer.end_warp(stream.warp_id)
                            drains.append(stream)
                            continue
                    writer.write_block(
                        stream.warp_id, *block, tenant=stream.tenant
                    )
                    still.append(stream)
                live = still
                drains = [s for s in drains if s.next_block() is not None]
        writer.finish()
        sys.stdout.flush()
    except BrokenPipeError:
        # Downstream (e.g. `repro trace head`) stopped reading: normal
        # pipeline early termination, not an error.  Point stdout at
        # /dev/null so interpreter shutdown doesn't re-raise on flush.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # conventional 128 + SIGPIPE
    return 0


def _parse_warp_set(text: str, num_warps: int) -> set:
    """``"0,2-5,9"`` -> {0, 2, 3, 4, 5, 9}, validated against the count."""
    out: set = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, _, hi = part.partition("-")
        try:
            a = int(lo)
            b = int(hi) if hi else a
        except ValueError:
            raise SystemExit(f"repro: bad warp range {part!r}")
        if a > b or a < 0 or b >= num_warps:
            raise SystemExit(
                f"repro: warp range {part!r} outside 0..{num_warps - 1}"
            )
        out.update(range(a, b + 1))
    if not out:
        raise SystemExit("repro: --warps selected no warps")
    return out


def cmd_trace_cat(args: argparse.Namespace) -> int:
    """`repro trace cat`: normalize any trace to chunked NDJSON."""
    return _pump_stage(_trace_source_arg(args.trace))


def cmd_trace_filter(args: argparse.Namespace) -> int:
    """`repro trace filter`: keep selected warps, empty out the rest.

    Dropped warps stay in the file as legitimately empty streams (an
    end marker and nothing else), so the warp count — and with it each
    surviving warp's SM placement — is preserved on replay.
    """
    source = _trace_source_arg(args.trace)
    keep_warps = (
        _parse_warp_set(args.warps, source.num_warps) if args.warps else None
    )
    keep_tenant = args.tenant

    def transform(warp_id, stream, block):
        if keep_warps is not None and warp_id not in keep_warps:
            return None
        # The tenant label rides the warp's first record, so by the
        # time a block arrives the stream knows it.
        if keep_tenant is not None and stream.tenant != keep_tenant:
            return None
        return block

    return _pump_stage(source, transform)


def cmd_trace_remap(args: argparse.Namespace) -> int:
    """`repro trace remap`: shift (and optionally wrap) every address."""
    offset = args.offset
    wrap = args.wrap
    if wrap < 0:
        raise SystemExit("repro: --wrap must be >= 0")

    def transform(warp_id, stream, block):
        gaps, addrs, writes = block
        if wrap:
            addrs = [(a + offset) % wrap for a in addrs]
        else:
            addrs = [a + offset for a in addrs]
            if offset < 0 and min(addrs) < 0:
                raise SystemExit(
                    "repro: remap produced a negative address "
                    "(offset too negative; add --wrap)"
                )
        return (gaps, addrs, writes)

    return _pump_stage(_trace_source_arg(args.trace), transform)


def cmd_trace_scale(args: argparse.Namespace) -> int:
    """`repro trace scale`: stretch compute gaps / repeat the stream.

    ``--gaps F`` rescales arithmetic intensity; ``--repeat N`` replays
    each warp's stream N times end to end (the cheap way to make a
    long-running trace out of a short recording).  ``--repeat`` needs a
    re-streamable input, i.e. a file path — stdin can only be read
    once and buffering it whole would defeat the streaming pipeline.
    """
    factor = args.gaps
    repeat = args.repeat
    if not 0.0 <= factor < math.inf:  # also false for NaN
        raise SystemExit("repro: --gaps must be a finite number >= 0")
    if repeat < 1:
        raise SystemExit("repro: --repeat must be >= 1")
    if repeat > 1 and args.trace == "-":
        raise SystemExit(
            "repro: --repeat needs a file path (stdin is single-pass); "
            "write the upstream stage to a file first"
        )

    def transform(warp_id, stream, block):
        if factor == 1.0:
            return block
        gaps, addrs, writes = block
        return ([max(0, int(g * factor)) for g in gaps], addrs, writes)

    return _pump_stage(_trace_source_arg(args.trace), transform, passes=repeat)


def cmd_trace_head(args: argparse.Namespace) -> int:
    """`repro trace head`: first N ops of every warp, then stop reading.

    Ends each warp once its budget is spent and exits as soon as every
    warp is done — an upstream stage blocked on the pipe sees SIGPIPE,
    which is how the pipeline terminates early without draining the
    whole input.
    """
    budget = args.ops
    if budget < 0:
        raise SystemExit("repro: --ops must be >= 0")
    remaining = {}

    def transform(warp_id, stream, block):
        left = remaining.setdefault(warp_id, budget)
        if left <= 0:
            return None
        gaps, addrs, writes = block
        if len(addrs) > left:
            gaps, addrs, writes = gaps[:left], addrs[:left], writes[:left]
        remaining[warp_id] = left - len(addrs)
        return (gaps, addrs, writes)

    return _pump_stage(_trace_source_arg(args.trace), transform)


DEFAULT_BATCH_ROOT = ".repro-batch"
DEFAULT_STORE_CACHE = f"{DEFAULT_BATCH_ROOT}/cache"


def _print_batch_statuses(batches) -> None:
    rows = [
        tuple(b.status().to_row()[c] for c in ("batch", "label", "shards", "jobs", "state"))
        for b in batches
    ]
    print(
        format_table(
            ["batch", "label", "shards", "jobs", "state"], rows, title="batches"
        )
    )


def cmd_batch_run(args: argparse.Namespace) -> int:
    """`repro batch run`: shard experiments into a journaled batch."""
    from repro.harness.experiments import batch_jobs_for

    _enable_log("repro.batch")
    root = Path(args.batch_dir or DEFAULT_BATCH_ROOT)
    jobs = batch_jobs_for(tuple(args.experiments), _run_config(args))
    if not jobs:
        raise SystemExit(
            "repro: the selected experiments are analytic (no simulations); "
            "nothing to batch"
        )
    try:
        # BatchError (tampered/older-schema manifest) is handled
        # uniformly in main().
        batch = BatchRun.open(
            root, jobs,
            shard_size=args.shard_size, label=",".join(args.experiments),
        )
    except OSError as exc:
        raise SystemExit(f"repro: --batch-dir: {exc}")
    batch.run(make_executor(args.jobs), _open_cache(args.cache_dir or root / "cache"))
    _print_batch_statuses([batch])
    return 0


def cmd_batch_status(args: argparse.Namespace) -> int:
    """`repro batch status`: shard progress of every batch under a root."""
    batches = BatchRun.discover(Path(args.batch_dir))
    if not batches:
        print(f"no batches under {args.batch_dir}")
        return 0
    _print_batch_statuses(batches)
    return 0


def cmd_batch_resume(args: argparse.Namespace) -> int:
    """`repro batch resume`: finish every incomplete batch's journal."""
    _enable_log("repro.batch")
    root = Path(args.batch_dir)
    batches = BatchRun.discover(root)
    if args.id:
        batches = [b for b in batches if b.batch_id.startswith(args.id)]
        if not batches:
            raise SystemExit(f"repro: no batch under {root} matches id {args.id!r}")
    if not batches:
        print(f"no batches under {root}", file=sys.stderr)
        return 0
    pending = [b for b in batches if not b.status().done]
    executor = make_executor(args.jobs)
    cache = _open_cache(args.cache_dir or root / "cache")
    # Resume *every* batch, not just journal-incomplete ones: run() is
    # a cheap cache probe for a healthy finished batch, and it re-runs
    # shards whose journaled results were pruned from the cache.
    for batch in batches:
        batch.resume(executor, cache)
    if not pending:
        print(
            f"no incomplete batches under {root}; cached results verified",
            file=sys.stderr,
        )
    _print_batch_statuses(batches)
    return 0


def cmd_store_query(args: argparse.Namespace) -> int:
    """`repro store query`: filter cached results by job facets."""
    store = ResultStore(args.cache_dir)
    entries = store.query(
        platform=args.platform,
        workload=args.workload,
        mode=args.mode,
        include_stale=args.include_stale,
    )
    rows = store.rows(entries)
    if args.format == "table":
        text = format_table(
            list(STORE_COLUMNS),
            [tuple(r.get(c) for c in STORE_COLUMNS) for r in rows],
            title=f"store {store.cache_dir} ({len(rows)} entries)",
        ) + "\n"
    else:
        text = EMITTERS[args.format](rows, columns=STORE_COLUMNS)
        if not text.endswith("\n"):
            text += "\n"
    _write_out(text, args.output, f"wrote {len(rows)} entries to {args.output}")
    if store.skipped:
        print(f"store: skipped {store.skipped} unreadable entries", file=sys.stderr)
    return 0


def cmd_store_gc(args: argparse.Namespace) -> int:
    """`repro store gc`: reclaim stale-schema and orphaned entries."""
    store = ResultStore(args.cache_dir)
    doomed = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"store gc: {verb} {len(doomed)} file(s) from {store.cache_dir}")
    for path in doomed:
        print(f"  {path.name}")
    return 0


DEFAULT_SERVICE_ROOT = ".repro-service"
DEFAULT_SERVICE_SOCKET = str(Path(DEFAULT_SERVICE_ROOT) / "serve.sock")


def cmd_serve(args: argparse.Namespace) -> int:
    """`repro serve`: the simulation service daemon (blocking)."""
    from repro.harness.service import ServiceError, serve

    _enable_log("repro.service")
    _enable_log("repro.batch")
    address = args.socket or str(Path(args.root) / "serve.sock")
    try:
        return serve(
            args.root, address, ttl_s=args.lease_ttl, poll_s=args.poll
        )
    except (ServiceError, OSError) as exc:
        raise SystemExit(f"repro: serve: {exc}")


def cmd_worker(args: argparse.Namespace) -> int:
    """`repro worker`: lease and execute shards from a service root."""
    from repro.harness.service import run_worker

    _enable_log("repro.service")
    _enable_log("repro.batch")
    cache = _open_cache(args.cache_dir) if args.cache_dir else None
    stats = run_worker(
        args.root,
        args.owner,
        ttl_s=args.lease_ttl,
        poll_s=args.poll,
        drain=args.drain,
        throttle_s=args.throttle,
        executor=make_executor(args.jobs),
        cache=cache,
        max_shards=args.max_shards,
    )
    print(stats.summary(), file=sys.stderr)
    return 0


def _submit_jobs(args: argparse.Namespace) -> list:
    """The job list a `repro submit` invocation describes."""
    from repro.harness.executor import SimulationJob
    from repro.harness.experiments import batch_jobs_for

    if args.stdin_jobs:
        jobs = []
        for lineno, line in enumerate(sys.stdin, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                jobs.append(SimulationJob.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise SystemExit(
                    f"repro: --stdin-jobs line {lineno}: {exc}"
                )
        return jobs
    return batch_jobs_for(tuple(args.experiments), _run_config(args))


def cmd_submit(args: argparse.Namespace) -> int:
    """`repro submit`: send a job list to the service daemon."""
    from repro.harness.service import ServiceClient, ServiceError

    jobs = _submit_jobs(args)
    if not jobs:
        raise SystemExit(
            "repro: nothing to submit (analytic experiments have no "
            "simulations; pipe NDJSON job records with --stdin-jobs)"
        )
    client = ServiceClient(args.connect)
    try:
        resp = client.submit(
            jobs,
            shard_size=args.shard_size,
            label=args.label or ",".join(args.experiments),
        )
    except (OSError, ServiceError) as exc:
        raise SystemExit(f"repro: cannot reach service at {args.connect}: {exc}")
    if not resp.get("ok"):
        err = resp.get("error", {})
        raise SystemExit(
            f"repro: submit rejected ({err.get('type')}): {err.get('message')}"
        )
    state = "attached to existing batch" if resp.get("existing") else "submitted"
    print(
        f"{state} {resp['batch'][:16]} "
        f"({resp['jobs']} jobs, {resp['shards']} shards, "
        f"{resp['done']} shards already done)",
        file=sys.stderr,
    )
    print(resp["batch"])
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    """`repro watch`: tail a batch's completed shards as NDJSON."""
    from repro.harness.service import ServiceClient, ServiceError

    client = ServiceClient(args.connect)
    last = None
    try:
        for rec in client.watch(
            args.batch,
            results=not args.no_results,
            timeout_s=args.timeout,
        ):
            last = rec
            print(json.dumps(rec, sort_keys=True), flush=True)
    except (OSError, ServiceError) as exc:
        raise SystemExit(f"repro: cannot reach service at {args.connect}: {exc}")
    except BrokenPipeError:
        # Downstream stage (head, jq) closed the pipe: a clean exit,
        # matching the `repro trace` stage conventions.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    if last is None or last.get("ok") is False:
        return 1
    return 0 if last.get("event") == "done" else 1


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse tree for every subcommand.

    A flag that several commands share is declared once, on a parent
    parser (DESIGN.md section 16).  A command lists its parents in the
    order its flags appear in ``--help``; argparse copies a parent's
    flags ahead of the command's own, so a command's own flags that
    precede a shared group sit on a small parent of their own.
    """
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(*parents) -> argparse.ArgumentParser:
        """A parent parser: one run of flags for ``parents=``."""
        return argparse.ArgumentParser(add_help=False, parents=list(parents))

    # -- shared flag groups ---------------------------------------------
    platform = flags()
    platform.add_argument("--platform", choices=list(PLATFORMS), required=True)
    mode = flags()
    mode.add_argument("--mode", choices=[m.value for m in MemoryMode], default="planar")
    workload = flags()
    workload.add_argument("--workload", type=_workload, required=True)

    cli_sizing = SIZING_PRESETS["cli"]
    sizing = flags()
    sizing.add_argument("--warps", type=_positive_int, default=cli_sizing.num_warps)
    sizing.add_argument(
        "--accesses", type=_positive_int, default=cli_sizing.accesses_per_warp
    )
    sizing.add_argument("--quick", action="store_true", help="small fast run")

    jobs = flags()
    jobs.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes for the simulation matrix "
        "(default: every available core; 1 runs in-process)",
    )
    execution = flags(jobs)
    execution.add_argument(
        "--cache-dir", default=None,
        help="persist results here and reuse them across invocations",
    )
    execution.add_argument(
        "--batch-dir", default=None,
        help="journal this command's simulation matrix as a sharded "
        "batch under this directory (resumable after a kill)",
    )
    execution.add_argument(
        "--shard-size", type=_positive_int, default=DEFAULT_SHARD_SIZE,
        help="jobs per journaled shard when batching "
        f"(default: {DEFAULT_SHARD_SIZE})",
    )
    simulating = flags(sizing, execution)
    simulating.add_argument(
        "--validate", action="store_true",
        help="enable the cross-layer invariant audit (DESIGN.md "
        "section 10); any violated conservation law aborts the run",
    )

    output = flags()
    output.add_argument(
        "-o", "--output", default=None,
        help="write to this file instead of stdout",
    )
    connect = flags()
    connect.add_argument(
        "--connect", default=DEFAULT_SERVICE_SOCKET,
        help="daemon address: socket path, unix:<path> or host:port "
        f"(default: {DEFAULT_SERVICE_SOCKET})",
    )
    batch_root = flags()
    batch_root.add_argument(
        "--batch-dir", default=DEFAULT_BATCH_ROOT,
        help=f"batch root directory (default: {DEFAULT_BATCH_ROOT})",
    )
    store_cache = flags()
    store_cache.add_argument(
        "--cache-dir", default=DEFAULT_STORE_CACHE,
        help=f"result cache directory (default: {DEFAULT_STORE_CACHE})",
    )
    trace_input = flags()
    trace_input.add_argument(
        "trace", nargs="?", default="-",
        help="input trace file (v1 or v2, .jsonl/.jsonl.gz); "
        "default `-` reads NDJSON from stdin",
    )

    # -- commands -------------------------------------------------------
    run_source = flags()
    run_src = run_source.add_mutually_exclusive_group(required=True)
    run_src.add_argument(
        "--workload", type=_workload,
        help="a registered workload name (see `repro workloads list`) "
        "or trace:<path> to replay a recorded trace",
    )
    run_src.add_argument(
        "--stdin-trace", action="store_true",
        help="replay a trace piped on stdin (the terminal stage of a "
        "`repro trace ...` pipeline); sizing flags are ignored, the "
        "stream fixes the warp count and access streams",
    )
    run_debug = flags()
    run_debug.add_argument(
        "--profile", action="store_true",
        help="wrap the simulation in cProfile and print the top-25 "
        "cumulative entries",
    )
    run_debug.add_argument(
        "--record-trace", default=None, metavar="PATH",
        help="record the executed per-warp access stream to PATH "
        "(.jsonl or .jsonl.gz) for later replay",
    )
    p_run = sub.add_parser(
        "run", help="simulate one platform/workload",
        parents=[platform, run_source, mode, run_debug, simulating],
    )
    p_run.set_defaults(fn=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="composable NDJSON trace pipeline stages "
        "(cat/filter/remap/scale/head; pipe into `repro run --stdin-trace`)",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_cmd", required=True)

    p_t_cat = trace_sub.add_parser(
        "cat", help="normalize any trace to the chunked NDJSON stream format",
        parents=[trace_input],
    )
    p_t_cat.set_defaults(fn=cmd_trace_cat)

    p_t_filter = trace_sub.add_parser(
        "filter",
        help="keep selected warps (others stay as empty streams, "
        "preserving warp count and SM placement)",
        parents=[trace_input],
    )
    p_t_filter.add_argument(
        "--warps", default=None, metavar="SPEC",
        help="warp ids to keep, e.g. '0,2-5,9'",
    )
    p_t_filter.add_argument(
        "--tenant", default=None, help="keep only this tenant's warps"
    )
    p_t_filter.set_defaults(fn=cmd_trace_filter)

    p_t_remap = trace_sub.add_parser(
        "remap", help="shift (and optionally wrap) every address",
        parents=[trace_input],
    )
    p_t_remap.add_argument(
        "--offset", type=int, default=0, metavar="BYTES",
        help="byte offset added to every address",
    )
    p_t_remap.add_argument(
        "--wrap", type=int, default=0, metavar="BYTES",
        help="wrap addresses modulo this footprint (0 = no wrap)",
    )
    p_t_remap.set_defaults(fn=cmd_trace_remap)

    p_t_scale = trace_sub.add_parser(
        "scale", help="rescale compute gaps and/or repeat the stream",
        parents=[trace_input],
    )
    p_t_scale.add_argument(
        "--gaps", type=float, default=1.0, metavar="FACTOR",
        help="multiply every compute gap by FACTOR (intensity scaling)",
    )
    p_t_scale.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="replay each warp's stream N times end to end "
        "(needs a file path, not stdin)",
    )
    p_t_scale.set_defaults(fn=cmd_trace_scale)

    p_t_head = trace_sub.add_parser(
        "head",
        help="first N ops of every warp; stops reading upstream early",
        parents=[trace_input],
    )
    p_t_head.add_argument(
        "--ops", type=int, required=True, metavar="N",
        help="ops to keep per warp",
    )
    p_t_head.set_defaults(fn=cmd_trace_head)

    p_cmp = sub.add_parser(
        "compare", help="all platforms on one workload",
        parents=[workload, mode, simulating],
    )
    p_cmp.set_defaults(fn=cmd_compare)

    p_wl = sub.add_parser(
        "workloads", help="inspect, record and replay workloads"
    )
    wl_sub = p_wl.add_subparsers(dest="wl_command", required=True)

    p_wl_list = wl_sub.add_parser("list", help="every registered workload")
    p_wl_list.set_defaults(fn=cmd_workloads_list)

    p_wl_desc = wl_sub.add_parser(
        "describe", help="a workload's spec, parameters and family docs"
    )
    p_wl_desc.add_argument("name")
    p_wl_desc.set_defaults(fn=cmd_workloads_describe)

    rec_output = flags()
    rec_output.add_argument(
        "-o", "--output", required=True,
        help="trace path (.jsonl, or .jsonl.gz for compression)",
    )
    p_wl_rec = wl_sub.add_parser(
        "record", help="simulate once and dump the per-warp access trace",
        parents=[platform, workload, mode, rec_output, simulating],
    )
    p_wl_rec.set_defaults(fn=cmd_workloads_record)

    rep_trace = flags()
    rep_trace.add_argument("--trace", required=True, help="recorded trace path")
    p_wl_rep = wl_sub.add_parser(
        "replay", help="re-simulate a recorded trace as the workload",
        parents=[rep_trace, platform, mode, simulating],
    )
    p_wl_rep.set_defaults(fn=cmd_workloads_replay)

    p_scn = sub.add_parser(
        "scenario",
        help="open-loop traffic scenarios: arrivals, SLOs, degradation "
        "(DESIGN.md section 14)",
    )
    scn_sub = p_scn.add_subparsers(dest="scenario_command", required=True)

    p_scn_list = scn_sub.add_parser("list", help="every registered scenario")
    p_scn_list.set_defaults(fn=cmd_scenario_list)

    p_scn_desc = scn_sub.add_parser(
        "describe",
        help="a scenario's arrival process, tenant mix, admission "
        "policy and degradation schedule",
    )
    p_scn_desc.add_argument("name")
    p_scn_desc.set_defaults(fn=cmd_scenario_describe)

    scn_report = flags()
    scn_report.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="report format (default: table)",
    )
    scn_report.add_argument(
        "-o", "--output", default=None,
        help="write the json report to this file instead of stdout",
    )
    p_scn_run = scn_sub.add_parser(
        "run",
        help="run one open-loop scenario: measure per-class service "
        "times (cached/journaled), replay the seeded arrival stream "
        "through admission and capacity queueing, report per-tenant "
        "p50/p99 latency, queueing delay and SLO violations",
        parents=[scn_report, simulating],
    )
    p_scn_run.add_argument("name")
    p_scn_run.set_defaults(fn=cmd_scenario_run)

    p_batch = sub.add_parser(
        "batch", help="sharded, journaled, resumable experiment batches"
    )
    batch_sub = p_batch.add_subparsers(dest="batch_command", required=True)

    batch_exps = flags()
    batch_exps.add_argument(
        "--experiment", dest="experiments", nargs="+", required=True,
        choices=list(EXPERIMENTS), metavar="NAME",
        help="experiments whose job matrices to batch (union, deduplicated)",
    )
    # --batch-dir comes from the execution group; cmd_batch_run defaults
    # it to DEFAULT_BATCH_ROOT (a set_defaults here would rewrite the
    # shared flag's default for every command).
    p_b_run = batch_sub.add_parser(
        "run", help="shard experiments' job matrices into a journaled batch",
        parents=[batch_exps, simulating],
    )
    p_b_run.set_defaults(fn=cmd_batch_run)

    p_b_status = batch_sub.add_parser(
        "status", help="shard progress of every batch under a root",
        parents=[batch_root],
    )
    p_b_status.set_defaults(fn=cmd_batch_status)

    resume_id = flags()
    resume_id.add_argument(
        "--id", default=None,
        help="only resume the batch whose id starts with this prefix",
    )
    p_b_resume = batch_sub.add_parser(
        "resume", help="finish every incomplete batch exactly where it stopped",
        parents=[batch_root, resume_id, jobs],
    )
    p_b_resume.add_argument(
        "--cache-dir", default=None,
        help="result cache (default: <batch-dir>/cache)",
    )
    p_b_resume.set_defaults(fn=cmd_batch_resume)

    p_store = sub.add_parser(
        "store", help="query and garbage-collect the persistent result store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    query_facets = flags()
    query_facets.add_argument("--platform", default=None, help="exact platform name")
    query_facets.add_argument("--workload", default=None, help="exact workload name")
    query_facets.add_argument(
        "--mode", choices=[m.value for m in MemoryMode], default=None
    )
    query_facets.add_argument(
        "--include-stale", action="store_true",
        help="also list entries written under stale schema versions",
    )
    query_facets.add_argument(
        "--format", choices=["table", *EMITTERS], default="table",
        help="output format (default: table)",
    )
    p_s_query = store_sub.add_parser(
        "query", help="filter cached results by job facets",
        parents=[store_cache, query_facets, output],
    )
    p_s_query.set_defaults(fn=cmd_store_query)

    p_s_gc = store_sub.add_parser(
        "gc", help="remove stale-schema entries and orphaned temp files",
        parents=[store_cache],
    )
    p_s_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without removing it",
    )
    p_s_gc.set_defaults(fn=cmd_store_gc)

    p_serve = sub.add_parser(
        "serve",
        help="simulation service daemon: NDJSON submissions over a socket",
    )
    p_serve.add_argument(
        "--root", default=DEFAULT_SERVICE_ROOT,
        help="batch root shared with the workers "
        f"(default: {DEFAULT_SERVICE_ROOT})",
    )
    p_serve.add_argument(
        "--socket", default=None,
        help="listen address: a unix socket path, unix:<path>, or "
        "host:port / tcp:host:port (default: <root>/serve.sock)",
    )
    p_serve.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="seconds a worker lease survives without a heartbeat "
        "before its shard is reclaimable (default: 30)",
    )
    p_serve.add_argument(
        "--poll", type=float, default=0.2,
        help="journal poll interval for watch streams (default: 0.2s)",
    )
    p_serve.set_defaults(fn=cmd_serve)

    p_worker = sub.add_parser(
        "worker",
        help="execute leased shards from a shared service root",
    )
    p_worker.add_argument(
        "--root", default=DEFAULT_SERVICE_ROOT,
        help="batch root shared with the daemon and other workers "
        f"(default: {DEFAULT_SERVICE_ROOT})",
    )
    p_worker.add_argument(
        "--owner", default=None,
        help="lease owner id (default: host-pid-random, always unique)",
    )
    p_worker.add_argument(
        "--lease-ttl", type=float, default=30.0,
        help="lease TTL in seconds; must match the fleet's (default: 30)",
    )
    p_worker.add_argument(
        "--poll", type=float, default=0.5,
        help="idle poll interval between root scans (default: 0.5s)",
    )
    p_worker.add_argument(
        "--drain", action="store_true",
        help="exit once every discovered batch is complete instead of "
        "polling for new submissions forever",
    )
    p_worker.add_argument(
        "--throttle", type=float, default=0.0,
        help="sleep this many seconds after every executed job "
        "(rate-limit on shared machines; default: 0)",
    )
    p_worker.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="executor processes for each leased shard (default: 1; "
        "workers are themselves the unit of parallelism)",
    )
    p_worker.add_argument(
        "--max-shards", type=_positive_int, default=None,
        help="stop after executing this many shards",
    )
    p_worker.add_argument(
        "--cache-dir", default=None,
        help="override the shared result cache (default: <root>/cache)",
    )
    p_worker.set_defaults(fn=cmd_worker)

    submit_source = flags()
    submit_source.add_argument(
        "--experiment", dest="experiments", nargs="+", default=[],
        choices=list(EXPERIMENTS), metavar="NAME",
        help="experiments whose simulation matrices to submit "
        "(union, deduplicated)",
    )
    submit_source.add_argument(
        "--stdin-jobs", action="store_true",
        help="read NDJSON job records (SimulationJob.to_dict shape) "
        "from stdin instead of expanding experiments",
    )
    submit_batch = flags()
    submit_batch.add_argument(
        "--shard-size", type=_positive_int, default=DEFAULT_SHARD_SIZE,
        help=f"jobs per leased shard (default: {DEFAULT_SHARD_SIZE})",
    )
    submit_batch.add_argument("--label", default=None, help="batch label")
    p_submit = sub.add_parser(
        "submit", help="send a job matrix to the service daemon",
        parents=[submit_source, connect, submit_batch, sizing],
    )
    p_submit.add_argument(
        "--validate", action="store_true",
        help="submit the jobs with the invariant audit armed",
    )
    p_submit.set_defaults(fn=cmd_submit)

    p_watch = sub.add_parser(
        "watch",
        help="stream a batch's completed shards as NDJSON (tails live)",
        parents=[connect],
    )
    p_watch.add_argument(
        "batch", help="batch id (any unambiguous prefix) or b-<dir> name"
    )
    p_watch.add_argument(
        "--no-results", action="store_true",
        help="emit only shard records, not per-job result rows",
    )
    p_watch.add_argument(
        "--timeout", type=float, default=None,
        help="give up (exit 1) after this many seconds without "
        "completion (default: wait forever)",
    )
    p_watch.set_defaults(fn=cmd_watch)

    p_exp = sub.add_parser(
        "experiment", help="regenerate a figure/table", parents=[simulating]
    )
    p_exp.add_argument("name", choices=list(EXPERIMENTS))
    p_exp.set_defaults(fn=cmd_experiment)

    export_format = flags()
    export_format.add_argument(
        "--format", choices=list(EMITTERS), default="json",
        help="output format (default: json)",
    )
    p_export = sub.add_parser(
        "export", help="emit a figure/table as structured data",
        parents=[export_format, output, simulating],
    )
    p_export.add_argument("name", choices=list(EXPERIMENTS))
    p_export.set_defaults(fn=cmd_export)

    audit_scope = flags()
    audit_scope.add_argument(
        "--smoke", action="store_true",
        help="CI-sized gate: a representative workload subset at small "
        "sizing instead of the full registry",
    )
    audit_scope.add_argument(
        "--platform", nargs="*", choices=list(PLATFORMS), metavar="NAME",
        help="restrict to these platforms (default: all)",
    )
    audit_scope.add_argument(
        "--workload", nargs="*", type=_workload, metavar="NAME",
        help="restrict to these workloads (default: the full registry)",
    )
    audit_scope.add_argument(
        "--mode", choices=[m.value for m in MemoryMode], default=None,
        help="restrict to one memory mode (default: both)",
    )
    audit_scope.add_argument(
        "--warps", type=_positive_int, default=None,
        help="override the audit sizing's warp count",
    )
    audit_scope.add_argument(
        "--accesses", type=_positive_int, default=None,
        help="override the audit sizing's accesses per warp",
    )
    audit_report = flags()
    audit_report.add_argument(
        "--format", choices=["table", *EMITTERS], default="table",
        help="report format (default: table of violating jobs only)",
    )
    p_audit = sub.add_parser(
        "audit",
        help="invariant-check the workload x platform matrix "
        "(cross-layer conservation laws, DESIGN.md section 10)",
        parents=[audit_scope, jobs, audit_report, output],
    )
    p_audit.set_defaults(fn=cmd_audit)

    p_perf = sub.add_parser(
        "perf", help="benchmark the simulator core (events/sec)"
    )
    p_perf.add_argument(
        "--smoke", action="store_true",
        help="quick CI-sized cases instead of figure-sized ones",
    )
    p_perf.add_argument(
        "--repeats", type=_positive_int, default=3,
        help="timed runs per case; the best is reported (default: 3)",
    )
    p_perf.add_argument(
        "-o", "--output", default="BENCH_perf.json",
        help="write the before/after payload here (default: BENCH_perf.json)",
    )
    p_perf.add_argument(
        "--compare", default=None, metavar="OLD_JSON",
        help="diff this run's numbers against an earlier BENCH_perf.json "
        "and exit non-zero on a >10%% events/sec regression in any case",
    )
    p_perf.set_defaults(fn=cmd_perf)

    p_lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's own AST rule-checker "
        "(hot-path / determinism / audit-placement rules)",
    )
    p_lint.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    p_lint.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="output format (default: table)",
    )
    p_lint.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (e.g. R2,R3; default: all)",
    )
    p_lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also print pragma-suppressed findings with their reasons",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue (DESIGN.md section 15) and exit",
    )
    p_lint.set_defaults(fn=cmd_lint)

    p_list = sub.add_parser("list", help="list platforms/workloads/experiments")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (console script ``repro``)."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BatchError as exc:
        # Raised wherever a batch directory turns out corrupt or
        # inconsistent — including mid-command through Runner's
        # --batch-dir path, which no per-command handler sees.
        raise SystemExit(f"repro: {exc}")
    except InvariantError as exc:
        # A --validate run tripped a cross-layer conservation law;
        # surface every recorded violation, not a traceback.
        raise SystemExit(f"repro: invariant audit failed: {exc}")
    except (WorkloadSizingError, TraceFormatError) as exc:
        # Raised while building or streaming traces — a corrupt record
        # deep in a trace file surfaces mid-drain, possibly in a pool
        # worker — so no per-command handler sees it.
        raise SystemExit(f"repro: {exc}")
    except EnvSettingError as exc:
        # A usage error like a bad flag (exit 2), read where a job
        # first needs it — possibly in a pool worker.
        print(f"repro: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
