"""One benchmark workload, run in a fresh interpreter.

``run.py`` spawns this file once per measured iteration.  It imports
``repro.cli`` and drives the experiment registry the way
``repro experiment`` does, except that the workload seed is passed in
(the CLI has no ``--seed`` flag).  Layers are timed from outside, by
wrapping their public entry points:

* ``plain``   -- per-job timestamps only: trace generation
  (``executor.source_for``), model construction and drain
  (``GpuModel.__init__`` / ``GpuModel.run``).
* ``traced``  -- plain, plus spans around experiments, ``Runner.run_jobs``
  and printing, and call tallies of ``ResultCache.get`` and the warp
  lane's block advance (``WarpLane._advance``, which pulls
  ``WarpStream.next_block``).
* ``capture`` -- re-simulates the workload's jobs on the reference slice
  path, records every slice ``serve`` call and every DRAM / XPoint
  device call with its result, and replays both into fresh objects to
  time each layer in isolation.

Spans ``[name, start, end, parent, job]`` and tallies stay in memory and
are written, with the fingerprints, to the ``--out`` JSON file when the
child exits.

    python3 perfbench/child.py --workload headline_matrix --seed 7 \\
        --mode traced --out spans.json
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

import repro.cli as cli  # noqa: E402

T_IMPORTED = time.perf_counter()

from repro import MemoryMode, ResultCache, RunConfig, Runner  # noqa: E402
from repro.channel.electrical import ElectricalChannel  # noqa: E402
from repro.core.platforms import PLATFORMS, build_memory_system  # noqa: E402
from repro.core.slices import PlanarSlice  # noqa: E402
from repro.dram.device import DramDevice  # noqa: E402
from repro.gpu.gpu import GpuModel  # noqa: E402
from repro.gpu.warp import WarpLane  # noqa: E402
from repro.harness import executor  # noqa: E402
from repro.harness.registry import EXPERIMENTS, run_spec  # noqa: E402
from repro.sim.stats import Stats  # noqa: E402
from repro.workloads.registry import get_workload_def  # noqa: E402
from repro.xpoint.controller import XPointController  # noqa: E402

#: Figure-bench sizing (``benchmarks/conftest.py``) and ``--quick``.
FIGURE_SIZING = dict(num_warps=192, accesses_per_warp=96)
QUICK_SIZING = dict(num_warps=48, accesses_per_warp=32)
STREAM_SIZING = dict(num_warps=288, accesses_per_warp=1024)
STREAM_PLATFORMS = ("Hetero", "Ohm-BW")
STREAM_WORKLOAD = "stream_scan_r25"
#: Every registered experiment that simulates (the rest are analytic).
WARM_EXPERIMENTS = (
    "fig8", "families", "fig16", "fig17", "fig18", "fig19", "fig20a",
    "fig21", "headline",
)


def job_key(job) -> str:
    rc = job.run_cfg
    return (
        f"{job.platform}|{job.workload}|{job.mode.value}|"
        f"{rc.num_warps}x{rc.accesses_per_warp}|wg{rc.waveguides}"
    )


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, job]``.

    Calls made thousands of times per job are tallied instead
    (``name -> [calls, seconds]``), so tracing stays cheap and small.
    """

    def __init__(self) -> None:
        self.spans = []
        self.tallies = {}
        self._stack = []
        self.job = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.job])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return timed

    def tally(self, name: str, fn):
        entry = self.tallies.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def timed(*args):
            t0 = clock()
            try:
                return fn(*args)
            finally:
                entry[0] += 1
                entry[1] += clock() - t0

        return timed


class Session:
    """Instruments the program for one child and collects its results."""

    def __init__(self, traced: bool) -> None:
        self.tracer = Tracer()
        self.traced = traced
        self.results = []
        self.events = {}
        self.cache_hits = 0
        self.cache_misses = 0
        tracer = self.tracer
        source_for = executor.source_for
        session = self

        def timed_source_for(job, cfg):
            tracer.job = job_key(job)
            index = tracer.begin("trace")
            try:
                return source_for(job, cfg)
            finally:
                tracer.end(index)

        class TimedModel(GpuModel):
            def __init__(self, *args, **kwargs):
                index = tracer.begin("build")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.end(index)

            def run(self, *args, **kwargs):
                index = tracer.begin("drain")
                try:
                    return super().run(*args, **kwargs)
                finally:
                    tracer.end(index)
                    session.events[tracer.job] = self.engine.events_processed

        executor.source_for = timed_source_for
        executor.GpuModel = TimedModel
        if traced:
            # The lane's block advance: pulls WarpStream.next_block for
            # streamed warps, ends materialized ones.
            WarpLane._advance = tracer.tally("next_block", WarpLane._advance)

    def runner(self, run_cfg: RunConfig, cache=None) -> Runner:
        runner = Runner(run_cfg, cache=cache)
        run_jobs = runner.run_jobs
        if self.traced:
            run_jobs = self.tracer.wrap("run_jobs", run_jobs)
            if cache is not None:
                cache.get = self.tracer.tally("cache.get", cache.get)

        def collecting(jobs):
            results = run_jobs(jobs)
            self.results.extend(results.items())
            return results

        runner.run_jobs = collecting
        return runner

    def experiment(self, name: str, runner: Runner):
        """``repro experiment <name>``: evaluate, print, cache summary."""
        index = self.tracer.begin("experiment") if self.traced else None
        result = run_spec(EXPERIMENTS[name], runner)
        printer = cli.PRINTERS.get(name, cli._print_rows)
        if self.traced:
            printer = self.tracer.wrap("print", printer)
        printer(result)
        if runner.cache is not None:
            print(runner.cache.summary(), file=sys.stderr)
            self.cache_hits += runner.cache.hits
            self.cache_misses += runner.cache.misses
        if index is not None:
            self.tracer.end(index)
        return result.payload

    def first_results(self):
        """``key -> (job, result)`` of each job's first result."""
        firsts = {}
        for job, result in self.results:
            firsts.setdefault(job_key(job), (job, result))
        return firsts

    def fingerprints(self):
        """Each job's fingerprint, taken after the workload has ended.

        A job that several experiments evaluate must get equal results
        from all of them, else it is marked inconsistent.
        """
        firsts = self.first_results()
        out = {key: result.fingerprint() for key, (_, result) in firsts.items()}
        for job, result in self.results:
            if result != firsts[job_key(job)][1]:
                out[job_key(job)] = "inconsistent"
        return out

    def probe_cache(self, cache_dir) -> None:
        """Time one cold ``ResultCache.get`` per job of a workload that
        runs without a cache (what ``--cache-dir`` would add to it)."""
        cache = ResultCache(cache_dir)
        get = self.tracer.tally("cache.get", cache.get)
        for job, _ in self.first_results().values():
            get(job)
        self.cache_misses += cache.misses


# -- workloads -----------------------------------------------------------


def headline_matrix(session: Session, seed: int, cache_dir):
    runner = session.runner(RunConfig(seed=seed, **FIGURE_SIZING))
    return session.experiment("headline", runner)


def write_mix_stream(session: Session, seed: int, cache_dir):
    runner = session.runner(RunConfig(seed=seed, **STREAM_SIZING))
    index = session.tracer.begin("experiment") if session.traced else None
    jobs = stream_jobs(runner.run_cfg)
    results = runner.run_jobs(jobs)
    for job in jobs:
        cli._print_result(results[job])
    if index is not None:
        session.tracer.end(index)
    return None


def warm_rerun(session: Session, seed: int, cache_dir):
    # One runner and one cache handle per experiment, exactly as a
    # separate ``repro experiment <name> --quick --cache-dir`` would.
    payload = None
    for name in WARM_EXPERIMENTS:
        runner = session.runner(
            RunConfig(seed=seed, **QUICK_SIZING), cache=ResultCache(cache_dir)
        )
        payload = session.experiment(name, runner)
    return payload


def quick_headline(session: Session, seed: int, cache_dir):
    runner = session.runner(RunConfig(seed=seed, **QUICK_SIZING))
    return session.experiment("headline", runner)


WORKLOADS = {
    "headline_matrix": headline_matrix,
    "write_mix_stream": write_mix_stream,
    "warm_rerun": warm_rerun,
    "quick_headline": quick_headline,
}


def stream_jobs(run_cfg: RunConfig):
    return [
        executor.SimulationJob(p, STREAM_WORKLOAD, MemoryMode.PLANAR, run_cfg)
        for p in STREAM_PLATFORMS
    ]


def simulated_jobs(workload: str, seed: int):
    """The jobs a workload simulates (warm_rerun: when filling its cache)."""
    if workload == "headline_matrix":
        return list(EXPERIMENTS["headline"].jobs(RunConfig(seed=seed, **FIGURE_SIZING)))
    if workload == "write_mix_stream":
        return stream_jobs(RunConfig(seed=seed, **STREAM_SIZING))
    run_cfg = RunConfig(seed=seed, **QUICK_SIZING)
    jobs = (job for name in WARM_EXPERIMENTS for job in EXPERIMENTS[name].jobs(run_cfg))
    return list(dict.fromkeys(jobs))


# -- capture and replay ----------------------------------------------------


#: A platform and mode whose memory system is made of each slice class.
CLASS_SOURCES = {
    "OriginSlice": ("Origin", MemoryMode.PLANAR),
    "PlanarSlice-optical": ("Ohm-BW", MemoryMode.PLANAR),
    "PlanarSlice-electrical": ("Hetero", MemoryMode.PLANAR),
    "TwoLevelSlice": ("Ohm-BW", MemoryMode.TWO_LEVEL),
}


def slice_label(sl) -> str:
    name = type(sl).__name__
    if isinstance(sl, PlanarSlice):
        kind = "electrical" if type(sl.chan) is ElectricalChannel else "optical"
        return f"{name}-{kind}"
    return name


#: Integer arguments and results stored per logged device call:
#: ``code, arg0, arg1, arg2, result0, result1`` where ``code`` is
#: ``method_index * 4 + argument_count`` and ``result1`` is -1 unless
#: the method returns a pair (times are never negative).
LOG_WIDTH = 6


class DeviceRecorder:
    """Stands in for a device: forwards every call and logs the
    mutating ones, with their results, in call order."""

    def __init__(self, device, methods, log) -> None:
        self._device = device
        for index, name in enumerate(methods):
            setattr(self, name, self._recording(index, getattr(device, name), log.extend))

    @staticmethod
    def _recording(index, method, extend):
        def call(*args):
            result = method(*args)
            r0, r1 = result if type(result) is tuple else (result, -1)
            padded = args + (0, 0, 0)
            extend((index * 4 + len(args), padded[0], padded[1], padded[2], r0, r1))
            return result

        return call

    def __getattr__(self, name):
        return getattr(self._device, name)


#: The device calls that change device state, per device layer.
DEVICE_CALLS = {
    "dram": ("access", "occupy_bank", "activate_for_swap"),
    "xpoint": ("read", "write", "snarf_write", "flush"),
}


def timer_overhead_ns() -> int:
    """Median cost of one back-to-back ``perf_counter_ns`` pair."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(2001):
        t0 = clock()
        samples.append(clock() - t0)
    samples.sort()
    return samples[len(samples) // 2]


def replay_serves(platform, cfg, log, reference: bool):
    """Replay a captured serve stream into a fresh memory system.

    Returns ``(seconds, mismatches)``; the stream is replayed in its
    captured global order, because slices can share state (Origin's
    PCIe link, the optical channel).
    """
    memory = build_memory_system(platform, cfg, Stats())
    if reference:
        for sl in memory.slices:
            sl.refresh_channel_binding()
    serves = [sl.serve for sl in memory.slices]
    calls = [serves[sid] for sid in log[0]]
    writes = log[2]
    addrs, nows, expected = (col.tolist() for col in (log[1], log[3], log[4]))
    gc.disable()
    try:
        t0 = time.perf_counter()
        got = [f(a, w, t) for f, a, w, t in zip(calls, addrs, writes, nows)]
        seconds = time.perf_counter() - t0
    finally:
        gc.enable()
    return seconds, sum(1 for g, e in zip(got, expected) if g != e)


def replay_device(fresh, methods, log, overhead_ns: int, totals: dict) -> int:
    """Replay one device's call log into ``fresh``; returns mismatches.

    Each call is timed on its own (minus the timer's own cost), so the
    per-method times stay separable when call kinds interleave.
    """
    clock = time.perf_counter_ns
    bound = [getattr(fresh, name) for name in methods]
    spent = [0] * len(methods)
    count = [0] * len(methods)
    mismatches = 0
    gc.disable()
    try:
        for i in range(0, len(log), LOG_WIDTH):
            code, a0, a1, a2, r0, r1 = log[i:i + LOG_WIDTH]
            index, nargs = divmod(code, 4)
            args = (a0, a1, a2)[:nargs]
            method = bound[index]
            t0 = clock()
            got = method(*args)
            spent[index] += clock() - t0 - overhead_ns
            count[index] += 1
            if got != (r0 if r1 < 0 else (r0, r1)):
                mismatches += 1
    finally:
        gc.enable()
    for name, n, ns in zip(methods, count, spent):
        if n:
            entry = totals.setdefault(name, [0, 0])
            entry[0] += n
            entry[1] += ns
    return mismatches


def capture_job(job, overhead_ns: int, out: dict, own: bool = True) -> None:
    """Reference-path run of one job with slice and device capture.

    A job that is not the workload's ``own`` only adds to the per-class
    slice times, not to the drain, device or fingerprint figures.
    """
    cfg = job.resolved_config()
    platform = PLATFORMS[job.platform]
    traces = executor.source_for(job, cfg)
    model = GpuModel(platform, cfg, get_workload_def(job.workload).spec, traces)
    # Columns: slice index, address, is_write, arrival time, completion.
    serve_log = ([], array("q"), [], array("q"), array("q"))
    sids, addrs, writes, nows, dones = (col.append for col in serve_log)
    device_logs = []
    for sid, sl in enumerate(model.memory.slices):
        sl.refresh_channel_binding()
        serve = sl.serve

        def recorded(addr, is_write, now, _serve=serve, _sid=sid):
            done = _serve(addr, is_write, now)
            sids(_sid)
            addrs(addr)
            writes(is_write)
            nows(now)
            dones(done)
            return done

        sl.serve = recorded
        for layer, attr in (("dram", "dram"), ("xpoint", "xp")):
            device = getattr(sl, attr, None)
            if device is not None:
                log = array("q")
                device_logs.append((layer, device, log))
                setattr(sl, attr, DeviceRecorder(device, DEVICE_CALLS[layer], log))
    result = model.run()
    label = slice_label(model.memory.slices[0])
    fast_s, fast_bad = replay_serves(platform, cfg, serve_log, reference=False)
    ref_s, ref_bad = replay_serves(platform, cfg, serve_log, reference=True)
    calls = len(serve_log[0])
    entry = out["slices"].setdefault(label, {"calls": 0, "fast_s": 0.0, "ref_s": 0.0})
    entry["calls"] += calls
    entry["fast_s"] += fast_s
    entry["ref_s"] += ref_s
    out["serve_mismatches"] += fast_bad + ref_bad
    if not own:
        return
    out["fingerprints"][job_key(job)] = result.fingerprint()
    out["replay_fast_s"] += fast_s
    for layer, device, log in device_logs:
        if layer == "dram":
            fresh = DramDevice(
                device.cfg, device.capacity_bytes, Stats(), device.name,
                device.enable_refresh,
            )
        else:
            fresh = XPointController(
                device.cfg, device.device.capacity_bytes, Stats(), device.name,
                device.read_buffer_entries, device.write_buffer_entries,
            )
        layer_out = out["devices"].setdefault(layer, {"mismatches": 0, "calls": {}})
        layer_out["mismatches"] += replay_device(
            fresh, DEVICE_CALLS[layer], log, overhead_ns, layer_out["calls"]
        )


def capture(workload: str, seed: int) -> dict:
    out = {
        "fingerprints": {},
        "slices": {},
        "devices": {},
        "replay_fast_s": 0.0,
        "serve_mismatches": 0,
    }
    overhead_ns = timer_overhead_ns()
    jobs = simulated_jobs(workload, seed)
    for job in jobs:
        capture_job(job, overhead_ns, out)
    # Slice classes the workload does not build are timed on its first
    # workload's traffic at figure-bench sizing, so every class reports.
    first = jobs[0]
    for label, (platform, mode) in CLASS_SOURCES.items():
        if label not in out["slices"]:
            run_cfg = RunConfig(seed=seed, **FIGURE_SIZING)
            extra = executor.SimulationJob(platform, first.workload, mode, run_cfg)
            capture_job(extra, overhead_ns, out, own=False)
    return out


# -- entry point -----------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--mode", choices=("plain", "traced", "capture"), default="plain"
    )
    parser.add_argument("--cache-dir")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    record = {"t_start": T_START, "t_imported": T_IMPORTED}
    if args.mode == "capture":
        record.update(capture(args.workload, args.seed))
    else:
        session = Session(traced=args.mode == "traced")
        payload = WORKLOADS[args.workload](session, args.seed, args.cache_dir)
        if session.traced and not session.cache_hits + session.cache_misses:
            session.probe_cache(args.cache_dir)
        record.update(
            payload=payload,
            spans=session.tracer.spans,
            tallies=session.tracer.tallies,
            fingerprints=session.fingerprints(),
            events=session.events,
            migration={
                key: result.migration_bandwidth_fraction
                for key, (_, result) in session.first_results().items()
            } if session.traced else {},
            cache_hits=session.cache_hits,
            cache_misses=session.cache_misses,
            trace_stats=executor.trace_cache_stats(),
        )
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
