"""Repository benchmark: fresh-process experiment runs, timed layer by layer.

    python3 perfbench/run.py --workload headline_matrix --seed 7 --seconds 30 --trace 0

Every workload is a closed loop with one client: one child process at a
time (``perfbench/child.py``), each a fresh interpreter that imports
``repro.cli`` and evaluates the workload serially.  The workload seed
becomes ``RunConfig.seed``, so a seed changes every generated trace.

Workloads:

* ``headline_matrix``  -- ``repro experiment headline`` at figure-bench
  sizing (192 warps x 96 accesses): Ohm-BW / Origin / Ohm-base x planar /
  two_level x the ten Table II workloads, 60 jobs.
* ``write_mix_stream`` -- ``stream_scan_r25`` (75% writes), planar, on
  Hetero then Ohm-BW at 288 x 1024: above the streaming threshold, so the
  traces are spilled once and streamed through ``WarpStream``.
* ``warm_rerun``       -- the nine simulating experiments at ``--quick``
  sizing, re-served from a ``ResultCache`` filled before timing starts.

``--trace 0`` repeats the workload for ``--seconds`` seconds and reports
medians of the end-to-end metrics.  ``--trace 1`` makes one traced run,
one untraced run, one capture-and-replay run (every slice ``serve`` call
and every DRAM / XPoint call of the workload replayed into fresh
objects) and the bare CLI command, and reports the per-layer metrics.
Either way every metric is printed as a table, the full record (with
provenance) as a JSON line, and, last, the result line.

Correctness: every job's ``RunResult.fingerprint()`` must equal the
pinned one in ``perfbench/pins.json`` at seed 7, and at any other seed
must repeat across every run of the invocation.  ``--write-pins``
refreshes the pins of one workload from a run at seed 7.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
PINS = HERE / "pins.json"
CHILD = HERE / "child.py"

WORKLOADS = ("headline_matrix", "write_mix_stream", "warm_rerun")
PIN_SEED = 7
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 150
#: The paper's headline speedups of Ohm-BW over Origin and Ohm-base.
PAPER_SPEEDUP = {"origin": 2.81, "base": 1.27}
WARM_EXPERIMENTS = (
    "fig8", "families", "fig16", "fig17", "fig18", "fig19", "fig20a",
    "fig21", "headline",
)
SLICE_LAYERS = (
    "OriginSlice", "PlanarSlice-optical", "PlanarSlice-electrical",
    "TwoLevelSlice",
)
#: Device metric -> (logged layer, logged methods).
DEVICE_METRICS = {
    "dram.access_ns": ("dram", ("access",)),
    "xpoint.read_ns": ("xpoint", ("read",)),
    "xpoint.write_ns": ("xpoint", ("write", "snarf_write")),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def bare_commands(workload, cache_dir):
    """The plain CLI invocations equivalent to one workload run."""
    cli = ["-m", "repro.cli"]
    if workload == "headline_matrix":
        return [cli + ["experiment", "headline", "--warps", "192", "--accesses", "96"]]
    if workload == "write_mix_stream":
        return [
            cli + [
                "run", "--platform", p, "--workload", "stream_scan_r25",
                "--mode", "planar", "--warps", "288", "--accesses", "1024",
            ]
            for p in ("Hetero", "Ohm-BW")
        ]
    return [
        cli + ["experiment", name, "--quick", "--cache-dir", str(cache_dir)]
        for name in WARM_EXPERIMENTS
    ]


class ChildFailed(Exception):
    pass


class Bench:
    def __init__(self, workload, seed, seconds, run_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.cache_dir = run_dir / "cache"
        # Children import from a warm bytecode cache kept in the work
        # directory (the set-up compiles it once), whatever the caller's
        # PYTHONDONTWRITEBYTECODE says; temp files (trace spills) stay
        # in the run directory.
        self.env = dict(
            os.environ, PYTHONPATH=str(SRC), TMPDIR=str(run_dir),
            PYTHONPYCACHEPREFIX=str(WORK / "pycache"),
        )
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.fidelity_payload = None
        self.sim_record = None

    # -- processes -------------------------------------------------------

    def spawn(self, argv):
        """Run one child to completion: wall seconds, peak RSS, spawn time."""
        self.runs += 1
        err_path = self.run_dir / f"stderr-{self.runs}.txt"
        with open(err_path, "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=ROOT, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text()[-2000:]
            raise ChildFailed(f"{' '.join(argv)} exited {proc.returncode}:\n{tail}")
        return wall, usage.ru_maxrss / 1024.0, t_spawn

    def child(self, mode, workload=None):
        out = self.run_dir / f"child-{self.runs + 1}.json"
        argv = [
            str(CHILD), "--workload", workload or self.workload,
            "--seed", str(self.seed), "--mode", mode, "--out", str(out),
            "--cache-dir", str(self.cache_dir),
        ]
        wall, rss, t_spawn = self.spawn(argv)
        record = json.loads(out.read_text())
        record.update(wall=wall, rss=rss, t_spawn=t_spawn)
        return record

    # -- set-up and correctness --------------------------------------------

    def prepare(self, traced):
        """Untimed set-up: byte-compile, fill caches, fidelity reference."""
        self.spawn(["-c", "import repro.cli"])
        if self.seed == PIN_SEED and PINS.exists():
            self.expected = json.loads(PINS.read_text()).get(self.workload)
        if self.workload == "warm_rerun":
            # The fill is the only part of this workload that simulates;
            # traced, it gives the simulation layers' figures.
            fill = self.child("traced" if traced else "plain")
            self.check(fill["fingerprints"])
            self.sim_record = fill if traced else None
        elif self.workload == "write_mix_stream" and traced:
            # This workload holds no headline experiment; its fidelity
            # figures come from the quick headline at the same seed.
            self.fidelity_payload = self.child("plain", "quick_headline")["payload"]

    def check(self, fingerprints):
        """Count the jobs of one run and those whose fingerprint is wrong."""
        if self.expected is None:
            self.expected = fingerprints
        self.attempted += len(self.expected)
        self.failed += sum(
            1 for key, fp in self.expected.items() if fingerprints.get(key) != fp
        )

    def run_checked(self, mode):
        try:
            record = self.child(mode)
        except ChildFailed as exc:
            print(exc, file=sys.stderr)
            self.attempted += len(self.expected or ()) or 1
            self.failed += len(self.expected or ()) or 1
            return None
        self.check(record["fingerprints"])
        return record

    # -- metrics -----------------------------------------------------------

    @staticmethod
    def span_totals(record):
        totals = defaultdict(float)
        for name, start, end, _parent, _job in record["spans"]:
            totals[name] += end - start
        return totals

    def end_to_end(self, record):
        totals = self.span_totals(record)
        return {
            "wall_s": record["wall"],
            "setup_s": record["t_imported"] - record["t_spawn"]
            + totals["trace"] + totals["build"],
            "peak_rss_mib": record["rss"],
        }

    def measure(self):
        """``--trace 0``: repeat the workload, report medians."""
        samples = []
        attempts = 0
        begin = time.perf_counter()
        while True:
            record = self.run_checked("plain")
            attempts += 1
            if record is not None:
                samples.append(self.end_to_end(record))
            elapsed = time.perf_counter() - begin
            # Stop before a run that would end past the measuring window.
            typical = elapsed / attempts
            if attempts >= MIN_SAMPLES and elapsed + typical > self.seconds:
                break
        if not samples:
            raise ChildFailed("no run of the workload completed")
        metrics = {
            name: statistics.median(s[name] for s in samples)
            for name in END_TO_END_UNITS
        }
        return metrics, len(samples)

    def bare_cli_wall(self):
        cache_dir = self.run_dir / "bare-cache"
        commands = bare_commands(self.workload, cache_dir)
        if self.workload == "warm_rerun":
            for argv in commands:  # fill the CLI's own (default-seed) cache
                self.spawn(argv)
        return sum(self.spawn(argv)[0] for argv in commands)

    def layers(self):
        """``--trace 1``: one traced run plus replays -> per-layer metrics."""
        traced = self.run_checked("traced")
        untraced = self.run_checked("plain")
        if traced is None or untraced is None:
            raise ChildFailed("the traced or the untraced run failed")
        # The capture run simulates on the reference slice path; its
        # fingerprints must match the fast path's pins too.
        captured = self.child("capture")
        if captured["fingerprints"]:
            self.check(captured["fingerprints"])
        sim = self.sim_record or traced
        totals = self.span_totals(sim)
        harness = self.span_totals(traced)
        events = sum(sim["events"].values())
        stats = sim["trace_stats"]
        built = stats["memo_builds"] + stats["spill_builds"]
        reused = stats["memo_hits"] + stats["spill_hits"]
        probes, probe_s = traced["tallies"].get("cache.get", (0, 0.0))
        hits = traced["cache_hits"]
        next_block_s = sim["tallies"].get("next_block", (0, 0.0))[1]
        m = {
            "cli.import_s": traced["t_imported"] - traced["t_start"],
            "harness.cache_get_us": 1e6 * probe_s / probes if probes else 0.0,
            "harness.cache_hit_frac": hits / (hits + traced["cache_misses"])
            if probes else 0.0,
            "harness.reduce_ms": 1e3 * (harness["experiment"] - harness["run_jobs"]),
            "workloads.trace_s": totals["trace"],
            "workloads.trace_reuse_frac": reused / (built + reused)
            if built + reused else 0.0,
            "workloads.next_block_s": next_block_s,
            "gpu.build_s": totals["build"],
            "gpu.drain_s": totals["drain"],
            "gpu.drain_events_per_s": events / totals["drain"] if totals["drain"] else 0.0,
            # The drain minus the slices' own time (replayed in isolation)
            # and the block advances.
            "gpu.drain_self_s": totals["drain"] - captured["replay_fast_s"] - next_block_s,
        }
        slices = captured["slices"]
        for layer in SLICE_LAYERS:
            entry = slices.get(layer)
            calls = entry["calls"] if entry else 0
            m[f"core.{layer}.serve_ns"] = 1e9 * entry["fast_s"] / calls if calls else 0.0
            m[f"core.{layer}.serve_ref_ns"] = 1e9 * entry["ref_s"] / calls if calls else 0.0
        m["core.replay_mismatches"] = captured["serve_mismatches"]
        devices = captured["devices"]
        for metric, (layer, methods) in DEVICE_METRICS.items():
            entry = devices.get(layer, {"mismatches": 0, "calls": {}})
            n = sum(entry["calls"].get(name, [0, 0])[0] for name in methods)
            ns = sum(entry["calls"].get(name, [0, 0])[1] for name in methods)
            # A layer whose replay does not reproduce its completions is
            # not isolable: it gets no time.
            m[metric] = ns / n if n and not entry["mismatches"] else 0.0
        for layer in ("dram", "xpoint"):
            m[f"{layer}.replay_mismatches"] = devices.get(layer, {}).get("mismatches", 0)
        payload = self.fidelity_payload or traced["payload"]
        for claim, key in (("origin", "speedup_vs_origin"), ("base", "speedup_vs_ohm_base")):
            m[f"speedup_err_{claim}_pct"] = 100.0 * abs(
                payload[key] / PAPER_SPEEDUP[claim] - 1.0
            )
        m["sim.events"] = events
        m["sim.migration_bw_frac"] = (
            statistics.fmean(traced["migration"].values()) if traced["migration"] else 0.0
        )
        m["bench.wall_traced_s"] = traced["wall"]
        m["bench.wall_untraced_s"] = untraced["wall"]
        m["bench.trace_overhead_pct"] = 100.0 * (traced["wall"] / untraced["wall"] - 1.0)
        m["cli.bare_wall_s"] = self.bare_cli_wall()
        correct = m["core.replay_mismatches"] == 0
        return m, self.end_to_end(untraced), correct, traced


# -- reporting ---------------------------------------------------------------

LAYER_UNITS = {
    "cli.import_s": "s",
    "harness.cache_get_us": "us",
    "harness.cache_hit_frac": "fraction",
    "harness.reduce_ms": "ms",
    "workloads.trace_s": "s",
    "workloads.trace_reuse_frac": "fraction",
    "workloads.next_block_s": "s",
    "gpu.build_s": "s",
    "gpu.drain_s": "s",
    "gpu.drain_events_per_s": "1/s",
    "gpu.drain_self_s": "s",
    **{f"core.{layer}.serve_ns": "ns" for layer in SLICE_LAYERS},
    **{f"core.{layer}.serve_ref_ns": "ns" for layer in SLICE_LAYERS},
    "core.replay_mismatches": "count",
    **{metric: "ns" for metric in DEVICE_METRICS},
    "dram.replay_mismatches": "count",
    "xpoint.replay_mismatches": "count",
    "speedup_err_origin_pct": "%",
    "speedup_err_base_pct": "%",
    "sim.events": "count",
    "sim.migration_bw_frac": "fraction",
    "bench.wall_traced_s": "s",
    "bench.wall_untraced_s": "s",
    "bench.trace_overhead_pct": "%",
    "cli.bare_wall_s": "s",
}


def source_rev():
    """Git revision when run from a clone, else a digest of ``src/``."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                capture_output=True, text=True, timeout=30,
            )
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:12]


def provenance(samples):
    return {
        "rev": source_rev(),
        "python": platform.python_version(),
        "machine": f"{platform.machine()} {platform.system()} {platform.release()}",
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "samples": samples,
    }


def format_table(rows, title):
    headers = ("metric", "value", "unit", "kind")
    cells = [headers] + [
        (name, f"{value:.6g}", unit, kind) for name, value, unit, kind in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title]
    for index, row in enumerate(cells):
        lines.append("  ".join(
            cell.rjust(w) if i == 1 else cell.ljust(w)
            for i, (cell, w) in enumerate(zip(row, widths))
        ).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def as_metrics(values, units):
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def write_pins(bench):
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    record = bench.child("plain")
    pins[bench.workload] = dict(sorted(record["fingerprints"].items()))
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(record['fingerprints'])} jobs of {bench.workload}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: program source missing under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    bench = Bench(args.workload, args.seed, args.seconds, run_dir)
    try:
        if args.write_pins:
            if args.seed != PIN_SEED:
                parser.error(f"pins are taken at seed {PIN_SEED}")
            bench.prepare(traced=False)
            write_pins(bench)
            return 0
        bench.prepare(traced=bool(args.trace))
        if args.trace:
            layer_metrics, e2e, correct, traced = bench.layers()
            (WORK / f"spans-{args.workload}.json").write_text(
                json.dumps(traced["spans"])
            )
            samples = 1
            reported = as_metrics(layer_metrics, LAYER_UNITS)
            rows = [(n, layer_metrics[n], u, "layer") for n, u in LAYER_UNITS.items()]
        else:
            e2e, samples = bench.measure()
            correct = True
            reported = as_metrics(e2e, END_TO_END_UNITS)
            rows = []
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    rows = [(n, e2e[n], u, "end-to-end") for n, u in END_TO_END_UNITS.items()] + rows
    prov = provenance(samples)
    print(format_table(rows, (
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} | rev {prov['rev']} | python {prov['python']} | "
        f"{prov['machine']} | nproc {prov['nproc']} | load {prov['loadavg']} | "
        f"samples {samples}"
    )))
    correct = correct and bench.failed == 0
    print(json.dumps({
        "record": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "provenance": prov,
            "metrics": {n: {"value": v, "unit": u, "kind": k} for n, v, u, k in rows},
        }
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
