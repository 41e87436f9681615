#!/usr/bin/env python
"""Gating memory smoke: a 10x-longer trace must not cost 10x memory.

The streaming pipeline's promise is peak memory O(warps x lookahead),
independent of trace length.  This script checks the promise the blunt
way CI can trust:

1. generate a base trace file (streamed generation, never materialized),
2. write a 10x-repeated variant of it,
3. replay each through ``FileTraceSource`` -> ``GpuModel`` in an
   isolated child process,
4. assert the 10x replay's peak RSS stays under ``--ceiling`` (default
   1.3) times the base replay's.

A regression back to materialize-everything makes the 10x child hold
~1.3M decoded ops (hundreds of MB of Python lists) and blows the
ceiling; the streamed replay holds one block per warp and doesn't.
So does a reader that parks the blocks of warps that fall behind: a
sequential replay of the 10x file parked enough to read 1.73.

Run from the repo root:  PYTHONPATH=src python tools/memory_smoke.py
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOAD = "stream_scan"
NUM_WARPS = 128
ACCESSES = 1000
REPEAT = 10


def _child(trace_path: str) -> int:
    """Replay one trace file streamed; print peak RSS as JSON.

    The peak is this process's own ``VmHWM``: a child started by fork
    and exec inherits its parent's ``ru_maxrss``, which would report the
    parent's peak whenever that is larger.
    """
    from repro.config import default_config
    from repro.core.platforms import PLATFORMS
    from repro.gpu.gpu import GpuModel
    from repro.harness.perf import peak_rss_bytes
    from repro.workloads.trace import FileTraceSource

    source = FileTraceSource(trace_path)
    cfg = default_config()
    platform = PLATFORMS["Hetero"]
    result = GpuModel(platform, cfg, source.meta.spec, source).run()
    print(json.dumps({
        "peak_rss_bytes": peak_rss_bytes(),
        "instructions": result.instructions,
        "fingerprint": result.fingerprint(),
    }))
    return 0


def _write_base(path: Path) -> None:
    from repro.config import default_config
    from repro.workloads.registry import build_source, get_workload_def
    from repro.workloads.trace import TraceMeta, save_stream

    cfg = default_config()
    defn = get_workload_def(WORKLOAD)
    source = build_source(
        defn,
        defn.spec.scaled_footprint(cfg.scale_down),
        num_warps=NUM_WARPS,
        accesses_per_warp=ACCESSES,
        line_bytes=cfg.gpu.line_bytes,
        page_bytes=cfg.hetero.page_bytes,
        seed=7,
    )
    meta = TraceMeta(
        workload=WORKLOAD,
        platform="(memory-smoke)",
        mode="(memory-smoke)",
        line_bytes=cfg.gpu.line_bytes,
        num_warps=NUM_WARPS,
        spec=defn.spec,
    )
    save_stream(path, meta, source)


def _write_repeated(base: Path, out: Path, repeat: int) -> None:
    """Concatenate ``repeat`` streamed passes of ``base`` into ``out``.

    Blocks stay round-robin interleaved within each pass, as
    ``save_stream`` writes them; end markers are written only after the
    final pass.  The replay seeks each warp to its own records, so the
    order costs it nothing either way.
    """
    from repro.workloads.trace import (
        ChunkedTraceWriter,
        FileTraceSource,
        _open_for_write,
    )

    source = FileTraceSource(base)
    with _open_for_write(out) as fh:
        writer = ChunkedTraceWriter(fh, source.meta)
        for _ in range(repeat):
            live = source.streams()
            while live:
                still = []
                for stream in live:
                    block = stream.next_block()
                    if block is not None:
                        writer.write_block(
                            stream.warp_id, *block, tenant=stream.tenant
                        )
                        still.append(stream)
                live = still
        writer.finish()


def _replay_in_child(trace_path: Path) -> dict:
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(trace_path)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"memory_smoke: child replay of {trace_path} failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", metavar="TRACE", help=argparse.SUPPRESS)
    parser.add_argument(
        "--ceiling",
        type=float,
        default=1.3,
        help="max allowed (10x peak RSS) / (base peak RSS) [default 1.3]",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="also write the measurements as JSON to PATH",
    )
    args = parser.parse_args(argv)
    if args.child:
        return _child(args.child)

    with tempfile.TemporaryDirectory(prefix="repro-memory-smoke-") as tmp:
        base = Path(tmp) / "base.jsonl"
        big = Path(tmp) / "10x.jsonl"
        print(
            f"memory_smoke: {WORKLOAD} {NUM_WARPS}x{ACCESSES} ops "
            f"(base), x{REPEAT} (big)"
        )
        _write_base(base)
        _write_repeated(base, big, REPEAT)
        base_stats = _replay_in_child(base)
        big_stats = _replay_in_child(big)

    base_peak = base_stats["peak_rss_bytes"]
    big_peak = big_stats["peak_rss_bytes"]
    ratio = big_peak / base_peak if base_peak else float("inf")
    expect = base_stats["instructions"] * REPEAT
    report = {
        "workload": WORKLOAD,
        "num_warps": NUM_WARPS,
        "accesses_per_warp": ACCESSES,
        "repeat": REPEAT,
        "ceiling": args.ceiling,
        "base": base_stats,
        "big": big_stats,
        "rss_ratio": ratio,
    }
    print(
        f"memory_smoke: base peak RSS {base_peak / 2**20:.1f} MiB "
        f"({base_stats['instructions']} instructions)"
    )
    print(
        f"memory_smoke: 10x  peak RSS {big_peak / 2**20:.1f} MiB "
        f"({big_stats['instructions']} instructions)"
    )
    print(f"memory_smoke: ratio {ratio:.2f} (ceiling {args.ceiling:.2f})")
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"memory_smoke: wrote {args.report}")
    if big_stats["instructions"] != expect:
        print(
            f"memory_smoke: FAILED — 10x replay retired "
            f"{big_stats['instructions']} instructions, expected {expect}",
            file=sys.stderr,
        )
        return 1
    if ratio > args.ceiling:
        print(
            f"memory_smoke: FAILED — 10x trace peak RSS is {ratio:.2f}x "
            f"the base replay's (ceiling {args.ceiling:.2f}x); the "
            "streaming pipeline is materializing somewhere",
            file=sys.stderr,
        )
        return 1
    print("memory_smoke: PASSED")
    return 0


if __name__ == "__main__":
    sys.exit(main())
