"""Streaming trace pipeline: parity, edge cases, stages, memory.

The contract under test (DESIGN.md section 12): every producer and
consumer of warp accesses speaks the bounded-lookahead block iterator
(``TraceSource`` / ``WarpStream``).  Block boundaries never change a
stream's values, and the streamed executor path is **bit-identical**
to the materialized one — same ``RunResult`` fingerprints — while
holding O(warps x block) memory.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.config import MemoryMode, default_config
from repro.harness import executor
from repro.harness.executor import RunConfig, SimulationJob, execute_job
from repro.workloads.registry import (
    REGISTRY,
    build_source,
    build_traces,
    get_workload_def,
)
from repro.workloads.source import (
    TraceSource,
    WarpStream,
    materialize,
    round_robin,
)
from repro.workloads.trace import (
    FileTraceSource,
    TraceFormatError,
    TraceMeta,
    load_traces,
    save_stream,
)

ROOT = pathlib.Path(__file__).parent.parent
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_fingerprints.json"

#: Small sizing shared by the parity sweep: big enough that chunked
#: generation crosses several block boundaries at ``block_ops=7``.
WARPS, ACCESSES = 6, 25


def _small_source(name, block_ops=7):
    defn = get_workload_def(name)
    cfg = default_config()
    return build_source(
        defn,
        defn.spec.scaled_footprint(cfg.scale_down),
        num_warps=WARPS,
        accesses_per_warp=ACCESSES,
        line_bytes=cfg.gpu.line_bytes,
        page_bytes=cfg.hetero.page_bytes,
        seed=7,
        block_ops=block_ops,
    )


def _small_traces(name):
    defn = get_workload_def(name)
    cfg = default_config()
    return build_traces(
        defn,
        defn.spec.scaled_footprint(cfg.scale_down),
        num_warps=WARPS,
        accesses_per_warp=ACCESSES,
        line_bytes=cfg.gpu.line_bytes,
        page_bytes=cfg.hetero.page_bytes,
        seed=7,
    )


# ---------------------------------------------------------------------------
# Block-boundary invariance — every registered family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_streamed_equals_materialized(name):
    """Small blocks stream the same trace as the default blocks.

    ``block_ops=7`` forces many small blocks (25 accesses -> 4 blocks
    per warp) against ``build_traces``' default-sized ones, so any
    RNG-order or chunk-boundary dependence in a generator or a
    composition shows up as a digest or tenant mismatch.
    """
    default = _small_traces(name)
    small_blocks = materialize(_small_source(name, block_ops=7))
    assert len(small_blocks) == len(default) == WARPS
    for got, want in zip(small_blocks, default):
        assert got.digest() == want.digest()
        assert got.tenant == want.tenant


def test_source_is_restreamable():
    """A second streams() call replays the identical trace."""
    source = _small_source("pagerank")
    first = [t.digest() for t in materialize(source)]
    second = [t.digest() for t in materialize(source)]
    assert first == second


def test_golden_jobs_streamed_parity(monkeypatch):
    """Forced streaming (threshold 0: spill + file replay) reproduces
    the checked-in golden fingerprints bit-identically."""
    golden = json.loads(GOLDEN.read_text())
    monkeypatch.setenv("REPRO_STREAM_OPS_THRESHOLD", "0")
    run = RunConfig(num_warps=24, accesses_per_warp=24)
    for key in ("Origin/pagerank/planar", "Ohm-BW/backp/two_level"):
        platform, workload, mode = key.split("/")
        result = execute_job(
            SimulationJob(platform, workload, MemoryMode(mode), run)
        )
        assert result.fingerprint() == golden[key]


# ---------------------------------------------------------------------------
# WarpStream edge cases
# ---------------------------------------------------------------------------


def test_empty_stream_reports_problem():
    stream = WarpStream(0, iter([]))
    assert stream.next_block() is None
    assert len(stream) == 0
    assert stream.well_formed()  # "ends without a single op"


def test_single_op_stream():
    stream = WarpStream(0, iter([([3], [128], [True])]))
    assert stream.next_block() == ([3], [128], [True])
    assert stream.next_block() is None
    assert len(stream) == 1
    assert not stream.well_formed()


def test_misaligned_block_truncates_to_aligned_prefix():
    problems = []
    stream = WarpStream(0, iter([([1, 2], [10, 20, 30], [False, False])]))
    stream.on_problem = lambda w, msg: problems.append((w, msg))
    gaps, addrs, writes = stream.next_block()
    assert len(gaps) == len(addrs) == len(writes) == 2
    assert problems and problems[0][0] == 0


def test_empty_warp_simulates_as_finished():
    """A source containing an empty warp (what `trace filter` leaves
    behind) runs: the empty warp retires nothing, the rest proceed."""
    from repro.core.platforms import PLATFORMS
    from repro.gpu.gpu import GpuModel

    class OneEmpty(TraceSource):
        num_warps = 2

        def blocks(self, warp_id):
            if warp_id == 0:
                return iter([])
            return iter([([0, 1], [0, 128], [False, True])])

    defn = get_workload_def("pagerank")
    cfg = default_config()
    result = GpuModel(PLATFORMS["Hetero"], cfg, defn.spec, OneEmpty()).run()
    assert result.instructions == 3  # gaps (0+1) + 2 memory ops


def test_early_termination_raises_with_unfinished_warps():
    from repro.core.platforms import PLATFORMS
    from repro.gpu.gpu import GpuModel

    defn = get_workload_def("pagerank")
    cfg = default_config()
    model = GpuModel(
        PLATFORMS["Hetero"], cfg, defn.spec, _small_source("pagerank")
    )
    with pytest.raises(RuntimeError, match="unfinished"):
        model.run(max_events=3)


# ---------------------------------------------------------------------------
# Chunked (v2) file round trip
# ---------------------------------------------------------------------------


def _meta(num_warps, workload="pagerank"):
    defn = get_workload_def(workload)
    return TraceMeta(
        workload=workload,
        platform="T",
        mode="planar",
        line_bytes=128,
        num_warps=num_warps,
        spec=defn.spec,
    )


@pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
def test_save_stream_round_trip(tmp_path, suffix):
    """save_stream -> FileTraceSource reproduces the exact trace,
    plain and gzipped."""
    path = tmp_path / f"t{suffix}"
    source = _small_source("pagerank")
    save_stream(path, _meta(WARPS), source)
    meta, traces = load_traces(path)
    classic = _small_traces("pagerank")
    assert meta.num_warps == WARPS
    assert [t.digest() for t in traces] == [t.digest() for t in classic]


def test_round_trip_preserves_tenants(tmp_path):
    path = tmp_path / "mix.jsonl"
    source = _small_source("mix_gemm_chase")
    save_stream(path, _meta(WARPS, "mix_gemm_chase"), source)
    _, traces = load_traces(path)
    classic = _small_traces("mix_gemm_chase")
    assert [t.tenant for t in traces] == [t.tenant for t in classic]
    assert any(t.tenant for t in traces)


def test_truncated_v2_file_is_an_error(tmp_path):
    path = tmp_path / "cut.jsonl"
    source = _small_source("pagerank")
    save_stream(path, _meta(WARPS), source)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-2]) + "\n")  # drop end markers
    with pytest.raises(TraceFormatError, match="no end marker"):
        materialize(FileTraceSource(path))


@pytest.mark.parametrize(
    "name,backing",
    [("t.jsonl", "path"), ("t.jsonl.gz", "path"), ("t.jsonl", "handle")],
)
def test_consumed_source_closes_its_file(tmp_path, name, backing):
    """A fully consumed source closes its file when the last warp
    ends, although no pull reads past the last end marker."""
    import gc
    import warnings

    path = tmp_path / name
    save_stream(path, _meta(WARPS), _small_source("pagerank"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fh = open(path, encoding="utf-8") if backing == "handle" else None
        source = FileTraceSource(path if fh is None else fh)
        assert len(materialize(source)) == WARPS
        assert fh is None or fh.closed
        del source, fh
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_stdin_source_is_single_shot(tmp_path):
    path = tmp_path / "t.jsonl"
    save_stream(path, _meta(WARPS), _small_source("pagerank"))
    with open(path) as fh:
        source = FileTraceSource(fh, label="<pipe>")
        source.streams()
        with pytest.raises(RuntimeError, match="once"):
            source.streams()


# ---------------------------------------------------------------------------
# Executor regimes: memo, spill, replay
# ---------------------------------------------------------------------------


def _fresh_stats(monkeypatch):
    for k in executor.TRACE_STATS:
        monkeypatch.setitem(executor.TRACE_STATS, k, 0)


def test_spill_built_once_then_reused(monkeypatch):
    _fresh_stats(monkeypatch)
    monkeypatch.setenv("REPRO_STREAM_OPS_THRESHOLD", "0")
    monkeypatch.setattr(executor, "_SPILL_FILES", {})
    run = RunConfig(num_warps=8, accesses_per_warp=16)
    job = SimulationJob("Hetero", "pagerank", MemoryMode.PLANAR, run)
    a = execute_job(job)
    b = execute_job(job)
    assert a.fingerprint() == b.fingerprint()
    assert executor.TRACE_STATS["spill_builds"] == 1
    assert executor.TRACE_STATS["spill_hits"] == 1
    # The spill is private to this process: plain JSONL, never gzip.
    (spill,) = executor._SPILL_FILES.values()
    assert spill.suffix == ".jsonl"
    assert spill.read_bytes()[:2] != b"\x1f\x8b"


def test_small_jobs_use_the_memo(monkeypatch):
    _fresh_stats(monkeypatch)
    monkeypatch.setattr(executor, "_TRACE_MEMO", {})
    run = RunConfig(num_warps=8, accesses_per_warp=16)
    job = SimulationJob("Hetero", "pagerank", MemoryMode.PLANAR, run)
    execute_job(job)
    execute_job(job)
    assert executor.TRACE_STATS["memo_builds"] == 1
    assert executor.TRACE_STATS["memo_hits"] == 1


def test_trace_replay_streams_off_the_file(tmp_path, monkeypatch):
    _fresh_stats(monkeypatch)
    path = tmp_path / "replay.jsonl"
    save_stream(path, _meta(WARPS), _small_source("pagerank"))
    run = RunConfig(num_warps=WARPS, accesses_per_warp=ACCESSES)
    job = SimulationJob("Hetero", f"trace:{path}", MemoryMode.PLANAR, run)
    streamed = execute_job(job)
    assert executor.TRACE_STATS["replay_streams"] == 1
    # and the replay equals simulating the generated workload directly
    direct = execute_job(
        SimulationJob("Hetero", "pagerank", MemoryMode.PLANAR, run)
    )
    assert streamed.instructions == direct.instructions
    assert streamed.exec_time_ps == direct.exec_time_ps


# ---------------------------------------------------------------------------
# `repro trace` pipeline stages (subprocess, real pipes)
# ---------------------------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _record(tmp_path):
    path = tmp_path / "rec.jsonl"
    save_stream(path, _meta(WARPS), _small_source("pagerank"))
    return path


def test_stage_pipeline_through_real_pipes(tmp_path):
    """cat | filter | remap | head | run --stdin-trace exits 0 and
    prints a fingerprint — the full composable-pipeline contract."""
    path = _record(tmp_path)
    shell = (
        f"{sys.executable} -m repro.cli trace cat {path}"
        f" | {sys.executable} -m repro.cli trace filter --warps 0-3"
        f" | {sys.executable} -m repro.cli trace remap --offset 4096 --wrap 1048576"
        f" | {sys.executable} -m repro.cli trace head --ops 10"
        f" | {sys.executable} -m repro.cli run --platform Hetero --stdin-trace"
    )
    proc = subprocess.run(
        ["sh", "-c", shell], capture_output=True, text=True, env=_cli_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert "fingerprint" in proc.stdout


def test_cat_stdin_trace_reproduces_recorded_fingerprint(tmp_path):
    """Identity pipeline: cat piped into run --stdin-trace simulates
    the exact recorded stream (same fingerprint both invocations)."""
    path = _record(tmp_path)
    shell = (
        f"{sys.executable} -m repro.cli trace cat {path}"
        f" | {sys.executable} -m repro.cli run --platform Hetero --stdin-trace"
    )
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            ["sh", "-c", shell], capture_output=True, text=True, env=_cli_env()
        )
        assert proc.returncode == 0, proc.stderr
        line = [l for l in proc.stdout.splitlines() if "fingerprint" in l]
        outs.append(line[0])
    assert outs[0] == outs[1]


#: sha256 of ``trace scale --repeat 3 --gaps 2`` over ``_record``'s trace,
#: pinned from the stage's first (hand-rolled) implementation: the
#: chunked output, including where each warp's end marker lands, must
#: not move when the stage's loop is refactored.
SCALE_REPEAT_GAPS_SHA256 = (
    "eb99706d566f1dbef3695d2d77e95c6c59c680ba5de055c11a118c4851bb51d3"
)


def test_scale_repeat_multiplies_ops(tmp_path):
    import hashlib

    path = _record(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "scale",
         "--repeat", "3", str(path)],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "x3.jsonl"
    out.write_text(proc.stdout)
    _, traces = load_traces(out)
    assert sum(len(t) for t in traces) == 3 * WARPS * ACCESSES

    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "scale",
         "--repeat", "3", "--gaps", "2", str(path)],
        capture_output=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == SCALE_REPEAT_GAPS_SHA256
    out.write_bytes(proc.stdout)
    _, traces = load_traces(out)
    _, base = load_traces(path)
    # Every pass is the original stream with gaps doubled, end to end.
    for got, orig in zip(traces, base):
        assert got.addrs.tolist() == orig.addrs.tolist() * 3
        assert got.gaps.tolist() == [max(0, int(g * 2)) for g in orig.gaps] * 3


def test_filter_drops_warps_but_keeps_count(tmp_path):
    path = _record(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "filter",
         "--warps", "0,2", str(path)],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "f.jsonl"
    out.write_text(proc.stdout)
    meta, traces = load_traces(out)
    assert meta.num_warps == WARPS  # SM placement preserved
    assert [len(t) for t in traces] == [
        ACCESSES if w in (0, 2) else 0 for w in range(WARPS)
    ]


# ---------------------------------------------------------------------------
# Memory: streaming consumes less than materializing
# ---------------------------------------------------------------------------


def test_streaming_peak_allocation_below_materialized():
    """tracemalloc peak of block-by-block consumption sits well under
    the peak of materializing the same trace (32 warps x 2000 ops)."""
    import tracemalloc

    def measure(fn):
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    defn = get_workload_def("stream_scan")
    cfg = default_config()
    kwargs = dict(
        num_warps=32,
        accesses_per_warp=2000,
        line_bytes=cfg.gpu.line_bytes,
        page_bytes=cfg.hetero.page_bytes,
        seed=7,
    )
    footprint = defn.spec.scaled_footprint(cfg.scale_down)

    def streamed():
        for stream in build_source(defn, footprint, **kwargs).streams():
            while stream.next_block() is not None:
                pass

    def materialized():
        build_traces(defn, footprint, **kwargs)

    # Pull one block of a tiny source first, so the first window does
    # not pay numpy.random's one-time lazy import (about 4.7 MiB).
    tiny = dict(kwargs, num_warps=1, accesses_per_warp=1)
    build_source(defn, footprint, **tiny).streams()[0].next_block()
    peak_streamed = measure(streamed)
    peak_materialized = measure(materialized)
    assert peak_streamed < 0.8 * peak_materialized, (
        f"streamed peak {peak_streamed} not below materialized "
        f"{peak_materialized}"
    )


def _spill_stream_scan(path, accesses, num_warps=32):
    defn = get_workload_def("stream_scan")
    cfg = default_config()
    source = build_source(
        defn,
        defn.spec.scaled_footprint(cfg.scale_down),
        num_warps=num_warps,
        accesses_per_warp=accesses,
        line_bytes=cfg.gpu.line_bytes,
        page_bytes=cfg.hetero.page_bytes,
        seed=7,
    )
    save_stream(path, _meta(num_warps, "stream_scan"), source)
    return path


def _replay_peak(path, warp_major_first=0):
    """tracemalloc peak of replaying ``path`` with every warp holding
    its current block, as the fused drain does: the first
    ``warp_major_first`` warps are pulled to their end one by one, the
    rest round-robin."""
    import tracemalloc

    tracemalloc.start()
    try:
        held = {}
        streams = FileTraceSource(path).streams()
        for stream in streams[:warp_major_first]:
            for block in iter(stream.next_block, None):
                held[stream.warp_id] = block
        for stream, block in round_robin(streams[warp_major_first:]):
            held[stream.warp_id] = block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_replay_peak_allocation_independent_of_trace_length(tmp_path):
    """A spilled trace replayed the way the fused drain consumes it —
    round-robin, every warp holding its current block — peaks at about
    the same allocation for 4096 accesses per warp as for 256: the
    O(warps x block) bound, not O(trace).  Draining one warp at a time
    (as the test above does) never holds every warp's block at once,
    so it cannot see a block size that grows with the trace."""
    short = _replay_peak(_spill_stream_scan(tmp_path / "s.jsonl", 256))
    long = _replay_peak(_spill_stream_scan(tmp_path / "l.jsonl", 4096))
    assert long < 1.5 * short, (
        f"replay peak {long} B at 4096 accesses/warp vs {short} B at 256"
    )


def test_drift_order_replay_parks_nothing(tmp_path):
    """Pulling warp 0 to its end before any other warp costs no more
    than a round-robin pull: a file replay seeks each warp to its own
    records instead of parking the other warps' blocks it reads past
    (a sequential read parks all 31 x 16 of them here)."""
    path = _spill_stream_scan(tmp_path / "spill.jsonl", 2048)
    round_robin_peak = _replay_peak(path)
    drift_peak = _replay_peak(path, warp_major_first=1)
    assert drift_peak < 2 * round_robin_peak, (
        f"warp-0-first replay peak {drift_peak} B vs round-robin "
        f"{round_robin_peak} B"
    )


def test_filtered_trace_validates_cleanly(tmp_path):
    """v2-declared empty warps (filter output) pass strict validation;
    generated empty streams still flag a problem."""
    from repro.core.platforms import PLATFORMS
    from repro.gpu.gpu import GpuModel
    from repro.sim.audit import Auditor

    path = tmp_path / "f.jsonl"
    save_stream(path, _meta(WARPS), _small_source("pagerank"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "trace", "filter",
         "--warps", "0-2", str(path)],
        capture_output=True, text=True, env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    filtered = tmp_path / "half.jsonl"
    filtered.write_text(proc.stdout)
    defn = get_workload_def("pagerank")
    cfg = default_config()
    auditor = Auditor(strict=True)
    GpuModel(
        PLATFORMS["Hetero"], cfg, defn.spec,
        FileTraceSource(filtered), auditor=auditor,
    ).run()  # must not raise: emptiness was declared by end markers
