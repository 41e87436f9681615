"""Trace record/replay: format round-trip and bit-identical replay."""

import gzip
import json
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MemoryMode
from repro.harness.cache import job_fingerprint
from repro.harness.executor import (
    RunConfig,
    SimulationJob,
    execute_job,
    execute_job_recorded,
)
from repro.workloads.registry import get_workload_def
from repro.workloads.source import round_robin
from repro.workloads.synthetic import WarpTrace
from repro.workloads.trace import (
    FileTraceSource,
    TraceFormatError,
    TraceMeta,
    TraceRecorder,
    load_traces,
    save_traces,
    trace_path_of,
)

SIZING = RunConfig(num_warps=8, accesses_per_warp=12)


def small_traces(n=3, accesses=5):
    rng = np.random.default_rng(0)
    return [
        WarpTrace(
            gaps=rng.integers(0, 50, accesses).astype(np.int64),
            addrs=(rng.integers(0, 1000, accesses) * 128).astype(np.int64),
            writes=rng.random(accesses) < 0.3,
            tenant="t0" if w == 0 else None,
        )
        for w in range(n)
    ]


def meta_for(traces, workload="backp"):
    return TraceMeta(
        workload=workload,
        platform="Ohm-BW",
        mode="planar",
        line_bytes=128,
        num_warps=len(traces),
        spec=get_workload_def(workload).spec,
    )


class TestFormatRoundTrip:
    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz"])
    def test_save_load_round_trip(self, tmp_path, suffix):
        traces = small_traces()
        path = tmp_path / f"t{suffix}"
        save_traces(path, meta_for(traces), traces)
        meta, loaded = load_traces(path)
        assert meta.workload == "backp"
        assert meta.spec == get_workload_def("backp").spec
        assert len(loaded) == len(traces)
        for a, b in zip(traces, loaded):
            assert np.array_equal(a.gaps, b.gaps)
            assert np.array_equal(a.addrs, b.addrs)
            assert np.array_equal(a.writes, b.writes)
            assert a.tenant == b.tenant
            assert a.digest() == b.digest()
            assert b.gaps.dtype == np.int64 and b.writes.dtype == np.bool_

    def test_gzip_is_actually_compressed(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.jsonl.gz"
        save_traces(path, meta_for(traces), traces)
        with gzip.open(path, "rt") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "repro-trace"

    def test_warp_count_mismatch_rejected_on_save(self, tmp_path):
        traces = small_traces(3)
        meta = meta_for(traces[:2])
        with pytest.raises(ValueError):
            save_traces(tmp_path / "t.jsonl", meta, traces)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_traces(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"format": "other"}\n')
        with pytest.raises(TraceFormatError):
            load_traces(path)

    def test_bad_version_rejected(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.jsonl"
        save_traces(path, meta_for(traces), traces)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 99
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(TraceFormatError):
            load_traces(path)

    def test_truncated_file_rejected(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.jsonl"
        save_traces(path, meta_for(traces), traces)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceFormatError):
            load_traces(path)


class TestRecorder:
    def test_records_in_order(self):
        rec = TraceRecorder(2)
        rec.record(0, 3, 128, False)
        rec.record(1, 0, 256, True)
        rec.record(0, 1, 384, True)
        t0, t1 = rec.to_traces()
        assert t0.gaps.tolist() == [3, 1]
        assert t0.addrs.tolist() == [128, 384]
        assert t0.writes.tolist() == [False, True]
        assert t1.addrs.tolist() == [256]

    def test_empty_warp_rejected(self):
        rec = TraceRecorder(2)
        rec.record(0, 0, 128, False)
        with pytest.raises(ValueError):
            rec.to_traces()

    def test_tenant_labels_preserved(self):
        rec = TraceRecorder(1)
        rec.record(0, 0, 128, False)
        (t,) = rec.to_traces(tenants=["gemm"])
        assert t.tenant == "gemm"


class TestRecordReplay:
    @pytest.mark.parametrize(
        "platform,workload",
        [("Ohm-BW", "pagerank"), ("Origin", "backp"), ("Ohm-base", "mix_gemm_chase")],
    )
    def test_replay_reproduces_fingerprint_bit_identically(
        self, tmp_path, platform, workload
    ):
        job = SimulationJob(platform, workload, MemoryMode.PLANAR, SIZING)
        result, recorded = execute_job_recorded(job)
        defn = get_workload_def(workload)
        path = tmp_path / "t.jsonl.gz"
        save_traces(
            path,
            TraceMeta(
                workload=defn.spec.name,
                platform=platform,
                mode="planar",
                line_bytes=128,
                num_warps=len(recorded),
                spec=defn.spec,
            ),
            recorded,
        )
        replay = execute_job(
            SimulationJob(platform, f"trace:{path}", MemoryMode.PLANAR, SIZING)
        )
        assert replay.fingerprint() == result.fingerprint()
        assert replay.to_dict() == result.to_dict()

    def test_recorded_run_equals_unrecorded_run(self):
        job = SimulationJob("Ohm-BW", "pagerank", MemoryMode.PLANAR, SIZING)
        plain = execute_job(job)
        recorded_result, _traces = execute_job_recorded(job)
        assert recorded_result.to_dict() == plain.to_dict()

    def test_trace_def_resolution(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.jsonl"
        save_traces(path, meta_for(traces), traces)
        defn = get_workload_def(f"trace:{path}")
        assert defn.family == "trace"
        assert defn.spec.name == "backp"  # replay keeps the recorded name
        assert dict(defn.params)["path"] == str(path)

    def test_trace_path_of(self):
        assert trace_path_of("trace:/x/y.jsonl") == "/x/y.jsonl"
        assert trace_path_of("pagerank") is None

    def test_missing_trace_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            get_workload_def(f"trace:{tmp_path / 'nope.jsonl'}")

    def test_rerecorded_file_invalidates_trace_memo(self, tmp_path):
        path = tmp_path / "t.jsonl"
        a = small_traces(2, 6)
        save_traces(path, meta_for(a), a)
        job = SimulationJob("Ohm-base", f"trace:{path}", MemoryMode.PLANAR, SIZING)
        first = execute_job(job)
        b = small_traces(2, 9)
        save_traces(path, meta_for(b), b)
        second = execute_job(job)
        # Same path, new bytes -> new digest in the def -> fresh traces.
        assert first.to_dict() != second.to_dict()

    def test_corrupt_gzip_rejected_cleanly(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        path.write_bytes(b"this is not gzip data")
        with pytest.raises(OSError):  # gzip.BadGzipFile
            load_traces(path)

    def test_cache_fingerprint_tracks_file_bytes(self, tmp_path):
        traces = small_traces()
        path = tmp_path / "t.jsonl"
        save_traces(path, meta_for(traces), traces)
        job = SimulationJob(
            "Ohm-BW", f"trace:{path}", MemoryMode.PLANAR, SIZING
        )
        fp1 = job_fingerprint(job)
        # Same name, different recorded bytes -> different cache key.
        save_traces(path, meta_for(traces[:2]), traces[:2])
        assert job_fingerprint(job) != fp1


# ---------------------------------------------------------------------------
# Indexed file replay against the sequential demultiplexer
# ---------------------------------------------------------------------------

_OPS = st.tuples(
    st.integers(min_value=-1, max_value=60),
    st.integers(min_value=0, max_value=1 << 40),
    st.booleans(),
)
_TENANTS = st.one_of(st.none(), st.sampled_from(["a", "b", "café"]))


def _reorder(draw, record):
    """The record with its keys in a drawn order (not the writer's)."""
    if draw(st.booleans()):
        return record
    return {k: record[k] for k in draw(st.permutations(list(record)))}


def _columns(block):
    return (
        [g for g, _, _ in block],
        [a for _, a, _ in block],
        [int(w) for _, _, w in block],
    )


@st.composite
def _trace_files(draw):
    """Header and record lines of a random v1 or v2 trace file."""
    version = draw(st.sampled_from([1, 2]))
    num_warps = draw(st.integers(min_value=1, max_value=5))
    header = meta_for(range(num_warps)).to_dict(version=version)
    records = []
    if version == 1:
        for w in draw(st.permutations(range(num_warps))):
            g, a, wr = _columns(draw(st.lists(_OPS, max_size=6)))
            records.append(_reorder(draw, {
                "warp": w, "tenant": draw(_TENANTS),
                "gaps": g, "addrs": a, "writes": wr,
            }))
    else:
        pending = []
        for w in range(num_warps):
            # An empty block list is a warp `trace filter` emptied.
            blocks = draw(st.lists(st.lists(_OPS, max_size=4), max_size=4))
            tenant = draw(_TENANTS)
            warp_records = []
            for i, block in enumerate(blocks):
                g, a, wr = _columns(block)
                record = {"w": w, "g": g, "a": a, "wr": wr}
                if i == 0 and tenant is not None:
                    record["t"] = tenant
                warp_records.append(record)
            warp_records.append({"w": w, "end": 1})
            pending.append(warp_records)
        # Interleave the warps in a drawn order, not round-robin, so
        # end markers land out of warp order.
        while any(pending):
            live = [q for q in pending if q]
            queue = live[draw(st.integers(0, len(live) - 1))]
            records.append(_reorder(draw, queue.pop(0)))
    compact = draw(st.booleans())
    separators = (",", ":") if compact else None
    lines = [json.dumps(header, separators=(",", ":"))]
    lines += [json.dumps(r, separators=separators) for r in records]
    return num_warps, lines


def _fault(draw, num_warps, lines):
    """Apply one drawn fault (or none) to the record lines."""
    kind = draw(st.sampled_from(
        ["none", "drop_lines", "cut", "out_of_range", "corrupt"]
    ))
    body = lines[1:]
    if kind == "none" or not body:
        return "\n".join(lines) + "\n"
    if kind == "drop_lines":
        return "\n".join(lines[:draw(st.integers(1, len(body)))]) + "\n"
    if kind == "cut":
        text = "\n".join(body) + "\n"
        return lines[0] + "\n" + text[:draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(body) - 1))
    if kind == "out_of_range":
        record = json.loads(body[i])
        key = "warp" if "warp" in record else "w"
        record[key] = draw(st.sampled_from([-1, num_warps, num_warps + 7]))
        body[i] = json.dumps(record, separators=(",", ":"))
    else:
        line = body[i]
        body[i] = line[: draw(st.integers(1, len(line) - 1))]
    return "\n".join([lines[0]] + body) + "\n"


def _replay(source, order):
    """Every stream consumed in ``order``: its blocks, tenants, declared
    emptiness and problems, or the format error's message."""
    try:
        streams = source.streams()
        blocks = {s.warp_id: [] for s in streams}
        if order == "warp-major":
            for stream in streams:
                blocks[stream.warp_id] = list(iter(stream.next_block, None))
        else:
            for stream, block in round_robin(streams):
                if block is not None:
                    blocks[stream.warp_id].append(block)
    except TraceFormatError as exc:
        return ("error", str(exc))
    return (
        "ok", blocks,
        [s.tenant for s in streams],
        [s.allow_empty for s in streams],
        [s.well_formed() for s in streams],
    )


class TestIndexedReplayOracle:
    """A path-backed replay (per-warp offsets into the file) yields
    what the sequential demultiplexer of an open handle yields: the
    same blocks, tenants, declared emptiness and problems, or the same
    ``TraceFormatError`` message."""

    @given(
        data=st.data(),
        order=st.sampled_from(["warp-major", "round-robin"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_path_replay_matches_sequential_reader(self, data, order):
        num_warps, lines = data.draw(_trace_files())
        text = _fault(data.draw, num_warps, lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = str(pathlib.Path(tmp) / "t.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            indexed = _replay(FileTraceSource(path), order)
            with open(path, encoding="utf-8") as fh:
                sequential = _replay(FileTraceSource(fh), order)
            assert indexed == sequential
            if indexed[0] == "ok":
                source = FileTraceSource(path)
                for w, want in indexed[1].items():
                    got = [b for b in source.blocks(w) if b[1]]
                    assert got == [b for b in want if b[1]]

    def test_indexed_replay_is_taken(self, tmp_path):
        """An uncompressed path replays through the index."""
        from repro.workloads.trace import _IndexedReader, _TraceDemux

        traces = small_traces()
        path = tmp_path / "t.jsonl"
        save_traces(path, meta_for(traces), traces)
        gz = tmp_path / "t.jsonl.gz"
        save_traces(gz, meta_for(traces), traces)
        for p, kind in ((path, _IndexedReader), (gz, _TraceDemux)):
            reader = FileTraceSource(p)._reader()
            reader.close()
            assert isinstance(reader, kind)
