"""Workload registry: declarative names -> trace families -> trace sources.

The registry is the single resolution point of the workload subsystem:

* ``REGISTRY`` maps every registered **name** to its
  :class:`~repro.workloads.spec.WorkloadDef` (Table II rows, the
  parametric families, composed scenarios, user registrations).
* ``FAMILIES`` maps every **family** string to its documentation; a
  def's family selects how :func:`build_source` generates its stream,
  and registration rejects a family not listed here.
* :func:`build_source` resolves a name and dispatches on the family to
  a lazy :class:`~repro.workloads.source.TraceSource` — the one path
  from a workload name to traces.  :func:`build_traces` is
  ``materialize(build_source(...))``; the execution backend uses both,
  so every workload (registered or ``trace:<path>`` replay) flows
  through the same dispatch.

Names of the form ``trace:<path>`` are resolved on demand from the
trace file itself (no registration needed), which keeps them usable
from parallel executor workers that never saw the parent process's
registrations.

``WORKLOADS`` is the Table II name -> spec dict the experiment matrices
iterate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.workloads import compose as _compose
from repro.workloads.families import (
    PointerChaseGenerator,
    StreamingScanGenerator,
    TiledGemmGenerator,
)
from repro.workloads.graphs import GraphTraceGenerator
from repro.workloads.source import (
    GeneratedTraceSource,
    MaterializedTraceSource,
    TraceSource,
    materialize,
)
from repro.workloads.spec import TABLE2, WorkloadDef, WorkloadSpec, make_def
from repro.workloads.synthetic import SyntheticTraceGenerator, WarpTrace
from repro.workloads.trace import (
    TRACE_PREFIX,
    FileTraceSource,
    load_traces,
    read_trace_meta,
    trace_file_digest,
    trace_path_of,
)

TraceGenerator = Union[SyntheticTraceGenerator, GraphTraceGenerator]

#: Table II name -> spec (the figure matrices iterate this).
WORKLOADS: Dict[str, WorkloadSpec] = {spec.name: spec for spec in TABLE2}

#: Family name -> documentation (``repro workloads describe`` prints it).
FAMILIES: Dict[str, str] = {
    "synthetic": (SyntheticTraceGenerator.__doc__ or "").strip(),
    "graph": (GraphTraceGenerator.__doc__ or "").strip(),
    "gemm": (TiledGemmGenerator.__doc__ or "").strip(),
    "pointer": (PointerChaseGenerator.__doc__ or "").strip(),
    "stream": (StreamingScanGenerator.__doc__ or "").strip(),
    "compose": (_compose.__doc__ or "").strip(),
    "trace": (
        "Replay of a recorded memory trace (see workloads/trace.py). "
        "Sizing flags are ignored: the file fixes the warp count and "
        "each warp's access stream."
    ),
}


class WorkloadSizingError(ValueError):
    """A workload cannot be built at the requested sizing (e.g. a
    multi-tenant mix given fewer warps than tenants)."""


# --------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------

REGISTRY: Dict[str, WorkloadDef] = {}


def register_workload(defn: WorkloadDef, replace: bool = False) -> WorkloadDef:
    """Register a workload def under its name.

    Raises ``ValueError`` on duplicate names (unless ``replace=True``)
    and on unknown families, so registration mistakes fail loudly at
    definition time rather than mid-experiment.
    """
    if defn.family not in FAMILIES:
        raise ValueError(
            f"{defn.name}: unknown family {defn.family!r}; "
            f"choose from {sorted(FAMILIES)}"
        )
    if not replace and defn.name in REGISTRY:
        raise ValueError(f"workload {defn.name!r} already registered")
    REGISTRY[defn.name] = defn
    return defn


def _trace_replay_def(name: str, path: str) -> WorkloadDef:
    """Resolve a ``trace:<path>`` name from the file on disk.

    The replayed def inherits the *recorded* spec — including the
    original workload name — so a replayed ``RunResult`` is
    bit-identical to the recorded run.  The file digest goes into the
    params, keying the persistent result cache to the exact bytes.
    Only the header (plus a raw byte digest) is read here; the warp
    records are parsed once, at trace build time.
    """
    meta = read_trace_meta(path)
    return make_def(
        name,
        "trace",
        meta.spec,
        params={"path": path, "digest": trace_file_digest(path)},
        summary=(
            f"replay of {meta.workload} recorded on {meta.platform} "
            f"({meta.mode}), {meta.num_warps} warps"
        ),
    )


def get_workload_def(name: str) -> WorkloadDef:
    """Resolve a workload name (registered, or ``trace:<path>``)."""
    path = trace_path_of(name)
    if path is not None:
        return _trace_replay_def(name, path)
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(REGISTRY)} "
            f"or a {TRACE_PREFIX}<path> replay"
        ) from None


def workload_names() -> List[str]:
    """All registered workload names, Table II first."""
    return list(REGISTRY)


def build_traces(
    name_or_def: Union[str, WorkloadDef],
    footprint_bytes: int,
    num_warps: int,
    accesses_per_warp: int,
    line_bytes: int = 128,
    page_bytes: int = 4096,
    seed: int = 7,
) -> List[WarpTrace]:
    """Materialize a workload's warp traces: ``materialize(build_source(...))``."""
    return materialize(
        build_source(
            name_or_def, footprint_bytes, num_warps, accesses_per_warp,
            line_bytes, page_bytes, seed,
        )
    )


#: Families whose generator class is instantiated with def params.
_GENERATOR_CLASSES = {
    "gemm": TiledGemmGenerator,
    "pointer": PointerChaseGenerator,
    "stream": StreamingScanGenerator,
}

_MAX_COMPOSE_DEPTH = 4


def build_source(
    name_or_def: Union[str, WorkloadDef],
    footprint_bytes: int,
    num_warps: int,
    accesses_per_warp: int,
    line_bytes: int = 128,
    page_bytes: int = 4096,
    seed: int = 7,
    block_ops: Optional[int] = None,
    _depth: int = 0,
) -> TraceSource:
    """Resolve a workload to a lazy :class:`TraceSource`.

    The one path from a workload to traces: the result yields
    ``(gaps, addrs, writes)`` blocks on demand, so peak memory is
    bounded by per-warp generator state plus one block, not trace
    length.  Family parameters are validated here, when the generator
    is constructed.

    ``block_ops`` bounds the lookahead per warp; ``None`` means each
    source's default (:data:`~repro.workloads.source.DEFAULT_BLOCK_OPS`
    for generated streams, whole-file record chunks for replays).
    Block boundaries never change the stream's values.
    """
    defn = (
        name_or_def
        if isinstance(name_or_def, WorkloadDef)
        else get_workload_def(name_or_def)
    )
    family = defn.family
    if family == "trace":
        # A replay IS the recorded stream: sizing parameters are
        # ignored by design, and blocks come straight off the file.
        return FileTraceSource(dict(defn.params)["path"])
    if family == "compose":
        return _compose_source(
            defn, footprint_bytes, num_warps, accesses_per_warp,
            line_bytes, page_bytes, seed, block_ops, _depth,
        )
    if family in _GENERATOR_CLASSES:
        gen = _GENERATOR_CLASSES[family](
            defn.spec, footprint_bytes, line_bytes, page_bytes, seed,
            **defn.param_dict,
        )
    else:  # "synthetic" / "graph": the Table II generators
        gen = make_generator(
            defn.spec, footprint_bytes, line_bytes, page_bytes, seed
        )
    return GeneratedTraceSource(
        gen, num_warps, accesses_per_warp, block_ops=block_ops
    )


def _compose_source(
    defn: WorkloadDef, footprint_bytes, num_warps, accesses_per_warp,
    line_bytes, page_bytes, seed, block_ops, _depth,
) -> TraceSource:
    """Lazy composition: chain phases / interleave tenants as sources."""
    if _depth >= _MAX_COMPOSE_DEPTH:
        raise ValueError(
            f"{defn.name}: composition nested deeper than {_MAX_COMPOSE_DEPTH} "
            "(cycle?)"
        )

    def member_source(name, m_warps, m_accesses):
        member = get_workload_def(name)
        if member.family == "trace":
            # A file member would pay one file pass per composed warp
            # through blocks(); composed replays are small, so
            # materialize the member once instead.
            _meta, traces = load_traces(dict(member.params)["path"])
            return MaterializedTraceSource(traces, block_ops=block_ops)
        return build_source(
            member, footprint_bytes, m_warps, m_accesses,
            line_bytes, page_bytes, seed,
            block_ops=block_ops, _depth=_depth + 1,
        )

    params = defn.param_dict
    if params["kind"] == "phased":
        members = params["members"]
        counts = _compose._split_accesses(
            [f for _, f in members], accesses_per_warp
        )
        sources = [
            member_source(name, num_warps, count)
            for (name, _), count in zip(members, counts)
            if count
        ]
        return _compose.PhasedTraceSource(sources)
    if params["kind"] == "multi_tenant":
        tenants = params["tenants"]
        if num_warps < len(tenants):
            raise WorkloadSizingError(
                f"{defn.name}: need at least {len(tenants)} warps for "
                f"{len(tenants)} tenants"
            )
        assignment = _compose.tenant_assignment(
            [s for _, _, s in tenants], num_warps
        )
        warps_per_tenant = [assignment.count(i) for i in range(len(tenants))]
        for (label, _, share), count in zip(tenants, warps_per_tenant):
            if count == 0:
                # A silently absent tenant would just vanish from the
                # per-tenant counters; fail loudly instead.
                raise WorkloadSizingError(
                    f"{defn.name}: tenant {label!r} (share {share}) received "
                    f"0 of {num_warps} warps — increase num_warps or its share"
                )
        sources = [
            member_source(member, count, accesses_per_warp)
            for (_, member, _), count in zip(tenants, warps_per_tenant)
        ]
        return _compose.MultiTenantTraceSource(
            [label for label, _, _ in tenants], sources, assignment
        )
    raise ValueError(f"{defn.name}: unknown composition kind {params['kind']!r}")


def make_generator(
    spec: WorkloadSpec,
    footprint_bytes: int,
    line_bytes: int = 128,
    page_bytes: int = 4096,
    seed: int = 7,
) -> TraceGenerator:
    """Trace generator for a Table II workload: graph replay for
    GraphBIG apps, statistical traces otherwise."""
    if spec.is_graph:
        # Size the graph so the CSR + two property arrays cover roughly
        # half of the footprint (the rest models per-algorithm scratch).
        num_vertices = max(64, footprint_bytes // line_bytes // 16)
        return GraphTraceGenerator(
            spec, footprint_bytes, line_bytes, num_vertices=num_vertices, seed=seed
        )
    return SyntheticTraceGenerator(
        spec, footprint_bytes, line_bytes, page_bytes, seed=seed
    )


# --------------------------------------------------------------------
# Default registrations (import-time, so executor workers see them too)
# --------------------------------------------------------------------

def _register_defaults() -> None:
    for spec in TABLE2:
        register_workload(
            make_def(
                spec.name,
                "graph" if spec.is_graph else "synthetic",
                spec,
                summary=(
                    f"Table II {spec.suite} workload "
                    f"(APKI {spec.apki:.0f}, {spec.read_ratio:.0%} reads)"
                ),
            )
        )

    gemm = register_workload(
        make_def(
            "gemm_reuse",
            "gemm",
            WorkloadSpec(
                "gemm_reuse", apki=120, read_ratio=0.8, suite="dense",
                zipf_alpha=0.9, seq_run_mean=8.0, temporal_reuse=0.7,
                stream_fraction=0.1, compute_reuse=96.0,
            ),
            params={"tile_lines": 16, "passes": 2, "update_writes": 0.5},
            summary="tiled GEMM / attention: heavy intra-tile reuse over a streaming tile grid",
        )
    )
    chase = register_workload(
        make_def(
            "pointer_chase",
            "pointer",
            WorkloadSpec(
                "pointer_chase", apki=220, read_ratio=0.9, suite="pointer",
                zipf_alpha=1.1, seq_run_mean=1.0, temporal_reuse=0.1,
                stream_fraction=0.15, compute_reuse=10.0,
            ),
            params={"node_lines": 1, "chain_length": 12,
                    "frontier_fraction": 0.15, "frontier_write_ratio": 0.5},
            summary="dependent pointer chase with hub-skewed restarts and a frontier queue",
        )
    )
    register_workload(
        make_def(
            "stream_scan",
            "stream",
            WorkloadSpec(
                "stream_scan", apki=160, read_ratio=2.0 / 3.0, suite="stream",
                zipf_alpha=0.5, seq_run_mean=16.0, temporal_reuse=0.0,
                stream_fraction=1.0, compute_reuse=4.0,
            ),
            params={"read_fraction": 2.0 / 3.0, "num_streams": 3,
                    "stride_lines": 1},
            summary="STREAM triad: three sequential cursors, two reads per write, zero reuse",
        )
    )
    # Read:write-mix variants for the families sensitivity sweep.
    for pct in (25, 50, 75, 100):
        rf = pct / 100.0
        register_workload(
            make_def(
                f"stream_scan_r{pct}",
                "stream",
                WorkloadSpec(
                    f"stream_scan_r{pct}", apki=160, read_ratio=rf,
                    suite="stream", zipf_alpha=0.5, seq_run_mean=16.0,
                    temporal_reuse=0.0, stream_fraction=1.0, compute_reuse=4.0,
                ),
                params={"read_fraction": rf, "num_streams": 3, "stride_lines": 1},
                summary=f"streaming scan at {pct}% reads (write-mix sensitivity)",
            )
        )
    # Composed defaults: a co-located mix and a phased pipeline.
    register_workload(
        _compose.make_multi_tenant(
            "mix_gemm_chase",
            [("gemm", gemm, 0.5), ("chase", chase, 0.5)],
            summary="two co-located tenants: dense GEMM vs pointer chase, 50/50 warps",
        )
    )
    register_workload(
        _compose.make_phased(
            "phased_scan_gemm",
            [(REGISTRY["stream_scan"], 0.3), (gemm, 0.7)],
            summary="streaming load phase (30%) then tiled-GEMM compute phase (70%)",
        )
    )


_register_defaults()
