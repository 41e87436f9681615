"""Workload substrate: declarative workload defs, trace families and
record/replay.

Layers (see docs/WORKLOADS.md for the authoring tutorial):

* ``spec``      — :class:`WorkloadSpec` characteristics and
                  :class:`WorkloadDef` declarative scenario specs.
* ``synthetic`` / ``graphs`` — the Table II statistical and
                  graph-replay generators.
* ``families``  — parametric families (tiled GEMM, pointer chase,
                  streaming scan).
* ``source``    — the bounded-lookahead streaming interface every
                  producer and consumer speaks (:class:`TraceSource`,
                  :class:`WarpStream`; DESIGN.md section 12).
* ``compose``   — sequential phases and multi-tenant mixes.
* ``trace``     — record-and-replay memory-trace format (streaming
                  reader/writer, chunked v2 format).
* ``registry``  — name -> def resolution and family dispatch:
                  :func:`build_source` is the one path from a name to
                  a trace source, and :func:`build_traces` is
                  ``materialize(build_source(...))``.
"""

from repro.workloads.compose import make_multi_tenant, make_phased
from repro.workloads.families import (
    PointerChaseGenerator,
    StreamingScanGenerator,
    TiledGemmGenerator,
)
from repro.workloads.graphs import GraphTraceGenerator
from repro.workloads.registry import (
    FAMILIES,
    REGISTRY,
    WORKLOADS,
    build_source,
    build_traces,
    get_workload_def,
    register_workload,
    workload_names,
)
from repro.workloads.source import (
    DEFAULT_BLOCK_OPS,
    GeneratedTraceSource,
    MaterializedTraceSource,
    TraceSource,
    WarpStream,
    materialize,
)
from repro.workloads.spec import WorkloadDef, WorkloadSpec, make_def
from repro.workloads.synthetic import SyntheticTraceGenerator, WarpTrace
from repro.workloads.trace import (
    ChunkedTraceWriter,
    FileTraceSource,
    TraceMeta,
    TraceRecorder,
    load_traces,
    save_stream,
    save_traces,
)

__all__ = [
    "WorkloadSpec",
    "WorkloadDef",
    "make_def",
    "WORKLOADS",
    "REGISTRY",
    "FAMILIES",
    "get_workload_def",
    "register_workload",
    "workload_names",
    "build_traces",
    "build_source",
    "TraceSource",
    "WarpStream",
    "GeneratedTraceSource",
    "MaterializedTraceSource",
    "materialize",
    "DEFAULT_BLOCK_OPS",
    "SyntheticTraceGenerator",
    "GraphTraceGenerator",
    "TiledGemmGenerator",
    "PointerChaseGenerator",
    "StreamingScanGenerator",
    "make_phased",
    "make_multi_tenant",
    "WarpTrace",
    "TraceMeta",
    "TraceRecorder",
    "FileTraceSource",
    "ChunkedTraceWriter",
    "load_traces",
    "save_stream",
    "save_traces",
]
