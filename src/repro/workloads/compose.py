"""Workload composition: sequential phases and multi-tenant mixes.

Two combinators turn registered workloads into new declarative
scenarios without any new trace-generation code:

* :func:`make_phased` — **sequential phases**: each warp's trace is the
  concatenation of per-phase sub-traces (e.g. a streaming load phase
  followed by a compute-heavy GEMM phase).  This models program phase
  behaviour, the thing that keeps migration policies honest after
  warmup.
* :func:`make_multi_tenant` — **interleaved tenants**: warps are
  partitioned among named tenants by share (deterministic weighted
  round-robin, so tenants interleave across SMs exactly like co-located
  kernels), and each warp's trace carries its tenant label.  The GPU
  model attributes per-tenant instruction/access/finish-time counters
  from those labels (``tenant.<name>.*`` in ``RunResult.counters``),
  so a mix answers "who got hurt?" and not just "was it slower?".

Both produce ordinary :class:`~repro.workloads.spec.WorkloadDef`
entries whose params store member *names*, which keeps composed defs
hashable and fingerprintable by the result cache.  The registry's
``build_source`` resolves the members when a run is built and merges
their streams lazily (:class:`PhasedTraceSource`,
:class:`MultiTenantTraceSource`).  Composed members may themselves be
composed (the registry guards against cycles).

Note on parallel execution: a ``SimulationJob`` ships only the
workload *name*.  Forked executor workers inherit the registry as it
stood when the pool started, so a composition registered at runtime
resolves in them too; where the platform has no fork, workers
re-import the registry fresh and only see it if it is registered in a
module they import (as ``registry._register_defaults`` does).  Serial
runners (``--jobs 1``) have no such restriction.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.workloads.source import Block, TraceSource
from repro.workloads.spec import WorkloadDef, WorkloadSpec, make_def


def _blend_spec(
    name: str, suite: str, members: Sequence[Tuple[WorkloadSpec, float]]
) -> WorkloadSpec:
    """Share-weighted characteristics of a composition's members."""
    total = sum(w for _, w in members)
    if total <= 0:
        raise ValueError(f"{name}: member shares must sum to a positive value")
    norm = [(spec, w / total) for spec, w in members]
    return WorkloadSpec(
        name=name,
        apki=sum(s.apki * w for s, w in norm),
        read_ratio=sum(s.read_ratio * w for s, w in norm),
        suite=suite,
        zipf_alpha=sum(s.zipf_alpha * w for s, w in norm),
        seq_run_mean=sum(s.seq_run_mean * w for s, w in norm),
        temporal_reuse=sum(s.temporal_reuse * w for s, w in norm),
        stream_fraction=sum(s.stream_fraction * w for s, w in norm),
        compute_reuse=sum(s.compute_reuse * w for s, w in norm),
        footprint_bytes=max(s.footprint_bytes for s, _ in members),
    )


def make_phased(
    name: str,
    phases: Sequence[Tuple[WorkloadDef, float]],
    summary: str = "",
) -> WorkloadDef:
    """Declare a sequential-phase composition.

    ``phases`` is ``[(member_def, fraction), ...]``; fractions are
    normalized and set each phase's share of every warp's accesses.
    """
    if not phases:
        raise ValueError(f"{name}: need at least one phase")
    if all(frac == 0 for _, frac in phases):
        raise ValueError(f"{name}: at least one phase needs a positive fraction")
    for member, frac in phases:
        if frac < 0:
            raise ValueError(
                f"{name}: phase {member.name!r} needs a non-negative fraction"
            )
    spec = _blend_spec(name, "composed", [(d.spec, f) for d, f in phases])
    return make_def(
        name,
        "compose",
        spec,
        params={
            "kind": "phased",
            "members": tuple((d.name, float(f)) for d, f in phases),
        },
        summary=summary or "phases: " + " -> ".join(d.name for d, _ in phases),
    )


def make_multi_tenant(
    name: str,
    tenants: Sequence[Tuple[str, WorkloadDef, float]],
    summary: str = "",
) -> WorkloadDef:
    """Declare an interleaved multi-tenant mix.

    ``tenants`` is ``[(tenant_label, member_def, warp_share), ...]``;
    shares are normalized and set each tenant's slice of the warp pool.
    """
    if not tenants:
        raise ValueError(f"{name}: need at least one tenant")
    labels = [label for label, _, _ in tenants]
    if len(set(labels)) != len(labels):
        raise ValueError(f"{name}: tenant labels must be unique")
    for label, member, share in tenants:
        if share <= 0:
            raise ValueError(f"{name}: tenant {label!r} needs a positive share")
    spec = _blend_spec(name, "composed", [(d.spec, s) for _, d, s in tenants])
    return make_def(
        name,
        "compose",
        spec,
        params={
            "kind": "multi_tenant",
            "tenants": tuple(
                (label, d.name, float(s)) for label, d, s in tenants
            ),
        },
        summary=summary
        or "tenants: " + ", ".join(f"{l}={d.name}" for l, d, _ in tenants),
    )


def _split_accesses(fractions: Sequence[float], total: int) -> List[int]:
    """Largest-remainder split of ``total`` accesses over phases.

    A phase declared with fraction ``0.0`` asked for *nothing* and gets
    exactly zero accesses; the minimum-one floor below applies only to
    positive fractions rounded down to zero.  (Remainder units can never
    land on a declared zero either: its fractional part is exactly 0.0,
    and there are always at least ``remainder`` phases with a strictly
    positive fractional part ahead of it in the sort.)
    """
    norm = sum(fractions)
    raw = [f / norm * total for f in fractions]
    counts = [int(r) for r in raw]
    remainders = sorted(
        range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True
    )
    for i in remainders[: total - sum(counts)]:
        counts[i] += 1
    # Every *declared* phase needs at least one access if the budget
    # allows it.  (A zero with total >= len(positive) implies some donor
    # holds >= 2.)
    positive = [i for i, f in enumerate(fractions) if f > 0]
    while total >= len(positive) and any(counts[i] == 0 for i in positive):
        donor = max(positive, key=lambda j: counts[j])
        counts[donor] -= 1
        counts[next(i for i in positive if counts[i] == 0)] += 1
    return counts


def tenant_assignment(
    shares: Sequence[float], num_warps: int
) -> List[int]:
    """Deterministic weighted round-robin: warp index -> tenant index.

    Interleaves tenants in share proportion (rather than blocking them),
    so every SM serves every tenant — the co-located-kernel layout.
    """
    total = sum(shares)
    credits = [0.0] * len(shares)
    out = []
    for _ in range(num_warps):
        for i, share in enumerate(shares):
            credits[i] += share / total
        winner = max(range(len(shares)), key=lambda i: (credits[i], -i))
        credits[winner] -= 1.0
        out.append(winner)
    return out


# --------------------------------------------------------------------
# Lazy stream composition
# --------------------------------------------------------------------

class PhasedTraceSource(TraceSource):
    """Sequential phases, merged lazily: chain each warp's member blocks.

    Each member source is built with its phase's per-warp access count
    (:func:`_split_accesses`), so warp ``w``'s stream is member 0's
    warp ``w``, then member 1's, and so on.
    """

    def __init__(self, members: Sequence[TraceSource]) -> None:
        if not members:
            raise ValueError("need at least one phase source")
        counts = {m.num_warps for m in members}
        if len(counts) != 1:
            raise ValueError(f"phase warp counts disagree: {sorted(counts)}")
        self.members = list(members)
        self.num_warps = self.members[0].num_warps

    def blocks(self, warp_id: int) -> Iterator[Block]:
        return chain.from_iterable(m.blocks(warp_id) for m in self.members)


class ArrivalTraceSource(TraceSource):
    """Stagger warp start times by per-warp arrival offsets.

    The open-loop scenario layer's trace-level composition: warp ``w``
    replays the member source's stream with ``offsets[w]`` extra compute
    gap prepended to its first access — the warp "arrives" that much
    later in the simulated timeline — optionally relabelled with a
    per-warp tenant.  Offsets are in the same units as block gaps
    (compute cycles between accesses), and a zero offset leaves the
    member's blocks untouched, so an all-zero arrival source is
    stream-identical to its member.
    """

    def __init__(
        self,
        member: TraceSource,
        offsets: Sequence[int],
        tenants: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        if len(offsets) != member.num_warps:
            raise ValueError(
                f"need one offset per warp: {len(offsets)} offsets, "
                f"{member.num_warps} warps"
            )
        if any(o < 0 for o in offsets):
            raise ValueError("arrival offsets must be non-negative")
        if tenants is not None and len(tenants) != member.num_warps:
            raise ValueError("need one tenant label per warp (or None)")
        self.member = member
        self.offsets = [int(o) for o in offsets]
        self.tenants = list(tenants) if tenants is not None else None
        self.num_warps = member.num_warps

    def tenant_of(self, warp_id: int) -> Optional[str]:
        if self.tenants is not None:
            return self.tenants[warp_id]
        return self.member.tenant_of(warp_id)

    def blocks(self, warp_id: int) -> Iterator[Block]:
        offset = self.offsets[warp_id]
        inner = self.member.blocks(warp_id)
        if offset:
            first = next(inner, None)
            if first is not None:
                gaps, addrs, writes = first
                yield ([gaps[0] + offset] + list(gaps[1:]), addrs, writes)
        yield from inner


class MultiTenantTraceSource(TraceSource):
    """WRR tenant interleave, merged lazily.

    Warp ``w`` streams tenant ``assignment[w]``'s member source at that
    tenant's local warp index, labelled with the tenant.  A tenant's
    warps therefore replay exactly the streams it would generate
    running alone with that many warps, so per-tenant behaviour is
    comparable against solo runs.
    """

    def __init__(
        self,
        labels: Sequence[str],
        members: Sequence[TraceSource],
        assignment: Sequence[int],
    ) -> None:
        if len(labels) != len(members):
            raise ValueError("one member source per tenant label")
        self.labels = list(labels)
        self.members = list(members)
        self.assignment = list(assignment)
        self.num_warps = len(self.assignment)
        # Global warp index -> local index within its tenant's source.
        self._local: List[int] = []
        cursors = [0] * len(members)
        for t in self.assignment:
            self._local.append(cursors[t])
            cursors[t] += 1
        for t, (member, used) in enumerate(zip(self.members, cursors)):
            if member.num_warps != used:
                raise ValueError(
                    f"tenant {self.labels[t]!r}: member source has "
                    f"{member.num_warps} warps, assignment uses {used}"
                )

    def tenant_of(self, warp_id: int) -> Optional[str]:
        return self.labels[self.assignment[warp_id]]

    def blocks(self, warp_id: int) -> Iterator[Block]:
        t = self.assignment[warp_id]
        return self.members[t].blocks(self._local[warp_id])
