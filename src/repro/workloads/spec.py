"""Workload characteristics and declarative workload definitions.

Two layers live here:

* :class:`WorkloadSpec` — the *characteristics* of a workload: APKI
  (memory accesses per kilo-instruction), read ratio, footprint, and the
  trace-shaping parameters (skew, spatial locality, compute reuse).
  The ten Table II rows are instances; the parametric families
  (``workloads/families.py``) and trace replays carry one too, so every
  consumer (the Fig. 3 host model, the footprint scaler, the energy
  accounting) sees a uniform surface.

* :class:`WorkloadDef` — a *declarative scenario spec*: a registered
  name bound to a trace **family** (``synthetic``, ``graph``, ``gemm``,
  ``pointer``, ``stream``, ``compose``, ``trace``) plus the family's
  parameters.  The registry (``workloads/registry.py``) resolves a name
  to its def and ``build_source`` dispatches on the family, so
  adding a scenario is one :func:`~repro.workloads.registry.register_workload`
  call — no new simulation code.

APKI and the read ratio of the Table II rows come straight from the
paper.  Skew and reuse are chosen per suite: graph workloads are highly
skewed and irregular; the Rodinia/Polybench kernels are more regular.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.config import GB


@dataclass(frozen=True)
class WorkloadSpec:
    """Characteristics of one workload (a Table II row or equivalent)."""

    name: str
    apki: float
    read_ratio: float
    suite: str  # "rodinia" | "polybench" | "graphbig" | "dense" | "pointer" | "stream" | "composed" | "trace"
    zipf_alpha: float = 0.9  # page-popularity skew
    seq_run_mean: float = 4.0  # mean sequential-line run length
    temporal_reuse: float = 0.45  # chance of revisiting a recent line
    stream_fraction: float = 0.35  # cold strided sweep of the footprint
    compute_reuse: float = 24.0  # kernel passes over each byte (Fig. 3)
    footprint_bytes: int = 8 * GB  # paper: workloads scaled to 8 GB

    def __post_init__(self) -> None:
        if self.apki <= 0:
            raise ValueError(f"{self.name}: APKI must be positive")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError(f"{self.name}: read ratio must be in [0, 1]")
        if self.footprint_bytes <= 0:
            raise ValueError(f"{self.name}: footprint must be positive")

    @property
    def is_graph(self) -> bool:
        return self.suite == "graphbig"

    @property
    def mean_gap_instructions(self) -> float:
        """Mean warp instructions between memory accesses."""
        return 1000.0 / self.apki

    def scaled_footprint(self, scale_down: int) -> int:
        """Footprint after the simulator's capacity scale-down.

        The paper scales capacities by 12x; extra scaling (for pure
        Python) divides footprint and memory alike so ratios hold.
        """
        return max(1, self.footprint_bytes * 12 // scale_down)


# Table II, verbatim.
TABLE2 = (
    WorkloadSpec("backp", 30, 0.53, "rodinia", zipf_alpha=0.95, seq_run_mean=8.0, temporal_reuse=0.55, compute_reuse=64.0),
    WorkloadSpec("lud", 20, 0.52, "rodinia", zipf_alpha=0.95, seq_run_mean=8.0, temporal_reuse=0.55, compute_reuse=96.0),
    WorkloadSpec("GRAMS", 266, 0.70, "polybench", zipf_alpha=1.05, seq_run_mean=6.0, temporal_reuse=0.55, compute_reuse=16.0),
    WorkloadSpec("FDTD", 86, 0.70, "polybench", zipf_alpha=1.05, seq_run_mean=6.0, temporal_reuse=0.55, compute_reuse=32.0),
    WorkloadSpec("betw", 193, 0.99, "graphbig", zipf_alpha=1.1, seq_run_mean=2.0, compute_reuse=12.0),
    WorkloadSpec("bfsdata", 84, 0.95, "graphbig", zipf_alpha=1.0, seq_run_mean=2.0, compute_reuse=24.0),
    WorkloadSpec("bfstopo", 25, 0.97, "graphbig", zipf_alpha=1.0, seq_run_mean=2.0, compute_reuse=48.0),
    WorkloadSpec("gctopo", 93, 0.99, "graphbig", zipf_alpha=1.1, seq_run_mean=2.0, compute_reuse=20.0),
    WorkloadSpec("pagerank", 599, 0.99, "graphbig", zipf_alpha=1.2, seq_run_mean=2.0, compute_reuse=8.0),
    WorkloadSpec("sssp", 103, 0.98, "graphbig", zipf_alpha=1.1, seq_run_mean=2.0, compute_reuse=20.0),
)


def _freeze_params(params: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Canonical (sorted, hashable) form of a family parameter mapping."""
    frozen = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        frozen.append((key, value))
    return tuple(frozen)


@dataclass(frozen=True)
class WorkloadDef:
    """A registered workload: a name bound to a family and its params.

    This is the declarative unit of the workload subsystem.  The
    ``family`` string selects the generator or source the registry's
    ``build_source`` builds; ``params`` parameterize it (tile sizes, read:write
    mixes, tenant shares, a trace-file digest, ...).  The ``spec``
    carries the workload's characteristics for every consumer that does
    not generate traces (footprint scaling, the Fig. 3 host model).

    Defs are frozen and hashable; :meth:`fingerprint_payload` is folded
    into the persistent result-cache key so two workloads that share a
    name but differ in parameters can never alias a cached result.
    """

    name: str
    family: str
    spec: WorkloadSpec
    params: Tuple[Tuple[str, Any], ...] = ()
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("workload def needs a name")
        if not self.family:
            raise ValueError(f"{self.name}: workload def needs a family")

    @property
    def param_dict(self) -> Dict[str, Any]:
        """The family parameters as a plain keyword mapping."""
        return dict(self.params)

    def fingerprint_payload(self) -> dict:
        """Everything that determines this workload's traces, as JSON.

        Folded into :func:`repro.harness.cache.job_fingerprint`, so a
        cached result can only be replayed for a byte-identical
        workload definition.
        """
        return {
            "family": self.family,
            "params": [[k, list(v) if isinstance(v, tuple) else v]
                       for k, v in self.params],
            "spec": asdict(self.spec),
        }


def make_def(
    name: str,
    family: str,
    spec: WorkloadSpec,
    params: Mapping[str, Any] | None = None,
    summary: str = "",
) -> WorkloadDef:
    """Build a :class:`WorkloadDef` from a plain parameter mapping."""
    return WorkloadDef(
        name=name,
        family=family,
        spec=spec,
        params=_freeze_params(params or {}),
        summary=summary,
    )
