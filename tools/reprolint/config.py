"""The repo-specific rule configuration: what reprolint knows about us.

This module is the *registry* the ISSUE/DESIGN.md rules talk about —
which modules are registered hot paths (R1), which base classes excuse
a slotless class (R2), which calls are wall-clock/entropy (R3), which
method names count as construction time (R4), and which constructors
build objects that cross the executor pickle boundary (R5).

Everything is carried on a :class:`LintConfig` value so the test suite
can lint fixture files under a synthetic configuration; the module
constants below are the production defaults for ``src/repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

# --------------------------------------------------------------------------
# R1 — registered hot paths (DESIGN.md §7 Rule 1).
#
# A module listed here is hot *everywhere* except:
#   * dunder methods (``__init__`` and friends): key pre-formatting at
#     construction is exactly what Rule 1 prescribes;
#   * module level (constants, docstrings);
#   * formatting inside a ``raise`` statement: an error path aborts the
#     run, so it never executes per event;
#   * qualnames listed in the module's extra-cold set.
#
# The set mirrors §7's named loops: the engine drain, the fused warp
# step, the channel transfer_window paths, the DRAM device access path,
# the SM, and the XPoint controller/slice serve paths they feed.
HOT_MODULES: Dict[str, FrozenSet[str]] = {
    "sim/engine.py": frozenset(),
    "gpu/warp.py": frozenset(),
    "gpu/sm.py": frozenset(),
    "gpu/interconnect.py": frozenset(),
    "dram/device.py": frozenset(),
    "channel/base.py": frozenset(),
    "channel/electrical.py": frozenset(),
    "optical/channel.py": frozenset(),
    "xpoint/controller.py": frozenset(),
    "core/slices.py": frozenset(),
    "core/memsystem.py": frozenset(),
}

# --------------------------------------------------------------------------
# R2 — slotted classes (DESIGN.md §7 Rules 2–3).
#
# Packages whose classes must carry ``__slots__`` (directly or via
# ``@dataclass(slots=True)``).  Exceptions, enums and Protocols are
# structurally excused; anything else needs an inline pragma with a
# reason (the instance-``__dict__`` seams: audit wrappers, fast-path
# uniformity probes).
SLOTTED_PACKAGES: Tuple[str, ...] = ("sim", "gpu", "channel", "dram", "xpoint")

# Terminal base-class names that structurally excuse a slotless class.
EXEMPT_BASE_NAMES: FrozenSet[str] = frozenset({
    "Enum", "IntEnum", "StrEnum", "Flag", "IntFlag",
    "Protocol", "NamedTuple", "TypedDict",
})

# --------------------------------------------------------------------------
# R3 — determinism (the golden-fingerprint contract).
#
# Banned call chains (matched on the dotted tail, so both
# ``datetime.now`` and ``datetime.datetime.now`` hit).  The harness
# package is exempt: leases, cache GC and perf history legitimately
# read the wall clock — none of it feeds a fingerprint.
WALL_CLOCK_TAILS: Tuple[str, ...] = (
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "date.today",
    "os.urandom",
)
# Any call ``uuid.<something>(...)`` or ``secrets.<something>(...)``.
ENTROPY_MODULES: FrozenSet[str] = frozenset({"uuid", "secrets"})
# ``random.<fn>(...)`` on the *module* is the process-global RNG; only
# constructing a seeded instance is allowed.
RANDOM_ALLOWED_ATTRS: FrozenSet[str] = frozenset({"Random"})
# Importing these names directly would hide the banned calls from the
# chain matcher, so the imports themselves are findings.
BANNED_FROM_IMPORTS: Dict[str, FrozenSet[str]] = {
    "time": frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns",
    }),
    "os": frozenset({"urandom"}),
    "uuid": frozenset({"uuid1", "uuid3", "uuid4", "uuid5"}),
    "random": frozenset({
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "seed", "betavariate", "triangular",
    }),
    "secrets": None,  # type: ignore[dict-item]  # any name
}
DETERMINISM_EXEMPT_PREFIXES: Tuple[str, ...] = ("harness/",)

# --------------------------------------------------------------------------
# R4 — audit placement (DESIGN.md §10.2): guarded handle installation
# at construction, never per-event auditor branches.  Scoped to the
# model layers; sim/audit.py is the audit implementation itself.
AUDIT_SCOPED_PACKAGES: Tuple[str, ...] = (
    "sim", "gpu", "channel", "dram", "xpoint",
    "hetero", "hoststorage", "optical", "core",
)
AUDIT_EXEMPT_FILES: FrozenSet[str] = frozenset({"sim/audit.py"})
# Function names where auditor conditionals are construction/post-run
# time by design, not per-event branches.
CONSTRUCTION_NAMES: FrozenSet[str] = frozenset({
    "__init__", "__post_init__", "__new__", "__set_name__",
    "instrument", "audit", "finish",
})
CONSTRUCTION_PREFIXES: Tuple[str, ...] = ("_install", "_check", "_wire")

# --------------------------------------------------------------------------
# R5 — the executor pickle boundary.  Constructors whose arguments end
# up pickled to worker processes (SimulationJob) or re-resolved by name
# inside them (registry entries).  Lambdas and closure-local functions
# do not survive either trip.
PICKLE_BOUNDARY_CALLS: FrozenSet[str] = frozenset({
    "SimulationJob", "ExperimentSpec", "WorkloadDef", "ScenarioSpec",
})


@dataclass(frozen=True)
class LintConfig:
    """One linting policy; defaults are the production src/repro policy."""

    hot_modules: Dict[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(HOT_MODULES))
    slotted_packages: Tuple[str, ...] = SLOTTED_PACKAGES
    exempt_base_names: FrozenSet[str] = EXEMPT_BASE_NAMES
    wall_clock_tails: Tuple[str, ...] = WALL_CLOCK_TAILS
    entropy_modules: FrozenSet[str] = ENTROPY_MODULES
    random_allowed_attrs: FrozenSet[str] = RANDOM_ALLOWED_ATTRS
    banned_from_imports: Dict[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(BANNED_FROM_IMPORTS))
    determinism_exempt_prefixes: Tuple[str, ...] = DETERMINISM_EXEMPT_PREFIXES
    audit_scoped_packages: Tuple[str, ...] = AUDIT_SCOPED_PACKAGES
    audit_exempt_files: FrozenSet[str] = AUDIT_EXEMPT_FILES
    construction_names: FrozenSet[str] = CONSTRUCTION_NAMES
    construction_prefixes: Tuple[str, ...] = CONSTRUCTION_PREFIXES
    pickle_boundary_calls: FrozenSet[str] = PICKLE_BOUNDARY_CALLS

    def is_hot(self, rel: str) -> bool:
        return rel in self.hot_modules

    def extra_cold(self, rel: str) -> FrozenSet[str]:
        return self.hot_modules.get(rel, frozenset())

    def in_packages(self, rel: str, packages: Tuple[str, ...]) -> bool:
        head = rel.split("/", 1)[0]
        return head in packages

    def determinism_exempt(self, rel: str) -> bool:
        return any(rel.startswith(p) for p in self.determinism_exempt_prefixes)
