"""Discrete-event simulation kernel used by every Ohm-GPU subsystem.

The engine is a warp-event queue: warps are the only things that wake
on the clock, and the memory system they call answers synchronously.
It keeps time in integer **picoseconds** so that the 30 GHz optical
clock, the 15 GHz electrical channel clock and the 1.2 GHz SM clock can
all be represented exactly.
"""

from repro.sim.audit import (
    Auditor,
    InvariantError,
    InvariantViolation,
    ValidatingEngine,
)
from repro.sim.engine import Engine, PS_PER_NS, PS_PER_US, freq_ghz_to_period_ps, ns, us
from repro.sim.records import RequestKind
from repro.sim.stats import Histogram, LatencyStat, Stats

__all__ = [
    "Auditor",
    "InvariantError",
    "InvariantViolation",
    "ValidatingEngine",
    "Engine",
    "PS_PER_NS",
    "PS_PER_US",
    "freq_ghz_to_period_ps",
    "ns",
    "us",
    "RequestKind",
    "Stats",
    "LatencyStat",
    "Histogram",
]
