"""Declarative open-loop scenario specs and their registry.

Mirrors the workload/experiment registries: a :class:`ScenarioSpec` is a
frozen, hashable description — arrival process, tenant-class mix,
capacity/admission policy, optional degradation schedule — registered
under a name and runnable via ``repro scenario run`` or
:func:`repro.scenarios.openloop.run_scenario`.  Everything dimensionless
is expressed relative to the *measured* per-class service time, so a
scenario keeps its shape (load, horizon, SLO) at any ``--warps/--quick``
sizing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.degradation import DegradationSpec


@dataclass(frozen=True)
class TenantClass:
    """One class of arriving tenants.

    ``weight`` sets the class's share of arrivals (weighted round-robin
    over the stream, like multi-tenant warp assignment); ``slots`` is how
    much SM capacity one job of this class occupies while running;
    ``slo_multiplier`` defines the latency SLO as a multiple of the
    class's *solo* (uncontended, undegraded) service time.
    """

    name: str
    workload: str = "stream_scan"
    platform: str = "Ohm-base"
    mode: str = "planar"
    weight: float = 1.0
    slots: int = 1
    slo_multiplier: float = 3.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be positive")
        if self.slots < 1:
            raise ValueError(f"tenant {self.name!r}: slots must be >= 1")
        if self.slo_multiplier <= 0:
            raise ValueError(
                f"tenant {self.name!r}: slo_multiplier must be positive"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete open-loop scenario (arrivals + mix + policy + decay)."""

    name: str
    title: str
    arrivals: ArrivalProcess
    tenants: Tuple[TenantClass, ...]
    horizon_services: float = 200.0  # horizon in mean solo service times
    capacity_slots: int = 8
    queue_limit: int = 64
    num_epochs: int = 10
    degradation: Optional[DegradationSpec] = None
    seed: int = 1
    summary: str = ""

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError(f"{self.name}: need at least one tenant class")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"{self.name}: tenant class names must be unique")
        if self.horizon_services <= 0:
            raise ValueError(f"{self.name}: horizon_services must be positive")
        if self.capacity_slots < 1:
            raise ValueError(f"{self.name}: capacity_slots must be >= 1")
        if self.queue_limit < 1:
            raise ValueError(f"{self.name}: queue_limit must be >= 1")
        if self.num_epochs < 1:
            raise ValueError(f"{self.name}: num_epochs must be >= 1")
        for t in self.tenants:
            if t.slots > self.capacity_slots:
                raise ValueError(
                    f"{self.name}: tenant {t.name!r} needs {t.slots} slots "
                    f"but capacity is {self.capacity_slots} — it could never run"
                )

    def describe(self) -> str:
        """The ``repro scenario describe`` text: arrivals, policy, mix."""
        a = self.arrivals
        lines = [f"{self.name}  [{self.title}]"]
        if self.summary:
            lines.append(f"  {self.summary}\n")
        lines.append(
            f"  arrivals   : {a.kind}, offered load {a.offered_load:.0%}"
            + (
                f", on-fraction {a.on_fraction:.0%}, period {a.period_frac:.0%} "
                "of horizon"
                if a.kind == "bursty"
                else f", depth {a.depth:.0%}, period {a.period_frac:.0%} of horizon"
                if a.kind == "diurnal"
                else ""
            )
        )
        lines.append(
            f"  policy     : {self.capacity_slots} SM slots, FIFO queue limit "
            f"{self.queue_limit}, horizon {self.horizon_services:.0f} mean "
            f"services, {self.num_epochs} epochs, seed {self.seed}"
        )
        if self.degradation:
            params = ", ".join(f"{k}={v}" for k, v in self.degradation.params)
            lines.append(
                f"  degradation: {self.degradation.kind} ({params or 'defaults'})"
            )
        lines.append("  tenants:")
        lines.extend(
            f"    {t.name:10s} {t.workload} on {t.platform}/{t.mode}, "
            f"weight {t.weight:g}, {t.slots} slot(s), "
            f"SLO {t.slo_multiplier:g}x solo service"
            for t in self.tenants
        )
        return "\n".join(lines)


SCENARIOS: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace: bool = False) -> ScenarioSpec:
    if spec.name in SCENARIOS and not replace:
        raise ValueError(f"scenario {spec.name!r} already registered")
    SCENARIOS[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def _register_defaults() -> None:
    """Built-in scenarios (import-time, so worker processes see them)."""
    mix = (
        TenantClass("batch", workload="gemm_reuse", weight=1.0, slots=2,
                    slo_multiplier=6.0),
        TenantClass("latency", workload="pointer_chase", weight=2.0, slots=1,
                    slo_multiplier=2.5),
        TenantClass("stream", workload="stream_scan", weight=1.0, slots=1,
                    slo_multiplier=4.0),
    )
    register_scenario(ScenarioSpec(
        name="steady_poisson",
        title="Steady-state Poisson arrivals at 70% load",
        arrivals=ArrivalProcess(kind="poisson", offered_load=0.7),
        tenants=mix,
        summary="Baseline open-loop mix: three tenant classes, Poisson "
                "arrivals, no degradation — the control scenario.",
    ))
    register_scenario(ScenarioSpec(
        name="rush_hour",
        title="Bursty on-off arrivals (rush-hour traffic)",
        arrivals=ArrivalProcess(kind="bursty", offered_load=0.8,
                                on_fraction=0.25, period_frac=0.1),
        tenants=mix,
        queue_limit=32,
        summary="On-off bursts at 4x the mean rate stress admission and "
                "queueing; expect p99 and rejections to move first.",
    ))
    register_scenario(ScenarioSpec(
        name="diurnal_mix",
        title="Diurnal sinusoidal arrivals over a long horizon",
        arrivals=ArrivalProcess(kind="diurnal", offered_load=0.6,
                                period_frac=0.25, depth=0.9),
        tenants=mix,
        horizon_services=400.0,
        summary="A day-in-the-life intensity curve: troughs drain the "
                "queue, peaks push utilization past 1 transiently.",
    ))
    register_scenario(ScenarioSpec(
        name="ber_aging",
        title="Laser aging: BER drift lengthens service over the horizon",
        arrivals=ArrivalProcess(kind="poisson", offered_load=0.6),
        tenants=mix,
        degradation=DegradationSpec("ber_drift", (("end_power_frac", 0.25),)),
        summary="Received optical power decays to 25%; the calibrated "
                "BER model turns that into retransmission-stretched "
                "service times epoch by epoch.",
    ))
    register_scenario(ScenarioSpec(
        name="xpoint_wear",
        title="XPoint wear: millions of writes age Start-Gap regions",
        arrivals=ArrivalProcess(kind="poisson", offered_load=0.6),
        tenants=mix,
        degradation=DegradationSpec(
            "xpoint_wear",
            (("writes_per_epoch", 2_000_000.0), ("write_share", 0.5)),
        ),
        summary="Background write pressure drives real Start-Gap "
                "rotations (closed-form bulk aging); write amplification "
                "feeds back into service times and the translator is "
                "audited after every run.",
    ))
    register_scenario(ScenarioSpec(
        name="channel_flap",
        title="Channel failure/recovery injection under steady load",
        arrivals=ArrivalProcess(kind="poisson", offered_load=0.6),
        tenants=mix,
        degradation=DegradationSpec(
            "channel_flap",
            (("fail_prob", 0.2), ("recover_prob", 0.5)),
        ),
        summary="Seeded per-epoch channel failures shrink SM capacity "
                "until recovery; at least one channel always survives.",
    ))
    register_scenario(ScenarioSpec(
        name="wavelength_drift",
        title="Skewed demand drives dynamic wavelength rebalances",
        arrivals=ArrivalProcess(kind="poisson", offered_load=0.6),
        tenants=mix,
        degradation=DegradationSpec(
            "wavelength_drift", (("retune_weight", 0.05),)
        ),
        summary="A random-walk demand skew makes the HPCA'13 dynamic "
                "allocator rebalance each epoch; retuned rings charge a "
                "small service tax and shares are audited for "
                "conservation.",
    ))


_register_defaults()
