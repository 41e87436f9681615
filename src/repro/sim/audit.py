"""Cross-layer invariant auditing (opt-in, zero-cost when disabled).

The simulator's counters feed every evaluation artifact — the Fig. 19
energy breakdown, tenant attribution, channel bandwidth splits — and a
silent accounting drift would be *fingerprint-stable*: the golden
regression tests freeze whatever the counters say, right or wrong.
This module is the independent witness.  An :class:`Auditor` installed
into a :class:`~repro.gpu.gpu.GpuModel` at construction checks
conservation laws that must hold **across layers**:

====================  =================================================
invariant prefix      what must hold
====================  =================================================
``engine.*``          event time never moves backwards; the heap drains
                      completely (no event stranded past the last warp)
``gpu.*``             memory ops issued by the warps == demand
                      requests served by memory (nothing lost, nothing
                      double-counted); latency samples == demand
                      requests; instructions retired by warps == the
                      SMs' issue counter; NoC bits == demand requests
                      x line size
``channel.*``         bits offered to each port == bits its counters
                      account (bytes-in == bytes-out per transfer
                      window); windows are sane (no past start, no
                      empty occupancy); per-kind busy time == per-route
                      busy time
``dram.*``            the device counters reconcile with the per-bank
                      state machines; every activation is followed by a
                      column access or a bulk (swap) occupancy
``xpoint.*``          controller-layer ECC/buffer counters reconcile
                      with media-layer access counters (writes accepted
                      == writes persisted + still buffered)
``host.*``            PCIe transfers == faults + writebacks, page-sized
``hetero.*``          migrations == swaps (planar) / == DRAM-cache
                      misses (two-level); cache hits + misses == serves
``tenant.*``          per-tenant counters sum to the run totals
``energy.*``          ``EnergyBreakdown.total_j`` reconciles against an
                      independent re-derivation from raw counters
====================  =================================================

Zero-cost rule (DESIGN.md section 7): when no auditor is installed the
hot paths are untouched — the validating engine is a *subclass* chosen
at construction, channel instrumentation wraps ``transfer_window`` only
on audited models, and every other check runs once, after the run, on
the finished model.  There is no per-event ``if validate:`` anywhere.

Violations are structured :class:`InvariantViolation` records collected
on the auditor; a strict auditor (``RunConfig(validate=True)`` /
``--validate``) raises :class:`InvariantError` at the end of the run,
while the ``repro audit`` sweep collects them into a report instead
(see ``repro.harness.audit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

# NOTE: this module sits below the channel layer in the import graph
# (repro.sim.__init__ pulls it in, and channel.base imports
# repro.sim.records), so RouteKind is imported lazily where needed.
from repro.sim.engine import Engine
from repro.sim.records import RequestKind

if TYPE_CHECKING:  # avoid the cycle: gpu.gpu imports this module
    from repro.gpu.gpu import GpuModel, RunResult


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One broken conservation law, with both sides of the ledger."""

    invariant: str  # e.g. "channel.bits_conserved"
    component: str  # e.g. "ochan3", "mc0.dram", "engine"
    message: str
    expected: Optional[float] = None
    actual: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "component": self.component,
            "message": self.message,
            "expected": self.expected,
            "actual": self.actual,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "InvariantViolation":
        return cls(
            invariant=data["invariant"],
            component=data["component"],
            message=data["message"],
            expected=data.get("expected"),
            actual=data.get("actual"),
        )

    def __str__(self) -> str:
        detail = ""
        if self.expected is not None or self.actual is not None:
            detail = f" (expected {self.expected!r}, got {self.actual!r})"
        return f"[{self.invariant}] {self.component}: {self.message}{detail}"


class InvariantError(RuntimeError):
    """Raised by a strict auditor when any invariant is violated."""

    def __init__(self, violations: List[InvariantViolation]) -> None:
        self.violations = list(violations)
        shown = "\n  ".join(str(v) for v in self.violations[:5])
        more = len(self.violations) - 5
        if more > 0:
            shown += f"\n  ... and {more} more"
        super().__init__(
            f"{len(self.violations)} invariant violation(s):\n  {shown}"
        )

    def __reduce__(self):
        # Default Exception pickling would replay __init__ with
        # ``args`` (the formatted message string), turning each
        # character into a "violation" after a worker-process
        # round-trip; reconstruct from the structured records instead.
        return (self.__class__, (self.violations,))


class _ChannelTally:
    """Independent per-port ledger kept by the transfer-window wrapper."""

    __slots__ = ("name", "port", "bits", "windows")

    def __init__(self, name: str, port) -> None:
        self.name = name
        self.port = port
        self.bits = 0
        self.windows = 0


class ValidatingEngine(Engine):
    """An :class:`Engine` that audits event-time monotonicity.

    Only instantiated on audited models; the production ``Engine.run``
    fast path is untouched.  The monotonicity check guards the heap
    discipline itself — ``lane_schedule`` already rejects scheduling
    into the past, so a violation here means the queue ordering broke.

    Every run goes through the engine's per-event loop, so warp events
    are popped one at a time through the lane's ``step`` (never the
    fused drain) — same ``(time, seq)`` order, same results, with the
    heap discipline watched on every pop.
    """

    __slots__ = ("auditor",)

    def __init__(self, auditor: "Auditor") -> None:
        super().__init__()
        self.auditor = auditor

    def run(self, max_events: Optional[int] = None) -> None:
        self._run_guarded(max_events, self.auditor.record)


class Auditor:
    """Collects invariant checks and violations for one simulation.

    Install by constructing the model with ``GpuModel(..., auditor=a)``;
    the model wires the validating engine and channel instrumentation at
    construction and calls :meth:`finish` after the run.  ``strict``
    auditors raise :class:`InvariantError` from ``finish`` when any
    check failed; non-strict auditors just accumulate (the ``repro
    audit`` sweep reads :attr:`violations` afterwards).
    """

    __slots__ = ("strict", "violations", "checks_run", "_tallies")

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self.checks_run = 0
        self._tallies: Dict[str, _ChannelTally] = {}

    # -- recording ------------------------------------------------------

    def record(
        self,
        invariant: str,
        component: str,
        message: str,
        expected: Optional[float] = None,
        actual: Optional[float] = None,
    ) -> None:
        """Record a violation unconditionally."""
        self.violations.append(
            InvariantViolation(invariant, component, message, expected, actual)
        )

    def check(
        self,
        invariant: str,
        component: str,
        ok: bool,
        message: str,
        expected: Optional[float] = None,
        actual: Optional[float] = None,
    ) -> bool:
        """Run one named check; a failure records a violation."""
        self.checks_run += 1
        if not ok:
            self.record(invariant, component, message, expected, actual)
        return ok

    def check_equal(
        self,
        invariant: str,
        component: str,
        expected: float,
        actual: float,
        message: str,
    ) -> bool:
        return self.check(
            invariant, component, expected == actual, message, expected, actual
        )

    def check_close(
        self,
        invariant: str,
        component: str,
        expected: float,
        actual: float,
        message: str,
        rel_tol: float = 1e-9,
    ) -> bool:
        ok = math.isclose(expected, actual, rel_tol=rel_tol, abs_tol=1e-18)
        return self.check(invariant, component, ok, message, expected, actual)

    def raise_if_violations(self) -> None:
        if self.violations:
            raise InvariantError(self.violations)

    # -- construction-time instrumentation ------------------------------

    def instrument(self, model: "GpuModel") -> None:
        """Wrap every channel port of ``model`` with a bit ledger.

        Guarded handle installation at construction: the wrapper is only
        ever installed on audited models, so un-audited transfers never
        pay a branch.  Slices cache a bound ``transfer_window`` at their
        own construction, so each one rebinds after the wrap.
        """
        for s in model.memory.slices:
            chan = getattr(s, "chan", None)
            if chan is None:
                continue
            if chan.name not in self._tallies:
                self._wrap_channel(chan)
            s.refresh_channel_binding()
        # Workload-layer contract, checked before any event runs: a
        # malformed trace (misaligned arrays, negative gaps/addresses)
        # would otherwise surface as an obscure mid-run crash — or not
        # surface at all.  A strict auditor therefore raises *here*,
        # from model construction, with the structured records instead
        # of letting the run die on the symptom.
        self.checks_run += 1
        for w in model.warps:
            for problem in w.trace.well_formed():
                self.record(
                    "workload.trace_wellformed", f"warp{w.warp_id}", problem
                )
        if self.strict:
            self.raise_if_violations()

    def _wrap_channel(self, chan) -> None:
        tally = self._tallies[chan.name] = _ChannelTally(chan.name, chan)
        inner = chan.transfer_window
        record = self.record

        # Pure pass-through on the route/device arguments (so the
        # wrapper needs no RouteKind default of its own — see the
        # import note at the top of the module).
        def audited_transfer_window(
            now_ps: int, bits: int, kind: RequestKind, *args, **kwargs
        ) -> tuple:
            start, end = inner(now_ps, bits, kind, *args, **kwargs)
            tally.bits += bits
            tally.windows += 1
            if start < now_ps:
                record(
                    "channel.window_sane",
                    tally.name,
                    "transfer window starts before its request",
                    expected=now_ps,
                    actual=start,
                )
            if end <= start:
                record(
                    "channel.window_sane",
                    tally.name,
                    "transfer window has no occupancy",
                    expected=start + 1,
                    actual=end,
                )
            return start, end

        chan.transfer_window = audited_transfer_window

    # -- post-run checks ------------------------------------------------

    def finish(self, model: "GpuModel", result: "RunResult") -> None:
        """Run every post-run conservation check on the finished model."""
        c = result.counters
        self._check_engine(model)
        self._check_gpu(model, result, c)
        self._check_channels(model, c)
        self._check_dram(model, c)
        self._check_xpoint(model, c)
        self._check_host(model, c)
        self._check_hetero(c)
        self._check_tenants(model, result, c)
        self._check_energy(model, result)
        if self.strict:
            self.raise_if_violations()

    def _check_engine(self, model: "GpuModel") -> None:
        # Monotonicity ran per event inside ValidatingEngine; count it
        # as one performed check over the whole run.
        self.checks_run += 1
        self.check_equal(
            "engine.heap_drain",
            "engine",
            0,
            model.engine.pending(),
            "events still queued after the run drained",
        )

    def _check_gpu(self, model: "GpuModel", result: "RunResult", c) -> None:
        self.check_equal(
            "gpu.requests_conserved",
            "gpu",
            sum(len(w.trace) for w in model.warps),
            c.get("mem.demand_requests", 0.0),
            "memory ops issued by warps != demand requests served",
        )
        self.check_equal(
            "gpu.latency_samples",
            "gpu",
            c.get("mem.demand_requests", 0.0),
            result.demand_requests,
            "latency samples != demand-request counter",
        )
        self.check_equal(
            "gpu.instructions_conserved",
            "gpu",
            result.instructions,
            c.get("gpu.instructions", 0.0),
            "warp-retired instructions != SM issue counter",
        )
        self.check_equal(
            "gpu.trace_instructions",
            "gpu",
            sum(w.trace.total_instructions for w in model.warps),
            result.instructions,
            "instructions declared by the traces != instructions retired",
        )
        if "noc.bits" in c:
            line_bits = model.cfg.gpu.line_bytes * 8
            self.check_equal(
                "gpu.noc_bits",
                "noc",
                c.get("mem.demand_requests", 0.0) * line_bits,
                c["noc.bits"],
                "interconnect bits != demand requests x line size",
            )

    def _check_channels(self, model: "GpuModel", c) -> None:
        for tally in self._tallies.values():
            name = tally.name
            # The key scheme is owned by the channel layer; the port
            # reads its own ledger back out of the counter snapshot.
            ledger = tally.port.accounting(c)
            self.check_equal(
                "channel.bits_conserved",
                name,
                tally.bits,
                ledger["bits"],
                "bits offered to the port != bits its counters account",
            )
            self.check_equal(
                "channel.windows_conserved",
                name,
                tally.windows,
                ledger["windows"],
                "transfer windows opened != transfers counted",
            )
            self.check_equal(
                "channel.busy_routes",
                name,
                ledger["kind_busy_ps"],
                ledger["route_busy_ps"],
                "per-kind busy time != per-route busy time",
            )

    def _check_dram(self, model: "GpuModel", c) -> None:
        for dram in self._devices(model, "dram"):
            name = dram.name
            banks = dram.banks
            self.check_equal(
                "dram.bank_accesses",
                name,
                sum(b.accesses for b in banks),
                c.get(f"{name}.accesses", 0.0),
                "device access counter != sum of per-bank accesses",
            )
            self.check_equal(
                "dram.bank_row_hits",
                name,
                sum(b.row_hits for b in banks),
                c.get(f"{name}.row_hits", 0.0),
                "device row-hit counter != sum of per-bank row hits",
            )
            # The device counter feeds the energy model and counts
            # *demand-path* activations; swap presets are tracked
            # separately on the banks (see dram/bank.py).
            self.check_equal(
                "dram.bank_activations",
                name,
                sum(b.activations - b.preset_activations for b in banks),
                c.get(f"{name}.activations", 0.0),
                "device activation counter != per-bank demand activations",
            )
            self.check_equal(
                "dram.access_split",
                name,
                c.get(f"{name}.accesses", 0.0),
                c.get(f"{name}.reads", 0.0) + c.get(f"{name}.writes", 0.0),
                "accesses != reads + writes",
            )
            self.check_equal(
                "dram.outcome_split",
                name,
                c.get(f"{name}.accesses", 0.0),
                c.get(f"{name}.row_hits", 0.0)
                + c.get(f"{name}.activations", 0.0),
                "accesses != row hits + activations",
            )
            for i, bank in enumerate(banks):
                if bank.activations > bank.accesses + bank.occupancies:
                    self.record(
                        "dram.activations_bounded",
                        f"{name}.bank{i}",
                        "more activations than column accesses + bulk "
                        "occupancies — an activation did no work",
                        expected=bank.accesses + bank.occupancies,
                        actual=bank.activations,
                    )
            self.checks_run += 1  # the per-bank bound, counted once

    def _check_xpoint(self, model: "GpuModel", c) -> None:
        for xp in self._devices(model, "xp"):
            name = xp.name
            media = f"{name}.media"
            self.check_equal(
                "xpoint.media_split",
                media,
                c.get(f"{media}.accesses", 0.0),
                c.get(f"{media}.reads", 0.0) + c.get(f"{media}.writes", 0.0),
                "media accesses != reads + writes",
            )
            # Writes: every accepted write was ECC-encoded; it is either
            # persisted to the media or still in the persistent write
            # buffer.  Start-Gap rotations add one media read + write.
            rotations = c.get(f"{name}.gap_rotations", 0.0)
            self.check_equal(
                "xpoint.write_conservation",
                name,
                c.get(f"{name}.ecc_encodes", 0.0)
                - xp.write_buffer_occupancy
                + rotations,
                c.get(f"{media}.writes", 0.0),
                "writes accepted - still buffered + rotations "
                "!= media writes",
            )
            self.check_equal(
                "xpoint.read_conservation",
                name,
                c.get(f"{name}.ecc_decodes", 0.0) + rotations,
                c.get(f"{media}.reads", 0.0),
                "ECC decodes + rotations != media reads",
            )
            check_startgap(self, name, xp.translator, rotations)

    def _check_host(self, model: "GpuModel", c) -> None:
        if "pcie.transfers" not in c:
            return
        self.check_equal(
            "host.pcie_transfers",
            "pcie",
            c.get("host.faults", 0.0) + c.get("host.writebacks", 0.0),
            c["pcie.transfers"],
            "PCIe transfers != page faults + dirty writebacks",
        )
        self.check_equal(
            "host.pcie_bytes",
            "pcie",
            c["pcie.transfers"] * model.cfg.hetero.page_bytes,
            c.get("pcie.bytes", 0.0),
            "PCIe bytes != transfers x page size",
        )

    def _check_hetero(self, c) -> None:
        if "mem.swaps" in c or "mem.migrations" in c:
            if "mem.dram_cache_misses" in c:
                self.check_equal(
                    "hetero.migrations",
                    "mem",
                    c.get("mem.dram_cache_misses", 0.0),
                    c.get("mem.migrations", 0.0),
                    "two-level migrations != DRAM-cache misses",
                )
            else:
                self.check_equal(
                    "hetero.migrations",
                    "mem",
                    c.get("mem.swaps", 0.0),
                    c.get("mem.migrations", 0.0),
                    "planar migrations != page swaps",
                )
        if "mem.dram_cache_hits" in c or "mem.dram_cache_misses" in c:
            self.check_equal(
                "hetero.dram_cache_split",
                "mem",
                c.get("mem.demand_requests", 0.0),
                c.get("mem.dram_cache_hits", 0.0)
                + c.get("mem.dram_cache_misses", 0.0),
                "DRAM-cache hits + misses != requests served",
            )

    def _check_tenants(self, model: "GpuModel", result: "RunResult", c) -> None:
        labelled = [w for w in model.warps if w.trace.tenant is not None]
        if not labelled:
            return
        tenants = sorted({w.trace.tenant for w in labelled})
        sums = {
            key: sum(c.get(f"tenant.{t}.{key}", 0.0) for t in tenants)
            for key in ("warps", "instructions", "accesses")
        }
        fully_labelled = len(labelled) == len(model.warps)
        totals = {
            "warps": len(model.warps),
            "instructions": result.instructions,
            "accesses": sum(len(w.trace) for w in model.warps),
        }
        for key, total in totals.items():
            if fully_labelled:
                self.check_equal(
                    f"tenant.{key}",
                    "tenant",
                    total,
                    sums[key],
                    f"per-tenant {key} do not sum to the run total",
                )
            else:
                self.check(
                    f"tenant.{key}",
                    "tenant",
                    sums[key] <= total,
                    f"per-tenant {key} exceed the run total",
                    expected=total,
                    actual=sums[key],
                )
        for t in tenants:
            finish = c.get(f"tenant.{t}.finish_ps", 0.0)
            self.check(
                "tenant.finish",
                f"tenant.{t}",
                0 < finish <= result.exec_time_ps,
                "tenant finish time outside the run window",
                expected=result.exec_time_ps,
                actual=finish,
            )

    def _check_energy(self, model: "GpuModel", result: "RunResult") -> None:
        # Imported lazily: energy.accounting imports gpu.gpu, which
        # imports this module.
        from repro.energy.accounting import EnergyModel

        cfg, platform = model.cfg, model.platform
        energy = EnergyModel(cfg)
        b = energy.breakdown(platform, result)
        c = result.counters
        for component, value in b.as_dict().items():
            self.check(
                "energy.nonnegative",
                component,
                value >= 0.0,
                "negative component energy",
                expected=0.0,
                actual=value,
            )
        # Independent re-derivation: exact per-component keys from the
        # live model objects, not the breakdown's name-pattern sums.  A
        # counter the breakdown's patterns miss (or double-match) shows
        # up here as a reconciliation failure.
        act = acc = reads = writes = signal_pj = mrr_pj = elec_pj = 0.0
        for dram in self._devices(model, "dram"):
            act += c.get(f"{dram.name}.activations", 0.0)
            acc += c.get(f"{dram.name}.accesses", 0.0)
        for xp in self._devices(model, "xp"):
            reads += c.get(f"{xp.name}.media.reads", 0.0)
            writes += c.get(f"{xp.name}.media.writes", 0.0)
        seen = set()
        for s in model.memory.slices:
            chan = getattr(s, "chan", None)
            if chan is None or chan.name in seen:
                continue
            seen.add(chan.name)
            pj = c.get(f"{chan.name}.energy_pj", 0.0)
            # Optical ports charge MRR tuning; electrical ports do not.
            if hasattr(chan, "_k_mrr"):
                signal_pj += pj
                mrr_pj += c.get(f"{chan.name}.mrr_tuning_pj", 0.0)
            else:
                elec_pj += pj
        expected = (
            energy.dram.dynamic_j(act, acc)
            + energy.dram.static_j(cfg.electrical.num_channels, result.exec_time_ps)
            + energy.xpoint.dynamic_j(reads, writes)
            + energy.optical.signalling_j(signal_pj, mrr_pj)
            + energy.optical.laser_j(platform.laser_scale, result.exec_time_ps)
            + elec_pj * 1e-12
        )
        self.check_close(
            "energy.total_reconciles",
            platform.name,
            expected,
            b.total_j,
            "EnergyBreakdown.total_j does not reconcile with the "
            "independent re-derivation from raw counters",
        )

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _devices(model: "GpuModel", attr: str):
        """Unique slice-owned devices (``dram`` / ``xp``), in MC order."""
        seen = set()
        for s in model.memory.slices:
            dev = getattr(s, attr, None)
            if dev is None or id(dev) in seen:
                continue
            seen.add(id(dev))
            yield dev


def check_startgap(auditor: Auditor, name: str, translator, rotations: float) -> None:
    """Start-Gap invariants for one :class:`RegionTranslator`.

    Shared between the post-run XPoint audit and the wear scenarios
    (which age translators outside a GPU run):

    * the sum of per-region gap moves equals the controller's
      ``gap_rotations`` counter (every rotation paid its media copy);
    * each region's ``start``/``gap`` registers reconcile with its move
      count in closed form — the gap's offset cycles through
      ``num_lines + 1`` slots and each completed cycle bumps ``start``;
    * every *exercised* region's logical→physical map is still a
      permutation that avoids the gap slot (translation stayed
      injective through any number of rotations).
    """
    auditor.check_equal(
        "xpoint.startgap_rotations",
        name,
        translator.total_gap_moves,
        rotations,
        "sum of per-region gap moves != gap_rotations counter",
    )
    for region, g in enumerate(translator.gaps):
        cycle = g.num_lines + 1
        ok = (
            g.gap == g.num_lines - (g.gap_moves % cycle)
            and g.start == (g.gap_moves // cycle) % g.num_lines
        )
        auditor.check(
            "xpoint.startgap_registers",
            f"{name}.region{region}",
            ok,
            "start/gap registers do not reconcile with the gap-move count",
            expected=g.gap_moves,
            actual=(g.start, g.gap),
        )
        if g.gap_moves:
            mapping = g.mapping()
            auditor.check(
                "xpoint.startgap_permutation",
                f"{name}.region{region}",
                len(set(mapping)) == g.num_lines and g.gap not in mapping,
                "logical->physical map is not a gap-avoiding permutation",
                expected=g.num_lines,
                actual=len(set(mapping)),
            )
