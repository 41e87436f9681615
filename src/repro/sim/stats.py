"""Counters, mean/extreme trackers and fixed-bin histograms.

Every component takes a shared :class:`Stats` so a single object holds
the whole run's measurements; the experiment harness then reads named
counters out of it.

Hot components do not call :meth:`Stats.add` with an f-string name per
event.  They resolve their keys **once at construction** into pre-bound
handles — :meth:`Stats.counter` returns a :class:`Counter` accumulator
and :meth:`Stats.latency_handle` returns the named
:class:`LatencyStat` itself — and the per-event work collapses to one
dict update on an already-hashed key (see DESIGN.md, "Performance").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List


@dataclass(slots=True)
class LatencyStat:
    """Streaming mean/min/max without storing samples.

    Slotted: the warp lane's fused drain updates the four fields in
    place, and slot descriptors make those loads/stores cheaper than
    ``__dict__`` lookups.
    """

    count: int = 0
    total: int = 0
    min_value: int = 0
    max_value: int = 0

    def record(self, value: int) -> None:
        if self.count == 0:
            self.min_value = value
            self.max_value = value
        else:
            if value < self.min_value:
                self.min_value = value
            elif value > self.max_value:
                self.max_value = value
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyStat") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.min_value, self.max_value = other.min_value, other.max_value
        else:
            self.min_value = min(self.min_value, other.min_value)
            self.max_value = max(self.max_value, other.max_value)
        self.count += other.count
        self.total += other.total


class Counter:
    """A pre-bound accumulator for one named counter.

    Holds the shared counter dict and its own key, so the per-event cost
    is a single ``dict[key] += value`` with a cached string hash — no
    name formatting, no :class:`Stats` dispatch.  Entries appear in the
    shared dict on first :meth:`add`, exactly as with ``Stats.add``, so
    binding a handle never changes a snapshot.
    """

    __slots__ = ("_counters", "name")

    def __init__(self, counters: Dict[str, float], name: str) -> None:
        self._counters = counters
        self.name = name

    def add(self, value: float = 1.0) -> None:
        self._counters[self.name] += value

    @property
    def value(self) -> float:
        return self._counters.get(self.name, 0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value})"


class Histogram:
    """Fixed-width-bin histogram for latency distributions.

    Binning semantics are explicit: bin ``k`` covers the half-open
    interval ``[k * bin_width, (k + 1) * bin_width)`` for **any**
    integer value, negative included — ``-1`` with ``bin_width=10``
    lands in the bin starting at ``-10``, not in the zero bin.  The
    width must be a positive integer so bin keys (and the bin starts
    :meth:`items` reports) stay exact ints; a float width would leak
    float keys and floating-point bin boundaries into the results.
    """

    __slots__ = ("bin_width", "bins", "_count")

    def __init__(self, bin_width: int) -> None:
        # bool is an int subclass; Histogram(True) is a bug, not width 1.
        if isinstance(bin_width, bool) or not isinstance(bin_width, int):
            raise TypeError(
                f"bin_width must be an int, got {type(bin_width).__name__}"
            )
        if bin_width <= 0:
            raise ValueError(f"bin_width must be positive, got {bin_width}")
        self.bin_width = bin_width
        self.bins: Dict[int, int] = defaultdict(int)
        self._count = 0

    def record(self, value: int) -> None:
        self.bins[int(value) // self.bin_width] += 1
        self._count += 1

    def items(self) -> List[tuple[int, int]]:
        """``(bin_start, count)`` pairs sorted by bin (negatives first)."""
        return [(b * self.bin_width, c) for b, c in sorted(self.bins.items())]

    @property
    def count(self) -> int:
        """Total samples recorded (maintained incrementally)."""
        return self._count

    def percentile(self, p: float) -> int:
        """Nearest-rank percentile, resolved to its bin start.

        Returns the start of the bin holding the sample at rank
        ``ceil(p/100 * count)`` (1-indexed, samples ordered by bin) —
        the conventional nearest-rank definition, quantized to bin
        resolution.  Bin starts are exact ints, so percentile values
        are reproducible across platforms; an empty histogram reports
        ``0``.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self._count == 0:
            return 0
        rank = max(1, -(-int(p * self._count) // 100))  # ceil without floats
        seen = 0
        for b, c in sorted(self.bins.items()):
            seen += c
            if seen >= rank:
                return b * self.bin_width
        return b * self.bin_width  # pragma: no cover - unreachable


@dataclass(slots=True)
class Stats:
    """A run's shared scoreboard of named counters and latency stats."""

    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    latencies: Dict[str, LatencyStat] = field(default_factory=dict)
    _counter_handles: Dict[str, Counter] = field(
        default_factory=dict, repr=False, compare=False
    )
    _flush_hooks: List = field(default_factory=list, repr=False, compare=False)

    def add(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    def register_flush(self, hook) -> None:
        """Register a deferred-counter flush hook.

        Hot components may batch *integer-valued* counter increments in
        locals/instance fields (n adds of a constant and one add of the
        sum produce the same float, exactly) and fold them in on demand.
        Every read surface — :meth:`get` and :meth:`snapshot` — runs the
        hooks first, so batching is never observable.  Hooks must be
        idempotent (zero their accumulators before adding).
        """
        self._flush_hooks.append(hook)

    def flush_deferred(self) -> None:
        """Run all registered flush hooks (see :meth:`register_flush`)."""
        for hook in self._flush_hooks:
            hook()

    def get(self, name: str, default: float = 0.0) -> float:
        if self._flush_hooks:
            self.flush_deferred()
        return self.counters.get(name, default)

    def counter(self, name: str) -> Counter:
        """Pre-bound handle for ``name``; resolve once, add many times."""
        handle = self._counter_handles.get(name)
        if handle is None:
            handle = self._counter_handles[name] = Counter(self.counters, name)
        return handle

    def record_latency(self, name: str, value: int) -> None:
        stat = self.latencies.get(name)
        if stat is None:
            stat = self.latencies[name] = LatencyStat()
        stat.record(value)

    def latency(self, name: str) -> LatencyStat:
        return self.latencies.get(name, LatencyStat())

    def latency_handle(self, name: str) -> LatencyStat:
        """Pre-bound :class:`LatencyStat` for ``name`` (created if new).

        Hot paths call ``handle.record(v)`` directly instead of
        :meth:`record_latency`'s per-event dict lookup.  An unused
        handle never shows up in :meth:`snapshot` (zero-count stats are
        skipped there).
        """
        stat = self.latencies.get(name)
        if stat is None:
            stat = self.latencies[name] = LatencyStat()
        return stat

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of all counters plus latency summaries.

        Each recorded latency contributes ``.mean``/``.count`` and its
        tracked extremes ``.min``/``.max``; never-recorded stats (e.g. a
        bound handle that saw no samples) are omitted.
        """
        if self._flush_hooks:
            self.flush_deferred()
        out = dict(self.counters)
        for name, stat in self.latencies.items():
            if stat.count == 0:
                continue
            out[f"{name}.mean"] = stat.mean
            out[f"{name}.count"] = stat.count
            out[f"{name}.min"] = stat.min_value
            out[f"{name}.max"] = stat.max_value
        return out
