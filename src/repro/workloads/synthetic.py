"""Synthetic post-L2 trace generation shaped by a WorkloadSpec.

Each warp gets a :class:`WarpTrace`: aligned arrays of compute-gap
lengths (instructions between memory operations, geometric with mean
``1000/APKI``), byte addresses (Zipf-popular pages expanded into short
sequential line runs) and read/write flags (Bernoulli at the Table II
read ratio).  Generation is deterministic per (workload, warp, seed).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class WarpTrace:
    """One warp's replayable access stream.

    ``tenant`` labels the trace for composed multi-tenant workloads
    (``workloads/compose.py``); the GPU model attributes per-tenant
    instruction and access counts from it.  Plain workloads leave it
    ``None`` and pay nothing.
    """

    gaps: np.ndarray  # int64 instructions of compute before each access
    addrs: np.ndarray  # int64 byte addresses
    writes: np.ndarray  # bool
    tenant: Optional[str] = None

    def __len__(self) -> int:
        return len(self.addrs)

    def digest(self) -> str:
        """SHA-256 over the raw access stream (endianness-pinned).

        The golden workload-fingerprint tests freeze these per family:
        any change to a family's generated addresses, gaps or write
        flags — however small — changes the digest.
        """
        h = hashlib.sha256()
        h.update(self.gaps.astype("<i8").tobytes())
        h.update(self.addrs.astype("<i8").tobytes())
        h.update(self.writes.astype("u1").tobytes())
        if self.tenant is not None:
            h.update(self.tenant.encode("utf-8"))
        return h.hexdigest()

    @cached_property
    def columns(self) -> tuple[List[int], List[int], List[bool]]:
        """The trace compiled to parallel ``(gaps, addrs, writes)`` lists.

        The column form the fused warp stepper indexes directly
        (``gaps[cursor]``/``addrs[cursor]``/``writes[cursor]``).
        ``tolist()`` converts every numpy scalar to a native int/bool up
        front, so the simulator's inner loop never touches numpy.
        Computed once per trace and cached; traces are shared across
        platforms by the executor's trace memo.
        """
        return (self.gaps.tolist(), self.addrs.tolist(), self.writes.tolist())

    def well_formed(self) -> List[str]:
        """Internal-consistency problems, empty when the trace is sound.

        The trace is the contract between the workload layer and the
        GPU model: the arrays must be aligned, compute gaps
        non-negative (a negative gap would ask the SM for a
        negative-length issue burst) and addresses non-negative (the
        memory system rejects them mid-run).  Generators uphold this by
        construction; replayed/edited trace files and custom generators
        are exactly where it can silently break, so the invariant audit
        (``sim/audit.py``) checks every warp's trace against this.
        """
        problems: List[str] = []
        if not (len(self.gaps) == len(self.addrs) == len(self.writes)):
            problems.append(
                "misaligned arrays: "
                f"{len(self.gaps)} gaps, {len(self.addrs)} addrs, "
                f"{len(self.writes)} writes"
            )
            return problems
        if len(self) == 0:
            problems.append("empty trace (a warp must issue at least once)")
            return problems
        if int(self.gaps.min()) < 0:
            problems.append(f"negative compute gap ({int(self.gaps.min())})")
        if int(self.addrs.min()) < 0:
            problems.append(f"negative address ({int(self.addrs.min())})")
        return problems

    @property
    def total_instructions(self) -> int:
        """Compute instructions plus one memory instruction per access."""
        return int(self.gaps.sum()) + len(self)


def zipf_pmf(num_items: int, alpha: float) -> np.ndarray:
    """Truncated Zipf probability mass over ``num_items`` ranks."""
    import numpy as np

    if num_items < 1:
        raise ValueError("need at least one item")
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


def zipf_cdf(num_items: int, alpha: float) -> List[float]:
    """:func:`zipf_pmf` accumulated and normalized exactly as
    ``Generator.choice(n, p=pmf)`` does internally, built once so each
    draw skips numpy's per-call CDF rebuild and validation."""
    cdf = zipf_pmf(num_items, alpha).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_rank(rng: np.random.Generator, cdf: List[float]) -> int:
    """One rank from a :func:`zipf_cdf`; consumes ``rng`` and returns
    the same value as ``rng.choice(len(cdf), p=pmf)``."""
    return bisect_right(cdf, rng.random())


class SyntheticTraceGenerator:
    """Builds per-warp traces for a workload over a scaled footprint."""

    def __init__(
        self,
        spec: WorkloadSpec,
        footprint_bytes: int,
        line_bytes: int = 128,
        page_bytes: int = 4096,
        seed: int = 7,
    ) -> None:
        import numpy as np

        if footprint_bytes < page_bytes:
            raise ValueError("footprint smaller than one page")
        self.spec = spec
        self.footprint_bytes = footprint_bytes
        self.line_bytes = line_bytes
        self.page_bytes = page_bytes
        self.num_pages = footprint_bytes // page_bytes
        self.lines_per_page = page_bytes // line_bytes
        self.seed = seed
        self._cdf = zipf_cdf(self.num_pages, spec.zipf_alpha)
        # Random permutations decouple popularity rank from address, so
        # hot pages spread across controllers and groups.  The hot set
        # *drifts*: a fresh permutation applies each epoch, modelling
        # program phases — this is what sustains planar-mode migrations
        # rather than a one-time warmup transient.
        rng = np.random.default_rng(seed)
        self.num_epochs = 4
        self._page_of_rank_by_epoch = [
            rng.permutation(self.num_pages) for _ in range(self.num_epochs)
        ]

    def warp_blocks(
        self, warp_global_id: int, num_accesses: int, block_ops: int
    ) -> Iterator[tuple]:
        """One warp's stream as ``(gaps, addrs, writes)`` native blocks.

        The gap and write vectors are drawn whole up front — the frozen
        workload digests pin the RNG consumption order (all gaps, then
        all writes, then the address loop), which per-chunk regeneration
        would reorder — so the per-warp transient is ~9 B/access; the
        address loop itself streams in ``block_ops``-sized slices.
        """
        import numpy as np

        if num_accesses < 1:
            raise ValueError("need at least one access")
        rng = np.random.default_rng((self.seed, warp_global_id))
        # Total instructions per access (gap + the memory instruction)
        # must average 1000/APKI, so the compute gap is geometric with
        # mean 1000/APKI - 1 (shifted: geometric(p) - 1 with p=APKI/1000).
        gaps = (
            rng.geometric(p=min(1.0, self.spec.apki / 1000.0), size=num_accesses) - 1
        ).astype(np.int64)
        writes = rng.random(num_accesses) >= self.spec.read_ratio
        run_p = min(1.0, 1.0 / self.spec.seq_run_mean)
        epoch_len = max(1, num_accesses // self.num_epochs)
        history: list[int] = []  # recently touched lines (reuse pool)
        # Cold streaming sweep: each warp scans the footprint with a
        # large stride (column-order array walks).  Warps jointly touch
        # most pages exactly once — the capacity pressure that makes the
        # paper's Origin platform page against the host.
        total_lines = self.footprint_bytes // self.line_bytes
        stride_lines = max(1, self.page_bytes // self.line_bytes)
        stream_cursor = (warp_global_id * 40_503) % total_lines
        buf: list[int] = []
        emitted = 0
        filled = 0
        while filled < num_accesses:
            if rng.random() < self.spec.stream_fraction:
                buf.append(stream_cursor * self.line_bytes)
                stream_cursor = (stream_cursor + stride_lines + 1) % total_lines
                filled += 1
            # Temporal locality that survived the on-chip caches: revisit
            # a recently touched line.
            elif history and rng.random() < self.spec.temporal_reuse:
                buf.append(history[int(rng.integers(len(history)))])
                filled += 1
            else:
                epoch = min(filled // epoch_len, self.num_epochs - 1)
                rank = draw_rank(rng, self._cdf)
                page = int(self._page_of_rank_by_epoch[epoch][rank])
                run = min(int(rng.geometric(run_p)), num_accesses - filled)
                start_line = int(rng.integers(self.lines_per_page))
                base = page * self.page_bytes
                for i in range(run):
                    line = (start_line + i) % self.lines_per_page
                    addr = base + line * self.line_bytes
                    buf.append(addr)
                    history.append(addr)
                    filled += 1
                if len(history) > 32:
                    del history[: len(history) - 32]
            while len(buf) >= block_ops:
                block, buf = buf[:block_ops], buf[block_ops:]
                end = emitted + block_ops
                yield (
                    gaps[emitted:end].tolist(),
                    block,
                    writes[emitted:end].tolist(),
                )
                emitted = end
        if buf:
            yield (gaps[emitted:].tolist(), buf, writes[emitted:].tolist())
