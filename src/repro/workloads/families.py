"""Parametric workload families beyond Table II.

Three trace generators that each model a canonical GPU access regime
the Table II suites only brush against.  All three stream the same
``(gaps, addrs, writes)`` blocks (``warp_blocks``) as the synthetic and
graph generators, are deterministic per
``(params, warp, seed)``, and are fingerprint-stable (golden digests in
``tests/data/workload_fingerprints.json``).

* :class:`TiledGemmGenerator` — dense tiled kernels (GEMM, attention
  score x value): heavy intra-tile temporal reuse with a streaming tile
  grid walk on top.
* :class:`PointerChaseGenerator` — dependent pointer chasing with a
  hub-skewed restart distribution and a streamed frontier queue: the
  worst-case irregular gather.
* :class:`StreamingScanGenerator` — STREAM-style multi-cursor scans
  with a configurable read:write mix: pure bandwidth, zero reuse.

Register an instance through
:func:`repro.workloads.registry.register_workload`; the default
registrations (``gemm_reuse``, ``pointer_chase``, ``stream_scan`` and
its read-ratio variants) happen at registry import so parallel executor
workers resolve the same names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthetic import draw_rank, zipf_cdf

if TYPE_CHECKING:
    import numpy as np


def _apki_gaps(rng: np.random.Generator, apki: float, n: int) -> np.ndarray:
    """Compute-gap lengths whose mean tracks ``1000/apki`` instructions.

    Same shifted-geometric convention as the synthetic generator: total
    instructions per access (gap + the memory instruction itself) must
    average ``1000/APKI``.
    """
    import numpy as np

    return (rng.geometric(p=min(1.0, apki / 1000.0), size=n) - 1).astype(np.int64)


class TiledGemmGenerator:
    """Dense tiled-kernel traces (GEMM / attention-like reuse).

    Models ``C = A x B`` over a tile grid: the footprint splits into
    three equal operand regions (A, B, C).  Each warp walks its own
    sequence of output tiles; one tile-step reads an A tile and a B tile
    (``passes`` sweeps each, the on-chip-reuse knob) and read-updates
    the C tile.  B tiles are revisited across the i-dimension — the
    attention-like stationary operand — so the hot set is small and
    stable inside a step but the grid walk streams through the whole
    footprint over time.

    Parameters: ``tile_lines`` (cache lines per operand tile),
    ``passes`` (sweeps over each input tile per step, i.e. temporal
    reuse), ``update_writes`` (fraction of C-tile touches that are
    writes).
    """

    family = "gemm"

    def __init__(
        self,
        spec: WorkloadSpec,
        footprint_bytes: int,
        line_bytes: int = 128,
        page_bytes: int = 4096,
        seed: int = 7,
        tile_lines: int = 16,
        passes: int = 2,
        update_writes: float = 0.5,
    ) -> None:
        if tile_lines < 1:
            raise ValueError("tile_lines must be at least 1")
        if passes < 1:
            raise ValueError("passes must be at least 1")
        if not 0.0 <= update_writes <= 1.0:
            raise ValueError("update_writes must be in [0, 1]")
        if footprint_bytes < 3 * tile_lines * line_bytes:
            raise ValueError("footprint smaller than one tile per operand")
        self.spec = spec
        self.footprint_bytes = footprint_bytes
        self.line_bytes = line_bytes
        self.seed = seed
        self.tile_lines = tile_lines
        self.passes = passes
        self.update_writes = update_writes
        region_lines = footprint_bytes // line_bytes // 3
        self.tiles_per_region = max(1, region_lines // tile_lines)
        # Operand region base addresses (line-aligned thirds).
        self.base_a = 0
        self.base_b = region_lines * line_bytes
        self.base_c = 2 * region_lines * line_bytes

    def _tile_lines_addrs(self, base: int, tile: int) -> range:
        start = base + tile * self.tile_lines * self.line_bytes
        return range(start, start + self.tile_lines * self.line_bytes, self.line_bytes)

    def warp_blocks(
        self, warp_global_id: int, num_accesses: int, block_ops: int
    ) -> Iterator[tuple]:
        """One warp's stream as ``(gaps, addrs, writes)`` native blocks.

        The gap vector is drawn whole up front to keep the frozen
        digests' RNG consumption order, the tile walk streams in blocks.
        """
        import numpy as np

        if num_accesses < 1:
            raise ValueError("need at least one access")
        rng = np.random.default_rng((self.seed, warp_global_id))
        gaps = _apki_gaps(rng, self.spec.apki, num_accesses)
        n_tiles = self.tiles_per_region
        # Each warp owns a distinct diagonal walk over the (i, j) grid.
        step = warp_global_id * 2_654_435_761  # Fibonacci-hash spread
        a_buf: list[int] = []
        w_buf: list[bool] = []
        emitted = 0
        filled = 0
        k = 0
        while filled < num_accesses:
            i = (step + k) % n_tiles
            j = (step // n_tiles + k // n_tiles) % n_tiles
            # B is the stationary operand: revisited across i (same j).
            for _ in range(self.passes):
                for region_base, tile in ((self.base_a, i), (self.base_b, j)):
                    for addr in self._tile_lines_addrs(region_base, tile):
                        if filled >= num_accesses:
                            break
                        a_buf.append(addr)
                        w_buf.append(False)
                        filled += 1
                    if filled >= num_accesses:
                        break
                if filled >= num_accesses:
                    break
            # C accumulation: read-modify-write the output tile.
            for addr in self._tile_lines_addrs(self.base_c, (i + j) % n_tiles):
                if filled >= num_accesses:
                    break
                a_buf.append(addr)
                w_buf.append(rng.random() < self.update_writes)
                filled += 1
            k += 1
            while len(a_buf) >= block_ops:
                a_block, a_buf = a_buf[:block_ops], a_buf[block_ops:]
                w_block, w_buf = w_buf[:block_ops], w_buf[block_ops:]
                end = emitted + block_ops
                yield (gaps[emitted:end].tolist(), a_block, w_block)
                emitted = end
        if a_buf:
            yield (gaps[emitted:].tolist(), a_buf, w_buf)


class PointerChaseGenerator:
    """Pointer-chase / graph-frontier traces.

    Models the dependent irregular gather that defeats every prefetcher:
    most of the footprint is a node arena chased through a deterministic
    multiplicative-hash successor function (every access lands on a
    fresh, unpredictable line), restarts draw from a Zipf-skewed hub
    distribution (``spec.zipf_alpha``), and a tail region models the
    frontier queue the kernel streams and writes.

    Parameters: ``node_lines`` (cache lines per node record),
    ``chain_length`` (dependent hops between restarts),
    ``frontier_fraction`` (share of accesses that stream the frontier
    queue), ``frontier_write_ratio`` (writes within the queue traffic).
    """

    family = "pointer"

    def __init__(
        self,
        spec: WorkloadSpec,
        footprint_bytes: int,
        line_bytes: int = 128,
        page_bytes: int = 4096,
        seed: int = 7,
        node_lines: int = 1,
        chain_length: int = 12,
        frontier_fraction: float = 0.15,
        frontier_write_ratio: float = 0.5,
    ) -> None:
        import numpy as np

        if node_lines < 1:
            raise ValueError("node_lines must be at least 1")
        if chain_length < 1:
            raise ValueError("chain_length must be at least 1")
        if not 0.0 <= frontier_fraction < 1.0:
            raise ValueError("frontier_fraction must be in [0, 1)")
        if not 0.0 <= frontier_write_ratio <= 1.0:
            raise ValueError("frontier_write_ratio must be in [0, 1]")
        self.spec = spec
        self.footprint_bytes = footprint_bytes
        self.line_bytes = line_bytes
        self.seed = seed
        self.node_lines = node_lines
        self.chain_length = chain_length
        self.frontier_fraction = frontier_fraction
        self.frontier_write_ratio = frontier_write_ratio
        node_stride = node_lines * line_bytes
        # 7/8 of the footprint is node arena, the rest frontier queue.
        arena_bytes = footprint_bytes * 7 // 8
        self.num_nodes = arena_bytes // node_stride
        if self.num_nodes < 2:
            raise ValueError("footprint too small for a pointer arena")
        self.node_stride = node_stride
        self.frontier_base = self.num_nodes * node_stride
        self.frontier_lines = max(
            1, (footprint_bytes - self.frontier_base) // line_bytes
        )
        # Hub skew: restarts prefer low Zipf ranks; a fixed permutation
        # decouples rank from arena position.
        hub_ranks = min(self.num_nodes, 4096)
        self._hub_cdf = zipf_cdf(hub_ranks, spec.zipf_alpha)
        self._hub_of_rank = np.random.default_rng(seed).permutation(self.num_nodes)[
            :hub_ranks
        ]

    def _next_node(self, node: int) -> int:
        # Deterministic multiplicative-hash successor: visits lines in
        # an order no stride predictor can follow.
        return (node * 2_654_435_761 + 0x9E3779B9) % self.num_nodes

    def warp_blocks(
        self, warp_global_id: int, num_accesses: int, block_ops: int
    ) -> Iterator[tuple]:
        """One warp's stream as ``(gaps, addrs, writes)`` native blocks.

        The gap vector is drawn whole up front to keep the frozen
        digests' RNG consumption order, the chase loop streams in blocks.
        """
        import numpy as np

        if num_accesses < 1:
            raise ValueError("need at least one access")
        rng = np.random.default_rng((self.seed, warp_global_id))
        gaps = _apki_gaps(rng, self.spec.apki, num_accesses)
        node = (warp_global_id * 48_271 + 1) % self.num_nodes
        frontier_cursor = (warp_global_id * 40_503) % self.frontier_lines
        a_buf: list[int] = []
        w_buf: list[bool] = []
        emitted = 0
        hops = 0
        filled = 0
        while filled < num_accesses:
            if rng.random() < self.frontier_fraction:
                a_buf.append(self.frontier_base + frontier_cursor * self.line_bytes)
                w_buf.append(rng.random() < self.frontier_write_ratio)
                frontier_cursor = (frontier_cursor + 1) % self.frontier_lines
                filled += 1
            else:
                line = int(rng.integers(self.node_lines))
                a_buf.append(node * self.node_stride + line * self.line_bytes)
                w_buf.append(False)
                filled += 1
                hops += 1
                if hops >= self.chain_length:
                    rank = draw_rank(rng, self._hub_cdf)
                    node = int(self._hub_of_rank[rank])
                    hops = 0
                else:
                    node = self._next_node(node)
            if len(a_buf) >= block_ops:
                end = emitted + block_ops
                yield (gaps[emitted:end].tolist(), a_buf, w_buf)
                a_buf, w_buf = [], []
                emitted = end
        if a_buf:
            yield (gaps[emitted:].tolist(), a_buf, w_buf)


class StreamingScanGenerator:
    """STREAM-style scan traces with a configurable read:write mix.

    Models pure-bandwidth kernels (copy/scale/triad, scans, filters):
    each warp advances ``num_streams`` sequential cursors spread across
    the footprint, touching one element per cursor per step.  The last
    cursor is the destination stream; ``read_fraction`` sets how much of
    the total traffic is reads (``1.0`` is a read-only scan, ``2/3`` is
    the classic two-loads-one-store triad).  There is no temporal reuse
    at all — every line is touched exactly once per sweep — which makes
    this the pressure test for channel bandwidth and migration policy.

    Parameters: ``read_fraction``, ``num_streams``, ``stride_lines``
    (cursor step in lines; >1 defeats line-granular spatial locality).
    """

    family = "stream"

    def __init__(
        self,
        spec: WorkloadSpec,
        footprint_bytes: int,
        line_bytes: int = 128,
        page_bytes: int = 4096,
        seed: int = 7,
        read_fraction: float = 2.0 / 3.0,
        num_streams: int = 3,
        stride_lines: int = 1,
    ) -> None:
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if num_streams < 1:
            raise ValueError("num_streams must be at least 1")
        if stride_lines < 1:
            raise ValueError("stride_lines must be at least 1")
        if footprint_bytes < num_streams * line_bytes:
            raise ValueError("footprint smaller than one line per stream")
        self.spec = spec
        self.footprint_bytes = footprint_bytes
        self.line_bytes = line_bytes
        self.seed = seed
        self.read_fraction = read_fraction
        self.num_streams = num_streams
        self.stride_lines = stride_lines
        self.region_lines = footprint_bytes // line_bytes // num_streams

    def warp_blocks(
        self, warp_global_id: int, num_accesses: int, block_ops: int
    ) -> Iterator[tuple]:
        """One warp's stream as ``(gaps, addrs, writes)`` native blocks.

        The gap and write vectors are drawn whole up front to keep the
        frozen digests' RNG consumption order, the cursor sweep streams
        in blocks.
        """
        import numpy as np

        if num_accesses < 1:
            raise ValueError("need at least one access")
        rng = np.random.default_rng((self.seed, warp_global_id))
        gaps = _apki_gaps(rng, self.spec.apki, num_accesses)
        # The write mix is exact in expectation: a Bernoulli draw per
        # access keeps warps decorrelated while tracking read_fraction.
        writes = rng.random(num_accesses) >= self.read_fraction
        cursors = [
            (warp_global_id * 40_503 + s * 7_919) % self.region_lines
            for s in range(self.num_streams)
        ]
        a_buf: list[int] = []
        emitted = 0
        for idx in range(num_accesses):
            s = idx % self.num_streams
            region_base = s * self.region_lines * self.line_bytes
            a_buf.append(region_base + cursors[s] * self.line_bytes)
            cursors[s] = (cursors[s] + self.stride_lines) % self.region_lines
            if len(a_buf) >= block_ops:
                end = emitted + block_ops
                yield (
                    gaps[emitted:end].tolist(),
                    a_buf,
                    writes[emitted:end].tolist(),
                )
                a_buf = []
                emitted = end
        if a_buf:
            yield (gaps[emitted:].tolist(), a_buf, writes[emitted:].tolist())
