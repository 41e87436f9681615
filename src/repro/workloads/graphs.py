"""Graph-derived traces for the GraphBIG workloads [42].

Instead of purely statistical addresses, the six graph applications
(betw, bfsdata, bfstopo, gctopo, pagerank, sssp) replay accesses a
vertex-centric kernel would make over a real scale-free graph laid out
in CSR form: a vertex-property array plus an edge (adjacency) array.
Processing a vertex touches its property line, streams its adjacency
list, and touches each neighbour's property line — the classic
irregular gather that gives graph workloads their high APKI and skew
(high-degree vertices are hot).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, List, Set

from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class CsrLayout:
    """CSR arrays mapped into the (scaled) GPU address space."""

    vertex_base: int
    edge_base: int
    vertex_stride: int  # bytes per vertex property record
    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    def vertex_addr(self, v: int) -> int:
        return self.vertex_base + v * self.vertex_stride

    def edge_addr(self, edge_index: int) -> int:
        return self.edge_base + edge_index * 8  # 8-byte neighbour ids

    @property
    def aux_base(self) -> int:
        """Second vertex-property array (next-rank / level / distance)."""
        return self.edge_base + len(self.indices) * 8

    def aux_addr(self, v: int) -> int:
        return self.aux_base + v * self.vertex_stride


def barabasi_albert_adjacency(n: int, m: int, seed: int) -> List[Set[int]]:
    """Undirected Barabási–Albert graph on ``n`` nodes as adjacency sets.

    Preferential attachment from an ``m``-spoke star: each new node
    links to ``m`` distinct existing nodes drawn uniformly from the
    list holding every node once per incident edge.  The draw order —
    ``random.Random(seed).choice`` into a ``set``, edges and list
    extension in set iteration order — is networkx's
    ``barabasi_albert_graph``, so the graphs are edge-for-edge equal.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    adj: List[Set[int]] = [set() for _ in range(n)]
    adj[0].update(range(1, m + 1))
    for spoke in range(1, m + 1):
        adj[spoke].add(0)
    repeated = [0] * m + list(range(1, m + 1))
    for source in range(m + 1, n):
        targets: Set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        for t in targets:
            adj[source].add(t)
            adj[t].add(source)
        repeated.extend(targets)
        repeated.extend([source] * m)
    return adj


@lru_cache(maxsize=8)
def build_scale_free_csr(
    num_vertices: int,
    footprint_bytes: int,
    line_bytes: int = 128,
    attach_edges: int = 4,
    seed: int = 11,
) -> CsrLayout:
    """Barabási–Albert graph in CSR form, fitted into the footprint."""
    import numpy as np

    if num_vertices < attach_edges + 1:
        raise ValueError("graph too small for the attachment parameter")
    adjacency = barabasi_albert_adjacency(num_vertices, attach_edges, seed)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    indices_list: List[int] = []
    for v in range(num_vertices):
        neighbours = sorted(adjacency[v])
        indices_list.extend(neighbours)
        indptr[v + 1] = len(indices_list)
    indices = np.asarray(indices_list, dtype=np.int64)
    # A realistic property record (rank/level/degree/flags + padding)
    # spans several lines per vertex.
    vertex_stride = 4 * line_bytes
    vertex_region = num_vertices * vertex_stride
    edge_region = len(indices) * 8
    # A second property array (e.g. pagerank's next-rank / bfs's level
    # array) follows the edge region.
    if 2 * vertex_region + edge_region > footprint_bytes:
        raise ValueError(
            f"graph needs {2 * vertex_region + edge_region} B, footprint is "
            f"{footprint_bytes} B"
        )
    return CsrLayout(
        vertex_base=0,
        edge_base=vertex_region,
        vertex_stride=vertex_stride,
        indptr=indptr,
        indices=indices,
    )


class GraphTraceGenerator:
    """Vertex-centric kernel replay over a CSR graph."""

    def __init__(
        self,
        spec: WorkloadSpec,
        footprint_bytes: int,
        line_bytes: int = 128,
        num_vertices: int = 4096,
        seed: int = 11,
        page_bytes: int = 4096,
    ) -> None:
        import numpy as np

        self.spec = spec
        self.line_bytes = line_bytes
        self.csr = build_scale_free_csr(
            num_vertices, footprint_bytes, line_bytes, seed=seed
        )
        self.seed = seed
        degrees = np.diff(self.csr.indptr).astype(np.float64)
        self._degree_weights = degrees / degrees.sum()
        # The CSR arrays are allocated contiguously at the bottom of the
        # address space; a page-granular scatter spreads them over the
        # whole footprint the way a real allocator + other program state
        # would, so controller interleave and planar groups see them.
        self.page_bytes = page_bytes
        self._footprint_bytes = footprint_bytes
        rng = np.random.default_rng(seed + 1)
        self._page_scatter = rng.permutation(footprint_bytes // page_bytes)

    def _scatter(self, addrs: np.ndarray) -> np.ndarray:
        pages, offsets = divmod(addrs, self.page_bytes)
        return self._page_scatter[pages] * self.page_bytes + offsets

    def warp_blocks(
        self, warp_global_id: int, num_accesses: int, block_ops: int
    ) -> Iterator[tuple]:
        """One warp sweeps its share of the vertex range in order.

        This is the vertex-centric kernel pattern: the sweep itself
        drifts sequentially through vertex properties and adjacency
        lists (so the hot working set moves over time, sustaining
        migrations), while neighbour-property gathers concentrate on
        high-degree hubs (stationary skew, bounded by edge counts).

        The stream comes as ``(gaps, addrs, writes)`` native blocks.  The
        gap vector is drawn whole up front to keep the frozen digests'
        RNG consumption order; the vertex sweep streams in blocks, with
        the page scatter applied per block (it is elementwise, so chunked
        application is value-identical to scattering the whole array).
        """
        import numpy as np

        rng = np.random.default_rng((self.seed, warp_global_id))
        # Total instructions per access (gap + the memory instruction)
        # must average 1000/APKI, so the compute gap is geometric with
        # mean 1000/APKI - 1 (shifted: geometric(p) - 1 with p=APKI/1000).
        gaps = (
            rng.geometric(p=min(1.0, self.spec.apki / 1000.0), size=num_accesses) - 1
        ).astype(np.int64)
        write_p = 1.0 - self.spec.read_ratio
        n_vertices = self.csr.num_vertices
        v = (warp_global_id * 65_537) % n_vertices  # spread warp starts
        # Scratch region past the CSR arrays: frontier queues / message
        # buffers that the kernel streams through exactly once.
        scratch_base = self.csr.aux_base + n_vertices * self.csr.vertex_stride
        scratch_lines = max(1, (self._footprint_bytes - scratch_base) // self.line_bytes)
        stride_lines = max(1, self.page_bytes // self.line_bytes)
        scratch_cursor = (warp_global_id * 40_503) % scratch_lines
        a_buf: list[int] = []
        w_buf: list[bool] = []
        emitted = 0
        filled = 0
        while filled < num_accesses:
            if rng.random() < self.spec.stream_fraction:
                a_buf.append(scratch_base + scratch_cursor * self.line_bytes)
                w_buf.append(rng.random() < 0.5)  # queues are written too
                scratch_cursor = (scratch_cursor + stride_lines + 1) % scratch_lines
                filled += 1
            else:
                # 1. Read this vertex's property line.
                a_buf.append(self.csr.vertex_addr(v))
                w_buf.append(False)
                filled += 1
                if filled < num_accesses:
                    # 2. Stream the adjacency list (line granular).
                    lo, hi = int(self.csr.indptr[v]), int(self.csr.indptr[v + 1])
                    first = self.csr.edge_addr(lo) // self.line_bytes
                    last = self.csr.edge_addr(max(lo, hi - 1)) // self.line_bytes
                    for line in range(first, last + 1):
                        a_buf.append(line * self.line_bytes)
                        w_buf.append(False)
                        filled += 1
                        if filled >= num_accesses:
                            break
                if filled < num_accesses:
                    # 3. Gather a few neighbour properties (hub-biased:
                    #    low ids are the BA graph's oldest,
                    #    highest-degree vertices).
                    for n in self.csr.indices[lo:hi][:4]:
                        a_buf.append(self.csr.vertex_addr(int(n)))
                        w_buf.append(False)
                        filled += 1
                        if filled >= num_accesses:
                            break
                if filled < num_accesses:
                    # 4. Update this vertex's entry in the output
                    #    property array.
                    a_buf.append(self.csr.aux_addr(v))
                    w_buf.append(rng.random() < min(1.0, write_p * 8))
                    filled += 1
                    v = (v + 1) % n_vertices
            while len(a_buf) >= block_ops:
                a_block, a_buf = a_buf[:block_ops], a_buf[block_ops:]
                w_block, w_buf = w_buf[:block_ops], w_buf[block_ops:]
                end = emitted + block_ops
                scattered = self._scatter(np.asarray(a_block, dtype=np.int64))
                yield (gaps[emitted:end].tolist(), scattered.tolist(), w_block)
                emitted = end
        if a_buf:
            scattered = self._scatter(np.asarray(a_buf, dtype=np.int64))
            yield (gaps[emitted:].tolist(), scattered.tolist(), w_buf)
