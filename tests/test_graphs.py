"""The stdlib Barabási–Albert generator behind the GraphBIG workloads.

The package must import without networkx, and the stdlib generator must
reproduce networkx's graphs edge-for-edge (the golden workload digests
depend on the exact graph).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.graphs import barabasi_albert_adjacency

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_imports_without_networkx():
    # A ``None`` entry in sys.modules makes any networkx import raise.
    code = (
        "import sys; sys.modules['networkx'] = None; "
        "import repro.cli; "
        "assert sys.modules['networkx'] is None"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", [5, 100, 2000, 4096, 5000])
@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("seed", [0, 7, 11])
def test_generator_matches_networkx(n, m, seed):
    nx = pytest.importorskip("networkx")
    expected = nx.barabasi_albert_graph(n, m, seed=seed)
    adjacency = barabasi_albert_adjacency(n, m, seed)
    got = {(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs if u < v}
    assert got == {(min(e), max(e)) for e in expected.edges()}


def test_generator_shape():
    adjacency = barabasi_albert_adjacency(50, 3, seed=1)
    assert len(adjacency) == 50
    # Star of 3 spokes, then 3 new edges per added node.
    assert sum(map(len, adjacency)) == 2 * (3 + 3 * (50 - 4))
    assert all(v not in nbrs for v, nbrs in enumerate(adjacency))


@pytest.mark.parametrize("n,m", [(4, 4), (5, 0)])
def test_generator_rejects_bad_parameters(n, m):
    with pytest.raises(ValueError):
        barabasi_albert_adjacency(n, m, seed=0)
