"""Property tests for the engine's triangle 'addable edge' analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.builders import GraphBuilder
from repro.graphs.ops import OpType
from repro.solver.chipgraph import triangle_violations
from repro.solver.engine import ConstraintSolver


def _engine_with_adjacency(adj: np.ndarray) -> ConstraintSolver:
    """A solver whose chip-edge multiset equals ``adj`` (test hook)."""
    b = GraphBuilder("stub")
    b.add_node("x", OpType.INPUT, compute_us=1.0, output_bytes=1.0)
    g = b.build()
    s = ConstraintSolver(g, adj.shape[0])
    s._edge_count = adj.astype(np.int64)
    s._rebuild_adj_mask()
    s._tables_dirty = True
    return s


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 7),
    density=st.floats(0.0, 0.6),
)
def test_allowed_edge_matches_brute_force(seed, n, density):
    """allowed[x, y] is True iff adding the edge keeps Eq. 4 satisfiable.

    Brute force: add each candidate edge to the adjacency and check for
    triangle violations directly.
    """
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < density, k=1)
    # only test triangle-clean starting adjacencies (the solver never holds
    # a violated one)
    if triangle_violations(adj).size:
        return
    solver = _engine_with_adjacency(adj)
    allowed = solver._tables()["allowed"]
    for x in range(n):
        for y in range(x + 1, n):
            trial = adj.copy()
            trial[x, y] = True
            expected = triangle_violations(trial).size == 0
            assert allowed[x, y] == expected, (adj, x, y)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7), density=st.floats(0.0, 0.6))
def test_existing_edges_always_allowed(seed, n, density):
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < density, k=1)
    if triangle_violations(adj).size:
        return
    solver = _engine_with_adjacency(adj)
    allowed = solver._tables()["allowed"]
    assert np.all(allowed[adj])


def test_violated_flag_matches_triangle_check():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 2] = adj[0, 2] = True
    solver = _engine_with_adjacency(adj)
    assert solver._tables()["violated"]

    adj2 = np.zeros((3, 3), dtype=bool)
    adj2[0, 1] = adj2[1, 2] = True
    solver2 = _engine_with_adjacency(adj2)
    assert not solver2._tables()["violated"]


def test_tables_memo_hit_on_same_adjacency():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = True
    solver = _engine_with_adjacency(adj)
    entry1 = solver._tables()
    solver._tables_dirty = True  # simulate an undo returning to this state
    entry2 = solver._tables()
    assert entry1 is entry2  # memoised by packed adjacency


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(2, 8),
    density=st.floats(0.0, 0.6),
    extra=st.floats(0.0, 0.6),
)
def test_violated_flag_is_monotone_under_added_edges(seed, n, density, extra):
    """A superset of a violating upward adjacency still violates Eq. 4:
    what lets the propagation wave fail at its first violating edge."""
    rng = np.random.default_rng(seed)
    adj = np.triu(rng.random((n, n)) < density, k=1)
    superset = adj | np.triu(rng.random((n, n)) < extra, k=1)
    if _engine_with_adjacency(adj)._tables()["violated"]:
        assert _engine_with_adjacency(superset)._tables()["violated"]
