"""Invariant tests: the engine's bookkeeping survives conflicts and resets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.constraints import validate_partition
from repro.solver.engine import ConstraintSolver, _skips_chip
from tests.conftest import random_dag


def _bookkeeping_snapshot(solver: ConstraintSolver):
    return (
        list(solver._masks),
        list(solver._cover),
        solver._edge_count.copy(),
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2000), n_nodes=st.integers(3, 20))
def test_reset_restores_pristine_state(seed, n_nodes):
    g = random_dag(seed, n_nodes)
    solver = ConstraintSolver(g, 4)
    pristine = _bookkeeping_snapshot(solver)
    rng = np.random.default_rng(seed)
    # make a handful of decisions (some may conflict and back-track)
    for _ in range(min(n_nodes, 6)):
        u = int(rng.integers(0, n_nodes))
        if solver.is_fixed(u):
            continue
        dom = solver.get_domain(u)
        solver.set_domain(u, int(rng.choice(dom)))
    solver.reset()
    after = _bookkeeping_snapshot(solver)
    assert after[0] == pristine[0]
    assert after[1] == pristine[1]
    np.testing.assert_array_equal(after[2], pristine[2])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2000), n_nodes=st.integers(3, 20))
def test_cover_counts_match_masks(seed, n_nodes):
    """cover[d] must always equal the number of domains containing d."""
    g = random_dag(seed, n_nodes)
    solver = ConstraintSolver(g, 4)
    rng = np.random.default_rng(seed)
    for _ in range(min(n_nodes, 8)):
        u = int(rng.integers(0, n_nodes))
        if solver.is_fixed(u):
            continue
        dom = solver.get_domain(u)
        solver.set_domain(u, int(rng.choice(dom)))
        for d in range(4):
            expected = sum(1 for m in solver._masks if m >> d & 1)
            assert solver._cover[d] == expected


def _recomputed_wave_state(solver: ConstraintSolver, g):
    """Edge multiset, adjacency bitmask and per-chip neighbour frontiers,
    rebuilt from scratch out of the fixed nodes' values (each constraint
    edge counted once; edges out of replicable constants are exempt)."""
    c = solver.n_chips
    value = {
        u: solver._masks[u].bit_length() - 1
        for u in range(g.n_nodes)
        if solver.is_fixed(u)
    }
    edges = np.zeros((c, c), dtype=np.int64)
    succ_frontier = [0] * c
    pred_frontier = [0] * c
    replicable = g.is_replicable()
    for s_, d_ in zip(g.src.tolist(), g.dst.tolist()):
        if replicable[s_]:
            continue
        if s_ in value:
            succ_frontier[value[s_]] |= 1 << d_
        if d_ in value:
            pred_frontier[value[d_]] |= 1 << s_
        if s_ in value and d_ in value and value[s_] != value[d_]:
            edges[value[s_], value[d_]] += 1
    adj_mask = 0
    for a, b in zip(*np.nonzero(edges)):
        adj_mask |= 1 << (int(a) * c + int(b))
    return edges, adj_mask, succ_frontier, pred_frontier


@pytest.mark.parametrize("n_chips", [3, 5, 8])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2000), n_nodes=st.integers(3, 16))
def test_edge_counts_match_fixed_pairs(n_chips, seed, n_nodes):
    """After every decision, the chip-edge multiset, its adjacency
    bitmask and the per-chip neighbour frontiers must equal a from-scratch
    recomputation over the fixed nodes -- across conflicts, back-tracks and
    both settings of the eager frontier re-application (on by default at
    3 chips, off at 5 and 8)."""
    g = random_dag(seed, n_nodes)
    solver = ConstraintSolver(g, n_chips)
    rng = np.random.default_rng(seed)
    for _ in range(n_nodes):
        u = int(rng.integers(0, n_nodes))
        if solver.is_fixed(u):
            continue
        dom = solver.get_domain(u)
        solver.set_domain(u, int(rng.choice(dom)))
        edges, adj_mask, succ_frontier, pred_frontier = _recomputed_wave_state(
            solver, g
        )
        np.testing.assert_array_equal(solver._edge_count, edges)
        assert solver._adj_mask == adj_mask
        assert solver._succ_frontier == succ_frontier
        assert solver._pred_frontier == pred_frontier


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2000), n_nodes=st.integers(4, 16))
def test_completion_after_heavy_conflicts_is_valid(seed, n_nodes):
    """Drive the solver adversarially (always pick the largest domain value)
    and verify any completion still satisfies every constraint."""
    g = random_dag(seed, n_nodes)
    solver = ConstraintSolver(g, 3)
    order = list(range(n_nodes))
    i = 0
    steps = 0
    while i < n_nodes and steps < 50 * n_nodes:
        steps += 1
        u = order[i % n_nodes]
        if solver.is_fixed(u):
            i = solver.set_domain(u, solver.get_domain(u))
            continue
        dom = solver.get_domain(u)
        i = solver.set_domain(u, int(dom.max()))
    if i >= n_nodes:
        assert validate_partition(g, solver.assignment(), 3).ok


@st.composite
def _chip_domains(draw):
    """Chip-major domains (``avail[d]`` = nodes that may sit on chip ``d``)
    in which every node keeps at least one chip, plus the node-set mask."""
    n_chips = draw(st.integers(1, 8))
    n_nodes = draw(st.integers(1, 10))
    node_masks = draw(
        st.lists(
            st.integers(1, (1 << n_chips) - 1), min_size=n_nodes, max_size=n_nodes
        )
    )
    avail = [
        sum(1 << u for u, m in enumerate(node_masks) if m >> d & 1)
        for d in range(n_chips)
    ]
    return avail, (1 << n_nodes) - 1


@settings(max_examples=200, deadline=None)
@given(domains=_chip_domains())
def test_no_skipping_test_matches_its_definition(domains):
    """Eq. 3 can no longer hold iff an empty chip lies below the largest
    lower bound (a node's lowest possible chip)."""
    avail, full = domains
    lower = [
        min(d for d, a in enumerate(avail) if a >> u & 1)
        for u in range(full.bit_length())
    ]
    expected = any(avail[d] == 0 for d in range(max(lower)))
    assert _skips_chip(avail, full) == expected


@settings(max_examples=200, deadline=None)
@given(domains=_chip_domains(), data=st.data())
def test_no_skipping_rejection_survives_shrinking(domains, data):
    """Once the no-skipping test rejects ``avail`` it rejects every
    pointwise subset: what lets the propagation wave test it every round."""
    avail, full = domains
    subset = [a & data.draw(st.integers(0, full)) for a in avail]
    if _skips_chip(avail, full):
        assert _skips_chip(subset, full)
