"""The ``canonical_form`` memo: properties over random DAGs and edits.

Examples draw a random DAG and apply one edit at a time to it: a changed
name, op type or float payload, or an added, removed or re-pointed edge.
The memo must give exactly what the unmemoised WL pass gives, on a first
call and on a repeat, for the base graph, each edited near-duplicate and
a node-permuted copy; and nothing a caller does to a returned order may
leak into a later answer.
"""

import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.graph import CompGraph
from repro.graphs.ops import OpType
from repro.serve import fingerprint
from repro.serve.fingerprint import canonical_form
from tests.conftest import random_dag

_FLOAT_FIELDS = ("compute_us", "output_bytes", "param_bytes")

dags = st.builds(
    random_dag,
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=24),
)

_floats = st.floats(min_value=0.0, max_value=1e9)

#: One strategy per kind of edit; every value is ``(kind, node, *args)``.
_EDITS = {
    "name": st.tuples(st.just("name"), st.integers(0), st.text(max_size=6)),
    "op": st.tuples(st.just("op"), st.integers(0), st.sampled_from(list(OpType))),
    **{
        field: st.tuples(st.just(field), st.integers(0), _floats)
        for field in _FLOAT_FIELDS
    },
    "add_edge": st.tuples(st.just("add_edge"), st.integers(0), st.integers(0)),
    "remove_edge": st.tuples(st.just("remove_edge"), st.integers(0)),
    "move_src": st.tuples(st.just("move_src"), st.integers(0), st.integers(0)),
    "move_dst": st.tuples(st.just("move_dst"), st.integers(0), st.integers(0)),
}
edits = st.one_of(*_EDITS.values())


def _graph(base: CompGraph, **fields) -> CompGraph:
    attrs = {
        key: getattr(base, key)
        for key in ("names", "op_types", *_FLOAT_FIELDS, "src", "dst", "name")
    }
    attrs.update(fields)
    return CompGraph(**attrs)


def _edited(graph: CompGraph, edit) -> CompGraph:
    """``graph`` with one edit applied.  ``move_src``/``move_dst`` re-point
    one end of an edge, so only ``src`` or only ``dst`` changes.  Edges
    only run from lower to higher ids, so the result stays a DAG; an edge
    edit with no room is a no-op."""
    kind, i = edit[0], edit[1] % graph.n_nodes
    if kind == "name":
        names = list(graph.names)
        names[i] = edit[2]
        return _graph(graph, names=tuple(names))
    if kind == "op":
        op_types = graph.op_types.copy()
        op_types[i] = int(edit[2])
        return _graph(graph, op_types=op_types)
    if kind in _FLOAT_FIELDS:
        values = getattr(graph, kind).copy()
        values[i] = edit[2]
        return _graph(graph, **{kind: values})
    edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
    n = graph.n_nodes
    if kind == "remove_edge":
        if edges:
            del edges[i % len(edges)]
    else:
        choices = []
        if kind == "add_edge":
            slot = len(edges)
            choices = [(a, b) for a in range(n) for b in range(a + 1, n)]
        elif edges:
            slot = i % len(edges)
            a, b = edges[slot]
            choices = (
                [(x, b) for x in range(b)]
                if kind == "move_src"
                else [(a, y) for y in range(a + 1, n)]
            )
        choices = [e for e in choices if e not in edges]
        if choices:
            # Replaces the edge at ``slot``, or appends at the end.
            edges[slot : slot + 1] = [choices[edit[2] % len(choices)]]
    return _graph(
        graph,
        src=np.array([a for a, _ in edges], dtype=np.int64),
        dst=np.array([b for _, b in edges], dtype=np.int64),
    )


def _content(graph: CompGraph) -> tuple:
    """Everything the WL pass reads, as a hashable value."""
    return (
        graph.names,
        np.asarray(graph.op_types, dtype=np.int64).tobytes(),
        *(np.asarray(getattr(graph, k), dtype=np.float64).tobytes()
          for k in _FLOAT_FIELDS),
        graph.src.astype(np.int64).tobytes(),
        graph.dst.astype(np.int64).tobytes(),
    )


def _permuted(graph: CompGraph, perm: np.ndarray) -> "tuple[CompGraph, np.ndarray]":
    """The copy whose node ``k`` is ``graph``'s node ``perm[k]``, and the
    old-id -> new-id map."""
    new_id = np.empty_like(perm)
    new_id[perm] = np.arange(perm.size)
    copy = _graph(
        graph,
        names=tuple(graph.names[u] for u in perm),
        op_types=graph.op_types[perm],
        **{key: getattr(graph, key)[perm] for key in _FLOAT_FIELDS},
        src=new_id[graph.src],
        dst=new_id[graph.dst],
    )
    return copy, new_id


def _assert_same(got, want) -> None:
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
    assert got[1].dtype == np.int64


@settings(max_examples=60, deadline=None)
@given(graph=dags, data=st.data())
def test_memo_equals_unmemoised_first_call_and_repeat(graph, data):
    """Every kind of edit, one at a time, against a fresh memo: only an
    edit that left every read byte as it was may hit."""
    memo = fingerprint._CanonicalMemo(fingerprint._MEMO_CAPACITY)
    variants = [graph] + [
        _edited(graph, data.draw(strategy, label=kind))
        for kind, strategy in _EDITS.items()
    ]
    for g in variants:
        want = fingerprint._wl_canonical_form(g)
        for lookup in (memo.canonical_form, canonical_form) * 2:
            _assert_same(lookup(g), want)
    distinct = len({_content(g) for g in variants})
    assert memo.misses == distinct
    assert memo.hits == 2 * len(variants) - distinct


@settings(max_examples=40, deadline=None)
@given(graph=dags, edit=edits, seed=st.integers(0, 2**32 - 1))
def test_permuted_copy_same_fingerprint_own_order(graph, edit, seed):
    memo = fingerprint._CanonicalMemo(fingerprint._MEMO_CAPACITY)
    edited = _edited(graph, edit)
    perm = np.random.default_rng(seed).permutation(edited.n_nodes)
    copy, new_id = _permuted(edited, perm)
    fp, order = memo.canonical_form(edited)
    copy_fp, copy_order = memo.canonical_form(copy)
    assert memo.misses == len({_content(edited), _content(copy)})
    _assert_same((copy_fp, copy_order), fingerprint._wl_canonical_form(copy))
    _assert_same(canonical_form(copy), (copy_fp, copy_order))
    if len(set(edited.names)) == edited.n_nodes:
        # Unique names rule out WL ties, so the hash is order-invariant
        # and the order names the same nodes in the copy's numbering.
        assert copy_fp == fp
        np.testing.assert_array_equal(copy_order, new_id[order])


@settings(max_examples=40, deadline=None)
@given(graph=dags, edit=edits)
def test_writing_into_a_returned_order_never_changes_a_later_answer(graph, edit):
    edited = _edited(graph, edit)
    want = fingerprint._wl_canonical_form(edited)
    for _ in range(3):  # a miss or a hit, then hits
        fp, order = canonical_form(edited)
        _assert_same((fp, order), want)
        order[:] = order[::-1]
        order += 1
    _assert_same(canonical_form(edited), want)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), capacity=st.integers(1, 8))
def test_threads_over_more_graphs_than_capacity_match_unmemoised(seed, capacity):
    memo = fingerprint._CanonicalMemo(capacity)
    graphs = [random_dag(seed + i, 2 + i % 7) for i in range(3 * capacity + 5)]
    wants = [fingerprint._wl_canonical_form(g) for g in graphs]
    errors: list = []

    def worker(k: int) -> None:
        rounds = np.random.default_rng([seed, k]).permutation(2 * len(graphs))
        try:
            for j in rounds % len(graphs):
                _assert_same(memo.canonical_form(graphs[j]), wants[j])
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: races show up
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(memo) <= capacity
    assert memo.hits + memo.misses == 4 * 2 * len(graphs)


def test_name_boundaries_and_display_name():
    """Names are length-prefixed in the key, so moving a byte across a
    name boundary misses; the display name is not content, so a renamed
    graph hits."""
    memo = fingerprint._CanonicalMemo(4)
    base = random_dag(3, 2)
    split = _graph(base, names=("ab", "c"))
    moved = _graph(base, names=("a", "bc"))
    for g in (split, moved, _graph(split, name="other")):
        _assert_same(memo.canonical_form(g), fingerprint._wl_canonical_form(g))
    assert (memo.misses, memo.hits) == (2, 1)
