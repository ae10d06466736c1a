"""Canonical content fingerprints for serving-cache keys.

A partition is a pure function of (graph content, platform, objective,
search recipe), so a serving layer can key its result cache on a
deterministic content hash instead of object identity.  Two requirements
shape the scheme:

* **Roundtrip stability** — the fingerprint must survive
  ``save_graph``/``load_graph`` and JSON transport: it hashes the exact
  ``float64`` payloads (``ndarray.tobytes``), which both ``.npz`` and
  Python's shortest-roundtrip JSON floats preserve bit-for-bit.
* **Insertion-order invariance** — two builders adding the same nodes and
  edges in different orders describe the same workload.  Node ids are
  therefore never hashed; instead each node gets a Weisfeiler-Lehman style
  digest (its own payload refined over its neighbourhood for a few rounds),
  and the graph hash combines the *sorted multisets* of node and edge
  digests.

The graph-level ``name`` is metadata, not content: a renamed but otherwise
identical graph hits the same cache entry.

The WL pass is pure Python and runs on every serving request, in the router
and again in the shard.  :func:`canonical_form` therefore memoises it, keyed
by a digest of exactly the bytes the pass reads: a graph that arrives again
byte for byte, in the same node order, skips the WL rounds; anything else
(a permuted copy included) takes the full pass.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import CompGraph

#: Weisfeiler-Lehman refinement rounds.  Node names are usually unique, so
#: one round already separates everything in practice; three rounds cover a
#: 3-hop neighbourhood for graphs with generated/duplicated names.
_WL_ROUNDS = 3

#: Bump when the canonical form changes — old cache/bench entries must not
#: alias new ones.
_FINGERPRINT_VERSION = 1

#: Entries in the :func:`canonical_form` memo: four times the default
#: 256-entry result cache, so a router in front of four shards still holds
#: every shard's hot set.
_MEMO_CAPACITY = 1024


def _sha(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


def _node_payloads(graph: CompGraph) -> list[bytes]:
    """Per-node content digests (no neighbourhood, no node ids)."""
    op_types = np.asarray(graph.op_types, dtype=np.int64)
    compute = np.asarray(graph.compute_us, dtype=np.float64)
    out_bytes = np.asarray(graph.output_bytes, dtype=np.float64)
    params = np.asarray(graph.param_bytes, dtype=np.float64)
    return [
        _sha(
            graph.names[i].encode("utf-8"),
            op_types[i : i + 1].tobytes(),
            compute[i : i + 1].tobytes(),
            out_bytes[i : i + 1].tobytes(),
            params[i : i + 1].tobytes(),
        )
        for i in range(graph.n_nodes)
    ]


def _content_key(graph: CompGraph) -> bytes:
    """sha256 over exactly the bytes :func:`_wl_canonical_form` reads.

    In the graph's own node order: the node and edge counts, every node
    name's UTF-8 length, the names themselves, then the op types as int64,
    ``compute_us``/``output_bytes``/``param_bytes`` as float64 and
    ``src``/``dst`` as int64.  The counts and lengths make the encoding
    unambiguous; the display ``name`` is left out, as the fingerprint
    leaves it out.
    """
    names = [name.encode("utf-8") for name in graph.names]
    h = hashlib.sha256(np.array([len(names), graph.src.size], dtype=np.int64))
    h.update(np.array([len(name) for name in names], dtype=np.int64))
    h.update(b"".join(names))
    for values, dtype in (
        (graph.op_types, np.int64),
        (graph.compute_us, np.float64),
        (graph.output_bytes, np.float64),
        (graph.param_bytes, np.float64),
        (graph.src, np.int64),
        (graph.dst, np.int64),
    ):
        h.update(np.ascontiguousarray(values, dtype=dtype))
    return h.digest()


class _CanonicalMemo:
    """Bounded LRU of ``(fingerprint, canonical order)`` by content key.

    The result is a pure function of the keyed bytes, so an entry never
    goes stale and only the capacity evicts.  Stored orders are read-only
    and every caller gets its own copy.  Misses compute outside the lock;
    two threads missing on one graph both compute the same answer.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[bytes, tuple[str, np.ndarray]]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def canonical_form(self, graph: CompGraph) -> "tuple[str, np.ndarray]":
        key = _content_key(graph)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
        if entry is None:
            fp, order = _wl_canonical_form(graph)
            order.setflags(write=False)
            entry = (fp, order)
            with self._lock:
                self.misses += 1
                self._entries[key] = entry
                self._entries.move_to_end(key)
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
        return entry[0], entry[1].copy()


_MEMO = _CanonicalMemo(_MEMO_CAPACITY)


def canonical_form(graph: CompGraph) -> "tuple[str, np.ndarray]":
    """``(fingerprint, canonical node order)`` of a computation graph.

    The fingerprint is a deterministic content hash (hex string): stable
    across ``save_graph``/``load_graph`` roundtrips, JSON transport, and
    node-insertion order; sensitive to any node attribute, any edge, and
    the op vocabulary.  The graph's display ``name`` is excluded.

    The canonical order lists node ids sorted by their WL digest — the
    alignment the serving cache uses to transfer a stored assignment onto
    any same-content graph regardless of its node numbering.  When two
    nodes are *indistinguishable* (same name, attributes, and R-hop WL
    neighbourhood) the hash deliberately degrades to order-*sensitive* for
    that graph (node ids are mixed into the tied digests): a permuted copy
    then simply misses the cache instead of risking an ambiguous
    remapping.  All zoo/builder graphs have unique node names, so in
    practice order-invariance always holds.

    Results are memoised by exact content (:func:`_content_key`), up to
    ``_MEMO_CAPACITY`` graphs, least recently used evicted first; the
    returned order is always the caller's own array.  Safe to call from
    any number of threads.
    """
    return _MEMO.canonical_form(graph)


def _wl_canonical_form(graph: CompGraph) -> "tuple[str, np.ndarray]":
    """The WL computation behind :func:`canonical_form`, unmemoised."""
    digests = _node_payloads(graph)
    src = graph.src.tolist()
    dst = graph.dst.tolist()
    preds: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    succs: list[list[int]] = [[] for _ in range(graph.n_nodes)]
    for a, b in zip(src, dst):
        succs[a].append(b)
        preds[b].append(a)
    for _ in range(_WL_ROUNDS):
        digests = [
            _sha(
                digests[u],
                b"<",
                *sorted(digests[p] for p in preds[u]),
                b">",
                *sorted(digests[s] for s in succs[u]),
            )
            for u in range(graph.n_nodes)
        ]
    if len(set(digests)) != len(digests):
        # Ties: disambiguate by node id (order-sensitive fallback).
        digests = [
            _sha(u.to_bytes(8, "big"), d) for u, d in enumerate(digests)
        ]
    order = np.array(
        sorted(range(graph.n_nodes), key=lambda u: digests[u]), dtype=np.int64
    )
    edge_digests = sorted(_sha(digests[a], digests[b]) for a, b in zip(src, dst))
    header = (
        f"repro-graph-v{_FINGERPRINT_VERSION}:"
        f"{graph.n_nodes}:{graph.n_edges}:"
    ).encode("ascii")
    fp = _sha(header, *sorted(digests), b"|", *edge_digests).hex()
    return fp, order


def graph_fingerprint(graph: CompGraph) -> str:
    """Deterministic content hash of a graph — see :func:`canonical_form`."""
    return canonical_form(graph)[0]


@dataclass(frozen=True)
class PlatformDescriptor:
    """The platform identity half of a serving-cache key.

    ``key`` follows :attr:`repro.hardware.topology.Topology.key` — e.g.
    ``("uniring", 4)`` or ``("mesh2d", 2, 3)`` — so two topology objects
    describing the same interconnect compare equal.  The legacy
    ``topology=None`` path and an explicit ``UniRing`` are the *same
    platform* (identical constraint semantics and costs) and share a
    descriptor.
    """

    n_chips: int
    key: tuple

    @classmethod
    def of(cls, n_chips: int, topology=None) -> "PlatformDescriptor":
        """Descriptor for ``n_chips`` chiplets on ``topology`` (None = uni-ring)."""
        if topology is None:
            return cls(n_chips=int(n_chips), key=("uniring", int(n_chips)))
        if topology.n_chips != n_chips:
            raise ValueError(
                f"topology is for {topology.n_chips} chips, descriptor got "
                f"{n_chips}"
            )
        return cls(n_chips=int(n_chips), key=tuple(topology.key))

    def token(self) -> str:
        """Canonical string form folded into request fingerprints."""
        return "platform[" + ",".join(str(k) for k in self.key) + "]"


def request_fingerprint(
    graph: "CompGraph | str",
    platform: PlatformDescriptor,
    objective: str = "throughput",
    cost_model: str = "analytical",
    samples: int = 16,
    checkpoint: "tuple | None" = None,
) -> str:
    """Cache key for one serving request (hex string).

    ``graph`` may be a :class:`CompGraph` or a precomputed
    :func:`graph_fingerprint`.  Everything that can change the returned
    partition is folded in: the platform descriptor, the objective, the
    cost-model kind, the sample budget, and the (checkpoint name, version)
    pair the policy weights come from (``None`` = untrained policy).
    """
    graph_fp = graph if isinstance(graph, str) else graph_fingerprint(graph)
    ckpt = "none" if checkpoint is None else f"{checkpoint[0]}@{int(checkpoint[1])}"
    token = "|".join(
        [
            f"repro-request-v{_FINGERPRINT_VERSION}",
            graph_fp,
            platform.token(),
            f"objective={objective}",
            f"cost_model={cost_model}",
            f"samples={int(samples)}",
            f"checkpoint={ckpt}",
        ]
    )
    return hashlib.sha256(token.encode("utf-8")).hexdigest()
