"""Propagation-based constraint solver with the paper's driver interface.

The solver maintains a *domain* (set of still-valid chip IDs) for every node
and exposes exactly the interface of the paper's Algorithms 1 and 2:

* ``get_domain(u)`` — query the current valid domain of node ``u``.
* ``set_domain(u, values)`` — restrict ``u``'s domain, run constraint
  propagation, and return the new decision count; on a dead end the solver
  back-tracks (undoing decisions and excluding the offending values) and
  returns a *smaller* count, telling the driver to resume from that node.

Propagation covers the three static constraints:

* **Acyclic dataflow** (Eq. 2) is a conjunction of ``f(u) <= f(v)``
  constraints, for which bounds propagation over the DAG is exact: the
  lower bound of a node flows to its successors and the upper bound to its
  predecessors.
* **No skipping chips** (Eq. 3) is tracked through per-chip coverage (which
  nodes could still land on chip ``d``); a chip below the largest forced
  lower bound with zero coverage is a dead end, and on a complete
  assignment the check is exact.  Every propagation round tests it right
  after the empty-domain test.
* **Triangle dependency** (Eq. 4) is tracked through an incrementally
  maintained chip-dependency edge multiset; since edges are only added as
  nodes become fixed, any longest-path violation among current edges is
  permanent and triggers an immediate back-track: the wave tests it as
  soon as a newly fixed node adds a chip edge.

Internally the domain state is stored *chip-major*: one node-set bitmask
(an arbitrary-precision int, one bit per node) per chip, rather than one
chip-mask per node.  Bounds propagation then runs word-parallel — a lower
bound raised on node ``u`` excludes every descendant (a precomputed bitmask)
from the low chips in a handful of integer ops instead of an explicit
BFS wave — and back-tracking restores O(chips) snapshots instead of walking
per-node undo trails.  The node-major view (``_masks``, ``_cover``) is
derived on demand.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graphs.graph import CompGraph
from repro.solver.chipgraph import longest_paths


class Unsatisfiable(RuntimeError):
    """Raised when no valid partition exists under the accumulated exclusions."""


#: Per-byte bitmask -> set-bit-indices lookup, the building block for
#: ``get_domain``'s mask -> array conversion.  The arrays are write-protected
#: because single-byte masks return them without copying.
_BYTE_BITS: list = []
for _byte in range(256):
    _arr = np.array([_i for _i in range(8) if _byte >> _i & 1], dtype=np.int64)
    _arr.setflags(write=False)
    _BYTE_BITS.append(_arr)
del _byte, _arr


def _mask_to_values(mask: int) -> np.ndarray:
    """Set-bit indices of ``mask`` (ascending), via the per-byte table.

    Single-byte masks (every platform up to 8 chiplets) resolve to a shared
    read-only array with no allocation at all.
    """
    if mask < 256:
        return _BYTE_BITS[mask]
    parts = []
    base = 0
    while mask:
        byte = mask & 0xFF
        if byte:
            parts.append(_BYTE_BITS[byte] + base)
        mask >>= 8
        base += 8
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _Conflict(Exception):
    """Internal signal: the current restriction emptied a domain or broke Eq. 3/4."""


def _skips_chip(avail: "list[int]", full: int) -> bool:
    """True when Eq. 3 can no longer hold: some chip ``d`` has no node left
    while a node's lower bound lies above ``d`` (``avail[0..d]`` misses it).

    Monotone as domains shrink (lower bounds only rise, an empty chip
    stays empty), so a propagation wave may test it every round.
    """
    acc = 0
    for a in avail[:-1]:
        acc |= a
        if acc == full:
            return False
        if not a:
            return True
    return False


class ConstraintSolver:
    """Interactive constraint solver over chip-assignment domains.

    Parameters
    ----------
    graph:
        The computation graph being partitioned.
    n_chips:
        Number of chiplets (at most 63 so a domain fits in one bitmask).
    triangle_frontier:
        Eager re-propagation of the one-hop triangle masks (see
        :meth:`_propagate`).  ``None`` (default) keeps the heuristic —
        enabled only for tight chip counts (``n_chips <= 4``); pass
        ``True``/``False`` to force it either way, e.g. to enable the
        strengthening on wedge-heavy instances above 4 chips.
    topology:
        Interconnect the partition must be routable on
        (:class:`repro.hardware.topology.Topology`).  ``None`` or any
        total-order topology (the uni-ring) keeps the exact legacy engine:
        Eq. 2 bounds propagation, the no-skipping coverage check, and the
        triangle constraint (Eq. 4).  Other topologies run the
        reachability-generalised propagation instead
        (:meth:`_propagate_general`): every precedence restriction is
        derived from the topology's chip-reachability matrix, and the
        triangle constraint — a uni-ring compiler artifact — does not
        apply.  The bounds propagation *is* the reachability propagation
        specialised to the total order (``reach_from(c) = {c..C-1}``,
        ``reach_to(c) = {0..c}``), which is why the uni-ring reduces
        bit-for-bit to the legacy code path.
    """

    def __init__(
        self,
        graph: CompGraph,
        n_chips: int,
        triangle_frontier: "bool | None" = None,
        topology=None,
    ):
        if n_chips < 1 or n_chips > 63:
            raise ValueError("n_chips must be in [1, 63]")
        if topology is not None and topology.n_chips != n_chips:
            raise ValueError(
                f"topology is for {topology.n_chips} chips, solver got {n_chips}"
            )
        self.graph = graph
        self.n_chips = n_chips
        self.topology = topology
        #: Reachability-generalised mode: active for any topology whose
        #: reachability is not the chip-ID total order.  Total-order
        #: topologies (the uni-ring) take the legacy engine unchanged.
        self._general = topology is not None and not topology.is_total_order
        if self._general:
            # Per-chip reachability sets, as chip-index lists: which chips
            # can reach ``d`` / are reachable from ``d`` (both include
            # ``d``).  These generalise the ordered engine's prefix/suffix
            # unions.
            reach = topology.reachable
            self._reach_to_list = [
                np.flatnonzero(reach[:, d]).tolist() for d in range(n_chips)
            ]
            self._reach_from_list = [
                np.flatnonzero(reach[d]).tolist() for d in range(n_chips)
            ]
        #: Re-apply the one-hop triangle masks of every fixed node whenever
        #: new chip edges tighten the tables (see :meth:`_propagate`).  The
        #: strengthening is sound and catches triangle wedges hundreds of
        #: driver steps early where the chip-dependency graph has no slack
        #: (measured 2.7-17x on 4-chip instances), but on permissive
        #: higher-chip-count instances the extra pruning rounds and the
        #: trajectory shifts they cause cost more than the wedges they
        #: avoid — so the heuristic default enables it only for tight chip
        #: counts.  Public knob; override freely (constructor argument or
        #: attribute).
        self.triangle_frontier = (
            n_chips <= 4 if triangle_frontier is None else bool(triangle_frontier)
        )
        n = graph.n_nodes

        replicable = graph.is_replicable()
        # Constraint-relevant adjacency: edges out of replicable constants
        # are exempt from all placement constraints.
        self._succs: list[list[int]] = [[] for _ in range(n)]
        self._preds: list[list[int]] = [[] for _ in range(n)]
        for s, d in zip(graph.src.tolist(), graph.dst.tolist()):
            if replicable[s]:
                continue
            self._succs[s].append(d)
            self._preds[d].append(s)

        # Node-set bitmasks for word-parallel propagation: direct neighbour
        # sets plus transitive descendant/ancestor closures over the
        # constraint edges.
        self._full = (1 << n) - 1 if n else 0
        self._succ_bits = [0] * n
        self._pred_bits = [0] * n
        for u in range(n):
            sb = 0
            for w in self._succs[u]:
                sb |= 1 << w
            self._succ_bits[u] = sb
            pb = 0
            for w in self._preds[u]:
                pb |= 1 << w
            self._pred_bits[u] = pb
        order = graph.topological_order().tolist()
        self._desc = [0] * n
        for u in reversed(order):
            acc = 0
            for w in self._succs[u]:
                acc |= (1 << w) | self._desc[w]
            self._desc[u] = acc
        self._anc = [0] * n
        for v in order:
            acc = 0
            for u in self._preds[v]:
                acc |= (1 << u) | self._anc[u]
            self._anc[v] = acc

        self.reset()

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Discard all decisions and exclusions; restore full domains."""
        n = self.graph.n_nodes
        self._avail: list[int] = [self._full] * self.n_chips
        # With a single chip every domain starts single-valued (fixed); no
        # propagation wave will ever run to discover that.
        self._fixed_set = self._full if self.n_chips == 1 else 0
        # Chip values of fixed nodes.  Not snapshotted: every read is
        # guarded by ``_fixed_set`` (which is), so entries left stale by a
        # rewind are unreachable until the node is fixed again, which
        # rewrites them.
        self._values: list[int] = [0] * n
        # Per-chip unions of the fixed nodes' neighbour sets.  When a new
        # chip edge tightens the triangle tables these let the wave re-apply
        # the one-hop masks to *every* fixed node in O(chips^2) mask ops,
        # catching wedges the moment the edge appears instead of hundreds
        # of driver steps later.
        self._succ_frontier: list[int] = [0] * self.n_chips
        self._pred_frontier: list[int] = [0] * self.n_chips
        self._edge_count = np.zeros((self.n_chips, self.n_chips), dtype=np.int64)
        self._adj_mask = 0  # bit a*C+b set iff _edge_count[a, b] > 0
        # Per-branch closure memory: nodes whose descendant (ancestor)
        # exclusions at each chip level were already applied.  Monotone with
        # the domains, so snapshots restore it consistently.
        self._done_lo: list[int] = [0] * self.n_chips
        self._done_hi: list[int] = [0] * self.n_chips
        self._decisions: list[tuple] = []  # (node, tried_mask, snapshot)
        # Triangle tables memoised by the adjacency bitmask: back-tracking
        # revisits the same chip graphs constantly, so keying the cache by
        # the adjacency itself (not a version counter) gives high hit rates.
        if not hasattr(self, "_tables_memo"):
            self._tables_memo: dict[int, dict] = {}
        self._tables_entry: "dict | None" = None
        self._tables_dirty = True

    def _snapshot(self) -> tuple:
        """O(chips) copy of all branch state (masks are immutable ints)."""
        return (
            list(self._avail),
            self._fixed_set,
            self._edge_count.copy(),
            self._adj_mask,
            list(self._done_lo),
            list(self._done_hi),
            list(self._succ_frontier),
            list(self._pred_frontier),
        )

    def _restore(self, snap: tuple) -> None:
        """Rewind to a snapshot taken by :meth:`_snapshot`."""
        (
            self._avail,
            self._fixed_set,
            self._edge_count,
            self._adj_mask,
            self._done_lo,
            self._done_hi,
            self._succ_frontier,
            self._pred_frontier,
        ) = (
            list(snap[0]),
            snap[1],
            snap[2].copy(),
            snap[3],
            list(snap[4]),
            list(snap[5]),
            list(snap[6]),
            list(snap[7]),
        )
        self._tables_dirty = True

    # ------------------------------------------------------------------
    # Node-major views (queries, diagnostics, and white-box tests)
    # ------------------------------------------------------------------
    def _domain_mask(self, node: int) -> int:
        """Chip-bitmask view of one node's domain."""
        mask = 0
        for d in range(self.n_chips):
            if self._avail[d] >> node & 1:
                mask |= 1 << d
        return mask

    @property
    def _masks(self) -> list[int]:
        """Per-node chip-bitmask domains (derived view)."""
        return [self._domain_mask(u) for u in range(self.graph.n_nodes)]

    @property
    def _cover(self) -> list[int]:
        """Per-chip count of nodes that could still land there."""
        return [self._avail[d].bit_count() for d in range(self.n_chips)]

    @property
    def n_decisions(self) -> int:
        """Number of committed decisions (the paper's loop index ``i``)."""
        return len(self._decisions)

    def is_fixed(self, node: int) -> bool:
        """True when the node's domain is a single chip."""
        self._check_node(node)
        return bool(self._fixed_set >> node & 1)

    def _fixed_value(self, node: int) -> int:
        """The chip a fixed node sits on (valid only while it is fixed)."""
        return self._values[node]

    def get_domain(self, node: int) -> np.ndarray:
        """Valid chip IDs currently available for ``node`` (ascending).

        On top of the propagated domain this applies *triangle look-ahead*:
        values whose implied chip-dependency edge (with an already-fixed
        neighbour) would immediately violate Equation 4 are filtered out.
        The look-ahead is sound within the current search branch — chip
        edges only accumulate, so a value invalid now stays invalid — and
        it is what lets the solver handle production-size graphs without
        CP-SAT-style clause learning.
        """
        self._check_node(node)
        mask = self._domain_mask(node)
        if mask & (mask - 1) == 0:
            return _mask_to_values(mask)
        if self._general:
            # The reachability propagation already restricts neighbours of
            # fixed nodes through their full domains (stronger than the
            # one-hop look-ahead), and Eq. 4 does not apply off the ring.
            return _mask_to_values(mask)
        pruned = self._triangle_prune(node, mask)
        # Never return an empty domain from look-ahead alone; let
        # set_domain discover the conflict and back-track properly.
        return _mask_to_values(pruned if pruned else mask)

    def _triangle_prune(self, node: int, mask: int) -> int:
        """Intersect ``mask`` with chip edges implied by fixed neighbours.

        ``_successor_mask(a)`` is exactly ``{a} | {d : allowed[a, d]}``, so
        ANDing the masks of every fixed neighbour reproduces the per-value
        filter in pure bit arithmetic.
        """
        fixed = self._fixed_set
        values = self._values
        keep = -1
        bit = self._pred_bits[node] & fixed
        while bit:
            b = bit & -bit
            keep &= self._successor_mask(values[b.bit_length() - 1])
            bit ^= b
        bit = self._succ_bits[node] & fixed
        while bit:
            b = bit & -bit
            keep &= self._predecessor_mask(values[b.bit_length() - 1])
            bit ^= b
        return mask if keep == -1 else mask & keep

    def assignment(self) -> np.ndarray:
        """The complete assignment; raises if any node is still unfixed."""
        n = self.graph.n_nodes
        if self._fixed_set != self._full:
            unfixed = (~self._fixed_set & self._full)
            u = (unfixed & -unfixed).bit_length() - 1
            raise RuntimeError(f"node {u} is not fixed; solve to completion first")
        out = np.empty(n, dtype=np.int64)
        for d in range(self.n_chips):
            m = self._avail[d]
            while m:
                b = m & -m
                out[b.bit_length() - 1] = d
                m ^= b
        return out

    # ------------------------------------------------------------------
    # Triangle tables (memoised per chip adjacency)
    # ------------------------------------------------------------------
    def _tables(self) -> dict:
        """Triangle tables for the current chip adjacency (memoised).

        Each entry holds the longest-path matrix, the addable-edge matrix,
        whether the adjacency itself violates Eq. 4, and lazily filled
        per-chip domain bitmasks.
        """
        if not self._tables_dirty and self._tables_entry is not None:
            return self._tables_entry
        key = self._adj_mask
        entry = self._tables_memo.get(key)
        if entry is None:
            adj = self._edge_count > 0
            dist = longest_paths(adj)
            reach = dist >= 0
            # A new direct edge (x, y) is addable iff no existing path
            # x -> y of length >= 2, and no existing direct edge (a, b)
            # such that a reaches x and y reaches b (which would stretch
            # a-b's longest path past 1).
            bad = (
                reach.T.astype(np.int64)
                @ adj.astype(np.int64)
                @ reach.T.astype(np.int64)
            ) > 0
            allowed = ~bad & (dist < 2)
            allowed |= adj  # existing edges remain usable
            entry = {
                "allowed": allowed,
                "violated": bool(np.any(adj & (dist > 1))),
                "from_mask": {},
                "to_mask": {},
            }
            if len(self._tables_memo) >= 4096:
                self._tables_memo.clear()
            self._tables_memo[key] = entry
        self._tables_entry = entry
        self._tables_dirty = False
        return entry

    def _rebuild_adj_mask(self) -> None:
        """Recompute ``_adj_mask`` from ``_edge_count`` (test hook support)."""
        mask = 0
        c = self.n_chips
        for a, b in zip(*np.nonzero(self._edge_count)):
            mask |= 1 << (int(a) * c + int(b))
        self._adj_mask = mask

    def _edge_allowed_from(self, a: int) -> np.ndarray:
        """Boolean row: which destination chips accept a new edge from ``a``."""
        return self._tables()["allowed"][a]

    def _edge_allowed_to(self, b: int) -> np.ndarray:
        """Boolean column: which source chips accept a new edge into ``b``."""
        return self._tables()["allowed"][:, b]

    def _successor_mask(self, c: int) -> int:
        """Bitmask of values a successor of a node fixed at ``c`` may take."""
        entry = self._tables_entry
        if entry is None or self._tables_dirty:
            entry = self._tables()
        cached = entry["from_mask"].get(c)
        if cached is None:
            cached = 1 << c
            for d in np.flatnonzero(entry["allowed"][c]):
                cached |= 1 << int(d)
            entry["from_mask"][c] = cached
        return cached

    def _predecessor_mask(self, c: int) -> int:
        """Bitmask of values a predecessor of a node fixed at ``c`` may take."""
        entry = self._tables_entry
        if entry is None or self._tables_dirty:
            entry = self._tables()
        cached = entry["to_mask"].get(c)
        if cached is None:
            cached = 1 << c
            for d in np.flatnonzero(entry["allowed"][:, c]):
                cached |= 1 << int(d)
            entry["to_mask"][c] = cached
        return cached

    # ------------------------------------------------------------------
    # The paper's driver interface
    # ------------------------------------------------------------------
    def set_domain(self, node: int, values: "int | Iterable[int]") -> int:
        """Restrict ``node`` to ``values``, propagate, and return decision count.

        On success the restriction is committed as a new decision and
        ``n_decisions`` (== previous + 1) is returned.  On conflict the
        solver back-tracks — undoing the attempt, excluding the offending
        values at the surviving level, and popping decisions as needed —
        and returns the new (smaller) decision count.
        """
        self._check_node(node)
        mask_req = self._to_mask(values)
        snap = self._snapshot()
        try:
            self._apply(node, mask_req)
        except _Conflict:
            self._restore(snap)
            return self._resolve_conflict(node, mask_req)
        self._decisions.append((node, mask_req, snap))
        return len(self._decisions)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.graph.n_nodes:
            raise ValueError(
                f"node id {node} out of range [0, {self.graph.n_nodes})"
            )

    def _to_mask(self, values: "int | Iterable[int]") -> int:
        if isinstance(values, (int, np.integer)):
            v = int(values)
            if not (0 <= v < self.n_chips):
                raise ValueError(f"chip id {v} out of range [0, {self.n_chips})")
            return 1 << v
        mask = 0
        for v in values:
            if not (0 <= v < self.n_chips):
                raise ValueError(f"chip id {v} out of range [0, {self.n_chips})")
            mask |= 1 << int(v)
        if mask == 0:
            raise ValueError("values must be non-empty")
        return mask

    def _apply(self, node: int, mask_req: int) -> None:
        """Restrict one node's chip mask and propagate to fixpoint."""
        cur = self._domain_mask(node)
        new = cur & mask_req
        if new == 0:
            raise _Conflict
        if new == cur:
            # No-op restriction (e.g. committing a value propagation already
            # fixed): the state is at fixpoint and passed every check when
            # it was produced, so there is nothing to propagate or re-check.
            return
        bit = 1 << node
        avail = self._avail
        removed = cur ^ new
        while removed:
            d_bit = removed & -removed
            avail[d_bit.bit_length() - 1] &= ~bit
            removed ^= d_bit
        if self._general:
            self._propagate_general()
        else:
            self._propagate()

    def _propagate(self) -> None:
        """Word-parallel propagation to fixpoint, failing at the first
        certain conflict.

        Each round applies (1) the transitive lower-bound closure — nodes
        whose lower bound exceeds ``d`` drag all their descendants off
        chips ``<= d`` via the precomputed descendant bitmasks, (2) the
        symmetric upper-bound closure over ancestors, then tests for an
        emptied domain and an uncoverable chip (Eq. 3), and (3) applies
        triangle restrictions and chip-edge bookkeeping for newly fixed
        nodes, testing Eq. 4 whenever a node adds a chip edge the
        adjacency lacks.  Rounds repeat until nothing changes.  A failed
        test raises :class:`_Conflict` and the caller rewinds via
        snapshot.  All three tests are monotone within the wave, so
        raising mid-wave rejects exactly what a test at the fixpoint
        would.

        Step (3) obeys an ordering rule: the round's newly fixed nodes are
        taken in ascending node order, and each one's neighbour sets are
        masked by the triangle tables of the chip adjacency left by its own
        new edges and those of every lower-numbered node, never a
        higher-numbered one.  New edges tighten the tables, and with
        ``triangle_frontier`` off (the default above 4 chips) nothing
        re-applies the tighter masks to nodes fixed before the edge, so
        reordering the wave changes results.  The step is batched without
        breaking the rule because ``avail`` is not written until the wave
        ends: neighbour sets are OR-ed into per-chip accumulators, pushed
        through the masks just before a node adds an edge the adjacency
        lacks (and once at the end), and the gathered exclusions are
        applied in one pass.
        """
        avail = self._avail
        full = self._full
        c = self.n_chips
        desc = self._desc
        anc = self._anc
        done_lo = self._done_lo
        done_hi = self._done_hi
        # The state entering the wave already satisfies the triangle masks
        # of the current adjacency; re-application is only needed when the
        # adjacency changes mid-wave, and one pass per wave bounds its cost
        # on edge-churny instances.
        applied_adj = self._adj_mask
        reapplied = False
        while True:
            changed = False

            # Lower bounds flow to descendants (Eq. 2, src side).
            acc = 0
            for d in range(c - 1):
                acc |= avail[d]
                new = full & ~acc & ~done_lo[d]  # newly known lo > d
                if new:
                    rem = 0
                    m = new
                    while m:
                        b = m & -m
                        rem |= desc[b.bit_length() - 1]
                        m ^= b
                    done_lo[d] |= new | rem
                    if rem:
                        for d2 in range(d + 1):
                            old = avail[d2]
                            if old & rem:
                                avail[d2] = old & ~rem
                                changed = True

            # Upper bounds flow to ancestors (Eq. 2, dst side).
            acc = 0
            for d in range(c - 1, 0, -1):
                acc |= avail[d]
                new = full & ~acc & ~done_hi[d]  # newly known hi < d
                if new:
                    rem = 0
                    m = new
                    while m:
                        b = m & -m
                        rem |= anc[b.bit_length() - 1]
                        m ^= b
                    done_hi[d] |= new | rem
                    if rem:
                        for d2 in range(d, c):
                            old = avail[d2]
                            if old & rem:
                                avail[d2] = old & ~rem
                                changed = True

            # An emptied domain or an uncoverable chip conflicts; check
            # before the (costlier) fixed-node processing so doomed waves
            # abort early.
            ge1 = 0
            ge2 = 0
            for d in range(c):
                a = avail[d]
                ge2 |= ge1 & a
                ge1 |= a
            if ge1 != full or _skips_chip(avail, full):
                raise _Conflict

            # Newly fixed nodes, in ascending node order: record chip edges
            # (second endpoint to fix adds the edge, preserving multiset
            # semantics) and gather the one-hop triangle masks of direct
            # neighbours into per-chip exclusions, applied once below.
            new_fixed = ge1 & ~ge2 & ~self._fixed_set
            if new_fixed:
                values = self._values
                for d in range(c):
                    hit = new_fixed & avail[d]
                    while hit:
                        b = hit & -hit
                        values[b.bit_length() - 1] = d
                        hit ^= b
                succ_bits = self._succ_bits
                pred_bits = self._pred_bits
                excl = [0] * c
                # Neighbour sets gathered under the current adjacency and
                # not yet pushed through its masks.
                acc_s = [0] * c
                acc_p = [0] * c
                fixed = self._fixed_set
                nf = new_fixed
                while nf:
                    b = nf & -nf
                    nf ^= b
                    u = b.bit_length() - 1
                    fixed |= b
                    value = values[u]
                    sb = succ_bits[u]
                    pb = pred_bits[u]
                    # Every fixed node is a singleton in ``avail`` (which
                    # this loop does not write), so these are exactly the
                    # fixed neighbours on another chip.
                    cross = (sb | pb) & fixed & ~avail[value]
                    if cross:
                        edges = [
                            (value, values[w])
                            for w in self._succs[u]
                            if cross >> w & 1
                        ]
                        edges += [
                            (values[w], value)
                            for w in self._preds[u]
                            if cross >> w & 1
                        ]
                        # An edge the adjacency lacks changes the masks, so
                        # the lower-numbered nodes' sets go through the old
                        # ones first; the new adjacency's tables, needed by
                        # the next flush anyway, say at once whether it
                        # violates Eq. 4.
                        adj = self._adj_mask
                        if any(not adj >> (x * c + y) & 1 for x, y in edges):
                            self._gather_exclusions(acc_s, acc_p, excl)
                            acc_s = [0] * c
                            acc_p = [0] * c
                        for x, y in edges:
                            self._add_chip_edge(x, y)
                        if self._adj_mask != adj and self._tables()["violated"]:
                            raise _Conflict
                    self._succ_frontier[value] |= sb
                    self._pred_frontier[value] |= pb
                    acc_s[value] |= sb
                    acc_p[value] |= pb
                self._fixed_set = fixed
                self._gather_exclusions(acc_s, acc_p, excl)
                if self._exclude(excl):
                    changed = True

            if not changed:
                # At fixpoint, re-apply the one-hop triangle masks of *all*
                # fixed nodes if new chip edges tightened the tables during
                # this wave: the per-chip neighbour frontiers do it in
                # O(chips^2) mask ops, catching wedges the moment the edge
                # appears instead of hundreds of driver steps later.  Doing
                # this once per fixpoint (not per adjacency change) keeps
                # the strengthening essentially free on easy instances.
                if (
                    self.triangle_frontier
                    and not reapplied
                    and self._adj_mask != applied_adj
                ):
                    reapplied = True
                    applied_adj = self._adj_mask
                    excl = [0] * c
                    self._gather_exclusions(
                        self._succ_frontier, self._pred_frontier, excl
                    )
                    changed = self._exclude(excl)
                if not changed:
                    break

    def _gather_exclusions(
        self, succ_sets: "list[int]", pred_sets: "list[int]", excl: "list[int]"
    ) -> None:
        """OR per-chip neighbour sets into the chips they are masked off.

        ``succ_sets[ch]`` (``pred_sets[ch]``) holds successors
        (predecessors) of nodes fixed at ``ch``; each set is excluded from
        every chip outside the current adjacency's ``_successor_mask(ch)``
        (``_predecessor_mask(ch)``) by ORing it into ``excl``.
        """
        chips = (1 << self.n_chips) - 1
        for per_chip, mask_of in (
            (succ_sets, self._successor_mask),
            (pred_sets, self._predecessor_mask),
        ):
            for ch, nodes in enumerate(per_chip):
                if nodes:
                    off = chips & ~mask_of(ch)
                    while off:
                        d_bit = off & -off
                        excl[d_bit.bit_length() - 1] |= nodes
                        off ^= d_bit

    def _exclude(self, excl: "list[int]") -> bool:
        """Drop ``excl[d]`` from ``avail[d]`` for every chip; True if any
        domain shrank."""
        avail = self._avail
        changed = False
        for d, e in enumerate(excl):
            if e:
                old = avail[d]
                if old & e:
                    avail[d] = old & ~e
                    changed = True
        return changed

    def _propagate_general(self) -> None:
        """Reachability propagation for non-total-order topologies.

        The ordered engine's bounds propagation is the special case of this
        wave for ``reach_to(d) = {0..d}`` / ``reach_from(d) = {d..C-1}``:
        a node whose domain contains no chip that can reach ``d`` drags all
        its (transitive) descendants off chip ``d``, and symmetrically a
        node whose domain contains no chip reachable *from* ``d`` drags its
        ancestors off ``d``.  Soundness follows from the transitivity of
        reachability (any valid completion routes every ancestor/descendant
        pair).  The per-chip ``done`` sets memoise processed nodes exactly
        as in the ordered engine — blocked status is monotone as domains
        shrink, so snapshots restore them consistently.

        The triangle constraint (Eq. 4) is not enforced here: it is a
        compiler restriction of the paper's uni-directional ring, meaningless
        once the chip-dependency graph may legally contain cycles.  The
        no-skipping rule (Eq. 3) is a chip-*allocation* rule, independent of
        the interconnect, and is checked the same way as in the ordered
        engine: every round, right after the empty-domain test.
        """
        avail = self._avail
        full = self._full
        c = self.n_chips
        desc = self._desc
        anc = self._anc
        done_lo = self._done_lo
        done_hi = self._done_hi
        reach_to = self._reach_to_list
        reach_from = self._reach_from_list
        while True:
            changed = False
            for d in range(c):
                # Nodes that cannot sit on any chip reaching ``d`` exclude
                # their descendants from ``d`` (generalised lower bound).
                acc = 0
                for x in reach_to[d]:
                    acc |= avail[x]
                blocked = full & ~acc & ~done_lo[d]
                if blocked:
                    rem = 0
                    m = blocked
                    while m:
                        b = m & -m
                        rem |= desc[b.bit_length() - 1]
                        m ^= b
                    done_lo[d] |= blocked | rem
                    if avail[d] & rem:
                        avail[d] &= ~rem
                        changed = True
                # Nodes that cannot sit on any chip reachable from ``d``
                # exclude their ancestors from ``d`` (generalised upper
                # bound).
                acc = 0
                for x in reach_from[d]:
                    acc |= avail[x]
                blocked = full & ~acc & ~done_hi[d]
                if blocked:
                    rem = 0
                    m = blocked
                    while m:
                        b = m & -m
                        rem |= anc[b.bit_length() - 1]
                        m ^= b
                    done_hi[d] |= blocked | rem
                    if avail[d] & rem:
                        avail[d] &= ~rem
                        changed = True

            ge1 = 0
            ge2 = 0
            for d in range(c):
                a = avail[d]
                ge2 |= ge1 & a
                ge1 |= a
            if ge1 != full or _skips_chip(avail, full):
                raise _Conflict
            if not changed:
                break

        # Fixed-node bookkeeping (``assignment()`` / ``is_fixed`` views);
        # no chip-edge or triangle tracking in this mode.
        new_fixed = ge1 & ~ge2 & ~self._fixed_set
        if new_fixed:
            values = self._values
            for d in range(c):
                hit = new_fixed & avail[d]
                while hit:
                    b = hit & -hit
                    values[b.bit_length() - 1] = d
                    hit ^= b
            self._fixed_set |= new_fixed

    def _add_chip_edge(self, a: int, b: int) -> None:
        if b < a:
            # Bounds propagation makes this unreachable, but guard anyway.
            raise _Conflict
        self._edge_count[a, b] += 1
        if self._edge_count[a, b] == 1:
            self._adj_mask |= 1 << (a * self.n_chips + b)
            self._tables_dirty = True

    def _resolve_conflict(self, node: int, tried_mask: int) -> int:
        """Back-track: exclude ``tried_mask`` from ``node`` and pop as needed."""
        while True:
            excl = self._domain_mask(node) & ~tried_mask
            if excl:
                snap = self._snapshot()
                try:
                    self._apply(node, excl)
                except _Conflict:
                    self._restore(snap)
                else:
                    # The exclusion is folded into the surviving level's
                    # state; popping that level's snapshot rewinds past it.
                    return len(self._decisions)
            if not self._decisions:
                raise Unsatisfiable(
                    "no valid partition under the accumulated exclusions"
                )
            node, tried_mask, snap = self._decisions.pop()
            self._restore(snap)
