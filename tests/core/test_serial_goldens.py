"""Golden regression: the serial search path is bit-for-bit frozen.

The parallel subsystem (PR 2) refactored the search inner loop into
``RLPartitioner._draw_batch`` / ``draw_window`` and fused the Adam update.
These goldens pin the exact serial trajectory (improvements, best, final
weights) captured on the PR-1 code immediately before the refactor: any
change to RNG consumption order, operation order, or arithmetic in the
serial path shows up here as a hard failure.

The values are a function of this repo's pinned numpy/BLAS environment; if
that environment is ever upgraded, regenerate them with the snippet in each
test (run on the pre-change commit).
"""

import hashlib

import numpy as np
import pytest

from repro.core.environment import PartitionEnvironment
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.core.pretrain import PretrainConfig, pretrain
from repro.graphs.zoo import build_dataset
from repro.graphs.zoo.transformer import build_transformer
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.hardware.topology import Mesh2D
from repro.rl.ppo import PPOConfig
from repro.solver.engine import ConstraintSolver, Unsatisfiable
from repro.solver.strategies import fix_partition, sample_partition
from tests.conftest import random_dag

N_CHIPS = 4

GOLDEN_SEARCH_IMPROVEMENTS = [
    0.4346292390016788, 0.5418714202014963, 0.39205293332034485,
    0.6225017835463983, 0.4343799105344472, 0.4346292390016788,
    0.4343799105344472, 0.5418714202014963, 0.4343799105344472,
    0.39205293332034485, 0.39205293332034485, 0.39205293332034485,
    0.5403247621589977, 0.39205293332034485, 0.6225017835463983,
    0.4343799105344472, 0.4341308679616664, 0.4341308679616664,
    0.39205293332034485, 0.4343799105344472, 0.391242655235837,
    0.39205293332034485, 0.4341308679616664, 0.39205293332034485,
    0.4341308679616664,
]
GOLDEN_SEARCH_BEST = 0.6225017835463983
GOLDEN_SEARCH_WEIGHT_L1 = 845.0066569629125
GOLDEN_PRETRAIN_WEIGHT_L1 = 872.2428446572112
GOLDEN_SOLVER8_SUM = 570
GOLDEN_SOLVER8_HEAD = [5, 6, 6, 5, 7, 7, 7, 7, 7, 7, 7, 7]
# sha256 of the five stacked int64 assignments drawn by
# ``_bert8_draws`` (3 uniform ``sample_partition`` + 2 random-candidate
# ``fix_partition``), keyed by ``triangle_frontier``.  Both this and
# GOLDEN_STEPS8_DIGEST were recorded on the per-node propagation wave,
# before its newly-fixed-node handling was batched.
GOLDEN_BERT8_DIGEST = {
    None: "ff40a196273c8dc0659ec5a229589183c2bdd6d1db8e5eb20bf69486adfb7175",
    True: "4782b7d8bf0c884b0a0363790c07bdec9580cf93c1d96670d6e2eb9449cc05ea",
}
# sha256 of ``_step_trace`` over random DAG seeds 0-23 at 8 chips.
GOLDEN_STEPS8_DIGEST = (
    "cee34352e0ce431c0fdb0a080de6bc798ad3d3276ce2e19293863b13f41592e3"
)
# The same digest on the other solver paths, keyed by test id: the eager
# frontier re-application (on by default at 4 chips, forced on at 8), a
# chip count where it is off, and the reachability-generalised engine on
# a non-total-order topology.  Recorded while Eq. 3 and Eq. 4 were still
# checked only at the end of each propagation wave.
GOLDEN_STEPS_DIGESTS = {
    "4chips": (
        "0921a7083c6784c984b9129af7bcf77fa06d81961585101e6c91d578e214a789"
    ),
    "5chips": (
        "c2a58f96b9c5153aa4b6f10e048fd867257a70adee5a62e0cc4743e6d8840000"
    ),
    "8chips-frontier": (
        "f4bb2635611567b58b732fddfcddae6e6d5c2467e30399dc2c7e3e35effff08f"
    ),
    "mesh2x3": (
        "8e6c3b8ec0e0dae0cc43a2a8475a97e9a861cbe6a7329ea83d99d6ee20dcaa56"
    ),
}


def _weight_l1(partitioner) -> float:
    state = partitioner.state_dict()
    return float(sum(np.abs(state[k]).sum() for k in sorted(state)))


def _config():
    return RLPartitionerConfig(
        hidden=32,
        n_sage_layers=2,
        ppo=PPOConfig(n_rollouts=10, n_minibatches=2, n_epochs=3),
    )


def _bert8_draws(triangle_frontier) -> np.ndarray:
    """The ``train_bert8`` benchmark graph (352 nodes) at 8 chips: the
    solver's newly-fixed-node wave at BERT scale."""
    graph = build_transformer(layers=6, hidden=256, heads=8, seq=128, vocab=7680)
    n = graph.n_nodes
    solver = ConstraintSolver(graph, 8, triangle_frontier=triangle_frontier)
    rng = np.random.default_rng(8)
    probs = np.full((n, 8), 1.0 / 8)
    outs = []
    for _ in range(3):
        solver.reset()
        outs.append(sample_partition(graph, probs, 8, rng=rng, solver=solver))
    for _ in range(2):
        solver.reset()
        candidate = rng.integers(0, 8, size=n)
        outs.append(fix_partition(graph, candidate, 8, rng=rng, solver=solver))
    return np.stack(outs).astype(np.int64)


def _step_trace(
    seed: int, n_chips: int, triangle_frontier=None, topology=None
) -> "list[int]":
    """Every ``get_domain`` answer and ``set_domain`` return of a seeded
    random decision loop (10% two-value restrictions) on a random DAG.  Unlike
    the sampling goldens this pins each step, including the ones where a
    node fixed mid-wave adds a chip edge that changes the triangle masks
    seen by the nodes after it."""
    g = random_dag(seed, 3 + seed % 38, edge_prob=[0.1, 0.25, 0.4][seed % 3])
    solver = ConstraintSolver(
        g, n_chips, triangle_frontier=triangle_frontier, topology=topology
    )
    rng = np.random.default_rng(seed)
    order = g.random_topological_order(rng)
    trace = []
    i = 0
    for _ in range(40 * g.n_nodes):
        if i >= g.n_nodes:
            break
        u = int(order[i])
        dom = solver.get_domain(u)
        if rng.random() < 0.1 and dom.size > 1:
            values = rng.choice(dom, size=2, replace=False).tolist()
        else:
            values = int(dom[rng.integers(dom.size)])
        try:
            i = solver.set_domain(u, values)
        except Unsatisfiable:
            break
        trace.append(i)
        trace.extend(dom.tolist())
    return trace


def _env(graph):
    package = MCMPackage(n_chips=N_CHIPS)
    return PartitionEnvironment(graph, AnalyticalCostModel(package), N_CHIPS)


class TestSerialGoldens:
    def test_training_search_trajectory(self):
        graph = build_dataset(seed=0).train[0]
        partitioner = RLPartitioner(N_CHIPS, config=_config(), rng=123)
        result = partitioner.search(_env(graph), 25, train=True)
        assert result.improvements.tolist() == GOLDEN_SEARCH_IMPROVEMENTS
        assert result.best_improvement == GOLDEN_SEARCH_BEST
        assert _weight_l1(partitioner) == GOLDEN_SEARCH_WEIGHT_L1

    def test_pretrain_final_weights(self):
        graphs = list(build_dataset(seed=0).train[:3])
        partitioner = RLPartitioner(N_CHIPS, config=_config(), rng=7)
        checkpoints = pretrain(
            partitioner,
            graphs,
            _env,
            PretrainConfig(total_samples=40, n_checkpoints=4, samples_per_graph=10),
        )
        assert [c.step for c in checkpoints] == [10, 20, 30, 40]
        assert _weight_l1(partitioner) == GOLDEN_PRETRAIN_WEIGHT_L1

    def test_solver_sample_stream_at_8_chips(self):
        graph = build_dataset(seed=0).train[1]
        probs = np.full((graph.n_nodes, 8), 1.0 / 8)
        out = sample_partition(graph, probs, 8, rng=42)
        assert int(out.sum()) == GOLDEN_SOLVER8_SUM
        assert out[:12].tolist() == GOLDEN_SOLVER8_HEAD

    @pytest.mark.parametrize("triangle_frontier", [None, True])
    def test_solver_draws_on_bert_at_8_chips(self, triangle_frontier):
        out = _bert8_draws(triangle_frontier)
        digest = hashlib.sha256(out.tobytes()).hexdigest()
        assert digest == GOLDEN_BERT8_DIGEST[triangle_frontier]

    def test_solver_step_trace_at_8_chips(self):
        digest = hashlib.sha256()
        for seed in range(24):
            trace = _step_trace(seed, 8)
            digest.update(np.asarray(trace, dtype=np.int64).tobytes())
        assert digest.hexdigest() == GOLDEN_STEPS8_DIGEST

    @pytest.mark.parametrize(
        "n_chips, triangle_frontier, topology",
        [(4, None, None), (5, None, None), (8, True, None), (6, None, Mesh2D(2, 3))],
        ids=list(GOLDEN_STEPS_DIGESTS),
    )
    def test_solver_step_trace_variants(
        self, request, n_chips, triangle_frontier, topology
    ):
        digest = hashlib.sha256()
        for seed in range(24):
            trace = _step_trace(seed, n_chips, triangle_frontier, topology)
            digest.update(np.asarray(trace, dtype=np.int64).tobytes())
        assert digest.hexdigest() == GOLDEN_STEPS_DIGESTS[request.node.callspec.id]
