"""Training workloads: ``repro partition --method rl`` as the CLI builds it.

A run is a fixed list of searches.  Each search is a fresh partitioner
with the CLI's network and PPO settings, an analytical cost model on a
uni-ring package, and a fixed sample budget.  The suite steps it one PPO
window (10 samples, one policy update) per call to the public
``RLPartitioner.search``, passing the featurisation computed once, which
draws the same samples in the same order as a single call with the whole
budget.  The wall time of each call is one window latency.

The list is searched ``run.rounds`` times, each time with fresh
partitioners and the same seeds, so every round does identical work and
must find bit-identical results.  Each window's latency is its fastest
repeat; throughput and the latency percentiles are taken over those.

* ``train_small`` — every test graph of ``build_dataset(seed=0)`` with at
  most 100 nodes, 4 chips.  The seed draws the order and each search's
  policy seed.
* ``train_bert8`` — a BERT-shaped transformer (352 nodes) at 8 chips, on
  the search trajectory of ``repro partition --seed 0``, for every
  ``--seed``.  Solver time per window varies about 50% between policy
  seeds (and with any change to the graph's content), so a seed-drawn
  trajectory would need about 70 windows per run to hold samples/s within
  a few percent, and a run has room for about ten.

A round's budget is ``--seconds`` times the workload's samples/s on the
reference box, divided by the number of rounds.  It is fixed, so
``improvement`` is always measured at the same budget and a faster
program simply finishes sooner.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from suite_common import (
    Run,
    geomean,
    overhead_pct,
    partition_failure,
    peak_rss_mb,
    percentile,
    timed_setups,
)

from repro.core.environment import PartitionEnvironment
from repro.core.partitioner import RLPartitioner, RLPartitionerConfig
from repro.graphs.zoo import build_dataset, build_mlp
from repro.graphs.zoo.transformer import build_transformer
from repro.hardware.analytical import AnalyticalCostModel
from repro.hardware.package import MCMPackage
from repro.hardware.topology import make_topology
from repro.obs.profile import PhaseTimer
from repro.rl.features import featurize
from repro.rl.ppo import PPOConfig

#: Samples per PPO update (``PPOConfig.n_rollouts`` of the CLI).
WINDOW = 10

#: Samples/s of each workload on the reference box (2 cores, see README);
#: sizes the fixed per-round budget from ``--seconds``.
REFERENCE_RATE = {"train_small": 350.0, "train_bert8": 4.5}

#: Window-latency percentile reported as ``tail_ms`` (train_small has
#: about 170 distinct windows per run, so p90 has 17 beyond it).
TAIL_PERCENTILE = 90.0

SMALL_MAX_NODES = 100


def cli_config() -> RLPartitionerConfig:
    """The partitioner ``repro partition --method rl`` builds
    (``_cmd_partition`` in ``src/repro/cli.py``): float64, default solver
    settings, 64x4 network, PPO 10 rollouts / 2 minibatches / 4 epochs."""
    return RLPartitionerConfig(
        hidden=64,
        n_sage_layers=4,
        ppo=PPOConfig(n_rollouts=WINDOW, n_minibatches=2, n_epochs=4),
    )


def environment(graph, n_chips: int) -> PartitionEnvironment:
    package = MCMPackage(n_chips=n_chips, topology=make_topology("uniring", n_chips))
    return PartitionEnvironment(
        graph, AnalyticalCostModel(package), n_chips, objective="throughput"
    )


@dataclass
class Search:
    graph: object
    env: PartitionEnvironment
    partitioner: RLPartitioner
    feats: object
    n_samples: int


def _plan(run: Run) -> "list[tuple]":
    """``(graph, n_chips, policy seed, samples)`` for every search."""
    total = run.seconds * REFERENCE_RATE[run.workload] / run.rounds
    if run.workload == "train_small":
        graphs = [
            g for g in build_dataset(seed=0).test if g.n_nodes <= SMALL_MAX_NODES
        ]
        if run.smoke:
            graphs = graphs[:2]
        rng = np.random.default_rng(run.seed)
        order = rng.permutation(len(graphs))
        policy_seeds = rng.integers(0, 2**31 - 1, size=len(graphs))
        jobs = [(graphs[i], 4, int(policy_seeds[k])) for k, i in enumerate(order)]
    else:
        graph = build_transformer(layers=6, hidden=256, heads=8, seq=128, vocab=7680)
        jobs = [(graph, 8, 0)]
    per_search = total / len(jobs)
    samples = WINDOW if run.smoke else max(WINDOW, round(per_search / WINDOW) * WINDOW)
    return [(graph, chips, seed, samples) for graph, chips, seed in jobs]


def _build(plan) -> "list[Search]":
    return [
        Search(
            graph=graph,
            env=environment(graph, n_chips),
            partitioner=RLPartitioner(n_chips, config=cli_config(), rng=seed),
            feats=featurize(graph),
            n_samples=samples,
        )
        for graph, n_chips, seed, samples in plan
    ]


def _setup(run: Run) -> "list[Search]":
    """Inputs, environments and partitioners, then one untimed warm-up
    window on a small throwaway graph (first-call costs of the numeric
    stack land here, not in the first measured window)."""
    searches = _build(_plan(run))
    warm = build_mlp()
    RLPartitioner(4, config=cli_config(), rng=0).search(environment(warm, 4), WINDOW)
    return searches


def _measure(searches, profiler=None) -> "tuple[list[float], list[tuple]]":
    """Window latencies (s) and ``(search, best assignment, improvement)``."""
    window_s, outcomes = [], []
    for s in searches:
        s.partitioner.profiler = profiler
        best, best_improvement = None, 0.0
        for _ in range(s.n_samples // WINDOW):
            t0 = time.perf_counter()
            result = s.partitioner.search(s.env, WINDOW, features=s.feats)
            window_s.append(time.perf_counter() - t0)
            # Strictly-greater, as inside one search() call.
            if result.best_improvement > best_improvement:
                best, best_improvement = result.best_assignment, result.best_improvement
        outcomes.append((s, best, best_improvement))
    return window_s, outcomes


def search_failure(search: Search, assignment, improvement: float) -> "str | None":
    """A search fails when it found nothing valid, when its best partition
    breaks a static constraint, or when re-evaluating it gives another
    improvement than the search reported."""
    if assignment is None:
        return "no_valid_partition"
    reason = partition_failure(search.graph, assignment, search.env.n_chips)
    if reason is not None:
        return reason
    if search.env.evaluate(assignment).improvement != improvement:
        return "improvement_mismatch"
    return None


def _check(run: Run, outcomes, first) -> "list[tuple]":
    """Tally one round's searches.  A search fails when it disagrees bit for
    bit with its outcome in ``first`` (the first round's ``(assignment,
    improvement)`` pairs; None while checking the first round).  Returns
    the pairs of the first round."""
    pairs = [(assignment, improvement) for _, assignment, improvement in outcomes]
    for (search, assignment, improvement), (first_assignment, first_improvement) in zip(
        outcomes, first or pairs
    ):
        reason = search_failure(search, assignment, improvement)
        if reason is None and (
            improvement != first_improvement
            or not np.array_equal(assignment, first_assignment)
        ):
            reason = "not_deterministic"
        run.tally.record(reason)
    return first or pairs


def _phase_metrics(profiler: PhaseTimer, wall_s: float) -> dict:
    secs, counts = profiler.seconds(), profiler.counts()

    def share(phase: str) -> float:
        return secs.get(phase, 0.0) / wall_s

    solver_calls = counts.get("solver", 0)
    return {
        "rl.ppo_update_s": secs.get("ppo_update", 0.0),
        "rl.ppo_update_calls": counts.get("ppo_update", 0),
        "rl.ppo_update_share": share("ppo_update"),
        "solver.repair_s": secs.get("solver", 0.0),
        "solver.repair_calls": solver_calls,
        "solver.repair_ms_per_call": (
            secs.get("solver", 0.0) / solver_calls * 1e3 if solver_calls else 0.0
        ),
        "solver.repair_share": share("solver"),
        "rl.encode_s": secs.get("encoder", 0.0),
        "rl.encode_calls": counts.get("encoder", 0),
        "hardware.evaluate_s": secs.get("rollout", 0.0),
        "hardware.evaluate_calls": counts.get("rollout", 0),
        "hardware.evaluate_share": share("rollout"),
        "core.other_share": max(0.0, 1.0 - sum(secs.values()) / wall_s),
    }


def run_train(run: Run) -> dict:
    """One ``train_*`` run: end-to-end metrics, or with ``run.trace`` the
    per-layer phase breakdown of one more, profiled round.

    Every round sets up afresh, and its set-ups are timed, so the
    ``setup_s`` samples are spread over the whole run like the rounds."""
    per_round = max(1, run.setup_repeats // run.rounds)
    windows, setup_times, first = [], [], None
    for _ in range(run.rounds):
        searches, times = timed_setups(lambda: _setup(run), lambda _: None, per_round)
        setup_times += times
        window_s, outcomes = _measure(searches)
        first = _check(run, outcomes, first)
        windows.append(window_s)
        # Drop this round's partitioners before the next set-up is timed.
        del searches, outcomes
    improvements = [imp for assignment, imp in first if assignment is not None]
    if not run.trace:
        # Every round repeats the same windows; each window's latency is
        # its fastest repeat.
        window_s = np.min(windows, axis=0)
        return {
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": peak_rss_mb(),
            "throughput": len(window_s) * WINDOW / float(window_s.sum()),
            "p50_ms": percentile(window_s, 50) * 1e3,
            "tail_ms": percentile(window_s, TAIL_PERCENTILE) * 1e3,
            "improvement": geomean(improvements),
            "ok_ratio": run.tally.ok_ratio,
        }
    profiler = PhaseTimer()
    traced = _build(_plan(run))
    profiler.reset()
    traced_s, traced_outcomes = _measure(traced, profiler)
    _check(run, traced_outcomes, first)
    metrics = _phase_metrics(profiler, sum(traced_s))
    # One profiled round against the typical untraced round.
    metrics["obs.tracing_overhead_pct"] = overhead_pct(
        percentile(traced_s, 50), float(np.median([percentile(w, 50) for w in windows]))
    )
    return metrics
