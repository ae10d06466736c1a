"""PartitionService: caching, batching, determinism, metrics, latency."""

import numpy as np
import pytest

from repro.graphs.serialization import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.graphs.zoo import build_cnn, build_mlp
from repro.hardware.topology import Mesh2D
from repro.serve import (
    CheckpointRegistry,
    PartitionRequest,
    ServiceError,
)
from tests.conftest import random_dag
from tests.serve.conftest import tiny_rl_config, tiny_service


class TestCaching:
    def test_cold_then_cached_bit_identical(self, service):
        graph = build_mlp()
        first = service.submit(PartitionRequest(graph=graph, n_chips=4))
        assert not first.cached and first.source == "cold"
        second = service.submit(PartitionRequest(graph=graph, n_chips=4))
        assert second.cached and second.source == "cached"
        assert second.fingerprint == first.fingerprint
        np.testing.assert_array_equal(second.assignment, first.assignment)
        assert second.improvement == first.improvement

    def test_roundtripped_graph_hits_the_same_entry(self, service, tmp_path):
        """A graph reloaded from disk is the same content — same cache
        entry, no recompute."""
        graph = build_mlp()
        first = service.submit(PartitionRequest(graph=graph, n_chips=4))
        path = str(tmp_path / "g.npz")
        save_graph(graph, path)
        second = service.submit(
            PartitionRequest(graph=load_graph(path), n_chips=4)
        )
        assert second.cached
        np.testing.assert_array_equal(second.assignment, first.assignment)

    def test_permuted_graph_hit_is_remapped_to_requesters_node_order(
        self, service
    ):
        """The fingerprint is insertion-order invariant, and so is the
        *served partition*: a hit for a node-permuted copy of a cached
        graph comes back remapped onto the requester's node ids — valid
        for its DAG, equivalent cost — not as the producer's raw array."""
        from repro.graphs.builders import GraphBuilder
        from repro.graphs.ops import OpType
        from repro.solver.constraints import validate_partition

        def chain(order):
            spec = {
                "a": (OpType.INPUT, 0.0), "b": (OpType.MATMUL, 9.0),
                "c": (OpType.RELU, 1.0), "d": (OpType.MATMUL, 7.0),
                "e": (OpType.ADD, 2.0), "f": (OpType.MATMUL, 8.0),
            }
            edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")]
            builder = GraphBuilder("chain")
            ids = {}
            for name in order:
                op, cost = spec[name]
                ids[name] = builder.add_node(
                    name, op, compute_us=cost, output_bytes=64.0
                )
            for s, d in edges:
                builder.add_edge(ids[s], ids[d])
            return builder.build(), ids

        forward, _ = chain(["a", "b", "c", "d", "e", "f"])
        backward, ids = chain(["f", "e", "d", "c", "b", "a"])
        cold = service.submit(PartitionRequest(graph=forward, n_chips=3))
        hit = service.submit(PartitionRequest(graph=backward, n_chips=3))
        assert hit.cached
        assert validate_partition(backward, hit.assignment, 3).ok
        assert hit.improvement == cold.improvement
        # Same placement per *named* node, not per node id.
        for pos, name in enumerate(["a", "b", "c", "d", "e", "f"]):
            assert hit.assignment[ids[name]] == cold.assignment[pos]

    def test_indistinguishable_twin_nodes_never_alias_across_orders(self):
        """When two nodes are truly indistinguishable (same name, attrs,
        neighbourhood), the fingerprint degrades to order-sensitive: a
        permuted copy misses the cache instead of risking a bad remap."""
        from repro.graphs.builders import GraphBuilder
        from repro.graphs.ops import OpType
        from repro.serve.fingerprint import graph_fingerprint

        def lopsided(order):
            # in -> twin, twin, heavy; twins identical, heavy distinct.
            builder = GraphBuilder("twins")
            ids = {}
            spec = {
                "in": (OpType.INPUT, 0.0),
                "t1": (OpType.RELU, 1.0),
                "t2": (OpType.RELU, 1.0),
                "out": (OpType.MATMUL, 9.0),
            }
            for name in order:
                op, cost = spec[name]
                ids[name] = builder.add_node(
                    "twin" if name in ("t1", "t2") else name,
                    op, compute_us=cost, output_bytes=32.0,
                )
            for s, d in [("in", "t1"), ("in", "t2"), ("t1", "out"), ("t2", "out")]:
                builder.add_edge(ids[s], ids[d])
            return builder.build()

        same = lopsided(["in", "t1", "t2", "out"])
        permuted = lopsided(["out", "in", "t1", "t2"])
        # Identical insertion order still fingerprints identically...
        assert graph_fingerprint(same) == graph_fingerprint(
            lopsided(["in", "t1", "t2", "out"])
        )
        # ...but a permutation of a tie-carrying graph must not alias.
        assert graph_fingerprint(same) != graph_fingerprint(permuted)

    def test_warm_vs_cold_source_classification(self, service):
        a = service.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
        b = service.submit(PartitionRequest(graph=build_cnn(), n_chips=4))
        assert a.source == "cold" and b.source == "warm"

    def test_cached_request_is_10x_faster_and_identical(self, service):
        """Acceptance pin: a cache hit is >= 10x faster than the cold
        request and returns the bit-identical partition."""
        graph = build_cnn()
        request = PartitionRequest(graph=graph, n_chips=4, samples=16)
        cold = service.submit(request)
        assert cold.source == "cold"
        hits = [service.submit(request) for _ in range(3)]
        for hit in hits:
            assert hit.cached
            np.testing.assert_array_equal(hit.assignment, cold.assignment)
        best_hit_ms = min(h.latency_ms for h in hits)
        assert best_hit_ms * 10.0 <= cold.latency_ms, (
            f"cache hit {best_hit_ms:.3f}ms vs cold {cold.latency_ms:.3f}ms"
        )


class TestDeterminism:
    def test_result_independent_of_batch_composition(self):
        """A request's partition is a pure function of (weights, its own
        fingerprint): alone or batched with strangers, same answer."""
        mine = random_dag(5, 18)
        alone = tiny_service().submit(PartitionRequest(graph=mine, n_chips=4))
        batched_service = tiny_service()
        responses = batched_service.submit_many(
            [
                PartitionRequest(graph=random_dag(6, 14), n_chips=4),
                PartitionRequest(graph=mine, n_chips=4),
                PartitionRequest(graph=random_dag(7, 22), n_chips=4),
            ]
        )
        np.testing.assert_array_equal(responses[1].assignment, alone.assignment)
        assert responses[1].fingerprint == alone.fingerprint

    def test_result_independent_of_worker_count(self):
        """The replay batch is spawn-key seeded, so the service returns the
        same partition with an in-process executor and a forked pool."""
        from repro.parallel.pool import fork_available

        if not fork_available():  # pragma: no cover - platform guard
            pytest.skip("fork unavailable")
        graph = random_dag(9, 20)
        serial = tiny_service(n_workers=1).submit(
            PartitionRequest(graph=graph, n_chips=4)
        )
        pooled = tiny_service(n_workers=2).submit(
            PartitionRequest(graph=graph, n_chips=4)
        )
        np.testing.assert_array_equal(pooled.assignment, serial.assignment)
        assert pooled.improvement == serial.improvement

    def test_fresh_service_reproduces_results(self):
        graph = random_dag(11, 16)
        a = tiny_service().submit(PartitionRequest(graph=graph, n_chips=4))
        b = tiny_service().submit(PartitionRequest(graph=graph, n_chips=4))
        np.testing.assert_array_equal(a.assignment, b.assignment)


class TestBatchSemantics:
    def test_duplicate_requests_search_once(self, service):
        """Identical requests in one batch are deduplicated: one search,
        copies served from the fresh cache entry."""
        graph = build_mlp()
        responses = service.submit_many(
            [
                PartitionRequest(graph=graph, n_chips=4),
                PartitionRequest(graph=graph, n_chips=4),
                PartitionRequest(graph=graph, n_chips=4),
            ]
        )
        assert responses[0].source == "cold" and not responses[0].cached
        for dup in responses[1:]:
            assert dup.cached and dup.source == "cached"
            np.testing.assert_array_equal(dup.assignment, responses[0].assignment)
        metrics = service.metrics()
        # Request-level accounting: one real search, two deduplicated
        # copies.  Duplicates never probe the cache (the primary's miss is
        # already counted), so lookup counters see exactly one miss.
        assert metrics["by_source"] == {
            "cached": 2, "warm": 0, "cold": 1, "degraded": 0,
        }
        assert metrics["latency_ms"]["cold"]["count"] == 1
        assert metrics["cache"]["hits"] == 0
        assert metrics["cache"]["misses"] == 1

    def test_invalid_member_does_not_discard_siblings(self, service):
        """A *validation* failure (bad objective) is isolated exactly like
        an unsatisfiable search: the sibling still runs and is cached."""
        good = PartitionRequest(graph=build_mlp(), n_chips=4)
        bad = PartitionRequest(graph=build_cnn(), n_chips=4, objective="speed")
        with pytest.raises(ServiceError, match="objective"):
            service.submit_many([bad, good])
        retry = service.submit(good)
        assert retry.cached

    def test_duplicate_served_even_after_in_batch_eviction(self):
        """A capacity-1 cache can evict the primary's entry before its
        in-batch duplicate is served; the duplicate must still get the
        primary's result, not a hole in the response list."""
        service = tiny_service(cache_capacity=1)
        a, b = build_mlp(), build_cnn()
        responses = service.submit_many(
            [
                PartitionRequest(graph=a, n_chips=4),
                PartitionRequest(graph=a, n_chips=4),  # duplicate of [0]
                PartitionRequest(graph=b, n_chips=4),  # evicts a's entry
            ]
        )
        assert all(r is not None for r in responses)
        np.testing.assert_array_equal(responses[1].assignment,
                                      responses[0].assignment)
        assert responses[1].cached

    def test_duplicate_latency_not_charged_to_cached_class(self, service):
        """An in-batch duplicate waits on the primary's search, but that
        wait is accounted under the primary's cold/warm record — the
        'cached' percentiles stay cache-serve-only (sub-millisecond)."""
        graph = build_mlp()
        service.submit_many(
            [
                PartitionRequest(graph=graph, n_chips=4),
                PartitionRequest(graph=graph, n_chips=4),
            ]
        )
        metrics = service.metrics()
        cold_p50 = metrics["latency_ms"]["cold"]["p50_ms"]
        cached_p50 = metrics["latency_ms"]["cached"]["p50_ms"]
        assert cached_p50 < cold_p50 / 10

    def test_failed_member_does_not_discard_siblings(self, tmp_path):
        """One unsatisfiable member fails the batch with a single error,
        but every sibling's search still ran and was cached — the retry
        without the bad request is answered from cache."""
        from repro.core.partitioner import RLPartitioner

        registry = CheckpointRegistry(str(tmp_path / "reg"))
        registry.publish_partitioner(
            "prod", RLPartitioner(4, config=tiny_rl_config(), rng=0)
        )
        service = tiny_service(registry=registry)
        good_graph = build_mlp()
        good = PartitionRequest(graph=good_graph, n_chips=4)
        # The 4-chip checkpoint cannot serve an 8-chip request: the warm
        # pool rejects it at build time (a group-level failure).
        bad = PartitionRequest(graph=build_cnn(), n_chips=8, checkpoint="prod")
        with pytest.raises(ServiceError, match="trained for"):
            service.submit_many([good, bad])
        assert service.metrics()["errors"] == 1
        retry = service.submit(good)
        assert retry.cached  # the sibling's work survived the failure


class TestRequestSpace:
    def test_objectives_are_separate_entries(self, service):
        graph = build_mlp()
        thr = service.submit(
            PartitionRequest(graph=graph, n_chips=4, objective="throughput")
        )
        lat = service.submit(
            PartitionRequest(graph=graph, n_chips=4, objective="latency")
        )
        assert thr.fingerprint != lat.fingerprint
        assert lat.objective == "latency" and not lat.cached

    def test_topologies_are_separate_entries(self, service):
        graph = build_mlp()
        ring = service.submit(PartitionRequest(graph=graph, n_chips=4))
        mesh = service.submit(
            PartitionRequest(graph=graph, n_chips=4, topology=Mesh2D(2, 2))
        )
        assert ring.fingerprint != mesh.fingerprint
        assert not mesh.cached

    def test_simulator_cost_model_serves(self, service):
        response = service.submit(
            PartitionRequest(
                graph=build_mlp(), n_chips=4, cost_model="simulator", samples=4
            )
        )
        assert response.improvement > 0
        assert response.throughput > 0

    def test_checkpoint_flow(self, tmp_path):
        from repro.core.partitioner import RLPartitioner

        registry = CheckpointRegistry(str(tmp_path / "reg"))
        trained = RLPartitioner(4, config=tiny_rl_config(), rng=42)
        registry.publish_partitioner("prod", trained)
        service = tiny_service(registry=registry)
        graph = build_mlp()
        untrained = service.submit(PartitionRequest(graph=graph, n_chips=4))
        ckpt = service.submit(
            PartitionRequest(graph=graph, n_chips=4, checkpoint="prod")
        )
        assert ckpt.checkpoint == ("prod", 1)
        assert ckpt.fingerprint != untrained.fingerprint
        # Same checkpoint again: cache hit, zero further weight loads.
        again = service.submit(
            PartitionRequest(graph=graph, n_chips=4, checkpoint="prod")
        )
        assert again.cached
        assert service.pool.weight_loads == 1

    def test_new_version_invalidates_latest(self, tmp_path):
        from repro.core.partitioner import RLPartitioner

        registry = CheckpointRegistry(str(tmp_path / "reg"))
        registry.publish_partitioner(
            "prod", RLPartitioner(4, config=tiny_rl_config(), rng=1)
        )
        service = tiny_service(registry=registry)
        graph = build_mlp()
        v1 = service.submit(
            PartitionRequest(graph=graph, n_chips=4, checkpoint="prod")
        )
        registry.publish_partitioner(
            "prod", RLPartitioner(4, config=tiny_rl_config(), rng=2)
        )
        v2 = service.submit(
            PartitionRequest(graph=graph, n_chips=4, checkpoint="prod")
        )
        assert not v2.cached and v2.fingerprint != v1.fingerprint
        assert v2.checkpoint == ("prod", 2)


class TestErrors:
    def test_bad_objective(self, service):
        with pytest.raises(ServiceError, match="objective"):
            service.submit(
                PartitionRequest(graph=build_mlp(), objective="speed")
            )

    def test_bad_cost_model(self, service):
        with pytest.raises(ServiceError, match="cost_model"):
            service.submit(
                PartitionRequest(graph=build_mlp(), cost_model="magic")
            )

    def test_checkpoint_without_registry(self, service):
        with pytest.raises(ServiceError, match="registry"):
            service.submit(
                PartitionRequest(graph=build_mlp(), checkpoint="prod")
            )

    def test_topology_chip_mismatch(self, service):
        with pytest.raises(ServiceError, match="topology is for"):
            service.submit(
                PartitionRequest(
                    graph=build_mlp(), n_chips=6, topology=Mesh2D(2, 2)
                )
            )

    def test_errors_counted(self, service):
        with pytest.raises(ServiceError):
            service.submit(PartitionRequest(graph=build_mlp(), n_chips=0))
        assert service.metrics()["errors"] == 1

    def test_empty_graph(self, service):
        """An in-process caller gets the same ServiceError the HTTP path
        answers 422 with, not an IndexError from the greedy baseline."""
        wire = graph_to_dict(build_mlp())
        empty = graph_from_dict(
            {k: [] if isinstance(v, list) else v for k, v in wire.items()}
        )
        with pytest.raises(ServiceError, match="no nodes"):
            service.submit(PartitionRequest(graph=empty))


class TestMetrics:
    def test_counters_and_percentiles(self, service):
        graph = build_mlp()
        service.submit(PartitionRequest(graph=graph, n_chips=4))
        service.submit(PartitionRequest(graph=graph, n_chips=4))
        service.submit(PartitionRequest(graph=build_cnn(), n_chips=4))
        metrics = service.metrics()
        assert metrics["requests_total"] == 3
        assert metrics["by_source"] == {
            "cached": 1, "warm": 1, "cold": 1, "degraded": 0,
        }
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 2
        assert metrics["latency_ms"]["cold"]["count"] == 1
        assert metrics["latency_ms"]["cold"]["p50_ms"] > 0
        assert metrics["requests_per_sec"] > 0
        assert metrics["pool"] == {
            "size": 1, "capacity": 4, "builds": 1, "weight_loads": 0,
        }

    def test_metrics_render_as_report(self, service):
        from repro.analysis import format_service_metrics

        service.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
        text = format_service_metrics(service.metrics())
        assert "serving metrics" in text
        assert "cold" in text and "hit rate" in text

    def test_metrics_are_json_safe(self, service):
        import json

        service.submit(PartitionRequest(graph=build_mlp(), n_chips=4))
        json.dumps(service.metrics())
