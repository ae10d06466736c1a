"""Replicated sharded serving: ring, breakers, failover, hedging, chaos.

Tier-1 tests drive an in-process router over thread-backed shard servers
(same seed everywhere, so replicas are interchangeable bit-for-bit).  The
``chaos``-marked tests spawn real ``repro serve`` subprocesses and SIGKILL
one mid-burst — the acceptance bar is *zero client-visible errors* and
responses bit-identical to a fault-free run.
"""

import json
import urllib.request

import pytest

from repro.graphs.serialization import graph_to_dict
from repro.graphs.zoo import build_cnn, build_mlp
from repro.reliability import Fault, FaultPlan
from repro.serve import (
    CircuitBreaker,
    HashRing,
    PartitionServer,
    RouterConfig,
    RouterServer,
    ShardEndpoint,
    ShardRouter,
    request_partition,
)
from tests.serve.conftest import tiny_service

_RESOLVER = {"mlp": build_mlp, "cnn": build_cnn}

_EMPTY_GRAPH = {
    key: []
    for key in ("names", "op_types", "compute_us", "output_bytes",
                "param_bytes", "src", "dst")
}


def _payload(graph="mlp", chips=4, samples=4, **extra):
    payload = {
        "graph": graph_to_dict(_RESOLVER[graph]()),
        "chips": chips,
        "samples": samples,
    }
    payload.update(extra)
    return payload


class _Cluster:
    """N thread-backed shards plus a router over them (in-process tier-1
    stand-in for the subprocess deployment)."""

    def __init__(self, n_shards=2, config=None, **shard_overrides):
        self.servers = []
        shards = []
        for i in range(n_shards):
            srv = PartitionServer(
                tiny_service(shard_id=f"s{i}", **shard_overrides), port=0
            ).start()
            self.servers.append(srv)
            shards.append(
                ShardEndpoint(shard_id=f"s{i}", host=srv.host, port=srv.port)
            )
        self.router = ShardRouter(
            shards,
            config=config
            or RouterConfig(replication=2, probe_interval_s=0.0),
        )

    def kill(self, shard_id: str) -> None:
        """Hard-stop one shard's HTTP server (the in-process 'crash')."""
        self.servers[int(shard_id[1:])].shutdown()

    def close(self) -> None:
        self.router.close()
        for srv in self.servers:
            srv.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TestHashRing:
    def test_deterministic_across_instances(self):
        a = HashRing(["s0", "s1", "s2"], vnodes=64)
        b = HashRing(["s2", "s0", "s1"], vnodes=64)  # insertion order differs
        for key in ("alpha", "beta", "gamma", "delta"):
            assert a.replicas(key, 2) == b.replicas(key, 2)

    def test_replicas_are_distinct_shards(self):
        ring = HashRing([f"s{i}" for i in range(5)], vnodes=32)
        for key in map(str, range(50)):
            reps = ring.replicas(key, 3)
            assert len(reps) == 3
            assert len(set(reps)) == 3

    def test_replicas_capped_by_membership(self):
        ring = HashRing(["s0", "s1"])
        assert sorted(ring.replicas("k", 5)) == ["s0", "s1"]
        assert HashRing().replicas("k", 2) == []

    def test_removal_moves_minimal_keyspace(self):
        """Consistent hashing's point: dropping one of N shards re-routes
        roughly 1/N of keys, never reshuffles everything."""
        ids = [f"s{i}" for i in range(4)]
        before = HashRing(ids, vnodes=64)
        keys = [f"key-{i}" for i in range(400)]
        primary_before = {k: before.replicas(k, 1)[0] for k in keys}
        before.remove("s2")
        moved = sum(
            1
            for k in keys
            if primary_before[k] != "s2"
            and before.replicas(k, 1)[0] != primary_before[k]
        )
        assert moved == 0  # survivors' keys never move on a removal
        orphans = [k for k in keys if primary_before[k] == "s2"]
        assert orphans  # the dropped shard owned some keyspace

    def test_distribution_roughly_balanced(self):
        ring = HashRing([f"s{i}" for i in range(4)], vnodes=64)
        counts = {f"s{i}": 0 for i in range(4)}
        n = 2000
        for i in range(n):
            counts[ring.replicas(f"key-{i}", 1)[0]] += 1
        for c in counts.values():
            assert 0.1 * n < c < 0.5 * n  # no starving, no hot-spotting

    def test_duplicate_shard_rejected(self):
        ring = HashRing(["s0"])
        with pytest.raises(ValueError, match="already on the ring"):
            ring.add("s0")


class TestCircuitBreaker:
    def test_full_state_machine(self):
        t = [0.0]
        br = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=5.0, clock=lambda: t[0]
        )
        assert br.state == "closed" and br.admit()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"  # below threshold
        br.record_failure()
        assert br.state == "open"
        assert not br.admit()  # open refuses until the reset window
        t[0] = 5.1
        assert br.admit()  # half-open trial
        assert br.state == "half_open"
        assert not br.admit()  # exactly one trial in flight
        br.record_failure()
        assert br.state == "open"  # failed trial re-opens
        t[0] = 10.5
        assert br.admit()
        br.record_success()
        assert br.state == "closed"
        snap = br.snapshot()
        assert snap["opened_total"] == 2
        assert snap["transitions"]["closed->open"] == 1
        assert snap["transitions"]["half_open->open"] == 1
        assert snap["transitions"]["half_open->closed"] == 1

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(failure_threshold=2)
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # failures must be *consecutive*


class TestRoutingKey:
    def test_same_request_same_replica_set(self):
        with _Cluster(n_shards=3) as c:
            k1 = c.router.routing_key(_payload())
            k2 = c.router.routing_key(_payload())
            assert k1 == k2
            assert c.router.ring.replicas(k1, 2) == c.router.ring.replicas(
                k2, 2
            )

    def test_different_requests_can_differ(self):
        with _Cluster(n_shards=3) as c:
            keys = {
                c.router.routing_key(_payload("mlp")),
                c.router.routing_key(_payload("cnn")),
                c.router.routing_key(_payload("mlp", chips=8)),
                c.router.routing_key(_payload("mlp", samples=6)),
            }
            assert len(keys) == 4  # everything result-relevant is folded in

    @pytest.mark.parametrize(
        "bad",
        [{"chips": 4}, {"graph": _EMPTY_GRAPH, "chips": 4}],
        ids=["no-graph", "empty-graph"],
    )
    def test_bad_request_is_422_not_routed(self, bad):
        with _Cluster() as c:
            for _ in range(3):  # failure_threshold: would open a breaker
                status, reply = c.router.handle_partition(bad)
                assert status == 422
                assert "graph" in reply["error"]
            m = c.router.metrics()
            assert m["client_errors"] == 3
            assert {s["breaker"]["state"] for s in m["shards"].values()} == {
                "closed"
            }
            status, reply = c.router.handle_partition(_payload())
            assert status == 200 and not reply["degraded"]


class TestFailover:
    def test_dead_primary_fails_over_bit_identical(self):
        """Kill the *primary* replica: the request still succeeds, from the
        secondary, with the exact same bits a healthy cluster serves."""
        with _Cluster(n_shards=2) as c:
            payload = _payload()
            status, healthy_reply = c.router.handle_partition(payload)
            assert status == 200
            key = c.router.routing_key(payload)
            primary = c.router.ring.replicas(key, 2)[0]
            c.kill(primary)
            status, reply = c.router.handle_partition(payload)
            assert status == 200
            assert reply["assignment"] == healthy_reply["assignment"]
            assert reply["fingerprint"] == healthy_reply["fingerprint"]
            m = c.router.metrics()
            assert m["failovers"] >= 1
            assert m["shards"][primary]["failures"] >= 1

    def test_consecutive_failures_open_breaker_then_skip(self):
        with _Cluster(
            n_shards=2,
            config=RouterConfig(
                replication=2,
                probe_interval_s=0.0,
                failure_threshold=2,
                breaker_reset_s=60.0,
                hedge=False,
            ),
        ) as c:
            payload = _payload()
            key = c.router.routing_key(payload)
            primary = c.router.ring.replicas(key, 2)[0]
            c.kill(primary)
            for _ in range(2):  # enough consecutive failures to trip
                status, _ = c.router.handle_partition(payload)
                assert status == 200
            snap = c.router.metrics()["shards"][primary]["breaker"]
            assert snap["state"] == "open"
            assert snap["transitions"]["closed->open"] == 1
            failovers_before = c.router.metrics()["failovers"]
            status, _ = c.router.handle_partition(payload)
            assert status == 200
            # Breaker-open means the dead primary is skipped outright:
            # no attempt, no new failover hop.
            assert c.router.metrics()["failovers"] == failovers_before

    def test_probes_open_and_close_breakers(self):
        with _Cluster(
            n_shards=2,
            config=RouterConfig(
                replication=2,
                probe_interval_s=0.0,  # probes driven manually
                failure_threshold=2,
            ),
        ) as c:
            c.kill("s1")
            for _ in range(2):
                c.router.probe_all()
            shard = c.router.metrics()["shards"]["s1"]
            assert shard["breaker"]["state"] == "open"
            assert shard["health"]["healthy"] is False
            assert shard["health"]["consecutive_probe_failures"] == 2
            assert c.router.metrics()["shards"]["s0"]["breaker"]["state"] == (
                "closed"
            )

    def test_client_error_is_forwarded_not_failed_over(self):
        """A 422 is an answer about the request, not a shard failure: no
        failover (every replica would agree), no breaker damage."""
        with _Cluster(n_shards=2) as c:
            status, reply = c.router.handle_partition(
                _payload(objective="nonsense")
            )
            assert status == 422
            assert "objective" in reply["error"]
            m = c.router.metrics()
            assert m["failovers"] == 0
            assert m["client_errors"] == 1
            for shard in m["shards"].values():
                assert shard["breaker"]["state"] == "closed"

    def test_all_replicas_down_serves_degraded_greedy(self):
        with _Cluster(n_shards=2) as c:
            payload = _payload()
            c.kill("s0")
            c.kill("s1")
            status, reply = c.router.handle_partition(payload)
            assert status == 200  # degrade, don't fail
            assert reply["degraded"] is True
            assert reply["degraded_reason"] == "all_replicas_down"
            assert reply["source"] == "degraded"
            assert reply["cached"] is False
            m = c.router.metrics()
            assert m["all_replicas_down"] == 1
            assert m["degraded_serves"] == 1
            # A degraded answer is still a full, in-range partition.
            assert len(reply["assignment"]) == build_mlp().n_nodes
            assert all(0 <= a < 4 for a in reply["assignment"])


class TestHedging:
    def test_stalled_primary_hedge_wins_bit_identical(self):
        """``shard_stall`` wedges the primary; the hedge fires after the
        delay, the secondary answers first, and the bits match a calm run."""
        with _Cluster(n_shards=2) as c:
            payload = _payload()
            _, healthy_reply = c.router.handle_partition(payload)
            key = c.router.routing_key(payload)
            primary = c.router.ring.replicas(key, 2)[0]
            plan = FaultPlan(
                [Fault(site="shard_stall", kind="stall", at=(primary,),
                       delay_s=5.0)]
            )
            hedged = ShardRouter(
                [s.endpoint for s in c.router._shards.values()],
                config=RouterConfig(
                    replication=2,
                    probe_interval_s=0.0,
                    hedge_min_s=0.05,
                    fault_plan=plan,
                ),
            )
            try:
                status, reply = hedged.handle_partition(payload)
                assert status == 200
                assert reply["assignment"] == healthy_reply["assignment"]
                m = hedged.metrics()
                assert m["hedges_fired"] == 1
                assert m["hedge_wins"] == 1
                assert m["failovers"] == 0  # slow is not failed
                assert m["fault_plan"][0]["remaining"] == 0
            finally:
                hedged.close()

    def test_hedge_disabled_never_fires(self):
        with _Cluster(
            n_shards=2,
            config=RouterConfig(
                replication=2, probe_interval_s=0.0, hedge=False
            ),
        ) as c:
            for _ in range(3):
                status, _ = c.router.handle_partition(_payload())
                assert status == 200
            assert c.router.metrics()["hedges_fired"] == 0

    def test_network_partition_fault_fails_over(self):
        """An injected partition drops the transport without touching the
        process: the router fails over; the shard itself stays healthy."""
        with _Cluster(n_shards=2) as c:
            payload = _payload()
            key = c.router.routing_key(payload)
            primary = c.router.ring.replicas(key, 2)[0]
            plan = FaultPlan(
                [Fault(site="network_partition", kind="partition",
                       at=(primary,))]
            )
            cut = ShardRouter(
                [s.endpoint for s in c.router._shards.values()],
                config=RouterConfig(
                    replication=2, probe_interval_s=0.0, hedge=False,
                    fault_plan=plan,
                ),
            )
            try:
                status, reply = cut.handle_partition(payload)
                assert status == 200
                assert not reply.get("degraded")
                m = cut.metrics()
                assert m["failovers"] == 1
                assert m["faults"]["fired_by_site"] == {
                    "network_partition": 1
                }
            finally:
                cut.close()


class TestRouterServer:
    def test_wire_compatible_with_shard_clients(self):
        """`request_partition` / `/metrics` / `/healthz` all work against a
        router exactly as they do against a single shard."""
        with _Cluster(n_shards=2) as c:
            with RouterServer(c.router, port=0).start() as front:
                reply = request_partition(_payload(), port=front.port)
                assert reply["source"] in ("cold", "cached")
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{front.port}/metrics", timeout=30
                ) as resp:
                    metrics = json.loads(resp.read())
                assert metrics["router"] is True
                assert metrics["requests_total"] == 1
                assert set(metrics["shards"]) == {"s0", "s1"}
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{front.port}/healthz", timeout=30
                ) as resp:
                    health = json.loads(resp.read())
                assert health["ok"] is True
                assert health["degraded_only"] is False

    def test_unknown_path_404(self):
        with _Cluster() as c:
            with RouterServer(c.router, port=0).start() as front:
                import urllib.error

                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{front.port}/nope", timeout=30
                    )
                assert err.value.code == 404


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError, match="replication"):
            RouterConfig(replication=0)
        with pytest.raises(ValueError, match="vnodes"):
            RouterConfig(vnodes=0)
        with pytest.raises(ValueError, match="hedge_min_s"):
            RouterConfig(hedge_min_s=0.5, hedge_max_s=0.1)

    def test_router_needs_shards_and_unique_ids(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter([])
        dup = [
            ShardEndpoint("s0", "127.0.0.1", 1),
            ShardEndpoint("s0", "127.0.0.1", 2),
        ]
        with pytest.raises(ValueError, match="duplicate shard ids"):
            ShardRouter(dup, config=RouterConfig(probe_interval_s=0.0))


@pytest.mark.chaos
class TestChaosSubprocessShards:
    """The acceptance bar: real shard processes, a SIGKILL mid-burst, and
    not a single client-visible error or changed bit."""

    def _spawn_router(self, n_shards=2, fault_plan=None):
        return ShardRouter.spawn(
            n_shards,
            config=RouterConfig(
                replication=2,
                probe_interval_s=0.5,
                failure_threshold=2,
                breaker_reset_s=1.0,
                hedge_max_s=1.0,
                fault_plan=fault_plan,
            ),
            seed=0,
        )

    def test_shard_kill_mid_burst_zero_errors_bit_identical(self):
        payloads = [
            _payload("mlp", chips=4),
            _payload("cnn", chips=4),
            _payload("mlp", chips=8),
            _payload("mlp", chips=4, objective="latency"),
        ]
        burst = payloads * 3  # repeats exercise the shard caches too

        calm = self._spawn_router()
        try:
            baseline = [calm.handle_partition(p) for p in burst]
        finally:
            calm.close()
        assert all(status == 200 for status, _ in baseline)
        assert not any(reply.get("degraded") for _, reply in baseline)

        # Same burst, but the first forward to payload[0]'s primary
        # SIGKILLs that shard process under the router.  The victim is
        # computable without spawning anything: ring placement is a pure
        # function of (shard ids, vnodes, routing key).
        from repro.serve import routing_key as routing_key_fn
        from repro.serve import request_from_payload

        key = routing_key_fn(request_from_payload(payloads[0]))
        victim = HashRing(["s0", "s1"], vnodes=64).replicas(key, 1)[0]
        plan = FaultPlan(
            [Fault(site="shard_kill", kind="kill", at=(victim,))]
        )
        chaotic = self._spawn_router(fault_plan=plan)
        try:
            replies = [chaotic.handle_partition(p) for p in burst]
            metrics = chaotic.metrics()
        finally:
            chaotic.close()

        # Zero client-visible errors...
        assert all(status == 200 for status, _ in replies)
        # ...no degraded serves (a replica survived)...
        assert all(not reply.get("degraded") for _, reply in replies)
        # ...bit-identical to the fault-free run (fingerprint-seeded
        # determinism makes replicas interchangeable)...
        for (_, calm_reply), (_, chaos_reply) in zip(baseline, replies):
            assert chaos_reply["assignment"] == calm_reply["assignment"]
            assert chaos_reply["fingerprint"] == calm_reply["fingerprint"]
            assert chaos_reply["improvement"] == calm_reply["improvement"]
        # ...and the router's metrics tell the story.
        assert metrics["faults"]["fired_by_site"] == {"shard_kill": 1}
        assert metrics["failovers"] >= 1
        assert metrics["shards"][victim]["failures"] >= 1
        assert not metrics["shards"][victim]["process_alive"]
        transitions = metrics["shards"][victim]["breaker"]["transitions"]
        assert transitions.get("closed->open", 0) >= 1

    def test_router_front_survives_shard_kill(self):
        """End-to-end over HTTP: clients of the router front door never see
        the shard die either."""
        plan = FaultPlan(
            [Fault(site="shard_kill", kind="kill", at=())]  # first forward
        )
        router = self._spawn_router(fault_plan=plan)
        try:
            with RouterServer(router, port=0).start() as front:
                for _ in range(4):
                    reply = request_partition(_payload(), port=front.port)
                    assert not reply.get("degraded")
                metrics = json.loads(
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{front.port}/metrics", timeout=30
                    ).read()
                )
            assert metrics["failovers"] >= 1
            assert metrics["requests_total"] == 4
        finally:
            router.close()
