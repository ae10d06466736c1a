"""HTTP endpoint: JSON roundtrips, cache provenance, metrics, error codes."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.graphs.serialization import graph_to_dict
from repro.graphs.zoo import build_cnn, build_mlp
from repro.serve import (
    PartitionServer,
    ServiceError,
    fetch_metrics,
    request_partition,
)
from tests.serve.conftest import tiny_service

_RESOLVER = {"mlp": build_mlp, "cnn": build_cnn}


@pytest.fixture
def server():
    with PartitionServer(
        tiny_service(),
        port=0,
        graph_resolver=lambda name: _RESOLVER[name](),
    ).start() as srv:
        yield srv


class TestPartitionEndpoint:
    def test_cold_then_cached(self, server):
        first = request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        assert first["cached"] is False and first["source"] == "cold"
        assert len(first["assignment"]) == build_mlp().n_nodes
        assert first["improvement"] > 0
        second = request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        assert second["cached"] is True and second["source"] == "cached"
        assert second["assignment"] == first["assignment"]
        assert second["fingerprint"] == first["fingerprint"]

    def test_inline_graph_equals_zoo_name(self, server):
        """The wire format preserves content fingerprints: an inlined copy
        of the zoo graph hits the name-resolved entry."""
        request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        inline = request_partition(
            {"graph": graph_to_dict(build_mlp()), "chips": 4}, port=server.port
        )
        assert inline["cached"] is True

    def test_full_request_surface(self, server):
        reply = request_partition(
            {
                "graph": "mlp",
                "chips": 4,
                "topology": "mesh",
                "mesh_dims": "2x2",
                "objective": "latency",
                "samples": 4,
            },
            port=server.port,
        )
        assert reply["objective"] == "latency"
        assert max(reply["assignment"]) <= 3

    def test_assignment_is_valid_partition(self, server):
        reply = request_partition({"graph": "cnn", "chips": 4}, port=server.port)
        from repro.solver.constraints import validate_partition

        report = validate_partition(
            build_cnn(), np.asarray(reply["assignment"]), 4
        )
        assert report.ok


class TestMetricsEndpoint:
    def test_counters_over_http(self, server):
        request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        request_partition({"graph": "mlp", "chips": 4}, port=server.port)
        metrics = fetch_metrics(port=server.port)
        assert metrics["requests_total"] == 2
        assert metrics["cache"]["hits"] == 1
        assert metrics["cache"]["misses"] == 1
        assert metrics["latency_ms"]["cached"]["count"] == 1

    def test_healthz(self, server):
        """Readiness probe: load, registry reachability, degraded counts."""
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/healthz", timeout=30
        ) as resp:
            payload = json.loads(resp.read())
        assert payload["ok"] is True
        assert payload["saturated"] is False
        assert payload["in_flight"] == 0
        assert payload["max_in_flight"] == 0
        # No registry configured is a legitimate deployment (untrained
        # policy), not an unready one.
        assert payload["registry_configured"] is False
        assert payload["registry_ok"] is True
        assert payload["degraded_recent"] == 0
        assert payload["shard_id"] is None

    def test_healthz_503_when_saturated(self):
        """A saturated shard reports unready so routers stop sending work."""
        service = tiny_service(max_in_flight=2)
        service._in_flight = 2  # pin the gauge at the admission bound
        try:
            with PartitionServer(service, port=0).start() as srv:
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(
                        f"http://127.0.0.1:{srv.port}/healthz", timeout=30
                    )
                assert err.value.code == 503
                payload = json.loads(err.value.read())
                assert payload["ok"] is False
                assert payload["saturated"] is True
        finally:
            service._in_flight = 0

    def test_metrics_echo_shard_id_and_armed_fault_plan(self):
        """A routed shard's identity and its armed chaos schedule are both
        observable from /metrics (the `--shard-id`/`--fault-plan` flags)."""
        from repro.reliability import FaultPlan

        plan = FaultPlan.parse("registry:io_error:at=load:times=2", seed=5)
        service = tiny_service(shard_id="s7", fault_plan=plan)
        with PartitionServer(service, port=0).start() as srv:
            metrics = fetch_metrics(port=srv.port)
        assert metrics["shard"] == {"id": "s7"}
        assert metrics["reliability"]["fault_plan"] == [
            {
                "site": "registry", "kind": "io_error", "at": ["load"],
                "delay_s": 0.0, "times": 2, "remaining": 2,
            }
        ]

    def test_healthz_503_when_registry_root_lost(self, tmp_path):
        """A configured registry whose root vanished means the shard can no
        longer resolve checkpoints: alive, but not ready."""
        root = tmp_path / "registry"
        root.mkdir()
        service = tiny_service(registry_path=str(root))
        with PartitionServer(service, port=0).start() as srv:
            root.rmdir()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{srv.port}/healthz", timeout=30
                )
            assert err.value.code == 503
            payload = json.loads(err.value.read())
            assert payload["registry_configured"] is True
            assert payload["registry_ok"] is False


class TestErrorHandling:
    def test_unknown_graph_is_422(self, server):
        with pytest.raises(ServiceError, match="422.*unknown graph"):
            request_partition({"graph": "ghost"}, port=server.port)

    def test_missing_graph_is_422(self, server):
        with pytest.raises(ServiceError, match="422"):
            request_partition({"chips": 4}, port=server.port)

    def test_bad_topology_is_422(self, server):
        with pytest.raises(ServiceError, match="422"):
            request_partition(
                {"graph": "mlp", "topology": "moebius"}, port=server.port
            )

    def test_malformed_mesh_dims_is_422_not_dropped_connection(self, server):
        """Junk-shaped mesh_dims (dict, list of junk, number) must come
        back as a clean 422 — never crash the handler thread."""
        for junk in ({"a": 1}, [None], 7, "2y3"):
            with pytest.raises(ServiceError, match="422"):
                request_partition(
                    {"graph": "mlp", "topology": "mesh", "mesh_dims": junk},
                    port=server.port,
                )

    def test_unknown_checkpoint_error_is_clean_text(self, server):
        """RegistryError messages reach the client without KeyError's
        repr-quoting noise."""
        with pytest.raises(ServiceError) as exc_info:
            request_partition(
                {"graph": "mlp", "checkpoint": "ghost"}, port=server.port
            )
        assert "''" not in str(exc_info.value)
        assert "registry" in str(exc_info.value)

    @pytest.mark.parametrize(
        "field, value",
        [(None, None), ("compute_us", float("nan")),
         ("output_bytes", float("inf")), ("param_bytes", float("-inf"))],
        ids=["empty", "nan-compute", "inf-output", "neg-inf-param"],
    )
    def test_unsearchable_inline_graph_is_422(self, server, field, value):
        """An empty graph, or one with a non-finite cost, is the client's
        error: a 422 before any search, not a 500 from inside it."""
        graph = graph_to_dict(build_mlp())
        if field is None:
            graph = {k: [] if isinstance(v, list) else v for k, v in graph.items()}
        else:
            graph[field][0] = value
        with pytest.raises(ServiceError, match="422.*graph"):
            request_partition({"graph": graph, "chips": 4}, port=server.port)
        assert fetch_metrics(port=server.port)["requests_total"] == 0

    def test_bad_chips_is_422(self, server):
        with pytest.raises(ServiceError, match="422"):
            request_partition(
                {"graph": "mlp", "chips": "lots"}, port=server.port
            )

    def test_mesh_dims_without_mesh_topology_is_422(self, server):
        """Same contract as the CLI: dims on a non-mesh topology are an
        error, not silently dropped."""
        with pytest.raises(ServiceError, match="422.*mesh"):
            request_partition(
                {"graph": "mlp", "chips": 6, "mesh_dims": "2x3"},
                port=server.port,
            )

    def test_negative_content_length_is_400(self, server):
        """A hostile Content-Length must not wedge the handler thread."""
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.putrequest("POST", "/partition")
            conn.putheader("Content-Length", "-1")
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
        finally:
            conn.close()

    def test_oversized_content_length_is_413(self, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.putrequest("POST", "/partition")
            conn.putheader("Content-Length", str(2**31))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 413
        finally:
            conn.close()

    def test_unknown_path_is_404(self, server):
        req = urllib.request.Request(f"http://127.0.0.1:{server.port}/nope")
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 404

    def test_malformed_json_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/partition",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 400

    def test_shutdown_is_idempotent(self):
        server = PartitionServer(tiny_service(), port=0).start()
        server.shutdown()
        server.shutdown()
