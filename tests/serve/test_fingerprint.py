"""Canonical graph fingerprints: stability, invariance, and sensitivity."""

import hashlib
import json

import numpy as np
import pytest

from repro.graphs.builders import GraphBuilder
from repro.graphs.ops import OpType
from repro.graphs.serialization import (
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from repro.graphs.zoo import (
    build_autoencoder,
    build_bert,
    build_cnn,
    build_decoder,
    build_gru,
    build_inception_cnn,
    build_lstm,
    build_mlp,
    build_mobilenet,
    build_residual_cnn,
    build_unet,
)
from repro.hardware.topology import BiRing, Crossbar, Mesh2D, UniRing
from repro.serve.fingerprint import (
    PlatformDescriptor,
    canonical_form,
    graph_fingerprint,
    request_fingerprint,
)
from tests.conftest import random_dag

#: Every zoo family (BERT scaled down so the sweep stays fast).
ZOO_BUILDERS = {
    "mlp": build_mlp,
    "autoencoder": build_autoencoder,
    "cnn": build_cnn,
    "resnet": build_residual_cnn,
    "inception": build_inception_cnn,
    "lstm": build_lstm,
    "gru": build_gru,
    "decoder": build_decoder,
    "unet": build_unet,
    "mobilenet": build_mobilenet,
    "bert-small": lambda: build_bert(
        layers=1, hidden=64, heads=2, seq=16, target_nodes=None
    ),
}


class TestRoundtripStability:
    @pytest.mark.parametrize("name", sorted(ZOO_BUILDERS))
    def test_save_load_roundtrip_preserves_fingerprint(self, name, tmp_path):
        """Satellite: the fingerprint is identical before/after ``.npz``
        serialization for every zoo graph family."""
        graph = ZOO_BUILDERS[name]()
        before = graph_fingerprint(graph)
        path = str(tmp_path / f"{name}.npz")
        save_graph(graph, path)
        assert graph_fingerprint(load_graph(path)) == before

    @pytest.mark.parametrize("name", sorted(ZOO_BUILDERS))
    def test_json_wire_roundtrip_preserves_fingerprint(self, name):
        """The HTTP wire format (graph_to_dict through a real JSON encode)
        also preserves the fingerprint bit-for-bit."""
        graph = ZOO_BUILDERS[name]()
        wire = json.loads(json.dumps(graph_to_dict(graph)))
        assert graph_fingerprint(graph_from_dict(wire)) == graph_fingerprint(graph)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_dag_roundtrip(self, seed, tmp_path):
        graph = random_dag(seed, 23)
        path = str(tmp_path / "g.npz")
        save_graph(graph, path)
        assert graph_fingerprint(load_graph(path)) == graph_fingerprint(graph)


def _diamond(order: "list[str]"):
    """The same 4-node diamond built with nodes inserted in ``order``."""
    spec = {
        "in": (OpType.INPUT, 0.0, 64.0, 0.0),
        "left": (OpType.MATMUL, 5.0, 128.0, 256.0),
        "right": (OpType.RELU, 1.0, 128.0, 0.0),
        "out": (OpType.ADD, 2.0, 64.0, 0.0),
    }
    edges = [("in", "left"), ("in", "right"), ("left", "out"), ("right", "out")]
    b = GraphBuilder("diamond")
    ids = {}
    for name in order:
        op, c, o, p = spec[name]
        ids[name] = b.add_node(name, op, compute_us=c, output_bytes=o, param_bytes=p)
    for s, d in edges:
        b.add_edge(ids[s], ids[d])
    return b.build()


class TestInsertionOrderInvariance:
    def test_diamond_orders_agree(self):
        fps = {
            graph_fingerprint(_diamond(order))
            for order in (
                ["in", "left", "right", "out"],
                ["in", "right", "left", "out"],
                ["out", "in", "left", "right"],
            )
        }
        assert len(fps) == 1

    def test_graph_name_is_metadata(self):
        from repro.graphs.graph import CompGraph

        a = _diamond(["in", "left", "right", "out"])
        renamed = CompGraph(
            names=a.names,
            op_types=a.op_types,
            compute_us=a.compute_us,
            output_bytes=a.output_bytes,
            param_bytes=a.param_bytes,
            src=a.src,
            dst=a.dst,
            name="renamed",
        )
        assert graph_fingerprint(a) == graph_fingerprint(renamed)


class TestSensitivity:
    def test_attribute_change_changes_fingerprint(self):
        base = random_dag(3, 12)
        bumped = base.compute_us.copy()
        bumped[5] += 1e-9
        from repro.graphs.graph import CompGraph

        changed = CompGraph(
            names=base.names,
            op_types=base.op_types,
            compute_us=bumped,
            output_bytes=base.output_bytes,
            param_bytes=base.param_bytes,
            src=base.src,
            dst=base.dst,
            name=base.name,
        )
        assert graph_fingerprint(changed) != graph_fingerprint(base)

    def test_extra_edge_changes_fingerprint(self):
        a = _diamond(["in", "left", "right", "out"])
        b = GraphBuilder("diamond")
        ids = {}
        for name, (op, c, o, p) in {
            "in": (OpType.INPUT, 0.0, 64.0, 0.0),
            "left": (OpType.MATMUL, 5.0, 128.0, 256.0),
            "right": (OpType.RELU, 1.0, 128.0, 0.0),
            "out": (OpType.ADD, 2.0, 64.0, 0.0),
        }.items():
            ids[name] = b.add_node(name, op, compute_us=c, output_bytes=o, param_bytes=p)
        for s, d in [("in", "left"), ("in", "right"), ("left", "out"),
                     ("right", "out"), ("in", "out")]:
            b.add_edge(ids[s], ids[d])
        assert graph_fingerprint(b.build()) != graph_fingerprint(a)

    def test_node_rename_changes_fingerprint(self):
        a = random_dag(4, 10)
        from repro.graphs.graph import CompGraph

        renamed = CompGraph(
            names=tuple(["other"] + list(a.names[1:])),
            op_types=a.op_types,
            compute_us=a.compute_us,
            output_bytes=a.output_bytes,
            param_bytes=a.param_bytes,
            src=a.src,
            dst=a.dst,
            name=a.name,
        )
        assert graph_fingerprint(renamed) != graph_fingerprint(a)


class TestPlatformDescriptor:
    def test_legacy_none_equals_explicit_uniring(self):
        assert PlatformDescriptor.of(4) == PlatformDescriptor.of(4, UniRing(4))

    def test_distinct_platforms_distinct_tokens(self):
        descriptors = [
            PlatformDescriptor.of(4),
            PlatformDescriptor.of(6),
            PlatformDescriptor.of(4, BiRing(4)),
            PlatformDescriptor.of(4, Mesh2D(2, 2)),
            PlatformDescriptor.of(6, Mesh2D(2, 3)),
            PlatformDescriptor.of(6, Mesh2D(3, 2)),
            PlatformDescriptor.of(4, Crossbar(4)),
        ]
        tokens = {d.token() for d in descriptors}
        assert len(tokens) == len(descriptors)

    def test_chip_mismatch_rejected(self):
        with pytest.raises(ValueError, match="topology is for"):
            PlatformDescriptor.of(6, Mesh2D(2, 2))


class TestRequestFingerprint:
    def test_every_field_is_load_bearing(self):
        graph = random_dag(0, 10)
        base = dict(
            platform=PlatformDescriptor.of(4),
            objective="throughput",
            cost_model="analytical",
            samples=16,
            checkpoint=None,
        )
        reference = request_fingerprint(graph, **base)
        variants = [
            dict(base, platform=PlatformDescriptor.of(4, Mesh2D(2, 2))),
            dict(base, objective="latency"),
            dict(base, cost_model="simulator"),
            dict(base, samples=17),
            dict(base, checkpoint=("prod", 3)),
        ]
        fps = {request_fingerprint(graph, **v) for v in variants}
        assert reference not in fps and len(fps) == len(variants)

    def test_accepts_precomputed_graph_fingerprint(self):
        graph = random_dag(1, 8)
        platform = PlatformDescriptor.of(4)
        assert request_fingerprint(graph, platform) == request_fingerprint(
            graph_fingerprint(graph), platform
        )


def _twins(order: "list[str]"):
    """The twin-node graph of ``tests/serve/test_service.py``: ``in`` feeds
    two indistinguishable ``twin`` nodes that both feed ``out``, so the
    fingerprint takes its order-sensitive fallback."""
    spec = {
        "in": (OpType.INPUT, 0.0),
        "t1": (OpType.RELU, 1.0),
        "t2": (OpType.RELU, 1.0),
        "out": (OpType.MATMUL, 9.0),
    }
    b = GraphBuilder("twins")
    ids = {}
    for name in order:
        op, cost = spec[name]
        ids[name] = b.add_node(
            "twin" if name in ("t1", "t2") else name,
            op, compute_us=cost, output_bytes=32.0,
        )
    for s, d in [("in", "t1"), ("in", "t2"), ("t1", "out"), ("t2", "out")]:
        b.add_edge(ids[s], ids[d])
    return b.build()


def _one_node():
    b = GraphBuilder("single")
    b.add_node("only", OpType.MATMUL, compute_us=3.0, output_bytes=64.0,
               param_bytes=128.0)
    return b.build()


_GOLDEN_GRAPHS = {
    **ZOO_BUILDERS,
    "dag-0-10": lambda: random_dag(0, 10),
    "dag-7-23": lambda: random_dag(7, 23),
    "dag-42-40": lambda: random_dag(42, 40, edge_prob=0.1),
    "twins": lambda: _twins(["in", "t1", "t2", "out"]),
    "twins-permuted": lambda: _twins(["out", "in", "t1", "t2"]),
    "one-node": _one_node,
}

#: sha256 over ``fingerprint | canonical order as little-endian int64``
#: per graph.  Fingerprints key the ``--cache-dir`` journals and the
#: router's hash ring, so a change to any of these values must come with
#: a ``_FINGERPRINT_VERSION`` bump, never a silent re-record.
_GOLDEN = {
    "autoencoder": "ee3995d550af8422ccfea295d2de4f6f45bd225492862b5e15a611fbffebe457",
    "bert-small": "1494f54ec839f031b9b5a2cf55806286a3155a94a1d85e2f9b94581913924073",
    "cnn": "ec39ce483f056a0b6f326f210e13f7705e3ce8ae1e342d70dbea2168ac7eb44c",
    "dag-0-10": "3745380bd2d7dbe52d1130a5e77b4fb1fa7fc6f3f7c667420e4a9f171a3c764f",
    "dag-42-40": "b2fb8827e01cbc79ba433dfa731127aebb5952c49fe342bdc9b5ab611b3e9ea8",
    "dag-7-23": "0e5a8d813264c305815e83253758b0181360c9a772cd5dfe8fbf59fdfdd928f0",
    "decoder": "4428070e4fe8bc610be457f6a8398521f3ee45e9e4397c7720b43c42c8d97811",
    "gru": "bc6d862ed4b2d9c483b9b5e7736c515185583c920d99043f656031b9c767c964",
    "inception": "18b71ee43f953f3d2fb67d5480eaa708abc8d64b95603f4eee55cd837d44c82b",
    "lstm": "195528598e2986c5ffcb69e08b2863d74b497c69aa7ad0a108e7a08fd67d8f7d",
    "mlp": "b2cded9a99bbad5200eeec2df3b32780adfee42504c7b230ecc1a953c0b49d08",
    "mobilenet": "4c0655774c06f623c2aa7695c3ad67eaed08a2c5c53c8d001118e6525f7a4295",
    "one-node": "0ecba01bcef6940fd623c4875c676f470fd45ef97138d1e30eb2a20452325cad",
    "resnet": "42cf93805bdabf6765073cd56f6d5c95f0f67d19b40234c0bf55ad7642fbaafa",
    "twins": "0056e0dbffe15b972d7aaffc883f7bb6ade46aadc32d0bd4fbddd6446ca86c70",
    "twins-permuted": "e5ce7783dacabee37c76ae9f1f4245f1dae89b471ffc8fa5e56e374d09b9e530",
    "unet": "2d9f4fd1f682af8c7b26bcc536fd18851331f6931056fed6693414d2d0f13c58",
}


def _canonical_digest(graph) -> str:
    fp, order = canonical_form(graph)
    return hashlib.sha256(
        fp.encode("ascii") + b"|" + np.asarray(order, dtype="<i8").tobytes()
    ).hexdigest()


class TestGolden:
    def test_every_golden_graph_is_pinned(self):
        assert sorted(_GOLDEN) == sorted(_GOLDEN_GRAPHS)

    @pytest.mark.parametrize("name", sorted(_GOLDEN_GRAPHS))
    def test_canonical_form_matches_golden(self, name):
        """First call and repeat (a memo hit) both give the pinned bits."""
        graph = _GOLDEN_GRAPHS[name]()
        assert _canonical_digest(graph) == _GOLDEN[name]
        assert _canonical_digest(graph) == _GOLDEN[name]
