"""Stdlib HTTP/JSON endpoint over :class:`PartitionService`.

Endpoints
---------
``POST /partition``
    Body: a JSON request (see :func:`request_from_payload`).  The graph is
    either a zoo name (string, resolved server-side) or an inline
    :func:`repro.graphs.serialization.graph_to_dict` dict.  Reply: the
    partition, its improvement, and cache provenance.
``GET /metrics``
    The service metrics snapshot (hit rate, per-source p50/p95/p99
    latency, requests served).  ``?format=prometheus`` renders the same
    registry as Prometheus text exposition.
``GET /healthz``
    Readiness probe: shard id, uptime, registry version count, in-flight
    load, registry reachability, recent degraded-serve count; 503 when
    saturated or the configured registry root is unreachable (alive but
    unable to take work).

Tracing: when the service was built with ``trace_dir``, every ``POST
/partition`` opens a trace (adopting the client's ``X-Repro-Trace`` id
when the header is present — such requests are always sampled) and echoes
the trace id back in the same header for correlation with the JSONL sink.

The server is a ``ThreadingHTTPServer``; the service underneath serialises
submissions with its own lock, so concurrent clients are safe.  Client-side
helpers (:func:`request_partition`, :func:`fetch_metrics`) wrap ``urllib``
so the CLI's ``repro request`` needs no third-party HTTP stack.

Backpressure & retries: the service's admission gate surfaces here as HTTP
429 with a ``Retry-After`` header (503 is reserved for the server's own
shutdown window).  The client helpers take a ``retries`` budget and back
off exponentially with jitter on 429/503/connection failures, honouring
``Retry-After`` — so a burst against a bounded server drains instead of
failing, without a thundering-herd retry spike.
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np

from repro.graphs.serialization import graph_from_dict
from repro.obs.trace import TRACE_HEADER, activate, deactivate
from repro.hardware.topology import make_topology
from repro.serve.service import (
    PartitionRequest,
    PartitionService,
    ServiceError,
    ServiceOverloadError,
)

#: Client-helper defaults: fail fast (a minute, not ten) and retry twice.
DEFAULT_TIMEOUT_S = 60.0
DEFAULT_RETRIES = 2
_BACKOFF_BASE_S = 0.25
_BACKOFF_CAP_S = 4.0

#: Upper bound on an inline-graph request body (a graph_to_dict of a
#: 100k-node graph is ~20 MB; anything bigger is a framing error or abuse).
_MAX_BODY_BYTES = 64 * 2**20


def request_from_payload(
    payload: dict, graph_resolver=None
) -> PartitionRequest:
    """Build a :class:`PartitionRequest` from a JSON payload.

    Payload keys: ``graph`` (zoo name string or inline graph dict),
    ``chips``, ``topology`` (+ ``mesh_dims``), ``objective``, ``platform``
    (``analytical``/``simulator``), ``samples``, ``checkpoint``,
    ``checkpoint_version``.  ``graph_resolver`` maps name strings to
    :class:`CompGraph` (the CLI passes the zoo table; inline dicts always
    work).  Every rejection is a :class:`ServiceError` (HTTP 422),
    including a graph with no nodes or a non-finite ``compute_us``,
    ``output_bytes`` or ``param_bytes`` value.
    """
    spec = payload.get("graph")
    if isinstance(spec, str):
        if graph_resolver is None:
            raise ServiceError(
                "this server only accepts inline graphs; send a "
                "graph_to_dict payload instead of a name"
            )
        try:
            graph = graph_resolver(spec)
        except (KeyError, SystemExit, OSError, ValueError):
            # Whatever the resolver rejects — unknown name, or a
            # path-shaped probe it refuses to read — is the client's
            # problem, reported as a 422, never a dropped connection.
            raise ServiceError(f"unknown graph {spec!r}") from None
    elif isinstance(spec, dict):
        try:
            graph = graph_from_dict(spec)
        except (KeyError, ValueError, TypeError) as exc:
            raise ServiceError(f"bad inline graph: {exc}") from None
    else:
        raise ServiceError("payload must carry 'graph' (name or inline dict)")
    # A graph no search can run on is the client's error: a 422 here,
    # never a 500 that the router would count against a healthy shard.
    if graph.n_nodes == 0:
        raise ServiceError("graph has no nodes")
    for attr in ("compute_us", "output_bytes", "param_bytes"):
        if not np.isfinite(getattr(graph, attr)).all():
            raise ServiceError(f"graph {attr} must be finite")

    try:
        n_chips = int(payload.get("chips", 4))
    except (TypeError, ValueError):
        raise ServiceError(f"bad chips value {payload.get('chips')!r}") from None
    topology = None
    topo_name = payload.get("topology")
    if payload.get("mesh_dims") is not None and topo_name != "mesh":
        # Same contract as the CLI (`--mesh-dims applies to --topology
        # mesh only`): silently ignoring the dims would hand back a
        # partition for a platform the client didn't ask for.
        raise ServiceError("mesh_dims applies to topology 'mesh' only")
    if topo_name is not None and topo_name != "uniring":
        try:
            topology = make_topology(
                topo_name, n_chips, payload.get("mesh_dims")
            )
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            # Whatever shape of junk arrived in topology/mesh_dims: a 422,
            # never a crashed handler.
            raise ServiceError(
                f"bad topology spec: {exc or type(exc).__name__}"
            ) from None
    samples = payload.get("samples")
    version = payload.get("checkpoint_version")
    return PartitionRequest(
        graph=graph,
        n_chips=n_chips,
        topology=topology,
        objective=str(payload.get("objective", "throughput")),
        cost_model=str(payload.get("platform", "analytical")),
        samples=None if samples is None else int(samples),
        checkpoint=payload.get("checkpoint"),
        version=None if version is None else int(version),
    )


def response_to_payload(response) -> dict:
    """JSON-safe dict form of a :class:`PartitionResponse`."""
    return {
        "fingerprint": response.fingerprint,
        "assignment": response.assignment.tolist(),
        "improvement": response.improvement,
        "objective": response.objective,
        "cached": response.cached,
        "source": response.source,
        "latency_ms": response.latency_ms,
        "samples": response.samples,
        "chips": response.n_chips,
        "checkpoint": (
            None
            if response.checkpoint is None
            else {
                "name": response.checkpoint[0],
                "version": response.checkpoint[1],
            }
        ),
        "throughput": response.throughput,
        "latency_us": response.latency_us,
        "degraded": response.degraded,
        "degraded_reason": response.degraded_reason,
    }


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's service; JSON in, JSON out."""

    server_version = "repro-serve/1"

    def _reply(
        self, code: int, payload: dict, headers: "dict | None" = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _drop_fault(self) -> bool:
        """Injected connection drop (chaos tests of the client's retry
        path): close the socket without a reply, like a crashed peer."""
        plan = getattr(self.server, "fault_plan", None)
        if plan is None or plan.fire("server", "drop", (self.path,)) is None:
            return False
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        return True

    def log_message(self, fmt, *args):  # pragma: no cover - quiet by default
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    def do_GET(self) -> None:
        if self._drop_fault():
            return
        split = urllib.parse.urlsplit(self.path)
        if split.path == "/metrics":
            fmt = urllib.parse.parse_qs(split.query).get("format", [""])[0]
            if fmt == "prometheus":
                self._reply_text(200, self.server.service.prometheus())
            else:
                self._reply(200, self.server.service.metrics())
        elif split.path == "/healthz":
            # Readiness, not just liveness: 503 when the service is alive
            # but cannot usefully take work (admission gate full, or a
            # configured checkpoint registry has gone unreachable), so
            # routers/orchestrators can drain it instead of timing out.
            ready, payload = self.server.service.health()
            self._reply(200 if ready else 503, payload)
        else:
            self._reply(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:
        if self._drop_fault():
            return
        if urllib.parse.urlsplit(self.path).path != "/partition":
            self._reply(404, {"error": f"unknown path {self.path!r}"})
            return
        # One trace per POST when the service has tracing configured: a
        # client-supplied X-Repro-Trace id is adopted (and forces
        # sampling), otherwise a fresh id is minted; either way the id is
        # echoed back in the same header so the reply correlates with the
        # JSONL sink.
        tracer = self.server.service.tracer
        trace = (
            tracer.start(trace_id=self.headers.get(TRACE_HEADER))
            if tracer.enabled
            else None
        )
        echo = {} if trace is None else {TRACE_HEADER: trace.trace_id}
        # Only pay for span recording when the trace can actually be kept:
        # an unsampled trace with no slow-force threshold is write-never,
        # so the service path stays on the shared no-op span.
        record = trace is not None and (trace.sampled or tracer.slow_ms > 0)
        token = activate(trace) if record else None
        status = 200
        try:
            try:
                length = int(self.headers.get("Content-Length", 0))
                # Never trust the client's framing: a negative length would
                # turn read() into read-until-EOF (a thread wedged on a held
                # connection), an absurd one into unbounded buffering.
                if length < 0:
                    status = 400
                    self._reply(400, {"error": "bad Content-Length"}, headers=echo)
                    return
                if length > _MAX_BODY_BYTES:
                    status = 413
                    self._reply(
                        413,
                        {"error": f"request body over {_MAX_BODY_BYTES} bytes"},
                        headers=echo,
                    )
                    return
                payload = json.loads(self.rfile.read(length) or b"{}")
                request = request_from_payload(
                    payload, graph_resolver=self.server.graph_resolver
                )
                # Client source id for per-source rate limiting: an explicit
                # header wins (routers/proxies forward the original client);
                # otherwise the peer address identifies the source.
                source = self.headers.get("X-Repro-Source") or self.client_address[0]
                response = self.server.service.submit(request, source=source)
            except ServiceOverloadError as exc:
                # Structured backpressure, not a failure: the client helpers
                # sleep Retry-After (± backoff) and resubmit.
                status = 429
                self._reply(
                    429,
                    {"error": str(exc), "retry_after_s": exc.retry_after},
                    headers={
                        "Retry-After": f"{max(exc.retry_after, 0):g}", **echo
                    },
                )
                return
            except ServiceError as exc:
                status = 422
                self._reply(422, {"error": str(exc)}, headers=echo)
                return
            except (json.JSONDecodeError, ValueError, TypeError) as exc:
                status = 400
                self._reply(400, {"error": f"bad request: {exc}"}, headers=echo)
                return
            except Exception as exc:  # noqa: BLE001 - last-resort: a handler
                # crash must surface as an HTTP error, not a dropped connection.
                status = 500
                self._reply(500, {"error": f"internal error: {exc!r}"}, headers=echo)
                return
            self._reply(200, response_to_payload(response), headers=echo)
        finally:
            deactivate(token)
            if trace is not None:
                tracer.finish(trace, status=status)


class PartitionServer:
    """A :class:`ThreadingHTTPServer` bound to one service.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    construction.  ``start()`` serves in a daemon thread (tests, CLI
    foreground mode calls :meth:`serve_forever` directly).
    ``threaded=False`` switches to a single-threaded ``HTTPServer`` whose
    :meth:`handle_request` fully serves one request before returning — the
    right mode for bounded ``--max-requests`` smoke runs, where a threaded
    accept loop could exit before an in-flight handler thread replies.
    """

    def __init__(
        self,
        service: PartitionService,
        host: str = "127.0.0.1",
        port: int = 0,
        graph_resolver=None,
        verbose: bool = False,
        threaded: bool = True,
        fault_plan=None,
    ):
        self.service = service
        server_cls = ThreadingHTTPServer if threaded else HTTPServer
        self._httpd = server_cls((host, port), _Handler)
        self._httpd.service = service
        self._httpd.graph_resolver = graph_resolver
        self._httpd.verbose = verbose
        # The HTTP layer shares the service's plan unless given its own
        # (the ``server``-site drop faults are consulted per request).
        self._httpd.fault_plan = (
            fault_plan if fault_plan is not None else service.config.fault_plan
        )
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def start(self) -> "PartitionServer":
        """Serve in a background daemon thread; returns self."""
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._httpd.serve_forever()

    def handle_request(self) -> None:
        """Serve exactly one request (the CLI's ``--max-requests`` loop)."""
        self._httpd.handle_request()

    def shutdown(self) -> None:
        """Stop serving and release the socket; idempotent."""
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "PartitionServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Client helpers
# ----------------------------------------------------------------------
_RETRYABLE_CODES = (429, 503)


def _backoff_s(attempt: int, retry_after: "float | None") -> float:
    """Capped exponential backoff with full jitter (AWS-style).

    A server-supplied ``Retry-After`` is a *floor* — backing off less
    than the server asked for would just earn another 429."""
    delay = min(_BACKOFF_BASE_S * (2 ** attempt), _BACKOFF_CAP_S)
    delay *= 0.5 + random.random() * 0.5
    if retry_after is not None:
        delay = max(delay, retry_after)
    return delay


def _http_json(
    url: str,
    data: "bytes | None" = None,
    timeout: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    source: "str | None" = None,
    trace_id: "str | None" = None,
) -> dict:
    """One JSON round trip with bounded retries.

    Retried: 429/503 replies (honouring ``Retry-After``) and transport
    failures where no reply arrived at all (connection refused/reset,
    socket timeout) — these are either explicit backpressure or ambiguous
    network loss, and every server endpoint is idempotent (a retried
    search is answered from cache or recomputed bit-identically).  Any
    other HTTP error is a real answer and raises immediately."""
    last_error: "Exception | None" = None
    for attempt in range(int(retries) + 1):
        headers = {"Content-Type": "application/json"} if data else {}
        if source is not None:
            headers["X-Repro-Source"] = str(source)
        if trace_id is not None:
            headers[TRACE_HEADER] = str(trace_id)
        req = urllib.request.Request(url, data=data, headers=headers)
        retry_after: "float | None" = None
        try:
            with urllib.request.urlopen(req, timeout=timeout) as resp:
                return json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except (ValueError, OSError):
                detail = ""
            error = ServiceError(
                f"server replied {exc.code}: {detail or exc.reason}"
            )
            if exc.code not in _RETRYABLE_CODES:
                raise error from None
            try:
                retry_after = float(exc.headers.get("Retry-After"))
            except (TypeError, ValueError):
                retry_after = None
            last_error = error
        except (
            urllib.error.URLError,
            http.client.HTTPException,
            ConnectionError,
            TimeoutError,
            socket.timeout,
            OSError,
        ) as exc:
            last_error = ServiceError(f"request to {url} failed: {exc}")
        if attempt < retries:
            time.sleep(_backoff_s(attempt, retry_after))
    raise last_error from None


def request_partition(
    payload: dict,
    host: str = "127.0.0.1",
    port: int = 8080,
    timeout: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    source: "str | None" = None,
    trace_id: "str | None" = None,
) -> dict:
    """POST one request payload to a running server; returns the reply.

    Fails fast (``timeout`` seconds, default 60) and retries
    429/503/connection loss with jittered exponential backoff —
    resubmission is safe because serving is deterministic and cached.
    ``source`` sets the ``X-Repro-Source`` header, the client identity the
    server's per-source rate limiter keys on (defaults to peer address);
    ``trace_id`` sets ``X-Repro-Trace`` so a tracing-enabled server
    force-samples this request under the given id."""
    return _http_json(
        f"http://{host}:{port}/partition",
        data=json.dumps(payload).encode("utf-8"),
        timeout=timeout,
        retries=retries,
        source=source,
        trace_id=trace_id,
    )


def fetch_metrics(
    host: str = "127.0.0.1",
    port: int = 8080,
    timeout: float = 60.0,
    retries: int = DEFAULT_RETRIES,
) -> dict:
    """GET the server's metrics snapshot."""
    return _http_json(
        f"http://{host}:{port}/metrics", timeout=timeout, retries=retries
    )
