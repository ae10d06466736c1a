"""Serving workloads: the real ``python -m repro route`` / ``repro serve``
processes, driven over HTTP from this process.

* ``serve_hot`` — ``repro route`` with its defaults (2 shards, replication
  2, hedging on).  Set-up publishes a checkpoint and requests each of the
  16 test graphs once; measurement is then all cache hits: rounds of an
  **open loop** of Zipf(1.1)-popular repeats at a reference rate (latency
  timed from when each request was due) and a closed-loop saturation
  phase whose completion rate is ``throughput``.
* ``serve_cold`` — ``repro serve --workers 2``, the CLI's single-threaded
  server with a replay pool forked per miss.  A **closed loop** of 2
  connections sends only misses: each request is a content-perturbed copy
  of a test graph of at most 100 nodes, in seed-shuffled order, so the
  default 256-entry cache fills and evicts.

Both deployments serve the same published checkpoint for every seed; the
seed draws the traffic.

The load generator uses 2 threads with one connection each, the core
count of the reference box.  A traced run repeats the measurement on a
second deployment started with ``--trace-dir D --trace-sample 1.0`` and
reads the per-layer numbers from the span files the servers write; the
first, untraced pass supplies the baseline for the tracing overhead, the
final ``/metrics`` counters, and (``serve_hot``) the open-loop rate steps.
"""

from __future__ import annotations

import collections
import http.client
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from suite_common import (
    ROOT,
    SRC,
    BootError,
    Run,
    descendants,
    geomean,
    overhead_pct,
    peak_rss_mb,
    percentile,
    perturbed,
    reply_failure,
    timed_setups,
)

from repro.core.partitioner import RLPartitioner
from repro.graphs.serialization import graph_to_dict
from repro.graphs.zoo import build_dataset
from repro.obs.trace import TRACE_HEADER
from repro.serve import CheckpointRegistry
from repro.serve.registry import default_serving_config

N_CHIPS = 4
CHECKPOINT = "bench"
#: Policy seed of the published checkpoint.  The checkpoint belongs to the
#: deployment, not to the traffic: an untrained policy's seed moves miss
#: cost by up to 2x, so the workload seed draws only the requests.
CHECKPOINT_SEED = 0
N_CONNECTIONS = 2
BOOT_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0

#: serve_hot open loop: the reference rate, the rate steps of a traced
#: run, and what a step must meet to count towards ``bench.max_rps``.
REFERENCE_RPS = 120.0
STEP_RPS = (60.0, 180.0, 240.0, 300.0)
ZIPF_EXPONENT = 1.1
P99_LIMIT_MS = 25.0
GEN_LAG_LIMIT_MS = 5.0

#: serve_cold sends copies of the test graphs up to this size: the solver
#: cost of the two larger LSTM graphs varies 3x between copies, which
#: would make the tail a lottery over a few requests.
COLD_MAX_NODES = 100

#: Shares of ``--seconds`` per serve_hot phase.
REFERENCE_SHARE = 0.5
SATURATION_SHARE = 0.5
STEP_SHARE = 0.15

#: Span name -> layer metric prefix; every ``admission.*`` span counts as
#: ``serve.admission``.
SPAN_LAYERS = {
    "router.routing": "serve.router.routing",
    "router.attempt": "serve.router.attempt",
    "fingerprint": "serve.fingerprint",
    "cache.lookup": "serve.cache_lookup",
    "assignment.remap": "serve.remap",
    "search.replay_batch": "parallel.replay_batch",
    "checkpoint.install": "serve.registry.checkpoint_install",
}
LAYERS = tuple(SPAN_LAYERS.values()) + ("serve.admission",)


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------
def _group_alive(pgid: int) -> bool:
    """Whether any non-zombie process of process group ``pgid`` exists."""
    try:
        pids = [p for p in os.listdir("/proc") if p.isdigit()]
    except OSError:
        try:
            os.killpg(pgid, 0)
            return True
        except ProcessLookupError:
            return False
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            return True
    return False


def _stop_group(pgid: int, grace_s: float) -> None:
    """Wait for process group ``pgid`` to exit; SIGKILL it after
    ``grace_s``; return once no member is left running."""
    for sig in (None, signal.SIGKILL):
        if sig is not None:
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                return
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if not _group_alive(pgid):
                return
            time.sleep(0.05)


class Deployment:
    """One ``python -m repro serve|route`` process group on ephemeral ports.

    The process (and, for ``route``, its shard children) runs in its own
    session so :meth:`close` can stop the whole group: SIGINT first, which
    lets every server flush its trace sink, then SIGKILL for anything
    still running, and it returns only once the group is gone.
    """

    def __init__(self, kind: str, workdir: Path, trace_dir=None):
        self.kind = kind
        workdir.mkdir(parents=True)
        registry = workdir / "registry"
        CheckpointRegistry(str(registry)).publish_partitioner(
            CHECKPOINT,
            RLPartitioner(N_CHIPS, config=default_serving_config(), rng=CHECKPOINT_SEED),
        )
        argv = [sys.executable, "-m", "repro", kind, "--port", "0",
                "--registry", str(registry)]
        if kind == "serve":
            argv += ["--workers", "2"]
        if trace_dir is not None:
            argv += ["--trace-dir", str(trace_dir), "--trace-sample", "1.0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
        )
        self._log = open(workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log,
            start_new_session=True,
        )
        try:
            # "serving on host:port", then for route "shard sN on host:port".
            lines = self._announcements(3 if kind == "route" else 1)
            ports = [int(line.rpartition(":")[2]) for line in lines]
        except (BootError, ValueError) as exc:
            self.close()
            raise BootError(f"repro {kind} did not boot: {exc}") from exc
        self.port = ports[0]
        self.shard_ports = ports[1:] or ports[:1]

    def _announcements(self, count: int) -> "list[str]":
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        buf = b""
        while buf.count(b"\n") < count:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BootError(f"repro {self.kind} did not announce within "
                                f"{BOOT_TIMEOUT_S:g}s")
            ready, _, _ = select.select([fd], [], [], min(left, 0.25))
            if not ready:
                if self.proc.poll() is not None:
                    raise BootError(f"repro {self.kind} exited with code "
                                    f"{self.proc.returncode} before announcing")
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BootError(f"repro {self.kind} closed stdout before announcing")
            buf += chunk
        return buf.decode("utf-8", "replace").splitlines()[:count]

    def pids(self) -> "list[int]":
        return [self.proc.pid] + descendants(self.proc.pid)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
        _stop_group(self.proc.pid, grace_s=10.0)
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# ----------------------------------------------------------------------
# HTTP client and load generators
# ----------------------------------------------------------------------
def post(port: int, body: bytes, trace_id: "str | None" = None) -> "tuple[int, bytes]":
    """One ``POST /partition``: ``(status, body)``, status 0 on a transport
    error.  A fresh connection per request, as the HTTP/1.0 servers close
    each one after replying."""
    headers = {"Content-Type": "application/json"}
    if trace_id is not None:
        headers[TRACE_HEADER] = trace_id
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", "/partition", body, headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def get_json(port: int, path: str) -> dict:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


@dataclass
class Sample:
    """One request: which catalog item, when it was due, when its sender
    was free, when it went out and came back, and the reply."""

    item: int
    due: float
    free: float
    sent: float
    done: float
    status: int
    body: bytes
    trace_id: "str | None"

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent (closed loop)."""
        return (self.done - self.due) * 1e3

    @property
    def gen_lag_ms(self) -> float:
        """Lateness of the generator itself: sent after both its due time
        and the moment its sender thread became free."""
        return max(0.0, self.sent - max(self.due, self.free)) * 1e3


def _run_senders(target) -> None:
    threads = [threading.Thread(target=target, daemon=True) for _ in range(N_CONNECTIONS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def open_loop(port: int, bodies, items, rate: float, tag: "str | None") -> "list[Sample]":
    """Send ``items[k]`` at ``start + k / rate`` whatever the replies do.

    Each sender claims the next due time; ``next()`` on an
    ``itertools.count`` is one C call, so the claim is atomic.
    """
    samples: "list[Sample | None]" = [None] * len(items)
    counter = itertools.count()
    start = time.perf_counter() + 0.02

    def sender() -> None:
        free = start
        while (k := next(counter)) < len(items):
            due = start + k / rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            trace_id = None if tag is None else f"{tag}-{k}"
            sent = time.perf_counter()
            status, body = post(port, bodies[items[k]], trace_id)
            done = time.perf_counter()
            samples[k] = Sample(items[k], due, free, sent, done, status, body, trace_id)
            free = done

    _run_senders(sender)
    return samples


def closed_loop(port: int, request_for, seconds: float, tag: "str | None",
                counter) -> "tuple[list[Sample], float]":
    """Each connection sends its next request as soon as the previous one
    is answered, for ``seconds``; request ``k`` is ``request_for(k)`` with
    ``k`` drawn from the shared ``itertools.count``.  Returns the samples
    and the wall time from the first send to the last reply."""
    samples: "list[Sample]" = []
    start = time.perf_counter()
    end = start + seconds

    def sender() -> None:
        while time.perf_counter() < end:
            k = next(counter)
            item, body = request_for(k)
            trace_id = None if tag is None else f"{tag}-{k}"
            sent = time.perf_counter()
            status, reply = post(port, body, trace_id)
            done = time.perf_counter()
            samples.append(Sample(item, sent, sent, sent, done, status, reply, trace_id))

    _run_senders(sender)
    elapsed = max(s.done for s in samples) - start if samples else seconds
    return samples, elapsed


# ----------------------------------------------------------------------
# Per-layer readings
# ----------------------------------------------------------------------
def _self_times(spans) -> "list[tuple[str, float]]":
    """``(name, self ms)`` per span: its duration minus the part of its
    interval that its child spans cover."""
    children = collections.defaultdict(list)
    for sp in spans:
        if sp.get("parent_id") is not None and sp.get("dur_ms") is not None:
            children[sp["parent_id"]].append((sp["start_ms"], sp["start_ms"] + sp["dur_ms"]))
    out = []
    for sp in spans:
        if sp.get("dur_ms") is None:
            continue
        lo, hi = sp["start_ms"], sp["start_ms"] + sp["dur_ms"]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get(sp["span_id"], ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((sp["name"], sp["dur_ms"] - covered))
    return out


def trace_metrics(trace_dir: Path, client_ms: "dict[str, float]") -> dict:
    """Span counts and self times per layer from every ``trace-*.jsonl``,
    plus the median of client latency minus the shard's own request span
    (time spent queueing and on the wire)."""
    self_ms = collections.defaultdict(list)
    shard_request_ms: "dict[str, float]" = {}
    for path in sorted(trace_dir.glob("trace-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                try:
                    trace = json.loads(line)
                except ValueError:
                    continue  # a line torn by the server's shutdown
                for name, ms in _self_times(trace["spans"]):
                    layer = "serve.admission" if name.startswith("admission.") else SPAN_LAYERS.get(name)
                    if layer is not None:
                        self_ms[layer].append(ms)
                if trace.get("service") != "router" and trace.get("dur_ms") is not None:
                    tid = trace["trace_id"]
                    # With hedging two shards answer one id; the faster won.
                    shard_request_ms[tid] = min(shard_request_ms.get(tid, float("inf")), trace["dur_ms"])
    metrics = {}
    for layer in LAYERS:
        values = self_ms.get(layer, [])
        metrics[f"{layer}.count"] = len(values)
        metrics[f"{layer}.self_ms_p50"] = percentile(values, 50)
        metrics[f"{layer}.self_ms_total"] = float(sum(values))
    queue = [ms - shard_request_ms[t] for t, ms in client_ms.items() if t in shard_request_ms]
    metrics["serve.http_queue_ms_p50"] = percentile(queue, 50)
    return metrics


def counter_metrics(dep: Deployment) -> dict:
    """Cache, admission and router counters from the final ``/metrics``."""
    hits = misses = evictions = throttled = 0
    for port in dep.shard_ports:
        snap = get_json(port, "/metrics")
        hits += snap["cache"]["hits"]
        misses += snap["cache"]["misses"]
        evictions += snap["cache"]["evictions"]
        throttled += snap["reliability"]["throttled"]
    out = {
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.evictions": evictions,
        "serve.reliability.throttled": throttled,
    }
    if dep.kind == "route":
        snap = get_json(dep.port, "/metrics")
        fired = snap["hedges_fired"]
        out["serve.router.hedges_fired"] = fired
        out["serve.router.hedge_win_ratio"] = snap["hedge_wins"] / fired if fired else 0.0
        out["serve.router.failovers"] = snap["failovers"]
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class _Catalog:
    """The 16 test graphs of ``build_dataset(seed=0)`` and their request
    bodies, encoded once."""

    def __init__(self) -> None:
        self.graphs = list(build_dataset(seed=0).test)
        self.bodies = [self.body(g) for g in self.graphs]

    @staticmethod
    def body(graph) -> bytes:
        return json.dumps(
            {"graph": graph_to_dict(graph), "chips": N_CHIPS, "checkpoint": CHECKPOINT}
        ).encode("utf-8")


class _Serving:
    """State shared by the passes of one serve run."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.catalog = _Catalog()
        self.references: "dict[int, dict]" = {}
        self._n_deployments = 0

    def deploy(self, kind: str, trace_dir=None) -> Deployment:
        self._n_deployments += 1
        workdir = self.run.workdir / f"deployment{self._n_deployments}"
        return Deployment(kind, workdir, trace_dir)

    def check(self, samples) -> None:
        """Tally every reply; hits must equal the item's first answer."""
        for s in samples:
            graph = self.catalog.graphs[s.item]
            reason, _ = reply_failure(
                s.status, s.body, graph, N_CHIPS, self.references.get(s.item)
            )
            self.run.tally.record(reason)

    def warm_catalog(self, port: int) -> None:
        """Request every catalog graph once.  The first deployment's
        answers, each checked by the validator, become the references that
        every later hit, and every later deployment's answer, must equal
        (the same checkpoint and service seed give the same bits)."""
        for i, body in enumerate(self.catalog.bodies):
            status, reply = post(port, body)
            reason, parsed = reply_failure(
                status, reply, self.catalog.graphs[i], N_CHIPS, self.references.get(i)
            )
            self.run.tally.record(reason)
            if reason is None and i not in self.references:
                self.references[i] = {
                    "assignment": parsed["assignment"],
                    "improvement": parsed["improvement"],
                }


def _zipf_items(seed: int, phase: int, n: int, n_items: int) -> "list[int]":
    """``n`` catalog indices, Zipf-popular by catalog position; the seed
    draws the sequence, the popularity ranking is fixed (so the payload
    sizes of the hot set are the same for every seed)."""
    weights = 1.0 / np.arange(1, n_items + 1) ** ZIPF_EXPONENT
    rng = np.random.default_rng([seed, phase])
    return rng.choice(n_items, size=n, p=weights / weights.sum()).tolist()


def _step_passes(samples) -> bool:
    """A rate step counts when it is valid (generator lag p99 within
    ``GEN_LAG_LIMIT_MS``), every request succeeded, p99 latency is within
    ``P99_LIMIT_MS``, and no backlog built up over the step."""
    if percentile([s.gen_lag_ms for s in samples], 99) > GEN_LAG_LIMIT_MS:
        return False
    if any(s.status != 200 for s in samples):
        return False
    if percentile([s.latency_ms for s in samples], 99) > P99_LIMIT_MS:
        return False
    quarter = max(len(samples) // 4, 1)
    backlog = [max(0.0, s.free - s.due) * 1e3 for s in samples]
    return np.mean(backlog[-quarter:]) <= np.mean(backlog[:quarter]) + 1.0


def _latencies(samples) -> "list[float]":
    return [s.latency_ms for s in samples]


def _hot(run: Run) -> dict:
    """serve_hot.  The measurement is ``run.rounds`` rounds of a reference
    open-loop step and a saturation phase; ``throughput`` is the rate over
    all saturation phases, ``p50_ms`` and ``tail_ms`` (p99) are over every
    reference request."""
    serving = _Serving(run)
    bodies = serving.catalog.bodies
    n_items = len(bodies)
    ref_n = max(int(REFERENCE_RPS * REFERENCE_SHARE * run.seconds / run.rounds), 10)
    sat_s = SATURATION_SHARE * run.seconds / run.rounds

    def setup() -> Deployment:
        dep = serving.deploy("route")
        try:
            serving.warm_catalog(dep.port)
            warm = _zipf_items(run.seed, 0, 32, n_items)
            serving.check(open_loop(dep.port, bodies, warm, REFERENCE_RPS, None))
        except BaseException:
            dep.close()
            raise
        return dep

    def reference(dep: Deployment, rnd: int, tag=None) -> "list[Sample]":
        items = _zipf_items(run.seed, 1 + rnd, ref_n, n_items)
        samples = open_loop(dep.port, bodies, items, REFERENCE_RPS, tag)
        serving.check(samples)
        return samples

    def saturation(dep: Deployment, rnd: int) -> "tuple[int, float]":
        items = _zipf_items(run.seed, 100 + rnd, 100_000, n_items)
        samples, elapsed = closed_loop(
            dep.port, lambda k: (items[k], bodies[items[k]]), sat_s, None,
            itertools.count(),
        )
        serving.check(samples)
        return len(samples), elapsed

    if not run.trace:
        dep, setup_times = timed_setups(setup, Deployment.close, run.setup_repeats)
        try:
            refs, saturated = [], []
            for rnd in range(run.rounds):
                refs.append(reference(dep, rnd))
                saturated.append(saturation(dep, rnd))
            rss = peak_rss_mb(dep.pids())
        finally:
            dep.close()
        return {
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": rss,
            "throughput": sum(n for n, _ in saturated) / sum(e for _, e in saturated),
            "p50_ms": percentile([ms for r in refs for ms in _latencies(r)], 50),
            "tail_ms": percentile([ms for r in refs for ms in _latencies(r)], 99),
            "improvement": geomean(r["improvement"] for r in serving.references.values()),
            "ok_ratio": run.tally.ok_ratio,
        }

    dep = setup()
    try:
        untraced = [s for rnd in range(run.rounds) for s in reference(dep, rnd)]
        max_rps = 0.0
        for i, rate in enumerate(STEP_RPS):
            n = max(int(rate * STEP_SHARE * run.seconds), 10)
            step = open_loop(dep.port, bodies, _zipf_items(run.seed, 200 + i, n, n_items),
                             rate, None)
            serving.check(step)
            if _step_passes(step):
                max_rps = max(max_rps, rate)
        metrics = counter_metrics(dep)
    finally:
        dep.close()
    trace_dir = run.workdir / "traces"
    dep = serving.deploy("route", trace_dir)
    try:
        serving.warm_catalog(dep.port)
        traced = [s for rnd in range(run.rounds) for s in reference(dep, rnd, f"hot{rnd}")]
        time.sleep(0.3)  # the trace writers drain every 50 ms
    finally:
        dep.close()
    metrics.update(trace_metrics(trace_dir, {s.trace_id: (s.done - s.sent) * 1e3 for s in traced}))
    metrics["bench.max_rps"] = max_rps
    metrics["bench.gen_lag_p99_ms"] = percentile([s.gen_lag_ms for s in untraced], 99)
    metrics["obs.tracing_overhead_pct"] = overhead_pct(
        percentile(_latencies(traced), 50), percentile(_latencies(untraced), 50)
    )
    return metrics


def _cold(run: Run) -> dict:
    """serve_cold.  ``run.rounds`` closed-loop rounds on one deployment;
    ``throughput``, ``p50_ms`` and ``tail_ms`` (p95) are over every
    request."""
    serving = _Serving(run)
    graphs = serving.catalog.graphs
    rng = np.random.default_rng(run.seed)
    # Each block of requests is a seed-shuffled permutation of the catalog
    # graphs up to COLD_MAX_NODES, so every run sends the same mix.
    small = [i for i, g in enumerate(graphs) if g.n_nodes <= COLD_MAX_NODES]
    items = np.concatenate([rng.permutation(small) for _ in range(10_000)])

    def request_for(k: int) -> "tuple[int, bytes]":
        # Distinct content per request: every request misses.
        item = int(items[k])
        return item, _Catalog.body(perturbed(graphs[item], k + 1))

    def setup() -> Deployment:
        dep = serving.deploy("serve")
        try:
            # The cold first request builds the warm partitioner and loads
            # the checkpoint; with it set-up ends.
            status, reply = post(dep.port, serving.catalog.bodies[0])
            run.tally.record(reply_failure(status, reply, graphs[0], N_CHIPS)[0])
        except BaseException:
            dep.close()
            raise
        return dep

    def rounds(dep: Deployment, tag=None) -> "list[tuple[list[Sample], float]]":
        counter = itertools.count()
        out = []
        for _ in range(run.rounds):
            samples, elapsed = closed_loop(
                dep.port, request_for, run.seconds / run.rounds, tag, counter
            )
            serving.check(samples)
            out.append((samples, elapsed))
        return out

    if not run.trace:
        dep, setup_times = timed_setups(setup, Deployment.close, run.setup_repeats)
        try:
            measured = rounds(dep)
            rss = peak_rss_mb(dep.pids())
        finally:
            dep.close()
        samples = [s for chunk, _ in measured for s in chunk]
        improvements = []
        for s in samples:
            if s.status == 200:
                reply = json.loads(s.body)
                if not reply.get("degraded"):
                    improvements.append(reply["improvement"])
        return {
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": rss,
            "throughput": len(samples) / sum(e for _, e in measured),
            "p50_ms": percentile(_latencies(samples), 50),
            "tail_ms": percentile(_latencies(samples), 95),
            "improvement": geomean(improvements),
            "ok_ratio": run.tally.ok_ratio,
        }

    dep = setup()
    try:
        untraced = [s for chunk, _ in rounds(dep) for s in chunk]
        metrics = counter_metrics(dep)
    finally:
        dep.close()
    trace_dir = run.workdir / "traces"
    dep = serving.deploy("serve", trace_dir)
    try:
        traced = [s for chunk, _ in rounds(dep, "cold") for s in chunk]
        time.sleep(0.3)  # the trace writer drains every 50 ms
    finally:
        dep.close()
    metrics.update(trace_metrics(trace_dir, {s.trace_id: s.latency_ms for s in traced}))
    metrics["obs.tracing_overhead_pct"] = overhead_pct(
        percentile(_latencies(traced), 50), percentile(_latencies(untraced), 50)
    )
    return metrics


def run_serve(run: Run) -> dict:
    return _hot(run) if run.workload == "serve_hot" else _cold(run)
