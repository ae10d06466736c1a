"""Shared pieces of the benchmark suite.

Paths of the checkout, the failure tally every workload reports, summary
statistics, memory readings, and the partition checks that decide whether
an output of the program under test is correct.  Nothing here imports the
program itself at module import time: ``run.py`` checks that ``src/repro``
exists before any workload module loads it.
"""

from __future__ import annotations

import collections
import gc
import json
import math
import os
import resource
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
#: Scratch space for registries, trace sinks and server logs.  It lives in
#: the checkout (the suite reads and writes nowhere else) and every run
#: removes its own subdirectory.
WORK_ROOT = ROOT / ".bench_work"


class BootError(RuntimeError):
    """A server process did not come up (or died before announcing)."""


class Tally:
    """Operations attempted and failed, with a count per failure reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "collections.Counter[str]" = collections.Counter()

    def record(self, reason: "str | None") -> None:
        """Count one operation; ``reason`` is None when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons[reason] += 1

    @property
    def ok_ratio(self) -> float:
        """Share of attempted operations that succeeded (1 - fail rate)."""
        if self.attempted == 0:
            return 0.0
        return (self.attempted - self.failed) / self.attempted


class Run:
    """What one workload invocation needs: its arguments, a private scratch
    directory, and the tally of its operations."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> None:
        self.workload = workload
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.smoke = bool(smoke)
        #: How many times set-up is repeated; ``setup_s`` is their median.
        #: Training set-up takes tens of milliseconds, so it is sampled
        #: more often.
        self.setup_repeats = 1 if smoke else (15 if workload.startswith("train_") else 3)
        #: Measurement rounds, spread over the run because the CPU speed of
        #: a shared box drifts by about 20% within tens of seconds.  Training
        #: rounds repeat identical work and keep each window's fastest
        #: repeat; serving rounds pool their requests.
        self.rounds = 1 if smoke else 5
        self.tally = Tally()
        WORK_ROOT.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only succeeds once no concurrent run uses it
        except OSError:
            pass


def timed_setups(setup, teardown, repeats: int) -> "tuple[object, list[float]]":
    """Run ``setup()`` ``repeats`` times; keep the last result.

    Every earlier result is passed to ``teardown`` at once.  Returns the
    kept result and each set-up's time in seconds.  Garbage left by
    earlier work is collected before each timing starts, so a collection
    that work made due is not billed to set-up.
    """
    times = []
    state = None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
        gc.collect()
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    return state, times


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values) -> float:
    values = [float(v) for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def overhead_pct(traced: float, untraced: float) -> float:
    """How much slower the traced measurement is, in percent."""
    if untraced <= 0:
        return 0.0
    return (traced / untraced - 1.0) * 100.0


def perturbed(graph, k: int):
    """A content-distinct copy of ``graph`` with the same structure.

    Adds ``k * 1e-9`` microseconds to one node's compute cost: the content
    fingerprint changes (exact float64 bytes are hashed; the step is above
    one ulp for costs up to a second), while the cost model's numbers do
    not move in any digit that matters.
    """
    from repro.graphs.graph import CompGraph

    compute = graph.compute_us.copy()
    compute[0] += k * 1e-9
    return CompGraph(
        names=graph.names,
        op_types=graph.op_types,
        compute_us=compute,
        output_bytes=graph.output_bytes,
        param_bytes=graph.param_bytes,
        src=graph.src,
        dst=graph.dst,
        name=f"{graph.name}~{k}",
    )


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _children(pid: int) -> "list[int]":
    out = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> "list[int]":
    """Every live descendant of ``pid`` (Linux ``/proc``; empty elsewhere)."""
    found, stack = [], [pid]
    while stack:
        for child in _children(stack.pop()):
            found.append(child)
            stack.append(child)
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(server_pids=()) -> float:
    """Peak resident set of this process plus ``server_pids``, in MB.

    Each process contributes its own high-water mark (``VmHWM``), so the
    sum bounds the suite's footprint from above.
    """
    own_kb = _vm_hwm_kb(os.getpid()) or resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss
    return (own_kb + sum(_vm_hwm_kb(pid) for pid in server_pids)) / 1024.0


# ----------------------------------------------------------------------
# Correctness of outputs
# ----------------------------------------------------------------------
def partition_failure(graph, assignment, n_chips: int) -> "str | None":
    """Why ``assignment`` is not a valid partition of ``graph`` (or None).

    The check is the program's own static-constraint validator: acyclic
    dataflow, no skipped chips, the triangle rule, and one chip per node.
    """
    from repro.solver.constraints import validate_partition

    try:
        report = validate_partition(
            graph, np.asarray(assignment, dtype=np.int64), n_chips
        )
    except (ValueError, TypeError, IndexError):
        return "invalid_assignment"
    return None if report.ok else "invalid_assignment"


def reply_failure(status: int, body: bytes, graph, n_chips: int,
                  reference: "dict | None" = None) -> "tuple[str | None, dict | None]":
    """Check one ``POST /partition`` reply: ``(failure reason, parsed reply)``.

    Failures: a transport error (``status`` 0), a non-200 reply, a body
    that is not JSON, a degraded answer, an assignment the validator
    rejects, and — when ``reference`` (the first answer for the same
    request) is given — any difference from it, bit for bit.
    """
    if status == 0:
        return "transport_error", None
    if status != 200:
        return f"http_{status}", None
    try:
        reply = json.loads(body)
    except ValueError:
        return "bad_json", None
    if not isinstance(reply, dict):
        return "bad_json", None
    if reply.get("degraded"):
        return "degraded", reply
    if reference is not None:
        same = (
            reply.get("assignment") == reference["assignment"]
            and reply.get("improvement") == reference["improvement"]
        )
        return (None if same else "hit_not_identical"), reply
    reason = partition_failure(graph, reply.get("assignment"), n_chips)
    if reason is None and not reply.get("improvement", 0) > 0:
        reason = "no_improvement"
    return reason, reply
