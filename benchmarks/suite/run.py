#!/usr/bin/env python3
"""The repo benchmark: four workloads, every metric by name and unit.

One workload per process (the command ``BENCHMARK.json`` declares)::

    python3 benchmarks/suite/run.py --workload train_small --seed 0 \
        --seconds 20 --trace 0

Every workload, each in a fresh process, with a summary at the end::

    python3 benchmarks/suite/run.py --seed 0            # end-to-end metrics
    python3 benchmarks/suite/run.py --seed 0 --trace    # per-layer metrics

``--out FILE`` appends each result, with the box's cpu count and the
python/numpy versions, as one JSON line; ``--compare A B`` reads two such
files and gives, per metric and workload, both medians and quartiles and
a verdict against the metric's bound.  ``--smoke`` shrinks every
workload to a few seconds (the suite's own tests use it).

The last line of a workload's standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program under test is imported from ``src/`` of the checkout; without it
the suite exits non-zero before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from suite_common import ROOT, SRC, BootError, Run  # noqa: E402

WORKLOADS = ("train_small", "train_bert8", "serve_hot", "serve_cold")
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Hard wall-clock limit of one workload process, set-up and teardown
#: included; on expiry its servers are stopped and the run reports failure.
HARD_TIMEOUT_S = 170


class WorkloadTimeout(Exception):
    pass


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def declared_metrics(spec: dict, trace: bool) -> "list[dict]":
    return spec["per_layer"] if trace else spec["end_to_end"]


def _on_alarm(signum, frame):
    raise WorkloadTimeout(f"workload exceeded {HARD_TIMEOUT_S}s")


def _measure(run: Run) -> dict:
    if run.workload.startswith("train_"):
        import suite_train

        return suite_train.run_train(run)
    import suite_serve

    return suite_serve.run_serve(run)


def build_result(run: Run, metrics: dict, spec: dict) -> dict:
    """The result object: every declared metric for the run's mode.

    A completed run must produce every end-to-end metric; a per-layer
    metric of a layer the workload does not exercise reads 0.  A failed
    run (a server that never booted, a timeout) reports what it measured.
    """
    declared = declared_metrics(spec, run.trace)
    names = {m["name"] for m in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        raise ValueError(f"undeclared metrics {unknown}")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing and not run.trace and run.tally.failed == 0:
        raise ValueError(f"workload did not measure {missing}")
    tally = run.tally
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }


def run_one(args) -> int:
    if not (SRC / "repro").is_dir():
        print(f"program under test not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_TIMEOUT_S)
    metrics: dict = {}
    try:
        metrics = _measure(run)
    except WorkloadTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.tally.record("timeout")
    except BootError as exc:
        print(f"error: {exc}", file=sys.stderr)
        run.tally.record("boot_failed")
    finally:
        signal.alarm(0)
        run.close()
    result = build_result(run, metrics, spec)
    print(f"{run.workload} seed={run.seed} seconds={run.seconds:g} trace={int(run.trace)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for reason, count in sorted(run.tally.reasons.items()):
        print(f"  failed: {reason} x{count}")
    if args.out:
        record = {
            "workload": run.workload,
            "seed": run.seed,
            "seconds": run.seconds,
            "trace": int(run.trace),
            "smoke": run.smoke,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "failures": dict(run.tally.reasons),
            "result": result,
        }
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter so allocator and cache
    state cannot leak from one workload into the next."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ]
        if args.smoke:
            cmd.append("--smoke")
        if args.out:
            cmd += ["--out", args.out]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=HARD_TIMEOUT_S + 30,
            )
        except subprocess.TimeoutExpired:
            print(f"{workload}: no result within {HARD_TIMEOUT_S + 30}s")
            status = 1
            continue
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{workload}: exited {proc.returncode} without a result")
            status = 1
            continue
        status |= proc.returncode != 0
    print(json.dumps(results), flush=True)
    return status


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def _load_records(path: str) -> "list[dict]":
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _values(records) -> "dict[tuple, list[float]]":
    out: "dict[tuple, list[float]]" = {}
    for rec in records:
        for name, metric in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], name), []).append(metric["value"])
    return out


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: "list[float]", new: "list[float]", better: str, bound: float) -> str:
    """``within`` / ``worse`` / ``unresolved`` for ``new`` against ``base``.

    Worse means the median moved the bad way by more than ``bound`` (a
    share of the base median).  When either side's quartile spread is
    wider than the bound the comparison is unresolved — unless every new
    run beats every base run.
    """
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if bm == 0:
        return "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    spread = max((b3 - b1) / abs(bm), (n3 - n1) / abs(nm) if nm else float("inf"))
    if spread > bound:
        beats = max(new) < min(base) if better == "lower" else min(new) > max(base)
        return "within" if beats else "unresolved"
    return "worse" if sign * (nm - bm) / abs(bm) > bound else "within"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = _values(_load_records(path_a)), _values(_load_records(path_b))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    any_worse = False
    for name in names:
        rows = [w for w in WORKLOADS if (w, name) in a and (w, name) in b]
        if not rows:
            continue
        decl = bounds.get(name)
        tag = (
            f"{decl['unit']}, {decl['better']} is better, bound {decl['bound']:.0%}"
            if decl else "per-layer, no bound"
        )
        print(f"{name} ({tag})")
        for workload in rows:
            va, vb = a[(workload, name)], b[(workload, name)]
            qa, qb = quartiles(va), quartiles(vb)
            word = verdict(va, vb, decl["better"], decl["bound"]) if decl else "-"
            any_worse |= word == "worse"
            print(
                f"  {workload:<12} A {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}] n={len(va):<3}"
                f" B {qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] n={len(vb):<3} {word}"
            )
    return 1 if any_worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: all, "
                             "each in its own process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed: draws every input the program sees")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: per-layer metrics from a traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the suite's own tests")
    parser.add_argument("--out", help="append each result as a JSON line here")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, load_spec())
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
