"""Tests of the benchmark suite itself: ``pytest benchmarks/suite``.

They sit outside the tier-1 ``testpaths``.  Every workload runs at
``--smoke`` size in both modes (about a minute on 2 cores), and the pieces
the suite's verdicts rest on are checked directly: the correctness checker
counts bad replies as failures, a windowed search draws the same samples
as one call, ``--compare`` labels its rows, and the suite fails closed
without the program under test.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS, verdict  # noqa: E402
from suite_common import ROOT, SRC, Tally, reply_failure  # noqa: E402

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _suite(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )


def _leftover_servers() -> "list[str]":
    """Command lines of live processes started from a suite scratch dir."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        if ".bench_work" in cmdline:
            found.append(cmdline)
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _suite("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert _leftover_servers() == []
    assert not (ROOT / ".bench_work").exists()


def test_bad_replies_count_as_failures():
    from repro.graphs.zoo import build_mlp

    graph = build_mlp()
    n = graph.n_nodes
    valid = [0] * n
    reference = {"assignment": valid, "improvement": 1.25}

    def reply(assignment, **extra) -> bytes:
        return json.dumps(
            {"assignment": assignment, "improvement": 1.25, "degraded": False, **extra}
        ).encode()

    backward = [1] + [0] * (n - 1)  # node 0 on chip 1 feeds chip 0
    other_valid = [0] * (n - 1) + [1]
    cases = [
        (reply_failure(200, reply(valid), graph, 4), None),
        (reply_failure(200, reply(backward), graph, 4), "invalid_assignment"),
        (reply_failure(200, reply(other_valid), graph, 4, reference), "hit_not_identical"),
        (reply_failure(200, reply(valid), graph, 4, reference), None),
        (reply_failure(200, reply(valid, degraded=True), graph, 4), "degraded"),
        (reply_failure(200, b"{not json", graph, 4), "bad_json"),
        (reply_failure(503, b"", graph, 4), "http_503"),
        (reply_failure(0, b"", graph, 4), "transport_error"),
    ]
    tally = Tally()
    for (reason, _), expected in cases:
        assert reason == expected
        tally.record(reason)
    assert (tally.attempted, tally.failed) == (8, 6)
    assert tally.ok_ratio == pytest.approx(2 / 8)


def test_windowed_search_draws_the_same_samples_as_one_call():
    from repro.core.partitioner import RLPartitioner
    from repro.graphs.zoo import build_mlp
    from repro.rl.features import featurize

    from suite_train import WINDOW, cli_config, environment

    graph = build_mlp()
    env = environment(graph, 4)
    whole = RLPartitioner(4, config=cli_config(), rng=3).search(env, 3 * WINDOW)
    stepped = RLPartitioner(4, config=cli_config(), rng=3)
    feats = featurize(graph)
    parts = [stepped.search(env, WINDOW, features=feats) for _ in range(3)]
    assert np.array_equal(
        np.concatenate([p.improvements for p in parts]), whole.improvements
    )


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(steady, [10.2, 10.3, 10.1, 10.2, 10.25], "lower", 0.1) == "within"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0, 12.05], "lower", 0.1) == "worse"
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0, 8.05], "higher", 0.1) == "worse"
    noisy = [6.0, 10.0, 14.0, 8.0, 12.0]
    assert verdict(steady, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, [1.0, 1.1, 1.2, 1.3, 1.4], "lower", 0.1) == "within"


def test_compare_reads_result_files(tmp_path):
    def write(path, values):
        with open(path, "w") as fh:
            for seed, v in enumerate(values):
                metrics = {"p50_ms": {"value": v, "unit": "ms"}}
                result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
                fh.write(json.dumps({"workload": "serve_hot", "seed": seed, "result": result}) + "\n")

    write(tmp_path / "a.jsonl", [4.0, 4.1, 4.05])
    write(tmp_path / "b.jsonl", [6.0, 6.1, 6.05])  # 49% slower
    proc = _suite("--compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    assert proc.returncode == 1
    assert "serve_hot" in proc.stdout and "worse" in proc.stdout


def test_fails_closed_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _suite("--workload", "train_small", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
