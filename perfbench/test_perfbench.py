"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from probe import SpeedProbe
from spans import SETUP_OP, SPANS, Tracer, self_times, snapshot, unchanged
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
API = run.load_library()


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    workload, failed = run.set_up(API, name, seed=3)
    probe = SpeedProbe()
    with probe.running():
        measured = run.measure(workload, seconds=0, probe=probe)  # exactly one block
    assert failed == 0 and measured["failed"] == 0
    assert len(measured["wall_ms"]) == len(measured["ref_ms"]) == workload.ops_per_block
    assert measured["wall_rates"][0] > 0 and measured["ref_rates"][0] > 0


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = bench("--workload", "prove-5x5", "--seed", "2", "--seconds", "0", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "prove-5x5", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_probe_samples_then_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.durations) >= 5
    assert probe.total == pytest.approx(sum(probe.durations))


def test_probe_mean_drops_preempted_samples():
    probe = SpeedProbe()
    probe.durations = [5.0, 1.0, 1.0, 1.2, 10.0]
    assert probe.mean_since(1) == pytest.approx(3.2 / 3)  # 10.0 > 3 x median 1.1


def test_self_time_subtracts_only_direct_children():
    # root [0,10] > a [1,3], b [4,8] > c [5,6]
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    parent = np.array([-1, 0, 0, 2], dtype=np.int32)
    assert self_times(start, end, parent).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_traced_run_restores_every_attribute():
    protocol, analysis = sys.modules["makaro_zkp.protocol"], sys.modules["makaro_zkp.analysis"]
    original_stats = protocol.stats
    before = snapshot()
    tracer = Tracer()
    with tracer.installed():
        assert protocol.stats is not original_stats and analysis.stats is protocol.stats
        tracer.op = 0
        grid = API.parse_puzzle((ROOT / "puzzles" / "quad.makaro").read_text())
        solutions = API.solve_brute_force(grid)
    assert unchanged(before, snapshot())
    assert protocol.stats is original_stats
    metrics = tracer.layer_metrics(ops=1)
    assert len(solutions) == 2
    assert metrics["puzzle.solve_brute_force.calls"][0] == 1
    assert metrics["puzzle.solve_brute_force.candidates"][0] == 4
    assert metrics["puzzle.solve_brute_force.solutions_per_candidate"][0] == 0.5
    assert metrics["puzzle.parse_puzzle.calls"][0] == 0  # parsed during an op, not set-up
    assert len(metrics) == 3 * len(SPANS) + 5 + 5


def test_setup_spans_are_kept_apart_from_op_spans():
    tracer = Tracer()
    with tracer.installed():
        workload, failed = run.set_up(API, "prove-5x5", seed=1)
        run.measure(workload, seconds=0, tracer=tracer)
    assert failed == 0
    ops = tracer.arrays()["op"]
    assert (ops == SETUP_OP).any() and (ops >= 0).any()
    metrics = tracer.layer_metrics(ops=workload.ops_per_block)
    assert metrics["puzzle.parse_puzzle.calls"][0] == 2
    assert metrics["deck.Transcript.from_text.calls"][0] == 1
    assert metrics["protocol.run_full_protocol_with_table.calls"][0] == 1
    assert metrics["deck.events_per_proof"][0] == 1149
    assert metrics["protocol.setup_reject_ratio"][0] == 0
