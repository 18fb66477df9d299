"""Tests for the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import micro  # noqa: E402
import tracer  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace=0, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "0.1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_one_seed_gives_byte_identical_documents(workload):
    first = gen.canonical(gen.generate(workload, 11))
    assert first == gen.canonical(gen.generate(workload, 11))
    assert first != gen.canonical(gen.generate(workload, 12))
    # a fresh interpreter with another hash seed draws the same bytes
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "sys.stdout.write(gen.canonical(gen.generate(sys.argv[2], 11)))")
    out = subprocess.run(
        [sys.executable, "-c", code, BENCH, workload], capture_output=True,
        text=True, check=True, env=dict(os.environ, PYTHONHASHSEED="123"))
    assert out.stdout == first


def test_cli_batch_covers_every_cli_operation():
    from cartier_lab import cli

    for seed in (1, 2):
        ops = {job["op"] for job in gen.generate("cli-batch", seed)["jobs"]}
        assert ops == set(cli.OPERATIONS)


def test_every_metric_name_is_well_formed():
    spec = _benchmark_json()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name


def test_per_layer_metrics_match_what_the_traced_run_reports():
    reported = set(tracer.Tracer().metrics()) | set(micro.NAMES)
    reported.add("trace.overhead_frac")
    assert {m["name"] for m in _benchmark_json()["per_layer"]} == reported


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tiny_run_completes_and_reports_fail_frac(workload):
    stdout, result = _run(workload)
    assert result["correct"] is True
    assert result["attempted"] >= 100
    end_to_end = {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == end_to_end
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.search(r"fail_frac \d\.\d{4} ratio", stdout)


def test_traced_run_reports_every_per_layer_metric():
    _, result = _run("cli-batch", trace=1)
    assert result["correct"] is True
    per_layer = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == per_layer
    assert result["metrics"]["cli.calls"]["value"] > 0


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         "chains", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
