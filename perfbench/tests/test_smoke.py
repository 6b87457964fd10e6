"""Every workload at toy sizes, with every check on, in both modes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import per_layer_catalogue
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_untraced(workload, capsys):
    res = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "0", "--smoke")
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_traced(workload, capsys):
    res = _result(capsys, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", "1", "--smoke")
    assert res["correct"] is True and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["trace.overhead"]["value"] > 0


def test_ledger_counts_repeat_for_a_seed(capsys):
    argv = ("--workload", "drain-rank4", "--seed", "5", "--seconds", "0",
            "--trace", "0", "--smoke")
    a, b = _result(capsys, *argv), _result(capsys, *argv)
    for name in ("work_per_update", "depth_max"):
        assert a["metrics"][name] == b["metrics"][name]


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == \
        {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        per_layer_catalogue()


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 201))
    value, p = run.tail(samples)
    assert p == 95
    assert sum(s > value for s in samples) >= 10
    assert run.tail([1.0, 2.0, 3.0]) == (2.0, 50)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "churn-bulk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
