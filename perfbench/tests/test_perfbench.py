"""Self-tests of the benchmark: a seconds-long run of the tiny ``smoke``
workload in both modes, the front oracle against a planted dominated row,
and the printed metric names against BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import workloads  # noqa: E402


def bench(*args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[kind]]


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_is_correct_and_prints_the_declared_metrics(trace, kind):
    proc, result = bench("--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == declared(kind)
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace == "1":
        assert result["metrics"]["search.level0_points"]["value"] == 27


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """The files of one smoke search, copied where a test may tamper with them."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fairsample.cli import main

    w = workloads.WORKLOADS["smoke"]
    base = tmp_path_factory.mktemp("smoke")
    config = workloads.write_inputs(w, 3, str(base / "in"))
    with pytest.raises(SystemExit) as done:
        main(["search", "--config", config, "--seed", "3", "--out", str(base / "out")])
    assert done.value.code == 0
    return w, str(base / "out")


def size_of(w):
    from fairsample.balance import max_sample_size
    from fairsample.dataset import QuadrantCounts

    return max_sample_size(QuadrantCounts(*workloads.train_counts(w.quadrants)), step=w.grid.level1_step)


def test_untouched_outputs_pass(smoke_outputs):
    w, out = smoke_outputs
    problems, summary = check.check_search(out, w, size_of(w))
    assert problems == []
    assert summary["points"] == 27 + len(check.expected_level1(
        check.read_points(os.path.join(out, "points_logistic.jsonl"))[:27], w.grid
    ))


def test_oracle_rejects_a_planted_dominated_front_row(smoke_outputs, tmp_path):
    w, out = smoke_outputs
    copy = shutil.copytree(out, tmp_path / "out")
    table = check.read_table(os.path.join(copy, "pareto_level1_logistic.csv"))
    worst_mcc = max(float(r[0]) for r in table[1:])
    worst_di = max(float(r[1]) for r in table[1:])
    # strictly dominated by every real front member
    table.append([f"{worst_mcc + 0.5:.6f}", f"{worst_di + 0.5:.6f}", "0.50", "0.50", "0.50", "0.50"])
    with open(os.path.join(copy, "pareto_level1_logistic.csv"), "w", newline="") as fh:
        fh.write("".join(",".join(r) + "\r\n" for r in table))
    problems, _ = check.check_search(str(copy), w, size_of(w))
    assert problems == ["logistic: pareto_level1_logistic.csv differs from the oracle front"]


def test_oracle_keeps_first_of_duplicates_and_drops_strictly_dominated():
    def point(m, d, alpha):
        return {
            "valid": True,
            "alpha": alpha,
            "beta": 0.0,
            "gamma": 0.0,
            "threshold": 0.5,
            "metrics": {"mcc_loss": m, "di_loss": d, "combined_loss": m + d},
        }

    pts = [point(0.2, 0.2, 0.1), point(0.2, 0.2, 0.0), point(0.3, 0.3, 0.0),
           point(0.2, 0.3, 0.0), point(0.1, 0.5, 0.0)]
    front = check.oracle_front(pts)
    assert [(p["metrics"]["mcc_loss"], p["metrics"]["di_loss"], p["alpha"]) for p in front] == [
        (0.1, 0.5, 0.0), (0.2, 0.2, 0.0), (0.2, 0.3, 0.0)
    ]
