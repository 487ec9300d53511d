"""Command-line surface tests, driven through click's runner.

A module-scoped search run feeds the report/consistency tests so the
expensive part happens once.
"""
from __future__ import annotations

import copy
import csv
import json
import multiprocessing
import os
import subprocess
import sys
from textwrap import dedent

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import fairsample
from fairsample.balance import BalanceParams, compute_plan
from fairsample.base import ConfigError
from fairsample.classifiers import register_kind
from fairsample.cli import TABLE_COLUMNS, load_config, main
from fairsample.dataset import (
    QuadrantCounts,
    SYNTHETIC_SCHEMA,
    Dataset,
    FeatureSpec,
    Schema,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    quadrant_counts,
    stratified_split,
    write_csv,
)

runner = CliRunner()


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_config(path, body):
    path.write_text(dedent(body))
    return str(path)


def small_synthetic_config(tmp_path, out, extra_classifiers="", seed=11):
    body = (
        "dataset:\n"
        "  synthetic: {quadrants: [520, 60, 130, 40], bias: 1.0, noise: 1.0}\n"
        "split: {fractions: [0.6, 0.2, 0.2], seed: 3}\n"
        "grid:\n"
        "  level0_step: 0.5\n"
        "  level1_step: 0.25\n"
        "  top_k: 2\n"
        "  neighborhood: 0.25\n"
        "  thresholds: [0.25, 0.5, 0.75]\n"
        "classifiers:\n"
        "  - {kind: logistic}\n"
        f"{extra_classifiers}"
        f"out: {out}\n"
        f"seed: {seed}\n"
    )
    (tmp_path / "cfg.yaml").write_text(body)
    return str(tmp_path / "cfg.yaml")


class AlwaysFavourable:
    """Scores every record 0, so the unfavourable label never fires."""

    def fit(self, x, y):
        return self

    def predict_scores(self, x):
        return np.zeros(len(x))


register_kind("always_favourable_for_cli_tests", lambda params, seed, blocks: AlwaysFavourable())


# ---------------------------------------------------------------------------
# config validation

def test_config_rejections(tmp_path):
    checks = [
        ("dataset: {}\n", "exactly one"),
        ("dataset: {synthetic: {quadrants: [10, -1, 5, 5]}}\n", "non-negative"),
        (
            "dataset: {csv: d.csv}\n",
            "schema",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "split: {fractions: [0.5, 0.4]}\n",
            "sum to 1",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "weights: {c_mcc: -1.0}\n",
            "weights",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {level0_step: 0.3}\n",
            "grid",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "split: {fractions: [a, b]}\n",
            "split.fractions",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "split: {fractions: ab}\n",
            "split.fractions",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "split: {fractions: [.nan, 0.5, 0.5]}\n",
            "sum to 1",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {thresholds: [x]}\n",
            "grid.thresholds",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {thresholds: x}\n",
            "grid.thresholds",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {thresholds: [0.5, .nan]}\n",
            "strictly inside",
        ),
        ("dataset: {synthetic: {quadrants: [10, .inf, 5, 5]}}\n", "non-negative"),
        ("dataset: {synthetic: {quadrants: [10, 1e30, 5, 5]}}\n", "non-negative"),
        ("dataset: {synthetic: {quadrants: [10, 10, 10, 10], noise: .inf}}\n", "noise"),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {top_k: .nan}\n",
            "top_k",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {top_k: .inf}\n",
            "top_k",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "grid: {top_k: true}\n",
            "top_k",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "weights: {c_mcc: .nan}\n",
            "c_mcc",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "weights: {c_di: .inf}\n",
            "c_di",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "classifiers: []\n",
            "non-empty",
        ),
        (
            "dataset: {synthetic: {quadrants: [10, 10, 10, 10]}}\n"
            "classifiers: [{params: {}}]\n",
            "kind",
        ),
    ]
    out = tmp_path / "never_written"
    for i, (body, fragment) in enumerate(checks):
        cfg = write_config(tmp_path / f"bad{i}.yaml", body + f"out: {out}\n")
        result = runner.invoke(main, ["baseline", "--config", cfg])
        assert result.exit_code == 2, (body, result.output)
        assert fragment in result.output
        assert not out.exists()  # rejected before any work

    result = runner.invoke(main, ["baseline", "--config", str(tmp_path / "missing.yaml")])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["baseline", "--config", write_config(tmp_path / "notyaml.yaml", "a: [unclosed\n")]
    )
    assert result.exit_code == 2


def test_schema_without_features_is_a_config_error(tmp_path):
    cfg = write_config(
        tmp_path / "featureless.yaml",
        f"""\
        dataset: {{csv: {tmp_path / "d.csv"}}}
        schema:
          features: []
          label: y
          favourable: "0"
          unfavourable: "1"
          sensitive: age
          privileged_min: 50
        out: {tmp_path / "featureless_out"}
        """,
    )
    for command in ("search", "baseline"):
        result = runner.invoke(main, [command, "--config", cfg])
        assert result.exit_code == 2, (command, result.output)
        assert "at least one feature" in result.output


@pytest.mark.parametrize(
    "classifier,fragment",
    [
        ("{kind: forest, params: {n_trees: 0}}", "n_trees"),
        ("{kind: forest, params: {n_trees: -1}}", "n_trees"),
        ("{kind: forest, params: {max_depth: 1.5}}", "max_depth"),
        ("{kind: forest, seed: -1}", "seed"),
        ("{kind: logistic, params: {bogus: 1}}", "bogus"),
        ("{kind: no_such_kind}", "unknown classifier kind"),
        ("{kind: logistic, seed: abc}", "classifier seed"),
        ("{kind: logistic, params: {learning_rate: -1.0}}", "learning_rate"),
        ("{kind: logistic, params: {max_iter: 0}}", "max_iter"),
        ("{kind: svm, params: {max_iter: -5}}", "max_iter"),
        ("{kind: svm, params: {l2: .nan}}", "l2"),
        ("{kind: forest, params: {n_trees: 1e30}}", "n_trees"),
        *(
            (f"{{kind: naive_bayes, params: {{var_smoothing: {value}}}}}", "var_smoothing")
            for value in ("s", "null", "{a: 1}", ".nan", "-1", "0", "1e30", "true", "[1]")
        ),
    ],
)
def test_bad_classifier_entries_are_config_errors(tmp_path, classifier, fragment):
    out = tmp_path / "never_written"
    cfg = write_config(
        tmp_path / "bad_classifier.yaml",
        f"""\
        dataset: {{synthetic: {{quadrants: [520, 60, 130, 40]}}}}
        classifiers:
          - {classifier}
        out: {out}
        """,
    )
    result = runner.invoke(main, ["search", "--config", cfg])
    assert result.exit_code == 2, result.output
    assert fragment in result.output
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize(
    "section,flags,fragment",
    [
        ("split: {seed: xyz}", [], "split.seed"),
        ("split: {seed: -1}", [], "split.seed"),
        ("seed: 2.5", [], "seed must be"),
        ("", ["--seed", "99999999999999999999"], "seed must be"),
        ("", ["--seed", "-3"], "seed must be"),
    ],
)
def test_bad_seeds_are_config_errors(tmp_path, section, flags, fragment):
    out = tmp_path / "never_written"
    cfg = write_config(
        tmp_path / "bad_seed.yaml",
        f"""\
        dataset: {{synthetic: {{quadrants: [520, 60, 130, 40]}}}}
        {section}
        out: {out}
        """,
    )
    result = runner.invoke(main, ["search", "--config", cfg, *flags])
    assert result.exit_code == 2, result.output
    assert fragment in result.output
    assert not out.exists()  # rejected before any work


SCAN_CONFIG = {
    "dataset": {"synthetic": {"quadrants": [520, 60, 130, 40], "bias": 1.0, "noise": 1.0}},
    "split": {"fractions": [0.6, 0.2, 0.2], "seed": 3},
    "grid": {
        "level0_step": 0.5,
        "level1_step": 0.25,
        "top_k": 2,
        "neighborhood": 0.25,
        "thresholds": [0.25, 0.5, 0.75],
    },
    "weights": {"c_mcc": 1.0, "c_di": 1.0},
    "classifiers": [
        {
            "kind": "logistic",
            "params": {"learning_rate": 0.1, "l2": 1e-4, "max_iter": 50, "tol": 1e-6},
            "seed": 1,
        },
        {"kind": "forest", "params": {"n_trees": 4, "max_depth": 3}, "seed": 2},
        {"kind": "naive_bayes", "params": {"var_smoothing": 1e-9}},
    ],
    "out": "scan_out",
    "seed": 0,
}
SCAN_VALUES = ("s", None, True, [1], {"a": 1}, float("nan"), float("inf"), -1, 10**30, 0)


def config_keys(node, path=()):
    """The path to every mapping key and list entry below node."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from config_keys(child, path + (key,))


def test_no_config_value_escapes_the_checks(tmp_path, monkeypatch):
    # each key of a valid config takes each kind of bad value in turn;
    # what loads must still run plan without a traceback
    monkeypatch.chdir(tmp_path)  # a config that loads writes under its out
    escapes, loaded = [], 0
    for path in config_keys(SCAN_CONFIG):
        for value in SCAN_VALUES:
            data = copy.deepcopy(SCAN_CONFIG)
            node = data
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            cfg = write_config(tmp_path / "scan.yaml", yaml.safe_dump(data))
            try:
                load_config(cfg)
            except ConfigError:
                continue
            except Exception as exc:  # any other exception is an escape
                escapes.append((path, value, "load_config", repr(exc)))
                continue
            loaded += 1
            result = runner.invoke(main, ["plan", "--config", cfg, "--preset", "double-balanced"])
            if result.exit_code not in (0, 2, 3) or not isinstance(
                result.exception, (SystemExit, type(None))
            ):
                escapes.append((path, value, "plan", repr(result.exception)))
    assert escapes == []
    assert 0 < loaded < len(list(config_keys(SCAN_CONFIG))) * len(SCAN_VALUES)


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(fairsample.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-m", "fairsample", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "search" in result.stdout


def test_flags_override_config(tmp_path):
    cfg = small_synthetic_config(tmp_path, out="from_config", seed=5)
    loaded = load_config(cfg, seed=99, out=str(tmp_path / "flagged"))
    assert loaded.seed == 99
    assert loaded.out == str(tmp_path / "flagged")
    assert loaded.resolved["seed"] == 99
    again = load_config(cfg)
    assert again.seed == 5
    assert again.out == "from_config"


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_deterministic_csv(tmp_path):
    cfg = write_config(
        tmp_path / "gen.yaml",
        f"""\
        dataset:
          synthetic: {{quadrants: [1000, 10, 100, 5]}}
        out: {tmp_path / "a"}
        seed: 7
        """,
    )
    result = runner.invoke(main, ["generate", "--config", cfg])
    assert result.exit_code == 0, result.output
    first = (tmp_path / "a" / "synthetic.csv").read_bytes()
    assert first.decode().count("\n") == 1116  # header + 1115 data rows

    result = runner.invoke(main, ["generate", "--config", cfg, "--out", str(tmp_path / "b")])
    assert result.exit_code == 0
    assert (tmp_path / "b" / "synthetic.csv").read_bytes() == first

    manifest = json.loads((tmp_path / "a" / "manifest_generate.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["outputs"] == ["synthetic.csv"]
    assert manifest["config"]["dataset"]["synthetic"]["quadrants"] == [1000, 10, 100, 5]
    assert "time" not in json.dumps(manifest)

    d = load_csv(str(tmp_path / "a" / "synthetic.csv"), SYNTHETIC_SCHEMA)
    assert quadrant_counts(d).as_tuple() == (1000, 10, 100, 5)


def test_generate_requires_synthetic_section(tmp_path):
    csv_cfg = write_config(
        tmp_path / "c.yaml",
        """\
        dataset: {csv: some.csv}
        schema:
          features: [{name: v, kind: numeric}]
          label: y
          favourable: "0"
          unfavourable: "1"
          sensitive: age
          privileged_min: 50
        """,
    )
    result = runner.invoke(main, ["generate", "--config", csv_cfg])
    assert result.exit_code == 2
    assert "synthetic" in result.output


# ---------------------------------------------------------------------------
# plan

def write_example_corpus(tmp_path):
    # the running worked example: 22,000 records, two skews at once
    rows = ["age,v,y"]
    for count, priv, unfav in [
        (19500, True, False),
        (500, True, True),
        (1900, False, False),
        (100, False, True),
    ]:
        age = "60" if priv else "30"
        label = "1" if unfav else "0"
        rows.extend(f"{age},1.0,{label}" for _ in range(count))
    path = tmp_path / "example.csv"
    path.write_text("\n".join(rows) + "\n")
    cfg = write_config(
        tmp_path / "plan.yaml",
        f"""\
        dataset: {{csv: {path}}}
        schema:
          features: [{{name: v, kind: numeric}}]
          label: y
          favourable: "0"
          unfavourable: "1"
          sensitive: age
          privileged_min: 50
        out: {tmp_path / "plan_out"}
        """,
    )
    return cfg


def test_plan_reports_worked_example(tmp_path):
    cfg = write_example_corpus(tmp_path)
    result = runner.invoke(
        main,
        ["plan", "--config", cfg, "--alpha", "0.5", "--beta", "0.8", "--gamma", "0.4"],
    )
    assert result.exit_code == 0, result.output
    assert "p_f=0.4208" in result.output
    payload = json.loads((tmp_path / "plan_out" / "plan.json").read_text())
    ratios = payload["plan"]["ratios"]
    for got, want in zip(
        (ratios["p_f"], ratios["p_uf"], ratios["up_f"], ratios["up_uf"]),
        (0.42082, 0.28373, 0.17374, 0.12173),
    ):
        assert got == pytest.approx(want, abs=1e-4)
    assert abs(payload["common_size_over_lattice"] - 394) <= 2
    assert payload["restrictions"]["ok"] is True
    assert payload["quadrant_caps"]["p_f"] > 0


def test_plan_preset_and_identity(tmp_path):
    cfg = write_example_corpus(tmp_path)
    result = runner.invoke(main, ["plan", "--config", cfg, "--preset", "double-balanced"])
    assert result.exit_code == 0, result.output
    payload = json.loads((tmp_path / "plan_out" / "plan.json").read_text())
    assert list(payload["plan"]["ratios"].values()) == [0.25, 0.25, 0.25, 0.25]

    result = runner.invoke(
        main, ["plan", "--config", cfg, "--alpha", "0", "--beta", "0", "--gamma", "0"]
    )
    assert result.exit_code == 0
    payload = json.loads((tmp_path / "plan_out" / "plan.json").read_text())
    assert payload["plan"]["ratios"]["p_f"] == 19500 / 22000


def test_plan_rejects_mixed_or_missing_knobs(tmp_path):
    cfg = write_example_corpus(tmp_path)
    result = runner.invoke(main, ["plan", "--config", cfg, "--alpha", "0.5"])
    assert result.exit_code == 2
    result = runner.invoke(
        main,
        ["plan", "--config", cfg, "--preset", "double-balanced", "--alpha", "0.5"],
    )
    assert result.exit_code == 2


def test_plan_empty_quadrant_is_a_data_error(tmp_path):
    path = tmp_path / "hollow.csv"
    path.write_text("age,v,y\n" + "60,1.0,0\n" * 5 + "30,1.0,0\n" * 3)
    cfg = write_config(
        tmp_path / "hollow.yaml",
        f"""\
        dataset: {{csv: {path}}}
        schema:
          features: [{{name: v, kind: numeric}}]
          label: y
          favourable: "0"
          unfavourable: "1"
          sensitive: age
          privileged_min: 50
        out: {tmp_path / "hollow_out"}
        """,
    )
    result = runner.invoke(
        main, ["plan", "--config", cfg, "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"]
    )
    assert result.exit_code == 3
    assert "empty" in result.output


# ---------------------------------------------------------------------------
# baseline and setups

def test_baseline_renders_undefined_cells_as_nan(tmp_path):
    out = tmp_path / "base_out"
    cfg = small_synthetic_config(
        tmp_path,
        out=out,
        extra_classifiers="  - {kind: always_favourable_for_cli_tests}\n",
    )
    result = runner.invoke(main, ["baseline", "--config", cfg])
    assert result.exit_code == 0, result.output
    rows = {r["classifier"]: r for r in read_rows(out / "baseline.csv")}
    assert set(rows) == {"logistic", "always_favourable_for_cli_tests"}
    degenerate = rows["always_favourable_for_cli_tests"]
    assert degenerate["mcc"] == "NaN"
    assert degenerate["di_ratio"] == "NaN"
    assert degenerate["combined_loss"] == "NaN"
    assert degenerate["accuracy"] != "NaN"  # defined: it just predicts one class
    trained = rows["logistic"]
    assert float(trained["mcc"]) > 0
    assert trained["note"] == ""


def test_baseline_writes_an_error_row_for_faulty_scores(tmp_path):
    from test_classifiers import FAULTY_KINDS

    out = tmp_path / "faulty_out"
    extra = "".join(f"  - {{kind: {kind}}}\n" for kind in sorted(FAULTY_KINDS))
    cfg = small_synthetic_config(tmp_path, out=out, extra_classifiers=extra)
    result = runner.invoke(main, ["baseline", "--config", cfg])
    assert result.exit_code == 0, result.output
    rows = {r["classifier"]: r for r in read_rows(out / "baseline.csv")}
    assert set(rows) == {"logistic", *FAULTY_KINDS}
    for kind, fault in FAULTY_KINDS.items():
        assert kind in rows[kind]["note"] and fault in rows[kind]["note"]
        assert all(rows[kind][column] == "NaN" for column in TABLE_COLUMNS)
    assert rows["logistic"]["note"] == ""


def test_baseline_cells_round_trip_at_printed_precision(tmp_path):
    from fairsample.classifiers import ClassifierSpec, fit, predict_labels
    from fairsample.cli import PLACES, TABLE_COLUMNS, _load_dataset
    from fairsample.metrics import LossWeights, metric_report, render

    out = tmp_path / "rt_out"
    cfg_path = small_synthetic_config(tmp_path, out=out)
    result = runner.invoke(main, ["baseline", "--config", cfg_path])
    assert result.exit_code == 0
    cfg = load_config(cfg_path)
    train, held_out, _ = stratified_split(_load_dataset(cfg), cfg.fractions, cfg.split_seed)
    model = fit(ClassifierSpec(kind="logistic", params={}, seed=cfg.seed), train)
    report = metric_report(predict_labels(model, held_out, 0.5), LossWeights())
    [row] = read_rows(out / "baseline.csv")
    values = report.to_dict()
    for column in TABLE_COLUMNS:
        assert row[column] == render(values[column], PLACES[column])


def test_setups_table_shape_and_direction(tmp_path):
    out = tmp_path / "setups_out"
    cfg = small_synthetic_config(tmp_path, out=out)
    result = runner.invoke(main, ["setups", "--config", cfg])
    assert result.exit_code == 0, result.output
    rows = read_rows(out / "setups.csv")
    assert [r["setup"] for r in rows] == [
        "double-balanced",
        "unfavourable-balanced",
        "privilege-balanced",
        "double-imbalanced",
    ]
    assert all(r["classifier"] == "logistic" for r in rows)
    assert all(r["note"] == "" for r in rows)
    by_setup = {r["setup"]: r for r in rows}
    balanced = abs(1.0 - float(by_setup["double-balanced"]["di_ratio"]))
    imbalanced = abs(1.0 - float(by_setup["double-imbalanced"]["di_ratio"]))
    assert balanced < imbalanced  # equalising the quadrants drains the planted bias


# ---------------------------------------------------------------------------
# search + report (one shared run)

@pytest.fixture(scope="module")
def search_run(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_search")
    out = tmp_path / "run"
    cfg = small_synthetic_config(
        tmp_path, out=out, extra_classifiers="  - {kind: naive_bayes}\n"
    )
    result = runner.invoke(main, ["search", "--config", cfg])
    assert result.exit_code == 0, result.output
    return cfg, out, tmp_path


def test_search_outputs(search_run):
    cfg, out, _ = search_run
    for name in (
        "points_logistic.jsonl",
        "points_naive_bayes.jsonl",
        "pareto_level0_logistic.csv",
        "pareto_level1_logistic.csv",
        "optimal.csv",
        "search_state.json",
        "manifest_search.json",
    ):
        assert (out / name).exists(), name

    points = [
        json.loads(line) for line in (out / "points_logistic.jsonl").read_text().splitlines()
    ]
    # coarse lattice once, then at least the winners' boxes again
    assert len(points) > 27
    assert {"alpha", "beta", "gamma", "threshold", "valid", "metrics"} <= set(points[0])

    rows = {r["classifier"]: r for r in read_rows(out / "optimal.csv")}
    assert set(rows) == {"logistic", "naive_bayes"}
    for row in rows.values():
        assert row["note"] == ""
        assert 0.0 <= float(row["alpha"]) <= 1.0
        assert 0.0 < float(row["threshold"]) < 1.0
        assert row["combined_loss"] != "NaN"

    front = read_rows(out / "pareto_level1_logistic.csv")
    assert front
    losses = [(float(r["mcc_loss"]), float(r["di_loss"])) for r in front]
    assert losses == sorted(losses)
    for a, b in zip(losses, losses[1:]):
        assert not (b[0] < a[0] and b[1] < a[1])  # front stays non-dominated

    state = json.loads((out / "search_state.json").read_text())
    assert [e["label"] for e in state["classifiers"]] == ["logistic", "naive_bayes"]
    assert all(e["valid"] for e in state["classifiers"])


def test_search_rerun_is_identical(search_run, tmp_path):
    cfg, out, _ = search_run
    result = runner.invoke(main, ["search", "--config", cfg, "--out", str(tmp_path / "again")])
    assert result.exit_code == 0
    for name in ("points_logistic.jsonl", "optimal.csv", "pareto_level1_logistic.csv"):
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


def test_search_writes_the_same_bytes_on_one_worker_and_two(tmp_path, monkeypatch):
    import fairsample.search as search_mod

    # four tasks a chunk: both levels run several chunks, so with two
    # usable CPUs both fork workers
    monkeypatch.setattr(search_mod, "_CHUNK", 4)
    draws = tmp_path / "draws"
    draw_chunk = search_mod._draw_chunk

    def logging_draw(*args):
        with open(draws, "a") as fh:  # the processes that drew a chunk
            fh.write(f"{os.getpid()}\n")
        return draw_chunk(*args)

    monkeypatch.setattr(search_mod, "_draw_chunk", logging_draw)
    cfg = small_synthetic_config(
        tmp_path, out=tmp_path / "unused", extra_classifiers="  - {kind: naive_bayes}\n"
    )
    written = {}
    for workers in (1, 2):
        monkeypatch.setattr(search_mod, "_usable_cpus", lambda: workers)
        draws.write_text("")
        out = tmp_path / f"workers_{workers}"
        result = runner.invoke(main, ["search", "--config", cfg, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert multiprocessing.active_children() == []
        assert (str(os.getpid()) in draws.read_text().split()) == (workers == 1)
        written[workers] = {
            name: (out / name).read_bytes()
            for name in os.listdir(out)
            if name.startswith(("points_", "pareto_", "optimal"))
        }
    assert len(written[1]) == 7  # two point streams, four fronts, optimal.csv
    assert written[2] == written[1]


def test_report_on_own_eval_split_reproduces_optimal_rows(search_run, tmp_path):
    cfg_path, out, _ = search_run
    cfg = load_config(cfg_path)
    from fairsample.cli import _load_dataset

    parts = stratified_split(_load_dataset(cfg), cfg.fractions, cfg.split_seed)
    eval1_csv = tmp_path / "eval1.csv"
    write_csv(parts[2], str(eval1_csv))
    result = runner.invoke(
        main,
        ["report", "--config", cfg_path, "--out", str(out), "--test", str(eval1_csv)],
    )
    assert result.exit_code == 0, result.output
    optimal = {r["classifier"]: r for r in read_rows(out / "optimal.csv")}
    report = {r["classifier"]: r for r in read_rows(out / "report.csv")}
    assert set(report) == set(optimal)
    for label in optimal:
        for column in ("accuracy", "precision", "recall", "f1", "mcc", "di_ratio", "combined_loss"):
            assert report[label][column] == optimal[label][column], (label, column)
        assert report[label]["threshold"] == optimal[label]["threshold"]


def write_categorical_config(tmp_path, out, classifier):
    # synthetic data plus a label-leaning categorical column whose value
    # "c" sits on one record only, so most samples miss it
    d = generate_synthetic(SyntheticSpec(quadrants=(520, 60, 130, 40)), seed=3)
    rng = np.random.default_rng(0)
    lean = np.where(d.unfavourable, 0.7, 0.3)
    region = np.where(rng.random(len(d)) < lean, "a", "b").astype(object)
    region[d.quadrant_indices()["up_uf"][0]] = "c"
    schema = Schema(
        features=SYNTHETIC_SCHEMA.features + (FeatureSpec("region", "categorical"),),
        label="y",
        favourable="0",
        unfavourable="1",
        sensitive="group",
        privileged_value="p",
    )
    path = tmp_path / "regions.csv"
    write_csv(
        Dataset(
            schema=schema,
            columns={**d.columns, "region": region},
            unfavourable=d.unfavourable,
            privileged=d.privileged,
            row_ids=d.row_ids,
        ),
        str(path),
    )
    features = ", ".join(f"{{name: {f.name}, kind: {f.kind}}}" for f in schema.features)
    return write_config(
        tmp_path / "regions.yaml",
        f"""\
        dataset: {{csv: {path}}}
        schema:
          features: [{features}]
          label: y
          favourable: "0"
          unfavourable: "1"
          sensitive: group
          privileged_value: p
        split: {{fractions: [0.6, 0.2, 0.2], seed: 3}}
        grid:
          level0_step: 0.5
          level1_step: 0.25
          top_k: 2
          neighborhood: 0.25
          thresholds: [0.25, 0.5, 0.75]
        classifiers:
          - {classifier}
        out: {out}
        seed: 11
        """,
    )


def test_report_reproduces_search_on_categorical_features(tmp_path):
    # search fits logistic models on one-hot columns fixed on the whole
    # training split; report refits the chosen sample on its own one-hot
    # columns, and must land on the same model
    check_report_reproduces_search(tmp_path, "{kind: logistic}")


def test_report_reproduces_forest_search_on_categorical_features(tmp_path):
    # search fits each forest on its sample's own pipeline; report must
    # rebuild the very forest search selected
    check_report_reproduces_search(tmp_path, "{kind: forest, params: {n_trees: 4}, seed: 5}")


def check_report_reproduces_search(tmp_path, classifier):
    out = tmp_path / "regions_out"
    cfg_path = write_categorical_config(tmp_path, out, classifier)
    result = runner.invoke(main, ["search", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    cfg = load_config(cfg_path)
    from fairsample.cli import _load_dataset

    parts = stratified_split(_load_dataset(cfg), cfg.fractions, cfg.split_seed)
    eval1_csv = tmp_path / "eval1.csv"
    write_csv(parts[2], str(eval1_csv))
    result = runner.invoke(main, ["report", "--config", cfg_path, "--test", str(eval1_csv)])
    assert result.exit_code == 0, result.output
    [optimal] = read_rows(out / "optimal.csv")
    [report] = read_rows(out / "report.csv")
    assert optimal["combined_loss"] != "NaN"
    for column in ("alpha", "beta", "gamma", "threshold", *TABLE_COLUMNS):
        assert report[column] == optimal[column], column


def test_knob_cells_are_the_shortest_text_that_reads_back():
    from fairsample.cli import _knob_cells

    assert _knob_cells(BalanceParams(0.375, 0.5, 1.0), 0.125) == ["0.375", "0.50", "1.00", "0.125"]
    assert _knob_cells(BalanceParams(0.0, 1e-7, 0.1 + 0.2), 0.05) == [
        "0.00", "0.0000001", "0.30000000000000004", "0.05",
    ]


def test_search_and_report_tables_print_eighths_exactly(tmp_path):
    # knobs and thresholds on a 1/8 lattice: 0.375 once printed as 0.38
    out = tmp_path / "eighths"
    cfg_path = write_config(
        tmp_path / "eighths.yaml",
        f"""\
        dataset:
          synthetic: {{quadrants: [520, 60, 130, 40]}}
        split: {{fractions: [0.6, 0.2, 0.2], seed: 0}}
        grid: {{level0_step: 0.25, level1_step: 0.125, top_k: 2, neighborhood: 0.125, thresholds: [0.25, 0.5, 0.75]}}
        classifiers:
          - {{kind: logistic}}
        out: {out}
        seed: 0
        """,
    )
    result = runner.invoke(main, ["search", "--config", cfg_path])
    assert result.exit_code == 0, result.output
    cfg = load_config(cfg_path)
    from fairsample.cli import _load_dataset

    parts = stratified_split(_load_dataset(cfg), cfg.fractions, cfg.split_seed)
    eval1_csv = tmp_path / "eval1.csv"
    write_csv(parts[2], str(eval1_csv))
    result = runner.invoke(main, ["report", "--config", cfg_path, "--test", str(eval1_csv)])
    assert result.exit_code == 0, result.output
    knobs = ("alpha", "beta", "gamma", "threshold")
    eighths = {f"{j / 8:.3f}".rstrip("0").ljust(4, "0") for j in range(9)}
    assert eighths == {"0.00", "0.125", "0.25", "0.375", "0.50", "0.625", "0.75", "0.875", "1.00"}
    tables = ("optimal.csv", "report.csv", "pareto_level0_logistic.csv", "pareto_level1_logistic.csv")
    cells = {name: [row[k] for row in read_rows(out / name) for k in knobs] for name in tables}
    assert all(cell in eighths for name in tables for cell in cells[name])
    assert any(len(cell) == 5 for cell in cells["pareto_level1_logistic.csv"])
    [stored] = json.loads((out / "search_state.json").read_text())["classifiers"]
    assert [float(cell) for cell in cells["optimal.csv"]] == [stored[k] for k in knobs]
    assert cells["report.csv"] == cells["optimal.csv"]


def test_report_missing_results_is_an_input_error(tmp_path):
    cfg = small_synthetic_config(tmp_path, out=tmp_path / "no_state")
    test_csv = tmp_path / "t.csv"
    test_csv.write_text("x1,x2,x3,z,group,y\n0,0,0,0,p,0\n0,0,0,0,up,1\n")
    result = runner.invoke(main, ["report", "--config", cfg, "--test", str(test_csv)])
    assert result.exit_code == 3
    assert "results" in result.output


def first_entry(state, drop=None, **changes):
    """The state's first classifier entry alone, less drop, with changes."""
    entry = {k: v for k, v in state["classifiers"][0].items() if k != drop}
    return {"classifiers": [dict(entry, **changes)]}


@pytest.mark.parametrize(
    "damage,fragment",
    [
        pytest.param(lambda s: s["classifiers"], "must map classifiers", id="list_document"),
        pytest.param(lambda s: {"classifiers": "logistic"}, "must map classifiers", id="string_list"),
        pytest.param(lambda s: {"classifiers": [1, 2]}, "must map classifiers", id="number_entries"),
        pytest.param(lambda s: first_entry(s, drop="alpha"), "alpha", id="missing_alpha"),
        pytest.param(lambda s: first_entry(s, drop="spec"), "spec", id="missing_spec"),
        pytest.param(lambda s: first_entry(s, size="88"), "size", id="string_size"),
        pytest.param(lambda s: first_entry(s, seed=1.5), "seed", id="float_seed"),
        pytest.param(lambda s: first_entry(s, seed=-1), "seed", id="negative_seed"),
        pytest.param(lambda s: first_entry(s, beta=True), "beta", id="bool_beta"),
        pytest.param(lambda s: first_entry(s, gamma=1.5), "gamma", id="gamma_above_one"),
        pytest.param(lambda s: first_entry(s, threshold=1.0), "threshold", id="threshold_one"),
        pytest.param(lambda s: first_entry(s, spec="logistic"), "is malformed", id="string_spec"),
        pytest.param(
            lambda s: first_entry(s, spec={"kind": "no_such"}),
            "unknown classifier kind",
            id="unknown_kind",
        ),
        pytest.param(
            lambda s: first_entry(s, spec={"kind": "logistic", "params": {"bogus": 1}}),
            "bogus",
            id="unknown_param",
        ),
        pytest.param(
            lambda s: first_entry(s, spec={"kind": "forest", "params": {"n_trees": 0}}),
            "n_trees",
            id="bad_param",
        ),
        pytest.param(
            lambda s: first_entry(s, spec={"kind": "forest", "seed": 1.5}),
            "classifier seed",
            id="float_spec_seed",
        ),
        pytest.param(
            lambda s: first_entry(s, spec={"kind": "forest", "seed": True}),
            "classifier seed",
            id="bool_spec_seed",
        ),
        pytest.param(lambda s: first_entry(s, spec={"kind": ["x"]}), "kind", id="list_kind"),
        pytest.param(
            lambda s: {"classifiers": s["classifiers"]}, "no search config", id="missing_config"
        ),
    ],
)
def test_report_malformed_results_are_input_errors(search_run, tmp_path, damage, fragment):
    cfg, out, _ = search_run
    state = json.loads((out / "search_state.json").read_text())
    broken = tmp_path / "broken_state.json"
    broken.write_text(json.dumps(damage(state)))
    test_csv = tmp_path / "t.csv"
    write_csv(generate_synthetic(SyntheticSpec(quadrants=(20, 10, 10, 10)), seed=1), str(test_csv))
    report_out = tmp_path / "report_out"
    result = runner.invoke(
        main,
        [
            "report", "--config", cfg, "--out", str(report_out),
            "--results", str(broken), "--test", str(test_csv),
        ],
    )
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert fragment in result.output
    assert not report_out.exists()  # rejected before any work


def test_report_schema_mismatch_is_an_input_error(search_run, tmp_path):
    cfg, out, _ = search_run
    broken = tmp_path / "broken.csv"
    broken.write_text("x1,x2,y\n0.1,0.2,0\n")  # missing columns
    result = runner.invoke(
        main, ["report", "--config", cfg, "--out", str(out), "--test", str(broken)]
    )
    assert result.exit_code == 3


@pytest.mark.parametrize(
    "key,flags,changes",
    [
        pytest.param("seed", ["--seed", "12"], {}, id="seed_flag"),
        pytest.param("split", [], {"split": {"fractions": [0.6, 0.2, 0.2], "seed": 5}}, id="split_seed"),
        pytest.param(
            "dataset",
            [],
            {"dataset": {"synthetic": {"quadrants": [520, 60, 130, 41], "bias": 1.0, "noise": 1.0}}},
            id="quadrants",
        ),
    ],
)
def test_report_refuses_a_search_of_other_data(search_run, tmp_path, key, flags, changes):
    # the stored seed and size pin a sample of the searched training
    # split; another dataset, split or seed would train another model
    cfg, out, _ = search_run
    report_out = tmp_path / "report_out"
    with open(cfg) as fh:
        data = dict(yaml.safe_load(fh), out=str(report_out), **changes)
    changed = write_config(tmp_path / "changed.yaml", yaml.safe_dump(data))
    test_csv = tmp_path / "t.csv"
    write_csv(generate_synthetic(SyntheticSpec(quadrants=(20, 10, 10, 10)), seed=1), str(test_csv))
    result = runner.invoke(
        main,
        [
            "report", "--config", changed, *flags,
            "--results", str(out / "search_state.json"), "--test", str(test_csv),
        ],
    )
    assert result.exit_code == 3, result.output
    assert f"another {key} " in result.output
    assert not report_out.exists()  # rejected before any work


@pytest.mark.parametrize("kind", ["empty", "file"])
def test_a_bad_out_flag_is_a_config_error(tmp_path, kind):
    cfg = small_synthetic_config(tmp_path, out=tmp_path / "from_config")
    out = ""
    if kind == "file":
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        out = str(taken)
    result = runner.invoke(
        main, ["plan", "--config", cfg, "--out", out, "--preset", "double-balanced"]
    )
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert repr(out) in result.output
    assert not (tmp_path / "from_config").exists()


def test_search_with_only_degenerate_classifier_warns_and_fails(tmp_path):
    out = tmp_path / "degenerate_out"
    cfg = write_config(
        tmp_path / "deg.yaml",
        f"""\
        dataset:
          synthetic: {{quadrants: [520, 60, 130, 40]}}
        split: {{fractions: [0.6, 0.2, 0.2], seed: 3}}
        grid:
          level0_step: 0.5
          level1_step: 0.25
          top_k: 1
          neighborhood: 0.25
          thresholds: [0.25, 0.5, 0.75]
        classifiers:
          - {{kind: always_favourable_for_cli_tests}}
        out: {out}
        seed: 1
        """,
    )
    result = runner.invoke(main, ["search", "--config", cfg])
    # completes (tables on disk), then reports the empty outcome
    assert result.exit_code == 3
    assert "warning: no valid evaluation point" in result.stderr
    [row] = read_rows(out / "optimal.csv")
    assert row["combined_loss"] == "NaN"
    assert row["note"] == "no valid points"
    stream = out / "points_always_favourable_for_cli_tests.jsonl"
    points = [json.loads(line) for line in stream.read_text().splitlines()]
    assert points
    assert all(not p["valid"] for p in points)
    assert all(p["metrics"]["mcc"] is None for p in points)
    front = read_rows(out / "pareto_level1_always_favourable_for_cli_tests.csv")
    assert front == []  # quarantined from the front


def test_neighborhood_off_the_fine_lattice_is_a_config_error(tmp_path):
    out = tmp_path / "off_lattice_out"
    cfg = write_config(
        tmp_path / "off_lattice.yaml",
        f"""\
        dataset: {{synthetic: {{quadrants: [520, 60, 130, 40]}}}}
        grid: {{level0_step: 0.5, level1_step: 0.25, neighborhood: 0.3}}
        out: {out}
        """,
    )
    result = runner.invoke(main, ["search", "--config", cfg])
    assert result.exit_code == 2, result.output
    assert "neighborhood must be a multiple of level1_step" in result.output
    assert not list(tmp_path.glob("**/points_*.jsonl"))  # rejected before level 0


def test_search_needs_three_split_parts(tmp_path):
    cfg = write_config(
        tmp_path / "two.yaml",
        f"""\
        dataset: {{synthetic: {{quadrants: [100, 20, 30, 10]}}}}
        split: {{fractions: [0.8, 0.2]}}
        out: {tmp_path / "two_out"}
        """,
    )
    result = runner.invoke(main, ["search", "--config", cfg])
    assert result.exit_code == 2
    assert "split parts" in result.output
