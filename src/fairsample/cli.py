"""Operator-facing command line.

One YAML document configures a whole experiment; the --seed and --out
flags override the matching config keys so a seed sweep never needs
ten config files. Every command writes a manifest (command, resolved
config, output names, no timestamps) so a run can be reproduced from
its output directory alone. Undefined metric cells are printed as the
literal token NaN.

Config layout::

    dataset:
      csv: data/train.csv            # either a CSV path with a schema
      synthetic:                     # or a generator spec
        quadrants: [9000, 90, 900, 30]
        bias: 1.0
        noise: 1.0
    schema:                          # required for csv sources
      features:
        - {name: amount, kind: numeric}
        - {name: channel, kind: categorical}
      label: y
      favourable: "0"
      unfavourable: "1"
      sensitive: age
      privileged_min: 50
    split: {fractions: [0.6, 0.2, 0.2], seed: 0}
    grid: {level0_step: 0.1, level1_step: 0.01, top_k: 5}
    classifiers:
      - {kind: logistic}
      - {kind: forest, params: {n_trees: 32}, seed: 1}
    weights: {c_mcc: 1.0, c_di: 1.0}
    out: runs/demo
    seed: 0

Exit codes: 0 success, 2 configuration problem, 3 data or search
problem.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import json
import os
from dataclasses import dataclass
from typing import Any

import click
import yaml

from .balance import (
    BalanceParams,
    PRESET_NAMES,
    bound_at,
    check_restrictions,
    compute_plan,
    max_sample_size,
    preset_plan,
    quadrant_bounds,
)
from .base import ConfigError, FairsampleError, InputError, TrainingError, check_int, check_number
from .classifiers import ClassifierSpec, build_estimator, fit, predict_labels
from .dataset import (
    Dataset,
    FeatureSpec,
    SYNTHETIC_SCHEMA,
    Schema,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    quadrant_counts,
    split_fractions,
    stratified_split,
    write_csv,
)
from .metrics import LossWeights, MetricReport, metric_report, render
from .search import (
    EvaluationPoint,
    GridSpec,
    full_search,
    inspect_point,
    pareto_front,
    threshold_grid,
)

BASELINE_THRESHOLD = 0.5  # untuned tables fix the decision rule

TABLE_COLUMNS = ("accuracy", "precision", "recall", "f1", "mcc", "di_ratio", "combined_loss")
# fairness-sensitive numbers get the extra digit
PLACES = {
    "accuracy": 2,
    "precision": 2,
    "recall": 2,
    "f1": 2,
    "mcc": 3,
    "di_ratio": 3,
    "combined_loss": 3,
}


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunConfig:
    """A fully validated experiment description."""

    csv: str | None
    synthetic: SyntheticSpec | None
    schema: Schema | None
    fractions: tuple[float, ...]
    split_seed: int
    grid: GridSpec
    classifiers: tuple[ClassifierSpec, ...]
    labels: tuple[str, ...]
    out: str
    seed: int
    resolved: dict[str, Any]

    @property
    def effective_schema(self) -> Schema:
        return self.schema if self.schema is not None else SYNTHETIC_SCHEMA


def _mapping(value, where: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _path(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a path, got {value!r}")
    return value


@contextlib.contextmanager
def _section(where: str | None = None):
    """Turn a value the program rejects into a ConfigError, prefixed by
    where when the message alone does not say which part of the config
    holds it."""
    try:
        yield
    except (FairsampleError, TypeError) as exc:
        raise ConfigError(str(exc) if where is None else f"{where}: {exc}") from exc


def _schema_from(data: dict) -> Schema:
    # column names and cell values are CSV text, so YAML scalars are
    # read as text; Schema checks privileged_min itself
    fields = {k: v if k == "privileged_min" else str(v) for k, v in data.items() if k != "features"}
    features = tuple(
        FeatureSpec(**{k: str(v) for k, v in _mapping(f, "schema feature").items()})
        for f in data.get("features", ())
    )
    return Schema(features=features, **fields)


def _classifier(entry: Any, default_seed: int) -> ClassifierSpec:
    """A classifier entry of a config or a results file, checked by
    building its estimator."""
    if not isinstance(entry, dict):
        raise TypeError(f"a classifier entry must be a mapping, got {entry!r}")
    kind = entry.get("kind")
    params = {} if entry.get("params") is None else entry["params"]
    if not isinstance(kind, str):
        raise InputError(f"kind must be a string, got {kind!r}")
    if not isinstance(params, dict):
        raise InputError(f"params must be a mapping, got {params!r}")
    spec = ClassifierSpec(kind, dict(params), check_int(entry.get("seed", default_seed), "classifier seed"))
    build_estimator(spec)
    return spec


def _classifier_labels(specs: tuple[ClassifierSpec, ...]) -> tuple[str, ...]:
    seen: dict[str, int] = {}
    labels = []
    for s in specs:
        n = seen.get(s.kind, 0) + 1
        seen[s.kind] = n
        labels.append(s.kind if n == 1 else f"{s.kind}_{n}")
    return tuple(labels)


def load_config(path: str, seed: int | None = None, out: str | None = None) -> RunConfig:
    """Parse and validate a YAML config; flags override seed and out."""
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path!r} is not valid YAML: {exc}") from exc
    data = _mapping(raw, "config document")

    dataset = _mapping(data.get("dataset"), "dataset section")
    csv_path = dataset.get("csv")
    synth_raw = dataset.get("synthetic")
    if (csv_path is None) == (synth_raw is None):
        raise ConfigError("dataset section needs exactly one of csv / synthetic")
    synthetic = schema = None
    if synth_raw is not None:
        synth = _mapping(synth_raw, "dataset.synthetic")
        with _section("dataset.synthetic"):
            synthetic = SyntheticSpec(**synth)
    else:
        _path(csv_path, "dataset.csv")
        if "schema" not in data:
            raise ConfigError("csv datasets need a schema section")
        schema_raw = _mapping(data.get("schema"), "schema section")
        with _section("schema"):
            schema = _schema_from(schema_raw)

    split = _mapping(data.get("split"), "split section")
    grid_raw = _mapping(data.get("grid"), "grid section")
    weights_raw = _mapping(data.get("weights"), "weights section")
    with _section():
        fractions = split_fractions(split.get("fractions", [0.6, 0.2, 0.2]), "split.fractions")
        split_seed = check_int(split.get("seed", 0), "split.seed")
        run_seed = check_int(data.get("seed", 0) if seed is None else seed, "seed")
        if "thresholds" in grid_raw:
            grid_raw = dict(grid_raw, thresholds=threshold_grid(grid_raw["thresholds"], "grid.thresholds"))
    with _section("weights"):
        weights = LossWeights(**weights_raw)
    with _section("grid"):
        grid = GridSpec(weights=weights, **grid_raw)

    entries = data.get("classifiers", [{"kind": "logistic"}])
    if not isinstance(entries, list) or not entries:
        raise ConfigError("classifiers must be a non-empty list")
    specs = []
    for i, entry in enumerate(entries):
        with _section(f"classifiers[{i}]"):
            specs.append(_classifier(entry, run_seed))
    classifiers = tuple(specs)

    out_dir = _path(data.get("out", "out"), "out") if out is None else _path(out, "--out")

    resolved = {
        "dataset": {"csv": csv_path} if csv_path is not None else {
            "synthetic": {
                "quadrants": list(synthetic.quadrants),
                "bias": synthetic.bias,
                "noise": synthetic.noise,
            }
        },
        "schema": None if schema is None else {
            "features": [{"name": f.name, "kind": f.kind} for f in schema.features],
            "label": schema.label,
            "favourable": schema.favourable,
            "unfavourable": schema.unfavourable,
            "sensitive": schema.sensitive,
            "privileged_value": schema.privileged_value,
            "privileged_min": schema.privileged_min,
        },
        "split": {"fractions": list(fractions), "seed": split_seed},
        "grid": {
            "level0_step": grid.level0_step,
            "level1_step": grid.level1_step,
            "top_k": grid.top_k,
            "neighborhood": grid.neighborhood,
            "thresholds": list(grid.thresholds),
        },
        "classifiers": [s.to_dict() for s in classifiers],
        "weights": {"c_mcc": weights.c_mcc, "c_di": weights.c_di},
        "out": out_dir,
        "seed": run_seed,
    }
    return RunConfig(
        csv=csv_path,
        synthetic=synthetic,
        schema=schema,
        fractions=fractions,
        split_seed=split_seed,
        grid=grid,
        classifiers=classifiers,
        labels=_classifier_labels(classifiers),
        out=out_dir,
        seed=run_seed,
        resolved=resolved,
    )


# ---------------------------------------------------------------------------
# shared plumbing

def _load_dataset(cfg: RunConfig) -> Dataset:
    if cfg.csv is not None:
        try:
            return load_csv(cfg.csv, cfg.schema)
        except OSError as exc:
            raise InputError(f"cannot read dataset {cfg.csv!r}: {exc}") from exc
    return generate_synthetic(cfg.synthetic, seed=cfg.seed)


def _splits(cfg: RunConfig, need: int) -> tuple[Dataset, ...]:
    if len(cfg.fractions) < need:
        raise ConfigError(
            f"this command needs at least {need} split parts, config has {len(cfg.fractions)}"
        )
    return stratified_split(_load_dataset(cfg), cfg.fractions, cfg.split_seed)


def _ensure_out(cfg: RunConfig) -> str:
    try:
        os.makedirs(cfg.out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {cfg.out!r}: {exc}") from exc
    return cfg.out


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_table(path: str, header: tuple[str, ...], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(cfg: RunConfig, command: str, outputs: list[str]) -> str:
    name = f"manifest_{command}.json"
    _write_json(
        os.path.join(cfg.out, name),
        {"command": command, "config": cfg.resolved, "outputs": sorted(outputs)},
    )
    return name


def _metric_cells(report: MetricReport | None) -> list[str]:
    if report is None:
        return [render(None, PLACES[c]) for c in TABLE_COLUMNS]
    values = report.to_dict()
    return [render(values[c], PLACES[c]) for c in TABLE_COLUMNS]


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            raise SystemExit(2)
        except FairsampleError as exc:
            click.echo(f"error: {exc}", err=True)
            raise SystemExit(3)

    return wrapper


def _common(fn):
    fn = click.option("--out", "out_dir", default=None, help="override the output directory")(fn)
    fn = click.option("--seed", type=int, default=None, help="override the config seed")(fn)
    fn = click.option("--config", "config_path", required=True, type=click.Path(), help="YAML experiment config")(fn)
    return fn


# ---------------------------------------------------------------------------
# commands

@click.group()
def main():
    """Balance-aware sampling experiments: generate data, inspect
    sampling plans, benchmark classifiers and search the knob space."""


@main.command()
@_common
@_guard
def generate(config_path, seed, out_dir):
    """Write the configured synthetic dataset as CSV."""
    cfg = load_config(config_path, seed=seed, out=out_dir)
    if cfg.synthetic is None:
        raise ConfigError("generate needs a dataset.synthetic section")
    d = generate_synthetic(cfg.synthetic, seed=cfg.seed)
    _ensure_out(cfg)
    data_path = os.path.join(cfg.out, "synthetic.csv")
    write_csv(d, data_path)
    manifest = _write_manifest(cfg, "generate", ["synthetic.csv"])
    click.echo(f"wrote {data_path} ({len(d)} rows) and {manifest}")


@main.command()
@_common
@click.option("--alpha", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--preset", type=click.Choice(PRESET_NAMES), default=None,
              help="use a named setup instead of explicit knobs")
@_guard
def plan(config_path, seed, out_dir, alpha, beta, gamma, preset):
    """Resolve one sampling plan: ratios, caps and feasibility."""
    cfg = load_config(config_path, seed=seed, out=out_dir)
    explicit = [v is not None for v in (alpha, beta, gamma)]
    if preset is not None:
        if any(explicit):
            raise ConfigError("give either --preset or the three knobs, not both")
    elif not all(explicit):
        raise ConfigError("plan needs --alpha, --beta and --gamma (or --preset)")

    counts = quadrant_counts(_load_dataset(cfg))
    if preset is not None:
        resolved_plan = preset_plan(counts, preset)
    else:
        resolved_plan = compute_plan(counts, BalanceParams(alpha, beta, gamma))
    params = resolved_plan.params
    caps = quadrant_bounds(counts, params)
    point_bound = bound_at(counts, params)
    lattice_bound = max_sample_size(counts, step=cfg.grid.level1_step)
    restrictions = check_restrictions(counts, resolved_plan)

    _ensure_out(cfg)
    payload = {
        "plan": resolved_plan.to_dict(),
        "quadrant_caps": caps,
        "size_bound_at_point": point_bound,
        "common_size_over_lattice": lattice_bound,
        "lattice_step": cfg.grid.level1_step,
        "restrictions": restrictions.to_dict(),
    }
    _write_json(os.path.join(cfg.out, "plan.json"), payload)
    manifest = _write_manifest(cfg, "plan", ["plan.json"])

    r = resolved_plan.ratios
    click.echo(f"params: alpha={params.alpha:g} beta={params.beta:g} gamma={params.gamma:g}")
    click.echo(
        "ratios: p_f=%.4f p_uf=%.4f up_f=%.4f up_uf=%.4f" % r
    )
    click.echo("caps: " + " ".join(f"{k}={v}" for k, v in caps.items()))
    click.echo(f"size bound at this point: {point_bound}")
    click.echo(f"common feasible size over the lattice: {lattice_bound}")
    click.echo(f"restrictions: {'ok' if restrictions.ok else 'violated ' + str(restrictions.violated)}")
    click.echo(f"wrote plan.json and {manifest} in {cfg.out}")


@main.command()
@_common
@_guard
def baseline(config_path, seed, out_dir):
    """Train every configured classifier on the raw training split."""
    cfg = load_config(config_path, seed=seed, out=out_dir)
    parts = _splits(cfg, 2)
    train, held_out = parts[0], parts[1]
    rows = []
    for label, spec in zip(cfg.labels, cfg.classifiers):
        try:
            model = fit(spec, train)
            report = metric_report(
                predict_labels(model, held_out, BASELINE_THRESHOLD), cfg.grid.weights
            )
            rows.append([label, *_metric_cells(report), ""])
        except TrainingError as exc:
            rows.append([label, *_metric_cells(None), str(exc)])
    _ensure_out(cfg)
    table = os.path.join(cfg.out, "baseline.csv")
    _write_table(table, ("classifier", *TABLE_COLUMNS, "note"), rows)
    manifest = _write_manifest(cfg, "baseline", ["baseline.csv"])
    click.echo(f"wrote {table} and {manifest}")


@main.command()
@_common
@_guard
def setups(config_path, seed, out_dir):
    """Benchmark the four named sampling setups."""
    cfg = load_config(config_path, seed=seed, out=out_dir)
    parts = _splits(cfg, 2)
    train, held_out = parts[0], parts[1]
    counts = quadrant_counts(train)
    rows = []
    for name in PRESET_NAMES:
        try:
            params = preset_plan(counts, name).params
            # each setup gets the largest sample its own targets allow
            size = bound_at(counts, params)
        except FairsampleError as exc:
            for label in cfg.labels:
                rows.append([name, label, *_metric_cells(None), f"infeasible: {exc}"])
            continue
        for label, spec in zip(cfg.labels, cfg.classifiers):
            point = inspect_point(
                train, held_out, params, spec, BASELINE_THRESHOLD, cfg.grid.weights, size, cfg.seed
            )
            rows.append([name, label, *_metric_cells(point.report), point.error or ""])
    _ensure_out(cfg)
    table = os.path.join(cfg.out, "setups.csv")
    _write_table(table, ("setup", "classifier", *TABLE_COLUMNS, "note"), rows)
    manifest = _write_manifest(cfg, "setups", ["setups.csv"])
    click.echo(f"wrote {table} and {manifest}")


def _knob_cells(params: BalanceParams, threshold: float) -> list[str]:
    """alpha, beta, gamma and threshold as table cells: each the shortest
    fixed-point text with at least 2 decimals that reads back as the
    same float (0.5 is 0.50, 0.375 is 0.375)."""
    cells = []
    for value in (*params.as_tuple(), threshold):
        places = 2
        while float(text := f"{value:.{places}f}") != value:
            places += 1
        cells.append(text)
    return cells


def _front_rows(points) -> list[list[str]]:
    return [
        [
            render(p.report.mcc_loss, 6),
            render(p.report.di_loss, 6),
            *_knob_cells(p.params, p.threshold),
        ]
        for p in points
    ]


FRONT_HEADER = ("mcc_loss", "di_loss", "alpha", "beta", "gamma", "threshold")


@main.command()
@_common
@_guard
def search(config_path, seed, out_dir):
    """Two-level knob search per classifier, with Pareto exports."""
    cfg = load_config(config_path, seed=seed, out=out_dir)
    parts = _splits(cfg, 3)
    train, eval0, eval1 = parts[0], parts[1], parts[2]
    _ensure_out(cfg)

    outputs = []
    optimal_rows = []
    state_entries = []
    anything_valid = False
    for label, spec in zip(cfg.labels, cfg.classifiers):
        points_name = f"points_{label}.jsonl"
        with open(os.path.join(cfg.out, points_name), "w") as stream:
            def sink(point: EvaluationPoint, line: str) -> None:
                stream.write(line + "\n")

            result = full_search(
                train, eval0, eval1, spec, cfg.grid, seed=cfg.seed, sink=sink
            )
        outputs.append(points_name)

        level0_name = f"pareto_level0_{label}.csv"
        level1_name = f"pareto_level1_{label}.csv"
        _write_table(
            os.path.join(cfg.out, level0_name),
            FRONT_HEADER,
            _front_rows(pareto_front(result.level0).points),
        )
        _write_table(
            os.path.join(cfg.out, level1_name), FRONT_HEADER, _front_rows(result.front.points)
        )
        outputs.extend([level0_name, level1_name])

        best = result.best
        if best is None:
            click.echo(f"warning: no valid evaluation point for {label}", err=True)
            optimal_rows.append(
                [label, "NaN", "NaN", "NaN", "NaN", str(result.size), *_metric_cells(None), "no valid points"]
            )
            state_entries.append({"label": label, "spec": spec.to_dict(), "valid": False})
            continue
        anything_valid = True
        optimal_rows.append(
            [
                label,
                *_knob_cells(best.params, best.threshold),
                str(best.size),
                *_metric_cells(best.report),
                "",
            ]
        )
        state_entries.append(
            {
                "label": label,
                "spec": spec.to_dict(),
                "valid": True,
                "alpha": best.params.alpha,
                "beta": best.params.beta,
                "gamma": best.params.gamma,
                "threshold": best.threshold,
                "seed": best.seed,
                "size": best.size,
            }
        )

    optimal_name = "optimal.csv"
    _write_table(
        os.path.join(cfg.out, optimal_name),
        ("classifier", "alpha", "beta", "gamma", "threshold", "size", *TABLE_COLUMNS, "note"),
        optimal_rows,
    )
    state_name = "search_state.json"
    _write_json(
        os.path.join(cfg.out, state_name),
        {"classifiers": state_entries, "config": cfg.resolved},
    )
    outputs.extend([optimal_name, state_name])
    manifest = _write_manifest(cfg, "search", outputs)
    click.echo(f"wrote {optimal_name}, {state_name}, point streams and fronts in {cfg.out} ({manifest})")
    if not anything_valid:
        raise FairsampleError(
            "no classifier produced a valid evaluation point; "
            "check the dataset's quadrant counts and the classifier list"
        )


# the config keys that pick the data and the samples a stored optimum
# was trained on; report re-scores it only when these match
_SEARCH_KEYS = ("dataset", "schema", "split", "seed")


def _stored_optima(path: str, cfg: RunConfig) -> list[tuple[Any, tuple | None]]:
    """(label, optimum) per entry of a search_state.json: (spec, knobs,
    threshold, sample size, sample seed), or None where the search found
    no valid point. A file unlike what search writes, or one whose
    config differs from cfg in a key of _SEARCH_KEYS, is an InputError."""
    try:
        with open(path) as fh:
            state = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read results {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"results {path!r} are not valid JSON: {exc}") from exc
    entries = state.get("classifiers", []) if isinstance(state, dict) else None
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise InputError(f"results {path!r} must map classifiers to a list of entries")
    optima: list[tuple[Any, tuple | None]] = []
    for entry in entries:
        label = entry.get("label", "?")
        if not entry.get("valid"):
            optima.append((label, None))
            continue
        where = f"results {path!r}, classifier {label!r}"
        try:
            spec = _classifier(entry["spec"], 0)
            params = BalanceParams(entry["alpha"], entry["beta"], entry["gamma"])
            threshold = check_number(entry["threshold"], "threshold", 0.0, 1.0, "()")
            size = check_int(entry["size"], "size", 1)
            sample_seed = check_int(entry["seed"], "seed", bits=64)  # a point_seed
        except (KeyError, TypeError) as exc:
            raise InputError(f"{where} is malformed: {exc!r}") from exc
        except InputError as exc:
            raise InputError(f"{where}: {exc}") from exc
        optima.append((label, (spec, params, threshold, size, sample_seed)))
    searched = state.get("config")
    if not isinstance(searched, dict):
        raise InputError(f"results {path!r} hold no search config")
    for key in _SEARCH_KEYS:
        if key not in searched or searched[key] != cfg.resolved[key]:
            raise InputError(
                f"results {path!r} come from a search with another {key} "
                f"({searched.get(key)!r}; this config has {cfg.resolved[key]!r})"
            )
    return optima


@main.command()
@_common
@click.option("--results", "results_path", default=None,
              help="search_state.json from a previous search (default: <out>/search_state.json)")
@click.option("--test", "test_path", required=True, type=click.Path(),
              help="CSV of the larger held-out collection")
@_guard
def report(config_path, seed, out_dir, results_path, test_path):
    """Re-score the stored optimal models on a new test collection."""
    cfg = load_config(config_path, seed=seed, out=out_dir)
    if results_path is None:
        results_path = os.path.join(cfg.out, "search_state.json")
    optima = _stored_optima(results_path, cfg)
    try:
        larger = load_csv(test_path, cfg.effective_schema)
    except OSError as exc:
        raise InputError(f"cannot read test collection {test_path!r}: {exc}") from exc
    train = _splits(cfg, 2)[0]

    rows = []
    for label, optimum in optima:
        if optimum is None:
            rows.append([label, "NaN", "NaN", "NaN", "NaN", *_metric_cells(None), "no valid points"])
            continue
        spec, params, threshold, size, sample_seed = optimum
        # the stored seed and size pin the exact training sample, and
        # search's own evaluator trains and scores it
        point = inspect_point(
            train, larger, params, spec, threshold, cfg.grid.weights, size, sample_seed
        )
        if point.report is None:
            raise FairsampleError(f"cannot retrain the stored optimum of {label}: {point.error}")
        rows.append(
            [
                label,
                *_knob_cells(params, threshold),
                *_metric_cells(point.report),
                "",
            ]
        )
    _ensure_out(cfg)
    table = os.path.join(cfg.out, "report.csv")
    _write_table(table, ("classifier", "alpha", "beta", "gamma", "threshold", *TABLE_COLUMNS, "note"), rows)
    manifest = _write_manifest(cfg, "report", ["report.csv"])
    click.echo(f"wrote {table} and {manifest}")


if __name__ == "__main__":
    main()
