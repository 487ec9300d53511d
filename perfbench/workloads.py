"""The benchmark's workloads and the inputs each one writes from a seed.

Every workload is one ``fairsample search`` run. The program sees only
the files written here: a config, and for ``mixed-csv`` a CSV whose rows
come from the workload seed. Paths are relative to the checkout root so
that the manifests the program writes, and so the output digests, do
not depend on where the checkout lives.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
W1_QUADRANTS = (9000, 90, 900, 30)
FRACTIONS = (0.7, 0.15, 0.15)
SPLIT_SEED = 0


@dataclass(frozen=True)
class Grid:
    """The grid a workload asks for, as the checker expects it resolved."""

    level0_step: float = 0.1
    level1_step: float = 0.01
    top_k: int = 5
    neighborhood: float | None = None
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS

    def section(self) -> dict:
        """The YAML grid section; defaults are left out."""
        out = {}
        base = Grid()
        for key in ("level0_step", "level1_step", "top_k", "neighborhood"):
            if getattr(self, key) != getattr(base, key):
                out[key] = getattr(self, key)
        if self.thresholds != base.thresholds:
            out["thresholds"] = list(self.thresholds)
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    quadrants: tuple[int, int, int, int]
    grid: Grid
    classifiers: tuple[dict, ...]
    csv: bool = False

    @property
    def labels(self) -> tuple[str, ...]:
        """Output labels: the program names repeated kinds kind, kind_2, ..."""
        seen: dict[str, int] = {}
        labels = []
        for c in self.classifiers:
            n = seen.get(c["kind"], 0) + 1
            seen[c["kind"]] = n
            labels.append(c["kind"] if n == 1 else f"{c['kind']}_{n}")
        return tuple(labels)


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP W1 unchanged: per-point overhead (sweep, plans, draws, front)
        Workload(
            name="acceptance-logistic",
            quadrants=W1_QUADRANTS,
            grid=Grid(),
            classifiers=({"kind": "logistic"},),
        ),
        # W1's data and level 0, but level 1 covers the whole 0.05 cube
        # (neighbourhood 1), so its 9,261 points, each with 19 thresholds,
        # do not depend on where the seed puts the winners; W1's level 1
        # ranges from 19k to 42k points over seeds 0-9
        Workload(
            name="fullcube-logistic",
            quadrants=W1_QUADRANTS,
            grid=Grid(level1_step=0.05, top_k=1, neighborhood=1.0),
            classifiers=({"kind": "logistic"},),
        ),
        # ROADMAP W3 composition: few points, large samples, fit-bound
        Workload(
            name="scale-logistic",
            quadrants=(90000, 9000, 30000, 9000),
            grid=Grid(level0_step=0.25, level1_step=0.05, top_k=1, neighborhood=0.05),
            classifiers=({"kind": "logistic"},),
        ),
        # CSV input: load_csv, FeaturePipeline, general logistic route, forest
        Workload(
            name="mixed-csv",
            quadrants=W1_QUADRANTS,
            grid=Grid(level0_step=0.2, level1_step=0.05, top_k=1, neighborhood=0.05),
            classifiers=(
                {"kind": "logistic"},
                {"kind": "forest", "params": {"n_trees": 8}, "seed": 1},
            ),
            csv=True,
        ),
        # seconds-long, for the benchmark's own tests; not in BENCHMARK.json
        Workload(
            name="smoke",
            quadrants=(520, 60, 130, 40),
            grid=Grid(
                level0_step=0.5,
                level1_step=0.25,
                top_k=2,
                neighborhood=0.25,
                thresholds=(0.25, 0.5, 0.75),
            ),
            classifiers=({"kind": "logistic"},),
        ),
    )
}

CHANNELS = ("web", "store", "phone", "mail", "kiosk")
CHANNEL_P = (0.45, 0.30, 0.15, 0.08, 0.02)  # kiosk is the rare level
MIXED_SCHEMA = {
    "features": [
        {"name": "x1", "kind": "numeric"},
        {"name": "x2", "kind": "numeric"},
        {"name": "x3", "kind": "numeric"},
        {"name": "z", "kind": "numeric"},
        {"name": "channel", "kind": "categorical"},
    ],
    "label": "y",
    "favourable": "0",
    "unfavourable": "1",
    "sensitive": "group",
    "privileged_value": "p",
}


def write_mixed_csv(path: str, quadrants: tuple[int, int, int, int], seed: int) -> None:
    """Rows with exact quadrant counts; every value derives from seed.

    x1..x3 shift with the label, z with the group (a planted shortcut),
    and channel is drawn from fixed level shares, with the unfavourable
    rows leaning away from the first level so the column carries signal.
    """
    rng = np.random.default_rng([seed, 0x6D697865])
    rows = []
    for count, privileged, unfavourable in zip(
        quadrants, (True, True, False, False), (False, True, False, True)
    ):
        x = rng.normal(size=(count, 4))
        if unfavourable:
            x[:, :3] += (2.5, 2.0, 1.5)
        x[:, 3] += 1.5 if privileged else -1.5
        shares = np.array(CHANNEL_P)
        if unfavourable:
            shares = shares * (0.5, 1.2, 1.3, 1.5, 1.0)
            shares = shares / shares.sum()
        channel = rng.choice(len(CHANNELS), size=count, p=shares)
        group = "p" if privileged else "up"
        label = "1" if unfavourable else "0"
        for i in range(count):
            rows.append(
                [*(repr(float(v)) for v in x[i]), CHANNELS[channel[i]], group, label]
            )
    order = rng.permutation(len(rows))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "x3", "z", "channel", "group", "y"])
        writer.writerows(rows[i] for i in order)


def write_inputs(w: Workload, seed: int, in_dir: str) -> str:
    """Write the workload's inputs for seed under in_dir; returns the config path.

    The run seed reaches the program as ``--seed``; the config's own seed
    is left at its default, so acceptance-logistic at seed 0 is ROADMAP's
    W1 config exactly.
    """
    os.makedirs(in_dir, exist_ok=True)
    config: dict = {}
    if w.csv:
        data_path = os.path.join(in_dir, "data.csv")
        write_mixed_csv(data_path, w.quadrants, seed)
        config["dataset"] = {"csv": data_path}
        config["schema"] = MIXED_SCHEMA
    else:
        config["dataset"] = {"synthetic": {"quadrants": list(w.quadrants), "bias": 1.0}}
    config["split"] = {"fractions": list(FRACTIONS), "seed": SPLIT_SEED}
    grid = w.grid.section()
    if grid:
        config["grid"] = grid
    config["classifiers"] = [dict(c) for c in w.classifiers]
    path = os.path.join(in_dir, "config.yaml")
    with open(path, "w") as fh:
        # JSON is valid YAML
        json.dump(config, fh, indent=2)
        fh.write("\n")
    return path


def train_counts(quadrants: tuple[int, ...]) -> tuple[int, ...]:
    """Per-quadrant training-split size, from the split rule itself:
    every part but the first gets floor(fraction * count), the first
    gets the rest."""
    return tuple(
        q - sum(int(f * q) for f in FRACTIONS[1:]) for q in quadrants
    )
