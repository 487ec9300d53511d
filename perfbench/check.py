"""Correctness gate for one search output directory.

Everything here reads the files ``fairsample search`` wrote and checks
them against what the workload asked for, recomputing the Pareto fronts
with a quadratic oracle instead of trusting the program's own front code.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

FRONT_HEADER = ["mcc_loss", "di_loss", "alpha", "beta", "gamma", "threshold"]
TABLE_COLUMNS = ("accuracy", "precision", "recall", "f1", "mcc", "di_ratio", "combined_loss")
PLACES = {"accuracy": 2, "precision": 2, "recall": 2, "f1": 2, "mcc": 3, "di_ratio": 3, "combined_loss": 3}
OPTIMAL_HEADER = ["classifier", "alpha", "beta", "gamma", "threshold", "size", *TABLE_COLUMNS, "note"]
REASONS = ("infeasible", "single_label", "training_error", "degenerate")


def render(value, places: int) -> str:
    return "NaN" if value is None else f"{value:.{places}f}"


def sort_key(p: dict) -> tuple:
    c = p["metrics"]["combined_loss"] if p["valid"] else None
    return (
        0 if c is not None else 1,
        c if c is not None else math.inf,
        p["alpha"],
        p["beta"],
        p["gamma"],
        p["threshold"],
    )


def invalid_reason(p: dict) -> str | None:
    """Why a point is invalid, read from its error and metrics fields."""
    if p["valid"]:
        return None
    error = p["error"]
    if error is None:
        return "degenerate"  # trained and scored, but MCC or DI is undefined
    if "no valid sample composition" in error or "records from quadrant" in error:
        return "infeasible"
    if "single label" in error:
        return "single_label"
    return "training_error"


def oracle_front(points: list[dict]) -> list[dict]:
    """Valid points no other valid point strictly dominates in
    (mcc_loss, di_loss); of equal coordinates the first in sort order
    stays. Ordered by (mcc_loss, di_loss, alpha, beta, gamma, threshold).
    Every pair is compared, in row blocks to bound memory."""
    cands = sorted((p for p in points if p["valid"]), key=sort_key)
    m = np.array([p["metrics"]["mcc_loss"] for p in cands], dtype=float)
    d = np.array([p["metrics"]["di_loss"] for p in cands], dtype=float)
    dominated = np.zeros(len(cands), dtype=bool)
    for s in range(0, len(cands), 256):
        block = (m[None, :] < m[s : s + 256, None]) & (d[None, :] < d[s : s + 256, None])
        dominated[s : s + 256] = block.any(axis=1)
    front, seen = [], set()
    for i, p in enumerate(cands):
        coords = (m[i], d[i])
        if dominated[i] or coords in seen:
            continue
        seen.add(coords)
        front.append(p)
    front.sort(
        key=lambda p: (p["metrics"]["mcc_loss"], p["metrics"]["di_loss"], *sort_key(p)[2:])
    )
    return front


def front_rows(front: list[dict]) -> list[list[str]]:
    return [
        [
            render(p["metrics"]["mcc_loss"], 6),
            render(p["metrics"]["di_loss"], 6),
            f"{p['alpha']:.2f}",
            f"{p['beta']:.2f}",
            f"{p['gamma']:.2f}",
            f"{p['threshold']:.2f}",
        ]
        for p in front
    ]


def weighted_best(front: list[dict]) -> dict:
    """The member select_optimal must pick; no workload sets loss weights,
    so both are 1."""
    return min(
        front,
        key=lambda p: (
            p["metrics"]["mcc_loss"] + p["metrics"]["di_loss"],
            p["alpha"],
            p["beta"],
            p["gamma"],
            p["threshold"],
        ),
    )


def optimal_row(label: str, best: dict) -> list[str]:
    return [
        label,
        f"{best['alpha']:.2f}",
        f"{best['beta']:.2f}",
        f"{best['gamma']:.2f}",
        f"{best['threshold']:.2f}",
        str(best["size"]),
        *(render(best["metrics"][c], PLACES[c]) for c in TABLE_COLUMNS),
        "",
    ]


def read_table(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_points(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def expected_level1(level0: list[dict], grid) -> dict[tuple[int, int, int], set[float]]:
    """Fine-lattice cells, with their wanted thresholds, that the top_k
    valid level-0 points' neighbourhoods cover (clipped to the cube)."""
    fine = round(1.0 / grid.level1_step)
    width = round((grid.level0_step if grid.neighborhood is None else grid.neighborhood) * fine)
    wanted: dict[tuple[int, int, int], set[float]] = {}
    winners = sorted((p for p in level0 if p["valid"]), key=sort_key)[: grid.top_k]
    for p in winners:
        mid = round(p["threshold"] * fine)
        thresholds = {j / fine for j in range(max(1, mid - width), min(fine - 1, mid + width) + 1)}
        center = [round(p[k] * fine) for k in ("alpha", "beta", "gamma")]
        spans = [range(max(0, c - width), min(fine, c + width) + 1) for c in center]
        for a in spans[0]:
            for b in spans[1]:
                for g in spans[2]:
                    wanted.setdefault((a, b, g), set()).update(thresholds)
    return wanted


def _cells(points: list[dict], fine: int) -> list[tuple[int, int, int]]:
    return [tuple(round(p[k] * fine) for k in ("alpha", "beta", "gamma")) for p in points]


def check_label(out_dir: str, label: str, kind: str, grid, size: int, problems: list[str]):
    """Checks one classifier's stream and fronts; returns (points, best)."""
    points = read_points(os.path.join(out_dir, f"points_{label}.jsonl"))
    fine = round(1.0 / grid.level1_step)
    coarse = round(1.0 / grid.level0_step)
    n0 = (coarse + 1) ** 3
    level0, level1 = points[:n0], points[n0:]
    ratio = fine // coarse
    lattice0 = {
        (a * ratio, b * ratio, g * ratio)
        for a in range(coarse + 1)
        for b in range(coarse + 1)
        for g in range(coarse + 1)
    }
    cells0 = _cells(level0, fine)
    if len(level0) != n0 or set(cells0) != lattice0 or len(set(cells0)) != n0:
        problems.append(f"{label}: the first {n0} points are not the level-0 lattice")
    if any(p["threshold"] not in grid.thresholds for p in level0):
        problems.append(f"{label}: a level-0 threshold is off the threshold grid")
    wanted = expected_level1(level0, grid)
    cells1 = _cells(level1, fine)
    if len(cells1) != len(wanted) or set(cells1) != set(wanted):
        problems.append(
            f"{label}: level 1 has {len(level1)} points, the top_k neighbourhoods cover {len(wanted)}"
        )
    elif any(p["threshold"] not in wanted[c] for p, c in zip(level1, cells1)):
        problems.append(f"{label}: a level-1 threshold is outside its refined list")
    for name, level in (("level 0", level0), ("level 1", level1)):
        if [sort_key(p) for p in level] != sorted(sort_key(p) for p in level):
            problems.append(f"{label}: {name} points are not in sort order")
    if any(p["size"] != size for p in points):
        problems.append(f"{label}: a point's size differs from the common size {size}")
    if any(p["classifier"] != kind for p in points):
        problems.append(f"{label}: a point names another classifier")

    best = None
    for name, level in (("level0", level0), ("level1", level1)):
        front = oracle_front(level)
        table = read_table(os.path.join(out_dir, f"pareto_{name}_{label}.csv"))
        if table[:1] != [FRONT_HEADER] or table[1:] != front_rows(front):
            problems.append(f"{label}: pareto_{name}_{label}.csv differs from the oracle front")
        if name == "level1":
            if front:
                best = weighted_best(front)
            else:
                problems.append(f"{label}: no valid level-1 point")
    return points, best


def check_search(out_dir: str, workload, size: int) -> tuple[list[str], dict]:
    """All checks on one output directory; returns (problems, summary)."""
    problems: list[str] = []
    grid = workload.grid
    summary = {"points": 0, "invalid": {r: 0 for r in REASONS}, "optimum_loss": None}
    expected_rows = [OPTIMAL_HEADER]
    for label, spec in zip(workload.labels, workload.classifiers):
        try:
            points, best = check_label(out_dir, label, spec["kind"], grid, size, problems)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{label}: unreadable output ({exc!r})")
            continue
        summary["points"] += len(points)
        for p in points:
            reason = invalid_reason(p)
            if reason is not None:
                summary["invalid"][reason] += 1
        if best is not None:
            expected_rows.append(optimal_row(label, best))
            loss = best["metrics"]["combined_loss"]
            if summary["optimum_loss"] is None or loss > summary["optimum_loss"]:
                summary["optimum_loss"] = loss
    try:
        if read_table(os.path.join(out_dir, "optimal.csv")) != expected_rows:
            problems.append("optimal.csv is not each front's weighted minimum")
        with open(os.path.join(out_dir, "manifest_search.json")) as fh:
            config = json.load(fh)["config"]
        resolved = {"grid": config["grid"], "weights": config["weights"]}
        asked = {
            "grid": {
                "level0_step": grid.level0_step,
                "level1_step": grid.level1_step,
                "top_k": grid.top_k,
                "neighborhood": grid.neighborhood,
                "thresholds": list(grid.thresholds),
            },
            "weights": {"c_mcc": 1.0, "c_di": 1.0},
        }
        if resolved != asked:
            problems.append(f"manifest grid and weights {resolved} are not the workload's {asked}")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable output ({exc!r})")
    return problems, summary


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file the search wrote."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out
