"""Datasets with a binary label and a binary sensitive attribute.

Every record falls into one of four quadrants: privileged/unprivileged
crossed with favourable/unfavourable. All sampling and metric code in
this package works on those quadrants, so the dataset layer's job is to
classify records into them deterministically and keep that classification
stable through splits and samples.
"""
from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import InputError, RowError, SchemaError, check_fitted, check_int, check_number

FEATURE_KINDS = ("numeric", "categorical")


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in FEATURE_KINDS:
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")


@dataclass(frozen=True)
class Schema:
    """Column roles for a CSV file.

    The sensitive attribute is binarised either by an equality test on a
    categorical value (privileged_value) or by a numeric threshold
    (privileged_min, privileged means value >= threshold). Exactly one of
    the two must be given.
    """

    features: tuple[FeatureSpec, ...]
    label: str
    favourable: str
    unfavourable: str
    sensitive: str
    privileged_value: str | None = None
    privileged_min: float | None = None

    def __post_init__(self):
        names = [f.name for f in self.features]
        if not names:
            raise SchemaError("schema needs at least one feature")
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        if self.label in names:
            raise SchemaError("label column cannot also be a feature")
        if self.sensitive == self.label:
            raise SchemaError("label column cannot also be the sensitive column")
        if self.favourable == self.unfavourable:
            raise SchemaError("favourable and unfavourable label values must differ")
        given = (self.privileged_value is not None) + (self.privileged_min is not None)
        if given != 1:
            raise SchemaError("exactly one of privileged_value / privileged_min required")
        if self.privileged_min is not None:
            object.__setattr__(self, "privileged_min", check_number(self.privileged_min, "privileged_min"))

    @property
    def columns(self) -> tuple[str, ...]:
        cols = [f.name for f in self.features]
        if self.sensitive not in cols:
            cols.append(self.sensitive)
        cols.append(self.label)
        return tuple(cols)


@dataclass(frozen=True)
class QuadrantCounts:
    """Record counts of the four privilege x favourability cells."""

    p_f: int
    p_uf: int
    up_f: int
    up_uf: int

    def __post_init__(self):
        for name, v in zip(QUADRANT_NAMES, self.as_tuple()):
            object.__setattr__(self, name, check_int(v, f"quadrant count {name}"))

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.p_f, self.p_uf, self.up_f, self.up_uf)

    @property
    def total(self) -> int:
        return self.p_f + self.p_uf + self.up_f + self.up_uf

    @property
    def privileged(self) -> int:
        return self.p_f + self.p_uf

    @property
    def unprivileged(self) -> int:
        return self.up_f + self.up_uf

    @property
    def favourable(self) -> int:
        return self.p_f + self.up_f

    @property
    def unfavourable(self) -> int:
        return self.p_uf + self.up_uf


QUADRANT_NAMES = ("p_f", "p_uf", "up_f", "up_uf")


@dataclass(frozen=True)
class Dataset:
    """Immutable columnar dataset.

    columns maps feature/sensitive names to arrays (float64 for numeric,
    object of str otherwise). unfavourable and privileged are boolean
    views of the label and sensitive columns. row_ids are stable
    identifiers inherited from the source file/generator; splits and
    samples carry them through so a record can be traced back to its
    source row.
    """

    schema: Schema
    columns: dict[str, np.ndarray]
    unfavourable: np.ndarray
    privileged: np.ndarray
    row_ids: np.ndarray

    def __post_init__(self):
        n = len(self.unfavourable)
        if len(self.privileged) != n or len(self.row_ids) != n:
            raise InputError("dataset arrays disagree on length")
        for name, col in self.columns.items():
            if len(col) != n:
                raise InputError(f"column {name!r} disagrees on length")
        for arr in (self.unfavourable, self.privileged, self.row_ids, *self.columns.values()):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.unfavourable)

    def take(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            schema=self.schema,
            columns={name: col[idx].copy() for name, col in self.columns.items()},
            unfavourable=self.unfavourable[idx].copy(),
            privileged=self.privileged[idx].copy(),
            row_ids=self.row_ids[idx].copy(),
        )

    def quadrant_indices(self) -> dict[str, np.ndarray]:
        # cached: the grid search asks for the same pools thousands of
        # times and the arrays are immutable anyway
        cached = self.__dict__.get("_quadrant_cache")
        if cached is None:
            p, uf = self.privileged, self.unfavourable
            cached = {
                "p_f": np.flatnonzero(p & ~uf),
                "p_uf": np.flatnonzero(p & uf),
                "up_f": np.flatnonzero(~p & ~uf),
                "up_uf": np.flatnonzero(~p & uf),
            }
            object.__setattr__(self, "_quadrant_cache", cached)
        return cached


def quadrant_counts(d: Dataset) -> QuadrantCounts:
    pools = d.quadrant_indices()
    return QuadrantCounts(
        p_f=len(pools["p_f"]),
        p_uf=len(pools["p_uf"]),
        up_f=len(pools["up_f"]),
        up_uf=len(pools["up_uf"]),
    )


def load_csv(path: str, schema: Schema) -> Dataset:
    """Read a CSV file against a schema.

    Errors: missing columns raise SchemaError; a label value outside the
    two declared ones raises SchemaError naming the row; an unparseable
    or non-finite numeric cell raises RowError with the 0-based data row
    index.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, no header row") from None
        pos = {name: i for i, name in enumerate(header)}
        missing = [c for c in schema.columns if c not in pos]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        rows = list(reader)

    n = len(rows)
    numeric_names = [f.name for f in schema.features if f.kind == "numeric"]
    cat_names = [f.name for f in schema.features if f.kind == "categorical"]
    numeric_cols = {name: np.empty(n, dtype=float) for name in numeric_names}
    cat_cols = {name: np.empty(n, dtype=object) for name in cat_names}
    unfav = np.empty(n, dtype=bool)
    sens_numeric = schema.privileged_min is not None
    sens_values = np.empty(n, dtype=float if sens_numeric else object)

    width = max(pos[c] for c in schema.columns) + 1
    for i, row in enumerate(rows):
        if len(row) < width:
            raise RowError(i, f"expected at least {width} cells, got {len(row)}")
        for name in numeric_names:
            cell = row[pos[name]]
            try:
                numeric_cols[name][i] = float(cell)
            except ValueError:
                raise RowError(i, f"column {name!r}: {cell!r} is not a number") from None
        for name in cat_names:
            cat_cols[name][i] = row[pos[name]]
        cell = row[pos[schema.label]]
        if cell == schema.unfavourable:
            unfav[i] = True
        elif cell == schema.favourable:
            unfav[i] = False
        else:
            raise SchemaError(
                f"row {i}: label value {cell!r} is neither "
                f"{schema.favourable!r} nor {schema.unfavourable!r}"
            )
        cell = row[pos[schema.sensitive]]
        if sens_numeric:
            try:
                sens_values[i] = float(cell)
            except ValueError:
                raise RowError(
                    i, f"sensitive column {schema.sensitive!r}: {cell!r} is not a number"
                ) from None
        else:
            sens_values[i] = cell

    # float() also parses nan, inf and overflowing literals such as 1e999
    checked = [("column", name, numeric_cols[name]) for name in numeric_names]
    if sens_numeric:
        checked.append(("sensitive column", schema.sensitive, sens_values))
    for what, name, values in checked:
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            i = int(bad[0])
            raise RowError(i, f"{what} {name!r}: {rows[i][pos[name]]!r} is not a finite number")
    if sens_numeric:
        priv = sens_values >= schema.privileged_min
    else:
        priv = sens_values == schema.privileged_value

    columns: dict[str, np.ndarray] = {}
    columns.update(numeric_cols)
    columns.update(cat_cols)
    if schema.sensitive not in columns:
        columns[schema.sensitive] = sens_values
    return Dataset(
        schema=schema,
        columns=columns,
        unfavourable=unfav,
        privileged=priv,
        row_ids=np.arange(n, dtype=np.int64),
    )


def write_csv(d: Dataset, path: str) -> None:
    """Emit a dataset back to CSV in schema column order."""
    schema = d.schema
    names = list(schema.columns)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        label_of = {True: schema.unfavourable, False: schema.favourable}
        for i in range(len(d)):
            row = []
            for name in names:
                if name == schema.label:
                    row.append(label_of[bool(d.unfavourable[i])])
                else:
                    v = d.columns[name][i]
                    row.append(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v))
            writer.writerow(row)


def split_fractions(fractions: Sequence[float], name: str = "split fractions") -> tuple[float, ...]:
    """The parts stratified_split cuts: a list of two or more positive
    numbers that sum to 1."""
    fracs = fractions if isinstance(fractions, (list, tuple)) else ()
    try:
        fracs = tuple(check_number(f, name, 0.0, 1.0, "(]") for f in fracs)
    except InputError:
        fracs = ()
    if len(fracs) < 2 or abs(sum(fracs) - 1.0) > 1e-9:
        raise InputError(
            f"{name} must be a list of two or more positive numbers that sum to 1, got {fractions!r}"
        )
    return fracs


def stratified_split(
    d: Dataset, fractions: Sequence[float], seed: int
) -> tuple[Dataset, ...]:
    """Split per quadrant so every part mirrors the quadrant mix.

    Each quadrant is shuffled with its own deterministic order and cut
    into len(fractions) parts; sizes are floors of fraction * count and
    any leftover records go to the first part. The parts' index sets
    partition the input.
    """
    fracs = split_fractions(fractions)
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[] for _ in fracs]
    for name in QUADRANT_NAMES:
        idx = d.quadrant_indices()[name]
        if len(idx) < len(fracs):
            warnings.warn(
                f"quadrant {name} has {len(idx)} records for a "
                f"{len(fracs)}-way split; some parts will be empty",
                stacklevel=2,
            )
        perm = rng.permutation(idx)
        sizes = [int(f * len(idx)) for f in fracs]
        sizes[0] += len(idx) - sum(sizes)
        start = 0
        for k, size in enumerate(sizes):
            parts[k].append(perm[start : start + size])
            start += size
    out = []
    for chunks in parts:
        merged = np.sort(np.concatenate(chunks)) if chunks else np.empty(0, dtype=np.intp)
        out.append(d.take(merged))
    return tuple(out)


# ---------------------------------------------------------------------------
# synthetic data

SYNTHETIC_FEATURES = ("x1", "x2", "x3", "z")
_SIGNAL_SHIFT = (2.5, 2.0, 1.5)  # per-feature mean shift of the unfavourable class
_NUISANCE_SHIFT = 1.5  # privilege-group separation of z at bias 1

SYNTHETIC_SCHEMA = Schema(
    features=tuple(FeatureSpec(n, "numeric") for n in SYNTHETIC_FEATURES),
    label="y",
    favourable="0",
    unfavourable="1",
    sensitive="group",
    privileged_value="p",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-bias generator settings.

    quadrants gives the exact record counts (p_f, p_uf, up_f, up_uf).
    bias in [0, 1] scales how strongly the nuisance feature z separates
    the privilege groups; at 0 it is pure noise, so any label signal a
    model finds in z at bias > 0 is the planted shortcut. noise scales
    every feature's standard deviation.
    """

    quadrants: tuple[int, int, int, int]
    bias: float = 1.0
    noise: float = 1.0

    def __post_init__(self):
        try:
            counts = QuadrantCounts(*self.quadrants)
        except (InputError, TypeError):
            raise InputError(
                f"quadrants must be four non-negative integers, got {self.quadrants!r}"
            ) from None
        object.__setattr__(self, "quadrants", counts.as_tuple())
        object.__setattr__(self, "bias", check_number(self.bias, "bias", 0.0, 1.0))
        object.__setattr__(self, "noise", check_number(self.noise, "noise", 0.0, ends="()"))

    @property
    def counts(self) -> QuadrantCounts:
        return QuadrantCounts(*self.quadrants)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Draw a dataset with exact quadrant counts and a planted bias.

    Signal features x1..x3 are Gaussians whose means shift with the
    label, identically in both privilege groups. The nuisance z shifts
    with the privilege group only, scaled by bias, so its association
    with the label is exactly the label/privilege association already
    present in the quadrant composition.
    """
    rng = np.random.default_rng(seed)
    c = spec.counts
    n = c.total
    quads = (
        (c.p_f, True, False),
        (c.p_uf, True, True),
        (c.up_f, False, False),
        (c.up_uf, False, True),
    )
    priv = np.empty(n, dtype=bool)
    unfav = np.empty(n, dtype=bool)
    X = np.empty((n, 4), dtype=float)
    start = 0
    for count, is_p, is_uf in quads:
        stop = start + count
        priv[start:stop] = is_p
        unfav[start:stop] = is_uf
        block = rng.normal(scale=spec.noise, size=(count, 4))
        if is_uf:
            block[:, :3] += _SIGNAL_SHIFT
        block[:, 3] += spec.bias * _NUISANCE_SHIFT * (1.0 if is_p else -1.0)
        X[start:stop] = block
        start = stop

    order = rng.permutation(n)
    priv, unfav, X = priv[order], unfav[order], X[order]
    columns = {name: X[:, i].copy() for i, name in enumerate(SYNTHETIC_FEATURES)}
    group = np.empty(n, dtype=object)
    group[:] = "up"
    group[priv] = "p"
    columns["group"] = group
    return Dataset(
        schema=SYNTHETIC_SCHEMA,
        columns=columns,
        unfavourable=unfav,
        privileged=priv,
        row_ids=np.arange(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# feature pipeline

@dataclass(frozen=True)
class FeatureBlock:
    """Half-open column range [start, stop) one source feature occupies."""

    name: str
    kind: str
    start: int
    stop: int
    categories: tuple[str, ...] | None = None


def one_hot(values: np.ndarray, categories: Sequence[str]) -> np.ndarray:
    """(len(values), len(categories)) matrix of 0/1 floats, one column
    per category; a value outside categories encodes as an all-zero row."""
    return (values[:, None] == np.asarray(categories, dtype=object)[None, :]).astype(float)


def _moments(values: np.ndarray) -> tuple[float, float]:
    """A numeric column's mean and scale: its standard deviation, or 1
    where that is 0 or the column is empty, so standardising stays finite."""
    if not len(values):
        return 0.0, 1.0
    return float(values.mean()), float(values.std()) or 1.0


class FeaturePipeline:
    """One-hot encoding plus standardisation, fitted on training data.

    Numeric features are centred and scaled by the training standard
    deviation (a constant column gets scale 1 so transform stays
    finite). Categorical features become one one-hot block each, with
    categories fixed at fit time in sorted order; a category unseen
    during fit encodes as an all-zero block.
    """

    def __init__(self):
        self.features_: tuple[FeatureSpec, ...] | None = None
        self.blocks_: tuple[FeatureBlock, ...] | None = None
        self.means_: dict[str, float] | None = None
        self.scales_: dict[str, float] | None = None

    def fit(self, d: Dataset) -> "FeaturePipeline":
        means: dict[str, float] = {}
        scales: dict[str, float] = {}
        blocks: list[FeatureBlock] = []
        col = 0
        for f in d.schema.features:
            if f.kind == "numeric":
                means[f.name], scales[f.name] = _moments(d.columns[f.name])
                blocks.append(FeatureBlock(f.name, "numeric", col, col + 1))
                col += 1
            else:
                cats = tuple(sorted(set(d.columns[f.name].tolist())))
                blocks.append(
                    FeatureBlock(f.name, "categorical", col, col + len(cats), cats)
                )
                col += len(cats)
        self.features_ = d.schema.features
        self.blocks_ = tuple(blocks)
        self.means_ = means
        self.scales_ = scales
        return self

    def encode(self, d: Dataset) -> np.ndarray:
        """Unscaled feature matrix: numeric columns as they are, each
        categorical feature as its fitted one-hot block."""
        check_fitted(self, "blocks_")
        if d.schema.features != self.features_:
            raise SchemaError("dataset features do not match the fitted pipeline")
        return np.column_stack(
            [
                d.columns[b.name]
                if b.kind == "numeric"
                else one_hot(d.columns[b.name], b.categories)
                for b in self.blocks_
            ]
        )

    def transform(self, d: Dataset) -> np.ndarray:
        return self.standardise(self.encode(d))

    def standardise(self, encoded: np.ndarray) -> np.ndarray:
        """Centre and scale, in place, the numeric columns of a matrix
        laid out as encode's; returns it."""
        check_fitted(self, "blocks_")
        for block in self.blocks_:
            if block.kind == "numeric":
                encoded[:, block.start] = (
                    encoded[:, block.start] - self.means_[block.name]
                ) / self.scales_[block.name]
        return encoded

    def fit_sample(self, encoded: np.ndarray) -> tuple["FeaturePipeline", list[int]]:
        """The pipeline fit gives a sample of the rows this one was fitted
        on, from encode's matrix of the sample's rows in the sample's
        order, and the columns of that matrix that make up the sample
        pipeline's encode. A numeric column's mean and scale are taken on
        a contiguous copy of it, as fit takes them. A one-hot block keeps
        the categories whose column is non-zero in the sample: categories
        are sorted, so these are fit's, in fit's order."""
        check_fitted(self, "blocks_")
        sample = FeaturePipeline()
        sample.features_, sample.means_, sample.scales_ = self.features_, {}, {}
        blocks: list[FeatureBlock] = []
        columns: list[int] = []
        for block in self.blocks_:
            start, categories = len(columns), None
            if block.kind == "numeric":
                values = np.ascontiguousarray(encoded[:, block.start])
                sample.means_[block.name], sample.scales_[block.name] = _moments(values)
                columns.append(block.start)
            else:
                kept = np.flatnonzero(encoded[:, block.start : block.stop].any(axis=0)).tolist()
                columns.extend(block.start + i for i in kept)
                categories = tuple(block.categories[i] for i in kept)
            blocks.append(FeatureBlock(block.name, block.kind, start, len(columns), categories))
        sample.blocks_ = tuple(blocks)
        return sample, columns

    def categorical_blocks(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) column ranges of the one-hot blocks."""
        check_fitted(self, "blocks_")
        return tuple(
            (b.start, b.stop) for b in self.blocks_ if b.kind == "categorical"
        )
