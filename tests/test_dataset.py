"""Dataset layer tests: CSV contracts, splits, pipeline, generator."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from scipy.stats import rankdata

from fairsample.base import InputError, NotFittedError, RowError, SchemaError
from fairsample.dataset import (
    Dataset,
    FeaturePipeline,
    FeatureSpec,
    QuadrantCounts,
    Schema,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    one_hot,
    quadrant_counts,
    stratified_split,
    write_csv,
)

TOY_SCHEMA = Schema(
    features=(
        FeatureSpec("income", "numeric"),
        FeatureSpec("region", "categorical"),
    ),
    label="y",
    favourable="0",
    unfavourable="1",
    sensitive="age",
    privileged_min=50.0,
)


def write_toy_csv(path, rows, header="age,income,region,y"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return str(path)


def quadrant_count_oracle(d: Dataset) -> tuple[int, int, int, int]:
    c = Counter()
    for i in range(len(d)):
        key = ("p" if d.privileged[i] else "up", "uf" if d.unfavourable[i] else "f")
        c[key] += 1
    return (c[("p", "f")], c[("p", "uf")], c[("up", "f")], c[("up", "uf")])


# ---------------------------------------------------------------------------
# loading

def test_load_csv_happy_path(tmp_path):
    path = write_toy_csv(
        tmp_path / "d.csv",
        ["63,10.5,north,0", "21,3.25,south,1", "50,7.0,north,0", "49,1.0,east,1"],
    )
    d = load_csv(path, TOY_SCHEMA)
    assert len(d) == 4
    assert d.privileged.tolist() == [True, False, True, False]
    assert d.unfavourable.tolist() == [False, True, False, True]
    assert d.columns["income"].tolist() == [10.5, 3.25, 7.0, 1.0]
    assert d.columns["region"].tolist() == ["north", "south", "north", "east"]
    assert d.columns["age"].tolist() == [63.0, 21.0, 50.0, 49.0]
    assert d.row_ids.tolist() == [0, 1, 2, 3]
    assert quadrant_counts(d).as_tuple() == (2, 0, 0, 2)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("age,income,y\n63,1.0,0\n")
    with pytest.raises(SchemaError, match="region"):
        load_csv(str(path), TOY_SCHEMA)


NOT_FINITE_OR_NOT_NUMBERS = ("oops", "nan", "inf", "-inf", "1e999")


@pytest.mark.parametrize("cell", NOT_FINITE_OR_NOT_NUMBERS)
def test_load_csv_bad_numeric_cell(tmp_path, cell):
    path = write_toy_csv(tmp_path / "d.csv", ["63,10.5,north,0", f"21,{cell},south,1"])
    with pytest.raises(RowError, match=f"row 1: column 'income': '{cell}'") as err:
        load_csv(path, TOY_SCHEMA)
    assert err.value.row == 1


def test_load_csv_bad_label_value(tmp_path):
    path = write_toy_csv(tmp_path / "d.csv", ["63,10.5,north,0", "21,3.0,south,maybe"])
    with pytest.raises(SchemaError, match="row 1"):
        load_csv(path, TOY_SCHEMA)


@pytest.mark.parametrize("cell", NOT_FINITE_OR_NOT_NUMBERS)
def test_load_csv_bad_sensitive_number(tmp_path, cell):
    path = write_toy_csv(tmp_path / "d.csv", ["63,10.5,north,0", f"{cell},10.5,north,0"])
    with pytest.raises(RowError, match=f"row 1: sensitive column 'age': '{cell}'"):
        load_csv(path, TOY_SCHEMA)


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("")
    with pytest.raises(SchemaError, match="empty"):
        load_csv(str(path), TOY_SCHEMA)


def test_load_csv_categorical_privilege(tmp_path):
    schema = Schema(
        features=(FeatureSpec("x", "numeric"),),
        label="ok",
        favourable="yes",
        unfavourable="no",
        sensitive="grp",
        privileged_value="a",
    )
    path = tmp_path / "d.csv"
    path.write_text("x,grp,ok\n1.0,a,yes\n2.0,b,no\n3.0,c,yes\n")
    d = load_csv(str(path), schema)
    assert d.privileged.tolist() == [True, False, False]
    assert d.unfavourable.tolist() == [False, True, False]


def test_schema_validation():
    with pytest.raises(SchemaError):
        Schema(
            features=(FeatureSpec("x", "numeric"), FeatureSpec("x", "categorical")),
            label="y",
            favourable="0",
            unfavourable="1",
            sensitive="s",
            privileged_value="a",
        )
    with pytest.raises(SchemaError, match="differ"):
        Schema(
            features=(FeatureSpec("x", "numeric"),),
            label="y",
            favourable="1",
            unfavourable="1",
            sensitive="s",
            privileged_value="a",
        )
    with pytest.raises(SchemaError, match="exactly one"):
        Schema(
            features=(FeatureSpec("x", "numeric"),),
            label="y",
            favourable="0",
            unfavourable="1",
            sensitive="s",
        )
    with pytest.raises(SchemaError, match="at least one feature"):
        Schema(
            features=(),
            label="y",
            favourable="0",
            unfavourable="1",
            sensitive="s",
            privileged_value="a",
        )
    with pytest.raises(SchemaError):
        FeatureSpec("x", "ordinal")


def test_dataset_arrays_are_read_only():
    d = generate_synthetic(SyntheticSpec(quadrants=(5, 5, 5, 5)), seed=0)
    with pytest.raises(ValueError):
        d.unfavourable[0] = False
    with pytest.raises(ValueError):
        d.columns["x1"][0] = 9.9


def test_round_trip_write_load(tmp_path):
    d = generate_synthetic(SyntheticSpec(quadrants=(30, 10, 12, 4), bias=0.7), seed=5)
    path = tmp_path / "out.csv"
    write_csv(d, str(path))
    back = load_csv(str(path), d.schema)
    assert len(back) == len(d)
    assert np.array_equal(back.unfavourable, d.unfavourable)
    assert np.array_equal(back.privileged, d.privileged)
    for name in ("x1", "x2", "x3", "z"):
        assert np.array_equal(back.columns[name], d.columns[name])


# ---------------------------------------------------------------------------
# quadrants and splits

def test_quadrant_counts_matches_oracle():
    d = generate_synthetic(SyntheticSpec(quadrants=(40, 25, 13, 7)), seed=2)
    assert quadrant_counts(d).as_tuple() == quadrant_count_oracle(d)
    assert quadrant_counts(d).as_tuple() == (40, 25, 13, 7)


def test_quadrant_counts_aggregates():
    c = QuadrantCounts(5, 7, 11, 13)
    assert c.total == 36
    assert c.privileged == 12
    assert c.unprivileged == 24
    assert c.favourable == 16
    assert c.unfavourable == 20


def test_split_preserves_quadrants_and_rounds_toward_train():
    d = generate_synthetic(SyntheticSpec(quadrants=(103, 52, 31, 14)), seed=3)
    train, eval_, test = stratified_split(d, (0.6, 0.2, 0.2), seed=9)
    for q, n in zip(("p_f", "p_uf", "up_f", "up_uf"), (103, 52, 31, 14)):
        n_train = quadrant_counts(train).as_tuple()[("p_f", "p_uf", "up_f", "up_uf").index(q)]
        n_eval = quadrant_counts(eval_).as_tuple()[("p_f", "p_uf", "up_f", "up_uf").index(q)]
        n_test = quadrant_counts(test).as_tuple()[("p_f", "p_uf", "up_f", "up_uf").index(q)]
        assert n_eval == int(0.2 * n)
        assert n_test == int(0.2 * n)
        assert n_train == n - n_eval - n_test
    # partition: ids are disjoint and cover the input
    all_ids = np.concatenate([train.row_ids, eval_.row_ids, test.row_ids])
    assert sorted(all_ids.tolist()) == sorted(d.row_ids.tolist())


def test_split_deterministic_and_seed_sensitive():
    d = generate_synthetic(SyntheticSpec(quadrants=(50, 20, 20, 10)), seed=4)
    a = stratified_split(d, (0.6, 0.2, 0.2), seed=1)
    b = stratified_split(d, (0.6, 0.2, 0.2), seed=1)
    c = stratified_split(d, (0.6, 0.2, 0.2), seed=2)
    for x, y in zip(a, b):
        assert np.array_equal(x.row_ids, y.row_ids)
    assert any(not np.array_equal(x.row_ids, y.row_ids) for x, y in zip(a, c))


def test_split_fraction_validation():
    d = generate_synthetic(SyntheticSpec(quadrants=(10, 10, 10, 10)), seed=5)
    with pytest.raises(InputError):
        stratified_split(d, (0.6, 0.2), seed=0)
    with pytest.raises(InputError):
        stratified_split(d, (0.7, -0.1, 0.4), seed=0)
    with pytest.raises(InputError):
        stratified_split(d, (1.0,), seed=0)


def test_split_warns_on_tiny_quadrant():
    d = generate_synthetic(SyntheticSpec(quadrants=(30, 30, 30, 2)), seed=6)
    with pytest.warns(UserWarning, match="up_uf"):
        parts = stratified_split(d, (0.6, 0.2, 0.2), seed=0)
    assert sum(len(p) for p in parts) == len(d)


def test_two_way_split_reproduces_reference_training_counts():
    # full-data quadrant counts chosen so a stratified 90/10 split with
    # floor-plus-leftover-to-train lands exactly on the reference
    # training-partition composition of the 1M-row fraud dataset
    full = (947791, 9548, 41180, 1480)
    d = generate_synthetic(SyntheticSpec(quadrants=full, bias=0.0), seed=7)
    train, test = stratified_split(d, (0.9, 0.1), seed=0)
    assert quadrant_counts(train).as_tuple() == (853012, 8594, 37062, 1332)
    assert quadrant_counts(test).as_tuple() == (
        947791 - 853012,
        9548 - 8594,
        41180 - 37062,
        1480 - 1332,
    )


# ---------------------------------------------------------------------------
# feature pipeline

def test_pipeline_layout_and_moments():
    d = generate_synthetic(SyntheticSpec(quadrants=(200, 50, 60, 20)), seed=8)
    pipe = FeaturePipeline()
    X = pipe.fit(d).transform(d)
    assert X.shape == (330, 4)
    assert np.allclose(X.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(X.std(axis=0), 1.0, atol=1e-9)


def test_pipeline_one_hot_and_unseen_category(tmp_path):
    schema = Schema(
        features=(FeatureSpec("x", "numeric"), FeatureSpec("c", "categorical")),
        label="y",
        favourable="0",
        unfavourable="1",
        sensitive="s",
        privileged_value="a",
    )
    path = tmp_path / "train.csv"
    path.write_text("x,c,s,y\n1.0,red,a,0\n2.0,blue,b,1\n3.0,red,a,0\n")
    train = load_csv(str(path), schema)
    pipe = FeaturePipeline().fit(train)
    X = pipe.transform(train)
    # blocks: x then one-hot over sorted categories (blue, red)
    assert X.shape == (3, 3)
    assert X[:, 1].tolist() == [0.0, 1.0, 0.0]  # blue
    assert X[:, 2].tolist() == [1.0, 0.0, 1.0]  # red
    assert pipe.categorical_blocks() == ((1, 3),)

    path2 = tmp_path / "new.csv"
    path2.write_text("x,c,s,y\n2.0,green,a,0\n")
    new = load_csv(str(path2), schema)
    X2 = pipe.transform(new)
    assert X2[0, 1:].tolist() == [0.0, 0.0]  # unseen category encodes as zeros


def test_one_hot_matches_a_row_loop():
    values = np.array(["b", "a", "zz", "c", "a", "b"], dtype=object)
    categories = ("a", "b", "c")
    want = np.zeros((len(values), len(categories)))
    for i, value in enumerate(values):
        if value in categories:
            want[i, categories.index(value)] = 1.0
    assert one_hot(values, categories).tolist() == want.tolist()
    assert one_hot(values[:0], categories).shape == (0, 3)


def test_pipeline_constant_column_scale_one(tmp_path):
    schema = Schema(
        features=(FeatureSpec("x", "numeric"),),
        label="y",
        favourable="0",
        unfavourable="1",
        sensitive="s",
        privileged_value="a",
    )
    path = tmp_path / "t.csv"
    path.write_text("x,s,y\n2.5,a,0\n2.5,b,1\n2.5,a,0\n")
    d = load_csv(str(path), schema)
    pipe = FeaturePipeline().fit(d)
    X = pipe.transform(d)
    assert np.all(np.isfinite(X))
    assert X[:, 0].tolist() == [0.0, 0.0, 0.0]


def test_pipeline_schema_mismatch_and_unfitted():
    d = generate_synthetic(SyntheticSpec(quadrants=(10, 5, 5, 5)), seed=9)
    pipe = FeaturePipeline()
    with pytest.raises(NotFittedError):
        pipe.transform(d)
    pipe.fit(d)
    other_schema = Schema(
        features=(FeatureSpec("w", "numeric"),),
        label="y",
        favourable="0",
        unfavourable="1",
        sensitive="s",
        privileged_value="a",
    )
    other = Dataset(
        schema=other_schema,
        columns={"w": np.array([1.0]), "s": np.array(["a"], dtype=object)},
        unfavourable=np.array([True]),
        privileged=np.array([True]),
        row_ids=np.array([0]),
    )
    with pytest.raises(SchemaError):
        pipe.transform(other)


# ---------------------------------------------------------------------------
# synthetic generator

def test_generator_exact_counts_and_determinism():
    spec = SyntheticSpec(quadrants=(77, 13, 29, 5), bias=0.5)
    a = generate_synthetic(spec, seed=11)
    b = generate_synthetic(spec, seed=11)
    c = generate_synthetic(spec, seed=12)
    assert quadrant_counts(a).as_tuple() == (77, 13, 29, 5)
    assert np.array_equal(a.columns["x1"], b.columns["x1"])
    assert not np.array_equal(a.columns["x1"], c.columns["x1"])


def test_generator_bias_zero_nuisance_uncorrelated():
    spec = SyntheticSpec(quadrants=(1000, 10, 100, 5), bias=0.0)
    d = generate_synthetic(spec, seed=13)
    z = d.columns["z"]
    y = d.unfavourable.astype(float)
    r = np.corrcoef(z, y)[0, 1]
    assert abs(r) < 0.1


def test_generator_bias_one_nuisance_predicts_label():
    # nuisance-only ranking must beat chance out of sample when the
    # quadrant mix ties privilege to the label
    spec = SyntheticSpec(quadrants=(1000, 10, 100, 50), bias=1.0)
    train = generate_synthetic(spec, seed=14)
    test = generate_synthetic(spec, seed=15)
    sign = np.sign(np.corrcoef(train.columns["z"], train.unfavourable.astype(float))[0, 1])
    scores = sign * test.columns["z"]
    ranks = rankdata(scores)
    pos = test.unfavourable
    n1, n0 = int(pos.sum()), int((~pos).sum())
    auc = (ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * n0)
    assert auc > 0.6


def test_generator_validation():
    with pytest.raises(InputError):
        SyntheticSpec(quadrants=(10, 10, 10), bias=0.5)
    with pytest.raises(InputError):
        SyntheticSpec(quadrants=(10, 10, 10, 10), bias=1.5)
    with pytest.raises(InputError):
        SyntheticSpec(quadrants=(10, 10, 10, 10), noise=0.0)
