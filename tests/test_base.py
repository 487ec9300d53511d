"""The two value checks every outside value goes through."""
from __future__ import annotations

import re

import numpy as np
import pytest

from fairsample.base import InputError, check_int, check_number


def test_check_int_range_and_types():
    assert check_int(np.int64(7), "n", 1) == 7
    assert check_int(2**63 - 1, "n") == 2**63 - 1
    assert check_int(2**64 - 1, "point seed", bits=64) == 2**64 - 1
    for bad in (True, 1.0, "1", None, [1], -1, 2**63):
        with pytest.raises(InputError, match=re.escape("n must be an integer in [0, 2**63), got")):
            check_int(bad, "n")
    with pytest.raises(InputError, match=re.escape("n must be an integer in [1, 2**63), got 0")):
        check_int(0, "n", 1)


def test_check_number_interval_ends_and_types():
    assert check_number(np.float32(0.5), "x", 0.0, 1.0) == 0.5
    assert type(check_number(1, "x", 0.0, 1.0)) is float
    assert check_number(0.0, "x", 0.0, 1.0, "[)") == 0.0
    assert check_number(1e308, "x") == 1e308
    cases = [
        (0.0, "(]"),
        (1.0, "[)"),
        (1.5, "[]"),
        (float("nan"), "[]"),
        (True, "[]"),
        ("0.5", "[]"),
        (None, "[]"),
    ]
    for bad, ends in cases:
        with pytest.raises(InputError, match=re.escape(f"x must be a finite number in {ends[0]}0, 1{ends[1]}")):
            check_number(bad, "x", 0.0, 1.0, ends)
    # unbounded: infinities and ints beyond the float range still fail
    for bad in (float("inf"), -float("inf"), 10**400, -(10**400)):
        with pytest.raises(InputError, match="x must be a finite number"):
            check_number(bad, "x")
