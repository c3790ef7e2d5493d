"""State vector arithmetic, norms and serialization."""

import math
import re

import numpy as np
import pytest

from ghlin import (
    DenseVector,
    NormKind,
    SparseVector,
    norm,
    vector_from_json,
)
from ghlin.vectors import WINDOW_LIMIT, _window
from conftest import random_sparse


def test_norm_triangle_345():
    v = SparseVector({0: 3.0, 2: 4.0})
    assert norm(v, NormKind.lp(2)) == pytest.approx(5.0, abs=1e-14)


def test_sparse_lp_norm_ignores_coordinate_order():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        items = list(zip(range(5), rng.uniform(-1.0, 1.0, 5)))
        built, reversed_build = SparseVector(items), SparseVector(items[::-1])
        assert built == reversed_build
        for p in (1.5, 2.0, 3.0):
            assert norm(built, NormKind.lp(p)) == norm(reversed_build, NormKind.lp(p))


def test_lp_norm_of_an_overflowing_square_is_rescaled():
    l2 = NormKind.lp(2)
    assert norm(SparseVector({0: 1e200}), l2) == 1e200
    assert norm(DenseVector([1e200]), l2) == 1e200
    assert norm(SparseVector({0: 3e200, 5: -4e200}), l2) == pytest.approx(5e200, rel=1e-15)
    assert norm(DenseVector([3e200, -4e200]), l2) == pytest.approx(5e200, rel=1e-15)


@pytest.mark.parametrize("kind", [NormKind.sup(), NormKind.lp(2)], ids=["sup", "l2"])
def test_norm_of_a_vector_with_a_nan_coordinate_is_nan(kind):
    # Python's max drops a NaN that is not its first argument
    nan = math.nan
    for v in (
        SparseVector({0: 1.0, 1: nan}),
        SparseVector({1: nan, 0: 1.0}),
        DenseVector([1.0, nan]),
        DenseVector([nan, 1.0]),
    ):
        assert math.isnan(norm(v, kind))


def test_lp_norm_does_not_depend_on_the_backend():
    # dense and sparse rows share one correctly rounded sum
    rng = np.random.default_rng(0)
    for _ in range(1000):
        v = rng.uniform(-1.0, 1.0, int(rng.integers(2, 12)))
        dense, sparse = DenseVector(v), SparseVector(enumerate(v))
        for p in (1.0, 1.5, 2.0, 3.0):
            assert norm(dense, NormKind.lp(p)) == norm(sparse, NormKind.lp(p))


def test_norm_sup_picks_largest_coordinate():
    v = SparseVector({0: 3.0, 2: 4.0})
    assert norm(v, NormKind.sup()) == 4.0


def test_norm_empty_support_is_zero():
    assert norm(SparseVector({}), NormKind.lp(1)) == 0.0
    assert norm(DenseVector([0.0, 0.0])) == 0.0


def test_axpy_cancellation_prunes_entry():
    out = 1.0 * SparseVector({0: 1.0}) + SparseVector({0: -1.0})
    assert out.to_dict() == {}


def test_axpy_zero_scale_keeps_y():
    out = 0.0 * SparseVector({0: 123.0}) + SparseVector({5: 2.0})
    assert out.to_dict() == {5: 2.0}


def test_axpy_disjoint_supports():
    out = 2.0 * SparseVector({1: 1.0}) + SparseVector({2: 3.0})
    assert out.to_dict() == {1: 2.0, 2: 3.0}


def test_dense_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        1.0 * DenseVector([1.0]) + DenseVector([1.0, 2.0])


def test_axpy_never_stores_zeros(rng):
    for _ in range(200):
        x = random_sparse(rng)
        y = random_sparse(rng)
        a = rng.uniform(-3, 3)
        out = a * x + y
        assert all(v != 0.0 for _, v in out.items())


def test_sup_norm_below_lp_norms(rng):
    for _ in range(100):
        coords = {
            int(i): float(v)
            for i, v in zip(rng.integers(-10, 10, 6), rng.integers(-5, 6, 6))
            if v != 0
        }
        v = SparseVector(coords)
        for p in (1.0, 1.5, 2.0, 4.0):
            assert norm(v, NormKind.sup()) <= norm(v, NormKind.lp(p)) + 1e-12


def test_norm_triangle_inequality(rng):
    for kind in (NormKind.sup(), NormKind.lp(1), NormKind.lp(2)):
        for _ in range(100):
            x, y = random_sparse(rng), random_sparse(rng)
            a = rng.uniform(-3, 3)
            lhs = norm(a * x + y, kind)
            assert lhs <= abs(a) * norm(x, kind) + norm(y, kind) + 1e-12


def test_norm_kind_validation():
    with pytest.raises(ValueError):
        NormKind.lp(0.5)
    with pytest.raises(ValueError):
        NormKind.lp(float("inf"))


def test_dense_vectors_are_read_only():
    v = DenseVector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.array[0] = 3.0


def test_memo_keys_separate_neighbouring_floats():
    near = math.nextafter(0.1, 1.0)
    assert SparseVector({0: 0.1}).memo_key() != SparseVector({0: near}).memo_key()
    assert DenseVector([0.1]).memo_key() != DenseVector([near]).memo_key()
    assert SparseVector({0: 0.1}).memo_key() == SparseVector({0: 0.1}).memo_key()
    assert DenseVector([0.1]).memo_key() == DenseVector([0.1]).memo_key()


def test_sparse_json_round_trip():
    assert vector_from_json({"-3": 1.5, "7": -2.0}) == SparseVector({-3: 1.5, 7: -2.0})


def test_dense_json_round_trip():
    assert vector_from_json([0.5, -1.0]) == DenseVector([0.5, -1.0])


@pytest.mark.parametrize("key", ["01", "1_0", " 1", "+1", "-0", "1.0", "one", "١"])
def test_sparse_json_index_must_be_a_canonical_integer(key):
    # "01" and "1" would name one index, so one entry would be dropped; "1_0" would read as 10
    with pytest.raises(ValueError, match=f"vector index .*{re.escape(repr(key))}"):
        vector_from_json({"1": 0.5, key: 0.25})


def test_window_holds_at_most_window_limit_indices():
    # the width is checked before any index list is built
    lo = -(2**15)
    assert len(_window({"window": [lo, lo + WINDOW_LIMIT - 1]})) == WINDOW_LIMIT
    with pytest.raises(ValueError, match="at most 2\\^16 indices"):
        _window({"window": [lo, lo + WINDOW_LIMIT]})
    with pytest.raises(ValueError, match="at most 2\\^16 indices"):
        _window({"window": [-(2**61), 2**61]})
