"""Perturbation bounds, the cutoff construction and the perturbed inverse."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghlin import (
    ContractionError,
    IterationLimitError,
    CutoffProfile,
    DenseVector,
    NormKind,
    Perturbation,
    SeriesPolicy,
    SparseVector,
    WeightSpec,
    admissible_eps,
    constant_perturbation,
    cutoff,
    holder_constant,
    make_matrix_operator,
    make_shift,
    norm,
    perturbation_from_descriptor,
    perturbed_apply,
    saturating_perturbation,
    sine_perturbation,
    solve_conjugacy,
    solve_inverse_conjugacy,
    solve_perturbed_inverse,
    zero_perturbation,
)
from ghlin import perturbations
from ghlin.vectors import Batch, _row_wise, pack, row_norms
from conftest import (banded_points, cut_at_point, hyperbolic_matrices, nan_far_out,
                      random_sparse, reference_inverse)


def test_constant_perturbation_bounds():
    beta = constant_perturbation(SparseVector({0: 0.1}))
    assert beta.sup_bound == 0.1 and beta.lip_bound == 0.0
    assert beta(SparseVector({5: 9.0})).to_dict() == {0: 0.1}


def test_zero_perturbation_bounds():
    beta = zero_perturbation()
    assert beta.sup_bound == 0.0 and beta.lip_bound == 0.0 and beta.is_zero


def test_sine_bounds_sup_norm():
    beta = sine_perturbation(0.05, 2.0, window=[0])
    assert beta.sup_bound == 0.05
    assert beta.lip_bound == pytest.approx(0.1)


def test_zero_amplitude_gives_zero_bounds():
    beta = sine_perturbation(0.0, 2.0, window=[0])
    assert beta.sup_bound == 0.0 and beta.lip_bound == 0.0 and beta.is_zero


def test_sine_bounds_lp_window_scaling():
    beta = sine_perturbation(0.05, 2.0, window=[0, 1, 2, 3], norm_kind=NormKind.lp(2))
    assert beta.sup_bound == pytest.approx(0.05 * 2.0)  # |W|^(1/2) = 2


def test_saturating_bounds():
    beta = saturating_perturbation(0.2, 3.0)
    assert beta.sup_bound == 0.2
    assert beta.lip_bound == pytest.approx(0.6)


def test_saturating_needs_window_for_lp_sparse():
    with pytest.raises(ValueError, match="window"):
        saturating_perturbation(0.2, 3.0, norm_kind=NormKind.lp(2))


def test_perturbation_certified_in_another_norm_is_rejected():
    # the sine's bounds hold in the sup norm; in l^1 its sup bound is 21 times larger
    op = make_shift(WeightSpec(0.5, 2.0), NormKind(1.0), t=0.55)
    policy = SeriesPolicy(tol=1e-5)
    beta = sine_perturbation(admissible_eps(op, 0.2), 1.0, range(-10, 11))
    for solve in (
        lambda: solve_conjugacy(op, beta, 0.2, policy, 5e-4),
        lambda: solve_inverse_conjugacy(op, beta, policy),
        lambda: solve_perturbed_inverse(op, beta, SparseVector({0: 1.0}), 1e-10),
        lambda: holder_constant(op, beta, 0.25, 0.1),
    ):
        with pytest.raises(ValueError, match="hold in the sup norm, not in .* l\\^1 norm"):
            solve()
    # in l^1 the same sine is too large for gamma = 0.2; a zero beta holds in every norm
    in_l1 = sine_perturbation(admissible_eps(op, 0.2), 1.0, range(-10, 11), NormKind(1.0))
    with pytest.raises(ValueError, match="exceeds the admissible bound"):
        solve_conjugacy(op, in_l1, 0.2, policy, 5e-4)
    assert solve_conjugacy(op, zero_perturbation(), 0.2, policy, 5e-4).certified_error == 0.0


def test_certified_bounds_dominate_samples(rng):
    builders = [
        sine_perturbation(0.05, 2.0, window=range(-2, 3)),
        saturating_perturbation(0.2, 3.0),
        constant_perturbation(SparseVector({1: 0.3})),
    ]
    for beta in builders:
        for _ in range(3400):
            x, y = random_sparse(rng), random_sparse(rng)
            assert norm(beta(x)) <= beta.sup_bound + 1e-12
            gap = norm(beta(x) - beta(y))
            assert gap <= beta.lip_bound * norm(x - y) + 1e-12


def test_sparse_outputs_stay_in_window(rng):
    beta = sine_perturbation(0.05, 2.0, window=range(-2, 3))
    lo, hi = beta.window
    for _ in range(50):
        out = beta(random_sparse(rng, window=range(-8, 9)))
        assert all(lo <= i <= hi for i in out.support())


# zeros of either sign, a NaN, the smallest subnormals and magnitudes near the top of the range
EDGE_ENTRIES = [0.0, -0.0, math.nan, 5e-324, -5e-324, 1e300, -1e300, 0.3, -2.5]


@pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
@pytest.mark.parametrize("window", [None, [-1, 0, 1, 2, 6]], ids=["windowless", "windowed"])
@pytest.mark.parametrize("make, f", [(sine_perturbation, math.sin),
                                     (saturating_perturbation, math.tanh)], ids=["sine", "tanh"])
def test_coordinatewise_entries_have_the_bits_of_the_scalar_map(make, f, window, sparse):
    # f runs on the nonzero entries only, yet every entry, a zero's sign included, holds the
    # bits of a * f(r * x) worked out entry by entry, and a NaN entry goes through f
    a, r = 0.05, 1.5
    beta = make(a, r, window)
    rows = np.array([EDGE_ENTRIES, EDGE_ENTRIES[::-1]])
    cols = np.arange(-4, 5) if sparse else None
    index = list(range(-4, 5)) if sparse else list(range(len(EDGE_ENTRIES)))
    out = beta.batch(Batch(rows, cols))
    if window is None:
        want, want_cols = [[a * f(r * v) for v in row] for row in rows.tolist()], cols
    elif sparse:  # the window's columns; index 6 lies off the point
        want_cols = np.array(window)
        want = [[a * f(r * row[index.index(i)]) if i in index else 0.0 for i in window]
                for row in rows.tolist()]
    else:  # window index -1 lies off the dense coordinates
        want_cols = None
        want = [[a * f(r * v) if i in window else 0.0 for i, v in zip(index, row)]
                for row in rows.tolist()]
    assert out.rows.tobytes() == np.array(want).tobytes()
    assert np.signbit(out.rows[out.rows == 0.0]).any()
    assert (out.cols is None) if want_cols is None else np.array_equal(out.cols, want_cols)


def test_sine_of_an_infinite_entry_still_raises():
    beta = sine_perturbation(0.05, 1.0, window=[0, 1])
    with pytest.raises(ValueError, match="math domain error"):
        beta.batch(Batch(np.array([[0.0, math.inf]]), np.array([0, 1])))


# -- cutoff -----------------------------------------------------------------


def square_1d(x: DenseVector) -> DenseVector:
    return DenseVector([x.array[0] ** 2])


def test_cutoff_of_square_map_bounds():
    # |d/dx x^2| <= 0.04 on |x| <= 0.02
    beta = cutoff(_row_wise(square_1d), 0.04, CutoffProfile(0.01), zero=DenseVector([0.0]))
    assert beta.sup_bound == pytest.approx(0.0008)
    assert beta.lip_bound == pytest.approx(0.12)


def test_cutoff_reproduces_map_inside_inner_ball(rng):
    beta = cutoff(_row_wise(square_1d), 0.04, CutoffProfile(0.01), zero=DenseVector([0.0]))
    for _ in range(100):
        x = DenseVector([rng.uniform(-0.01, 0.01)])
        assert norm(beta(x) - square_1d(x)) == 0.0


def test_cutoff_vanishes_outside_outer_ball(rng):
    beta = cutoff(_row_wise(square_1d), 0.04, CutoffProfile(0.01), zero=DenseVector([0.0]))
    for _ in range(100):
        s = rng.uniform(0.02, 5.0) * (-1 if rng.uniform() < 0.5 else 1)
        assert norm(beta(DenseVector([s]))) == 0.0


def test_cutoff_lipschitz_bound_sampled(rng):
    beta = cutoff(_row_wise(square_1d), 0.04, CutoffProfile(0.01), zero=DenseVector([0.0]))
    for _ in range(500):
        x = DenseVector([rng.uniform(-0.03, 0.03)])
        y = DenseVector([rng.uniform(-0.03, 0.03)])
        gap = norm(beta(x) - beta(y))
        assert gap <= beta.lip_bound * norm(x - y) + 1e-15


def test_cutoff_rejects_nonvanishing_origin():
    shifted = lambda x: DenseVector([x.array[0] ** 2 + 1.0])
    with pytest.raises(ValueError, match="alpha\\(0\\)"):
        cutoff(_row_wise(shifted), 0.04, CutoffProfile(0.01), zero=DenseVector([0.0]))


def test_cutoff_rejects_nonpositive_lipschitz():
    with pytest.raises(ValueError, match="alpha_lip_on_ball"):
        cutoff(_row_wise(square_1d), 0.0, CutoffProfile(0.01), zero=DenseVector([0.0]))


def test_cutoff_profile_rule():
    chi = CutoffProfile(0.01).chi(np.array([0.0, 0.01, 0.015, 0.02, 0.5, np.inf, np.nan]))
    assert chi[:6].tolist() == [1.0, 1.0, (0.02 - 0.015) / 0.01, 0.0, 0.0, 0.0]
    assert np.isnan(chi[6])


def square_coords(x):
    # 0.7 x_i^2 on every coordinate of a point, and on every row of a batch
    if isinstance(x, DenseVector):
        return DenseVector(0.7 * x.array * x.array)
    return SparseVector({i: 0.7 * v * v for i, v in x.items()})


def square_rows(b):
    return Batch(0.7 * b.rows * b.rows, b.cols)


@settings(max_examples=15, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("zero", [DenseVector([0.0] * 3), SparseVector({})], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", [NormKind.sup(), NormKind.lp(2)], ids=["sup", "l2"])
def test_cutoff_rows_equal_single_points(data, zero, kind):
    # beta's row form, from alpha's point form lifted to rows or from a numpy
    # row form, gives each row the bits of chi(|x|) * alpha(x) worked out at that point
    r = 0.01
    points = data.draw(banded_points(zero, kind, r))
    chis = CutoffProfile(r).chi(np.array([norm(x, kind) for x in points[:3]]))
    assert chis[0] == 1.0 and 0.0 < chis[1] < 1.0 and chis[2] == 0.0
    expected = [cut_at_point(square_coords, x, kind, r).memo_key() for x in points]
    for beta in (
        cutoff(_row_wise(square_coords), 0.05, CutoffProfile(r), kind, zero=zero),
        cutoff(square_rows, 0.05, CutoffProfile(r), kind, zero=zero),
    ):
        assert [v.memo_key() for v in beta.batch(pack(points)).unpack()] == expected
        assert [beta(x).memo_key() for x in points] == expected


@pytest.mark.parametrize("bands", [[0.5, 1.5, 1.9, 0.0], [0.5, 3.0, 1.5, 2.5], [2.5, 3.0, 40.0]],
                         ids=["all inside", "some inside", "none inside"])
@pytest.mark.parametrize("cols", [None, np.array([-2, 0, 1, 5])], ids=["dense", "sparse"])
def test_cutoff_row_form_equals_its_rows_one_at_a_time_bitwise(bands, cols):
    # a batch with every row inside the outer ball calls alpha on itself, one with some rows
    # inside on those rows only, and one with none calls it never: each row gets the bits of
    # chi(|x|) alpha(x) with chi written out and alpha on that row alone, signed zeros included
    r, kind = 0.01, NormKind.lp(2)
    zero = DenseVector([0.0] * 4) if cols is None else SparseVector({})
    rng = np.random.default_rng(3)
    rows = rng.uniform(-1.0, 1.0, (len(bands), 4))
    rows[:, 1] = -0.0
    rows *= (np.array(bands) * r / np.linalg.norm(rows, axis=1))[:, None]
    b = Batch(rows, cols)
    for alpha in (square_rows, saturating_perturbation(1.0, 2.0).batch):
        got = cutoff(alpha, 0.05, CutoffProfile(r), kind, zero=zero).batch(b).on(cols).rows
        for i, s in enumerate(row_norms(b, kind)):
            alone = alpha(b[i : i + 1]).on(cols).rows[0]
            want = np.zeros(4) if s >= 2.0 * r else alone if s <= r else ((2.0 * r - s) / r) * alone
            assert got[i].tobytes() == want.tobytes()


# -- perturbed inverse --------------------------------------------------------


def test_perturbed_inverse_zero_beta_is_plain_inverse():
    op = make_matrix_operator([[2.0]], t=0.6)
    y = DenseVector([1.0])
    x = solve_perturbed_inverse(op, zero_perturbation(), y, tol=1e-12)
    assert x == op.apply_inverse(y)


def test_perturbed_inverse_affine_1d():
    # 2x + 0.1 = 1  =>  x = 0.45
    op = make_matrix_operator([[2.0]], t=0.6)
    beta = constant_perturbation(DenseVector([0.1]))
    x = solve_perturbed_inverse(op, beta, DenseVector([1.0]), tol=1e-12)
    assert x.array[0] == pytest.approx(0.45, abs=1e-12)


def test_perturbed_inverse_shift_sine_residual(rng):
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    for _ in range(25):
        y = random_sparse(rng)
        x = solve_perturbed_inverse(op, beta, y, tol=1e-11)
        assert norm(perturbed_apply(op, beta, x) - y) <= 1e-11


def test_perturbed_inverse_contraction_violation():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)  # |T^{-1}| = 2
    beta = sine_perturbation(0.6, 1.0, window=[0])  # Lip = 0.6, q = 1.2
    with pytest.raises(ContractionError, match=">= 1"):
        solve_perturbed_inverse(op, beta, SparseVector({0: 1.0}), tol=1e-10)


def test_perturbed_inverse_of_no_rows_returns_at_once():
    op = make_matrix_operator([[2.0, 0.0], [0.0, 3.0]], t=0.6)
    saturating = saturating_perturbation(0.01, 1.0)
    calls = []
    beta = dataclasses.replace(saturating, batch=lambda b: calls.append(len(b)) or saturating.batch(b))
    x = solve_perturbed_inverse(op, beta, Batch(np.zeros((0, 2))), tol=1e-12)
    assert x.rows.shape == (0, 2) and calls == []


def counted(beta: Perturbation, calls: list) -> Perturbation:
    return dataclasses.replace(beta, batch=lambda b: calls.append(len(b)) or beta.batch(b))


@pytest.mark.parametrize("op, beta, y", [
    # T^{-1} y lies right of the sine's window: every beta entry is +0
    (make_shift(WeightSpec(0.5, 2.0), t=0.55), sine_perturbation(0.05, 1.0, window=[-2, 0]),
     Batch(np.array([[1.5, -2.0, 0.0], [-0.0, 0.25, 3.0]]), np.array([1, 4, 7]))),
    # rows of +-0 on a matrix: tanh keeps each sign, so beta is +-0 entry by entry
    (make_matrix_operator([[0.5, 0.3], [0.0, 3.0]]), saturating_perturbation(0.01, 1.0),
     Batch(np.array([[0.0, -0.0], [-0.0, -0.0]]))),
], ids=["shift", "dense"])
def test_perturbed_inverse_returns_the_plain_inverse_where_beta_vanishes(op, beta, y):
    # T^{-1} y then has a zero residual, so the solve returns it as step_inverse makes it,
    # after one beta call
    calls = []
    x = solve_perturbed_inverse(op, counted(beta, calls), y, tol=1e-12)
    want = op.step_inverse(y)
    assert calls == [len(y)] and x.rows.tobytes() == want.rows.tobytes()
    assert (x.cols is None and want.cols is None) or np.array_equal(x.cols, want.cols)


@pytest.mark.parametrize("op, beta, y", [
    # 0 below -1000, so beta(-inf) = 0 at T^{-1} y = -inf
    (make_matrix_operator([[0.5]], t=0.6), nan_far_out(value=0.0), Batch(np.array([[-math.inf]]))),
    # a NaN off the sine's window, where beta reads nothing
    (make_shift(WeightSpec(0.5, 2.0), t=0.55), sine_perturbation(0.05, 1.0, window=[-2, 0]),
     Batch(np.array([[math.nan, 1.0]]), np.array([3, 4]))),
], ids=["inf", "nan"])
def test_a_zero_beta_at_a_point_that_is_not_finite_still_raises(op, beta, y):
    # the zero exit needs a finite T^{-1} y: here x - x_next is NaN, which never meets tol
    with np.errstate(invalid="ignore"), pytest.raises(IterationLimitError, match="not finite"):
        solve_perturbed_inverse(op, beta, y, tol=1e-12)


def windowless(beta: Perturbation) -> Perturbation:
    """beta declaring no window: the solve passes it whole iterates and never stops early."""
    return dataclasses.replace(beta, window=None)


def solve_both(op, beta, y, tol):
    """``_solve_rows`` with beta as declared and with it windowless, and their beta calls."""
    calls, plain_calls = [], []
    got = perturbations._solve_rows(op, counted(beta, calls), y, tol)
    want = perturbations._solve_rows(op, counted(windowless(beta), plain_calls), y, tol)
    for g, w in zip(got, want):
        assert g.rows.tobytes() == w.rows.tobytes() and np.array_equal(g.cols, w.cols)
    return len(calls), len(plain_calls)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_windowed_solve_returns_once_its_iterate_is_still_on_the_window(data):
    # once an iterate's window entries are those of the previous one, beta at it is beta's last
    # value: the solve returns the loop's result bit for bit, one beta call before the loop
    # would, and passes beta only its window's columns
    op = make_shift(WeightSpec(0.5, 2.0, core={0: -0.3}), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    cols = np.array(sorted(data.draw(st.sets(st.integers(-4, 4), min_size=1, max_size=5))))
    entry = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
    rows = [[data.draw(entry) for _ in cols] for _ in range(data.draw(st.integers(1, 4)))]
    y, seen = Batch(np.array(rows), cols), []
    perturbations._solve_rows(op, dataclasses.replace(
        beta, batch=lambda b: seen.append(b.cols) or beta.batch(b)), y, 1e-12)
    assert all(((c >= -1) & (c <= 1)).all() for c in seen)
    calls, plain_calls = solve_both(op, beta, y, 1e-12)
    assert calls in (plain_calls - 1, plain_calls)


def test_a_windowed_solve_makes_one_beta_call_fewer_on_the_readme_shift():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    y = Batch(np.array([[0.3, -0.7, 1.1], [0.05, 0.0, -0.4]]), np.array([-1, 0, 1]))
    calls, plain_calls = solve_both(op, beta, y, 1e-12)
    assert calls == plain_calls - 1 and calls >= 2


def test_an_iterate_that_changes_only_a_zero_sign_has_moved():
    # x_2 differs from x_1 on the window only in the sign of x_2[2], and this beta reads that
    # sign: the solve calls beta at x_2 and returns x_3 with beta(x_2), as the loop does
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    cols = np.array([1, 2, 3])

    def batch(b: Batch) -> Batch:
        x = b.on(cols).rows
        h1 = np.where(x[:, 2] == 0.5, 0.0, -0.0)
        h3 = np.where(x[:, 2] == 0.5, 0.1, 0.2) + np.where(np.signbit(x[:, 1]), 0.0, 0.4)
        return Batch(np.stack([h1, np.full(len(x), 0.5), h3], axis=-1), cols)

    beta = Perturbation(batch, 0.7, 0.01, window=(1, 3))
    y = Batch(np.array([[-0.0, 1.0]]), np.array([1, 2]))
    assert solve_both(op, beta, y, 1e-12) == (3, 4)
    x, _ = perturbations._solve_rows(op, beta, y, 1e-12)
    assert not np.signbit(x.on(np.array([2])).rows).any()


def test_a_nan_on_the_window_still_raises():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    y = Batch(np.array([[math.nan, 1.0], [0.5, -0.0]]), np.array([-1, 0]))
    with np.errstate(invalid="ignore"), pytest.raises(IterationLimitError, match="not finite"):
        solve_perturbed_inverse(op, beta, y, tol=1e-12)


def test_perturbed_inverse_rejects_nan_tol():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    with pytest.raises(ValueError, match="tol must be positive, got nan"):
        solve_perturbed_inverse(op, beta, SparseVector({0: 1.0}), tol=float("nan"))


def test_perturbed_inverse_increments_contract(rng):
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = sine_perturbation(0.05, 1.0, window=range(-1, 2))
    q = beta.lip_bound * op.norm_Tinv
    for _ in range(10):
        y = random_sparse(rng)
        x = op.apply_inverse(y)
        prev_gap = None
        for _ in range(30):
            x_next = op.apply_inverse(y - beta(x))
            gap = norm(x_next - x)
            if prev_gap is not None:
                assert gap <= q * prev_gap + 1e-15
            if gap == 0.0:
                break
            prev_gap, x = gap, x_next


@st.composite
def slow_dense_solves(draw):
    """A 1-4-dimensional hyperbolic matrix, a saturating beta at q up to 0.95, and points y."""
    if draw(st.booleans()):
        sign = draw(st.sampled_from([-1.0, 1.0]))
        op = make_matrix_operator([[sign * draw(st.floats(0.1, 0.8) | st.floats(1.25, 4.0))]])
    else:
        op = make_matrix_operator(draw(hyperbolic_matrices()))
    q, scale = draw(st.floats(0.05, 0.95)), draw(st.floats(0.5, 2.0))
    beta = saturating_perturbation(q / (scale * op.norm_Tinv), scale)
    coords = st.lists(st.floats(-2.0, 2.0), min_size=op.dim, max_size=op.dim)
    return op, beta, [DenseVector(draw(coords)) for _ in range(draw(st.integers(1, 3)))]


@settings(max_examples=40, deadline=None)
@given(case=slow_dense_solves())
def test_the_accelerated_dense_solve_meets_its_residual_near_the_plain_iterate(case):
    # the Aitken steps leave the residual test as it is: each returned point meets tol, so it
    # lies within 2 tol Lip((T + beta)^{-1}) of the plain iteration's point
    op, beta, ys = case
    tol = 1e-9
    lip_inv = op.norm_Tinv / (1.0 - op.norm_Tinv * beta.lip_bound)
    for x, y in zip(solve_perturbed_inverse(op, beta, pack(ys), tol).unpack(), ys):
        assert norm(perturbed_apply(op, beta, x) - y, op.norm_kind) <= tol
        assert norm(x - reference_inverse(op, beta, y, tol), op.norm_kind) <= 2.0 * tol * lip_inv


def test_a_slow_dense_contraction_takes_few_beta_calls(rng):
    # q = 0.45 * 2 = 0.9: the plain iteration takes over 200 beta calls on these rows
    op = make_matrix_operator([[0.5]])
    calls = []
    beta = counted(saturating_perturbation(0.45, 1.0), calls)
    y = Batch(rng.uniform(-2.0, 2.0, (50, 1)))
    solve_perturbed_inverse(op, beta, y, 1e-12)
    assert len(calls) <= 20


# -- descriptors ---------------------------------------------------------------


def test_perturbation_descriptors():
    beta = perturbation_from_descriptor(
        {"kind": "sine", "amplitude": 0.1, "frequency": 2.0, "window": [-1, 1]}
    )
    assert beta.sup_bound == 0.1 and beta.window == (-1, 1)
    # one window field: an old support_window= keyword fails instead of clipping silently
    fields = [f.name for f in dataclasses.fields(Perturbation)]
    assert fields == ["batch", "sup_bound", "lip_bound", "window", "norm_kind"]
    beta2 = perturbation_from_descriptor({"kind": "zero"})
    assert beta2.is_zero
    beta3 = perturbation_from_descriptor(
        {"kind": "constant", "vector": {"0": 0.25}}
    )
    assert beta3.sup_bound == 0.25
    beta4 = perturbation_from_descriptor(
        {"kind": "saturating", "amplitude": 0.1, "scale": 2.0}
    )
    assert beta4.lip_bound == pytest.approx(0.2)
    with pytest.raises(ValueError, match="unknown perturbation kind"):
        perturbation_from_descriptor({"kind": "cubic"})


def test_a_given_row_form_survives_replacing_another_field():
    wave = sine_perturbation(0.01, 1.0, window=[0, 1])
    assert dataclasses.replace(wave, sup_bound=0.05).batch is wave.batch
