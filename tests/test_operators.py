"""Operator construction, splitting invariants, constants and weight lookups."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghlin
from ghlin import (
    CertificationError,
    DenseVector,
    SparseVector,
    WeightSpec,
    admissible_eps,
    check_shift_criterion,
    constants_report,
    make_matrix_operator,
    make_shift,
    norm,
    operator_from_descriptor,
)
from ghlin import operators
from ghlin.vectors import Batch, pack, stack
from conftest import brute_force_margins, hyperbolic_matrices, random_sparse, shifts


# -- weight specs and the splitting criterion ---------------------------


def test_weight_spec_rejects_zero_weight():
    with pytest.raises(ValueError, match="nonzero"):
        WeightSpec(left_tail=0.0, right_tail=2.0)
    with pytest.raises(ValueError, match="nonzero"):
        WeightSpec(left_tail=0.5, right_tail=2.0, core={0: 0.0})


def test_weight_spec_rejects_gappy_core():
    with pytest.raises(ValueError, match="contiguous"):
        WeightSpec(left_tail=0.5, right_tail=2.0, core={0: 1.0, 2: 1.0})


def test_weight_lookup_tails_and_core():
    spec = WeightSpec(left_tail=0.5, right_tail=2.0, core={-1: 7.0, 0: 8.0})
    assert spec.weight(-2) == 0.5
    assert spec.weight(-1) == 7.0
    assert spec.weight(0) == 8.0
    assert spec.weight(1) == 2.0


def test_criterion_constant_tails():
    report = check_shift_criterion(WeightSpec(0.5, 2.0))
    assert report.holds and report.left_margin == 0.5 and report.right_margin == 2.0


def test_criterion_identity_weights_rejected():
    report = check_shift_criterion(WeightSpec(1.0, 1.0))
    assert not report.holds


def test_criterion_all_weights_two_fails_left_side():
    report = check_shift_criterion(WeightSpec(2.0, 2.0))
    assert not report.holds
    assert report.left_margin == 2.0 and report.right_margin == 2.0


def test_criterion_step_at_five_matches_brute_force():
    # weights 1/3 below index 5 and 3 from there on
    spec = WeightSpec(left_tail=1.0 / 3.0, right_tail=3.0, core={i: 1.0 / 3.0 for i in range(1, 5)})
    report = check_shift_criterion(spec)
    assert report.holds
    left, right = brute_force_margins(spec)
    assert report.left_margin == pytest.approx(left, abs=1e-6)
    assert report.right_margin == pytest.approx(right, abs=1e-6)
    assert report.left_margin == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert report.right_margin == pytest.approx(3.0, abs=1e-12)


def test_make_shift_rejects_with_violated_side():
    with pytest.raises(CertificationError, match="left weight-product limit"):
        make_shift(WeightSpec(2.0, 3.0))
    with pytest.raises(CertificationError, match="right weight-product limit"):
        make_shift(WeightSpec(0.5, 0.9))


# -- shift action ---------------------------------------------------------


def test_shift_moves_single_coordinate():
    op = make_shift(WeightSpec(0.5, 2.0))
    out = op.apply(SparseVector({1: 1.0}))
    assert out.to_dict() == {0: 2.0}


def test_shift_apply_inverse_is_exact(rng):
    # dyadic weights make the multiply/divide round trip bitwise exact
    op = make_shift(WeightSpec(0.5, 2.0, core={0: 0.25, 1: 4.0}))
    for _ in range(50):
        x = random_sparse(rng)
        assert op.apply_inverse(op.apply(x)) == x
        assert op.apply(op.apply_inverse(x)) == x


def test_shift_reads_each_weight_once(rng, monkeypatch):
    lookups = []
    weight = WeightSpec.weight
    monkeypatch.setattr(WeightSpec, "weight", lambda spec, n: lookups.append(n) or weight(spec, n))
    op = make_shift(WeightSpec(0.5, 2.0, core={0: 0.9}), t=0.75)
    x = random_sparse(rng)
    first = (op.apply(x), op.apply_inverse(x))
    lookups.clear()
    assert (op.apply(x), op.apply_inverse(x)) == first
    assert lookups == []


def test_shift_apply_inverse_general_weights(rng):
    op = make_shift(WeightSpec(0.5, 2.0, core={0: 0.75, 1: 1.5}))
    for _ in range(50):
        x = random_sparse(rng)
        back = op.apply_inverse(op.apply(x))
        assert norm(back - x) <= 1e-15 * max(1.0, norm(x))


def test_shift_all_weights_two_action():
    # the weight-2 right tail of a valid shift: (T x)_{n-1} = w_n x_n with w_n = 2 for n >= 1
    op = make_shift(WeightSpec(0.5, 2.0))
    assert op.apply(SparseVector({1: 1.0, 5: 3.0})).to_dict() == {0: 2.0, 4: 6.0}


def test_shift_splitting_is_exactly_invariant(rng):
    op = make_shift(WeightSpec(0.5, 2.0, core={-1: 0.3, 0: 0.9, 1: 4.0}))
    for _ in range(50):
        x = random_sparse(rng)
        assert norm(op.project_N(op.apply(op.project_M(x)))) == 0.0
        assert norm(op.project_M(op.apply_inverse(op.project_N(x)))) == 0.0


def test_shift_restriction_norms_cover_core():
    op = make_shift(WeightSpec(0.5, 2.0, core={-1: 0.9, 0: 0.25, 1: 1.5, 2: 8.0}))
    assert op.norm_T == 8.0
    assert op.norm_Tinv == 4.0
    assert op.norm_T_on_M == 0.9  # supremum of |w_n| over n <= 0
    assert op.norm_Tinv_on_N == 0.5  # T^-1 on N divides by w_n for n >= 2


def reference_shift_sweep(op, sources, terms):
    """The dict sweep with K + 1 sources per side, from public calls only.

    Each M step is P_M s + T S and each N step T^{-1}(P_N s + R), summed
    with vector +; the value is S_M - S_N.
    """
    acc = SparseVector({})
    sums_m = []
    for s in sources[: len(sources) - terms - 1]:
        acc = op.project_M(s) + op.apply(acc)
        sums_m.append(acc)
    acc = SparseVector({})
    sums_n = []
    for s in reversed(sources[terms + 1 :]):
        acc = op.apply_inverse(op.project_N(s) + acc)
        sums_n.append(acc)
    return [s_m - s_n for s_m, s_n in zip(sums_m[terms:], reversed(sums_n))]


def sweep_vectors(op, sources, m_count, n_count):
    """``orbit_sweep`` over one point's sources, value by value as vectors."""
    values = op.orbit_sweep(stack([pack([s]) for s in sources]), m_count, n_count)
    return [values[i].unpack()[0] for i in range(len(values))]


# distinct core weights on both sides of 0
SWEEP_WEIGHTS = WeightSpec(0.5, 2.0, core={-2: 0.3, -1: 0.7, 0: 0.9, 1: 1.5, 2: 3.0, 3: 2.5})


@pytest.mark.parametrize("terms", [0, 1, 4])
def test_shift_sweep_matches_reference_bitwise(rng, terms):
    op = make_shift(SWEEP_WEIGHTS)
    for length in (2 * terms + 2, 2 * terms + 7):
        sources = [random_sparse(rng, window=range(-6, 7)) for _ in range(length)]
        got = sweep_vectors(op, sources, terms + 1, terms + 1)
        assert len(got) == length - 2 * terms - 1
        assert got == reference_shift_sweep(op, sources, terms)


@pytest.mark.parametrize("terms, extra, window, within, wide", [
    # more columns than orbit indices: runs of columns joined by seams
    (1, 0, [-30, -29, -12, -4, 0, 1, 2, 9, 25], None, True),
    (1, 3, [-30, -29, -12, -4, 0, 1, 2, 9, 25], (-14, 10), True),
    # fewer columns than orbit indices: a long orbit kept on a short window
    (4, 20, [-2, -1, 0, 1, 2, 3], (-2, 3), False),
    (4, 20, [-1, 0, 1, 2], (-3, 1), False),
], ids=["wide", "wide-within", "narrow-within", "narrow-within-off-sources"])
def test_shift_sweep_matches_reference_bitwise_along_either_axis(
    rng, monkeypatch, terms, extra, window, within, wide
):
    op = make_shift(SWEEP_WEIGHTS)
    # with a window the sources lie in it, and the values are exact on its columns
    inside = [i for i in window if within is None or within[0] <= i <= within[1]]
    sources = [[random_sparse(rng, window=inside) for _ in range(3)]
               for _ in range(2 * terms + 2 + extra)]
    planes = []  # (orbit indices + 1, rows, columns + 1) of each side's plane
    sweep = operators._sweep_diagonals

    def spy(x, *args):
        planes.append(x.shape)
        sweep(x, *args)

    monkeypatch.setattr(operators, "_sweep_diagonals", spy)
    values = op.orbit_sweep(stack([pack(b) for b in sources]), terms + 1, terms + 1, within)
    assert len(planes) == 2 and all((a < b) == wide for a, _, b in planes)
    lo, hi = (-np.inf, np.inf) if within is None else within

    def bits(v):
        return [(i, x.hex()) for i, x in sorted(v.items()) if lo <= i <= hi]

    for r in range(3):
        want = reference_shift_sweep(op, [block[r] for block in sources], terms)
        got = [values[i].unpack()[r] for i in range(len(values))]
        assert [bits(v) for v in got] == [bits(v) for v in want]


@pytest.mark.parametrize("window, counts", [
    ((-4, -1), (4, 0)), ((-1, 1), (2, 0)), ((0, 0), (1, 0)), ((1, 4), (0, 3)), ((2, 2), (0, 0)),
    ((-3, 5), (4, 4)),
])
def test_shift_series_counts_keep_the_terms_that_land_in_the_window(window, counts):
    op = make_shift(SWEEP_WEIGHTS)
    lo, hi = window
    source = SparseVector({i: 1.0 for i in range(lo, hi + 1)})

    def lands(v):
        return any(lo <= i <= hi for i in v.support())

    terms, m_term, n_term, landing = 13, op.project_M(source), op.project_N(source), [0, 0]
    for _ in range(terms + 1):  # T^k P_M s for k = 0..K, T^-(k+1) P_N s for k = 0..K
        n_term = op.apply_inverse(n_term)
        landing = [landing[0] + lands(m_term), landing[1] + lands(n_term)]
        m_term = op.apply(m_term)
    assert op.series_counts(terms, window) == counts == tuple(landing)
    # at most K + 1 per side, all of them without a window
    assert op.series_counts(1, window) == tuple(min(2, c) for c in counts)
    assert op.series_counts(terms) == (14, 14)


def test_matrix_series_counts_ignore_a_window():
    # T mixes coordinates, so every term may land anywhere; a trivial side takes none
    assert make_matrix_operator([[0.5, 0.3], [0.0, 3.0]]).series_counts(5, (0, 0)) == (6, 6)
    assert make_matrix_operator([[0.5]], t=0.6).series_counts(5, (0, 0)) == (6, 0)
    assert make_matrix_operator([[2.0]], t=0.6).series_counts(5) == (0, 6)


def stepped_dense_sweep(op, s, m_count, n_count):
    """The dense sweep one orbit index at a time: S_j = P_M s_j + A_M S_{j-1} left to right,
    R_j = A_N (P_N s_j + R_{j+1}) right to left, then S_M - S_N, on the rows of s."""
    length, count = len(s), len(s) - m_count - n_count + 1
    out = np.zeros((count,) + s.shape[1:])
    if m_count:
        acc = np.zeros(s.shape[1:])
        for j, p in enumerate(s[: length - n_count] @ op.proj_M_matrix.T):
            acc = p + acc @ op.a_M.T
            if j >= m_count - 1:
                out[j - m_count + 1] = acc
    if n_count:
        acc = np.zeros(s.shape[1:])
        projected = s[m_count:] @ op.proj_N_matrix.T
        for j in reversed(range(length - m_count)):
            acc = (projected[j] + acc) @ op.a_N.T
            if j < count:
                out[j] -= acc
    return out


def exact_dense_sweep(op, s, m_count, n_count):
    """The same finite series in 200-bit arithmetic on the operator's float matrices, every
    source on each swept side, rounded to floats at the end."""
    length, count = len(s), len(s) - m_count - n_count + 1
    with mpmath.workprec(200):
        def mat(a):
            return [[mpmath.mpf(float(v)) for v in row] for row in a]

        def apply(a, v):
            return [mpmath.fdot(row, v) for row in a]

        proj_m, a_m, proj_n, a_n = map(mat, (op.proj_M_matrix, op.a_M, op.proj_N_matrix, op.a_N))
        out = np.zeros((count,) + s.shape[1:])
        for r in range(s.shape[1]):
            sources = mat(s[:, r])
            value = [[mpmath.mpf(0)] * op.dim for _ in range(count)]
            acc = [mpmath.mpf(0)] * op.dim
            for j in range(length - n_count if m_count else 0):
                acc = [p + q for p, q in zip(apply(proj_m, sources[j]), apply(a_m, acc))]
                if j >= m_count - 1:
                    value[j - m_count + 1] = acc
            acc = [mpmath.mpf(0)] * op.dim
            for j in reversed(range(m_count, length) if n_count else []):
                acc = apply(a_n, [p + q for p, q in zip(apply(proj_n, sources[j]), acc)])
                if j - m_count < count:
                    value[j - m_count] = [v - q for v, q in zip(value[j - m_count], acc)]
            out[:, r] = [[float(v) for v in row] for row in value]
    return out


@st.composite
def dense_sweep_inputs(draw):
    """A 1-6-d hyperbolic matrix with M, N or both nontrivial, and sources for one sweep.

    The matrix is diagonal or non-normal upper triangular (strictly upper entries in
    [-2, 2]) under an exact permutation similarity.  The swept sides take K + 1 sources
    (``series_counts``, so M = {0} sweeps with m_count = 0), and each has n positions, where
    n - 1 is a power of two (the scan's last round adds one position) or n is any length.
    """
    dim = draw(st.integers(1, 6))
    sides = draw(st.sampled_from(["M", "N"] + (["both"] if dim > 1 else [])))
    if sides == "both":
        stable = [True, False] + draw(st.lists(st.booleans(), min_size=dim - 2, max_size=dim - 2))
    else:
        stable = [sides == "M"] * dim
    moduli = [draw(st.floats(0.1, 0.8) if s else st.floats(1.25, 4.0)) for s in stable]
    a = np.diag([draw(st.sampled_from([-1.0, 1.0])) * m for m in moduli])
    if draw(st.booleans()):
        for i in range(dim):
            for j in range(i + 1, dim):
                a[i, j] = draw(st.floats(-2.0, 2.0))
    perm = draw(st.permutations(range(dim)))
    op = make_matrix_operator(a[np.ix_(perm, perm)])
    n = draw(st.sampled_from([2, 3, 5, 9, 17, 33]) | st.integers(1, 33))
    m_count, n_count = op.series_counts(draw(st.integers(0, n - 1)))
    rows = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    s = np.random.default_rng(seed).uniform(-5.0, 5.0, (n + min(m_count, n_count), rows, dim))
    return op, s, m_count, n_count


@settings(max_examples=40, deadline=None)
@example(inputs=(make_matrix_operator([[2.0, 0.3], [0.0, 3.0]]), np.linspace(
    -1.0, 1.0, 17 * 3 * 2).reshape(17, 3, 2), 0, 5))
@given(inputs=dense_sweep_inputs())
def test_dense_sweep_is_within_rounding_of_the_exact_series(inputs):
    # the scan sums in another order than the steps, so it is held, with the stepped sweep,
    # to the rounding bound 8 d n u (sum_k |A^k P|) max |s| of the 200-bit series, summed over
    # the swept sides' k = 0..n
    op, s, m_count, n_count = inputs
    n = len(s) - min(m_count, n_count)
    gain = 0.0
    sides = ((m_count, op.a_M, op.proj_M_matrix), (n_count, op.a_N, op.proj_N_matrix))
    for swept, a, proj in sides:
        term = proj
        for _ in range(n + 1 if swept else 0):
            gain, term = gain + np.linalg.norm(term, np.inf), a @ term
    bound = 8 * op.dim * n * np.finfo(float).eps / 2 * gain * np.abs(s).max()
    exact = exact_dense_sweep(op, s, m_count, n_count)
    got = op.orbit_sweep(Batch(s), m_count, n_count).rows
    assert got.shape == exact.shape
    assert np.abs(got - exact).max(initial=0.0) <= bound
    assert np.abs(stepped_dense_sweep(op, s, m_count, n_count) - exact).max(initial=0.0) <= bound


def test_shift_sweep_prunes_sums_that_cancel_to_zero():
    op = make_shift(SWEEP_WEIGHTS)
    # T {0: 1} = {-1: 0.9} cancels against s_1 on the M side, and
    # T^{-1} {1: 3} = {2: 1} against s_2 on the N side
    sources = [SparseVector({0: 1.0, -2: 0.5}), SparseVector({-1: -0.9, 4: 1.0}),
               SparseVector({2: -1.0, -3: 0.5}), SparseVector({1: 3.0, 3: 5.0})]
    (got,) = sweep_vectors(op, sources, 2, 2)
    assert got == reference_shift_sweep(op, sources, 1)[0]
    assert got.support() == [-3, 5]


@st.composite
def orbit_inputs(draw):
    """An operator of either backend and a 2-d batch for it; sparse batches may have no column.

    Entries are zeros of either sign or magnitudes in [1e-3, 5], so 60 steps
    of any drawn operator neither overflow nor underflow.
    """
    entry = st.sampled_from([0.0, -0.0]) | st.floats(1e-3, 5.0) | st.floats(-5.0, -1e-3)
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        op = make_matrix_operator(draw(hyperbolic_matrices()))
        width, cols = op.dim, None
    else:
        op = make_shift(draw(shifts()))
        cols = np.array(sorted(draw(st.sets(st.integers(-12, 12), max_size=8))), dtype=np.int64)
        width = len(cols)
    rows = [[draw(entry) for _ in range(width)] for _ in range(n)]
    return op, Batch(np.array(rows).reshape(n, width), cols)


EMPTY_POINT = Batch(np.zeros((1, 0)), np.zeros(0, dtype=np.int64))
ONE_ROW = Batch(np.array([[1.5, 0.0, -0.0, -2.0]]), np.array([-3, -1, 0, 4]))
NON_NORMAL = [[0.5, 0.3, 0.0], [0.0, 2.0, 0.4], [0.0, 0.0, 3.0]]
DENSE_ROWS = Batch(np.array([[1.5, -0.0, 0.25], [-2.0, 0.75, 3.0]]))


@settings(max_examples=60, deadline=None)
@example(inputs=(make_shift(SWEEP_WEIGHTS), EMPTY_POINT), back=7, ahead=5, within=None)
@example(inputs=(make_shift(SWEEP_WEIGHTS), ONE_ROW), back=60, ahead=60, within=None)
@example(inputs=(make_shift(SWEEP_WEIGHTS), ONE_ROW), back=9, ahead=0, within=(-2, 3))
# window [-2, 1]: no column is in it past 4 steps back or 6 ahead, so those chains stop there
@example(inputs=(make_shift(SWEEP_WEIGHTS), ONE_ROW), back=20, ahead=0, within=(-2, 3))
@example(inputs=(make_shift(SWEEP_WEIGHTS), ONE_ROW), back=0, ahead=20, within=(-2, 3))
@example(inputs=(make_shift(SWEEP_WEIGHTS), ONE_ROW), back=3, ahead=3, within=(40, 5))  # none
@example(inputs=(make_matrix_operator(NON_NORMAL), DENSE_ROWS), back=0, ahead=9, within=None)
@example(inputs=(make_matrix_operator(NON_NORMAL), DENSE_ROWS), back=9, ahead=0, within=None)
@example(inputs=(make_matrix_operator(NON_NORMAL), DENSE_ROWS), back=13, ahead=4, within=None)
@example(inputs=(make_matrix_operator(NON_NORMAL), DENSE_ROWS), back=3, ahead=12, within=None)
@given(inputs=orbit_inputs(), back=st.integers(0, 60), ahead=st.integers(0, 60),
       within=st.none() | st.tuples(st.integers(-40, 40), st.integers(0, 30)))
def test_orbit_equals_the_stepped_orbit_bitwise(inputs, back, ahead, within):
    # the shift's accumulate kernel multiplies and divides as step and step_inverse do, and
    # the dense kernel's stacked and one-chain products round as their 2-d steps
    op, x = inputs
    if within is not None:
        within = (within[0], within[0] + within[1])
    got = op.orbit(x, back, ahead, within)
    want = operators._stepped_orbit(op.step, op.step_inverse, x, back, ahead, within)
    assert got.rows.shape == want.rows.shape and got.rows.tobytes() == want.rows.tobytes()
    assert (got.cols is None and want.cols is None) or np.array_equal(got.cols, want.cols)


# -- matrix operators -----------------------------------------------------


def test_matrix_diagonal_splitting():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    assert np.allclose(op.proj_M_matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(op.proj_N_matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_matrix_unit_circle_eigenvalue_rejected():
    with pytest.raises(CertificationError, match="not hyperbolic"):
        make_matrix_operator([[0.5, 0.0], [0.0, 1.0]])


def test_matrix_scaled_rotation_is_all_stable():
    op = make_matrix_operator([[0.0, -0.5], [0.5, 0.0]])
    assert np.allclose(op.proj_M_matrix, np.eye(2), atol=1e-12)
    assert op.n_is_trivial


def test_matrix_singular_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        make_matrix_operator([[0.0, 0.0], [0.0, 2.0]])


def test_matrix_empty_rejected():
    # a ValueError, which the CLI maps to exit 2, before any power table is sized
    with pytest.raises(ValueError, match="at least one row"):
        make_matrix_operator(np.zeros((0, 0)))


def test_matrix_mixed_spectrum_with_complex_pair():
    # scaled rotation block (complex pair inside the disc) plus a dilation
    block = [[0.0, -0.5, 0.3], [0.5, 0.0, -0.2], [0.0, 0.0, 3.0]]
    op = make_matrix_operator(block)
    p, a = op.proj_M_matrix, op.matrix
    assert np.abs(p @ p - p).max() < 1e-10
    assert np.abs(op.proj_N_matrix @ a @ p).max() < 1e-10
    assert np.abs(p @ op.matrix_inv @ op.proj_N_matrix).max() < 1e-10
    assert op.m_dim == 2 and op.n_dim == 1


def test_matrix_splitting_decay_sampled(rng):
    op = make_matrix_operator([[0.5, 0.2, 0.0], [0.0, 0.25, 0.1], [0.0, 0.0, 4.0]])
    c, t, d = op.constants.c, op.constants.t, op.constants.d
    for _ in range(30):
        x = DenseVector(rng.uniform(-1, 1, 3))
        y = op.project_M(x)
        z = op.project_N(x)
        u, v = y, z
        for n in range(1, 2 * op.constants.n_max + 1):
            u = op.apply(u)
            v = op.apply_inverse(v)
            assert norm(u) <= c * t**n * norm(y) + 1e-12
            assert norm(v) <= c * t**n * norm(z) + 1e-12


# -- constants ------------------------------------------------------------


def test_constants_diagonal_at_given_t():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.75)
    report = constants_report(op)
    assert report["c"] == 1.0 and report["d"] == 1.0 and report["n_max"] == 1


def test_constants_jordan_block_matches_power_oracle():
    t = 0.9
    a = np.array([[0.5, 1.0], [0.0, 0.5]])
    op = make_matrix_operator(a, t=t)
    # oracle: power the matrix explicitly until the ratio drops below one
    best, power = 1.0, np.eye(2)
    for n in range(1, 200):
        power = power @ a
        ratio = np.linalg.norm(power, np.inf) / t**n
        best = max(best, ratio)
        if ratio <= 1.0:
            break
    assert op.constants.c == pytest.approx(best, rel=1e-12)
    assert op.constants.n_max == n


def test_constants_shift_tails_at_t_half():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.5)
    assert op.constants.c == 1.0


def test_constants_reject_t_below_spectral_radius():
    with pytest.raises(CertificationError, match="does not dominate"):
        make_shift(WeightSpec(0.5, 2.0), t=0.4)


def test_constants_cap_produces_diagnostic(monkeypatch):
    # this Jordan block needs a 21-step window at t = 0.6
    assert make_matrix_operator([[0.5, 1.0], [0.0, 0.5]], t=0.6).constants.n_max == 21
    monkeypatch.setattr(operators, "DECAY_WINDOW_CAP", 10)
    with pytest.raises(CertificationError, match="not certifiable at this t"):
        make_matrix_operator([[0.5, 1.0], [0.0, 0.5]], t=0.6)


def test_constants_are_fixed_at_construction():
    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.constants.c = 0.5
    assert op.constants.c == 1.0 and not hasattr(ghlin, "estimate_constants")


def test_constants_stop_when_t_power_underflows():
    # at t = 0.5001 the window lies far beyond n = 1076, where t^n underflows
    with pytest.raises(CertificationError, match="stopped at step 1023 "):
        make_matrix_operator([[0.5, 1.0], [0.0, 0.5]], t=0.5001)


def test_diagonal_action_example():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]])
    out = op.apply(DenseVector([2.0, 1.0]))
    assert out == DenseVector([1.0, 3.0])


def test_shift_certified_decay_sampled(rng):
    op = make_shift(WeightSpec(0.5, 2.0, core={0: 0.9}), t=0.75)
    c, t = op.constants.c, op.constants.t
    for _ in range(20):
        y = op.project_M(random_sparse(rng))
        u = y
        for n in range(1, 2 * op.constants.n_max + 2):
            u = op.apply(u)
            assert norm(u) <= c * t**n * norm(y) + 1e-12


# -- admissible perturbation size ------------------------------------------


def test_admissible_eps_formula_value():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.5)
    assert op.constants.c == 1.0
    assert admissible_eps(op, 0.9) == 0.3


def test_admissible_eps_vanishes_with_gamma():
    op = make_matrix_operator([[0.5, 0.0], [0.0, 3.0]], t=0.5)
    assert admissible_eps(op, 1e-9) == pytest.approx(0.0, abs=1e-9)


def test_admissible_eps_halves_with_c(rng):
    # same formula, doubled c: check through the pure function on tuples
    def formula(c, d, t, gamma):
        return gamma * (1 - t) / (c * d * (1 + t))

    assert formula(2, 1, 0.5, 0.9) == pytest.approx(0.15, abs=1e-15)
    for _ in range(200):
        c, d = rng.uniform(1, 5, 2)
        t, gamma = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        base = formula(c, d, t, gamma)
        assert formula(c, d, t, gamma * 1.01) > base
        assert formula(c * 1.01, d, t, gamma) < base
        assert formula(c, d * 1.01, t, gamma) < base
        assert formula(c, d, t + 0.01, gamma) < base


# -- descriptors -------------------------------------------------------------


def test_operator_descriptor_round_trip():
    shift = {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0, "core": {"0": 0.9}}
    rebuilt = operator_from_descriptor(shift)
    assert rebuilt.weights == WeightSpec(0.5, 2.0, core={0: 0.9})

    rebuilt2 = operator_from_descriptor({"kind": "matrix", "rows": [[0.5, 0.0], [0.0, 3.0]]})
    assert np.allclose(rebuilt2.matrix, [[0.5, 0.0], [0.0, 3.0]])


def test_constants_report_shape():
    op = make_shift(WeightSpec(0.5, 2.0))
    report = constants_report(op)
    assert set(report) == {"c", "t", "d", "n_max"}
