"""Batched evaluation: a point gets the same value alone or in any batch."""

import dataclasses
import math
from functools import partial

import pytest

from ghlin import (
    ConjugacyMap,
    DenseVector,
    NormKind,
    Perturbation,
    SeriesPolicy,
    SparseVector,
    WeightSpec,
    constant_perturbation,
    linearize,
    make_matrix_operator,
    make_shift,
    norm,
    saturating_perturbation,
    sine_perturbation,
    solve_conjugacy,
    solve_inverse_conjugacy,
    solve_perturbed_inverse,
    verify_conjugacy,
)
from ghlin import vectors
from ghlin.cli import _problem_from_descriptor
from ghlin.sampling import sample_points
from ghlin.vectors import pack
from conftest import reference_inverse

POLICY = SeriesPolicy(tol=1e-5)
L2 = NormKind.lp(2)


def shift_maps(beta_of, kind):
    """Fresh (forward, backward) maps on the README shift with beta_of(kind)."""
    op = make_shift(WeightSpec(0.5, 2.0), kind, t=0.55)
    beta = beta_of(kind)
    return (solve_conjugacy(op, beta, 0.2, POLICY, picard_tol=5e-4),
            solve_inverse_conjugacy(op, beta, POLICY))


def linearized_shift_maps(kind):
    """Fresh (forward, backward) maps of ``linearize`` on shift_plus_sine: a cutoff beta."""
    operator = {"kind": "shift", "left_tail": 0.5, "right_tail": 2.0, "t": 0.55}
    if not kind.is_sup:
        operator["norm"] = {"kind": "lp", "p": kind.p}
    problem = _problem_from_descriptor({
        "kind": "shift_plus_sine", "operator": operator, "window": [-1, 1],
        "amplitude": 1e-4, "frequency": 1.0, "gamma": 0.2, "cutoff_r": 5,
    })
    result = linearize(problem, POLICY, picard_tol=5e-4)
    return result.forward, result.backward


SHIFT_BETAS = {
    "windowed sine": lambda kind: sine_perturbation(0.02, 1.0, range(-1, 2), kind),
    "windowed saturating": lambda kind: saturating_perturbation(0.02, 1.0, range(-2, 1), kind),
    "constant": lambda kind: constant_perturbation(SparseVector({-1: 0.01, 2: -0.02}), kind),
}


def shift_cases():
    for kind in (NormKind.sup(), L2):
        for name, beta_of in SHIFT_BETAS.items():
            yield pytest.param(lambda kind=kind, b=beta_of: shift_maps(b, kind),
                               id=f"{name}-{'sup' if kind.is_sup else 'l2'}")
        yield pytest.param(lambda kind=kind: linearized_shift_maps(kind),
                           id=f"cutoff-{'sup' if kind.is_sup else 'l2'}")
    windowless = lambda kind: saturating_perturbation(0.02, 1.0, norm_kind=kind)  # noqa: E731
    yield pytest.param(lambda: shift_maps(windowless, NormKind.sup()), id="windowless saturating-sup")


def assert_batch_matches_single(build, points):
    """displacements on fresh maps equals per-point displacement on other fresh maps."""
    batched, single = build(), build()
    for b_map, s_map in zip(batched, single):
        got = b_map.displacements(points)
        assert got == [s_map.displacement(x) for x in points]


@pytest.mark.parametrize("build", shift_cases())
def test_shift_batch_equals_single_points(rng, build):
    fwd, _ = build()
    points = sample_points(rng, fwd.op, 6, fwd.beta, radius=0.9).unpack()
    # duplicates, the zero point, and two points far apart on one batch
    points += [points[0], SparseVector({}), points[3], SparseVector({-40: 0.3, 55: -0.2})]
    assert_batch_matches_single(build, points)


@pytest.mark.parametrize("rows", [[[0.5]], [[2.0]]])
def test_one_sided_batch_equals_single_points(rng, rows):
    def build():
        op = make_matrix_operator(rows, t=0.6)
        beta = saturating_perturbation(0.01, 1.0)
        return (solve_conjugacy(op, beta, 0.5, SeriesPolicy(tol=1e-10), picard_tol=1e-8),
                solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-10)))

    points = [DenseVector([v]) for v in rng.uniform(-1, 1, 5)]
    assert_batch_matches_single(build, points + [points[1], DenseVector([0.0])])


def test_empty_batch_evaluates_nothing(monkeypatch):
    fwd, bwd = shift_maps(SHIFT_BETAS["windowed sine"], NormKind.sup())
    calls = []
    monkeypatch.setattr(ConjugacyMap, "_values", lambda m, xs: calls.append(xs))
    assert fwd.displacements([]) == [] and bwd.displacements([]) == []
    assert calls == []


def test_batch_larger_than_one_chunk_equals_single_points(rng, monkeypatch):
    batched, _ = shift_maps(SHIFT_BETAS["windowed sine"], NormKind.sup())
    single, _ = shift_maps(SHIFT_BETAS["windowed sine"], NormKind.sup())
    # sampled points all fill the same 23-column window; the chunk size follows the widest
    # point, and each chunk keeps only its own points' columns
    size = batched._chunk_size(sample_points(rng, batched.op, 1, batched.beta))
    points = sample_points(rng, batched.op, size + 3, batched.beta).unpack()
    points[-3:] = [SparseVector({i + 1000: v for i, v in x.items()}) for x in points[-3:]]
    assert batched._chunk_size(pack(points)) == size
    chunks = []
    values = ConjugacyMap._values
    monkeypatch.setattr(ConjugacyMap, "_values",
                        lambda m, xs: chunks.append(xs.rows.shape) or values(m, xs))
    got = batched.displacements(points)
    assert chunks == [(size, 23), (3, 23)]
    assert got == [single.displacement(x) for x in points]


def test_matrix_batch_within_certified_error(rng):
    # the 6x6 benchmark matrix: a batched product may round differently
    # from the one-row product, within the certified error of each value
    def build():
        op = make_matrix_operator([
            [0.5, 0.8, 0.0, 0.0, 0.1, 0.0],
            [0.0, 0.6, 0.7, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.4, 0.0, 0.0, 0.2],
            [0.0, 0.0, 0.0, 2.5, 0.9, 0.0],
            [0.0, 0.0, 0.0, 0.0, 3.0, 0.8],
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.2],
        ])
        beta = saturating_perturbation(0.002, 1.0)
        return (solve_conjugacy(op, beta, 0.2, SeriesPolicy(tol=1e-6), picard_tol=1e-4),
                solve_inverse_conjugacy(op, beta, SeriesPolicy(tol=1e-6)))

    points = [DenseVector(rng.uniform(-1, 1, 6)) for _ in range(3)]
    for b_map, s_map in zip(build(), build()):
        got = b_map.displacements(points + points[:1])
        assert norm(got[0] - got[3]) <= 2.0 * b_map.certified_error
        for x, value in zip(points, got):
            assert norm(value - s_map.displacement(x)) <= 2.0 * b_map.certified_error


def test_masked_inverse_rows_take_their_own_iteration_counts():
    # x = (y - sin x) / 2 contracts by 1/2; small y start closer to the
    # fixed point, so the rows need different iteration counts
    op = make_matrix_operator([[2.0]], t=0.6)
    sine = sine_perturbation(1.0, 1.0, [0])
    active = []  # rows in each beta call

    def batch(b):
        active.append(len(b))
        return sine.batch(b)

    beta = dataclasses.replace(sine, batch=batch)
    ys = [DenseVector([s]) for s in (1e-12, 1e-9, 1e-6, 1e-3, 1.0, -3.0, 0.0)]
    alone, counts = [], []
    for y in ys:
        active.clear()
        alone.append(solve_perturbed_inverse(op, beta, y, 1e-13))
        counts.append(len(active))
    active.clear()
    assert solve_perturbed_inverse(op, beta, pack(ys), 1e-13).unpack() == alone
    assert len(set(counts)) > 2
    # the k-th beta call of the batch sees exactly the rows that iterate k times alone
    assert active == [sum(c > k for c in counts) for k in range(max(counts))]


INVERSE_CASES = {
    # (maps, whether an iterate's support outgrows y's and beta's first value's)
    "windowless saturating": (lambda: shift_maps(
        lambda kind: saturating_perturbation(0.02, 1.0, norm_kind=kind), NormKind.sup()), True),
    "constant far apart": (lambda: shift_maps(
        lambda kind: constant_perturbation(SparseVector({-10**5: 0.05, 10**5: -0.03}), kind),
        NormKind.sup()), False),
    # a cutoff declares no window
    "cutoff-sup": (lambda: linearized_shift_maps(NormKind.sup()), False),
    "cutoff-l2": (lambda: linearized_shift_maps(L2), False),
}


@pytest.mark.parametrize("build, widens", INVERSE_CASES.values(), ids=INVERSE_CASES.keys())
def test_one_layout_inverse_equals_per_row_reference(rng, build, widens):
    # bit for bit: the masked solve on one layout, widened when beta leaves it, against each
    # row alone
    fwd, _ = build()
    op, beta = fwd.op, fwd.beta
    scales = (1e-6, 0.01, 0.3, 1, 2, 3)
    ys = [y * scale for y, scale in zip(sample_points(rng, op, 6).unpack(), scales)]
    ys += [SparseVector({}), SparseVector({-40: 0.3, 55: -0.2}), ys[2]]
    got = solve_perturbed_inverse(op, beta, pack(ys), 1e-12).unpack()
    want = [reference_inverse(op, beta, y, 1e-12) for y in ys]
    assert [x.memo_key() for x in got] == [x.memo_key() for x in want]
    # a solution with a column off T^{-1}(supp y + supp beta(T^{-1} y)) needed a wider layout
    first = [set(y.support()) | set(beta(op.apply_inverse(y)).support()) for y in ys]
    outside = [set(x.support()) - {i + 1 for i in cols} for x, cols in zip(got, first)]
    assert any(outside) == widens


def test_far_apart_constant_never_allocates_its_span(monkeypatch):
    widths = []
    init = vectors.Batch.__init__

    def spy(self, rows, cols=None):
        widths.append(rows.shape[-1])
        init(self, rows, cols)

    op = make_shift(WeightSpec(0.5, 2.0), t=0.55)
    beta = constant_perturbation(SparseVector({-10**5: 0.05, 10**5: 0.05}))
    fwd = solve_conjugacy(op, beta, 0.2, POLICY, picard_tol=5e-4)
    bwd = solve_inverse_conjugacy(op, beta, POLICY)
    x = SparseVector({0: 0.3, 1: -0.2})
    monkeypatch.setattr(vectors.Batch, "__init__", spy)
    h_fwd, h_bwd = fwd.displacement(x), bwd.displacement(x)
    assert widths and max(widths) < 10_000
    # both ends of beta's support reach the values
    for value in (h_fwd, h_bwd):
        support = value.support()
        assert support[0] <= -10**5 and support[-1] > 10**5


def readme_bump(norm_kind):
    """The README's custom beta, x -> a*tanh(x_0) e_0, a row form through pack/unpack."""
    def bump(x):
        return SparseVector({0: 0.004 * math.tanh(x[0])})

    return Perturbation(lambda b: pack([bump(x) for x in b.unpack()]) if len(b) else b,
                        sup_bound=0.004, lip_bound=0.004, window=(0, 0), norm_kind=norm_kind)


@pytest.mark.parametrize("kind", [NormKind.sup(), L2], ids=["sup", "l2"])
@pytest.mark.parametrize("beta_of", [
    partial(sine_perturbation, 0.004, 1.0, [-3, -1, 0, 2]),
    partial(constant_perturbation, SparseVector({-3: 0.002, 2: -0.003})),
    readme_bump,
], ids=["sine", "constant", "bump"])
def test_declared_read_window_changes_no_value(rng, beta_of, kind):
    # beta declares the window it reads and writes, so the lattice drops the
    # columns off it below the top level; the same map without that
    # declaration keeps every column
    op = make_shift(WeightSpec(0.5, 2.0, core={-2: 0.3, -1: 0.7, 0: 0.9, 1: 1.5}), kind, t=0.75)
    beta = beta_of(norm_kind=kind)
    opaque = dataclasses.replace(beta, window=None)
    fwd = [solve_conjugacy(op, b, 0.2, POLICY, picard_tol=1e-4) for b in (beta, opaque)]
    bwd = [solve_inverse_conjugacy(op, b, POLICY) for b in (beta, opaque)]
    # a constant beta (Lipschitz 0) needs one level, whose orbit is still clipped
    assert fwd[0].depth > 1 or beta.lip_bound == 0.0
    assert beta.window is not None and opaque.window is None
    points = sample_points(rng, op, 5, beta)
    for maps in (fwd, bwd):
        assert maps[0].displacements(points) == maps[1].displacements(points)


def matrix_maps():
    """Fresh (forward, backward) maps on a non-normal 2x2 matrix: the dense backend."""
    op = make_matrix_operator([[0.5, 0.3], [0.0, 3.0]], t=0.6)
    beta = saturating_perturbation(0.01, 1.0)
    return (solve_conjugacy(op, beta, 0.5, POLICY, picard_tol=1e-6),
            solve_inverse_conjugacy(op, beta, POLICY))


def assert_same_report(got, want):
    """Two check reports with the same bits: bound, status, residuals and displacements."""
    assert (got.kind, got.certified_bound, got.status) == (want.kind, want.certified_bound,
                                                           want.status)
    assert got.per_point == want.per_point and got.values.unpack() == want.values.unpack()


@pytest.mark.parametrize("build", [
    lambda: shift_maps(SHIFT_BETAS["windowed sine"], NormKind.sup()), matrix_maps,
], ids=["shift", "dense"])
def test_verify_conjugacy_gives_the_same_bits_for_a_batch(rng, build):
    # a Batch is taken as its rows, with no unpack and repack; list(batch) would be its rows
    # as 1-d batches
    for cmap in build():
        points = sample_points(rng, cmap.op, 5, cmap.beta, radius=0.9).unpack()
        assert_same_report(verify_conjugacy(cmap, pack(points)), verify_conjugacy(cmap, points))


@pytest.mark.parametrize("problem", [
    {"kind": "shift_plus_sine", "operator": {"kind": "shift", "left_tail": 0.5,
                                             "right_tail": 2.0, "core": {"0": 0.3}, "t": 0.55},
     "amplitude": 1e-4, "frequency": 1.0, "window": [-1, 1], "gamma": 0.2, "cutoff_r": 0.01},
    {"kind": "quadratic_1d", "slope": 0.5, "quad": 1.0, "p": 0.3, "t": 0.6, "gamma": 0.5,
     "cutoff_r": 0.01},
], ids=["shift", "dense"])
def test_linearization_verify_gives_the_same_bits_for_a_batch(rng, problem):
    result = linearize(_problem_from_descriptor(problem), POLICY, picard_tol=5e-4)
    op, p = result.problem.derivative, result.fixed_point
    offsets = sample_points(rng, op, 6, result.beta, radius=result.u_radius).unpack()
    points = [u + p for u in offsets]
    report = result.verify(points)
    assert report.status == "certified"
    assert_same_report(result.verify(pack(points)), report)
