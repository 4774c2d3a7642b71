import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minsection as ms
from minsection.numerics import BoundaryStepWarning


def test_fd_gradient_quad(entries):
    grad = ms.fd_gradient(entries["QUAD"].merit, [1.0, 2.0])
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_fd_gradient_at_sine_valley_minimum(entries):
    grad = ms.fd_gradient(entries["SINE_VALLEY"].merit, [0.0, 0.0])
    assert np.linalg.norm(grad) <= 1e-6


def test_fd_gradient_exp_fit_minimum(entries):
    # noiseless generating parameters: zero residuals, zero gradient
    grad = ms.fd_gradient(entries["EXP_FIT"].merit, [-0.5, 2.0])
    assert np.linalg.norm(grad) <= 1e-5


def test_fd_gradient_boundary_clamp_warns(entries):
    merit = entries["QUAD"].merit
    boundary = np.array([10.0, 0.0])
    with pytest.warns(BoundaryStepWarning):
        grad = ms.fd_gradient(merit, boundary)
    assert grad[0] == pytest.approx(20.0, rel=1e-5)


def test_fd_hessian_quad_constant(entries):
    report = ms.fd_hessian(entries["QUAD"].merit, [3.0, -4.0])
    assert np.allclose(report.hessian, np.diag([2.0, 2.0]), atol=1e-4)


class CountingCubic:
    """A plain smooth 3-D callable that counts its evaluations."""

    def __init__(self):
        self.calls = 0

    def __call__(self, p):
        self.calls += 1
        x, y, z = p
        return x * x * y + y * z * z + np.sin(x * z) + x * y * z


def test_fd_hessian_stencil_count():
    # gradient 2M = 6, diagonal 1 + 2M = 7, two new points per pair: 3 * 2
    # (25 with the four-point stencil per pair)
    f = CountingCubic()
    report = ms.fd_hessian(f, np.array([0.3, -0.7, 1.1]), box=None)
    assert f.calls == 19
    assert np.array_equal(report.hessian, report.hessian.T)


def test_fd_y_block_stencil_count():
    f = CountingCubic()
    block = ms.fd_y_block(f, np.array([0.3, -0.7, 1.1]), ms.ParameterSplit((0,), (1, 2)), box=None)
    assert f.calls == 7  # 1 + k + k^2 at k = 2 (9 with the four-point stencil)
    assert block.shape == (2, 2)
    assert np.array_equal(block, block.T)


def test_fd_hessian_degen_line_rank_one(entries):
    report = ms.fd_hessian(entries["DEGEN_LINE"].merit, [1.0, 5.0])
    assert np.allclose(report.hessian, [[2.0, 2.0], [2.0, 2.0]], atol=1e-4)


def test_fd_hessian_y_block(entries, split01):
    # hand-differentiated oracle: d/dy of 2(y - sin x) is the constant 2
    report = ms.fd_hessian(entries["SINE_VALLEY"].merit, [0.0, 0.0])
    yi = list(split01.y_indices)
    y_block = report.hessian[np.ix_(yi, yi)]
    assert y_block.shape == (1, 1)
    assert y_block[0, 0] == pytest.approx(2.0, abs=1e-4)


def test_fd_hessian_names_nonfinite_pair():
    def bad(p):
        return float("nan") if p[0] > 0.5 and p[1] > 0.5 else float(p @ p)

    with pytest.raises(ValueError, match=r"\(0, 1\)|coordinate"):
        ms.fd_hessian(bad, np.array([0.5, 0.5]), box=None)


def test_fd_hessian_reports_steps(entries):
    report = ms.fd_hessian(entries["QUAD"].merit, [1.0, 2.0])
    assert report.fd_step.shape == (2,)
    assert np.all(report.fd_step > 0)


def test_eigen_index_signs():
    summary = ms.eigen_index(np.diag([2.0, -3.0]))
    assert summary.negative_count == 1
    assert summary.near_zero_count == 0
    summary = ms.eigen_index(np.diag([2.0, 2.0]))
    assert summary.negative_count == 0 and summary.near_zero_count == 0


def test_eigen_index_rank_one():
    summary = ms.eigen_index(np.array([[2.0, 2.0], [2.0, 2.0]]))
    assert np.allclose(sorted(summary.eigenvalues), [0.0, 4.0], atol=1e-12)
    assert summary.near_zero_count == 1


def test_eigen_index_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        ms.eigen_index(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "H, entry",
    [
        (np.diag([np.nan, 1.0]), "(0, 0) is nan"),
        (np.array([[1.0, np.inf], [np.inf, 1.0]]), "(0, 1) is inf"),
        (np.diag([1.0, -np.inf]), "(1, 1) is -inf"),
    ],
)
def test_non_finite_matrices_are_refused(H, entry, monkeypatch):
    # refused before LAPACK is called, which returns a finite spectrum for
    # some of them: diag(NaN, 1) read as degenerate
    def no_lapack(_):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_lapack)
    for fn in (ms.eigen_index, ms.is_positive_definite):
        with pytest.raises(ValueError) as info:
            fn(H)
        assert str(info.value) == f"matrix entry {entry}, not finite"


def test_is_positive_definite():
    assert ms.is_positive_definite(np.diag([2.0, 2.0]))
    assert not ms.is_positive_definite(np.array([[2.0, 2.0], [2.0, 2.0]]))
    assert not ms.is_positive_definite(np.diag([1e-12, 1.0]))


def test_linear_lsq_mean():
    y = ms.linear_lsq_solve(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
    assert y[0] == pytest.approx(2.0)


def test_linear_lsq_identity():
    y = ms.linear_lsq_solve(np.eye(2), np.array([5.0, 7.0]))
    assert np.allclose(y, [5.0, 7.0])


def test_linear_lsq_exact_line_fit():
    a = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    b = np.array([1.0, 2.0, 3.0])
    y = ms.linear_lsq_solve(a, b)
    assert np.allclose(y, [1.0, 1.0], atol=1e-12)
    # residual-zero oracle for the exact fit
    assert np.linalg.norm(a @ y - b) <= 1e-12


def test_linear_lsq_rank_deficient():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(ms.RankDeficiencyError) as excinfo:
        ms.linear_lsq_solve(a, np.array([1.0, 2.0, 3.0]))
    assert excinfo.value.rank == 1
    assert excinfo.value.required == 2


def test_fd_matches_closed_forms_on_catalog(entries):
    # norm-relative error <= 1e-5 at 100 random interior points per entry
    rng = np.random.default_rng(123)
    for entry in entries.values():
        merit = entry.merit
        box = merit.domain_box
        width = box[:, 1] - box[:, 0]
        lo = box[:, 0] + 0.05 * width
        hi = box[:, 1] - 0.05 * width
        for _ in range(100):
            p = rng.uniform(lo, hi)
            g_exact = merit.gradient(p)
            g_fd = ms.fd_gradient(merit, p)
            assert np.linalg.norm(g_fd - g_exact) <= 1e-5 * max(
                1.0, np.linalg.norm(g_exact)
            ), entry.name
            h_exact = merit.hessian(p)
            h_fd = ms.fd_hessian(merit, p).hessian
            assert np.linalg.norm(h_fd - h_exact) <= 1e-5 * max(
                1.0, np.linalg.norm(h_exact)
            ), entry.name


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=6))
def test_eigen_counts_partition(diag):
    q, _ = np.linalg.qr(np.random.default_rng(abs(hash(tuple(diag))) % 2**32)
                        .standard_normal((len(diag), len(diag))))
    h = q @ np.diag(diag) @ q.T
    summary = ms.eigen_index(0.5 * (h + h.T))
    k = len(diag)
    assert summary.negative_count + summary.near_zero_count + summary.positive_count == k


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10_000))
def test_lsq_normal_equation_residual(cols, seed):
    rng = np.random.default_rng(seed)
    rows = cols + rng.integers(0, 4)
    a = rng.standard_normal((rows, cols)) + np.eye(rows, cols)
    b = rng.standard_normal(rows)
    try:
        y = ms.linear_lsq_solve(a, b)
    except ms.RankDeficiencyError:
        return
    lhs = np.linalg.norm(a.T @ (a @ y - b))
    assert lhs <= 1e-8 * max(1.0, np.linalg.norm(a.T @ b))


def _orthonormal(rng, rows, cols):
    return np.linalg.qr(rng.standard_normal((rows, cols)))[0]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 10_000))
def test_lsq_agrees_with_numpy_lstsq(cols, extra, seed):
    # singular values in [1, 2]: a well-conditioned full-rank system
    rng = np.random.default_rng(seed)
    rows = cols + extra
    s = rng.uniform(1.0, 2.0, cols)
    a = _orthonormal(rng, rows, cols) * s @ _orthonormal(rng, cols, cols).T
    b = rng.standard_normal(rows)
    y = ms.linear_lsq_solve(a, b)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.linalg.norm(y - want) <= 1e-12 * max(1.0, np.linalg.norm(want))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 4), st.integers(0, 6), st.integers(0, 10_000), st.data())
def test_lsq_rank_matches_numpy_lstsq(cols, extra, seed, data):
    # some columns are exact power-of-two multiples of others
    rng = np.random.default_rng(seed)
    rows = cols + extra
    a = rng.standard_normal((rows, cols))
    copies = data.draw(st.integers(1, cols - 1))
    for j in range(cols - copies, cols):
        a[:, j] = 2.0 ** int(rng.integers(-3, 4)) * a[:, int(rng.integers(0, cols - copies))]
    rank = np.linalg.lstsq(a, np.ones(rows), rcond=None)[2]
    assert rank == cols - copies
    with pytest.raises(ms.RankDeficiencyError) as excinfo:
        ms.linear_lsq_solve(a, np.ones(rows))
    assert (excinfo.value.rank, excinfo.value.required) == (rank, cols)


def reference_eigen_index(H):
    """:func:`minsection.eigen_index` as numpy reductions over the spectrum,
    a matrix with a non-finite entry refused first."""
    bad = np.argwhere(~np.isfinite(np.asarray(H, dtype=float)))
    if np.ndim(H) == 2 and np.shape(H)[0] == np.shape(H)[1] and bad.size:
        i, j = bad[0]
        raise ValueError(f"matrix entry ({i}, {j}) is {float(H[i, j])}, not finite")
    H = ms.numerics._check_symmetric(H)
    w = np.linalg.eigvalsh(H)
    degeneracy_tol = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    return ms.EigenSummary(
        eigenvalues=w,
        min_abs=float(np.min(np.abs(w))),
        negative_count=int(np.count_nonzero(w < -degeneracy_tol)),
        near_zero_count=int(np.count_nonzero(np.abs(w) <= degeneracy_tol)),
        positive_count=int(np.count_nonzero(w > degeneracy_tol)),
        degeneracy_tol=float(degeneracy_tol),
    )


def outcome(fn, *args):
    """``fn(*args)`` as ``(result, warnings)``, or its error as ``(type, message)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = fn(*args)
        except Exception as err:  # compared, not hidden
            return type(err), str(err)
    return result, [(w.category, str(w.message)) for w in caught]


#: Floats of every scale, with infinities, NaN and the degeneracy boundary.
wide_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-6, -1e-6, 1e-7, 1.0, -1.0, 1e200, 1e-200]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_floats, max_size=6))
def test_norm_is_numpy_norm_bitwise(entries):
    v = np.array(entries, dtype=float)
    (fast, fast_warnings), (ref, ref_warnings) = outcome(ms.numerics._norm, v), outcome(
        np.linalg.norm, v
    )
    assert type(fast) is float
    assert repr(fast) == repr(float(ref))
    assert fast_warnings == ref_warnings


def assert_same_summary(fast, ref):
    if isinstance(ref[0], type):  # both refuse the matrix alike
        assert fast == ref
        return
    fast, ref = fast[0], ref[0]
    assert np.array_equal(fast.eigenvalues, ref.eigenvalues, equal_nan=True)
    for name in ("min_abs", "degeneracy_tol"):
        assert type(getattr(fast, name)) is float
        assert repr(getattr(fast, name)) == repr(getattr(ref, name))
    for name in ("negative_count", "near_zero_count", "positive_count"):
        assert type(getattr(fast, name)) is int
        assert getattr(fast, name) == getattr(ref, name)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda k: st.lists(wide_floats, min_size=k * k, max_size=k * k)))
def test_eigen_index_is_the_numpy_reference(entries):
    k = math.isqrt(len(entries))
    upper = np.triu(np.reshape(entries, (k, k)))
    H = upper + np.triu(upper, 1).T
    with np.errstate(all="ignore"):
        assert_same_summary(outcome(ms.eigen_index, H), outcome(reference_eigen_index, H))


@settings(max_examples=300, deadline=None)
@given(st.lists(wide_floats, min_size=1, max_size=5))
def test_eigen_index_is_the_numpy_reference_on_any_spectrum(spectrum):
    # LAPACK turns most non-finite matrices into all-NaN or garbage finite
    # spectra; hand the counts spectra with NaN and inf among finite values
    w = np.array(spectrum)
    with mock.patch.object(np.linalg, "eigvalsh", lambda _: w.copy()):
        fast = outcome(ms.eigen_index, np.eye(w.size))
        ref = outcome(reference_eigen_index, np.eye(w.size))
    assert_same_summary(fast, ref)


# -- seven-point second differences ----------------------------------------

EPS = np.finfo(float).eps


def hessian_steps(p):
    """The second-difference steps at ``p``, as :func:`_second_diff_block`
    takes them."""
    return np.array([(v + ms.numerics.HESSIAN_STEP * max(1.0, abs(v))) - v for v in p.tolist()])


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_second_diff_block_on_quadratics(k, seed):
    # A quadratic's third differences vanish, so the block's error is
    # rounding only. Each evaluation is within 4 (k + 3) eps Fbar of f,
    # Fbar bounding the sum of the terms' magnitudes over the stencil; a
    # mixed numerator weighs eight of them and rounds six sums of at most
    # 2 Fbar, over 2 h_a h_b, and a diagonal four and four over h_a^2.
    # Both stay within 64 (k + 3) eps Fbar / (h_a h_b).
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((k, k))
    a = q + q.T
    b = rng.standard_normal(k)
    c = float(rng.standard_normal())
    p = rng.uniform(-3.0, 3.0, k)

    def f(x):
        return float(0.5 * (x @ a @ x) + b @ x + c)

    block, steps, shifted = ms.numerics._second_diff_block(f, p, tuple(range(k)), None)
    assert not shifted and np.array_equal(steps, hessian_steps(p))
    r = np.abs(p) + steps
    fbar = 0.5 * (r @ np.abs(a) @ r) + np.abs(b) @ r + abs(c)
    bound = 64 * (k + 3) * EPS * fbar / np.outer(steps, steps)
    assert np.all(np.abs(block - a) <= bound)
    assert np.array_equal(block, block.T)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_second_diff_block_on_trigonometric_merits(k, seed):
    # f = sum_i c_i sin(w_i . p + phi_i), whose Hessian is -sum_i c_i
    # sin(w_i . p + phi_i) w_i w_i^T. The odd Taylor terms cancel in the
    # +- pairs; the fourth-order remainders, at most C W^4 |s|_1^4 / 24 at
    # a point s off the center (C = sum |c_i|, W = max |w_i|), sum to at
    # most 1.5 C W^4 h_max^4 in a mixed numerator and C W^4 h^4 / 12 in a
    # diagonal one. Each evaluation is within 64 (k + 2) eps C of f, which
    # weighs at most eight of them. Every entry is then within C (W^4
    # h_max^4 + 512 (k + 2) eps) / h_min^2 of the closed form.
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.5, 1.5, (3, k))
    phase = rng.uniform(-np.pi, np.pi, 3)
    coef = rng.uniform(-2.0, 2.0, 3)
    p = rng.uniform(-2.0, 2.0, k)

    def f(x):
        return float(coef @ np.sin(w @ x + phase))

    block, steps, _ = ms.numerics._second_diff_block(f, p, tuple(range(k)), None)
    exact = -(w.T * (coef * np.sin(w @ p + phase))) @ w
    big_c, big_w = np.abs(coef).sum(), np.abs(w).max()
    bound = big_c * (big_w**4 * steps.max() ** 4 + 512 * (k + 2) * EPS) / steps.min() ** 2
    assert np.max(np.abs(block - exact)) <= bound


class RecordingTrig:
    """A smooth callable that records a copy of every point it is given."""

    def __init__(self, rng, dimension):
        self.w = rng.uniform(-1.5, 1.5, (3, dimension))
        self.phase = rng.uniform(-np.pi, np.pi, 3)
        self.seen = []

    def __call__(self, x):
        self.seen.append(np.array(x, dtype=float))
        return float(np.sin(self.w @ x + self.phase).sum() + 0.1 * (x @ x))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.integers(0, 1), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_stacked_second_differences_are_the_scalar_ones(k, extra, nodes, seed):
    # Every node's block from the stacked body is bitwise the scalar body's,
    # after the same evaluations in the same order. Node 0 lies on a face
    # of its first coordinate and node 1, when drawn, within a step of the
    # opposite face, so each example has shifted stencils.
    rng = np.random.default_rng(seed)
    dimension = k + extra
    indices = tuple(sorted(rng.choice(dimension, size=k, replace=False).tolist()))
    lo = rng.uniform(-3.0, 1.0, dimension)
    box = np.column_stack([lo, lo + rng.uniform(0.01, 4.0, dimension)])
    points = box[:, 0] + rng.uniform(0.0, 1.0, (nodes, dimension)) * (box[:, 1] - box[:, 0])
    first = indices[0]
    points[0, first] = box[first, 0]
    if nodes > 1:
        points[1, first] = box[first, 1] - 0.25 * hessian_steps(points[1])[first]
    scalar = RecordingTrig(np.random.default_rng(seed), dimension)
    stacked = RecordingTrig(np.random.default_rng(seed), dimension)
    want = [ms.numerics._second_diff_block(scalar, node, indices, box) for node in points]
    got = ms.numerics._second_diff_blocks(stacked, points, indices, box)
    assert want[0][2]
    assert got.tobytes() == np.array([block for block, _, _ in want]).tobytes()
    assert np.array(stacked.seen).tobytes() == np.array(scalar.seen).tobytes()
    assert len(scalar.seen) == nodes * (1 + k + k * k)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 4),
    st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_values_within_the_bound_assemble_a_finite_block(k, centers, seed):
    # The guard of _second_diff_blocks: stencil values whose magnitudes sum
    # to at most _FINITE_BLOCK_BOUND * min(1, h_min^2) give a block whose
    # every entry is at most 3e307 in magnitude. The values put the whole
    # sum where it weighs most: on the center, on a few axis points, or
    # spread with random signs.
    rng = np.random.default_rng(seed)
    steps = hessian_steps(np.array(centers[:k]))
    bound = ms.numerics._FINITE_BLOCK_BOUND * min(1.0, steps.min() ** 2)
    size = 1 + k + k * k
    for weights in (np.eye(size)[0], np.eye(size)[1], rng.standard_normal(size)):
        values = (bound * (1.0 - 1e-12)) * weights / np.abs(weights).sum()
        assert np.abs(values).sum() <= bound
        block = ms.numerics._assemble_blocks(values[None], steps[None])[0]
        assert np.all(np.abs(block) <= 3e307)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e297, 1e303), st.integers(0, 2**32 - 1))
def test_near_bound_node_raises_or_passes_as_the_scalar_body(scale, seed):
    # A k = 2 cliff: f is `scale` on one side of the line p0 + p1 = cut and
    # a quadratic on the other. The nodes lie within three steps of the
    # line, so their stencils straddle it: a stencil sum of `scale` or a
    # few times it lies either side of the guard's bound (about 1.5e299),
    # and a block overflows from `scale` about 3e300 on. The stacked body
    # raises the scalar body's NonFiniteValueError at the same node, or
    # returns the same finite block, bit for bit.
    rng = np.random.default_rng(seed)
    h = ms.numerics.HESSIAN_STEP
    cut = float(rng.uniform(-0.01, 0.01))
    p0 = rng.uniform(-0.01, 0.01, 3)
    points = np.column_stack([p0, cut - p0 + rng.uniform(-3.0 * h, 3.0 * h, 3)])

    def cliff(p):
        return scale if p[0] + p[1] > cut else float(p @ p)

    box = np.array([[-2.0, 2.0], [-2.0, 2.0]])

    def scalar():
        return np.array([ms.numerics._second_diff_block(cliff, p, (0, 1), box)[0] for p in points])

    def outcome(fn):
        try:
            return fn()
        except ms.numerics.NonFiniteValueError as err:
            return str(err), err.point.tolist(), err.coordinates

    want = outcome(scalar)
    got = outcome(lambda: ms.numerics._second_diff_blocks(cliff, points, (0, 1), box))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert np.isfinite(want).all()
        assert got.tobytes() == want.tobytes()


# -- the derivative rule's gradient ----------------------------------------


def sine_merit(m, seed, seen, gradient=None):
    """A merit with a random quadratic and sine part that records each
    point it is evaluated at in ``seen``; ``gradient`` its closed form."""
    rng = np.random.default_rng(seed)
    a, b, q = rng.uniform(-2.0, 2.0, m), rng.uniform(0.5, 3.0, m), rng.normal(size=(m, m))

    def evaluate(p):
        seen.append(p.tolist())
        return float(a @ np.sin(b * p) + p @ q @ p)

    return ms.MeritFunction(m, evaluate, gradient=gradient)


@st.composite
def gradient_cases(draw):
    """``(p, indices, box)``: a full point, a subset of its parameters in
    any order and one ``[lo, hi]`` row per parameter of the subset. Each
    parameter lies on a face of its row, within two gradient steps of one,
    or inside it; some rows are thinner than a one-sided stencil."""
    m = draw(st.integers(2, 5))
    indices = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    p, rows = [], []
    for _ in range(m):
        lo = draw(st.floats(-3.0, 2.0))
        hi = lo + draw(st.sampled_from([1e-5, 2e-5, 0.5, 3.0]))
        where = draw(st.sampled_from(["face", "near", "inside"]))
        if where == "inside":
            value = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        else:
            offset = 0.0 if where == "face" else draw(st.floats(0.0, 2e-5))
            value = min(lo + offset, hi) if draw(st.booleans()) else max(hi - offset, lo)
        p.append(value)
        rows.append([lo, hi])
    return np.array(p), indices, np.array(rows)[indices]


def gradient_outcome(call):
    """``(gradient or ValueError, clamp warnings)`` of one gradient call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ValueError as err:
            result = err
    return result, sum(issubclass(w.category, BoundaryStepWarning) for w in caught)


@settings(max_examples=300, deadline=None)
@given(gradient_cases(), st.integers(0, 2**32 - 1))
def test_gradient_along_parameters_is_the_embedded_stencil(case, seed):
    # Without a closed form, the rule's gradient along ``indices`` at the
    # full point is fd_gradient of the merit along the embedded parameters
    # bit for bit: the same points in the same order, the same values and
    # clamp warnings, and the same thin-row refusal, which names the
    # parameter index instead of its position in ``indices``.
    p, indices, box = case
    seen = []
    merit = sine_merit(p.size, seed, seen)

    def embed(u):
        q = p.copy()
        q[indices] = u
        return q

    want, want_clamps = gradient_outcome(
        lambda: ms.fd_gradient(lambda u: merit(embed(u)), p[indices], box=box)
    )
    want_seen = seen[:]
    seen.clear()
    got, got_clamps = gradient_outcome(lambda: ms.numerics._gradient(merit, p, box, indices))
    assert seen == want_seen
    assert got_clamps == want_clamps
    if isinstance(want, ValueError):
        assert got.coordinate == indices[want.coordinate]
        assert str(got) == str(want).replace(
            f"coordinate {want.coordinate}", f"coordinate {got.coordinate}"
        )
    else:
        assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(gradient_cases(), st.integers(0, 2**32 - 1))
def test_gradient_along_parameters_takes_the_closed_form(case, seed):
    p, indices, box = case
    seen = []
    weights = np.arange(1.0, p.size + 1)
    merit = sine_merit(p.size, seed, seen, gradient=lambda q: np.cos(q) * weights)
    got = ms.numerics._gradient(merit, p, box, indices)
    assert got.tobytes() == merit.gradient(p)[indices].tobytes()
    assert not seen
