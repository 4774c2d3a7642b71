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
    # gradient 2M = 6, diagonal 1 + 2M = 7, one 4-point stencil per pair: 3 * 4
    f = CountingCubic()
    report = ms.fd_hessian(f, np.array([0.3, -0.7, 1.1]), box=None)
    assert f.calls == 25
    assert np.array_equal(report.hessian, report.hessian.T)


def test_fd_y_block_stencil_count():
    f = CountingCubic()
    block = ms.fd_y_block(f, np.array([0.3, -0.7, 1.1]), ms.ParameterSplit((0,), (1, 2)), box=None)
    assert f.calls == 9
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
