"""Finite-difference derivatives, symmetric eigen-analysis, and stable
linear least-squares solves.

Everything here is a pure function of its inputs and safe to call
concurrently. Derivatives are obtained by finite differences only; callers
are responsible for supplying objectives that are smooth (C^2) on their
domain box.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .problems import linear_elimination_applies

__all__ = [
    "AUTO",
    "BoundaryStepWarning",
    "DerivativeReport",
    "EigenSummary",
    "NonFiniteValueError",
    "RankDeficiencyError",
    "eigen_index",
    "fd_gradient",
    "fd_hessian",
    "fd_y_block",
    "is_positive_definite",
    "linear_lsq_solve",
]

EPS = float(np.finfo(float).eps)
#: Relative step for central first differences (balances truncation/roundoff).
GRADIENT_STEP = EPS ** (1.0 / 3.0)
#: Relative step for central second differences.
HESSIAN_STEP = EPS ** 0.25

#: Sentinel: resolve the domain box from the objective's ``domain_box`` attribute.
AUTO = object()


class BoundaryStepWarning(UserWarning):
    """A finite-difference stencil was clamped at the domain boundary."""


class NonFiniteValueError(ValueError):
    """A finite-difference stencil met a non-finite objective value.

    ``point`` is the stencil center, a point inside the domain box whose
    neighborhood the objective is not finite on. ``coordinates`` holds the
    coordinate of a non-finite gradient entry, or the pair of a non-finite
    Hessian entry, and is empty otherwise.
    """

    def __init__(self, message: str, point, coordinates=()):
        super().__init__(message)
        self.point = np.array(point, dtype=float)
        self.coordinates = tuple(coordinates)


class RankDeficiencyError(ValueError):
    """A least-squares matrix is numerically rank deficient."""

    def __init__(self, message: str, rank: int, required: int):
        super().__init__(message)
        self.rank = rank
        self.required = required


@dataclass(frozen=True)
class DerivativeReport:
    """Finite-difference gradient and Hessian at a point.

    ``hessian`` is symmetric by construction: each mixed partial is computed
    once, from the four-point stencil, and stored in both entries.
    """

    gradient: np.ndarray
    hessian: np.ndarray
    fd_step: np.ndarray
    boundary_clamped: bool


@dataclass(frozen=True)
class EigenSummary:
    """Signature of a symmetric matrix: sorted spectrum and sign counts.

    The three counts partition the spectrum: eigenvalues below
    -degeneracy_tol are negative, those within +-degeneracy_tol are near
    zero, the rest are positive.
    """

    eigenvalues: np.ndarray
    min_abs: float
    negative_count: int
    near_zero_count: int
    positive_count: int
    degeneracy_tol: float


def _resolve_box(f, box):
    if box is AUTO:
        box = getattr(f, "domain_box", None)
    if box is None:
        return None
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise ValueError("domain box must have shape (M, 2)")
    return box


def _exact_step(value: float, step: float) -> float:
    # Round the step so value +- step are exactly representable offsets.
    probe = value + step
    return probe - value


def fd_gradient(f, p, box=AUTO) -> np.ndarray:
    """Central-difference gradient with per-coordinate steps
    ``h_i = cbrt(eps) * max(1, |p_i|)``.

    Points too close to the domain box boundary fall back to one-sided
    (three-point) differences toward the interior and raise
    :class:`BoundaryStepWarning`. Pass ``box=None`` to disable clamping.
    """
    p = np.asarray(p, dtype=float)
    box = _resolve_box(f, box)
    bounds = itertools.repeat((-np.inf, np.inf)) if box is None else box.tolist()
    grad = []
    clamped = False
    f0 = None  # f(p), evaluated by the first one-sided coordinate only
    work = p.copy()
    for i, (value, (lo, hi)) in enumerate(zip(p.tolist(), bounds)):
        h = (value + GRADIENT_STEP * max(1.0, abs(value))) - value  # _gradient_step, inline
        if value + h <= hi and value - h >= lo:
            work[i] = value + h
            f_plus = f(work)
            work[i] = value - h
            f_minus = f(work)
            grad.append((f_plus - f_minus) / (2.0 * h))
        else:
            clamped = True
            derivative, f0 = _inward_derivative(f, p, work, i, h, lo, hi, f0)
            grad.append(derivative)
        work[i] = value
    if clamped:
        warnings.warn(
            "gradient stencil clamped at the domain boundary; one-sided "
            "differences were used",
            BoundaryStepWarning,
            stacklevel=2,
        )
    if not all(map(math.isfinite, grad)):
        bad = next(i for i, entry in enumerate(grad) if not math.isfinite(entry))
        raise _non_finite_gradient_error(bad, p)
    return np.array(grad, dtype=float)


def _gradient_step(value: float) -> float:
    """The gradient stencil's step ``cbrt(eps) * max(1, |value|)``, rounded
    by :func:`_exact_step`."""
    return _exact_step(value, GRADIENT_STEP * max(1.0, abs(value)))


def _inward_derivative(f, p, work, i, h, lo, hi, f0=None):
    """Three-point one-sided difference of ``f`` along coordinate ``i`` at
    ``p``, with step ``h`` toward the interior of ``[lo, hi]``: upward
    unless ``p_i + 2h`` passes ``hi``. ``work`` is a copy of ``p``; its
    coordinate ``i`` is left at the last stencil point. ``f0`` is ``f(p)``,
    evaluated here when None. Returns ``(derivative, f0)``."""
    sign = 1.0 if p[i] + 2.0 * h <= hi else -1.0
    if sign < 0 and p[i] - 2.0 * h < lo:
        raise _thin_box_error(i)
    if f0 is None:
        f0 = f(p)
    work[i] = p[i] + sign * h
    f1 = f(work)
    work[i] = p[i] + sign * 2.0 * h
    f2 = f(work)
    return sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h), f0


def _central(p, box) -> bool:
    """Whether :func:`fd_gradient`'s stencil at ``p`` is central along every
    coordinate in ``box``, so that it makes no one-sided difference there."""
    for value, (lo, hi) in zip(p.tolist(), box.tolist()):
        h = _gradient_step(value)
        if not (value + h <= hi and value - h >= lo):
            return False
    return True


def _norm(v) -> float:
    """The Euclidean norm of the 1-D float64 array ``v``: ``sqrt(v . v)``,
    bitwise :func:`numpy.linalg.norm`, with the same overflow warning."""
    return math.sqrt(v.dot(v))


def _second_diff_block(f, p, indices, box, f0=None):
    """Central second differences of ``f`` on the given coordinates.

    Diagonal entries use the three-point stencil; each off-diagonal pair is
    evaluated once with the four-point stencil and written to both (a, b)
    and (b, a), so the block is exactly symmetric and costs ``1 + 2 k^2``
    evaluations (``2 k^2`` when the caller passes ``f0 = f(p)``).
    Near-boundary points are shifted inward by one step so the full stencil
    stays inside the box (second derivatives are continuous, so the shifted
    estimate is reported with a ``boundary_clamped`` flag rather than a
    lower-order formula); a shifted stencil evaluates its own center.
    The steps, shifts and stencil coordinates are Python floats, bitwise
    the numpy scalars, every stencil point is written into one ``work``
    array, and the block's entries are tested for finiteness as the
    Python floats they are computed as.
    """
    p = np.asarray(p, dtype=float)
    center = p.tolist()
    bounds = None if box is None else box.tolist()
    steps = []
    shifted = False
    for i in indices:
        value = center[i]
        h = _exact_step(value, HESSIAN_STEP * max(1.0, abs(value)))
        steps.append(h)
        if bounds is not None:
            lo, hi = bounds[i]
            if hi - lo < 4.0 * h:
                raise _thin_box_error(i)
            moved = min(max(value, lo + h), hi - h)
            if moved != value:
                shifted = True
                center[i] = moved
    k = len(steps)
    block = [[0.0] * k for _ in range(k)]
    work = np.array(center)
    if f0 is None or shifted:
        f0 = f(work)
    for a, (i, h) in enumerate(zip(indices, steps)):
        c = center[i]
        work[i] = c + h
        f_plus = f(work)
        work[i] = c - h
        f_minus = f(work)
        work[i] = c
        block[a][a] = (f_plus - 2.0 * f0 + f_minus) / (h * h)
    for a, i in enumerate(indices):
        for b in range(a + 1, k):
            j = indices[b]
            ha, hb = steps[a], steps[b]
            work[i] = center[i] + ha
            work[j] = center[j] + hb
            fpp = f(work)
            work[j] = center[j] - hb
            fpm = f(work)
            work[i] = center[i] - ha
            fmm = f(work)
            work[j] = center[j] + hb
            fmp = f(work)
            work[i] = center[i]
            work[j] = center[j]
            block[a][b] = block[b][a] = (fpp - fpm - fmp + fmm) / (4.0 * ha * hb)
    if not all(map(math.isfinite, itertools.chain.from_iterable(block))):
        raise _non_finite_block_error(np.array(block), indices, center)
    return np.array(block), np.array(steps), shifted


#: Bound on the sum of a stencil's absolute values, per unit of
#: ``min(1, h_min^2)``, below which its block cannot overflow: every entry
#: is then at most 3e307 in magnitude.
_FINITE_BLOCK_BOUND = 1e307


@functools.lru_cache(maxsize=None)
def _stencil_entries(k):
    """Where the ``1 + 2 k^2`` points of a second-difference stencil, in
    the order :func:`_second_diff_block` evaluates them (the center, the
    +- pair of each coordinate, then pp, pm, mm, mp for each pair a < b),
    leave the center: ``(point, coordinate, sign)`` arrays, one entry per
    coordinate moved by its step."""
    point, coordinate, sign = [], [], []
    for a in range(k):
        point += [1 + 2 * a, 2 + 2 * a]
        coordinate += [a, a]
        sign += [1.0, -1.0]
    row = 1 + 2 * k
    for a in range(k):
        for b in range(a + 1, k):
            for sa, sb in ((1.0, 1.0), (1.0, -1.0), (-1.0, -1.0), (-1.0, 1.0)):
                point += [row, row]
                coordinate += [a, b]
                sign += [sa, sb]
                row += 1
    return np.array(point), np.array(coordinate), np.array(sign)


@functools.lru_cache(maxsize=None)
def _pairs(k):
    """The index pairs a < b of k coordinates, as two arrays."""
    return np.triu_indices(k, 1)


def _second_diff_stencil(points, indices, box):
    """The steps, inward-shifted centers and thin-box mask of
    :func:`_second_diff_block` at each row of ``points``, with numpy, and
    its ``1 + 2 k^2`` stencil points per row, laid out as in
    :func:`_stencil_entries`: ``(steps, q, thin, stencil)``."""
    points = np.asarray(points, dtype=float)
    idx = np.asarray(indices, dtype=int)
    k = idx.size
    x = points[:, idx]
    steps = (x + HESSIAN_STEP * np.maximum(1.0, np.abs(x))) - x
    q = points.copy()
    thin = np.zeros(steps.shape, dtype=bool)
    if box is not None:
        lo, hi = box[idx, 0], box[idx, 1]
        thin = hi - lo < 4.0 * steps
        q[:, idx] = np.minimum(np.maximum(x, lo + steps), hi - steps)
    # each point moves its coordinates by +- their steps off the center
    point, coordinate, sign = _stencil_entries(k)
    moved = idx[coordinate]
    stencil = np.repeat(q[:, None, :], 1 + 2 * k * k, axis=1)
    stencil[:, point, moved] = q[:, moved] + sign * steps[:, coordinate]
    return steps, q, thin, stencil


def _thin_box_error(coordinate):
    return ValueError(f"domain box is thinner than the FD stencil along coordinate {coordinate}")


def _non_finite_entry_error(coordinates, point):
    """The :class:`NonFiniteValueError` of a non-finite gradient entry (one
    coordinate) or Hessian entry (a pair) of the stencil at ``point``."""
    if len(coordinates) == 1:
        where = f"gradient entry at coordinate {coordinates[0]}"
    else:
        where = "Hessian entry at coordinate pair ({}, {})".format(*coordinates)
    return NonFiniteValueError(f"non-finite {where}", point, coordinates)


def _non_finite_gradient_error(coordinate, p):
    return _non_finite_entry_error((coordinate,), p)


def _non_finite_block_error(block, indices, point):
    a, b = np.argwhere(~np.isfinite(block))[0]
    return _non_finite_entry_error((indices[a], indices[b]), point)


def _second_diff_blocks(f, points, indices, box):
    """:func:`_second_diff_block` at each row of ``points``, as an
    (N, k, k) array.

    The steps, the inward shifts and every stencil coordinate are computed
    with numpy (:func:`_second_diff_stencil`). ``f`` is then called in one
    flat walk over the (nodes x points, M) stencil, node after node in the
    scalar order (the center, the +- pairs, then pp, pm, mm, mp per pair),
    and the blocks are assembled with the scalar formulas, so each block is
    bitwise the scalar one and costs the same ``1 + 2 k^2`` evaluations.
    The walk tests each node as it ends: a node whose values sum in
    absolute value to at most its bound has a finite block, and any other
    node has its block assembled and checked. So a thin box or a
    non-finite block raises the scalar error at the first node that has
    one, after evaluating exactly the points before it (a non-finite block
    after its own points).
    """
    steps, q, thin, stencil = _second_diff_stencil(points, indices, box)
    thin_rows = thin.any(axis=1)
    count = int(np.argmax(thin_rows)) if thin_rows.any() else len(q)
    bounds = (_FINITE_BLOCK_BOUND * np.minimum(1.0, steps.min(axis=1) ** 2)).tolist()
    size = stencil.shape[1]
    # zip takes each node's points in turn from the one lazy walk, so no
    # point is evaluated before the nodes ahead of it are tested
    nodes = zip(*[map(f, stencil[:count].reshape(-1, stencil.shape[2]))] * size)
    values = []
    for row, bound in zip(nodes, bounds):
        values += row
        if not sum(map(abs, row)) <= bound:
            n = len(values) // size - 1
            with np.errstate(over="ignore", invalid="ignore"):
                block = _assemble_blocks(np.array([row], dtype=float), steps[n : n + 1])[0]
            if not np.all(np.isfinite(block)):
                raise _non_finite_block_error(block, indices, q[n])
    if count < len(q):
        raise _thin_box_error(indices[int(np.argmax(thin[count]))])
    return _assemble_blocks(np.reshape(values, (count, size)), steps)


def _assemble_blocks(values, steps):
    """Second-difference blocks from stencil values laid out as in
    :func:`_stencil_entries`, with the formulas of
    :func:`_second_diff_block`."""
    count, k = steps.shape
    a, b = _pairs(k)
    blocks = np.empty((count, k, k))
    f0 = values[:, :1]
    diag = np.arange(k)
    blocks[:, diag, diag] = (
        values[:, 1 : 1 + 2 * k : 2] - 2.0 * f0 + values[:, 2 : 2 + 2 * k : 2]
    ) / (steps * steps)
    if k > 1:
        fpp, fpm, fmm, fmp = (values[:, 1 + 2 * k + r :: 4] for r in range(4))
        mixed = (fpp - fpm - fmp + fmm) / (4.0 * steps[:, a] * steps[:, b])
        blocks[:, a, b] = mixed
        blocks[:, b, a] = mixed
    return blocks


def fd_hessian(f, p, box=AUTO, f0=None) -> DerivativeReport:
    """Central-difference Hessian (with gradient) at ``p``.

    Costs ``2 M`` evaluations for the gradient plus ``1 + 2 M^2`` for the
    second differences (25 in total at M = 3), one fewer when ``f0``
    supplies the known value ``f(p)``.

    Parameters
    ----------
    f : callable
        Scalar objective.
    p : array_like
        Evaluation point.
    box : array_like or None
        Domain box; ``AUTO`` reads ``f.domain_box`` when present.
    f0 : float, optional
        The value ``f(p)``, reused as the stencil center unless the stencil
        is shifted off a face of the box.
    """
    p = np.asarray(p, dtype=float)
    box = _resolve_box(f, box)
    grad = fd_gradient(f, p, box=box)
    indices = tuple(range(p.size))
    hessian, steps, shifted = _second_diff_block(f, p, indices, box, f0)
    return DerivativeReport(
        gradient=grad,
        hessian=hessian,
        fd_step=steps,
        boundary_clamped=shifted,
    )


def fd_y_block(f, p, split, box=AUTO) -> np.ndarray:
    """Second-derivative block on the eliminated coordinates only.

    Cheaper than :func:`fd_hessian` when only the y-block is needed
    (``1 + 2 m^2`` evaluations instead of a full stencil and gradient).
    Objectives built from a partially linear model whose layout matches the
    split carry an exactly constant block ``2 Phi^T Phi``; that closed form
    is used directly, which keeps the block bitwise independent of the
    linear coordinates. A non-finite block raises
    :class:`NonFiniteValueError` carrying ``p``.
    """
    p = np.asarray(p, dtype=float)
    if linear_elimination_applies(f, split):
        return _closed_form_blocks(f.model, p[None], split.x_indices)[0]
    box = _resolve_box(f, box)
    block, _, _ = _second_diff_block(f, p, tuple(split.y_indices), box)
    return block


def _closed_form_blocks(model, points, x_indices) -> np.ndarray:
    """The closed-form eliminated blocks ``2 Phi^T Phi`` at every row of
    ``points``, from one stacked design matrix and one stacked matmul
    (:func:`_gram_blocks`); :func:`fd_y_block` is the one-row call. The
    first row whose block is not finite raises :class:`NonFiniteValueError`
    carrying it; a basis map that raises does so before any block is
    checked.
    """
    blocks = _gram_blocks(model.design_matrix(points[:, x_indices]))
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteValueError(
            "non-finite closed-form eliminated-block Hessian", points[np.argmin(finite)]
        )
    return blocks


def _gram_blocks(phi) -> np.ndarray:
    """The blocks ``2 Phi^T Phi`` of a stack of design matrices, from one
    stacked matmul; an overflow leaves an infinite entry and no warning."""
    with np.errstate(over="ignore"):
        return np.matmul(2.0 * phi.transpose(0, 2, 1), phi)


SYMMETRY_TOL = 1e-8


def _check_symmetric(H) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(H).all():
        i, j = np.argwhere(~np.isfinite(H))[0].tolist()
        raise ValueError(f"matrix entry ({i}, {j}) is {float(H[i, j])}, not finite")
    scale = max(1.0, float(np.max(np.abs(H)))) if H.size else 1.0
    if float(np.max(np.abs(H - H.T))) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (H + H.T)


def eigen_index(H) -> EigenSummary:
    """Full symmetric eigendecomposition with sign counts.

    ``negative_count`` is the candidate Morse index; ``near_zero_count > 0``
    signals a degenerate (numerically singular) matrix. The degeneracy
    tolerance is ``1e-6 * max(1, max |eigenvalue|)``. A matrix that is not
    square, has a non-finite entry or is not symmetric within
    ``SYMMETRY_TOL`` raises ``ValueError``, the first non-finite entry
    named, before any decomposition.
    """
    H = _check_symmetric(H)
    w = np.linalg.eigvalsh(H)
    values = w.tolist()
    magnitudes = [abs(v) for v in values]
    # numpy's max and min of |w| propagate NaN, Python's depend on its place
    nan = any(map(math.isnan, magnitudes))
    degeneracy_tol = 1e-6 * max(1.0, math.nan if nan else max(magnitudes))
    return EigenSummary(
        eigenvalues=w,
        min_abs=math.nan if nan else min(magnitudes),
        negative_count=sum(v < -degeneracy_tol for v in values),
        near_zero_count=sum(m <= degeneracy_tol for m in magnitudes),
        positive_count=sum(v > degeneracy_tol for v in values),
        degeneracy_tol=degeneracy_tol,
    )


def is_positive_definite(H) -> bool:
    """True iff the smallest eigenvalue exceeds ``1e-8 * max(1, ||H||_2)``;
    refuses ``H`` as :func:`eigen_index` does."""
    H = _check_symmetric(H)
    w = np.linalg.eigvalsh(H)
    return bool(w[0] > 1e-8 * max(1.0, float(np.max(np.abs(w)))))


def linear_lsq_solve(A, b) -> np.ndarray:
    """Minimize ``||A y - b||_2`` through an orthogonal (SVD) decomposition.

    Normal equations are never formed. This is the one-row call of
    :func:`_lsq_rows`, so a lone system and a row of a stack take the same
    operations. Raises :class:`RankDeficiencyError` carrying the numerical
    rank when A has deficient column rank.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError("A must be a 2-D matrix")
    k, j = A.shape
    if k < j:
        raise ValueError(f"underdetermined system: {k} rows for {j} unknowns")
    y, rank = _lsq_rows(A[None], b[None])
    if rank[0] < j:
        raise _rank_error(int(rank[0]), j)
    return y[0]


def _lsq_rows(A, b):
    """Least squares ``min ||A[r] y - b[r]||_2`` for every row r of the
    (N, T, J) stack ``A`` and the (N, T) right-hand sides ``b``, T >= J,
    from one stacked SVD: ``(y, rank)``, shapes (N, J) and (N,).

    Each rank counts the singular values above ``eps max(T, J) s_max``, the
    rule of :func:`numpy.linalg.lstsq` with ``rcond=None``, and ``y`` is
    ``V diag(1/s) U^T b`` over those values, formed with stacked matmuls.
    A rank-deficient row gets that truncated solution and no warning; its
    caller refuses it. Each row is bitwise the one-row stack's result.
    """
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    kept = s > EPS * max(A.shape[1:]) * s[:, :1]
    c = np.divide(np.matmul(b[:, None, :], u)[:, 0], s, out=np.zeros_like(s), where=kept)
    return np.matmul(c[:, None, :], vh)[:, 0], kept.sum(axis=1)


def _rank_error(rank, required, where=""):
    """The :class:`RankDeficiencyError` of a matrix of numerical rank
    ``rank`` below ``required`` columns, its message prefixed by ``where``."""
    return RankDeficiencyError(
        f"{where}matrix has numerical rank {rank}, expected full column rank {required}",
        rank=rank,
        required=required,
    )
