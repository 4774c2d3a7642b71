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
    neighborhood the objective is not finite on.
    """

    def __init__(self, message: str, point):
        super().__init__(message)
        self.point = np.array(point, dtype=float)


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
            grad.append(_inward_derivative(f, p, work, i, h, lo, hi))
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


def _inward_derivative(f, p, work, i, h, lo, hi):
    """Three-point one-sided difference of ``f`` along coordinate ``i`` at
    ``p``, with step ``h`` toward the interior of ``[lo, hi]``: upward
    unless ``p_i + 2h`` passes ``hi``. ``work`` is a copy of ``p``; its
    coordinate ``i`` is left at the last stencil point."""
    sign = 1.0 if p[i] + 2.0 * h <= hi else -1.0
    if sign < 0 and p[i] - 2.0 * h < lo:
        raise _thin_box_error(i)
    f0 = f(p)
    work[i] = p[i] + sign * h
    f1 = f(work)
    work[i] = p[i] + sign * 2.0 * h
    f2 = f(work)
    return sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)


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


#: Fewest rows whose finite-difference stencils :func:`_fd_hessians` builds
#: as one stack; fewer rows take the scalar stencils of :func:`fd_hessian`
#: one row at a time, which cost less numpy overhead than one stacked
#: stencil below about eight rows.
MIN_STACKED_ROWS = 8

#: Bound on the sum of a stencil's absolute values, per unit of
#: ``min(1, h_min^2)``, below which its block cannot overflow: every entry
#: is then at most 3e307 in magnitude.
_FINITE_BLOCK_BOUND = 1e307


@functools.lru_cache(maxsize=None)
def _stencil_entries(k, count):
    """Where the first ``count`` of the ``1 + 2 k^2`` points of a
    second-difference stencil, in the order :func:`_second_diff_block`
    evaluates them (the center, the +- pair of each coordinate, then pp,
    pm, mm, mp for each pair a < b), leave the center: ``(point,
    coordinate, sign)`` arrays, one entry per coordinate moved by its step.
    The +- pairs are the points 1 to 2k."""
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
    taken = np.array(point) < count
    return np.array(point)[taken], np.array(coordinate)[taken], np.array(sign)[taken]


def _stencil(centers, steps, count, indices=None):
    """The first ``count`` points of the second-difference stencil around
    each row of ``centers``, shape (N, count, M): the coordinates
    ``indices`` (all by default) are moved by ``+- steps``, as ``center +
    step`` and ``center - step``."""
    point, coordinate, sign = _stencil_entries(steps.shape[1], count)
    moved = coordinate if indices is None else indices[coordinate]
    stencil = np.repeat(centers[:, None, :], count, axis=1)
    stencil[:, point, moved] = centers[:, moved] + sign * steps[:, coordinate]
    return stencil


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
    return steps, q, thin, _stencil(q, steps, 1 + 2 * k * k, idx)


def _thin_box_error(coordinate):
    return ValueError(f"domain box is thinner than the FD stencil along coordinate {coordinate}")


def _non_finite_gradient_error(coordinate, p):
    return NonFiniteValueError(f"non-finite gradient entry at coordinate {coordinate}", p)


def _non_finite_block_error(block, indices, point):
    a, b = np.argwhere(~np.isfinite(block))[0]
    return NonFiniteValueError(
        f"non-finite Hessian entry at coordinate pair ({indices[a]}, {indices[b]})", point
    )


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


def _fd_hessians(fs, points, box, f0):
    """:func:`fd_hessian` at each row of the (N, k) stack ``points`` in
    ``box``, given the values ``f0`` there: ``(gradients, hessians,
    errors)``, the errors keyed by position in the stack.

    ``fs[j]`` is the objective of row j. One path serves every stack, a
    lone row included. A stack of fewer than ``MIN_STACKED_ROWS`` rows,
    and a row whose gradient stencil would be clamped or whose
    second-difference stencil would be shifted off a face of the box, take
    the two stencils of :func:`fd_hessian` row by row, called directly
    (:func:`fd_gradient`, then :func:`_second_diff_block` given the row's
    value), with none of its set-up. The other rows take one stacked central
    gradient stencil and then the stacked second-difference stencil of the
    probe's plan (:func:`_second_diff_stencil`), each walked flat by
    :func:`_evaluate`, row after row and each row's points in the scalar
    order, with the scalar formulas: each row's gradient and Hessian are
    bitwise those of :func:`fd_hessian`, and its points are those
    :func:`fd_hessian` evaluates, in its order. ``errors`` maps a row to
    the error :func:`fd_hessian` raises there, a thin box or a non-finite
    entry, after the evaluations it makes before raising (a row whose
    gradient is not finite has no second-difference points).
    """
    n, k = points.shape
    grads, hessians, errors = np.zeros((n, k)), np.zeros((n, k, k)), {}
    alone = range(n)
    if n >= MIN_STACKED_ROWS:
        s, q, thin, stencil = _second_diff_stencil(points, range(k), box)
        h = (points + GRADIENT_STEP * np.maximum(1.0, np.abs(points))) - points
        inside = (points + h <= box[:, 1]) & (points - h >= box[:, 0]) & ~thin & (q == points)
        inside = inside.all(axis=1)
        alone = np.flatnonzero(~inside).tolist()
    indices = tuple(range(k))
    for j in alone:  # the two stencils of fd_hessian
        try:
            grads[j] = fd_gradient(fs[j], points[j], box)
            hessians[j] = _second_diff_block(fs[j], points[j], indices, box, f0[j])[0]
        except ValueError as err:  # NonFiniteValueError is a ValueError
            errors[j] = err
    if n < MIN_STACKED_ROWS or not inside.any():
        return grads, hessians, errors
    at = np.flatnonzero(inside)
    pairs = _evaluate(fs, at, _stencil(points[at], h[at], 1 + 2 * k)[:, 1:]).reshape(-1, k, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        g = (pairs[..., 0] - pairs[..., 1]) / (2.0 * h[at])
    grads[at] = g
    finite = np.isfinite(g).all(axis=1)
    for j, row in zip(at[~finite].tolist(), g[~finite]):
        bad = int(np.flatnonzero(~np.isfinite(row))[0])
        errors[j] = _non_finite_gradient_error(bad, points[j])
    at = at[finite]
    values = np.empty((at.size, 1 + 2 * k * k))
    values[:, 0] = np.asarray(f0)[at]
    values[:, 1:] = _evaluate(fs, at, stencil[at, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        hessians[at] = blocks = _assemble_blocks(values, s[at])
    for i in np.flatnonzero(~np.isfinite(blocks).all(axis=(1, 2))).tolist():
        errors[int(at[i])] = _non_finite_block_error(blocks[i], range(k), points[at[i]])
    return grads, hessians, errors


def _evaluate(fs, at, stencil):
    """The values ``fs[j](point)`` at the points of each row ``j`` of ``at``
    (its row of the (len(at), S, k) ``stencil``), in order, as an
    (len(at), S) array: one flat walk over the (len(at) x S, k) points,
    each row's S points taken by its own objective."""
    size = stencil.shape[1]
    walk = iter(stencil.reshape(-1, stencil.shape[2]))
    rows = [fs[j] for j in at.tolist()]
    values = [f(point) for f in rows for point in itertools.islice(walk, size)]
    return np.reshape(values, stencil.shape[:2])


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
    if linear_elimination_applies(f, split):
        phi = f.model.design_matrix(split.x_part(p))
        with np.errstate(over="ignore"):
            block = 2.0 * phi.T @ phi
        if not np.all(np.isfinite(block)):
            raise NonFiniteValueError("non-finite closed-form eliminated-block Hessian", p)
        return block
    box = _resolve_box(f, box)
    block, _, _ = _second_diff_block(f, p, tuple(split.y_indices), box)
    return block


SYMMETRY_TOL = 1e-8


def _check_symmetric(H) -> np.ndarray:
    H = np.asarray(H, dtype=float)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(1.0, float(np.max(np.abs(H)))) if H.size else 1.0
    if float(np.max(np.abs(H - H.T))) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return 0.5 * (H + H.T)


def eigen_index(H) -> EigenSummary:
    """Full symmetric eigendecomposition with sign counts.

    ``negative_count`` is the candidate Morse index; ``near_zero_count > 0``
    signals a degenerate (numerically singular) matrix. The degeneracy
    tolerance is ``1e-6 * max(1, max |eigenvalue|)``.
    """
    H = _check_symmetric(H)
    w = np.linalg.eigvalsh(H)
    degeneracy_tol = 1e-6 * max(1.0, float(np.max(np.abs(w))))
    near_zero = int(np.count_nonzero(np.abs(w) <= degeneracy_tol))
    negative = int(np.count_nonzero(w < -degeneracy_tol))
    positive = int(np.count_nonzero(w > degeneracy_tol))
    return EigenSummary(
        eigenvalues=w,
        min_abs=float(np.min(np.abs(w))),
        negative_count=negative,
        near_zero_count=near_zero,
        positive_count=positive,
        degeneracy_tol=float(degeneracy_tol),
    )


def is_positive_definite(H) -> bool:
    """True iff the smallest eigenvalue exceeds ``1e-8 * max(1, ||H||_2)``."""
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
