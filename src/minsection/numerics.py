"""Finite-difference derivatives, symmetric eigen-analysis, and stable
linear least-squares solves.

Everything here is a pure function of its inputs and safe to call
concurrently. One rule picks every derivative of a merit that the outer
stage, its final certificate, the convexity probes and the critical-point
census take: the merit's closed form where it has one, which evaluates no
merit, else central differences in a box. :func:`_gradient` applies it to
a gradient along any subset of the parameters, :func:`_hessian` to the
full Hessian at a point, and :func:`_hessian_blocks` to the Hessian blocks
at a stack of points (where linear elimination applies, a model's exact
block comes first). :func:`fd_gradient`, :func:`fd_hessian` and the Newton
slices always take differences. Callers are responsible for supplying
objectives that are smooth (C^2) on their domain box.
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
    "Refusal",
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


class Refusal(Exception):
    """A theory precondition failed, or no answer can be certified. The
    witness ``point`` is the full parameter vector where, as a float array,
    or None; ``min_eig``, the refused Hessian's smallest eigenvalue there,
    and ``value``, the objective there, are None on a refusal without them."""

    min_eig = None
    value = None

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = None if point is None else np.array(point, dtype=float)


class NonFiniteValueError(Refusal, ValueError):
    """A finite-difference stencil met a non-finite objective value, or a
    closed-form derivative has a non-finite entry.

    ``point`` is the stencil center, a point inside the domain box whose
    neighborhood the objective is not finite on, or the point the closed
    form was taken at. ``coordinates`` holds the coordinate of a non-finite
    gradient entry, or the pair of a non-finite Hessian entry, and is empty
    otherwise.
    """

    def __init__(self, message: str, point, coordinates=()):
        super().__init__(message, point)
        self.coordinates = tuple(coordinates)


class RankDeficiencyError(Refusal, ValueError):
    """A least-squares matrix is numerically rank deficient."""

    def __init__(self, message: str, rank: int, required: int):
        super().__init__(message)
        self.rank = rank
        self.required = required


@dataclass(frozen=True)
class DerivativeReport:
    """Finite-difference gradient and Hessian at a point.

    ``hessian`` is symmetric by construction: each mixed partial is computed
    once, by the seven-point formula, and stored in both entries.
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
    This is :func:`_differences` along every parameter, the stencil the
    derivative rule (:func:`_gradient`) takes where there is no closed form.
    """
    p = np.asarray(p, dtype=float)
    return _differences(f, p, _resolve_box(f, box), range(p.size))


def _gradient(f, p, box, indices=None) -> np.ndarray:
    """The derivative rule's gradient of ``f`` at the full point ``p``
    along the parameters ``indices`` (all of them when None), ``box``
    holding one ``[lo, hi]`` row per differentiated parameter.

    Where ``f`` has a closed-form ``gradient``, it is ``f.gradient(p)``
    restricted to ``indices``, trusted and evaluating no merit. One of
    another shape than (M,), M ``f.dimension``, raises ``ValueError``, and
    one with a non-finite entry anywhere :class:`NonFiniteValueError`
    carrying ``p`` and the entry's parameter index. Otherwise it is
    :func:`_differences`, whose errors name parameters the same way.
    """
    gradient = getattr(f, "gradient", None)
    if gradient is None:
        return _differences(f, p, box, range(p.size) if indices is None else indices)
    g = np.asarray(gradient(p), dtype=float)
    if g.shape != (f.dimension,):
        raise ValueError(f"closed-form gradient has shape {g.shape}, expected ({f.dimension},)")
    if not all(map(math.isfinite, g.tolist())):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise NonFiniteValueError(
            f"non-finite closed-form gradient entry at coordinate {bad}", p, (bad,)
        )
    return g if indices is None else g[list(indices)]


def _differences(f, p, box, indices) -> np.ndarray:
    """:func:`fd_gradient`'s stencil at the full point ``p`` along the
    parameters ``indices``, ``box`` holding one ``[lo, hi]`` row per
    parameter in ``indices`` (unbounded when None). The one-sided
    differences share one evaluation of the center ``f(p)``. A row too thin
    for them raises ``ValueError`` carrying the parameter as
    ``coordinate``, and a non-finite entry :class:`NonFiniteValueError`
    carrying ``p`` and the entry's parameter index.
    """
    bounds = itertools.repeat((-np.inf, np.inf)) if box is None else box.tolist()
    values = p.tolist()
    grad = []
    clamped = False
    f0 = None  # f(p), evaluated by the first one-sided coordinate only
    work = p.copy()
    for i, (lo, hi) in zip(indices, bounds):
        value = values[i]
        h = (value + GRADIENT_STEP * max(1.0, abs(value))) - value  # _exact_step, inline
        if value + h <= hi and value - h >= lo:
            work[i] = value + h
            f_plus = f(work)
            work[i] = value - h
            f_minus = f(work)
            grad.append((f_plus - f_minus) / (2.0 * h))
        else:
            clamped = True
            sign = 1.0 if value + 2.0 * h <= hi else -1.0
            if sign < 0 and value - 2.0 * h < lo:
                raise _thin_box_error(i)
            if f0 is None:
                f0 = f(p)
            work[i] = value + sign * h
            f1 = f(work)
            work[i] = value + sign * 2.0 * h
            f2 = f(work)
            grad.append(sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h))
        work[i] = value
    if clamped:
        warnings.warn(
            "gradient stencil clamped at the domain boundary; one-sided "
            "differences were used",
            BoundaryStepWarning,
            stacklevel=3,
        )
    if not all(map(math.isfinite, grad)):
        bad = next(k for k, entry in enumerate(grad) if not math.isfinite(entry))
        raise _non_finite_gradient_error(indices[bad], p)
    return np.array(grad, dtype=float)


def _central(p, box) -> bool:
    """Whether :func:`fd_gradient`'s stencil at ``p`` is central along every
    coordinate in ``box``, so that it makes no one-sided difference there."""
    for value, (lo, hi) in zip(p.tolist(), box.tolist()):
        h = (value + GRADIENT_STEP * max(1.0, abs(value))) - value
        if not (value + h <= hi and value - h >= lo):
            return False
    return True


def _norm(v) -> float:
    """The Euclidean norm of the 1-D float64 array ``v``: ``sqrt(v . v)``,
    bitwise :func:`numpy.linalg.norm`, with the same overflow warning."""
    return math.sqrt(v.dot(v))


def _second_diff_block(f, p, indices, box, f0=None):
    """Central second differences of ``f`` on the given coordinates.

    Diagonal entries use the three-point stencil. Each off-diagonal pair
    is computed once and written to both (a, b) and (b, a), so the block is
    exactly symmetric, by the seven-point formula (Abramowitz & Stegun
    1964, 25.3.27)::

        F_ab = (f(+a+b) + f(-a-b) - f(+a) - f(-a) - f(+b) - f(-b) + 2 f0)
               / (2 h_a h_b)

    which reuses the diagonal's axis points, so a pair costs the two
    points ``f(+a+b)`` and ``f(-a-b)`` and the block ``1 + k + k^2``
    evaluations (``k + k^2`` when the caller passes ``f0 = f(p)``). Its
    truncation error is O(h^2); its rounding error, weight 8 over
    ``2 h_a h_b``, is about ``4 eps |f| / (h_a h_b)``, like the diagonal's.
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
    plus, minus = [], []
    for a, (i, h) in enumerate(zip(indices, steps)):
        c = center[i]
        work[i] = c + h
        plus.append(f(work))
        work[i] = c - h
        minus.append(f(work))
        work[i] = c
        block[a][a] = (plus[a] - 2.0 * f0 + minus[a]) / (h * h)
    for a, i in enumerate(indices):
        for b in range(a + 1, k):
            j = indices[b]
            ha, hb = steps[a], steps[b]
            work[i] = center[i] + ha
            work[j] = center[j] + hb
            fpp = f(work)
            work[i] = center[i] - ha
            work[j] = center[j] - hb
            fmm = f(work)
            work[i] = center[i]
            work[j] = center[j]
            block[a][b] = block[b][a] = (
                fpp + fmm - plus[a] - minus[a] - plus[b] - minus[b] + 2.0 * f0
            ) / (2.0 * ha * hb)
    if not all(map(math.isfinite, itertools.chain.from_iterable(block))):
        raise _non_finite_block_error(np.array(block), indices, center)
    return np.array(block), np.array(steps), shifted


#: Bound on the sum S of a stencil's absolute values, per unit of
#: ``min(1, h_min^2)``, below which its block cannot overflow. Each
#: numerator takes f0 twice and every other point at most once, so every
#: partial sum of it is at most 2 S <= 2e307 in magnitude. A diagonal
#: divides by ``h_a^2`` and a mixed entry by ``2 h_a h_b``, both at least
#: ``min(1, h_min^2)``, so every entry is at most 2e307 before rounding and
#: below 3e307 after it, far from the float64 maximum (1.8e308).
_FINITE_BLOCK_BOUND = 1e307


@functools.lru_cache(maxsize=None)
def _stencil_entries(k):
    """Where the ``1 + k + k^2`` points of a second-difference stencil, in
    the order :func:`_second_diff_block` evaluates them (the center, the
    +- pair of each coordinate, then pp and mm for each pair a < b), leave
    the center: ``(point, coordinate, sign)`` arrays, one entry per
    coordinate moved by its step."""
    point, coordinate, sign = [], [], []
    for a in range(k):
        point += [1 + 2 * a, 2 + 2 * a]
        coordinate += [a, a]
        sign += [1.0, -1.0]
    row = 1 + 2 * k
    for a in range(k):
        for b in range(a + 1, k):
            for sa, sb in ((1.0, 1.0), (-1.0, -1.0)):
                point += [row, row]
                coordinate += [a, b]
                sign += [sa, sb]
                row += 1
    return np.array(point), np.array(coordinate), np.array(sign)


def _thin_box_error(coordinate):
    """The ``ValueError`` of a box thinner than an FD stencil along
    ``coordinate``, which it also carries as ``coordinate``."""
    err = ValueError(f"domain box is thinner than the FD stencil along coordinate {coordinate}")
    err.coordinate = coordinate
    return err


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
    """:func:`_second_diff_block` at each row of ``points`` in ``box``, as
    an (N, k, k) array.

    The steps, the inward shifts, the thin-box mask and the ``1 + k + k^2``
    stencil points of every row, laid out as in :func:`_stencil_entries`,
    are computed with numpy. ``f`` is then called in one flat walk over the
    (nodes x points, M) stencil, node after node in the scalar order (the
    center, the +- pairs, then pp and mm per pair), and the blocks are
    assembled with the scalar formulas in the scalar operation order, so
    each block is bitwise the scalar one and costs the same ``1 + k + k^2``
    evaluations. The walk tests each node as it ends: a node whose values
    sum in absolute value to at most its bound has a finite block, and any
    other node has its block assembled and checked. So a thin box or a
    non-finite block raises the scalar error at the first node that has
    one, after evaluating exactly the points before it (a non-finite block
    after its own points).
    """
    points = np.asarray(points, dtype=float)
    idx = np.asarray(indices, dtype=int)
    k = idx.size
    x = points[:, idx]
    steps = (x + HESSIAN_STEP * np.maximum(1.0, np.abs(x))) - x
    lo, hi = box[idx, 0], box[idx, 1]
    thin = hi - lo < 4.0 * steps
    q = points.copy()
    q[:, idx] = np.minimum(np.maximum(x, lo + steps), hi - steps)
    # each point moves its coordinates by +- their steps off the center
    point, coordinate, sign = _stencil_entries(k)
    moved = idx[coordinate]
    stencil = np.repeat(q[:, None, :], 1 + k + k * k, axis=1)
    stencil[:, point, moved] = q[:, moved] + sign * steps[:, coordinate]
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
    a, b = np.triu_indices(k, 1)
    blocks = np.empty((count, k, k))
    f0 = values[:, :1]
    plus, minus = values[:, 1 : 1 + 2 * k : 2], values[:, 2 : 2 + 2 * k : 2]
    diag = np.arange(k)
    blocks[:, diag, diag] = (plus - 2.0 * f0 + minus) / (steps * steps)
    if k > 1:
        fpp, fmm = values[:, 1 + 2 * k :: 2], values[:, 2 + 2 * k :: 2]
        mixed = (
            fpp + fmm - plus[:, a] - minus[:, a] - plus[:, b] - minus[:, b] + 2.0 * f0
        ) / (2.0 * steps[:, a] * steps[:, b])
        blocks[:, a, b] = mixed
        blocks[:, b, a] = mixed
    return blocks


def fd_hessian(f, p, box=AUTO, f0=None) -> DerivativeReport:
    """Central-difference Hessian (with gradient) at ``p``.

    Costs ``2 M`` evaluations for the gradient plus ``1 + M + M^2`` for the
    second differences (19 in total at M = 3), one fewer when ``f0``
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

    The one-row call of the convexity probe's rule
    (:func:`_hessian_blocks`): the exact ``2 Phi^T Phi`` of a partially
    linear model whose layout matches the split, which keeps the block
    bitwise independent of the linear coordinates; else ``f.hessian``
    restricted to the block, where ``f`` has a closed form; else central
    second differences, ``1 + m + m^2`` evaluations (cheaper than
    :func:`fd_hessian`'s full stencil and gradient). A non-finite block
    raises :class:`NonFiniteValueError` carrying ``p``.
    """
    p = np.asarray(p, dtype=float)
    blocks, _ = _hessian_blocks(f, p[None], split, _resolve_box(f, box))
    return blocks[0]


def _hessian_blocks(f, points, split, box):
    """``(blocks, method)``: the Hessian blocks of ``f`` at every row of the
    (N, M) ``points``, on the eliminated coordinates of ``split`` or, when
    ``split`` is None, on all M, and how they were taken. One rule picks
    the source:

    1. where linear elimination applies, the model's exact ``2 Phi^T Phi``
       (:func:`_model_blocks`), ``"closed_form"``;
    2. else, where ``f`` has a closed-form ``hessian``, that Hessian at each
       row restricted to the block (:func:`_merit_blocks`),
       ``"closed_form"``; like a closed-form gradient it is trusted, not
       checked against differences;
    3. else central second differences in ``box``, unbounded when None
       (:func:`_second_diff_blocks`), ``"central_difference"``.

    The convexity probe calls it on each stack of its nodes, and
    :func:`fd_y_block` on one row.
    """
    indices = tuple(range(points.shape[1])) if split is None else tuple(split.y_indices)
    if split is not None and linear_elimination_applies(f, split):
        return _model_blocks(f.model, points, split.x_indices), "closed_form"
    hessian = getattr(f, "hessian", None)
    if hessian is not None:
        return _merit_blocks(hessian, points, indices), "closed_form"
    if box is None:
        box = np.tile([-np.inf, np.inf], (points.shape[1], 1))
    return _second_diff_blocks(f, points, indices, box), "central_difference"


def _model_blocks(model, points, x_indices) -> np.ndarray:
    """The closed-form eliminated blocks ``2 Phi^T Phi`` at every row of
    ``points``, from one stacked design matrix and one stacked matmul. An
    overflow leaves an infinite entry and no warning, and the first row
    whose block is not finite raises :class:`NonFiniteValueError` carrying
    it; a basis map that raises does so before any block is checked.
    """
    phi = model.design_matrix(points[:, x_indices])
    with np.errstate(over="ignore"):
        blocks = np.matmul(2.0 * phi.transpose(0, 2, 1), phi)
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        raise NonFiniteValueError(
            "non-finite closed-form eliminated-block Hessian", points[np.argmin(finite)]
        )
    return blocks


def _hessian(f, p, box, f0=None) -> np.ndarray:
    """The Hessian of ``f`` at ``p`` on all M parameters: the one-row rule
    beside :func:`_hessian_blocks`, with no model block.

    Where ``f`` has a closed-form ``hessian``, it is ``f.hessian(p)`` as a
    float (M, M) array and evaluates no merit, refused as
    :func:`_merit_blocks` refuses a block on all M coordinates: another
    shape raises ``ValueError``, a non-finite entry
    :class:`NonFiniteValueError` carrying ``p`` and the entry's parameter
    pair, and a matrix not symmetric within ``SYMMETRY_TOL`` of its scale
    ``ValueError``. The entries are tested as Python floats, and symmetry
    only where the two triangles differ: one row through
    :func:`_merit_blocks`' stacked tests would cost the census more than
    the finite differences of a cheap merit. Otherwise it is central second
    differences in ``box`` (:func:`_second_diff_block`), whose stencil
    reuses ``f0 = f(p)`` as its center when given and not shifted.
    """
    hessian = getattr(f, "hessian", None)
    if hessian is None:
        return _second_diff_block(f, p, range(p.size), box, f0)[0]
    h = np.asarray(hessian(p), dtype=float)
    m = p.size
    if h.shape != (m, m):
        raise _hessian_shape_error(h.shape, m)
    flat, transposed = h.ravel().tolist(), h.T.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise _non_finite_block_error(h, range(m), p)
    if flat != transposed:
        skew = max(map(abs, map(float.__sub__, flat, transposed)))
        if skew > SYMMETRY_TOL * max(1.0, max(map(abs, flat))):
            raise _asymmetric_hessian_error(p)
    return h


def _hessian_shape_error(shape, m):
    return ValueError(f"closed-form Hessian has shape {shape}, expected ({m}, {m})")


def _asymmetric_hessian_error(point):
    return ValueError(f"closed-form Hessian block is not symmetric within tolerance at {point}")


def _merit_blocks(hessian, points, indices) -> np.ndarray:
    """The closed-form Hessian ``hessian(p)`` at every row ``p`` of the
    (N, M) ``points``, read as a float array and restricted to the block
    on ``indices``. A Hessian of a shape other than (M, M) raises
    ``ValueError``. The first row whose block has a non-finite entry raises
    :class:`NonFiniteValueError` carrying that row and the entry's
    parameter pair, as a stencil's block does. A block that is not
    symmetric within ``SYMMETRY_TOL`` of its scale, as
    :func:`_check_symmetric` tests it, raises ``ValueError``: ``eigvalsh``
    would read one triangle of it only.
    """
    m = points.shape[1]
    full = []
    for p in points:
        h = np.asarray(hessian(p), dtype=float)
        if h.shape != (m, m):
            raise _hessian_shape_error(h.shape, m)
        full.append(h)
    idx = np.asarray(indices)
    blocks = np.array(full)[:, idx[:, None], idx]
    finite = np.isfinite(blocks).all(axis=(1, 2))
    if not finite.all():
        n = int(np.argmin(finite))
        raise _non_finite_block_error(blocks[n], indices, points[n])
    skew = np.abs(blocks - blocks.transpose(0, 2, 1)).max(axis=(1, 2))
    asymmetric = skew > SYMMETRY_TOL * np.maximum(1.0, np.abs(blocks).max(axis=(1, 2)))
    if asymmetric.any():
        raise _asymmetric_hessian_error(points[np.argmax(asymmetric)])
    return blocks


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
    y, rank, _ = _lsq_rows(A[None], b[None])
    if rank[0] < j:
        raise _rank_error(int(rank[0]), j)
    return y[0]


def _lsq_rows(A, b):
    """Least squares ``min ||A[r] y - b[r]||_2`` for every row r of the
    (N, T, J) stack ``A`` and the (N, T) right-hand sides ``b``, T >= J,
    from one stacked SVD: ``(y, rank, s)``, shapes (N, J), (N,) and (N, J),
    ``s`` each row's singular values in descending order.

    Each rank counts the singular values above ``eps max(T, J) s_max``, the
    rule of :func:`numpy.linalg.lstsq` with ``rcond=None``, and ``y`` is
    ``V diag(1/s) U^T b`` over those values, formed with stacked matmuls.
    A rank-deficient row gets that truncated solution and no warning; its
    caller refuses it. Each row is bitwise the one-row stack's result.
    """
    u, s, vh = np.linalg.svd(A, full_matrices=False)
    kept = s > EPS * max(A.shape[1:]) * s[:, :1]
    c = np.divide(np.matmul(b[:, None, :], u)[:, 0], s, out=np.zeros_like(s), where=kept)
    return np.matmul(c[:, None, :], vh)[:, 0], kept.sum(axis=1), s


def _rank_error(rank, required, where=""):
    """The :class:`RankDeficiencyError` of a matrix of numerical rank
    ``rank`` below ``required`` columns, its message prefixed by ``where``."""
    return RankDeficiencyError(
        f"{where}matrix has numerical rank {rank}, expected full column rank {required}",
        rank=rank,
        required=required,
    )
