"""Inner minimization over the eliminated block at fixed retained
coordinates: exact linear elimination for partially linear models, a
safeguarded Newton iteration for objectives convex in the eliminated block,
and sampled convexity certificates that guard both.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import EPS
from .numerics import linear_lsq_solve  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .numerics import fd_hessian  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .numerics import _second_diff_block  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .numerics import fd_y_block  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .problems import MeritFunction, ParameterSplit, linear_elimination_applies

__all__ = [
    "ConvexityCertificate",
    "ConvexityError",
    "SliceProblem",
    "SliceSolver",
    "SubMinimizeError",
    "SubMinimum",
    "default_inner_tol",
    "default_probe_density",
    "linear_elimination_applies",
    "probe_full_convexity",
    "probe_y_convexity",
    "solve_slice",
    "subminimize_linear",
    "subminimize_newton",
]

#: Default inner tolerance is INNER_TOL_FACTOR * max(1, F(x, y)), F taken at
#: the certified iterate. The factor sits above the central-difference noise
#: floor eps^(2/3) * |F| (with headroom for evaluation rounding) so the
#: zero-derivative certificate is achievable at the slice optimum.
INNER_TOL_FACTOR = max(1e-10, 32.0 * EPS ** (2.0 / 3.0))

#: Relative threshold below which a smallest eigenvalue counts as a
#: positive-definiteness violation.
PD_TOL = 1e-8

ARMIJO_C1 = 1e-4
MAX_HALVINGS = 40

#: Most damped-Newton iterations of one slice solve.
MAX_NEWTON_ITERATIONS = 50

#: Most nodes a defaulted convexity probe samples: the 21 x 21 grid of a
#: two-axis probe. A defaulted grid with more nodes is replaced by the box
#: center, the box corners and Halton points, truncated to this budget.
PROBE_BUDGET = 441

#: Most float64 values in one stacked design matrix, of the closed-form
#: probe or of a stacked slice solve; a larger stack is taken in slices.
STACK_VALUES = 2**20


class ConvexityError(RuntimeError):
    """The eliminated-block Hessian is not positive definite where required."""

    def __init__(self, message, point=None, min_eig=None, certificate=None):
        super().__init__(message)
        self.point = None if point is None else np.asarray(point, dtype=float)
        self.min_eig = min_eig
        self.certificate = certificate

    @classmethod
    def refusal(cls, what: str, certificate: ConvexityCertificate) -> ConvexityError:
        """Refuse ``what`` on a violated certificate, carrying its witness."""
        block = "Hessian" if certificate.split is None else "eliminated-block Hessian"
        return cls(
            f"refusing {what}: {block} has min eigenvalue "
            f"{certificate.witness_min_eig:.3e} at {certificate.witness}",
            point=certificate.witness,
            min_eig=certificate.witness_min_eig,
            certificate=certificate,
        )


class SubMinimizeError(RuntimeError):
    """Inner minimization failed; carries the best iterate found, as
    ``best_y`` and as ``point``, the full parameter vector there."""

    def __init__(self, message, best_y=None, grad_norm=None, iterations=0, point=None):
        super().__init__(message)
        self.best_y = None if best_y is None else np.asarray(best_y, dtype=float)
        self.point = None if point is None else np.asarray(point, dtype=float)
        self.grad_norm = grad_norm
        self.iterations = iterations


@dataclass(frozen=True)
class SliceProblem:
    """The objective restricted to fixed retained coordinates.

    ``value(y)`` evaluates F at the assembled point; the slice varies only
    the eliminated block.
    """

    merit: MeritFunction
    split: ParameterSplit
    x_fixed: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_fixed, dtype=float))
        object.__setattr__(self, "x_fixed", x)
        _check_rows(self.merit, self.split, x.reshape(1, -1))

    def point(self, y) -> np.ndarray:
        return self.split.embed(self.x_fixed, y)

    def value(self, y) -> float:
        return self.merit(self.point(y))

    def y_box(self) -> np.ndarray:
        return self.split.y_box(self.merit.domain_box)


def _check_rows(merit, split, xs) -> None:
    """Refuse the first row of the (N, n) stack ``xs`` that is not a valid
    retained-coordinate vector: of the wrong length, not finite, or outside
    the retained-coordinate box (padded by 1e-12 of its scale). The padded
    bounds are taken once and the rows walked as Python floats; a row that
    is not finite is refused as such, with its numpy repr."""
    if xs.shape[1] != split.n:
        raise ValueError(f"x_fixed must have {split.n} entries, got {xs.shape[1]}")
    bounds = []
    for lo, hi in split.x_box(merit.domain_box).tolist():
        pad = 1e-12 * max(1.0, abs(lo), abs(hi))
        bounds.append((lo - pad, hi + pad))
    for k, row in enumerate(xs.tolist()):
        for x, (low, high) in zip(row, bounds):
            if not (low <= x <= high and math.isfinite(x)):
                if not all(map(math.isfinite, row)):
                    raise ValueError(f"x_fixed must be finite, got {xs[k]}")
                raise ValueError("x_fixed lies outside the retained-coordinate box")


@dataclass(frozen=True)
class SubMinimum:
    """Certified conditional minimum over the eliminated block.

    ``grad_y_norm <= inner_tol`` certifies the zero-derivative condition;
    ``y_hessian_min_eig > 0`` certifies a non-degenerate minimum (index 0).
    """

    y_star: np.ndarray
    value: float
    grad_y_norm: float
    y_hessian_min_eig: float
    method: str
    iterations: int
    inner_tol: float
    y_index: int = 0


@dataclass(frozen=True)
class ConvexityCertificate:
    """Sampled positive-definiteness verdict for a Hessian block.

    ``split is None`` means the full Hessian was probed. When violated, the
    worst sampled point is stored as the witness together with its smallest
    block eigenvalue. ``plan`` names the sample: ``"grid"``, a tensor grid
    of ``grid_density`` nodes per axis, or ``"halton"``, the box center,
    the box corners and Halton points, ``PROBE_BUDGET`` nodes in all, with
    ``grid_density`` then ``None``.
    """

    split: ParameterSplit | None
    sampled_points: int
    min_eig_over_samples: float
    positive: bool
    witness: np.ndarray | None
    witness_min_eig: float | None
    grid_density: int | None
    plan: str

    @property
    def verdict(self) -> str:
        return "positive_definite_everywhere_sampled" if self.positive else "violated"


def default_probe_density(dimension: int) -> int:
    """Grid density per axis for convexity probes (coarser in higher dims)."""
    if dimension <= 4:
        return 21
    if dimension <= 8:
        return 7
    return 5


def default_inner_tol(f0: float) -> float:
    return INNER_TOL_FACTOR * max(1.0, abs(f0))


def _check_tolerance(name, tol) -> None:
    """Refuse a set tolerance ``tol`` that is not positive and finite."""
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def _first_primes(count: int) -> list[int]:
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % q for q in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _halton(count: int, dimension: int) -> np.ndarray:
    """Halton points 1, ..., ``count`` in the unit cube (Halton 1960): the
    radical inverse of each index in each of the first ``dimension``
    primes, unscrambled."""
    points = np.zeros((count, dimension))
    for j, base in enumerate(_first_primes(dimension)):
        index = np.arange(1, count + 1)
        weight = 1.0
        while np.any(index):
            weight /= base
            points[:, j] += weight * (index % base)
            index //= base
    return points


def _probe(merit, split, axes_indices, density, default_density) -> ConvexityCertificate:
    """Scan a sample of the box for the worst block min-eigenvalue.

    ``split is None`` probes the full Hessian, otherwise the eliminated
    block; coordinates outside ``axes_indices`` stay at the box center.
    The sample is the grid of ``density`` nodes per axis. A defaulted
    density (``None``) takes ``default_density``, unless that grid would
    have more than ``PROBE_BUDGET`` nodes: then the sample is the center of
    the axes' box, its corners and the Halton points, truncated to
    ``PROBE_BUDGET`` nodes.

    The nodes are taken in chunks of at most ``PROBE_BUDGET``. A chunk's
    finite-difference blocks come from one batched stencil
    (:func:`numerics._second_diff_blocks`, which evaluates the merit in
    one flat walk over the chunk's stencil, in the scalar order), its
    closed-form blocks ``2 Phi^T Phi`` from stacked design matrices
    (:func:`numerics._closed_form_blocks`), and its spectra from one stacked
    ``eigvalsh``. The evaluations, their order, the blocks and the
    certificate are those of a node-by-node scan with :func:`fd_y_block`.
    """
    box = merit.domain_box
    axes = list(axes_indices)
    axes_box = box[axes]
    if density is None and default_density ** len(axes_box) > PROBE_BUDGET:
        plan = "halton"
        lo, hi = axes_box[:, 0], axes_box[:, 1]
        nodes = itertools.chain(
            [axes_box.mean(axis=1)],
            itertools.product(*axes_box),
            lo + _halton(PROBE_BUDGET, len(axes_box)) * (hi - lo),
        )
        chunks = [list(itertools.islice(nodes, PROBE_BUDGET))]
    else:
        plan = "grid"
        density = default_density if density is None else density
        if density < 3:
            raise ValueError("grid density must be at least 3 points per axis")
        lines = [np.linspace(lo, hi, density) for lo, hi in axes_box]
        total = density ** len(lines)
        # the nodes in itertools.product order, PROBE_BUDGET at a time
        chunks = (
            np.column_stack([
                line[i] for line, i in zip(lines, np.unravel_index(
                    np.arange(start, min(start + PROBE_BUDGET, total)), [density] * len(lines)
                ))
            ])
            for start in range(0, total, PROBE_BUDGET)
        )
    closed_form = split is not None and linear_elimination_applies(merit, split)
    if closed_form:
        model, x_indices = merit.model, list(split.x_indices)
    indices = tuple(range(merit.dimension)) if split is None else tuple(split.y_indices)
    center = box.mean(axis=1)
    worst = np.inf
    worst_point = None
    violated = False
    count = 0
    for chunk in chunks:
        points = np.tile(center, (len(chunk), 1))
        points[:, axes] = chunk
        if closed_form:  # one stacked design matrix per stack
            blocks = np.concatenate([
                numerics._closed_form_blocks(model, points[part], x_indices)
                for part in _stacks(len(points), model.t.size * model.linear_dim)
            ])
        else:
            blocks = numerics._second_diff_blocks(merit, points, indices, box)
        w = np.linalg.eigvalsh(blocks)
        lowest = w[:, 0]
        violated = violated or bool(np.any(_indefinite(w)))
        n = int(np.argmin(lowest))
        if lowest[n] < worst:
            worst = float(lowest[n])
            worst_point = points[n].copy()
        count += len(points)
    return ConvexityCertificate(
        split=split,
        sampled_points=count,
        min_eig_over_samples=worst,
        positive=not violated,
        witness=worst_point if violated else None,
        witness_min_eig=worst if violated else None,
        grid_density=density,
        plan=plan,
    )


def _stacks(count, values_per_row):
    """The slices of ``count`` rows, in order, taken as stacks of at most
    ``STACK_VALUES`` values at ``values_per_row`` values a row (at least one
    row each); every stack but the last has the same number of rows."""
    rows = max(1, STACK_VALUES // values_per_row)
    return [slice(start, start + rows) for start in range(0, count, rows)]


def probe_y_convexity(
    merit: MeritFunction, split: ParameterSplit, grid_density: int | None = None
) -> ConvexityCertificate:
    """Sample the eliminated-block Hessian over the domain box.

    For partially linear merits with the matching split, the block is
    independent of the linear coordinates, so only the retained
    coordinates are sampled (one block per x node). Those blocks are the
    closed form ``2 Phi^T Phi``, built without a merit evaluation from
    stacked design matrices of at most ``STACK_VALUES`` values. An explicit
    ``grid_density`` samples that full grid. The default samples
    :func:`default_probe_density` nodes per axis when that grid has at most
    ``PROBE_BUDGET`` (441) nodes, and otherwise the box center, the box
    corners and Halton points, 441 nodes in all (``plan == "halton"``).
    Violations are a verdict, never an error; a non-finite block raises
    :class:`~minsection.numerics.NonFiniteValueError` carrying its node.
    """
    if linear_elimination_applies(merit, split):
        axes_indices = split.x_indices
    else:
        axes_indices = range(merit.dimension)
    return _probe(merit, split, axes_indices, grid_density, default_probe_density(merit.dimension))


def probe_full_convexity(merit: MeritFunction, grid_density: int | None = None) -> ConvexityCertificate:
    """Sample the full Hessian over the domain box (strict-convexity probe).

    The default is a 7-node grid per axis while that grid has at most
    ``PROBE_BUDGET`` nodes (up to three axes), else the budgeted Halton
    plan of :func:`probe_y_convexity`; an explicit ``grid_density`` always
    samples its full grid.
    """
    return _probe(merit, None, range(merit.dimension), grid_density, 7)


def subminimize_linear(problem: SliceProblem) -> SubMinimum:
    """Exact elimination of the linear coefficients at fixed x.

    Solves ``min_y ||Phi y - (d - psi)||`` by an orthogonal decomposition;
    the stored derivative certificate uses the exact quadratic gradient
    ``2 Phi^T (Phi y - b)``, and the value is the squared norm of the
    residual ``Phi y* + psi - d`` at hand, with no merit evaluation. This is
    the one-row case of the stacked solve that :meth:`SliceSolver.solve`
    runs on a stack of x rows.
    """
    if not linear_elimination_applies(problem.merit, problem.split):
        raise ValueError(
            "linear elimination requires a partially linear merit with the "
            "matching nonlinear/linear split"
        )
    return next(_linear_rows(problem.merit.model, problem.x_fixed.reshape(1, -1)))


def _linear_rows(model, xs):
    """Yield the linear-elimination :class:`SubMinimum` of each row of the
    valid (N, n) stack ``xs`` of the partially linear ``model``, in order.

    The stack takes one stacked design matrix and offset, one stacked
    matmul for the blocks ``2 Phi^T Phi``, one stacked ``eigvalsh`` and
    one stacked least-squares solve (:func:`numerics._lsq_rows`). The
    residual ``Phi y* + psi - d``, the gradient ``2 Phi^T (Phi y* - b)``
    and their squared norms are stacked matmuls too, each row's bitwise
    the one-row operation, so every result is bitwise the one-row result
    and a row's value is bitwise the merit at ``(x, y*)``, the model's
    value, with no merit evaluation. A basis map that raises does so
    before any row is solved; a collinear basis raises
    :class:`~minsection.numerics.RankDeficiencyError` at its row, after the
    rows before it are yielded.
    """
    phis = model.design_matrix(xs)
    spectra = np.linalg.eigvalsh(numerics._gram_blocks(phis))
    off = model.offsets(xs)
    b = model.d - off
    ys, ranks = numerics._lsq_rows(phis, b)
    fitted = np.matmul(phis, ys[:, :, None])[:, :, 0]
    r = fitted + off - model.d
    g = 2.0 * np.matmul(phis.transpose(0, 2, 1), (fitted - b)[:, :, None])[:, :, 0]
    rows = zip(
        xs, ys, _row_dots(r, r).tolist(), np.sqrt(_row_dots(g, g)).tolist(),
        spectra[:, 0].tolist(), ranks.tolist(),
    )
    for x, y, value, grad_norm, w0, rank in rows:
        if rank < model.linear_dim:
            where = f"basis collinearity at x = {x.tolist()}: "
            raise numerics._rank_error(rank, model.linear_dim, where)
        # a full-rank block 2 Phi^T Phi is positive definite: y-index 0
        yield SubMinimum(y, value, grad_norm, w0, "linear_elimination", 0, default_inner_tol(value))


def _indefinite(w):
    """Whether each ascending spectrum (last axis of ``w``) has its lowest
    eigenvalue at most ``PD_TOL`` times max(1, its largest magnitude)."""
    return w[..., 0] <= PD_TOL * np.maximum(1.0, np.abs(w).max(axis=-1))


def _indefinite_1d(h) -> bool:
    """:func:`_indefinite` of the 1 x 1 block ``h``, a Python float: its
    spectrum is the element, bitwise LAPACK's."""
    return h <= PD_TOL * max(1.0, abs(h))


def _armijo(value, fval, decrease) -> bool:
    """Armijo's test of ``value`` against ``fval`` for a predicted change
    ``decrease``, with a slack for a decrease below float resolution."""
    return value <= fval + ARMIJO_C1 * decrease + _resolution(fval)


def _resolution(fval) -> float:
    """The slack of :func:`_armijo` at ``fval``: a few ulps of ``max(1, |fval|)``."""
    return 4.0 * EPS * max(1.0, abs(fval))


def _backtrack(x, step, box, accept, tries=MAX_HALVINGS, t=1.0):
    """Try ``clip(x + t * step)`` to ``box``, halving ``t``, ``tries`` times:
    ``(trial, accept(trial, t))`` for the first result not None, else None."""
    for _ in range(tries):
        trial = np.minimum(np.maximum(x + t * step, box[:, 0]), box[:, 1])
        verdict = accept(trial, t)
        if verdict is not None:
            return trial, verdict
        t *= 0.5
    return None


def _row_dots(a, b):
    """The dot product of each row of ``a`` with that row of ``b``; bitwise
    ``a[r] @ b[r]``, which one stacked ``matmul`` computes as one-row dots."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _damped_newton(f, x, fval, box, tol, max_iter, direction):
    """Damped Newton with Armijo backtracking (Nocedal & Wright, ch. 3) on
    finite-difference derivatives, trials clipped to ``box``, on one row:
    the Newton slices of m >= 2 eliminated coordinates and
    :func:`~minsection.solver.solve_direct` (m = 1 slices run its scalar
    form, :func:`_newton_1d`). The line search is :func:`_backtrack` under
    the :func:`_armijo` test; the outer BFGS stage and the critical-point
    census run the same line search.

    ``f`` is the objective, ``fval`` its value at the start ``x`` and
    ``tol(value)`` the gradient tolerance of an iterate of that value. An
    iteration takes the two stencils of :func:`numerics.fd_hessian`,
    called directly (:func:`numerics.fd_gradient`, then
    :func:`numerics._second_diff_block` given the iterate's value), and
    its step from ``direction(g, hess, x)``, which returns the step or
    raises the error that refuses it. The row stops once its gradient
    norm, inf if it overflows, is at most the tolerance of its iterate.
    Where the full step leaves the box at an iterate stationary on its faces (the
    gradient components not held against a face, at lo with g > 0 or at
    hi with g < 0, have a norm of at most that tolerance), the row stops
    at the boundary; where it leaves the box at another iterate with
    coordinates held, the row steps on its free block only, along
    ``direction`` of the free block's gradient and Hessian block, so
    ``direction`` solves and tests that block alone: the projected Newton
    step (Bertsekas, SIAM J. Control Optim. 20(2), 1982).
    A clipped step that does not move the iterate stops at the boundary
    too. A row still running at the last iteration takes its step and line
    search, and their refusal, boundary stop or stall is its outcome.

    Returns ``(best, hess, iteration, stop)``: ``best = (x, fval, gradient
    norm)`` of the smallest norm seen (the stopping iterate on
    convergence), the last Hessian, and ``stop`` in ``"converged"``,
    ``"boundary"``, ``"stalled"`` or ``"max_iter"``. A stencil error or a
    refusal of ``direction`` propagates.
    """
    x = np.array(x, dtype=float)
    lo, hi = box[:, 0], box[:, 1]
    indices = range(len(x))
    best = (x, fval, math.inf)
    for iteration in range(max_iter + 1):
        g = numerics.fd_gradient(f, x, box)
        hess = numerics._second_diff_block(f, x, indices, box, fval)[0]
        with np.errstate(over="ignore"):
            norm = float(np.sqrt(g @ g))
        if norm < best[2]:
            best = (x, fval, norm)
        if norm <= tol(fval):
            return best, hess, iteration, "converged"
        step = direction(g, hess, x)
        full = np.minimum(np.maximum(x + step, lo), hi)
        if (full != x + step).any():
            held = ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
            if np.linalg.norm(g[~held]) <= tol(fval):
                return best, hess, iteration, "boundary"
            if held.any():
                # the free block takes the step of its own system and is
                # tested alone; the held coordinates stay where they are
                free = ~held
                step = np.zeros_like(x)
                step[free] = direction(g[free], hess[np.ix_(free, free)], x)
                full = np.minimum(np.maximum(x + step, lo), hi)
        if (full == x).all():
            return best, hess, iteration, "boundary"
        slope = float(g @ step)

        def sufficient(trial, t):
            value = f(trial)
            return value if _armijo(value, fval, t * slope) else None

        found = _backtrack(x, step, box, sufficient)
        if found is None:
            return best, hess, iteration, "stalled"
        x, fval = found
    return best, hess, max_iter, "max_iter"


def _newton_1d(value, y, fval, lo, hi, tol, max_iter, refuse):
    """:func:`_damped_newton` on one row of one coordinate, in Python
    floats: ``value`` is the row's objective, ``fval`` its value at the
    start ``y`` in ``[lo, hi]``, and ``refuse(y, h)`` raises the refusal of
    an iterate ``y`` whose second difference ``h`` is refused. Returns or
    raises what :func:`_damped_newton` does on the row, bitwise, after the
    same evaluations in the same order, with the last Hessian as the float
    ``h``.

    An iteration takes the two stencils of :func:`numerics.fd_hessian`
    with their scalar formulas: the central gradient ``(f(y + d) - f(y -
    d)) / (2 d)``, or where that stencil would leave the box
    :func:`numerics.fd_gradient` itself, with its one-sided formula and
    its one :class:`~minsection.numerics.BoundaryStepWarning`; then the
    second difference ``(f(c + s) - 2 f0 + f(c - s)) / (s s)`` about the
    iterate shifted inward off a face, in a box at least ``4 s`` wide. A
    thin box or a non-finite entry raises the error those stencils raise.
    The norm is ``sqrt(g g)``, inf if it overflows; ``h`` is refused where ``h <= PD_TOL max(1, |h|)``
    (:func:`_indefinite_1d`), else the step is ``-g / h``, bitwise LAPACK's
    solve. With one coordinate, every boundary stop of
    :func:`_damped_newton` is a clipped step that does not move the
    iterate: at an iterate on a face with the gradient pointing out of the
    box, the step points out of it too. The line search halves the clipped
    step under :func:`_armijo`, as :func:`_backtrack` does; a row still
    running at the last iteration takes it, and its step's refusal,
    boundary stop or stall is its outcome.
    """
    best = (y, fval, math.inf)

    def outcome(h, iteration, stop):
        y, fy, gn = best
        return (np.array([y]), fy, gn), h, iteration, stop

    for iteration in range(max_iter + 1):
        d = (y + numerics.GRADIENT_STEP * max(1.0, abs(y))) - y
        if y + d <= hi and y - d >= lo:
            g = (value(y + d) - value(y - d)) / (2.0 * d)
            if not math.isfinite(g):
                raise numerics._non_finite_gradient_error(0, [y])
        else:
            g = float(numerics.fd_gradient(
                lambda v: value(v[0]), np.array([y]), np.array([[lo, hi]])
            )[0])
        s = (y + numerics.HESSIAN_STEP * max(1.0, abs(y))) - y
        if hi - lo < 4.0 * s:
            raise numerics._thin_box_error(0)
        c = min(max(y, lo + s), hi - s)
        f0 = fval if c == y else value(c)
        h = (value(c + s) - 2.0 * f0 + value(c - s)) / (s * s)
        if not math.isfinite(h):
            raise numerics._non_finite_block_error(np.array([[h]]), (0,), [c])
        norm = math.sqrt(g * g)
        if norm < best[2]:
            best = (y, fval, norm)
        if norm <= tol(fval):
            return outcome(h, iteration, "converged")
        if _indefinite_1d(h):
            refuse(y, h)
        step = -g / h
        if min(max(y + step, lo), hi) == y:
            return outcome(h, iteration, "boundary")
        slope = g * step
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial = min(max(y + t * step, lo), hi)
            f_trial = value(trial)
            if _armijo(f_trial, fval, t * slope):
                break
            t *= 0.5
        else:
            return outcome(h, iteration, "stalled")
        y, fval = trial, f_trial
    return outcome(h, max_iter, "max_iter")


def _newton_rows(merit, split, xs, starts, inner_tol=None):
    """Damped Newton on the slices at the rows of the valid (N, n) stack
    ``xs``, from the (N, m) ``starts`` clipped to the eliminated-coordinate
    box, row after row: yields each row's :class:`SubMinimum` and raises at
    the first row that fails, as :class:`SliceSolver` says. With one
    eliminated coordinate a row runs the scalar kernel :func:`_newton_1d`,
    its start clipped and its spectrum and refusal test taken from the
    kernel's ``h``, on Python floats; with more it runs
    :func:`_damped_newton`, its spectrum from ``eigvalsh`` of its block and
    its step from ``solve``. A sub-minimum whose block is not refused is
    positive definite, so its y-index is 0. A non-finite stencil entry is
    raised at the full parameter vector, naming the parameter's index.
    """
    ybox = split.y_box(merit.domain_box)
    lo, hi = ybox[0].tolist()  # the y-box as floats when m = 1
    tol = default_inner_tol if inner_tol is None else lambda _: float(inner_tol)
    note = "; the convexity assumption is violated for this split"
    for x, start in zip(xs, np.asarray(starts, dtype=float)):

        def refuse(y, w, where, note=""):
            raise ConvexityError(
                f"eliminated-block Hessian is not positive definite at {where} "
                f"(min eigenvalue {float(w[0]):.3e}){note}",
                point=split.embed(x, y),
                min_eig=float(w[0]),
            )

        try:
            if split.m == 1:
                (y,) = start.tolist()
                # numpy's clip off the open box: Python's max and min keep
                # the first of two equal signed zeros, numpy's maximum and
                # minimum the second, and both propagate NaN
                if not lo < y < hi:
                    y = float(np.minimum(np.maximum(y, lo), hi))
                value = _slice_objective(merit, split, x, y)
                (y, fy, gn), hess, iteration, stop = _newton_1d(
                    value, y, value(y), lo, hi, tol, MAX_NEWTON_ITERATIONS,
                    lambda y, h: refuse([y], [h], "an iterate", note),
                )
            else:

                def newton_step(g, hess, y):
                    w = np.linalg.eigvalsh(hess)
                    if _indefinite(w):
                        refuse(y, w, "an iterate", note)
                    return np.linalg.solve(hess, -g)

                y = np.minimum(np.maximum(start, ybox[:, 0]), ybox[:, 1])
                value = _slice_objective(merit, split, x, y)
                (y, fy, gn), hess, iteration, stop = _damped_newton(
                    value, y, value(y), ybox, tol, MAX_NEWTON_ITERATIONS, newton_step
                )
        except numerics.NonFiniteValueError as err:
            raise numerics._non_finite_entry_error(
                [split.y_indices[c] for c in err.coordinates], split.embed(x, err.point)
            ) from err
        if stop != "converged":
            raise SubMinimizeError(
                {
                    "boundary": "the Newton step leaves the eliminated-coordinate box at "
                    "the iterate; the slice minimum may lie outside the box",
                    "stalled": "backtracking line search failed on the slice; the objective "
                    "may not be convex in the eliminated block here",
                    "max_iter": f"no convergence within {MAX_NEWTON_ITERATIONS} Newton "
                    f"iterations (best gradient norm {gn:.3e}, tolerance {tol(fy):.3e})",
                }[stop],
                best_y=y,
                grad_norm=gn,
                iterations=iteration,
                point=split.embed(x, y),
            )
        if split.m == 1:
            w, refused = [hess], _indefinite_1d(hess)
        else:
            w = np.linalg.eigvalsh(hess)
            refused = _indefinite(w)
        if refused:
            refuse(y, w, "the sub-minimum")
        # a positive definite block: y-index 0
        yield SubMinimum(y, fy, gn, float(w[0]), "newton", iteration, tol(fy))


def _slice_objective(merit, split, x, y):
    """``y -> merit(split.embed(x, y))`` on one full-length point, assembled
    once from ``(x, y)``, whose eliminated coordinates each call overwrites
    (as :func:`numerics.fd_gradient` reuses its ``work`` array). With one
    eliminated coordinate ``y`` is a float, written by a scalar index."""
    point = split.embed(x, y)
    at = split.y_indices[0] if split.m == 1 else np.asarray(split.y_indices, dtype=int)

    def value(y):
        point[at] = y
        return merit(point)

    return value


def subminimize_newton(
    problem: SliceProblem,
    y0=None,
    inner_tol: float | None = None,
) -> SubMinimum:
    """Damped Newton on the slice with Armijo backtracking.

    The loop is the one :func:`~minsection.solver.solve_direct` runs, here
    on the eliminated block (with one eliminated coordinate its scalar
    form), and this is the one-row case of the row-after-row solve that
    :meth:`SliceSolver.solve` runs on each level. Starts from ``y0`` clipped to
    the eliminated-coordinate box (an infinite entry to its face), else
    from the box center; a ``y0`` of the wrong length or holding a NaN, or
    an ``inner_tol`` that is not positive and finite, raises
    ``ValueError`` before any evaluation. Requires the
    slice to be convex along the iterates: a non-positive-definite block
    Hessian raises :class:`ConvexityError`. Iterates are kept inside the
    eliminated-coordinate box; a step that leaves it at an iterate with
    coordinates held against a face steps on the free coordinates only. A
    Newton step that leaves the box where no step length can move the
    iterate or where the iterate is stationary on its faces, a stalled line
    search, or exceeding ``MAX_NEWTON_ITERATIONS`` (50) iterations raises
    :class:`SubMinimizeError` carrying the best iterate, as ``best_y`` and
    as the full parameter vector ``point``, and its gradient norm.
    """
    _check_tolerance("inner_tol", inner_tol)
    if y0 is None:
        start = problem.y_box().mean(axis=1)
    else:
        start = np.atleast_1d(np.asarray(y0, dtype=float))
        if start.shape != (problem.split.m,):
            raise ValueError(f"y0 must have {problem.split.m} entries, got shape {start.shape}")
        if np.isnan(start).any():
            raise ValueError(f"y0 must not hold NaN, got {start}")
    return next(_newton_rows(problem.merit, problem.split, problem.x_fixed[None], start[None],
                             inner_tol))


def _levels(count):
    """The positions ``0, ..., count - 1`` of a stack in level order: the
    middle, then the two ends, then level by level the midpoints between
    neighbouring positions already taken, each level ascending."""
    middle = count // 2
    levels = [[middle]]
    taken = sorted({0, middle, count - 1})
    if len(taken) > 1:
        levels.append([j for j in taken if j != middle])
    while len(taken) < count:
        levels.append([(a + b) // 2 for a, b in zip(taken, taken[1:]) if b - a > 1])
        taken = sorted(taken + levels[-1])
    return levels


def _lagrange(taken, targets):
    """For each of the positions ``targets``, the up to four positions of
    ``taken`` nearest it (ties to the lower position) and the weights of
    the Lagrange interpolant in the stack position through them."""
    taken = np.asarray(taken)
    t = np.asarray(targets, dtype=float)[:, None]
    nodes = taken[np.argsort(np.abs(taken - t), axis=1, kind="stable")[:, :4]]
    # weight of node a: the product over the other nodes b of (t - b) / (a - b)
    same = np.eye(nodes.shape[1], dtype=bool)
    ratios = (t - nodes)[:, None, :] / np.where(same, 1, nodes[:, :, None] - nodes[:, None, :])
    ratios[:, same] = 1.0
    return nodes, ratios.prod(axis=2)


def _interpolate(nodes, weights, ys):
    """The interpolants of :func:`_lagrange`'s ``nodes`` and ``weights``
    through the rows of ``ys``."""
    return np.einsum("lq,lqm->lm", weights, ys[nodes])


@functools.lru_cache(maxsize=128)
def _level_plan(count):
    """The levels of a stack of ``count`` rows (:func:`_levels`), each as
    ``(positions, nodes, weights)``: a tuple of its positions and the
    read-only :func:`_lagrange` arrays of its interpolated starts through
    the levels before it, ``None`` for the first level. They depend on the
    row count only, so each stack size is planned once."""
    plan, taken = [], []
    for level in _levels(count):
        nodes = weights = None
        if taken:
            nodes, weights = _lagrange(taken, level)
            nodes.flags.writeable = weights.flags.writeable = False
        plan.append((tuple(level), nodes, weights))
        taken = sorted(taken + level)
    return tuple(plan)


class SliceSolver:
    """Solves the slices of one merit under one split.

    :meth:`solve` takes an (N, n) stack of x rows, or one x as the one-row
    stack. Each result is kept, and a later call at the same x returns it
    unsolved. ``solves`` counts the slice solves made so far. Linear
    elimination is used when the split matches a partially linear model:
    the rows not yet solved are validated once and solved as one stack
    (variable projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973),
    one stacked design matrix, ``eigvalsh`` and SVD least-squares solve
    per ``STACK_VALUES`` values (:func:`_linear_rows`), whose stacked
    residual gives each row's value with no merit evaluation. Such a
    solve is exact, so ``inner_tol`` does not reach it: each linear
    result records :func:`default_inner_tol` of its value.

    Otherwise the distinct rows not yet solved are validated once and
    solved by damped Newton in levels, each level's rows one after another
    (:func:`_newton_rows`; with one eliminated coordinate the scalar kernel
    :func:`_newton_1d`, with more :func:`_damped_newton`): the middle row,
    then the two end rows, then level by level the midpoints between rows
    already solved. The middle
    row starts from a secant prediction along the implicit graph y*(x)
    (Allgower & Georg, *Introduction to Numerical Continuation Methods*,
    2003, ch. 2): when x lies on the line through the x of the last two
    results returned, ``x = x1 + t (x1 - x0)`` with ``|t| <= 2``, the
    start is ``y1 + t (y1 - y0)``; else it is the last result returned
    (the box center on the first solve). Every later row starts from the
    Lagrange interpolant, in the row's position in the stack, through the
    up to four nearest rows already solved: a multilevel predictor, whose
    levels, nearest rows and weights depend on the row count only and are
    planned once per stack size (:func:`_level_plan`). Starts are clipped
    to the eliminated-coordinate box. A Newton solve from a start of the
    caller's choosing is :func:`subminimize_newton`. An ``inner_tol`` that
    is set but not positive and finite raises ``ValueError``.

    Both row solvers, :func:`_linear_rows` and :func:`_newton_rows`, yield
    their rows' results in order and raise at the first row that fails:
    a collinear basis, a refused block (:class:`ConvexityError`), a Newton
    stop that did not converge (:class:`SubMinimizeError`) or a stencil
    error. Every row before it is kept and no row after it is solved. A
    Newton row's error carries the full parameter vector as ``point``, so
    its retained part is the row's x.
    """

    def __init__(self, merit: MeritFunction, split: ParameterSplit, inner_tol: float | None = None):
        _check_tolerance("inner_tol", inner_tol)
        self.merit = merit
        self.split = split
        self.inner_tol = inner_tol
        self.linear = linear_elimination_applies(merit, split)
        self.solved: dict[tuple[float, ...], SubMinimum] = {}
        self.recent: list[tuple[np.ndarray, SubMinimum]] = []
        self.solves = 0

    def _predict(self, x) -> np.ndarray:
        """Newton start at ``x``: the secant prediction, else the last
        result, else the center of the eliminated-coordinate box.

        x counts as on the line when its distance from it is at most
        sqrt(eps) times its distance from x1, which rounding cannot exceed.
        """
        if not self.recent:
            return self.split.y_box(self.merit.domain_box).mean(axis=1)
        x1, sub1 = self.recent[-1]
        if len(self.recent) == 2:
            x0, sub0 = self.recent[0]
            dx = x1 - x0
            span = float(dx @ dx)
            if span > 0.0:
                t = float((x - x1) @ dx) / span
                off_line = np.abs(x - x1 - t * dx).max()
                if abs(t) <= 2.0 and off_line <= np.sqrt(EPS) * np.abs(x - x1).max():
                    return sub1.y_star + t * (sub1.y_star - sub0.y_star)
        return sub1.y_star

    def solve(self, x_fixed):
        """The :class:`SubMinimum` at ``x_fixed``; an (N, n) stack of x rows
        gives the list of its rows' results, in order.

        The Newton rows not yet solved are solved level by level, each row
        from its own start; a failing row raises as the class says. An
        ``x_fixed`` of more than two dimensions raises ``ValueError``
        naming its shape, before any evaluation."""
        x = np.atleast_1d(np.asarray(x_fixed, dtype=float))
        if x.ndim > 2:
            raise ValueError(
                f"x_fixed must be one x or an (N, n) stack of x rows, got shape {x.shape}"
            )
        rows = x.reshape(1, -1) if x.ndim == 1 else x
        keys = list(map(tuple, rows.tolist()))
        todo = [key for key in dict.fromkeys(keys) if key not in self.solved]
        if todo:
            fresh = np.array(todo)
            _check_rows(self.merit, self.split, fresh)
            (self._solve_linear if self.linear else self._solve_levels)(fresh, todo)
        subs = [self.solved[key] for key in keys]
        self.recent = [*self.recent, *zip(rows[-2:], subs[-2:])][-2:]
        return subs if x.ndim == 2 else subs[0]

    def _solve_levels(self, rows, keys) -> None:
        """Solve and keep the valid distinct rows ``rows``, level by level,
        each level's rows started from the interpolants of the stack
        size's :func:`_level_plan`."""
        plan = _level_plan(len(rows))
        ys = np.empty((len(rows), self.split.m))
        for level, nodes, weights in plan:
            at = list(level)
            if nodes is None:
                starts = self._predict(rows[at[0]])[None]
            else:
                starts = _interpolate(nodes, weights, ys)
            subs = _newton_rows(self.merit, self.split, rows[at], starts, self.inner_tol)
            for j in at:
                self.solves += 1
                sub = self.solved[keys[j]] = next(subs)
                ys[j] = sub.y_star

    def _solve_linear(self, rows, keys) -> None:
        """Solve and keep the valid distinct rows ``rows``, in stacks of at
        most ``STACK_VALUES`` values of the solve's working arrays."""
        # a row holds its design matrix and the SVD's U, J values per sample
        # each, and five (N, T) arrays: the offset, the right-hand side, the
        # fit, the residual and the fit minus the right-hand side
        model = self.merit.model
        for part in _stacks(len(rows), model.t.size * (2 * model.linear_dim + 5)):
            for key, sub in zip(keys[part], _linear_rows(model, rows[part])):
                self.solves += 1
                self.solved[key] = sub

    def value(self, x_fixed) -> float:
        """Section value at ``x_fixed``: the slice minimum of the merit."""
        return self.solve(x_fixed).value


def solve_slice(merit: MeritFunction, split: ParameterSplit, x_fixed) -> SubMinimum:
    """One slice solve: linear elimination when available, else damped
    Newton from the center of the eliminated-coordinate box, certified
    against the default inner tolerance (:func:`default_inner_tol`)."""
    return SliceSolver(merit, split).solve(x_fixed)
