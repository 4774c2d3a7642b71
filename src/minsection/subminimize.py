"""Inner minimization over the eliminated block at fixed retained
coordinates: exact linear elimination for partially linear models, a
safeguarded Newton iteration for objectives convex in the eliminated block,
and sampled convexity certificates that guard both.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import numerics
from .numerics import EPS, fd_hessian, fd_y_block, linear_lsq_solve
from .numerics import _second_diff_block  # noqa: F401 - unused; bench/tracing.py rebinds it here
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

#: Default inner tolerance is INNER_TOL_FACTOR * max(1, F(x, y0)). The factor
#: sits above the central-difference noise floor eps^(2/3) * |F| (with
#: headroom for evaluation rounding) so the zero-derivative certificate is
#: achievable even when warm starts make F(x, y0) equal the slice optimum.
INNER_TOL_FACTOR = max(1e-10, 32.0 * EPS ** (2.0 / 3.0))

#: Relative threshold below which a smallest eigenvalue counts as a
#: positive-definiteness violation.
PD_TOL = 1e-8

ARMIJO_C1 = 1e-4
MAX_HALVINGS = 40

#: Most nodes a defaulted convexity probe samples: the 21 x 21 grid of a
#: two-axis probe. A defaulted grid with more nodes is replaced by the box
#: center, the box corners and Halton points, truncated to this budget.
PROBE_BUDGET = 441


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
    """Inner minimization failed; carries the best iterate found."""

    def __init__(self, message, best_y=None, grad_norm=None, iterations=0):
        super().__init__(message)
        self.best_y = None if best_y is None else np.asarray(best_y, dtype=float)
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
        if x.size != self.split.n:
            raise ValueError(f"x_fixed must have {self.split.n} entries, got {x.size}")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"x_fixed must be finite, got {x}")
        xb = self.split.x_box(self.merit.domain_box)
        pad = 1e-12 * np.maximum(1.0, np.abs(xb).max(axis=1))
        if np.any(x < xb[:, 0] - pad) or np.any(x > xb[:, 1] + pad):
            raise ValueError("x_fixed lies outside the retained-coordinate box")

    def point(self, y) -> np.ndarray:
        return self.split.embed(self.x_fixed, y)

    def value(self, y) -> float:
        return self.merit(self.point(y))

    def y_box(self) -> np.ndarray:
        return self.split.y_box(self.merit.domain_box)


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
    (:func:`numerics._second_diff_blocks`, which evaluates the merit node
    by node in the scalar order), its closed-form blocks from
    :func:`fd_y_block` per node, and its spectra from one stacked
    ``eigvalsh``. The evaluations, their order, the blocks and the
    certificate are those of a node-by-node scan.
    """
    box = merit.domain_box
    axes = list(axes_indices)
    axes_box = box[axes]
    if density is None and default_density ** len(axes_box) > PROBE_BUDGET:
        plan = "halton"
        lo, hi = axes_box[:, 0], axes_box[:, 1]
        nodes = itertools.islice(
            itertools.chain(
                [axes_box.mean(axis=1)],
                itertools.product(*axes_box),
                lo + _halton(PROBE_BUDGET, len(axes_box)) * (hi - lo),
            ),
            PROBE_BUDGET,
        )
    else:
        plan = "grid"
        density = default_density if density is None else density
        if density < 3:
            raise ValueError("grid density must be at least 3 points per axis")
        nodes = itertools.product(*(np.linspace(lo, hi, density) for lo, hi in axes_box))
    closed_form = split is not None and linear_elimination_applies(merit, split)
    indices = tuple(range(merit.dimension)) if split is None else tuple(split.y_indices)
    center = box.mean(axis=1)
    worst = np.inf
    worst_point = None
    violated = False
    count = 0
    while chunk := list(itertools.islice(nodes, PROBE_BUDGET)):
        points = np.tile(center, (len(chunk), 1))
        points[:, axes] = chunk
        if closed_form:
            blocks = np.array([fd_y_block(merit, p, split) for p in points])
        else:
            blocks = numerics._second_diff_blocks(merit, points, indices, box)
        w = np.linalg.eigvalsh(blocks)
        lowest = w[:, 0]
        scale = np.maximum(1.0, np.abs(w).max(axis=1))
        violated = violated or bool(np.any(lowest <= PD_TOL * scale))
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


def probe_y_convexity(
    merit: MeritFunction, split: ParameterSplit, grid_density: int | None = None
) -> ConvexityCertificate:
    """Sample the eliminated-block Hessian over the domain box.

    For partially linear merits with the matching split, the block is
    independent of the linear coordinates, so only the retained
    coordinates are sampled (one block per x node). An explicit
    ``grid_density`` samples that full grid. The default samples
    :func:`default_probe_density` nodes per axis when that grid has at most
    ``PROBE_BUDGET`` (441) nodes, and otherwise the box center, the box
    corners and Halton points, 441 nodes in all (``plan == "halton"``).
    Violations are a verdict, never an error.
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
    ``2 Phi^T (Phi y - b)``.
    """
    merit = problem.merit
    if not linear_elimination_applies(merit, problem.split):
        raise ValueError(
            "linear elimination requires a partially linear merit with the "
            "matching nonlinear/linear split"
        )
    model = merit.model
    phi = model.design_matrix(problem.x_fixed)
    b = model.d - model.offsets(problem.x_fixed)
    try:
        y_star = linear_lsq_solve(phi, b)
    except numerics.RankDeficiencyError as err:
        raise numerics.RankDeficiencyError(
            f"basis collinearity at x = {problem.x_fixed}: {err} ",
            rank=err.rank,
            required=err.required,
        ) from err
    grad = 2.0 * phi.T @ (phi @ y_star - b)
    y_hess = 2.0 * phi.T @ phi
    w = np.linalg.eigvalsh(y_hess)
    value = problem.value(y_star)
    return SubMinimum(
        y_star=y_star,
        value=value,
        grad_y_norm=float(np.linalg.norm(grad)),
        y_hessian_min_eig=float(w[0]),
        method="linear_elimination",
        iterations=0,
        inner_tol=default_inner_tol(value),
        y_index=int(np.count_nonzero(w < -PD_TOL * max(1.0, abs(w[-1])))),
    )


def _damped_newton(f, x, fval, box, tol, max_iter, direction):
    """Damped Newton with Armijo backtracking (Nocedal & Wright, ch. 3) on
    finite-difference derivatives, trials clipped to ``box``.

    Stops once the gradient norm is at most ``tol``, else steps along
    ``direction(g, hess, x)``, which may raise to refuse the iterate.
    Returns ``(best, hess, iteration, stop)``: ``best = (x, fval, gradient
    norm)`` of the smallest norm seen (the stopping iterate on convergence),
    the last Hessian, and ``stop`` in ``"converged"``, ``"boundary"``,
    ``"stalled"`` or ``"max_iter"``. ``"boundary"`` means that the clipped
    full step does not move the iterate, so no step length can, or that
    the full step leaves the box at an iterate stationary on its faces: the
    gradient components not held against a face have a norm of at most
    ``tol``.
    """
    best = (x.copy(), fval, np.inf)
    for iteration in range(max_iter + 1):
        report = fd_hessian(f, x, box=box, f0=fval)
        g, hess = report.gradient, report.hessian
        gn = float(np.linalg.norm(g))
        if gn < best[2]:
            best = (x.copy(), fval, gn)
        if gn <= tol:
            return best, hess, iteration, "converged"
        step = direction(g, hess, x)
        slope = float(g @ step)
        full = np.clip(x + step, box[:, 0], box[:, 1])
        if np.array_equal(full, x):
            return best, hess, iteration, "boundary"
        if not np.array_equal(full, x + step):
            # Projected-gradient test: the components not held against a
            # face (at lo with g > 0, or at hi with g < 0) are stationary.
            held = ((x <= box[:, 0]) & (g > 0.0)) | ((x >= box[:, 1]) & (g < 0.0))
            if np.linalg.norm(g[~held]) <= tol:
                return best, hess, iteration, "boundary"
        # Allow one-ulp increases: near the minimum the Armijo decrease is
        # far below float resolution of the objective.
        f_slack = 4.0 * EPS * max(1.0, abs(fval))
        t = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = np.clip(x + t * step, box[:, 0], box[:, 1])
            f_new = f(x_new)
            if f_new <= fval + ARMIJO_C1 * t * slope + f_slack:
                break
            t *= 0.5
        else:
            return best, hess, iteration, "stalled"
        x, fval = x_new, f_new
    return best, hess, max_iter, "max_iter"


def subminimize_newton(
    problem: SliceProblem,
    y0=None,
    inner_tol: float | None = None,
    max_iter: int = 50,
) -> SubMinimum:
    """Damped Newton on the slice with Armijo backtracking.

    The loop is the one :func:`~minsection.solver.solve_direct` runs, here
    on the eliminated block. Requires the slice to be convex along the
    iterates: a non-positive-definite block Hessian raises
    :class:`ConvexityError`. Iterates are kept inside the eliminated-
    coordinate box. A Newton step that leaves the box where no step length
    can move the iterate or where the iterate is stationary on its faces, a
    stalled line search, or exceeding ``max_iter`` raises
    :class:`SubMinimizeError` carrying the best iterate and gradient norm.
    """
    ybox = problem.y_box()
    if y0 is None:
        y = ybox.mean(axis=1)
    else:
        y = np.clip(np.atleast_1d(np.asarray(y0, dtype=float)), ybox[:, 0], ybox[:, 1])
    fval = problem.value(y)
    tol = default_inner_tol(fval) if inner_tol is None else float(inner_tol)

    def convex(hess, y, where, note=""):
        w = np.linalg.eigvalsh(hess)
        if w[0] <= PD_TOL * max(1.0, float(np.max(np.abs(w)))):
            raise ConvexityError(
                f"eliminated-block Hessian is not positive definite at {where} "
                f"(min eigenvalue {float(w[0]):.3e}){note}",
                point=problem.point(y),
                min_eig=float(w[0]),
            )
        return w

    def newton_step(g, hess, y):
        convex(hess, y, "an iterate", "; the convexity assumption is violated for this split")
        return np.linalg.solve(hess, -g)

    (y, fval, gn), hess, iteration, stop = _damped_newton(
        problem.value, y, fval, ybox, tol, max_iter, newton_step
    )
    if stop != "converged":
        raise SubMinimizeError(
            {
                "boundary": "the Newton step leaves the eliminated-coordinate box at "
                "the iterate; the slice minimum may lie outside the box",
                "stalled": "backtracking line search failed on the slice; the objective "
                "may not be convex in the eliminated block here",
                "max_iter": f"no convergence within {max_iter} Newton iterations "
                f"(best gradient norm {gn:.3e}, tolerance {tol:.3e})",
            }[stop],
            best_y=y,
            grad_norm=gn,
            iterations=iteration,
        )
    w = convex(hess, y, "the sub-minimum")
    return SubMinimum(
        y_star=y,
        value=fval,
        grad_y_norm=gn,
        y_hessian_min_eig=float(w[0]),
        method="newton",
        iterations=iteration,
        inner_tol=tol,
        y_index=int(np.count_nonzero(w < -PD_TOL * max(1.0, abs(w[-1])))),
    )


class SliceSolver:
    """Solves the slices of one merit under one split.

    Linear elimination is used when the split matches a partially linear
    model, Newton otherwise. Unless ``y0`` is given, Newton starts from a
    secant prediction along the implicit graph y*(x) (Allgower & Georg,
    *Introduction to Numerical Continuation Methods*, 2003, ch. 2): when x
    lies on the line through the x of the last two results returned,
    ``x = x1 + t (x1 - x0)`` with ``|t| <= 2``, the start is
    ``y1 + t (y1 - y0)``. Any other call starts from the last result
    returned (the box center on the first solve). Each result of a call
    without ``y0`` is kept: a later such call at the same x returns it
    unsolved. A call with ``y0`` always solves. ``solves`` counts the slice
    solves made so far.
    """

    def __init__(self, merit: MeritFunction, split: ParameterSplit, inner_tol: float | None = None):
        self.merit = merit
        self.split = split
        self.inner_tol = inner_tol
        self.linear = linear_elimination_applies(merit, split)
        self.solved: dict[tuple[float, ...], SubMinimum] = {}
        self.recent: list[tuple[np.ndarray, SubMinimum]] = []
        self.solves = 0

    def _predict(self, x) -> np.ndarray | None:
        """Newton start at ``x``: the secant prediction, else the last result.

        x counts as on the line when its distance from it is at most
        sqrt(eps) times its distance from x1, which rounding cannot exceed.
        """
        if not self.recent:
            return None
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

    def solve(self, x_fixed, y0=None) -> SubMinimum:
        problem = SliceProblem(self.merit, self.split, x_fixed)
        x = problem.x_fixed
        x_key = tuple(x.tolist())
        if y0 is None and x_key in self.solved:
            sub = self.solved[x_key]
        else:
            self.solves += 1
            if self.linear:
                sub = subminimize_linear(problem)
            else:
                start = self._predict(x) if y0 is None else y0
                sub = subminimize_newton(problem, y0=start, inner_tol=self.inner_tol)
            if y0 is None:
                self.solved[x_key] = sub
        self.recent = [*self.recent[-1:], (x, sub)]
        return sub

    def value(self, x_fixed) -> float:
        """Section value at ``x_fixed``: the slice minimum of the merit."""
        return self.solve(x_fixed).value


def solve_slice(
    merit: MeritFunction,
    split: ParameterSplit,
    x_fixed,
    y0=None,
    inner_tol: float | None = None,
) -> SubMinimum:
    """One slice solve: linear elimination when available, else Newton."""
    return SliceSolver(merit, split, inner_tol).solve(x_fixed, y0)
