"""Outer minimization: coordinate-grid triplet bracketing, the
envelope-gradient BFGS outer stage, the two-level hierarchical solve, a
direct damped-Newton baseline, hierarchical-vs-direct comparison, and
anchor-based recovery of quasi-degenerate minima; plus Brent refinement of
a bracketed 1-D minimum for the section tools.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics
from .numerics import EPS, _central, _norm, fd_gradient
from .numerics import fd_hessian  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .problems import MeritFunction, ParameterSplit
from .subminimize import (
    ConvexityCertificate,
    ConvexityError,
    SliceSolver,
    _armijo,
    _backtrack,
    _check_tolerance,
    _damped_newton,
    _resolution,
    probe_y_convexity,
)
from .subminimize import subminimize_linear  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .subminimize import subminimize_newton  # noqa: F401 - unused; bench/tracing.py rebinds it here

__all__ = [
    "BracketError",
    "BracketTriplet",
    "EquivalenceReport",
    "RegularizationRecovery",
    "SolveError",
    "SolveReport",
    "Tolerances",
    "bracket_on_grid",
    "equivalence_report",
    "format_solve_report",
    "golden_refine",
    "line_minimize",
    "recover_from_anchor",
    "solve_direct",
    "solve_hierarchical",
    "solve_report_dict",
]

#: Golden-section step fraction, (3 - sqrt(5)) / 2.
GOLDEN_SECTION = (3.0 - math.sqrt(5.0)) / 2.0

#: Relative tie tolerance of the 1-D grid scans: grid values closer than
#: ``TIE_TOL`` times the larger of 1 and their magnitude count as equal.
TIE_TOL = 1e-12

#: Most quasi-Newton steps the outer stage may take.
MAX_CYCLES = 60

#: Most damped-Newton iterations of :func:`solve_direct`.
MAX_DIRECT_ITERATIONS = 200


class BracketError(RuntimeError):
    """No valid bracketing triplet exists on the grid.

    ``reason`` is one of ``"boundary"`` (an endpoint holds, or ties, the
    smallest value: the minimum is not interior), ``"flat"`` (all values
    equal within ``TIE_TOL``) or ``"plateau"`` (an interior tie that the
    midpoint probe does not resolve).
    """

    def __init__(self, message, reason):
        super().__init__(message)
        self.reason = reason


class SolveError(RuntimeError):
    """Outer minimization failed; carries the best point found."""

    def __init__(self, message, best_point=None, best_value=None, grad_norm=None):
        super().__init__(message)
        self.best_point = best_point
        self.best_value = best_value
        self.grad_norm = grad_norm


@dataclass(frozen=True)
class BracketTriplet:
    """Certificate a < b < c with f(b) strictly below f(a) and f(c)."""

    a: float
    b: float
    c: float
    fa: float
    fb: float
    fc: float

    def __post_init__(self):
        if not (self.a < self.b < self.c):
            raise ValueError("bracket abscissas must satisfy a < b < c")
        if not (self.fb < self.fa and self.fb < self.fc):
            raise ValueError("bracket requires f(b) < f(a) and f(b) < f(c)")


@dataclass(frozen=True)
class Tolerances:
    """Solver tolerances; ``None`` selects the scaled defaults.

    ``inner_tol``: zero-derivative certificate for Newton slice solves
    (default ``INNER_TOL_FACTOR * max(1, F(x, y))`` at the certified
    iterate, :func:`~minsection.subminimize.default_inner_tol`); linear
    elimination solves exactly and records that default whatever
    ``inner_tol`` says. ``outer_tol``: gradient-norm bound at the reported
    minimizer, on which the quasi-Newton outer stage stops; the default is
    the finite-difference noise bound ``max(1e-8, 100 eps^(2/3) max(1,
    |F|))`` for every number of retained coordinates; the outer stage
    takes at most ``MAX_CYCLES`` quasi-Newton steps. ``probe_density``:
    grid points per axis of the convexity probe. An explicit value samples
    that full grid; the default samples at most ``PROBE_BUDGET`` (441)
    nodes, as described in :func:`~minsection.subminimize.probe_y_convexity`.
    A tolerance that is set but not positive and finite raises
    ``ValueError``.
    """

    inner_tol: float | None = None
    outer_tol: float | None = None
    probe_density: int | None = None

    def __post_init__(self):
        _check_tolerance("inner_tol", self.inner_tol)
        _check_tolerance("outer_tol", self.outer_tol)


@dataclass(frozen=True)
class SolveCertificates:
    convexity: ConvexityCertificate | None
    brackets: tuple[BracketTriplet, ...]
    gradient_norm: float


@dataclass(frozen=True)
class SolveReport:
    """Result of an outer minimization with auditable counters.

    ``inner_solves`` counts slice sub-minimizations; for the hierarchical
    method it equals the number of section evaluations performed.
    ``iterations`` counts Newton steps for the direct method and
    quasi-Newton steps after the grid-bracket cycle for the hierarchical
    one, whatever the number of retained coordinates. The hierarchical
    method's outer stage moves only ``split.x_indices``; ``split`` is
    ``None`` for the direct method.
    """

    minimizer: np.ndarray
    value: float
    method: str
    inner_solves: int
    outer_evaluations: int
    certificates: SolveCertificates
    split: ParameterSplit | None = None
    inner_method: str = ""
    iterations: int = 0
    outer_tol: float = float("nan")


@dataclass(frozen=True)
class RegularizationRecovery:
    """Point recovered from one anchored coordinate via a single slice solve.

    ``recovered[anchor_index] == anchor_value`` exactly; ``section_residual``
    is the zero-derivative certificate of the slice solve.
    """

    anchor_index: int
    anchor_value: float
    recovered: np.ndarray
    section_residual: float
    value: float
    certificate: ConvexityCertificate


@dataclass(frozen=True)
class EquivalenceReport:
    """Hierarchical-vs-direct comparison across multiple starts."""

    hierarchical: SolveReport
    candidates: tuple[tuple[np.ndarray, float], ...]
    direct_reports: tuple[SolveReport, ...]
    max_distance: float
    max_value_gap: float


def _increasing_grid(grid):
    """``grid`` as a float array, refused unless it holds at least 3
    strictly increasing points."""
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3:
        raise ValueError("bracketing needs a grid of at least 3 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    return grid


def _scan(section_eval, grid):
    """Check a bracketing grid and evaluate the section on it."""
    grid = _increasing_grid(grid)
    return grid, np.array([float(section_eval(u)) for u in grid])


def _grid_minima(values, tie):
    """Yield ``(j, strict)`` for every interior grid minimum, left to right.

    Node j qualifies when ``values[j]`` is at most ``tie`` above both
    neighbours; it is strict when it lies more than ``tie`` below both.
    """
    for j in range(1, values.size - 1):
        left, mid, right = values[j - 1], values[j], values[j + 1]
        if mid <= left + tie and mid <= right + tie:
            yield j, bool(mid < left - tie and mid < right - tie)


def _triplet(grid, values, j) -> BracketTriplet:
    """The bracket of grid nodes ``j - 1``, ``j`` and ``j + 1``."""
    return BracketTriplet(
        grid[j - 1], grid[j], grid[j + 1], values[j - 1], values[j], values[j + 1]
    )


def bracket_on_grid(section_eval, grid) -> BracketTriplet:
    """First consecutive grid triplet whose middle value is strictly smallest.

    Ties are broken toward the leftmost qualifying triplet. With none,
    :class:`BracketError` is raised as ``"flat"`` when all values agree to
    ``TIE_TOL`` and as ``"boundary"`` when the smallest value, or its run of
    ``TIE_TOL`` ties, reaches a grid end. An interior run of ties, as a
    convex minimum exactly midway between two nodes gives, costs one more
    evaluation at its midpoint: the bracket is (run start, midpoint, run
    end) when the midpoint lies below both, else ``"plateau"`` is raised. A
    non-finite grid value raises :class:`SolveError`.
    """
    grid, values = _scan(section_eval, grid)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise SolveError(f"non-finite section value at u = {float(grid[bad])!r}")
    for j, strict in _grid_minima(values, 0.0):
        if strict:
            return _triplet(grid, values, j)
    if float(values.max() - values.min()) <= TIE_TOL * max(1.0, float(np.abs(values).max())):
        raise BracketError("section is flat on the grid (all values equal)", "flat")
    k = int(np.argmin(values))
    if k == 0 or k == grid.size - 1:
        raise BracketError(
            f"smallest section value sits at the grid boundary u = {float(grid[k])!r}; "
            "the minimum is not bracketed (domain box may be mis-specified)",
            "boundary",
        )
    run = np.flatnonzero(values <= values[k] + TIE_TOL * max(1.0, abs(float(values[k]))))
    j0, j1 = int(run[0]), int(run[-1])
    if j0 == 0 or j1 == grid.size - 1:
        raise BracketError(
            "tied minimal values reach the grid boundary; the minimum is not "
            "bracketed",
            "boundary",
        )
    mid = 0.5 * (grid[j0] + grid[j1])
    v_mid = float(section_eval(mid))
    if v_mid < values[j0] and v_mid < values[j1]:
        return BracketTriplet(grid[j0], mid, grid[j1], values[j0], v_mid, values[j1])
    raise BracketError("interior plateau prevents a strict bracketing triplet", "plateau")


def golden_refine(section_eval, triplet: BracketTriplet, x_tol: float):
    """Brent's minimization of a bracketed minimum to a bracket of width
    ``x_tol`` (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 5).

    Each step fits a parabola through the three best points and takes its
    vertex when that lies inside the bracket and the step is less than half
    the one before last; otherwise it takes a golden-section step into the
    larger side of the bracket. No trial lies closer than ``x_tol / 4`` to
    the best point so far (or two ulps of it, where ``x_tol`` is below the
    float resolution of the abscissa). Returns ``(u, value)`` for the best
    point found.
    """
    # x: best point so far; w: second best; v: the previous w.
    lo, hi = triplet.a, triplet.c
    x = w = v = triplet.b
    fx = fw = fv = triplet.fb
    step = prev_step = 0.0
    while True:
        tol1 = max(0.25 * x_tol, 2.0 * EPS * abs(x))
        mid = 0.5 * (lo + hi)
        if abs(x - mid) <= 2.0 * tol1 - 0.5 * (hi - lo):
            return x, fx
        golden = True
        if abs(prev_step) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            older, prev_step = prev_step, step
            if abs(p) < abs(0.5 * q * older) and q * (lo - x) < p < q * (hi - x):
                step = p / q
                if x + step - lo < 2.0 * tol1 or hi - (x + step) < 2.0 * tol1:
                    step = math.copysign(tol1, mid - x)
                golden = False
        if golden:
            prev_step = lo - x if x >= mid else hi - x
            step = GOLDEN_SECTION * prev_step
        u = x + step if abs(step) >= tol1 else x + math.copysign(tol1, step)
        fu = float(section_eval(u))
        if not math.isfinite(fu):
            raise SolveError(f"non-finite section value at u = {float(u)!r}")
        if fu <= fx:
            if u >= x:
                lo = x
            else:
                hi = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                lo = u
            else:
                hi = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def line_minimize(section_eval, grid, x_tol: float):
    """:func:`bracket_on_grid`, then :func:`golden_refine`: ``(u, value, triplet)``.

    An exact tie of the two smallest neighbouring grid values (a convex
    minimum exactly midway between nodes) is recovered by the bracket's
    midpoint probe; other bracket failures propagate.
    """
    triplet = bracket_on_grid(section_eval, grid)
    u, value = golden_refine(section_eval, triplet, x_tol)
    return u, value, triplet


def enumerate_section_minima(section_eval, grid, x_tol: float):
    """Polish every strict interior grid minimum of a 1-D section with
    :func:`golden_refine`.

    Returns a list of ``(u, value)`` sorted by abscissa; used when a section
    may carry several local minima.
    """
    grid, values = _scan(section_eval, grid)
    return [
        golden_refine(section_eval, _triplet(grid, values, j), x_tol)
        for j, strict in _grid_minima(values, 0.0)
        if strict
    ]


def _bracket_curvature(tri: BracketTriplet) -> float:
    """Second divided difference of a bracket: positive for a strict triplet."""
    return 2.0 * ((tri.fa - tri.fb) / (tri.b - tri.a) + (tri.fc - tri.fb) / (tri.c - tri.b)) / (
        tri.c - tri.a
    )


def minimize_by_coordinates(merit, section, grids, outer_tol=None):
    """Minimize a section of ``merit`` over the retained coordinates.

    ``section(x)`` solves the slice at the retained-coordinate vector ``x``
    and returns ``(sub, point)``: the :class:`SubMinimum` and the full
    parameter vector as a function of the retained coordinates, with the
    eliminated block held at ``sub.y_star``. Given an (N, n) stack of x
    rows, ``section`` solves them as one stack
    (:meth:`~minsection.subminimize.SliceSolver.solve`) and its result is
    not used. Every number of coordinates takes the same two steps. One
    cycle of grid brackets from the grid centers picks the basin: each
    coordinate in turn has its grid solved as one stack, is bracketed on
    it, every node then a cached slice, and is set to the bracket's middle
    node. BFGS on the section (Nocedal & Wright, ch. 6) then starts there,
    its inverse Hessian seeded from the bracket curvatures. By the envelope
    theorem the section gradient is the gradient of ``merit(point(x))``,
    taken by central differences with no further slice solve. The line
    search is the backtracking of the Newton solves
    (:func:`~minsection.subminimize._backtrack`) under the Armijo test,
    every trial clipped to the hull of the grids; a trial whose predicted
    decrease is within the test's float-resolution slack, where the section
    value's rounding can hide it, is taken instead when its full gradient
    norm is smaller, and that gradient serves the next step. BFGS stops
    once the full gradient norm at the slice minimum, ``hypot(|grad|,
    sub.grad_y_norm)``, is at most ``outer_tol`` (default
    :func:`_outer_tol` of the current value); needing more than
    ``MAX_CYCLES`` steps, or a line search that cannot move, raises
    :class:`SolveError` carrying the best point as a full parameter vector,
    whose message names the boundary only when x is on a face of the
    retained box. Returns ``(x, value, brackets, iterations, g)`` with the
    brackets of the cycle and the gradient ``g`` that the stopping test
    read: :func:`~minsection.numerics.fd_gradient` of ``merit(point(v))``
    at ``x`` in the grid hull, so the final certificate can reuse it.
    """
    x = np.array([0.5 * (g[0] + g[-1]) for g in grids])
    brackets = []
    for i, grid in enumerate(grids):
        grid = _increasing_grid(grid)
        rows = np.tile(x, (grid.size, 1))
        rows[:, i] = grid
        section(rows)

        def line(v, _i=i):
            trial = x.copy()
            trial[_i] = v
            return section(trial)[0].value

        brackets.append(bracket_on_grid(line, grid))
        x[i] = brackets[-1].b
    box = np.array([[g[0], g[-1]] for g in grids])
    h0 = np.diag([1.0 / _bracket_curvature(tri) for tri in brackets])
    sub, point = section(x)
    g = numerics.fd_gradient(lambda v: merit(point(v)), x, box=box)
    inv_hess = h0

    def sufficient(trial, _t):  # against the current x, f, g and grad_norm
        solved = section(trial)
        decrease = float(g @ (trial - x))
        if _armijo(solved[0].value, f, decrease):
            return solved, None
        if -decrease <= _resolution(f):
            # the section value's rounding hides the predicted decrease: take
            # a smaller full gradient norm instead, as the census does
            g_trial = numerics.fd_gradient(lambda v: merit(solved[1](v)), trial, box=box)
            if math.hypot(_norm(g_trial), solved[0].grad_y_norm) < grad_norm:
                return solved, g_trial
        return None

    for iteration in range(MAX_CYCLES + 1):
        f = sub.value
        grad_norm = math.hypot(_norm(g), sub.grad_y_norm)
        if grad_norm <= (outer_tol if outer_tol is not None else _outer_tol(f)):
            return x, f, brackets, iteration, g
        if iteration == MAX_CYCLES:
            break
        step = -inv_hess @ g
        if g @ step >= 0.0:
            inv_hess = h0
            step = -h0 @ g
        found = _backtrack(x, step, box, sufficient)
        if found is None or not np.any(found[0] - x):
            on_face = np.any((x == box[:, 0]) | (x == box[:, 1]))
            raise SolveError(
                f"quasi-Newton line search stalled at x = {x.tolist()}"
                + ("; the section minimum may lie on the boundary of the retained box"
                   if on_face else ""),
                best_point=point(x),
                best_value=f,
                grad_norm=grad_norm,
            )
        trial, ((trial_sub, point), g_new) = found
        s = trial - x
        if g_new is None:
            g_new = numerics.fd_gradient(lambda v: merit(point(v)), trial, box=box)
        yv = g_new - g
        sy = float(s @ yv)
        if sy > EPS * (_norm(s) * _norm(yv)):
            # Inverse BFGS update (Nocedal & Wright, eq. 6.17).
            rho = 1.0 / sy
            left = np.eye(x.size) - rho * np.outer(s, yv)
            inv_hess = left @ inv_hess @ left.T + rho * np.outer(s, s)
        x, sub, g = trial, trial_sub, g_new
    raise SolveError(
        f"quasi-Newton outer stage did not converge within {MAX_CYCLES} iterations",
        best_point=point(x),
        best_value=sub.value,
        grad_norm=grad_norm,
    )


def _outer_tol(value):
    """Gradient bound the outer stage guarantees: the finite-difference
    noise at the solution, ``max(1e-8, 100 eps^(2/3) max(1, |F|))``."""
    return max(1e-8, 100.0 * EPS ** (2.0 / 3.0) * max(1.0, abs(value)))


def _resolve_grids(grid, box, split):
    """Per-retained-coordinate grids from a density, an array, or a list."""
    xbox = split.x_box(box)
    if grid is None:
        grid = 21
    if np.isscalar(grid):
        density = int(grid)
        if density < 3:
            raise ValueError("grid density must be at least 3")
        return [np.linspace(lo, hi, density) for lo, hi in xbox]
    grid = list(grid) if isinstance(grid, (list, tuple)) else [np.asarray(grid, dtype=float)]
    if len(grid) == 1 and split.n > 1:
        grid = [np.asarray(grid[0], dtype=float) for _ in range(split.n)]
    if len(grid) != split.n:
        raise ValueError(f"expected {split.n} coordinate grids, got {len(grid)}")
    return [np.asarray(g, dtype=float) for g in grid]


def solve_hierarchical(
    merit: MeritFunction,
    split: ParameterSplit,
    grid=None,
    tolerances: Tolerances | None = None,
) -> SolveReport:
    """Two-level minimization: eliminate the y block per slice, then
    minimize the resulting section over the retained coordinates.

    The split must hold a positive convexity certificate, which is probed
    up front; a violation is a refusal (:class:`ConvexityError` carrying the
    witness point). The outer stage is :func:`minimize_by_coordinates` for
    every number of retained coordinates: one cycle of grid brackets from
    the grid centers, then BFGS on the section, whose gradient the envelope
    theorem gives as ``dF/dx`` at the slice minimum; it stops on the
    gradient norm (see :class:`Tolerances`). The certificate is then the
    norm of :func:`~minsection.numerics.fd_gradient` at the answer. Its
    x-part is the section gradient the outer stage stopped on, which
    evaluated the same points with the same steps and formula, and only
    its y-part is evaluated, ``2 m`` points; where an x stencil would be
    one-sided in the grid hull or in the domain box, the full ``2 M``
    stencil is evaluated instead. A boundary minimum along a grid bracket
    is an error, not a silent clamp. A :class:`SolveError` carries its best
    point as a full parameter vector. No evaluation leaves the domain box.
    """
    return _solve_hierarchical(merit, split, grid, tolerances)[0]


def _solve_hierarchical(merit, split, grid, tolerances):
    """:func:`solve_hierarchical`: the report and the
    :class:`~minsection.subminimize.SliceSolver` holding its slices."""
    tol = tolerances or Tolerances()
    certificate = probe_y_convexity(merit, split, tol.probe_density)
    if not certificate.positive:
        raise ConvexityError.refusal("hierarchical solve", certificate)
    grids = _resolve_grids(grid, merit.domain_box, split)
    slices = SliceSolver(merit, split, tol.inner_tol)

    def section(x):
        sub = slices.solve(x)
        return sub, lambda v: split.embed(v, sub.y_star)

    x_star, _, brackets, iterations, g = minimize_by_coordinates(
        merit, section, grids, tol.outer_tol
    )
    final = slices.solve(x_star)
    minimizer = split.embed(x_star, final.y_star)
    value = final.value
    box = merit.domain_box
    hull = np.array([[grid[0], grid[-1]] for grid in grids])
    if _central(x_star, hull) and _central(x_star, split.x_box(box)):
        # the outer stage's last gradient evaluated fd_gradient's x-stencil
        # at the minimizer: the same points, steps and formula
        grad_y = fd_gradient(
            lambda y: merit(split.embed(x_star, y)), final.y_star, box=split.y_box(box)
        )
        grad = split.embed(g, grad_y)
    else:
        grad = fd_gradient(merit, minimizer)
    grad_norm = _norm(grad)
    outer_tol = tol.outer_tol if tol.outer_tol is not None else _outer_tol(value)
    if grad_norm > outer_tol:
        raise SolveError(
            f"gradient norm {grad_norm:.3e} at the refined minimizer exceeds "
            f"the outer tolerance {outer_tol:.3e}",
            best_point=minimizer,
            best_value=value,
            grad_norm=grad_norm,
        )
    report = SolveReport(
        minimizer=minimizer,
        value=value,
        method="hierarchical",
        inner_solves=slices.solves,
        outer_evaluations=slices.solves,
        certificates=SolveCertificates(
            convexity=certificate, brackets=tuple(brackets), gradient_norm=grad_norm
        ),
        split=split,
        inner_method=final.method,
        iterations=iterations,
        outer_tol=outer_tol,
    )
    return report, slices


def solve_direct(
    merit: MeritFunction,
    p0,
    tolerances: Tolerances | None = None,
) -> SolveReport:
    """Damped Newton on the full gradient with Armijo backtracking.

    Baseline for comparing against the hierarchical route; it runs the
    damped-Newton loop of the Newton slices with several eliminated
    coordinates (:func:`~minsection.subminimize._damped_newton`) over every
    coordinate. A singular Hessian takes its least-squares step, and a
    step that is not a descent direction is replaced by steepest
    descent; iterates are kept inside the domain box. A step that leaves the
    box where no step length can move the iterate or where the iterate is
    stationary on its faces, a line search that no halving satisfies, or
    exceeding ``MAX_DIRECT_ITERATIONS`` (200) iterations raises
    :class:`SolveError` carrying the point of smallest gradient norm. The
    iteration stops once the gradient norm is at most ``outer_tol``, by
    default ``max(1e-8, 10 eps^(2/3) max(1, |F|))`` at the certified
    iterate; the report records the tolerance it stopped at.
    """
    tol = tolerances or Tolerances()
    box = merit.domain_box
    p = np.asarray(p0, dtype=float)
    if not merit.contains(p):
        raise ValueError("starting point lies outside the domain box")
    evals = {"count": 0}

    def feval(q):
        evals["count"] += 1
        return merit(q)

    fval = feval(p)

    def outer_tol(value):
        if tol.outer_tol is not None:
            return tol.outer_tol
        return max(1e-8, 10.0 * EPS ** (2.0 / 3.0) * max(1.0, abs(value)))

    def direction(g, hess, _x):
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, -g, rcond=None)[0]
        return -g if g @ step >= 0.0 else step

    (p, fval, grad_norm), _, iteration, stop = _damped_newton(
        feval, p, fval, box, outer_tol, MAX_DIRECT_ITERATIONS, direction
    )
    if stop != "converged":
        raise SolveError(
            {
                "boundary": "direct Newton step leaves the domain box at the iterate; "
                "the minimum may lie outside the box",
                "stalled": "direct line search stalled",
                "max_iter": f"direct solve did not converge within {MAX_DIRECT_ITERATIONS} "
                f"iterations (best gradient norm {grad_norm:.3e})",
            }[stop],
            best_point=p,
            best_value=fval,
            grad_norm=grad_norm,
        )
    return SolveReport(
        minimizer=p,
        value=fval,
        method="direct",
        inner_solves=0,
        outer_evaluations=evals["count"],
        certificates=SolveCertificates(convexity=None, brackets=(), gradient_norm=grad_norm),
        iterations=iteration,
        outer_tol=outer_tol(fval),
    )


def equivalence_report(
    merit: MeritFunction,
    split: ParameterSplit,
    starts,
    grid=None,
    tolerances: Tolerances | None = None,
) -> EquivalenceReport:
    """Run the hierarchical solve once and the direct baseline from each
    start; report the worst distance between each converged direct answer
    and its nearest hierarchical candidate.

    With one retained coordinate, every polished local minimum of the
    section is listed as a candidate, so sections crossing several minima
    cover all the direct answers; the section is scanned with the
    hierarchical solve's own slices, its grid handed over as one stack
    first, so a slice that solve has solved is not solved again.
    Disagreements are findings, not errors.
    """
    hier, slices = _solve_hierarchical(merit, split, grid, tolerances)
    candidates = [(hier.minimizer, hier.value)]
    if split.n == 1:
        (axis,) = _resolve_grids(grid, merit.domain_box, split)
        slices.solve(axis[:, None])
        for u, value in enumerate_section_minima(
            lambda v: slices.value(np.array([v])), axis, 1e-8 * (axis[-1] - axis[0])
        ):
            sub = slices.solve(np.array([u]))
            point = split.embed(np.array([u]), sub.y_star)
            if all(np.max(np.abs(point - c)) > 1e-6 for c, _ in candidates):
                candidates.append((point, sub.value))
    directs = tuple(solve_direct(merit, p0, tolerances=tolerances) for p0 in starts)
    max_distance = 0.0
    max_gap = 0.0
    for rep in directs:
        dists = [float(np.max(np.abs(rep.minimizer - c))) for c, _ in candidates]
        j = int(np.argmin(dists))
        max_distance = max(max_distance, dists[j])
        max_gap = max(max_gap, abs(rep.value - candidates[j][1]))
    return EquivalenceReport(
        hierarchical=hier,
        candidates=tuple(candidates),
        direct_reports=directs,
        max_distance=max_distance,
        max_value_gap=max_gap,
    )


def recover_from_anchor(
    merit: MeritFunction,
    anchor_index: int,
    anchor_value: float,
    inner_tol: float | None = None,
    probe_density: int | None = None,
) -> RegularizationRecovery:
    """Recover a point on the conditional-minimum graph from one known
    coordinate: a single slice solve at the anchored value.

    Works even when the full minimum is quasi-degenerate (flat valley),
    because only convexity in the eliminated block is required; that is
    probed and refused when violated.
    """
    if not 0 <= anchor_index < merit.dimension:
        raise ValueError(f"anchor index {anchor_index} out of range")
    split = ParameterSplit.single(anchor_index, merit.dimension)
    certificate = probe_y_convexity(merit, split, probe_density)
    if not certificate.positive:
        raise ConvexityError.refusal("anchor recovery", certificate)
    sub = SliceSolver(merit, split, inner_tol).solve(np.array([float(anchor_value)]))
    recovered = split.embed(np.array([float(anchor_value)]), sub.y_star)
    return RegularizationRecovery(
        anchor_index=anchor_index,
        anchor_value=float(anchor_value),
        recovered=recovered,
        section_residual=sub.grad_y_norm,
        value=sub.value,
        certificate=certificate,
    )


def _fmt(x) -> str:
    return repr(float(x))


def format_solve_report(report: SolveReport) -> str:
    """Human-readable solve report (full round-trip float precision)."""
    lines = [f"method: {report.method}"]
    lines.append("minimizer: [" + ", ".join(_fmt(v) for v in report.minimizer) + "]")
    lines.append(f"value: {_fmt(report.value)}")
    lines.append(
        f"gradient norm: {_fmt(report.certificates.gradient_norm)}"
        f" (outer tolerance {_fmt(report.outer_tol)})"
    )
    lines.append(f"inner sub-minimizations: {report.inner_solves}")
    lines.append(f"outer evaluations: {report.outer_evaluations}")
    if report.split is not None:
        lines.append(
            f"split: x={list(report.split.x_indices)} y={list(report.split.y_indices)}"
        )
    if report.inner_method:
        lines.append(f"inner method: {report.inner_method}")
    cert = report.certificates.convexity
    if cert is not None:
        lines.append(
            f"convexity: {cert.verdict} (min eigenvalue {_fmt(cert.min_eig_over_samples)} "
            f"over {cert.sampled_points} samples)"
        )
    for tri in report.certificates.brackets:
        lines.append(
            f"bracket: a={_fmt(tri.a)} b={_fmt(tri.b)} c={_fmt(tri.c)} "
            f"fa={_fmt(tri.fa)} fb={_fmt(tri.fb)} fc={_fmt(tri.fc)}"
        )
    return "\n".join(lines) + "\n"


def solve_report_dict(report: SolveReport) -> dict:
    """Machine-readable mirror of :func:`format_solve_report`."""
    cert = report.certificates.convexity
    return {
        "method": report.method,
        "minimizer": [float(v) for v in report.minimizer],
        "value": float(report.value),
        "gradient_norm": float(report.certificates.gradient_norm),
        "outer_tolerance": float(report.outer_tol),
        "inner_solves": report.inner_solves,
        "outer_evaluations": report.outer_evaluations,
        "split": None
        if report.split is None
        else {
            "x_indices": list(report.split.x_indices),
            "y_indices": list(report.split.y_indices),
        },
        "inner_method": report.inner_method,
        "convexity": None
        if cert is None
        else {
            "verdict": cert.verdict,
            "min_eigenvalue": float(cert.min_eig_over_samples),
            "sampled_points": cert.sampled_points,
        },
        "brackets": [asdict(tri) for tri in report.certificates.brackets],
    }
