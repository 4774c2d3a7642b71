"""Implicit-function traces and minimal sections.

A trace samples the graph of the conditional-minimum map y = g(x), defined
by the zero set of the derivative in the eliminated block; the minimal
section is the objective composed with that graph. One-dimensional sections
per parameter support local-minimum extraction, sub-level projection
intervals, and the nesting check for iterated splits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .problems import MeritFunction, ParameterSplit
from .solver import (
    TIE_TOL,
    _grid_minima,
    _increasing_grid,
    _triplet,
    golden_refine,
    minimize_by_coordinates,
)
from .solver import line_minimize  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .subminimize import subminimize_linear  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .subminimize import (
    ConvexityCertificate,
    ConvexityError,
    SliceProblem,
    SliceSolver,
    SubMinimizeError,
    SubMinimum,
    _check_tolerance,
    linear_elimination_applies,
    probe_full_convexity,
    probe_y_convexity,
    subminimize_newton,
)

__all__ = [
    "ImplicitTrace",
    "MinimalSection1D",
    "NestingReport",
    "SubLevelInterval",
    "TraceError",
    "TraceIndexWarning",
    "minimal_section_1d",
    "nesting_check",
    "section_csv_text",
    "sublevel_interval",
    "trace_implicit",
    "write_section_csv",
]

#: Scan density for the robust fallback slice solver (one eliminated
#: coordinate, no convexity certificate).
FALLBACK_SCAN_DENSITY = 41

#: Largest gap between iterated and direct partial minimization at which
#: :func:`nesting_check` passes.
NESTING_TOL = 1e-6

POLISH_X_TOL = 1e-10


class TraceError(RuntimeError):
    """A slice solve failed while tracing; carries the failing x, and the
    witness ``point`` and ``min_eig`` of the refusal it wraps, where that
    has them."""

    def __init__(self, message, x_failed=None):
        super().__init__(message)
        self.x_failed = x_failed

    @property
    def point(self):
        return getattr(self.__cause__, "point", None)

    @property
    def min_eig(self):
        return getattr(self.__cause__, "min_eig", None)


class TraceIndexWarning(UserWarning):
    """The eliminated-block index varied along a trace."""


@dataclass(frozen=True)
class ImplicitTrace:
    """Sampled graph of the conditional-minimum map with residual certificates.

    ``residual_norms[j]`` is the derivative norm in the eliminated block at
    the j-th sample and is bounded by ``inner_tols[j]``;
    ``y_index_along_trace`` holds the eliminated-block index (negative
    eigenvalue count) at each sample, identically zero on certified splits.
    """

    split: ParameterSplit
    x_samples: np.ndarray
    g_values: np.ndarray
    values: np.ndarray
    residual_norms: np.ndarray
    y_index_along_trace: np.ndarray
    inner_tols: np.ndarray

    @property
    def index_constant(self) -> bool:
        return bool(np.all(self.y_index_along_trace == self.y_index_along_trace[0]))

    def points(self) -> np.ndarray:
        """Full parameter vectors (G, M) along the trace."""
        out = np.empty((self.x_samples.shape[0], self.split.dimension))
        for j in range(self.x_samples.shape[0]):
            out[j] = self.split.embed(self.x_samples[j], self.g_values[j])
        return out


@dataclass(frozen=True)
class MinimalSection1D:
    """One-dimensional minimal section for a single parameter.

    ``companions[j]`` holds the eliminated coordinates (ascending index
    order) at ``grid[j]``; ``values[j]`` is the objective evaluated exactly
    at that assembled point. ``local_minima`` are interior grid indices
    whose value is at most the tie tolerance ``TIE_TOL * max(1, max
    |values|)`` above both neighbours; strict ones, more than the tolerance
    below both, are polished by :func:`~minsection.solver.golden_refine`
    (Brent's method) into ``minima_x``/``minima_values``/
    ``minima_companions``, non-strict ones are flagged as plateau points.
    ``section_fn`` evaluates the continuous section anywhere via an
    on-demand slice solve.
    """

    parameter_index: int
    grid: np.ndarray
    values: np.ndarray
    companions: np.ndarray
    residual_norms: np.ndarray
    local_minima: tuple[int, ...]
    plateau: tuple[bool, ...]
    minima_x: tuple[float, ...]
    minima_values: tuple[float, ...]
    minima_companions: tuple[np.ndarray, ...]
    non_monotone_companions: tuple[int, ...]
    split: ParameterSplit
    certificate: ConvexityCertificate
    section_fn: Callable[[float], SubMinimum]

    @property
    def has_unique_strict_minimum(self) -> bool:
        return len(self.minima_x) == 1 and not any(self.plateau)


@dataclass(frozen=True)
class SubLevelInterval:
    """Projection of a sub-level set onto one parameter axis.

    ``lo``/``hi`` are the abscissas where the 1-D minimal section crosses
    the level; they coincide at the section minimum.
    """

    parameter_index: int
    level_z: float
    lo: float
    hi: float


@dataclass(frozen=True)
class NestingReport:
    """Pointwise comparison of iterated versus direct partial minimization."""

    inner_indices: tuple[int, ...]
    outer_indices: tuple[int, ...]
    grid: np.ndarray
    inner_values: np.ndarray
    iterated_values: np.ndarray
    max_gap: float
    tolerance: float
    passed: bool
    certificate: ConvexityCertificate


def _normalize_x_grid(x_grid, n):
    arr = np.asarray(x_grid, dtype=float)
    if arr.ndim == 1:
        if n != 1:
            raise ValueError(f"grid of scalars requires n = 1, split has n = {n}")
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"x grid must have shape (G, {n})")
    if arr.shape[0] < 1:
        raise ValueError("x grid must contain at least one point")
    return arr


def trace_implicit(
    merit: MeritFunction,
    split: ParameterSplit,
    x_grid,
    inner_tol: float | None = None,
) -> ImplicitTrace:
    """Trace the conditional-minimum graph over a grid of retained values.

    The whole grid is handed to one
    :class:`~minsection.subminimize.SliceSolver` as one stack: solved by
    linear elimination when available, otherwise by Newton in levels (the
    middle point from the box center, then the two ends, then bisection
    midpoints), each point started from the interpolant through the up to
    four nearest points already solved. Every sample certifies its
    derivative residual against its inner tolerance. Requires a positive
    convexity certificate for the split (caller responsibility): a slice
    failure raises :class:`TraceError` naming the failing x, the lowest
    failing grid point of the first level that has one. ``inner_tol``
    reaches the Newton slices only: linear elimination solves exactly and
    records the default tolerance of each slice; one that is set but not
    positive and finite raises ``ValueError`` (from
    :class:`~minsection.subminimize.SliceSolver`) before any slice is solved.
    """
    grid = _normalize_x_grid(x_grid, split.n)
    slices = SliceSolver(merit, split, inner_tol)
    try:
        solutions = slices.solve(grid)
    except (ConvexityError, SubMinimizeError) as err:
        x = split.x_part(err.point)
        raise TraceError(
            f"slice solve failed at x = {x.tolist()} (the conditional-minimum "
            f"graph does not extend there): {err}",
            x_failed=x,
        ) from err

    g_values = np.array([s.y_star for s in solutions])
    values = np.array([s.value for s in solutions])
    residuals = np.array([s.grad_y_norm for s in solutions])
    indices = np.array([s.y_index for s in solutions], dtype=int)
    tols = np.array([s.inner_tol for s in solutions])
    if np.any(indices != indices[0]):
        warnings.warn(
            "eliminated-block index varies along the trace; the split is not "
            "uniformly convex over this grid",
            TraceIndexWarning,
            stacklevel=2,
        )
    return ImplicitTrace(
        split=split,
        x_samples=grid,
        g_values=g_values,
        values=values,
        residual_norms=residuals,
        y_index_along_trace=indices,
        inner_tols=tols,
    )


def _fallback_slice(merit, split, u, inner_tol):
    """Robust single-eliminated-coordinate solve: grid scan, then Newton.

    Used when the complementary split holds no convexity certificate; the
    scan locates the global basin of the slice so the Newton polish starts
    inside a locally convex neighborhood.
    """
    problem = SliceProblem(merit, split, np.array([u]))
    ybox = problem.y_box()
    scan = np.linspace(ybox[0, 0], ybox[0, 1], FALLBACK_SCAN_DENSITY)
    scan_values = [problem.value(np.array([y])) for y in scan]
    best = int(np.argmin(scan_values))
    return subminimize_newton(problem, y0=np.array([scan[best]]), inner_tol=inner_tol)


def minimal_section_1d(
    merit: MeritFunction,
    parameter_index: int,
    grid,
    inner_tol: float | None = None,
) -> MinimalSection1D:
    """One-dimensional minimal section for a single parameter.

    Eliminates every other coordinate per grid point. When the
    complementary split holds a positive convexity certificate (or admits
    linear elimination), the section is the continuation trace; otherwise,
    with a single eliminated coordinate, each slice falls back to a grid
    scan plus Newton polish so deep sections of nonconvex slices are still
    reachable; a fallback slice that fails raises :class:`TraceError` with
    its grid abscissa in ``x_failed``, as a failing trace does. Several
    eliminated coordinates without a certificate are
    refused. The certificate is :func:`probe_y_convexity` at its default
    sample.

    The grid must be 1-D and strictly increasing, with at least 3 points;
    any other grid raises ``ValueError`` before the convexity probe. Grid
    minima come from the same scan as
    :func:`~minsection.solver.bracket_on_grid`, with values within
    ``TIE_TOL * max(1, max |values|)`` counted as tied (see
    :class:`MinimalSection1D`). Strict ones are polished by Brent's method
    (:func:`~minsection.solver.golden_refine`) on the continuous section
    (on-demand slice solves), tolerance 1e-10 in the abscissa. An
    ``inner_tol`` that is set but not positive and finite raises
    ``ValueError`` before the probe.
    """
    if not 0 <= parameter_index < merit.dimension:
        raise ValueError(f"parameter index {parameter_index} out of range")
    _check_tolerance("inner_tol", inner_tol)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("section grid must be 1-D with at least 3 points")
    _increasing_grid(grid)
    split = ParameterSplit.single(parameter_index, merit.dimension)
    certificate = probe_y_convexity(merit, split)
    certified = certificate.positive or linear_elimination_applies(merit, split)
    if not certified and split.m > 1:
        raise ConvexityError.refusal(
            "a section with more than one eliminated coordinate and no convexity "
            "certificate",
            certificate,
        )

    if certified:
        trace = trace_implicit(merit, split, grid, inner_tol=inner_tol)
        values, companions, residuals = trace.values, trace.g_values, trace.residual_norms
        slices = SliceSolver(merit, split, inner_tol)

        def section_fn(u: float) -> SubMinimum:
            return slices.solve(np.array([u]))

    else:
        def section_fn(u: float) -> SubMinimum:
            return _fallback_slice(merit, split, u, inner_tol)

        solutions = []
        for u in grid:
            try:
                solutions.append(section_fn(u))
            except (ConvexityError, SubMinimizeError) as err:
                x = np.array([u])
                raise TraceError(
                    "fallback slice solve failed while sampling the section at "
                    f"x = {x.tolist()}: {err}",
                    x_failed=x,
                ) from err
        values = np.array([s.value for s in solutions])
        companions = np.array([s.y_star for s in solutions])
        residuals = np.array([s.grad_y_norm for s in solutions])

    tie = TIE_TOL * max(1.0, float(np.max(np.abs(values))))
    grid_minima = list(_grid_minima(values, tie))
    minima_x, minima_values, minima_companions = [], [], []
    for j, strict in grid_minima:
        if not strict:
            continue
        triplet = _triplet(grid, values, j)
        u_star, _ = golden_refine(lambda u: section_fn(u).value, triplet, POLISH_X_TOL)
        sub = section_fn(u_star)
        if any(abs(u_star - prev) <= 1e-8 for prev in minima_x):
            continue
        minima_x.append(float(u_star))
        minima_values.append(float(sub.value))
        minima_companions.append(sub.y_star)

    non_monotone = []
    comp_scale = np.maximum(1.0, np.max(np.abs(companions), axis=0))
    diffs = np.diff(companions, axis=0)
    for c in range(companions.shape[1]):
        signs = np.sign(np.where(np.abs(diffs[:, c]) <= 1e-10 * comp_scale[c], 0.0, diffs[:, c]))
        nonzero = signs[signs != 0.0]
        if nonzero.size and np.any(nonzero != nonzero[0]):
            non_monotone.append(int(split.y_indices[c]))

    return MinimalSection1D(
        parameter_index=parameter_index,
        grid=grid,
        values=values,
        companions=companions,
        residual_norms=residuals,
        local_minima=tuple(j for j, _ in grid_minima),
        plateau=tuple(not strict for _, strict in grid_minima),
        minima_x=tuple(minima_x),
        minima_values=tuple(minima_values),
        minima_companions=tuple(minima_companions),
        non_monotone_companions=tuple(non_monotone),
        split=split,
        certificate=certificate,
        section_fn=section_fn,
    )


def sublevel_interval(section: MinimalSection1D, level_z: float) -> SubLevelInterval:
    """Projection interval of the sub-level set onto the section's axis.

    The endpoints are located by bisection on the continuous section left
    and right of its unique minimum, to ``1e-10`` of the grid's width; at
    the minimum level the endpoints coincide. Sections with several local
    minima (or plateau points) are refused: analyze each basin separately
    in that case.
    """
    if not section.has_unique_strict_minimum:
        raise ValueError(
            "sub-level projection requires a section with a unique strict "
            "local minimum; analyze each basin separately"
        )
    x_star = section.minima_x[0]
    v_min = section.minima_values[0]
    level_z = float(level_z)
    val_tol = 1e-10 * max(1.0, abs(level_z), abs(v_min))
    if level_z < v_min - val_tol:
        raise ValueError(
            f"level {level_z!r} lies below the section minimum {v_min!r}"
        )
    if level_z <= v_min + val_tol:
        return SubLevelInterval(section.parameter_index, level_z, x_star, x_star)
    tol = 1e-10 * float(section.grid[-1] - section.grid[0])

    def crossing(a: float, b: float) -> float:
        # section(a) >= z >= section(b); bisect the monotone flank.
        fa = section.section_fn(a).value - level_z
        for _ in range(200):
            if abs(b - a) <= tol:
                break
            mid = 0.5 * (a + b)
            fm = section.section_fn(mid).value - level_z
            if (fm > 0.0) == (fa > 0.0):
                a, fa = mid, fm
            else:
                b = mid
        return 0.5 * (a + b)

    edges = float(section.grid[0]), float(section.grid[-1])
    for side, edge in zip(("left", "right"), edges):
        if section.section_fn(edge).value < level_z:
            raise ValueError(
                f"section stays below level {level_z!r} at the {side} grid edge; "
                "enlarge the grid to bracket the crossing"
            )
    lo, hi = (crossing(edge, x_star) for edge in edges)
    return SubLevelInterval(section.parameter_index, level_z, float(lo), float(hi))


def nesting_check(
    merit: MeritFunction,
    outer_split: ParameterSplit,
    inner_x_subset,
    grid,
    probe_density: int | None = None,
) -> NestingReport:
    """Verify that iterated minimization reproduces direct partial
    minimization: minimizing the outer minimal-section over the retained
    coordinates absent from the inner subset must equal the inner
    minimal-section value, pointwise on the grid, within ``NESTING_TOL``.

    Only claimed for strictly convex objectives, so the full Hessian is
    probed first and a violation is a refusal. The inner subset must be a
    single coordinate strictly contained in the outer retained set. A
    :class:`~minsection.solver.SolveError` of the outer stage carries its
    best point as a full parameter vector.
    """
    inner = tuple(int(i) for i in inner_x_subset)
    outer = tuple(outer_split.x_indices)
    if not set(inner) < set(outer):
        raise ValueError("inner subset must be strictly contained in the outer x set")
    if len(inner) != 1:
        raise ValueError("only one-dimensional inner subsets are supported")
    certificate = probe_full_convexity(merit, probe_density)
    if not certificate.positive:
        raise ConvexityError.refusal(
            "nesting check (it needs a strictly convex objective on the box)", certificate
        )
    grid = np.asarray(grid, dtype=float)
    inner_slices = SliceSolver(merit, ParameterSplit.single(inner[0], merit.dimension))
    outer_slices = SliceSolver(merit, outer_split)
    rest = tuple(i for i in outer if i not in inner)
    box = merit.domain_box
    rest_grids = [np.linspace(box[i, 0], box[i, 1], max(9, grid.size)) for i in rest]
    inner_pos = outer.index(inner[0])
    rest_pos = [outer.index(coord) for coord in rest]

    inner_values = np.empty(grid.size)
    iterated_values = np.empty(grid.size)
    for j, u in enumerate(grid):
        inner_values[j] = inner_slices.value(np.array([u]))

        def place(rest_vec, _u=u):
            rest_vec = np.asarray(rest_vec, dtype=float)
            full = np.empty((*rest_vec.shape[:-1], len(outer)))
            full[..., inner_pos] = _u
            full[..., rest_pos] = rest_vec
            return full

        def section(rest_vec, _place=place):
            sub = outer_slices.solve(_place(rest_vec))
            return sub, lambda v: outer_split.embed(_place(v), sub.y_star)

        iterated_values[j] = minimize_by_coordinates(merit, section, rest_grids)[1]
    max_gap = float(np.max(np.abs(inner_values - iterated_values)))
    return NestingReport(
        inner_indices=inner,
        outer_indices=outer,
        grid=grid,
        inner_values=inner_values,
        iterated_values=iterated_values,
        max_gap=max_gap,
        tolerance=NESTING_TOL,
        passed=max_gap <= NESTING_TOL,
        certificate=certificate,
    )


def section_csv_text(section: MinimalSection1D, intervals=()) -> str:
    """Render a section as CSV: ``x_i,F,comp_0,...,comp_{M-2},residual``.

    Sub-level intervals are appended as comment lines
    ``# sublevel z=<z> lo=<lo> hi=<hi>``. Numbers use full round-trip
    precision.
    """
    m = section.companions.shape[1]
    header = "x_i,F," + ",".join(f"comp_{c}" for c in range(m)) + ",residual"
    lines = [header]
    for j in range(section.grid.size):
        cells = [repr(float(section.grid[j])), repr(float(section.values[j]))]
        cells += [repr(float(v)) for v in section.companions[j]]
        cells.append(repr(float(section.residual_norms[j])))
        lines.append(",".join(cells))
    for iv in intervals:
        lines.append(
            f"# sublevel z={repr(float(iv.level_z))} lo={repr(float(iv.lo))} "
            f"hi={repr(float(iv.hi))}"
        )
    return "\n".join(lines) + "\n"


def write_section_csv(section: MinimalSection1D, path, intervals=()) -> None:
    """Write :func:`section_csv_text` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(section_csv_text(section, intervals))
