"""Critical-point census on the domain box.

Locates stationary points by Newton iteration on the gradient from a seed
grid, classifies each by the sign counts of its Hessian spectrum, checks
whether the gradient points outward everywhere on the box faces, and audits
the alternating-sum count equality that holds for boxes with outward
boundary gradient and no degenerate stationary points.
"""

from __future__ import annotations

import itertools
import logging
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    BoundaryStepWarning,
    EigenSummary,
    _gradient_step,
    _inward_derivative,
    _non_finite_gradient_error,
    _norm,
    _second_diff_block,
    eigen_index,
    fd_gradient,
)
from .numerics import fd_hessian  # noqa: F401 - unused; bench/tracing.py rebinds it here
from .problems import MeritFunction
from .subminimize import _backtrack

__all__ = [
    "CriticalPoint",
    "DegenerateCriticalPointError",
    "MorseCensus",
    "census_report",
    "check_outward_gradient",
    "find_critical_points",
    "morse_equality_audit",
]

logger = logging.getLogger(__name__)

MERGE_RADIUS_FACTOR = 1e-5
GRADIENT_FALLBACK_STEP = 1e-2
#: Radius, per unit of box diagonal, of the ball around each found
#: non-degenerate critical point inside which a census seed may be ended as
#: a duplicate of that point (Morse lemma: such a point is isolated and has
#: a Newton-convergence neighbourhood).
BALL_RADIUS_FACTOR = 1e-2
#: Largest ``|Newton correction error| / |distance|`` at which a seed in a
#: found point's ball is ended (the Newton ball theorem allows below 1/3).
CONTRACTION_LIMIT = 0.25
#: Most damped-Newton iterations a census seed takes.
MAX_SEED_ITERATIONS = 60


class DegenerateCriticalPointError(ValueError):
    """Degenerate stationary points make index counting undefined.

    ``points`` holds the degenerate critical points in the order they were
    listed (:func:`find_critical_points` lists them by value); ``point``,
    the witness, is the location of the first of them.
    """

    def __init__(self, message, points):
        super().__init__(message)
        self.points = tuple(points)
        self.point = np.array(self.points[0].location, dtype=float) if self.points else None


@dataclass(frozen=True)
class CriticalPoint:
    """Stationary point with its classification.

    ``index_gamma`` counts negative Hessian eigenvalues; ``degenerate`` is
    set when any eigenvalue sits within the degeneracy tolerance of zero.
    ``hessian`` is the FD Hessian the classification was read from.
    """

    location: np.ndarray
    value: float
    grad_norm: float
    index_gamma: int
    degenerate: bool
    eigen: EigenSummary
    hessian: np.ndarray | None = None


@dataclass(frozen=True)
class MorseCensus:
    """Index counts and their alternating sum.

    The audit passes iff the boundary gradient points outward and the
    alternating sum equals one.
    """

    counts: dict[int, int]
    boundary_outward: bool
    alternating_sum: int

    @property
    def passes(self) -> bool:
        return self.boundary_outward and self.alternating_sum == 1


#: Returned by :func:`_newton_on_gradient` for a seed ended as a duplicate
#: of a found point.
DUPLICATE = "duplicate"


def _converges_to_found(p, g, hess, points, radius, min_curvature):
    """Whether Newton from the iterate ``p``, whose FD gradient is ``g``,
    converges to one of the found ``points``; ``hess`` is the Hessian of
    the step that reached ``p``.

    A found point q qualifies when it lies within ``radius`` of ``p``, is
    non-degenerate with ``hess``'s index, ``hess`` being non-degenerate
    too, and is resolved: its smallest Hessian eigenvalue magnitude is at
    least ``min_curvature``, so every iterate whose gradient norm is within
    the census tolerance of q's zero lies within a quarter of the merge
    radius of it. Then the Newton ball theorem (Deuflhard 2004, ch. 2)
    decides, with the Lipschitz constant ``omega`` of q's Hessian estimated
    along the segment from q to ``p``: ``d = p - q`` and the Newton
    correction of q's Hessian at ``p`` differ by ``e`` of about ``omega
    |d|^2 / 2``, and Newton from ``p`` converges to q when ``|d| < 2 / (3
    omega)``, that is ``|e| < |d| / 3``; the test asks ``|e| <=
    CONTRACTION_LIMIT |d|``. A seed near another zero has a correction
    toward that zero, not toward q, and fails it however close the two
    zeros lie. The distance test comes first, so an iterate outside every
    ball costs no linear algebra.
    """
    near = [
        q for q in points
        if not q.degenerate
        and q.eigen.min_abs >= min_curvature
        and _norm(p - q.location) <= radius
    ]
    if not near:
        return False
    summary = eigen_index(hess)
    if summary.near_zero_count:
        return False
    for q in near:
        if q.index_gamma != summary.negative_count:
            continue
        offset = p - q.location
        error = _norm(offset - np.linalg.solve(q.hessian, g))
        if error <= CONTRACTION_LIMIT * _norm(offset):
            return True
    return False


def _newton_on_gradient(merit, seed, g, box, critical_tol, max_iter, points=()):
    """Refine one seed, whose FD gradient is ``g``, to a gradient zero.

    Returns ``(point, gradient norm)`` on convergence, None when the seed
    fails to converge, and :data:`DUPLICATE` when the seed is ended as a
    duplicate of one of the found ``points``: an accepted, not yet
    converged iterate passes :func:`_converges_to_found` for the ball radius
    ``BALL_RADIUS_FACTOR * box diagonal``. The test uses the Hessian and
    gradient already in hand, before the next Hessian is computed, so it
    costs no evaluation.

    The linear step solves the FD Hessian system (exactly symmetric, each
    mixed partial being computed once) in the minimum-norm least-squares
    sense, which also handles consistent singular systems (valley floors).
    A step backtracks to a smaller gradient norm by the line search of the
    Newton slice solves (:func:`~minsection.subminimize._backtrack`). When
    no damped Newton step reduces it, a normalized gradient-descent step of
    ``1e-2 * box diagonal`` is backtracked before giving up.
    """
    diag = _norm(box[:, 1] - box[:, 0])
    radius = BALL_RADIUS_FACTOR * diag
    # A gradient norm of at most critical_tol puts an iterate within
    # critical_tol / curvature of the zero: a quarter of the merge radius.
    min_curvature = 4.0 * critical_tol / (MERGE_RADIUS_FACTOR * max(1.0, diag))
    p = np.asarray(seed, dtype=float)
    gn = _norm(g)

    def smaller(trial, _t):  # than the current gradient norm
        g_trial = fd_gradient(merit, trial, box=box)
        gn_trial = _norm(g_trial)
        return (g_trial, gn_trial) if gn_trial < gn else None

    for _ in range(max_iter):
        if gn <= critical_tol:
            return p, gn
        hess = _second_diff_block(merit, p, range(p.size), box)[0]
        step = np.linalg.lstsq(hess, -g, rcond=None)[0]
        found = _backtrack(p, step, box, smaller, tries=25)
        if found is None:
            direction = -g / gn if gn > 0 else -g
            found = _backtrack(
                p, direction, box, smaller, tries=30, t=GRADIENT_FALLBACK_STEP * diag
            )
        if found is None:
            return None
        p, (g, gn) = found
        if gn > critical_tol and _converges_to_found(p, g, hess, points, radius, min_curvature):
            return DUPLICATE
    return (p, gn) if gn <= critical_tol else None


def find_critical_points(
    merit: MeritFunction, box=None, seed_density: int = 9
) -> list[CriticalPoint]:
    """Locate and classify the stationary points reachable from a seed grid.

    Newton-on-gradient (:func:`_newton_on_gradient`, whose steps backtrack
    by the line search of the Newton slice solves) runs from every node of
    a ``seed_density``-per-axis grid, for at most ``MAX_SEED_ITERATIONS``
    iterations, and converges once its gradient norm is at most ``1e-8 *
    max(1, median seed gradient norm)``; converged points are deduplicated
    within a scaled merge radius and classified via their Hessian spectrum.
    Each found non-degenerate point gets a ball of radius
    ``BALL_RADIUS_FACTOR * box diagonal``; a later seed whose Newton iterate
    enters it is ended there as a duplicate, adding no point, when
    :func:`_converges_to_found` finds that Newton from the iterate
    converges to that point and stops within the merge radius of it. The
    test is a Newton ball-theorem estimate, not a proof; the census it
    gives is bitwise that of running every seed to convergence on the
    catalog problems, on points of the same index closer together than a
    ball's radius, and on seeded two-well and quadratic merits
    (``test_census_matches_reference_loop``). Points too flat to be
    resolved within the merge radius at the gradient tolerance get no ball.
    Seeds that fail to converge are dropped; every trial is clipped to the
    box, so no seed leaves it. Dropped and ball-ended seeds are counted in
    the module log. Neither is an error.
    """
    if seed_density < 3:
        raise ValueError("seed density must be at least 3 per axis")
    box = merit.domain_box if box is None else np.asarray(box, dtype=float)
    axes = [np.linspace(lo, hi, seed_density) for lo, hi in box]
    seeds = [np.array(combo) for combo in itertools.product(*axes)]

    points: list[CriticalPoint] = []
    dropped = ended_in_ball = 0
    # Seeds on the box faces trigger clamped stencils by construction.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryStepWarning)
        grads = [fd_gradient(merit, s, box=box) for s in seeds]
        norms = [_norm(g) for g in grads]
        critical_tol = 1e-8 * max(1.0, float(np.median(norms)))
        merge_radius = MERGE_RADIUS_FACTOR * max(
            1.0, _norm(box[:, 1] - box[:, 0])
        )
        for seed, g in zip(seeds, grads):
            result = _newton_on_gradient(
                merit, seed, g, box, critical_tol, MAX_SEED_ITERATIONS, points
            )
            if result is None:
                dropped += 1
                continue
            if result is DUPLICATE:
                ended_in_ball += 1
                continue
            p, gn = result
            if any(_norm(p - q.location) <= merge_radius for q in points):
                continue
            value = merit(p)  # the Hessian stencil's center, unless it is shifted
            hess = _second_diff_block(merit, p, range(p.size), box, value)[0]
            summary = eigen_index(hess)
            points.append(
                CriticalPoint(
                    location=p,
                    value=value,
                    grad_norm=gn,
                    index_gamma=summary.negative_count,
                    degenerate=summary.near_zero_count > 0,
                    eigen=summary,
                    hessian=hess,
                )
            )
    logger.info(
        "critical point search: %d seeds, %d unique points, %d dropped, "
        "%d ended in a found point's ball",
        len(seeds),
        len(points),
        dropped,
        ended_in_ball,
    )
    points.sort(key=lambda cp: (cp.value, tuple(cp.location)))
    return points


def check_outward_gradient(merit: MeritFunction, box=None, boundary_density: int = 9) -> bool:
    """True iff the gradient's outward normal component is positive at every
    sampled boundary point.

    Each face is sampled on a grid of ``boundary_density`` points per face
    axis over its relative interior (edges and corners carry no unique
    outward normal). Only the normal derivative is taken, by the inward
    one-sided three-point difference of :func:`~minsection.fd_gradient`'s
    clamped stencil (step ``cbrt(eps) * max(1, |p_i|)``): three evaluations
    per sampled point, all inside the box.
    """
    if boundary_density < 3:
        raise ValueError("boundary density must be at least 3 per face axis")
    box = merit.domain_box if box is None else np.asarray(box, dtype=float)
    dim = box.shape[0]
    face_axes = {
        i: np.linspace(box[i, 0], box[i, 1], boundary_density + 2)[1:-1] for i in range(dim)
    }
    for i in range(dim):
        others = [j for j in range(dim) if j != i]
        for side, sign in ((box[i, 0], -1.0), (box[i, 1], 1.0)):
            h = _gradient_step(side)
            grids = [face_axes[j] for j in others]
            for combo in itertools.product(*grids) if others else [()]:
                p = np.empty(dim)
                p[i] = side
                for j, v in zip(others, combo):
                    p[j] = v
                normal = _inward_derivative(merit, p, p.copy(), i, h, *box[i])[0]
                if not np.isfinite(normal):
                    raise _non_finite_gradient_error(i, p)
                if sign * normal <= 0.0:
                    return False
    return True


def morse_equality_audit(points, outward: bool) -> MorseCensus:
    """Census of index counts with the alternating-sum equality.

    Raises :class:`DegenerateCriticalPointError` when any listed point is
    degenerate; index counting requires non-degenerate stationary points
    only.
    """
    degenerate = [p for p in points if p.degenerate]
    if degenerate:
        where = "; ".join(str([float(v) for v in p.location]) for p in degenerate)
        raise DegenerateCriticalPointError(
            f"degenerate critical point(s) at {where}: the index census is "
            "undefined (a singular Hessian carries no index)",
            points=degenerate,
        )
    counts: dict[int, int] = {}
    for p in points:
        counts[p.index_gamma] = counts.get(p.index_gamma, 0) + 1
    alternating = sum(((-1) ** k) * c for k, c in counts.items())
    return MorseCensus(
        counts=dict(sorted(counts.items())),
        boundary_outward=bool(outward),
        alternating_sum=int(alternating),
    )


def census_report(points, census: MorseCensus) -> str:
    """Structured text listing each point and the audit verdict."""
    lines = ["critical points:"]
    for p in points:
        loc = "[" + ", ".join(repr(float(v)) for v in p.location) + "]"
        lines.append(
            f"  location={loc} value={repr(float(p.value))} index={p.index_gamma} "
            f"degenerate={p.degenerate}"
        )
    if not points:
        lines.append("  (none found)")
    lines.append(f"index counts: { {k: v for k, v in census.counts.items()} }")
    lines.append(f"boundary gradient outward: {census.boundary_outward}")
    lines.append(f"alternating sum: {census.alternating_sum}")
    if census.passes:
        lines.append("audit: PASS")
    elif not census.boundary_outward:
        lines.append("audit: FAIL (boundary gradient not outward everywhere)")
    else:
        lines.append("audit: FAIL (missing critical point or boundary leak)")
    return "\n".join(lines) + "\n"
