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


class DegenerateCriticalPointError(ValueError):
    """Degenerate stationary points make index counting undefined."""

    def __init__(self, message, points):
        super().__init__(message)
        self.points = tuple(points)


@dataclass(frozen=True)
class CriticalPoint:
    """Stationary point with its classification.

    ``index_gamma`` counts negative Hessian eigenvalues; ``degenerate`` is
    set when any eigenvalue sits within the degeneracy tolerance of zero.
    """

    location: np.ndarray
    value: float
    grad_norm: float
    index_gamma: int
    degenerate: bool
    eigen: EigenSummary


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


def _newton_on_gradient(merit, seed, g, box, critical_tol, max_iter):
    """Refine one seed, whose FD gradient is ``g``, to a gradient zero; None
    when it fails to converge.

    The linear step solves the FD Hessian system (exactly symmetric, each
    mixed partial being computed once) in the minimum-norm least-squares
    sense, which also handles consistent singular systems (valley floors).
    A step backtracks to a smaller gradient norm by the line search of the
    Newton slice solves (:func:`~minsection.subminimize._backtrack`). When
    no damped Newton step reduces it, a normalized gradient-descent step of
    ``1e-2 * box diagonal`` is backtracked before giving up.
    """
    diag = float(np.linalg.norm(box[:, 1] - box[:, 0]))
    p = np.asarray(seed, dtype=float)
    gn = float(np.linalg.norm(g))

    def smaller(trial, _t):  # than the current gradient norm
        g_trial = fd_gradient(merit, trial, box=box)
        gn_trial = float(np.linalg.norm(g_trial))
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
    return (p, gn) if gn <= critical_tol else None


def find_critical_points(
    merit: MeritFunction,
    box=None,
    seed_density: int = 9,
    critical_tol: float | None = None,
    max_iter: int = 60,
) -> list[CriticalPoint]:
    """Locate and classify the stationary points reachable from a seed grid.

    Newton-on-gradient (:func:`_newton_on_gradient`, whose steps backtrack
    by the line search of the Newton slice solves) runs from every node of
    a ``seed_density``-per-axis grid; converged points are deduplicated
    within a scaled merge radius and classified via their Hessian spectrum.
    Seeds that fail to converge (or leave the box) are dropped and counted
    in the module log; they are never errors.
    """
    if seed_density < 3:
        raise ValueError("seed density must be at least 3 per axis")
    box = merit.domain_box if box is None else np.asarray(box, dtype=float)
    axes = [np.linspace(lo, hi, seed_density) for lo, hi in box]
    seeds = [np.array(combo) for combo in itertools.product(*axes)]

    points: list[CriticalPoint] = []
    dropped = 0
    # Seeds on the box faces trigger clamped stencils by construction.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryStepWarning)
        grads = [fd_gradient(merit, s, box=box) for s in seeds]
        if critical_tol is None:
            norms = [float(np.linalg.norm(g)) for g in grads]
            critical_tol = 1e-8 * max(1.0, float(np.median(norms)))
        merge_radius = MERGE_RADIUS_FACTOR * max(
            1.0, float(np.linalg.norm(box[:, 1] - box[:, 0]))
        )
        for seed, g in zip(seeds, grads):
            result = _newton_on_gradient(merit, seed, g, box, critical_tol, max_iter)
            if result is None:
                dropped += 1
                continue
            p, gn = result
            if np.any(p < box[:, 0]) or np.any(p > box[:, 1]):
                dropped += 1
                continue
            if any(np.linalg.norm(p - q.location) <= merge_radius for q in points):
                continue
            summary = eigen_index(_second_diff_block(merit, p, range(p.size), box)[0])
            points.append(
                CriticalPoint(
                    location=p,
                    value=merit(p),
                    grad_norm=gn,
                    index_gamma=summary.negative_count,
                    degenerate=summary.near_zero_count > 0,
                    eigen=summary,
                )
            )
    logger.info(
        "critical point search: %d seeds, %d unique points, %d dropped",
        len(seeds),
        len(points),
        dropped,
    )
    points.sort(key=lambda cp: (cp.value, tuple(cp.location)))
    return points


def check_outward_gradient(merit: MeritFunction, box=None, boundary_density: int = 9) -> bool:
    """True iff the gradient's outward normal component is positive at every
    sampled boundary point.

    Each face is sampled on a grid of ``boundary_density`` points per face
    axis over its relative interior (edges and corners carry no unique
    outward normal). Gradients use unclamped central differences, so the
    objective must be evaluable within a stencil step outside the box.
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
            grids = [face_axes[j] for j in others]
            for combo in itertools.product(*grids) if others else [()]:
                p = np.empty(dim)
                p[i] = side
                for j, v in zip(others, combo):
                    p[j] = v
                g = fd_gradient(merit, p, box=None)
                if sign * g[i] <= 0.0:
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
        where = "; ".join(str(p.location) for p in degenerate)
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
