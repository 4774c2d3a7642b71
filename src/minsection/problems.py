"""Parameter-space model: splits, merit functions, partially linear models,
and the built-in problem catalog.

A parameter vector is a plain 1-D float array of fixed length M >= 2 with
finite entries. A split partitions its coordinates into retained ("x") and
eliminated ("y") blocks by disjoint index sets. Merit functions are
deterministic, pure, nonnegative scalar fields on a finite domain box;
residual maps must be C^2 on the box by contract (smoothness is not
verified numerically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "DEFAULT_BOX_HALF_WIDTH",
    "MeritFunction",
    "ParameterSplit",
    "PartiallyLinearModel",
    "ProblemCatalogEntry",
    "as_parameter_vector",
    "build_partially_linear",
    "build_residual_merit",
    "catalog",
    "default_box",
    "get_problem",
    "linear_elimination_applies",
    "model_split",
    "random_quadratic_problem",
]

DEFAULT_BOX_HALF_WIDTH = 10.0

STRUCTURE_GENERAL = "general"
STRUCTURE_RESIDUAL = "residual"
STRUCTURE_PARTIALLY_LINEAR = "partially_linear"

_FLOAT64 = np.dtype(float)

CONVEXITY_CLASSES = (
    "strictly_convex",
    "convex_in_y",
    "two_minima",
    "degenerate_valley",
    "nonconvex_in_y",
)


def as_parameter_vector(values, dimension: int | None = None) -> np.ndarray:
    """Validate and return a parameter vector as a float array."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1:
        raise ValueError("parameter vector must be 1-D")
    if p.size < 2:
        raise ValueError("parameter vector must have length M >= 2")
    if dimension is not None and p.size != dimension:
        raise ValueError(f"expected dimension {dimension}, got {p.size}")
    if not np.all(np.isfinite(p)):
        raise ValueError("parameter vector entries must be finite")
    return p


def default_box(dimension: int) -> np.ndarray:
    """Per-coordinate closed interval bounds, ``[-DEFAULT_BOX_HALF_WIDTH,
    DEFAULT_BOX_HALF_WIDTH]`` each."""
    return np.tile([-DEFAULT_BOX_HALF_WIDTH, DEFAULT_BOX_HALF_WIDTH], (dimension, 1))


@dataclass(frozen=True)
class ParameterSplit:
    """Direct-sum decomposition of the coordinates into (x, y) index sets.

    The sets must be disjoint, each nonempty, and jointly cover
    ``{0, ..., M-1}``.
    """

    x_indices: tuple[int, ...]
    y_indices: tuple[int, ...]

    def __post_init__(self):
        x = tuple(int(i) for i in self.x_indices)
        y = tuple(int(i) for i in self.y_indices)
        object.__setattr__(self, "x_indices", x)
        object.__setattr__(self, "y_indices", y)
        if not x or not y:
            raise ValueError("both index sets must be nonempty (n >= 1, m >= 1)")
        if set(x) & set(y):
            raise ValueError("x and y index sets must be disjoint")
        full = set(x) | set(y)
        if full != set(range(len(full))) or min(full) != 0:
            raise ValueError("index sets must jointly cover {0..M-1}")
        if len(x) != len(set(x)) or len(y) != len(set(y)):
            raise ValueError("index sets must not contain duplicates")
        # Index arrays for embed and the part/box helpers; not fields, so
        # equality, hashing and repr see only the index tuples.
        object.__setattr__(self, "_x", np.array(x, dtype=np.intp))
        object.__setattr__(self, "_y", np.array(y, dtype=np.intp))

    @property
    def n(self) -> int:
        return len(self.x_indices)

    @property
    def m(self) -> int:
        return len(self.y_indices)

    @property
    def dimension(self) -> int:
        return self.n + self.m

    @classmethod
    def single(cls, index: int, dimension: int) -> "ParameterSplit":
        """Split retaining one coordinate: x = {index}, y = all others."""
        rest = tuple(i for i in range(dimension) if i != index)
        return cls((index,), rest)

    def embed(self, x, y) -> np.ndarray:
        """Assemble a full parameter vector from its (x, y) parts."""
        p = np.empty(len(self._x) + len(self._y))
        p[self._x] = x
        p[self._y] = y
        return p

    def x_part(self, p) -> np.ndarray:
        return np.asarray(p, dtype=float)[self._x]

    def y_part(self, p) -> np.ndarray:
        return np.asarray(p, dtype=float)[self._y]

    def x_box(self, box) -> np.ndarray:
        return np.asarray(box, dtype=float)[self._x]

    def y_box(self, box) -> np.ndarray:
        return np.asarray(box, dtype=float)[self._y]


@dataclass(frozen=True)
class PartiallyLinearModel:
    """Sampled model ``sum_j y_j * phi_j(t; x) + psi(t; x)`` that is linear in y
    by construction.

    ``basis`` holds the J basis maps ``phi_j(t, x)``; ``offset`` is the
    optional map ``psi(t, x)``. The linear coefficients occupy the trailing
    coordinates: x = p[:nonlinear_dim], y = p[nonlinear_dim:]. At least J
    samples are required so the linear sub-problem is square or
    overdetermined.

    By default each map is called once per sample, with a scalar t. With
    ``vectorized`` set, each map is called once with the whole sample
    vector ``t`` and must return the array of its values at every sample,
    ``fn(t, x)[k] == fn(t[k], x)``; one call then fills one column of Phi.
    A vectorized map also serves a stack of N x rows in one call: it gets
    the (n, N, 1) array ``x_stack.T[:, :, None]``, so ``x[i]`` is a column
    of N values, and must return values that broadcast to (N, T), with
    ``fn(t, x_stack.T[:, :, None])[r] == fn(t, x_stack[r])``. Problem files
    build their terms that way. The offset map is called the same way.
    """

    basis: tuple[Callable[[float, np.ndarray], float], ...]
    t: np.ndarray
    d: np.ndarray
    nonlinear_dim: int
    offset: Callable[[float, np.ndarray], float] | None = None
    vectorized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))
        if self.nonlinear_dim < 1:
            raise ValueError("at least one nonlinear parameter is required (n >= 1)")
        if len(self.basis) < 1:
            raise ValueError("at least one basis map is required")
        if self.t.shape != self.d.shape or self.t.ndim != 1:
            raise ValueError("samples t and d must be 1-D arrays of equal length")
        if self.t.size < len(self.basis):
            raise ValueError(
                f"{self.t.size} samples cannot determine {len(self.basis)} "
                "linear coefficients"
            )

    @property
    def linear_dim(self) -> int:
        return len(self.basis)

    @property
    def dimension(self) -> int:
        return self.nonlinear_dim + self.linear_dim

    def design_matrix(self, x) -> np.ndarray:
        """Matrix ``Phi[k, j] = phi_j(t_k; x)``; a stack of x rows, shape
        (N, n), gives the stack of their matrices, shape (N, T, J)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return self._matrix(x)
        phi = np.empty((len(x), self.t.size, self.linear_dim))
        if self.vectorized:
            columns = x.T[:, :, None]
            for j, fn in enumerate(self.basis):
                phi[:, :, j] = fn(self.t, columns)
        else:
            for r, row in enumerate(x):
                phi[r] = self._matrix(row)
        return phi

    def _matrix(self, x) -> np.ndarray:
        phi = np.empty((self.t.size, self.linear_dim))
        if self.vectorized:
            for j, fn in enumerate(self.basis):
                phi[:, j] = fn(self.t, x)
        else:
            ts = list(self.t)
            for j, fn in enumerate(self.basis):
                phi[:, j] = [fn(tk, x) for tk in ts]
        return phi

    def offsets(self, x) -> np.ndarray:
        """Offsets ``psi(t_k; x)``; a stack of x rows, shape (N, n), gives
        the stack of their offsets, shape (N, T)."""
        x = np.asarray(x, dtype=float)
        shape = x.shape[:-1] + self.t.shape
        if self.offset is None:
            return np.zeros(shape)
        if x.ndim == 1:
            return self._offsets(x)
        if self.vectorized:
            return np.broadcast_to(self.offset(self.t, x.T[:, :, None]), shape).astype(float)
        return np.array([self._offsets(row) for row in x])

    def _offsets(self, x) -> np.ndarray:
        if self.vectorized:
            return np.asarray(self.offset(self.t, x), dtype=float)
        return np.array([self.offset(tk, x) for tk in self.t])

    def residuals(self, x, y) -> np.ndarray:
        return self.design_matrix(x) @ np.asarray(y, dtype=float) + self.offsets(x) - self.d

    def value(self, x, y) -> float:
        r = self.residuals(x, y)
        return float(r @ r)


class MeritFunction:
    """Evaluatable scalar field F: R^M -> [0, inf) on a finite domain box.

    ``evaluate`` must be deterministic and pure; concurrent evaluation is
    safe. The point ``p`` it is handed may be a view or a buffer that the
    caller overwrites after the call (the finite-difference stencils and
    the Newton slices reuse one per row), so a merit must not keep a
    reference to it. ``structure`` tags how the value is assembled:
    ``general``, ``residual`` (F = sum of squared residual maps) or
    ``partially_linear`` (built from a :class:`PartiallyLinearModel`). Closed-form ``gradient``
    and ``hessian`` callables, when present, serve as verification oracles;
    the solvers themselves differentiate numerically.

    A ``partially_linear`` merit's value at ``p`` is its model's
    ``value(p[:n], p[n:])``, n the model's ``nonlinear_dim``, as
    :func:`build_partially_linear` makes it. The solvers rely on this: the
    closed-form eliminated-block Hessian ``2 Phi^T Phi`` and the linear
    slice values are taken from the model without evaluating the merit.
    """

    def __init__(
        self,
        dimension: int,
        evaluate: Callable[[np.ndarray], float],
        structure: str = STRUCTURE_GENERAL,
        domain_box=None,
        residuals: Sequence[Callable[[np.ndarray], float]] | None = None,
        model: PartiallyLinearModel | None = None,
        gradient: Callable[[np.ndarray], np.ndarray] | None = None,
        hessian: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str | None = None,
    ):
        if dimension < 2:
            raise ValueError("merit functions require dimension M >= 2")
        if structure not in (STRUCTURE_GENERAL, STRUCTURE_RESIDUAL, STRUCTURE_PARTIALLY_LINEAR):
            raise ValueError(f"unknown structure tag {structure!r}")
        self.dimension = int(dimension)
        self._evaluate = evaluate
        self.structure = structure
        self.domain_box = (
            default_box(dimension) if domain_box is None else np.asarray(domain_box, dtype=float)
        )
        if self.domain_box.shape != (dimension, 2):
            raise ValueError("domain box must have shape (M, 2)")
        if np.any(self.domain_box[:, 0] >= self.domain_box[:, 1]):
            raise ValueError("domain box intervals must be nondegenerate")
        self.residuals = tuple(residuals) if residuals is not None else None
        self.model = model
        self.gradient = gradient
        self.hessian = hessian
        self.name = name

    def __call__(self, p) -> float:
        """F at ``p``, handed to ``evaluate`` as ``np.asarray(p, dtype=float)``:
        a float64 ``ndarray`` (of that class, native byte order) as it is,
        since that conversion would return it unchanged, and any other
        input converted."""
        if p.__class__ is not np.ndarray or p.dtype is not _FLOAT64:
            p = np.asarray(p, dtype=float)
        return float(self._evaluate(p))

    def contains(self, p) -> bool:
        """Whether ``p`` lies in the domain box, padded by 1e-12 of each
        coordinate's scale."""
        p = np.asarray(p, dtype=float)
        pad = 1e-12 * np.maximum(1.0, np.abs(self.domain_box).max(axis=1))
        return bool(
            np.all(p >= self.domain_box[:, 0] - pad) and np.all(p <= self.domain_box[:, 1] + pad)
        )

    def __repr__(self):
        tag = self.name or "<anonymous>"
        return f"MeritFunction({tag}, M={self.dimension}, structure={self.structure})"


def build_residual_merit(residuals, dimension: int, box=None, name=None, gradient=None,
                         hessian=None) -> MeritFunction:
    """Merit function from residual maps: ``F(p) = sum_k r_k(p)^2``.

    The squares are added left to right in one plain loop, which for
    residuals returning numpy scalars is bitwise
    ``sum(r(p) ** 2 for r in residuals)``. Each square keeps the residual's
    own type, so a numpy residual that overflows gives ``inf`` with a
    ``RuntimeWarning`` rather than an ``OverflowError``.
    """
    residuals = tuple(residuals)
    if not residuals:
        raise ValueError("at least one residual map is required")
    if dimension < 2:
        raise ValueError("merit functions require dimension M >= 2")
    first, rest = residuals[0], residuals[1:]

    def evaluate(p):
        # starting from the first square skips sum's ``0 +``, which leaves a
        # square (never -0.0) unchanged
        total = first(p) ** 2
        for r in rest:
            total += r(p) ** 2
        return total

    return MeritFunction(
        dimension,
        evaluate,
        structure=STRUCTURE_RESIDUAL,
        domain_box=box,
        residuals=residuals,
        gradient=gradient,
        hessian=hessian,
        name=name,
    )


def build_partially_linear(model: PartiallyLinearModel, box=None, name=None,
                           gradient=None, hessian=None) -> MeritFunction:
    """Merit function from a partially linear model.

    ``F(x, y) = sum_k (sum_j y_j phi_j(t_k; x) + psi(t_k; x) - d_k)^2``; the
    second-derivative block in y equals ``2 Phi^T Phi`` and is independent
    of y.
    """
    if not isinstance(model, PartiallyLinearModel):
        raise TypeError("expected a PartiallyLinearModel")
    n = model.nonlinear_dim

    def evaluate(p):
        return model.value(p[:n], p[n:])

    return MeritFunction(
        model.dimension,
        evaluate,
        structure=STRUCTURE_PARTIALLY_LINEAR,
        domain_box=box,
        model=model,
        gradient=gradient,
        hessian=hessian,
        name=name,
    )


def model_split(merit: MeritFunction) -> ParameterSplit:
    """Canonical split of a partially linear merit: x = nonlinear, y = linear."""
    if merit.structure != STRUCTURE_PARTIALLY_LINEAR or merit.model is None:
        raise ValueError("merit function is not partially linear")
    n = merit.model.nonlinear_dim
    return ParameterSplit(tuple(range(n)), tuple(range(n, merit.dimension)))


def linear_elimination_applies(merit, split: ParameterSplit) -> bool:
    """True when the split matches a partially linear merit's nonlinear/linear
    layout. Plain callables never qualify."""
    if getattr(merit, "structure", None) != STRUCTURE_PARTIALLY_LINEAR or merit.model is None:
        return False
    n = merit.model.nonlinear_dim
    return split.x_indices == tuple(range(n)) and split.y_indices == tuple(
        range(n, merit.dimension)
    )


@dataclass(frozen=True)
class ProblemCatalogEntry:
    """Named test problem with ground-truth metadata.

    ``known_minima`` lists all isolated minimizers (empty for valley
    problems); ``known_implicit`` is the closed-form eliminated coordinate
    ``y = g(x)`` for the canonical split x = {0}, when one exists.
    """

    name: str
    merit: MeritFunction
    convexity_class: str
    known_minima: tuple[np.ndarray, ...] = ()
    known_implicit: Callable[[float], float] | None = None

    def __post_init__(self):
        if self.convexity_class not in CONVEXITY_CLASSES:
            raise ValueError(f"unknown convexity class {self.convexity_class!r}")
        object.__setattr__(
            self,
            "known_minima",
            tuple(as_parameter_vector(p, self.merit.dimension) for p in self.known_minima),
        )

    @property
    def known_minimum(self) -> np.ndarray | None:
        """The unique known minimizer, or None when absent or not unique."""
        if len(self.known_minima) == 1:
            return self.known_minima[0]
        return None


# --- catalog fixtures -------------------------------------------------------

EXP_FIT_T = np.arange(10.0)
EXP_FIT_RATE = -0.5
EXP_FIT_AMPLITUDE = 2.0
EXP_FIT_DATA = EXP_FIT_AMPLITUDE * np.exp(EXP_FIT_RATE * EXP_FIT_T)


def _quad_entry():
    merit = build_residual_merit(
        (lambda p: p[0], lambda p: p[1]),
        2,
        name="QUAD",
        gradient=lambda p: np.array([2.0 * p[0], 2.0 * p[1]]),
        hessian=lambda p: np.diag([2.0, 2.0]),
    )
    return ProblemCatalogEntry(
        name="QUAD",
        merit=merit,
        convexity_class="strictly_convex",
        known_minima=(np.zeros(2),),
        known_implicit=lambda x: 0.0,
    )


def _sine_valley_entry():
    def grad(p):
        x, y = p
        return np.array(
            [2.0 * x - 2.0 * (y - math.sin(x)) * math.cos(x), 2.0 * (y - math.sin(x))]
        )

    def hess(p):
        x, y = p
        s, c = math.sin(x), math.cos(x)
        return np.array(
            [[2.0 + 2.0 * c * c + 2.0 * (y - s) * s, -2.0 * c], [-2.0 * c, 2.0]]
        )

    merit = build_residual_merit(
        (lambda p: p[0], lambda p: p[1] - math.sin(p[0])),
        2,
        name="SINE_VALLEY",
        gradient=grad,
        hessian=hess,
    )
    return ProblemCatalogEntry(
        name="SINE_VALLEY",
        merit=merit,
        convexity_class="convex_in_y",
        known_minima=(np.zeros(2),),
        known_implicit=math.sin,
    )


def _two_wells_entry():
    def grad(p):
        x, y = p
        return np.array([4.0 * x * (x * x - 1.0) - 2.0 * (y - x), 2.0 * (y - x)])

    def hess(p):
        x, _ = p
        return np.array([[12.0 * x * x - 4.0 + 2.0, -2.0], [-2.0, 2.0]])

    merit = build_residual_merit(
        (lambda p: p[0] ** 2 - 1.0, lambda p: p[1] - p[0]),
        2,
        name="TWO_WELLS",
        gradient=grad,
        hessian=hess,
    )
    return ProblemCatalogEntry(
        name="TWO_WELLS",
        merit=merit,
        convexity_class="two_minima",
        known_minima=(np.array([1.0, 1.0]), np.array([-1.0, -1.0])),
        known_implicit=lambda x: x,
    )


def _degen_line_entry():
    merit = build_residual_merit(
        (lambda p: p[0] + p[1] - 2.0,),
        2,
        name="DEGEN_LINE",
        gradient=lambda p: np.array(
            [2.0 * (p[0] + p[1] - 2.0), 2.0 * (p[0] + p[1] - 2.0)]
        ),
        hessian=lambda p: np.array([[2.0, 2.0], [2.0, 2.0]]),
    )
    return ProblemCatalogEntry(
        name="DEGEN_LINE",
        merit=merit,
        convexity_class="degenerate_valley",
        known_minima=(),
        known_implicit=lambda x: 2.0 - x,
    )


def _exp_fit_entry():
    t, d = EXP_FIT_T, EXP_FIT_DATA

    def grad(p):
        x, y = p
        e = np.exp(x * t)
        r = y * e - d
        return np.array([float(np.sum(2.0 * r * y * t * e)), float(np.sum(2.0 * r * e))])

    def hess(p):
        x, y = p
        e = np.exp(x * t)
        r = y * e - d
        fxx = float(np.sum(2.0 * y * t * t * e * (y * e + r)))
        fxy = float(np.sum(2.0 * t * e * (r + y * e)))
        fyy = float(np.sum(2.0 * e * e))
        return np.array([[fxx, fxy], [fxy, fyy]])

    model = PartiallyLinearModel(
        basis=(lambda tk, x: math.exp(x[0] * tk),),
        t=t,
        d=d,
        nonlinear_dim=1,
    )
    merit = build_partially_linear(
        model,
        box=np.array([[-2.0, 0.5], [-5.0, 5.0]]),
        name="EXP_FIT",
        gradient=grad,
        hessian=hess,
    )

    def implicit(x):
        e = np.exp(x * t)
        return float((d @ e) / (e @ e))

    return ProblemCatalogEntry(
        name="EXP_FIT",
        merit=merit,
        convexity_class="convex_in_y",
        known_minima=(np.array([EXP_FIT_RATE, EXP_FIT_AMPLITUDE]),),
        known_implicit=implicit,
    )


def _neg_y_entry():
    # Deliberate counterexample: concave in y, used to exercise refusals.
    merit = MeritFunction(
        2,
        lambda p: float(p[0] ** 2 - p[1] ** 2),
        structure=STRUCTURE_GENERAL,
        name="NEG_Y",
        gradient=lambda p: np.array([2.0 * p[0], -2.0 * p[1]]),
        hessian=lambda p: np.diag([2.0, -2.0]),
    )
    return ProblemCatalogEntry(
        name="NEG_Y",
        merit=merit,
        convexity_class="nonconvex_in_y",
        known_minima=(),
        known_implicit=None,
    )


#: The catalog's entry builders by entry name, in catalog order.
_BUILDERS = {
    "QUAD": _quad_entry,
    "SINE_VALLEY": _sine_valley_entry,
    "TWO_WELLS": _two_wells_entry,
    "DEGEN_LINE": _degen_line_entry,
    "EXP_FIT": _exp_fit_entry,
    "NEG_Y": _neg_y_entry,
}


def catalog() -> tuple[ProblemCatalogEntry, ...]:
    """Built-in problem fixtures. Immutable; entries are rebuilt per call."""
    return tuple(build() for build in _BUILDERS.values())


def get_problem(name: str) -> ProblemCatalogEntry:
    """The catalog entry ``name``, built anew; only that entry is built."""
    for key, build in _BUILDERS.items():
        if key == name:
            return build()
    known = ", ".join(_BUILDERS)
    raise KeyError(f"unknown catalog problem {name!r}; known: {known}")


def random_quadratic_problem(
    dimension: int,
    nonlinear_dim: int,
    rng: np.random.Generator,
) -> ProblemCatalogEntry:
    """Random positive-definite quadratic least-squares problem.

    Built as a partially linear model (basis maps constant in x, offset
    linear in x) so the eliminated block admits exact linear
    sub-minimization: residuals are ``L (p - p_star)`` plus one constant
    residual row, giving ``F(p) = (p - p_star)^T L^T L (p - p_star) + c^2``,
    where ``L^T L`` has eigenvalues drawn uniformly from [0.8, 3].
    """
    if not 1 <= nonlinear_dim < dimension:
        raise ValueError("need 1 <= nonlinear_dim < dimension")
    eigs = rng.uniform(0.8, 3.0, size=dimension)
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    a = (q * eigs) @ q.T
    a = 0.5 * (a + a.T)
    chol = np.linalg.cholesky(a)
    p_star = rng.uniform(-3.0, 3.0, size=dimension)
    c = float(rng.uniform(0.0, 5.0))

    rows = np.zeros((dimension + 1, dimension))
    rows[:dimension] = chol.T  # a = chol @ chol.T, so rows^T rows = a
    v = rows[:dimension] @ p_star
    d = np.concatenate([v, [-c]])
    n = nonlinear_dim

    def make_basis(col):
        def phi(tk, x):
            return float(rows[int(tk), col])

        return phi

    def offset(tk, x):
        return float(rows[int(tk), :n] @ x)

    model = PartiallyLinearModel(
        basis=tuple(make_basis(n + j) for j in range(dimension - n)),
        t=np.arange(dimension + 1, dtype=float),
        d=d,
        nonlinear_dim=n,
        offset=offset,
    )
    merit = build_partially_linear(
        model,
        name=f"RANDOM_QUAD_{dimension}D",
        gradient=lambda p: 2.0 * (a @ (p - p_star)),
        hessian=lambda p: 2.0 * a,
    )
    return ProblemCatalogEntry(
        name=merit.name,
        merit=merit,
        convexity_class="strictly_convex",
        known_minima=(p_star,),
    )
