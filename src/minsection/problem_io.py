"""Problem-definition files and observation data.

A problem file is UTF-8 JSON with the normative keys ``dimension``,
``split.x_indices``, ``split.y_indices``, ``domain_box``, ``model.kind``
(``catalog`` or ``partially_linear``), ``model.name`` or
``model.basis[]``/``model.offset``, and ``data_file``. Observation data is
CSV with header ``t,d``, comma separator, decimal point.

Basis and offset terms are declarative, drawn from a fixed expression set
so files stay reproducible without an expression interpreter:

    {"type": "polynomial", "degree": d}            -> t^d
    {"type": "exponential", "rate_index": i}       -> exp(x[i] * t)
    {"type": "sinusoid", "fn": "sin"|"cos",
     "frequency_index": i}                         -> sin/cos(x[i] * t)
    {"type": "constant"}                           -> 1

Offset terms additionally accept a fixed ``"scale"`` coefficient
(default 1.0). Index fields address the nonlinear sub-vector x. Each term
is one numpy expression over the whole sample vector t, so one call fills
one column of the design matrix; ``np.exp``, and ``t**d`` for d >= 2,
may differ from the scalar ``math`` result by one ulp. The merit of a
``partially_linear`` file carries the closed-form gradient of its model,
which the hierarchical solve differentiates by.
Code-supplied residual callables are available only through the library
interface.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import HESSIAN_STEP, _exact_step
from .problems import (
    MeritFunction,
    ParameterSplit,
    PartiallyLinearModel,
    ProblemCatalogEntry,
    build_partially_linear,
    default_box,
    get_problem,
)

__all__ = ["ProblemDefinition", "ProblemFileError", "load_data_csv", "load_problem_file"]


class ProblemFileError(ValueError):
    """A problem-definition or data file failed validation."""


@dataclass(frozen=True)
class ProblemDefinition:
    """A loaded problem: merit function, split, and provenance."""

    merit: MeritFunction
    split: ParameterSplit
    name: str
    entry: ProblemCatalogEntry | None = None


def load_data_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Observation pairs from a CSV file with header ``t,d``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ProblemFileError(f"cannot read data file {path}: {err}") from err
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ProblemFileError(f"data file {path} is empty")
    header = [cell.strip() for cell in lines[0].split(",")]
    if header != ["t", "d"]:
        raise ProblemFileError(
            f"data file {path} line 1: expected header 't,d', got {lines[0]!r}"
        )
    t_vals, d_vals = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 2:
            raise ProblemFileError(
                f"data file {path} line {lineno}: expected two comma-separated "
                f"values, got {line!r}"
            )
        try:
            t, d = float(cells[0]), float(cells[1])
        except ValueError as err:
            raise ProblemFileError(
                f"data file {path} line {lineno}: {err}"
            ) from err
        if not (math.isfinite(t) and math.isfinite(d)):
            raise ProblemFileError(
                f"data file {path} line {lineno}: values must be finite, got {line!r}"
            )
        t_vals.append(t)
        d_vals.append(d)
    return np.array(t_vals), np.array(d_vals)


def _is_int(value) -> bool:
    """Whether a JSON value is an integer: JSON booleans are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise ProblemFileError(f"missing field {where}.{key}" if where else f"missing field {key}")
    value = mapping[key]
    if kind is not None and not (_is_int(value) if kind is int else isinstance(value, kind)):
        label = f"{where}.{key}" if where else key
        raise ProblemFileError(f"field {label} has the wrong type")
    return value


def _build_term(term, n, where):
    """The term's map ``fn(t, x)`` and its x-derivative: ``(i, dfn)`` with
    ``dfn(t, x)`` the derivative of ``fn`` in ``x[i]``, or None for a term
    that does not depend on x."""
    if not isinstance(term, dict):
        raise ProblemFileError(f"field {where} must be an object")
    kind = _require(term, "type", str, where)
    scale = float(term.get("scale", 1.0))

    def check_index(key):
        idx = _require(term, key, int, where)
        if not 0 <= idx < n:
            raise ProblemFileError(
                f"field {where}.{key} = {idx} is out of range for {n} nonlinear "
                "parameter(s)"
            )
        return idx

    if kind == "polynomial":
        degree = _require(term, "degree", int, where)
        if degree < 0:
            raise ProblemFileError(f"field {where}.degree must be nonnegative")
        return (lambda t, x: scale * t**degree), None
    if kind == "exponential":
        idx = check_index("rate_index")
        return (lambda t, x: scale * np.exp(x[idx] * t)), (
            idx,
            lambda t, x: scale * t * np.exp(x[idx] * t),
        )
    if kind == "sinusoid":
        fn_name = _require(term, "fn", str, where)
        if fn_name not in ("sin", "cos"):
            raise ProblemFileError(f"field {where}.fn must be 'sin' or 'cos'")
        idx = check_index("frequency_index")
        fn = np.sin if fn_name == "sin" else np.cos
        # d sin(x t)/dx = t cos(x t) and d cos(x t)/dx = -t sin(x t)
        slope = scale if fn_name == "sin" else -scale
        dfn = np.cos if fn_name == "sin" else np.sin
        return (lambda t, x: scale * fn(x[idx] * t)), (
            idx,
            lambda t, x: slope * t * dfn(x[idx] * t),
        )
    if kind == "constant":
        return (lambda t, x: np.full(np.shape(t), scale)), None
    raise ProblemFileError(
        f"field {where}.type = {kind!r} is not in the supported expression set"
    )


def _model_gradient(model, basis_derivatives, offset_derivatives):
    """Closed-form gradient of the merit of a file's ``model``: with the
    residual r = Phi y + psi - d, ``g_y = 2 Phi^T r`` and ``g_x[i] = 2 r^T
    (sum_j y_j dphi_j/dx_i + sum_k dpsi_k/dx_i)``. ``basis_derivatives``
    and ``offset_derivatives`` hold each term's x-derivative as
    :func:`_build_term` returns it."""
    n, t = model.nonlinear_dim, model.t

    def gradient(p):
        p = np.asarray(p, dtype=float)
        x, y = p[:n], p[n:]
        phi = model.design_matrix(x)
        r = phi @ y + model.offsets(x) - model.d
        jac = np.zeros((n, t.size))  # dr/dx, one row per nonlinear parameter
        for j, derivative in enumerate(basis_derivatives):
            if derivative is not None:
                i, dfn = derivative
                jac[i] += y[j] * dfn(t, x)
        for derivative in offset_derivatives:
            if derivative is not None:
                i, dfn = derivative
                jac[i] += dfn(t, x)
        return np.concatenate([2.0 * (jac @ r), 2.0 * (phi.T @ r)])

    return gradient


def _require_finite(term, where, t, x_box):
    """Reject a term that overflows or is not finite somewhere on the box.

    Checking the corners of the nonlinear box covers all of it: exp(x t) is
    monotone in x for each t, sinusoids are bounded, and polynomial and
    constant terms do not depend on x. Each corner is one call on the whole
    sample vector; the first non-finite sample is reported.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for x in itertools.product(*x_box):
            finite = np.isfinite(term(t, x))
            if not finite.all():
                tk = float(t[np.argmin(finite)])
                raise ProblemFileError(
                    f"field {where} is not finite at t = {tk!r}, "
                    f"x = {[float(v) for v in x]} "
                    "(a corner of the nonlinear domain box)"
                )


def load_problem_file(path) -> ProblemDefinition:
    """Load and validate a problem-definition file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ProblemFileError(f"cannot read problem file {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ProblemFileError(
            f"problem file {path} line {err.lineno} column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ProblemFileError(f"problem file {path} must contain a JSON object")

    dimension = _require(doc, "dimension", int, "")
    if dimension < 2:
        raise ProblemFileError("field dimension must be at least 2")
    model = _require(doc, "model", dict, "")
    kind = _require(model, "kind", str, "model")

    split = None
    if "split" in doc:
        split_doc = _require(doc, "split", dict, "")
        x_idx = _require(split_doc, "x_indices", list, "split")
        y_idx = _require(split_doc, "y_indices", list, "split")
        for key, indices in (("x_indices", x_idx), ("y_indices", y_idx)):
            if not all(map(_is_int, indices)):
                raise ProblemFileError(f"field split.{key} must list integers, got {indices!r}")
        try:
            split = ParameterSplit(tuple(x_idx), tuple(y_idx))
        except ValueError as err:
            raise ProblemFileError(f"field split: {err}") from err
        if split.dimension != dimension:
            raise ProblemFileError(
                f"field split covers {split.dimension} coordinates, dimension is {dimension}"
            )

    box = None
    if "domain_box" in doc:
        raw = _require(doc, "domain_box", list, "")
        box = np.asarray(raw, dtype=float)
        if box.shape != (dimension, 2) or np.any(box[:, 0] >= box[:, 1]):
            raise ProblemFileError(
                "field domain_box must hold one nondegenerate [lo, hi] pair per coordinate"
            )
        for i, (lo, hi) in enumerate(box.tolist()):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ProblemFileError(
                    f"field domain_box has a non-finite bound along coordinate {i}: "
                    f"[{lo!r}, {hi!r}]"
                )
            # the widest finite-difference stencil in [lo, hi]: four
            # second-difference steps, the step taken at either bound
            width = 4.0 * max(_exact_step(v, HESSIAN_STEP * max(1.0, abs(v))) for v in (lo, hi))
            if hi - lo < width:
                raise ProblemFileError(
                    f"field domain_box is thinner along coordinate {i} than the "
                    f"finite-difference stencil, {width!r} wide there"
                )

    if kind == "catalog":
        name = _require(model, "name", str, "model")
        try:
            entry = get_problem(name)
        except KeyError as err:
            raise ProblemFileError(f"field model.name: {err.args[0]}") from err
        merit = entry.merit
        if merit.dimension != dimension:
            raise ProblemFileError(
                f"catalog problem {name} has dimension {merit.dimension}, file says {dimension}"
            )
        if box is not None:
            # Keep the catalog evaluator so each evaluation is one counted call.
            merit = copy.copy(merit)
            merit.domain_box = box
        if split is None:
            split = ParameterSplit((0,), tuple(range(1, dimension)))
        return ProblemDefinition(merit=merit, split=split, name=name, entry=entry)

    if kind == "partially_linear":
        basis_specs = _require(model, "basis", list, "model")
        if not basis_specs:
            raise ProblemFileError("field model.basis must list at least one term")
        data_file = _require(doc, "data_file", str, "")
        data_path = Path(data_file)
        if not data_path.is_absolute():
            data_path = path.parent / data_path
        t, d = load_data_csv(data_path)
        j = len(basis_specs)
        n = dimension - j
        if n < 1:
            raise ProblemFileError(
                f"{j} basis terms leave no nonlinear parameter in dimension {dimension}"
            )
        x_box = (default_box(dimension) if box is None else box)[:n]
        basis, basis_derivatives = zip(
            *(_build_term(spec, n, f"model.basis[{i}]") for i, spec in enumerate(basis_specs))
        )
        for i, term in enumerate(basis):
            _require_finite(term, f"model.basis[{i}]", t, x_box)
        offset = None
        offset_derivatives = ()
        # [] is no offset; any other value that is not a list is refused
        offset_specs = _require(model, "offset", list, "model") if "offset" in model else []
        if offset_specs:
            terms, offset_derivatives = zip(
                *(_build_term(spec, n, f"model.offset[{i}]") for i, spec in enumerate(offset_specs))
            )
            for i, term in enumerate(terms):
                _require_finite(term, f"model.offset[{i}]", t, x_box)
            offset = lambda t_, x: sum(term(t_, x) for term in terms)
        try:
            plm = PartiallyLinearModel(
                basis=basis, t=t, d=d, nonlinear_dim=n, offset=offset, vectorized=True
            )
        except ValueError as err:
            raise ProblemFileError(f"field model: {err}") from err
        merit = build_partially_linear(
            plm,
            box=box,
            name=path.stem,
            gradient=_model_gradient(plm, basis_derivatives, offset_derivatives),
        )
        if split is None:
            split = ParameterSplit(tuple(range(n)), tuple(range(n, dimension)))
        return ProblemDefinition(merit=merit, split=split, name=path.stem)

    raise ProblemFileError(
        f"field model.kind = {kind!r}; expected 'catalog' or 'partially_linear'"
    )
