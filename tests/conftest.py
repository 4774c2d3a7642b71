import copy

import numpy as np
import pytest

import minsection as ms


def without_gradient(merit):
    """A copy of ``merit`` without its closed-form gradient, so the outer
    stage, the final certificate and the census take central differences."""
    merit = copy.copy(merit)
    merit.gradient = None
    return merit


def without_hessian(merit):
    """A copy of ``merit`` without its closed-form Hessian, so the
    convexity probes and the census take central second differences."""
    merit = copy.copy(merit)
    merit.hessian = None
    return merit


def differenced(merit):
    """A copy of ``merit`` without its closed-form gradient and Hessian,
    whose census takes central differences only."""
    return without_gradient(without_hessian(merit))


@pytest.fixture(scope="session")
def entries():
    return {e.name: e for e in ms.catalog()}


@pytest.fixture(scope="session")
def split01():
    return ms.ParameterSplit((0,), (1,))


@pytest.fixture(scope="session")
def aniso3():
    """Anisotropic positive-definite 3-D quadratic built from residual rows
    of a Cholesky factor, with the matrix kept alongside for oracles."""
    a = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    rows = np.linalg.cholesky(a).T
    residuals = [lambda p, r=rows[k]: float(r @ p) for k in range(3)]
    merit = ms.build_residual_merit(
        residuals,
        3,
        name="ANISO3",
        gradient=lambda p: 2.0 * (a @ p),
        hessian=lambda p: 2.0 * a,
    )
    return merit, a


@pytest.fixture(scope="session")
def quad3():
    merit = ms.build_residual_merit(
        (lambda p: p[0], lambda p: p[1], lambda p: p[2]),
        3,
        name="QUAD3",
        gradient=lambda p: 2.0 * p,
        hessian=lambda p: 2.0 * np.eye(3),
    )
    return merit


def schur_partial_min(a, keep, drop, u):
    """Oracle: min over the dropped coordinates of p^T a p at fixed kept u."""
    keep = list(keep)
    drop = list(drop)
    s = a[np.ix_(keep, keep)] - a[np.ix_(keep, drop)] @ np.linalg.solve(
        a[np.ix_(drop, drop)], a[np.ix_(drop, keep)]
    )
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return float(u @ s @ u)
