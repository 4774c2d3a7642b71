"""Pinned merit-evaluation counts of the main entry points.

Evaluation counts are exact and machine-independent, so any change to the
slice solver, the outer loop, the grid scans or the probes that alters the
work done shows up here. A deliberate change updates the pinned number and
says why in CHANGES.md.
"""

import numpy as np
import pytest

import minsection as ms
from minsection.problems import MeritFunction


@pytest.fixture
def merit_calls(monkeypatch):
    """Count every ``MeritFunction.__call__`` made while the test runs."""
    calls = {"n": 0}
    original = MeritFunction.__call__

    def counting(self, p):
        calls["n"] += 1
        return original(self, p)

    monkeypatch.setattr(MeritFunction, "__call__", counting)
    return calls


def first_axis_grid(merit, points=41):
    lo, hi = merit.domain_box[0]
    return np.linspace(lo, hi, points)


@pytest.mark.parametrize(
    "name, evaluations",
    [
        pytest.param(name, evaluations, id=name)
        for name, evaluations in (
            ("QUAD", 1434), ("SINE_VALLEY", 1589), ("TWO_WELLS", 1555), ("EXP_FIT", 27)
        )
    ],
)
def test_solve_hierarchical_counts(entries, merit_calls, name, evaluations):
    merit = entries[name].merit
    split = ms.model_split(merit) if merit.model is not None else ms.ParameterSplit((0,), (1,))
    ms.solve_hierarchical(merit, split)
    assert merit_calls["n"] == evaluations


def test_trace_implicit_count(entries, split01, merit_calls):
    merit = entries["SINE_VALLEY"].merit
    ms.trace_implicit(merit, split01, first_axis_grid(merit))
    assert merit_calls["n"] == 490


def test_minimal_section_count(entries, merit_calls):
    merit = entries["TWO_WELLS"].merit
    ms.minimal_section_1d(merit, 0, first_axis_grid(merit))
    assert merit_calls["n"] == 2709


def test_recover_from_anchor_count(entries, merit_calls):
    ms.recover_from_anchor(entries["SINE_VALLEY"].merit, 0, 0.3)
    assert merit_calls["n"] == 1333


def test_m3_general_solve_count(merit_calls):
    # Residuals (p0 - 0.3, p1 - sin p0, p2 - p0 p1): 3,969 of the evaluations
    # are the 441-node budgeted convexity probe (84,980 over the 21^3 grid).
    merit = ms.build_residual_merit(
        (lambda p: p[0] - 0.3, lambda p: p[1] - np.sin(p[0]), lambda p: p[2] - p[0] * p[1]),
        3,
        box=np.array([[-2.0, 2.0]] * 3),
    )
    report = ms.solve_hierarchical(merit, ms.ParameterSplit((0,), (1, 2)))
    assert merit_calls["n"] == 4655
    assert report.certificates.convexity.plan == "halton"


def test_random_quadratic_cycling_counts(merit_calls):
    merit = ms.random_quadratic_problem(6, 3, np.random.default_rng(0)).merit
    report = ms.solve_hierarchical(merit, ms.model_split(merit))
    assert merit_calls["n"] == 121
    assert report.inner_solves == 67
    assert report.iterations == 6


def test_nesting_check_count(merit_calls):
    # The outer split matches the model, so its slices are eliminated
    # linearly (13,803 evaluations when every nesting slice used Newton).
    merit = ms.random_quadratic_problem(4, 2, np.random.default_rng(1)).merit
    grid = np.linspace(-1.0, 1.0, 5)
    report = ms.nesting_check(merit, ms.model_split(merit), (0,), grid, probe_density=3)
    assert merit_calls["n"] == 3043
    assert report.passed
