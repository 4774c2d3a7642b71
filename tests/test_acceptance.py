"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import contextlib
import itertools
import math
import time

import numpy as np
import pytest

import minsection as ms
from minsection.subminimize import INNER_TOL_FACTOR, SliceProblem
from tests.conftest import schur_partial_min


@contextlib.contextmanager
def criterion(num, label, limit_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {label}")
        raise
    elapsed = time.perf_counter() - start
    if limit_s is not None:
        assert elapsed <= limit_s, f"criterion {num} took {elapsed:.2f}s > {limit_s}s"
    print(f"\n[PASS] criterion {num}: {label} ({elapsed:.2f}s)")


def _check_pair(merit, split, start, dist_tol=1e-6):
    hier = ms.solve_hierarchical(merit, split)
    direct = ms.solve_direct(merit, start)
    dist = float(np.max(np.abs(hier.minimizer - direct.minimizer)))
    gap = abs(hier.value - direct.value)
    assert dist <= dist_tol, f"distance {dist:.3e}"
    assert gap <= 1e-10 * max(1.0, abs(hier.value)), f"value gap {gap:.3e}"


def test_criterion_1_hierarchical_equals_direct(entries):
    with criterion(1, "hierarchical matches direct on catalog + random quadratics", 30.0):
        _check_pair(entries["QUAD"].merit, ms.ParameterSplit((0,), (1,)), np.array([3.0, -4.0]))
        _check_pair(
            entries["SINE_VALLEY"].merit, ms.ParameterSplit((0,), (1,)), np.array([1.0, 1.0])
        )
        _check_pair(
            entries["EXP_FIT"].merit, ms.ParameterSplit((0,), (1,)), np.array([-0.75, 0.0])
        )
        rng = np.random.default_rng(20240817)
        dims = [2, 3, 4, 5] * 5
        for dim in dims:
            n = 1 if dim <= 3 else 2
            entry = ms.random_quadratic_problem(dim, n, rng)
            split = ms.ParameterSplit(tuple(range(n)), tuple(range(n, dim)))
            _check_pair(entry.merit, split, np.zeros(dim))


def test_criterion_2_implicit_graph_contract(entries):
    with criterion(2, "implicit-graph trace reproduces the closed form", 1.0):
        grid = np.linspace(-math.pi, math.pi, 101)
        trace = ms.trace_implicit(entries["SINE_VALLEY"].merit, ms.ParameterSplit((0,), (1,)), grid)
        assert np.max(np.abs(trace.g_values[:, 0] - np.sin(grid))) <= 1e-8
        assert np.all(trace.residual_norms <= trace.inner_tols)


def test_criterion_3_linear_elimination(entries):
    with criterion(3, "linear elimination + 1D bracketing solves the exponential fit", 2.0):
        merit = entries["EXP_FIT"].merit
        split = ms.ParameterSplit((0,), (1,))
        report = ms.solve_hierarchical(merit, split)
        assert np.max(np.abs(report.minimizer - np.array([-0.5, 2.0]))) <= 1e-6
        # the outer stage only ever touches the nonlinear coordinate
        assert report.split.x_indices == (0,)
        assert 1 not in report.split.x_indices
        assert report.inner_method == "linear_elimination"
        # Newton inner solves from random starts agree with elimination
        rng = np.random.default_rng(7)
        problem = SliceProblem(merit, split, [-0.5])
        exact = ms.subminimize_linear(problem)
        for _ in range(10):
            y0 = rng.uniform(-5.0, 5.0, size=1)
            newton = ms.subminimize_newton(problem, y0=y0)
            assert abs(newton.y_star[0] - exact.y_star[0]) <= 1e-6


def test_criterion_4_nesting_lattice(aniso3):
    with criterion(4, "iterated minimal sections match the Schur-complement oracle", 5.0):
        merit, a = aniso3
        grid = np.linspace(-10.0, 10.0, 21)
        pairs = 0
        for outer_x in itertools.combinations(range(3), 2):
            y = tuple(i for i in range(3) if i not in outer_x)
            outer = ms.ParameterSplit(outer_x, y)
            for inner in outer_x:
                report = ms.nesting_check(merit, outer, (inner,), grid, probe_density=5)
                assert report.passed
                drop = [i for i in range(3) if i != inner]
                oracle = np.array([schur_partial_min(a, [inner], drop, u) for u in grid])
                assert np.max(np.abs(report.iterated_values - oracle)) <= 1e-6
                assert np.max(np.abs(report.inner_values - oracle)) <= 1e-6
                pairs += 1
        assert pairs == 6


def test_criterion_5_sublevel_projection_intervals(entries):
    with criterion(5, "sub-level projection intervals nest and collapse", 1.0):
        section = ms.minimal_section_1d(
            entries["QUAD"].merit, 0, np.linspace(-3.0, 3.0, 61)
        )
        expected = {4.0: 2.0, 1.0: 1.0, 0.25: 0.5, 0.0: 0.0}
        intervals = {}
        for z, edge in expected.items():
            iv = ms.sublevel_interval(section, z)
            assert iv.lo == pytest.approx(-edge, abs=1e-8)
            assert iv.hi == pytest.approx(edge, abs=1e-8)
            intervals[z] = iv
        for z_small, z_large in ((0.25, 1.0), (1.0, 4.0)):
            assert intervals[z_large].lo < intervals[z_small].lo
            assert intervals[z_small].hi < intervals[z_large].hi
        assert intervals[0.0].lo == intervals[0.0].hi


def test_criterion_6_morse_census(entries):
    with criterion(6, "index censuses and the alternating-sum equality", 10.0):
        quad_points = ms.find_critical_points(entries["QUAD"].merit, seed_density=9)
        quad_census = ms.morse_equality_audit(
            quad_points, ms.check_outward_gradient(entries["QUAD"].merit)
        )
        assert quad_census.counts == {0: 1}
        assert quad_census.alternating_sum == 1 and quad_census.passes

        tw_points = ms.find_critical_points(entries["TWO_WELLS"].merit, seed_density=9)
        tw_census = ms.morse_equality_audit(
            tw_points, ms.check_outward_gradient(entries["TWO_WELLS"].merit)
        )
        assert tw_census.counts == {0: 2, 1: 1}
        assert tw_census.alternating_sum == 1 and tw_census.passes

        degen_points = ms.find_critical_points(entries["DEGEN_LINE"].merit, seed_density=9)
        with pytest.raises(ms.DegenerateCriticalPointError, match="degenerate"):
            ms.morse_equality_audit(degen_points, True)


def test_criterion_7_two_minima_crossing(entries):
    with criterion(7, "double-well section reports both minima and the trace crosses them"):
        section = ms.minimal_section_1d(
            entries["TWO_WELLS"].merit, 0, np.linspace(-2.0, 2.0, 41)
        )
        assert len(section.minima_x) == 2
        assert sorted(section.minima_x) == pytest.approx([-1.0, 1.0], abs=1e-6)
        full_minima = [
            np.concatenate(([u], comp))
            for u, comp in zip(section.minima_x, section.minima_companions)
        ]
        for target in (np.array([1.0, 1.0]), np.array([-1.0, -1.0])):
            assert min(
                float(np.max(np.abs(p - target))) for p in full_minima
            ) <= 1e-6


def test_criterion_8_implicit_regularization(entries):
    with criterion(8, "anchor recovery on the degenerate valley and its perturbation"):
        recovery = ms.recover_from_anchor(entries["DEGEN_LINE"].merit, 0, 0.5)
        assert recovery.recovered[0] == 0.5
        assert abs(recovery.recovered[1] - 1.5) <= 1e-10

        perturbed = ms.build_residual_merit(
            (lambda p: p[0] + p[1] - 2.0, lambda p: 1e-4 * p[0]),
            2,
            name="DEGEN_LINE_PERTURBED",
        )
        rec = ms.recover_from_anchor(perturbed, 0, 0.5)
        tol = INNER_TOL_FACTOR * max(1.0, perturbed(np.array([0.5, 0.0])))
        assert rec.section_residual <= tol
        assert abs(rec.recovered[1] - 1.5) <= 1e-8


def test_criterion_9_numerics_hygiene(entries):
    with criterion(9, "finite differences match closed forms on every catalog entry"):
        rng = np.random.default_rng(424242)
        for entry in entries.values():
            merit = entry.merit
            box = merit.domain_box
            width = box[:, 1] - box[:, 0]
            lo = box[:, 0] + 0.05 * width
            hi = box[:, 1] - 0.05 * width
            for _ in range(100):
                p = rng.uniform(lo, hi)
                g_exact = merit.gradient(p)
                g_fd = ms.fd_gradient(merit, p)
                assert np.linalg.norm(g_fd - g_exact) <= 1e-5 * max(
                    1.0, float(np.linalg.norm(g_exact))
                ), entry.name
                h_exact = merit.hessian(p)
                h_fd = ms.fd_hessian(merit, p).hessian
                assert np.linalg.norm(h_fd - h_exact) <= 1e-5 * max(
                    1.0, float(np.linalg.norm(h_exact))
                ), entry.name


def test_criterion_10_refusal_correctness(entries):
    with criterion(10, "concave eliminated block refused with a witness"):
        with pytest.raises(ms.ConvexityError) as excinfo:
            ms.solve_hierarchical(entries["NEG_Y"].merit, ms.ParameterSplit((0,), (1,)))
        err = excinfo.value
        assert err.point is not None
        assert err.min_eig is not None and err.min_eig <= 0.0
        assert err.certificate is not None
        assert err.certificate.witness_min_eig <= 0.0
