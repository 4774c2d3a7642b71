import itertools
import math

import numpy as np
import pytest

import minsection as ms
from tests.conftest import schur_partial_min


def test_trace_sine_valley(entries, split01):
    grid = np.linspace(-math.pi, math.pi, 101)
    trace = ms.trace_implicit(entries["SINE_VALLEY"].merit, split01, grid)
    assert np.max(np.abs(trace.g_values[:, 0] - np.sin(grid))) <= 1e-8
    assert np.all(trace.residual_norms <= trace.inner_tols)
    assert trace.index_constant
    assert np.all(trace.y_index_along_trace == 0)


def kepler_anomaly(x, e):
    """The root y of Kepler's equation y - e sin y = x, by bisection on
    [-1, 2 pi + 1] with ``math`` alone, until the bracket stops shrinking."""
    lo, hi = -1.0, 2.0 * math.pi + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mid - e * math.sin(mid) - x < 0.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("e", [0.1, 0.5, 0.9, 0.99])
def test_trace_solves_keplers_equation(e):
    # The paper's construction: the inner equation f = y - e sin y - x = 0
    # is dF/dy = 0 of F = y^2 / 2 + e cos y - x y, convex in y with
    # d2F/dy2 = 1 - e cos y >= 1 - e, so its traced minimum y*(x) is the
    # eccentric anomaly at mean anomaly x
    merit = ms.MeritFunction(
        2,
        lambda p: p[1] ** 2 / 2.0 + e * math.cos(p[1]) - p[0] * p[1],
        domain_box=[[0.0, 2.0 * math.pi], [-1.0, 2.0 * math.pi + 1.0]],
    )
    split = ms.ParameterSplit((0,), (1,))
    assert ms.probe_y_convexity(merit, split).positive
    trace = ms.trace_implicit(merit, split, np.linspace(0.0, 2.0 * math.pi, 41))
    assert np.all(trace.residual_norms <= trace.inner_tols)
    for x, y, residual, tol in zip(
        trace.x_samples[:, 0], trace.g_values[:, 0], trace.residual_norms, trace.inner_tols
    ):
        f = abs(y - e * math.sin(y) - x)
        # the recorded residual is f's central difference, whose error
        # (h^2 e / 6 plus rounding, h <= 5e-5) is below 1e-9
        assert abs(f - residual) <= 1e-9
        # |f'| >= 1 - e, so y lies within f / (1 - e) of the root
        assert abs(y - kepler_anomaly(x, e)) <= (tol + 1e-9) / (1.0 - e)


def test_trace_two_wells_crosses_both_minima(entries, split01):
    grid = np.linspace(-2.0, 2.0, 41)
    trace = ms.trace_implicit(entries["TWO_WELLS"].merit, split01, grid)
    assert np.max(np.abs(trace.g_values[:, 0] - grid)) <= 1e-8
    points = trace.points()
    for target in ([1.0, 1.0], [-1.0, -1.0]):
        dists = np.max(np.abs(points - np.asarray(target)), axis=1)
        assert dists.min() <= 1e-8


def test_trace_degen_line_valley_floor(entries, split01):
    grid = np.linspace(-5.0, 5.0, 21)
    trace = ms.trace_implicit(entries["DEGEN_LINE"].merit, split01, grid)
    assert np.max(np.abs(trace.g_values[:, 0] - (2.0 - grid))) <= 1e-7
    assert np.max(trace.values) <= 1e-12


def test_trace_zero_set_contract(entries, split01):
    # every traced point satisfies the vanishing-derivative condition,
    # re-checked through an independent FD evaluation
    merit = entries["EXP_FIT"].merit
    grid = np.linspace(-1.5, 0.4, 25)
    trace = ms.trace_implicit(merit, split01, grid)
    from minsection.subminimize import SliceProblem

    for j in range(grid.size):
        problem = SliceProblem(merit, split01, trace.x_samples[j])
        grad = ms.fd_gradient(problem.value, trace.g_values[j], box=problem.y_box())
        assert np.linalg.norm(grad) <= 10.0 * trace.inner_tols[j]


def test_trace_reports_failing_x(entries, split01):
    with pytest.raises(ms.TraceError) as excinfo:
        ms.trace_implicit(entries["NEG_Y"].merit, split01, np.linspace(-1, 1, 5))
    assert excinfo.value.x_failed is not None


def test_section_quad_is_parabola(entries):
    grid = np.linspace(-3.0, 3.0, 25)
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, grid)
    assert np.allclose(section.values, grid**2, atol=1e-12)
    assert section.minima_x == pytest.approx((0.0,), abs=1e-8)
    assert len(section.local_minima) == 1


def test_section_two_wells_two_minima(entries):
    grid = np.linspace(-2.0, 2.0, 41)
    section = ms.minimal_section_1d(entries["TWO_WELLS"].merit, 0, grid)
    assert np.allclose(section.values, (grid**2 - 1.0) ** 2, atol=1e-10)
    assert len(section.minima_x) == 2
    assert sorted(section.minima_x) == pytest.approx([-1.0, 1.0], abs=1e-6)
    for u, companions in zip(section.minima_x, section.minima_companions):
        assert companions[0] == pytest.approx(u, abs=1e-6)


def test_section_sine_valley_second_parameter_brute_force(entries):
    # the complementary split is not convex, so each slice falls back to a
    # scan; oracle is a dense brute-force grid over the eliminated axis
    merit = entries["SINE_VALLEY"].merit
    grid = np.linspace(-3.0, 3.0, 13)
    section = ms.minimal_section_1d(merit, 1, grid)
    assert not section.certificate.positive
    dense = np.linspace(-10.0, 10.0, 20001)
    for j, y in enumerate(grid):
        oracle = np.min(dense**2 + (y - np.sin(dense)) ** 2)
        assert section.values[j] <= oracle + 1e-9
        assert abs(section.values[j] - oracle) <= 1e-5
    mid = np.flatnonzero(grid == 0.0)[0]
    assert section.values[mid] <= 1e-12


def test_section_refuses_nonconvex_multidimensional_elimination():
    # concave eliminated block of dimension 2: no certificate, no fallback
    merit = ms.MeritFunction(
        3, lambda p: float(p[0] ** 2 - p[1] ** 2 - p[2] ** 2), structure="general"
    )
    with pytest.raises(ms.ConvexityError):
        ms.minimal_section_1d(merit, 0, np.linspace(-1, 1, 5))


def test_section_fallback_refusal_is_a_trace_error(entries):
    # NEG_Y is concave in y: no certificate, and the one-coordinate fallback
    # slice refuses at its first grid point
    message = r"^fallback slice solve failed while sampling the section at x = \[-1.0\]: "
    with pytest.raises(ms.TraceError, match=message) as info:
        ms.minimal_section_1d(entries["NEG_Y"].merit, 0, np.linspace(-1.0, 1.0, 5))
    assert info.value.x_failed.tolist() == [-1.0]


def test_section_values_match_merit_bookkeeping(entries):
    merit = entries["SINE_VALLEY"].merit
    grid = np.linspace(-2.0, 2.0, 17)
    section = ms.minimal_section_1d(merit, 0, grid)
    for j in range(grid.size):
        p = np.array([grid[j], section.companions[j, 0]])
        assert abs(section.values[j] - merit(p)) <= 1e-12


def test_section_lower_bound_property(entries):
    rng = np.random.default_rng(4)
    merit = entries["SINE_VALLEY"].merit
    grid = np.linspace(-2.0, 2.0, 9)
    section = ms.minimal_section_1d(merit, 0, grid)
    for j, x in enumerate(grid):
        for _ in range(100):
            y = rng.uniform(-10.0, 10.0)
            assert section.values[j] <= merit([x, y]) + 1e-12


def test_section_monotone_flanks_strictly_convex(entries):
    grid = np.linspace(-3.0, 3.0, 31)
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, grid)
    k = int(np.argmin(section.values))
    left = section.values[: k + 1]
    right = section.values[k:]
    assert np.all(np.diff(left) <= 1e-12)
    assert np.all(np.diff(right) >= -1e-12)


def test_section_plateau_flags_on_valley(entries):
    grid = np.linspace(-3.0, 3.0, 13)
    section = ms.minimal_section_1d(entries["DEGEN_LINE"].merit, 0, grid)
    assert len(section.local_minima) == grid.size - 2
    assert all(section.plateau)
    assert section.minima_x == ()


def test_section_companion_monotonicity_flags(entries):
    wavy = ms.minimal_section_1d(
        entries["SINE_VALLEY"].merit, 0, np.linspace(-math.pi, math.pi, 41)
    )
    assert wavy.non_monotone_companions == (1,)
    straight = ms.minimal_section_1d(
        entries["DEGEN_LINE"].merit, 0, np.linspace(-3.0, 3.0, 21)
    )
    assert straight.non_monotone_companions == ()


def test_sublevel_quad_intervals(entries):
    grid = np.linspace(-3.0, 3.0, 61)
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, grid)
    iv = ms.sublevel_interval(section, 1.0)
    assert iv.lo == pytest.approx(-1.0, abs=1e-8)
    assert iv.hi == pytest.approx(1.0, abs=1e-8)
    outer = ms.sublevel_interval(section, 4.0)
    assert outer.lo == pytest.approx(-2.0, abs=1e-8)
    assert outer.hi == pytest.approx(2.0, abs=1e-8)
    assert outer.lo < iv.lo and iv.hi < outer.hi


def test_sublevel_at_minimum_collapses(entries):
    grid = np.linspace(-3.0, 3.0, 61)
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, grid)
    iv = ms.sublevel_interval(section, 0.0)
    assert iv.lo == iv.hi == pytest.approx(0.0, abs=1e-8)


def test_sublevel_below_minimum_rejected(entries):
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, np.linspace(-3, 3, 31))
    with pytest.raises(ValueError, match="below the section minimum"):
        ms.sublevel_interval(section, -1.0)


def test_sublevel_refuses_multiple_minima(entries):
    section = ms.minimal_section_1d(
        entries["TWO_WELLS"].merit, 0, np.linspace(-2, 2, 41)
    )
    with pytest.raises(ValueError, match="basin"):
        ms.sublevel_interval(section, 0.5)


def test_sublevel_monotone_nesting(entries):
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, np.linspace(-3, 3, 61))
    levels = [0.25, 1.0, 2.25, 4.0]
    intervals = [ms.sublevel_interval(section, z) for z in levels]
    for small, large in zip(intervals, intervals[1:]):
        assert large.lo < small.lo <= small.hi < large.hi


def test_nesting_quad3_all_pairs(quad3):
    grid = np.linspace(-10.0, 10.0, 11)
    for outer_x in itertools.combinations(range(3), 2):
        y = tuple(i for i in range(3) if i not in outer_x)
        outer = ms.ParameterSplit(outer_x, y)
        for inner in outer_x:
            report = ms.nesting_check(quad3, outer, (inner,), grid, probe_density=5)
            assert report.passed
            # spherical symmetry: both reduce to the kept coordinate squared
            assert np.allclose(report.inner_values, grid**2, atol=1e-8)


def test_nesting_anisotropic_schur_oracle(aniso3):
    merit, a = aniso3
    grid = np.linspace(-10.0, 10.0, 21)
    outer = ms.ParameterSplit((0, 1), (2,))
    report = ms.nesting_check(merit, outer, (0,), grid, probe_density=5)
    assert report.passed
    oracle = np.array([schur_partial_min(a, [0], [1, 2], u) for u in grid])
    assert np.max(np.abs(report.inner_values - oracle)) <= 1e-6
    assert np.max(np.abs(report.iterated_values - oracle)) <= 1e-6


def test_nesting_refuses_nonconvex():
    # a 3-D embedding that keeps the double well: not strictly convex
    wells3 = ms.build_residual_merit(
        (lambda p: p[0] ** 2 - 1.0, lambda p: p[1] - p[0], lambda p: p[2]),
        3,
        name="WELLS3",
    )
    with pytest.raises(ms.ConvexityError):
        ms.nesting_check(
            wells3,
            ms.ParameterSplit((0, 1), (2,)),
            (0,),
            np.linspace(-1, 1, 5),
            probe_density=3,
        )


def test_nesting_requires_strict_subset(aniso3):
    merit, _ = aniso3
    outer = ms.ParameterSplit((0, 1), (2,))
    with pytest.raises(ValueError, match="strictly contained"):
        ms.nesting_check(merit, outer, (0, 1), np.linspace(-1, 1, 3))


def test_section_csv_format(entries, tmp_path):
    grid = np.linspace(-2.0, 2.0, 9)
    section = ms.minimal_section_1d(entries["QUAD"].merit, 0, grid)
    intervals = [ms.sublevel_interval(section, 1.0)]
    path = tmp_path / "section.csv"
    ms.write_section_csv(section, path, intervals=intervals)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_i,F,comp_0,residual"
    assert len(lines) == 1 + grid.size + 1
    cells = lines[1].split(",")
    assert float(cells[0]) == grid[0]
    assert float(cells[1]) == section.values[0]
    assert lines[-1].startswith("# sublevel z=1.0 lo=")
    # round-trip: parsing every numeric cell reproduces the arrays exactly
    for j, line in enumerate(lines[1 : 1 + grid.size]):
        vals = [float(c) for c in line.split(",")]
        assert vals[0] == grid[j] and vals[1] == section.values[j]
