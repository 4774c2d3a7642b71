
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import minsection as ms
from minsection.numerics import EPS, NonFiniteValueError
from minsection.solver import BracketError, line_minimize


def test_bracket_parabola():
    grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    triplet = ms.bracket_on_grid(lambda u: u * u, grid)
    assert (triplet.a, triplet.b, triplet.c) == (-1.0, 0.0, 1.0)
    assert triplet.fb < triplet.fa and triplet.fb < triplet.fc


def test_bracket_monotone_is_boundary_error():
    with pytest.raises(BracketError) as excinfo:
        ms.bracket_on_grid(lambda u: u, np.array([0.0, 1.0, 2.0]))
    assert excinfo.value.reason == "boundary"


def test_bracket_flat_error():
    with pytest.raises(BracketError) as excinfo:
        ms.bracket_on_grid(lambda u: 1.0, np.array([0.0, 1.0, 2.0, 3.0]))
    assert excinfo.value.reason == "flat"


def test_bracket_two_wells_leftmost():
    # direct arithmetic oracle on the double-well section
    grid = np.arange(-2.0, 2.5, 0.5)
    values = {u: (u * u - 1.0) ** 2 for u in grid}
    triplet = ms.bracket_on_grid(lambda u: values[u], grid)
    assert (triplet.a, triplet.b, triplet.c) == (-1.5, -1.0, -0.5)


def test_bracket_triplet_invariant_enforced():
    with pytest.raises(ValueError):
        ms.BracketTriplet(0.0, 1.0, 2.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        ms.BracketTriplet(2.0, 1.0, 0.0, 3.0, 1.0, 3.0)


def test_golden_parabola():
    triplet = ms.bracket_on_grid(lambda u: u * u, np.array([-1.0, 0.0, 1.0]))
    x, value = ms.golden_refine(lambda u: u * u, triplet, 1e-10)
    assert x == pytest.approx(0.0, abs=1e-8)
    assert value == pytest.approx(0.0, abs=1e-16)


def test_golden_shifted_parabola():
    grid = np.array([-1.0, 0.0, 1.0])
    section = lambda u: (u - 0.3) ** 2
    triplet = ms.bracket_on_grid(section, grid)
    x, _ = ms.golden_refine(section, triplet, 1e-10)
    assert x == pytest.approx(0.3, abs=1e-8)


def test_golden_sine_valley_section(entries, split01):
    merit = entries["SINE_VALLEY"].merit

    def section(u):
        return ms.solve_slice(merit, split01, [u]).value

    triplet = ms.bracket_on_grid(section, np.linspace(-1.0, 1.0, 9))
    x, _ = ms.golden_refine(section, triplet, 1e-9)
    assert x == pytest.approx(0.0, abs=1e-7)


def test_golden_nonfinite_reported():
    triplet = ms.BracketTriplet(-1.0, 0.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(ms.SolveError, match="non-finite"):
        ms.golden_refine(lambda u: float("nan") if u != 0.0 else 0.0, triplet, 1e-8)


@pytest.mark.parametrize(
    "section, abscissas, evaluations",
    [
        pytest.param(lambda u: u * u, (-1.0, 0.0, 1.0), 4, id="parabola"),
        pytest.param(lambda u: (u - 0.3) ** 2, (-1.0, 0.0, 1.0), 5, id="shifted_parabola"),
        pytest.param(lambda u: (u * u - 1.0) ** 2, (0.5, 1.1, 1.5), 11, id="double_well"),
        # a kink defeats the parabolic steps; golden steps still contract it
        pytest.param(lambda u: abs(u - 0.3), (-1.0, 0.0, 1.0), 34, id="kink"),
    ],
)
def test_golden_refine_counts(section, abscissas, evaluations):
    # Brent's steps: golden-section contraction took 51, 51, 49 and 51.
    seen = []

    def counted(u):
        seen.append(u)
        return section(u)

    triplet = ms.BracketTriplet(*abscissas, *(section(u) for u in abscissas))
    ms.golden_refine(counted, triplet, 1e-10)
    assert len(seen) == evaluations


@settings(max_examples=200, deadline=None)
@given(
    minimizer=st.floats(-0.9, 0.9),
    quadratic=st.just(0.0) | st.floats(0.1, 10.0),
    quartic=st.just(0.0) | st.floats(0.1, 10.0),
    middle=st.floats(0.05, 0.95),
)
def test_golden_refine_on_unimodal_polynomials(minimizer, quadratic, quartic, middle):
    assume(quadratic > 0.0 or quartic > 0.0)

    def section(u):
        d = u - minimizer
        return quadratic * d * d + quartic * d**4

    a, c = -1.0, 1.0
    b = a + middle * (c - a)
    # move b toward the minimizer until the triplet brackets it strictly
    while not section(b) < min(section(a), section(c)):
        b = 0.5 * (b + minimizer)
    triplet = ms.BracketTriplet(a, b, c, section(a), section(b), section(c))
    trials = []

    def recorded(u):
        trials.append(u)
        return section(u)

    x_tol = 1e-10
    u, value = ms.golden_refine(recorded, triplet, x_tol)
    assert all(a < t < c for t in trials)
    assert abs(u - minimizer) <= x_tol
    assert value == section(u)


def test_golden_refine_terminates_below_float_resolution():
    # At u = 1e6 the spacing of floats (1.2e-10) exceeds x_tol: the bracket
    # stops at a few ulps instead of contracting forever.
    section = lambda v: (v - 1e6 - 0.25) ** 2
    triplet = ms.bracket_on_grid(section, np.array([1e6 - 1.0, 1e6, 1e6 + 1.0]))
    u, _ = ms.golden_refine(section, triplet, 1e-12)
    assert abs(u - (1e6 + 0.25)) <= 1e-9


def test_refusal_messages_print_plain_floats():
    grid = np.array([-2.0, -1.0, 0.0, 1.0])
    with pytest.raises(ms.SolveError) as excinfo:
        ms.bracket_on_grid(lambda u: float("nan") if u == -2.0 else u * u, grid)
    assert str(excinfo.value) == "non-finite section value at u = -2.0"
    with pytest.raises(BracketError) as excinfo:
        ms.bracket_on_grid(lambda u: u, grid)
    message = str(excinfo.value)
    assert message.startswith("smallest section value sits at the grid boundary u = -2.0;")
    # the bracket holds numpy scalars from the grid, as in the solver
    triplet = ms.bracket_on_grid(lambda u: u * u, grid)
    seen = []

    def section(u):
        seen.append(u)
        return float("nan")

    with pytest.raises(ms.SolveError) as excinfo:
        ms.golden_refine(section, triplet, 1e-8)
    assert isinstance(seen[-1], np.floating)
    assert str(excinfo.value) == f"non-finite section value at u = {float(seen[-1])!r}"


def test_line_minimize_midpoint_tie_recovery():
    # convex parabola with its minimum exactly midway between grid nodes:
    # the two smallest values tie bitwise and the midpoint probe recovers
    grid = np.linspace(-2.0, 3.0, 6)
    section = lambda u: (u - 0.5) ** 2
    u, value, triplet = line_minimize(section, grid, 1e-9)
    assert u == pytest.approx(0.5, abs=1e-7)
    assert triplet.b == pytest.approx(0.5)


def test_bracket_on_grid_recovers_midpoint_tie():
    # the grid values at 0 and 1 tie bitwise; one more evaluation, at their
    # midpoint, gives the bracket
    seen = []

    def section(u):
        seen.append(u)
        return (u - 0.5) ** 2

    triplet = ms.bracket_on_grid(section, np.linspace(-2.0, 3.0, 6))
    assert (triplet.a, triplet.b, triplet.c) == (0.0, 0.5, 1.0)
    assert (triplet.fa, triplet.fb, triplet.fc) == (0.25, 0.0, 0.25)
    assert len(seen) == 7


@pytest.mark.parametrize(
    "section, reason, message, evaluations",
    [
        pytest.param(lambda u: max(1.0, 2.0 - u), "boundary",
                     "tied minimal values reach the grid boundary", 5, id="tie_reaches_edge"),
        pytest.param(lambda u: max(1.0, abs(u - 2.0)), "plateau",
                     "interior plateau prevents", 6, id="flat_bottom"),
    ],
)
def test_bracket_on_grid_unresolved_ties(section, reason, message, evaluations):
    seen = []

    def counted(u):
        seen.append(u)
        return section(u)

    with pytest.raises(BracketError, match=message) as excinfo:
        ms.bracket_on_grid(counted, np.arange(5.0))
    assert excinfo.value.reason == reason
    assert len(seen) == evaluations


def test_solve_hierarchical_exp_fit(entries, split01):
    report = ms.solve_hierarchical(entries["EXP_FIT"].merit, split01)
    assert np.allclose(report.minimizer, [-0.5, 2.0], atol=1e-6)
    assert report.method == "hierarchical"
    assert report.inner_method == "linear_elimination"
    assert report.split.x_indices == (0,)
    assert report.certificates.gradient_norm <= report.outer_tol


def test_solve_hierarchical_sine_valley(entries, split01):
    report = ms.solve_hierarchical(entries["SINE_VALLEY"].merit, split01)
    assert np.allclose(report.minimizer, [0.0, 0.0], atol=1e-6)


def test_solve_hierarchical_quad3_multi_x(quad3):
    split = ms.ParameterSplit((0,), (1, 2))
    report = ms.solve_hierarchical(quad3, split)
    assert np.allclose(report.minimizer, np.zeros(3), atol=1e-6)
    split2 = ms.ParameterSplit((0, 2), (1,))
    report2 = ms.solve_hierarchical(quad3, split2)
    assert np.allclose(report2.minimizer, np.zeros(3), atol=1e-6)


def test_solve_refuses_nonconvex_block(entries, split01):
    with pytest.raises(ms.ConvexityError) as excinfo:
        ms.solve_hierarchical(entries["NEG_Y"].merit, split01)
    assert excinfo.value.point is not None
    assert excinfo.value.min_eig <= 0.0
    assert excinfo.value.certificate is not None


def test_solve_inner_counter_matches_section_evaluations(entries, split01):
    report = ms.solve_hierarchical(entries["QUAD"].merit, split01)
    assert report.inner_solves == report.outer_evaluations
    assert report.inner_solves > 0


def test_solve_never_evaluates_outside_box(entries, split01):
    base = entries["QUAD"].merit
    box = base.domain_box
    seen = []

    def recording(p):
        seen.append(np.array(p, copy=True))
        return base(p)

    merit = ms.MeritFunction(2, recording, structure="general", domain_box=box)
    ms.solve_hierarchical(merit, split01, tolerances=ms.Tolerances(probe_density=7))
    seen = np.array(seen)
    pad = 1e-9
    assert np.all(seen >= box[:, 0] - pad)
    assert np.all(seen <= box[:, 1] + pad)


def test_one_grid_serves_every_retained_coordinate():
    merit = ms.random_quadratic_problem(4, 2, np.random.default_rng(5)).merit
    split = ms.model_split(merit)
    g = np.linspace(-10.0, 10.0, 15)
    shared = ms.solve_hierarchical(merit, split, grid=g)
    each = ms.solve_hierarchical(merit, split, grid=[g, g])
    assert ms.solver.solve_report_dict(shared) == ms.solver.solve_report_dict(each)
    assert len(shared.certificates.brackets) == 2


def test_bracket_certificates_stored_exactly(entries, split01):
    report = ms.solve_hierarchical(entries["SINE_VALLEY"].merit, split01)
    for tri in report.certificates.brackets:
        assert tri.fb < tri.fa and tri.fb < tri.fc
        assert tri.a < tri.b < tri.c


def test_solve_direct_quad(entries):
    report = ms.solve_direct(entries["QUAD"].merit, np.array([3.0, -4.0]))
    assert np.allclose(report.minimizer, [0.0, 0.0], atol=1e-8)
    assert report.method == "direct"
    assert report.inner_solves == 0


def test_solve_direct_sine_valley(entries):
    report = ms.solve_direct(entries["SINE_VALLEY"].merit, np.array([1.0, 1.0]))
    assert np.allclose(report.minimizer, [0.0, 0.0], atol=1e-6)


def test_solve_direct_two_wells_basin(entries):
    # oracle: explicit small-step gradient-flow integration from the start
    merit = entries["TWO_WELLS"].merit
    p = np.array([0.9, 0.9])
    for _ in range(20000):
        p = p - 1e-3 * merit.gradient(p)
    assert np.allclose(p, [1.0, 1.0], atol=1e-6)
    report = ms.solve_direct(merit, np.array([0.9, 0.9]))
    assert np.allclose(report.minimizer, p, atol=1e-6)


def test_solve_direct_rejects_outside_start(entries):
    with pytest.raises(ValueError, match="outside"):
        ms.solve_direct(entries["QUAD"].merit, np.array([50.0, 0.0]))


def test_solve_direct_singular_hessian_takes_the_least_squares_step():
    # F = (p0 - 0.3)^2 does not depend on p1, so its FD Hessian [[2, 0],
    # [0, 0]] is exactly singular: np.linalg.solve refuses it, and the
    # least-squares step reaches the valley floor at once, keeping p1
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    merit = ms.build_residual_merit((lambda p: p[0] - 0.3,), 2, box=box)
    report = ms.solve_direct(merit, np.array([0.8, 0.4]))
    assert report.iterations == 1
    assert report.minimizer[0] == pytest.approx(0.3, abs=1e-8)
    assert report.minimizer[1] == 0.4


def test_solve_direct_refuses_a_non_finite_derivative_at_the_start():
    # the gradient stencil at the start reaches past p0 = 0.5, where F is NaN
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    merit = ms.MeritFunction(
        2, lambda p: float(p @ p) if p[0] <= 0.5 else float("nan"), domain_box=box
    )
    start = np.array([0.5 - 1e-7, 0.2])
    with pytest.raises(NonFiniteValueError) as excinfo:
        ms.solve_direct(merit, start)
    assert excinfo.value.point.tolist() == start.tolist()


def test_solve_direct_iteration_cap_carries_best(entries, monkeypatch):
    monkeypatch.setattr(ms.solver, "MAX_DIRECT_ITERATIONS", 2)
    with pytest.raises(ms.SolveError) as excinfo:
        ms.solve_direct(
            entries["SINE_VALLEY"].merit,
            np.array([4.0, -3.0]),
            tolerances=ms.Tolerances(outer_tol=1e-300),
        )
    assert excinfo.value.best_point is not None
    assert excinfo.value.grad_norm is not None


def test_equivalence_sine_valley(entries, split01):
    rng = np.random.default_rng(21)
    starts = [rng.uniform(-3.0, 3.0, size=2) for _ in range(5)]
    report = ms.equivalence_report(entries["SINE_VALLEY"].merit, split01, starts)
    assert report.max_distance <= 1e-6
    assert report.max_value_gap <= 1e-10


def test_equivalence_quad(entries, split01):
    rng = np.random.default_rng(22)
    starts = [rng.uniform(-5.0, 5.0, size=2) for _ in range(5)]
    report = ms.equivalence_report(entries["QUAD"].merit, split01, starts)
    assert report.max_distance <= 1e-8


def test_equivalence_two_wells_covers_both(entries, split01):
    merit = entries["TWO_WELLS"].merit
    starts = [np.array([0.9, 0.9]), np.array([-0.9, -0.9]), np.array([1.5, 1.5]),
              np.array([-1.5, -0.5])]
    report = ms.equivalence_report(
        merit, split01, starts, grid=np.linspace(-2.0, 2.0, 41)
    )
    candidates = np.array([c[0] for c in report.candidates])
    for target in ([1.0, 1.0], [-1.0, -1.0]):
        assert np.min(np.max(np.abs(candidates - np.asarray(target)), axis=1)) <= 1e-6
    assert report.max_distance <= 1e-6


def test_recover_degen_line(entries):
    recovery = ms.recover_from_anchor(entries["DEGEN_LINE"].merit, 0, 0.5)
    assert recovery.recovered[0] == 0.5  # anchored exactly
    assert recovery.recovered[1] == pytest.approx(1.5, abs=1e-10)
    assert recovery.section_residual <= 1e-9


def test_recover_degen_line_far_anchor(entries):
    recovery = ms.recover_from_anchor(entries["DEGEN_LINE"].merit, 0, 2.0)
    assert np.allclose(recovery.recovered, [2.0, 0.0], atol=1e-9)


def test_recover_sine_valley_hits_minimum(entries):
    recovery = ms.recover_from_anchor(entries["SINE_VALLEY"].merit, 0, 0.0)
    assert np.allclose(recovery.recovered, [0.0, 0.0], atol=1e-9)


def test_recover_consistency_at_known_minima(entries):
    # anchoring any coordinate of a known minimizer recovers that minimizer
    for entry in entries.values():
        for p_star in entry.known_minima:
            recovery = ms.recover_from_anchor(entry.merit, 0, p_star[0])
            assert np.max(np.abs(recovery.recovered - p_star)) <= 1e-6, entry.name


def test_recover_refuses_nonconvex(entries):
    with pytest.raises(ms.ConvexityError):
        ms.recover_from_anchor(entries["NEG_Y"].merit, 0, 0.5)


def test_report_text_and_dict_round_trip(entries, split01):
    report = ms.solve_hierarchical(entries["EXP_FIT"].merit, split01)
    text = ms.format_solve_report(report)
    assert "linear_elimination" in text
    assert "bracket:" in text
    from minsection.solver import solve_report_dict

    payload = solve_report_dict(report)
    assert payload["method"] == "hierarchical"
    assert payload["minimizer"] == [float(v) for v in report.minimizer]
    assert payload["convexity"]["verdict"] == "positive_definite_everywhere_sampled"


@settings(max_examples=60, deadline=None)
@given(
    st.integers(5, 30),
    st.floats(-0.9, 0.9),
    st.floats(0.1, 50.0),
)
def test_bracket_certificate_property(size, center, scale):
    # any strict interior minimum of a sampled convex parabola brackets
    grid = np.linspace(-1.0, 1.0, size)
    section = lambda u: scale * (u - center) ** 2
    try:
        triplet = ms.bracket_on_grid(section, grid)
    except BracketError as err:
        assert err.reason in ("boundary", "plateau")
        return
    assert triplet.fb < triplet.fa and triplet.fb < triplet.fc
    assert grid[0] <= triplet.a < triplet.b < triplet.c <= grid[-1]


def test_nan_island_refused_with_point_in_box():
    merit = ms.MeritFunction(
        2,
        lambda p: float("nan") if p[0] > 0.5 else float(p[0] ** 2 + p[1] ** 2),
        domain_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )
    with pytest.raises(NonFiniteValueError, match="non-finite") as excinfo:
        ms.solve_hierarchical(merit, ms.ParameterSplit((0,), (1,)))
    assert merit.contains(excinfo.value.point)


def ill_conditioned_quadratic(box):
    """Convex quadratic whose section over (p0, p1) has condition number
    about 100; its minimum is (7, 6.5, 7) with F = 0."""
    residuals = (
        lambda p: 10.0 * (p[0] - p[1] - 0.5),
        lambda p: p[0] + p[1] - 13.5,
        lambda p: p[2] - p[0],
    )
    return ms.build_residual_merit(residuals, 3, box=np.asarray(box, dtype=float))


def test_ill_conditioned_section_converges():
    merit = ill_conditioned_quadratic([[-10.0, 10.0]] * 3)
    report = ms.solve_hierarchical(merit, ms.ParameterSplit((0, 1), (2,)))
    assert np.allclose(report.minimizer, [7.0, 6.5, 7.0], atol=1e-6)
    assert report.certificates.gradient_norm <= report.outer_tol
    assert len(report.certificates.brackets) == 2


def test_close_rate_biexponential_fit_recovered():
    t = np.arange(20.0)
    rates, amplitudes = (-0.7, -2.3), (1.0, 2.0)
    model = ms.PartiallyLinearModel(
        basis=tuple(lambda tk, x, i=i: float(np.exp(x[i] * tk)) for i in range(2)),
        t=t,
        d=sum(a * np.exp(r * t) for a, r in zip(amplitudes, rates)),
        nonlinear_dim=2,
    )
    merit = ms.build_partially_linear(
        model, box=np.array([[-1.5, 0.0], [-6.0, -1.8], [-10.0, 10.0], [-10.0, 10.0]])
    )
    report = ms.solve_hierarchical(merit, ms.model_split(merit))
    assert np.allclose(report.minimizer, rates + amplitudes, atol=1e-5)
    assert report.certificates.gradient_norm <= report.outer_tol


def sinusoid_fit_file(tmp_path, seed):
    """A problem file fitting sin(w t), cos(w t) and a constant, w in
    [0.7, 1.3], to 400 noisy samples of a seeded sinusoid with w near 1."""
    rng = np.random.default_rng(seed)
    t = 0.05 * np.arange(400)
    w = rng.uniform(0.95, 1.05)
    amplitudes = [rng.uniform(0.5, 1.5), rng.uniform(-1.5, -0.5), rng.uniform(-1.0, 1.0)]
    d = (amplitudes[0] * np.sin(w * t) + amplitudes[1] * np.cos(w * t) + amplitudes[2]
         + 0.05 * rng.standard_normal(t.size))
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "".join(f"{tk!r},{dk!r}\n" for tk, dk in zip(t.tolist(), d.tolist()))
    )
    path = tmp_path / "sinusoid.json"
    path.write_text(json.dumps({
        "dimension": 4,
        "split": {"x_indices": [0], "y_indices": [1, 2, 3]},
        "domain_box": [[0.7, 1.3]] + [[-10.0, 10.0]] * 3,
        "model": {
            "kind": "partially_linear",
            "basis": [
                {"type": "sinusoid", "fn": "sin", "frequency_index": 0},
                {"type": "sinusoid", "fn": "cos", "frequency_index": 0},
                {"type": "constant"},
            ],
        },
        "data_file": "obs.csv",
    }))
    return ms.load_problem_file(path), t, d


@pytest.mark.parametrize("seed", [13, 102])
def test_sinusoid_fit_converges_below_float_resolution(tmp_path, seed):
    # Near the interior minimum the section value's rounding noise exceeds
    # the predicted decrease of every halving, so the Armijo test alone
    # stalls the line search there; these seeds did. A trial with a smaller
    # full gradient norm is taken instead.
    definition, t, d = sinusoid_fit_file(tmp_path, seed)
    report = ms.solve_hierarchical(definition.merit, definition.split)
    w = report.minimizer[0]
    assert 0.95 < w < 1.05
    assert report.certificates.gradient_norm <= report.outer_tol
    design = np.column_stack([np.sin(w * t), np.cos(w * t), np.ones_like(t)])
    assert np.allclose(report.minimizer[1:], np.linalg.lstsq(design, d, rcond=None)[0], atol=1e-8)


def test_multi_coordinate_solve_never_evaluates_outside_box():
    # The section minimum lies half a unit from the p0 face of the box.
    base = ill_conditioned_quadratic([[0.0, 7.5], [0.0, 7.5], [-10.0, 10.0]])
    seen = []

    def recording(p):
        seen.append(np.array(p, copy=True))
        return base(p)

    merit = ms.MeritFunction(3, recording, domain_box=base.domain_box)
    report = ms.solve_hierarchical(
        merit, ms.ParameterSplit((0, 1), (2,)), tolerances=ms.Tolerances(probe_density=7)
    )
    assert np.allclose(report.minimizer, [7.0, 6.5, 7.0], atol=1e-6)
    seen = np.array(seen)
    box = merit.domain_box
    assert np.all(seen >= box[:, 0]) and np.all(seen <= box[:, 1])


def test_multi_coordinate_minimum_beyond_face_is_refused():
    # Each line search from the grid centers finds an interior minimum, but
    # the section keeps falling toward the corner (1, 1) of the retained box.
    residuals = (
        lambda p: 3.0 * (p[0] - p[1]),
        lambda p: 0.3 * (p[0] + p[1] - 2.4),
        lambda p: p[2] - p[0],
    )
    merit = ms.build_residual_merit(
        residuals, 3, box=np.array([[-1.0, 1.0], [-1.0, 1.0], [-3.0, 3.0]])
    )
    with pytest.raises(ms.SolveError, match="boundary") as excinfo:
        ms.solve_hierarchical(
            merit, ms.ParameterSplit((0, 1), (2,)), tolerances=ms.Tolerances(probe_density=5)
        )
    best = excinfo.value.best_point
    assert len(best) == 3 and np.array_equal(best[:2], [1.0, 1.0])
    assert merit.contains(best) and excinfo.value.best_value == merit(best)


def test_narrow_dip_is_solved_not_refused():
    # The dip is ten times narrower than the grid spacing. A stopping rule
    # derived from the 0.1-wide grid bracket refused this found minimum.
    merit = ms.MeritFunction(
        2,
        lambda p: float(1.0 - np.exp(-(((p[0] - 0.37) / 0.01) ** 2)) + p[1] ** 2 + 1e-12),
        domain_box=np.array([[-1.0, 1.0], [-1.0, 1.0]]),
    )
    report = ms.solve_hierarchical(merit, ms.ParameterSplit((0,), (1,)))
    assert np.allclose(report.minimizer, [0.37, 0.0], atol=1e-7)
    assert report.certificates.gradient_norm <= report.outer_tol


def test_default_outer_tol_is_the_noise_bound_for_every_n(entries, split01):
    quadratic = ms.random_quadratic_problem(4, 2, np.random.default_rng(0)).merit
    reports = [
        ms.solve_hierarchical(entries["QUAD"].merit, split01),
        ms.solve_hierarchical(quadratic, ms.model_split(quadratic)),
    ]
    assert [len(r.split.x_indices) for r in reports] == [1, 2]
    for report in reports:
        noise = 100.0 * EPS ** (2.0 / 3.0) * max(1.0, abs(report.value))
        assert report.outer_tol == max(1e-8, noise)
