"""Pinned merit-evaluation counts of the main entry points.

Evaluation counts are exact and machine-independent, so any change to the
slice solver, the outer loop, the grid scans or the probes that alters the
work done shows up here. A deliberate change updates the pinned number and
says why in CHANGES.md.
"""

import json
import warnings

import numpy as np
import pytest

import minsection as ms
from minsection import cli
from minsection.problems import MeritFunction

from .conftest import differenced, without_gradient


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


# Every catalog merit has a closed-form gradient, which the outer stage and
# the final certificate take: neither evaluates the merit (1,432, 1,572,
# 1,446 and 4 by central differences, whose certificate took its x-part
# from the outer stage's last gradient; 1,434, 1,574, 1,448 and 6 when it
# evaluated all 2M). Its closed-form Hessian gives the convexity probe's
# blocks: the 441-node probe evaluates nothing (1,428, 1,568 and 1,442 when
# it took 3 evaluations a node), so the rest are the Newton slices.
@pytest.mark.parametrize(
    "name, evaluations",
    [
        pytest.param(name, evaluations, id=name)
        for name, evaluations in (
            ("QUAD", 105), ("SINE_VALLEY", 245), ("TWO_WELLS", 119), ("EXP_FIT", 0)
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
    assert merit_calls["n"] == 450


@pytest.mark.parametrize(
    "name, evaluations",
    [
        pytest.param("SINE_VALLEY", 1055, id="SINE_VALLEY"),
        pytest.param("TWO_WELLS", 519, id="TWO_WELLS"),
    ],
)
def test_trace_level_order_counts(entries, split01, merit_calls, name, evaluations):
    # The 101-node grids of the CLI trace and sections, solved in 8 levels
    # (1,010 and 541 evaluations as a left-to-right secant sweep).
    merit = entries[name].merit
    ms.trace_implicit(merit, split01, first_axis_grid(merit, 101))
    assert merit_calls["n"] == evaluations


def test_section_101_count(entries, merit_calls):
    # the convexity probe takes the closed-form Hessian (1,942 by central
    # differences)
    merit = entries["TWO_WELLS"].merit
    ms.minimal_section_1d(merit, 0, first_axis_grid(merit, 101))
    assert merit_calls["n"] == 619


def test_minimal_section_count(entries, merit_calls):
    # the convexity probe takes the closed-form Hessian (1,652 by central
    # differences)
    merit = entries["TWO_WELLS"].merit
    ms.minimal_section_1d(merit, 0, first_axis_grid(merit))
    assert merit_calls["n"] == 329


def test_equivalence_report_count(entries, split01, merit_calls):
    # The three starts the CLI draws for --starts 3 --seed 4. The
    # hierarchical solve differentiates by the closed-form gradient (1,856
    # by central differences); the direct solves keep central differences,
    # whose mixed partials take the seven-point formula (1,852 with four
    # corners per pair). Its convexity probe takes the closed-form Hessian
    # (1,816 by central differences).
    rng = np.random.default_rng(4)
    starts = [rng.uniform(-0.5, 0.5, size=2) * 10.0 for _ in range(3)]
    ms.equivalence_report(entries["SINE_VALLEY"].merit, split01, starts)
    assert merit_calls["n"] == 493


def test_recover_from_anchor_count(entries, merit_calls):
    # the convexity probe takes the closed-form Hessian (1,333 by central
    # differences), so the evaluations are the one slice's
    ms.recover_from_anchor(entries["SINE_VALLEY"].merit, 0, 0.3)
    assert merit_calls["n"] == 10


def chain3_merit():
    """Residuals (p0 - 0.3, p1 - sin p0, p2 - p0 p1) on [-2, 2]^3."""
    return ms.build_residual_merit(
        (lambda p: p[0] - 0.3, lambda p: p[1] - np.sin(p[0]), lambda p: p[2] - p[0] * p[1]),
        3,
        box=np.array([[-2.0, 2.0]] * 3),
    )


def test_m3_general_solve_count(merit_calls):
    # 3,087 of the evaluations are the 441-node budgeted convexity probe,
    # 7 per 2 x 2 block (84,980 over the 21^3 grid). Seven-point mixed
    # partials cut the probe from 3,969 and the Newton slices from 593 to
    # 503 (4,562 in all before).
    merit = chain3_merit()
    report = ms.solve_hierarchical(merit, ms.ParameterSplit((0,), (1, 2)))
    assert merit_calls["n"] == 3590
    assert report.certificates.convexity.plan == "halton"


def test_random_quadratic_cycling_counts(merit_calls):
    # Linear slices and the closed-form gradient evaluate no merit (48, all
    # outer-stage and certificate stencils, by central differences).
    merit = ms.random_quadratic_problem(6, 3, np.random.default_rng(0)).merit
    report = ms.solve_hierarchical(merit, ms.model_split(merit))
    assert merit_calls["n"] == 0
    assert report.inner_solves == 67
    assert report.iterations == 6


def test_nesting_check_count(merit_calls):
    # The outer split matches the model, so its slices are eliminated
    # linearly (13,803 evaluations when every nesting slice used Newton),
    # and its outer stages take the closed-form gradient (2,918 by central
    # differences). The inner split's Newton slices take seven-point mixed
    # partials (2,898 with four corners per pair), and its probe the
    # closed-form Hessian (1,891 by central differences).
    merit = ms.random_quadratic_problem(4, 2, np.random.default_rng(1)).merit
    grid = np.linspace(-1.0, 1.0, 5)
    report = ms.nesting_check(merit, ms.model_split(merit), (0,), grid, probe_density=3)
    assert merit_calls["n"] == 190
    assert report.passed


# Each iterate's stencils cost 2M + M + M^2 evaluations with seven-point
# mixed partials (2M + 2M^2 with four corners per pair: 65 and 175).
@pytest.mark.parametrize(
    "merit, p0, evaluations, iterations",
    [
        pytest.param(ms.get_problem("SINE_VALLEY").merit, (1.0, 1.0), 55, 4, id="SINE_VALLEY"),
        pytest.param(chain3_merit(), (0.5, -0.5, 0.5), 133, 6, id="chain3"),
    ],
)
def test_solve_direct_counts(merit_calls, merit, p0, evaluations, iterations):
    report = ms.solve_direct(merit, p0)
    assert merit_calls["n"] == report.outer_evaluations == evaluations
    assert report.iterations == iterations


def test_solve_direct_stall_count(merit_calls):
    # The floor term makes F a staircase in p1 whose treads the Newton step
    # overshoots at every step length the line search tries (126 with four
    # corners per mixed partial).
    merit = ms.MeritFunction(
        2,
        lambda p: p[0] ** 2 + (p[1] - 0.3) ** 2 + 1e-3 * np.floor(1e4 * p[1]),
        domain_box=[[-1.0, 1.0], [-1.0, 1.0]],
    )
    with pytest.warns(ms.BoundaryStepWarning):
        with pytest.raises(ms.SolveError, match="^direct line search stalled$") as info:
            ms.solve_direct(merit, (0.2, 0.9))
    assert merit_calls["n"] == 118
    assert info.value.point is not None and merit.contains(info.value.point)


def test_slice_newton_stall_count(merit_calls):
    # sin(1e9 p1) makes the slice rough far below any finite-difference step.
    merit = ms.MeritFunction(
        2,
        lambda p: p[0] ** 2 + p[1] ** 2 + 1e-3 * np.sin(1e9 * p[1]),
        domain_box=[[-1.0, 1.0], [-1.0, 1.0]],
    )
    problem = ms.SliceProblem(merit, ms.ParameterSplit((0,), (1,)), [0.2])
    with pytest.raises(ms.SubMinimizeError, match="^backtracking line search failed on the slice; ") as info:
        ms.subminimize_newton(problem, y0=[0.5])
    assert merit_calls["n"] == 92
    assert info.value.iterations == 3
    assert info.value.point is not None


@pytest.mark.parametrize(
    "name, evaluations, fd_evaluations",
    [
        # With the closed-form gradient and Hessian every catalog merit
        # carries, a census evaluates each found point's value and nothing
        # else: EXP_FIT and SINE_VALLEY find one point, DEGEN_LINE 17
        # degenerate ones (31,012, 1,635 and 4,867 before). The counts
        # below are those of copies without either closed form.
        # EXP_FIT is the one catalog census that takes the gradient-descent
        # fallback of the census Newton loop (48 times), DEGEN_LINE twice.
        # Seeds ended in a found point's ball cut EXP_FIT from 31,611 and
        # SINE_VALLEY from 7,328; DEGEN_LINE's points are all degenerate,
        # so they get no ball. A one-sided gradient stencil evaluates its
        # center once, not once per one-sided coordinate, and a found
        # point's value is its Hessian stencil's center (30,233, 2,006 and
        # 5,586 before both). Seven-point mixed partials make a Hessian 7
        # evaluations, not 9 (30,159, 1,985 and 5,565 before). EXP_FIT
        # rises: its 43 dropped seeds end on the face p0 = -2, where |grad F|
        # keeps a nonzero minimum, after walks of clipped steps whose length
        # moves with the last bits of a mixed partial; their line searches
        # now try 542 more gradients in all.
        pytest.param("EXP_FIT", 1, 31012, id="EXP_FIT"),
        pytest.param("DEGEN_LINE", 17, 1635, id="DEGEN_LINE"),
        pytest.param("SINE_VALLEY", 1, 4867, id="SINE_VALLEY"),
    ],
)
def test_census_counts(entries, merit_calls, name, evaluations, fd_evaluations):
    merit = entries[name].merit
    ms.find_critical_points(merit)
    assert merit_calls["n"] == evaluations
    merit_calls["n"] = 0
    ms.find_critical_points(differenced(merit))
    assert merit_calls["n"] == fd_evaluations


def beyond_face_merit():
    """A section that keeps falling toward the corner (1, 1) of the
    retained box, though every grid line search finds an interior minimum."""
    residuals = (
        lambda p: 3.0 * (p[0] - p[1]),
        lambda p: 0.3 * (p[0] + p[1] - 2.4),
        lambda p: p[2] - p[0],
    )
    return ms.build_residual_merit(
        residuals, 3, box=np.array([[-1.0, 1.0], [-1.0, 1.0], [-3.0, 3.0]])
    )


def test_bfgs_boundary_stall_count(merit_calls):
    with pytest.raises(ms.SolveError, match="^quasi-Newton line search stalled at x = "):
        ms.solve_hierarchical(
            beyond_face_merit(),
            ms.ParameterSplit((0, 1), (2,)),
            tolerances=ms.Tolerances(probe_density=5),
        )
    assert merit_calls["n"] == 638


def test_bfgs_resolution_stall_count(entries, split01, merit_calls):
    # An outer tolerance below float resolution: BFGS reaches the section
    # minimum and its line search can no longer move. An even grid has no
    # node at the minimum x = 0, whose slice the middle-first grid solve
    # would hit exactly. The stall is interior, so its message names no
    # boundary. The outer stage takes the closed-form gradient (1,603 by
    # central differences), the convexity probe the closed-form Hessian
    # (1,583 by central differences).
    with pytest.raises(ms.SolveError, match="^quasi-Newton line search stalled at x = ") as info:
        ms.solve_hierarchical(
            entries["SINE_VALLEY"].merit,
            split01,
            grid=20,
            tolerances=ms.Tolerances(outer_tol=1e-300),
        )
    assert "boundary" not in str(info.value)
    assert merit_calls["n"] == 260


BOUNDARY_STOP = (
    "the Newton step leaves the eliminated-coordinate box at the iterate; "
    "the slice minimum may lie outside the box"
)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
@pytest.mark.parametrize(
    "command, evaluations",
    [
        pytest.param(command, evaluations, id=command)
        for command, evaluations in (
            ("solve", 22), ("sections", 22), ("equivalence", 22), ("trace", 22)
        )
    ],
)
def test_newton_step_out_of_box_stops_at_once(tmp_path, capsys, merit_calls, command, evaluations):
    # The DEGEN_LINE slice at x = -10 has its minimum y = 12 beyond the box
    # face y = 10: the first Newton step reaches the face and the next one
    # points out of the box, which no step length can enter (3,579, 3,579,
    # 3,579 and 2,256 evaluations when such a slice ran out its 50 Newton
    # iterations). The grid is solved middle first, so the slice at x = 0
    # (10 evaluations) is solved before the stack refuses; the level of
    # the two ends stops at x = -10, its first row, and leaves x = 10
    # unsolved (1,355, 1,355, 1,355 and 32 evaluations when it solved it).
    # The convexity probe of solve, sections and equivalence takes the
    # closed-form Hessian (1,345 each by central differences).
    argv = ["--problem", "DEGEN_LINE", "--command", command, "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert merit_calls["n"] == evaluations
    # the refusal names the best iterate of the slice at x = -10, on the face
    assert capsys.readouterr().err.endswith(
        BOUNDARY_STOP + "\nwitness point: [-10.0, 10.0]\n"
    )


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_slice_newton_corner_stop_count(merit_calls):
    # The slice minimum (1.2, 1.2, 1.2) lies beyond the corner p1 = p2 = 1.
    # At (1, 1, 1.2) both p1 and p2 are held against their faces; the
    # projected step on p3 alone reaches (1, 1, 1), stationary on those
    # faces (3,126 evaluations in 50 iterations when the full step kept
    # moving p3 by about -0 there; 79 with four corners per mixed partial).
    merit = ms.build_residual_merit(
        (
            lambda p: 0.5 * p[0],
            lambda p: 3.0 * (p[1] - p[2]),
            lambda p: 0.3 * (p[1] + p[2] - 2.4),
            lambda p: p[3] - p[1],
        ),
        4,
        box=np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-3.0, 3.0]]),
    )
    split = ms.ParameterSplit((0,), (1, 2, 3))
    with pytest.raises(ms.SubMinimizeError) as info:
        ms.solve_slice(merit, split, [0.0])
    assert str(info.value) == BOUNDARY_STOP
    assert merit_calls["n"] == 61
    best = split.y_part(info.value.point)
    assert best.tolist()[:2] == [1.0, 1.0]
    assert best[2] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_newton_boundary_stop_carries_best_iterate(merit_calls):
    merit = ms.get_problem("DEGEN_LINE").merit
    problem = ms.SliceProblem(merit, ms.ParameterSplit((0,), (1,)), [-10.0])
    with pytest.raises(ms.SubMinimizeError) as info:
        ms.subminimize_newton(problem)
    assert str(info.value) == BOUNDARY_STOP
    assert merit_calls["n"] == 12
    assert info.value.iterations == 1
    assert problem.split.y_part(info.value.point).tolist() == [10.0]


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_direct_boundary_stop_carries_best_point(merit_calls):
    # The minimum (0, 2) lies beyond the face p1 = 1. From p0 = 0 the
    # first step lands on the face, and the next points straight out of it
    # (28 evaluations with four corners per mixed partial).
    merit = ms.MeritFunction(
        2, lambda p: p[0] ** 2 + (p[1] - 2.0) ** 2, domain_box=[[-1.0, 1.0], [-1.0, 1.0]]
    )
    with pytest.raises(ms.SolveError, match="^direct Newton step leaves the domain box at the iterate; ") as info:
        ms.solve_direct(merit, (0.0, 0.0))
    assert merit_calls["n"] == 24
    assert info.value.point is not None and merit.contains(info.value.point)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_direct_stops_on_projected_gradient(merit_calls):
    # From p0 = 0.5 the first step lands on the face p1 = 1 with p0 about
    # -9e-12, so each later clipped step still moves the iterate a little;
    # the gradient off the held face is below tolerance there (10,614
    # evaluations in 200 iterations before this stop, 28 with four corners
    # per mixed partial).
    merit = ms.MeritFunction(
        2, lambda p: p[0] ** 2 + (p[1] - 2.0) ** 2, domain_box=[[-1.0, 1.0], [-1.0, 1.0]]
    )
    with pytest.raises(ms.SolveError, match="^direct Newton step leaves the domain box at the iterate; ") as info:
        ms.solve_direct(merit, (0.5, 0.0))
    assert merit_calls["n"] == 24
    assert info.value.point is not None and merit.contains(info.value.point)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_slice_newton_stops_on_projected_gradient(merit_calls):
    # The same face stop on an eliminated block of two coordinates (2,664
    # evaluations in 50 iterations before it, 28 with four corners per
    # mixed partial).
    merit = ms.MeritFunction(
        3,
        lambda p: p[0] ** 2 + p[1] ** 2 + (p[2] - 2.0) ** 2,
        domain_box=[[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    )
    problem = ms.SliceProblem(merit, ms.ParameterSplit((0,), (1, 2)), [0.2])
    with pytest.raises(ms.SubMinimizeError) as info:
        ms.subminimize_newton(problem, y0=[0.5, 0.0])
    assert str(info.value) == BOUNDARY_STOP
    assert merit_calls["n"] == 24
    assert info.value.iterations == 1
    assert info.value.point is not None


def test_section_decreasing_grid_refused_before_probe(entries, merit_calls):
    with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
        ms.minimal_section_1d(entries["QUAD"].merit, 0, np.linspace(1.0, -1.0, 21))
    assert merit_calls["n"] == 0


def boxed_two_wells_file(tmp_path):
    path = tmp_path / "two_wells.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "split": {"x_indices": [0], "y_indices": [1]},
        "domain_box": [[-2.0, 2.0], [-2.0, 2.0]],
        "model": {"kind": "catalog", "name": "TWO_WELLS"},
    }))
    return path


def test_boxed_catalog_file_counts_once(tmp_path, entries, merit_calls):
    # The file's merit reuses the catalog evaluator, so one call is one
    # evaluation (the census counted 7,280 when the file wrapped the merit,
    # and 3,640 before seeds ended in a found point's ball; 2,268 with four
    # corners per mixed partial). It carries the catalog's closed-form
    # gradient and Hessian, so the census evaluates only the value of each
    # of its 3 points (1,972 by central differences).
    merit = ms.load_problem_file(boxed_two_wells_file(tmp_path)).merit
    merit([0.5, 0.5])
    assert merit_calls["n"] == 1
    merit_calls["n"] = 0
    ms.find_critical_points(merit)
    assert merit_calls["n"] == 3
    merit_calls["n"] = 0
    ms.find_critical_points(entries["TWO_WELLS"].merit, box=[[-2.0, 2.0], [-2.0, 2.0]])
    assert merit_calls["n"] == 3


def test_audit_command_count(tmp_path, merit_calls):
    # The census evaluates the value of each of its 3 points, and the
    # outward check reads the closed-form gradient: 2,080 by central
    # differences (the census 1,972 and the outward check 4 faces x 9
    # points x 3 one-sided evaluations; 2,376 in all with four corners per
    # mixed partial).
    argv = ["--problem", str(boxed_two_wells_file(tmp_path)), "--command", "audit",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert merit_calls["n"] == 3


def biexp_file(tmp_path, t, d, rate_box):
    """A two-rate bi-exponential problem file: d ~ y0 exp(x0 t) + y1 exp(x1 t)."""
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "".join(f"{tk!r},{dk!r}\n" for tk, dk in zip(t.tolist(), d.tolist()))
    )
    path = tmp_path / "biexp.json"
    path.write_text(json.dumps({
        "dimension": 4,
        "split": {"x_indices": [0, 1], "y_indices": [2, 3]},
        "domain_box": [*rate_box, [-10.0, 10.0], [-10.0, 10.0]],
        "model": {
            "kind": "partially_linear",
            "basis": [{"type": "exponential", "rate_index": i} for i in (0, 1)],
        },
        "data_file": "obs.csv",
    }))
    return ms.load_problem_file(path)


def test_biexponential_file_counts(tmp_path, merit_calls):
    # Each outer grid's slices are solved as one stack, a linear slice
    # takes its value from its residual, and the outer stage and the final
    # certificate take the file's closed-form gradient: no evaluation at all
    # (36 by central differences, 88 when each of the 48 slices made one,
    # 40 when the certificate took its own x-part).
    t = np.arange(20.0)
    definition = biexp_file(
        tmp_path, t, np.exp(-0.3 * t) + 2.0 * np.exp(-4.0 * t), ([-1.5, 0.0], [-6.0, -1.8])
    )
    report = ms.solve_hierarchical(definition.merit, definition.split)
    assert merit_calls["n"] == 0
    assert report.inner_solves == 48
    assert report.iterations == 7


def certificate_case(name, entries, tmp_path):
    """The merit and split of a certificate-reuse case."""
    if name == "spd_quadratic":
        merit = ms.random_quadratic_problem(4, 2, np.random.default_rng(3)).merit
        return merit, ms.model_split(merit)
    if name == "biexp":
        t = np.arange(20.0)
        definition = biexp_file(
            tmp_path, t, np.exp(-0.3 * t) + 2.0 * np.exp(-4.0 * t), ([-1.5, 0.0], [-6.0, -1.8])
        )
        return definition.merit, definition.split
    merit = entries[name].merit
    split = ms.model_split(merit) if merit.model is not None else ms.ParameterSplit((0,), (1,))
    return merit, split


@pytest.mark.parametrize(
    "name", ["QUAD", "SINE_VALLEY", "TWO_WELLS", "EXP_FIT", "spd_quadratic", "biexp"]
)
def test_certificate_takes_its_x_part_from_the_outer_stage(
    entries, tmp_path, merit_calls, monkeypatch, name
):
    # Without a closed-form gradient, the outer stage stops on the central
    # x-gradient at the answer, whose points, steps and formula are
    # fd_gradient's, so the certificate is bitwise the full stencil's and
    # evaluates 2n points fewer.
    merit, split = certificate_case(name, entries, tmp_path)
    merit = without_gradient(merit)
    report = ms.solve_hierarchical(merit, split)
    assert report.certificates.gradient_method == "central_difference"
    evaluations = merit_calls["n"]
    full = ms.fd_gradient(merit, report.minimizer)
    assert report.certificates.gradient_norm == float(np.linalg.norm(full))
    monkeypatch.setattr(ms.solver, "_central", lambda p, box: False)
    merit_calls["n"] = 0
    again = ms.solve_hierarchical(merit, split)
    assert merit_calls["n"] == evaluations + 2 * split.n
    assert again.certificates.gradient_norm == report.certificates.gradient_norm


@pytest.mark.parametrize(
    "grid",
    [
        pytest.param([0.0, 0.5, 1.0, 1.0 + 3e-6], id="upper"),
        pytest.param([1.0 - 3e-6, 1.0, 1.5, 2.0], id="lower"),
    ],
)
def test_certificate_within_a_step_of_the_grid_hull_takes_the_full_stencil(
    entries, split01, merit_calls, monkeypatch, grid
):
    # The answer x = 1 lies 3e-6 from a face of the grid hull, inside the
    # gradient step cbrt(eps) ~ 6e-6: the outer stage's gradient there is
    # one-sided, so the certificate evaluates the full central stencil in
    # the domain box, with the count (52) and the one clamp warning (the
    # outer stage's) that it had when it always did. The merit has no
    # closed-form gradient here, which would take neither stencil; its
    # convexity probe takes the closed-form Hessian (1,375 by central
    # differences).
    merit = without_gradient(entries["TWO_WELLS"].merit)
    counts = []
    for central in (ms.solver._central, lambda p, box: False):
        monkeypatch.setattr(ms.solver, "_central", central)
        merit_calls["n"] = 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = ms.solve_hierarchical(merit, split01, grid=np.array(grid))
        clamps = sum(issubclass(w.category, ms.BoundaryStepWarning) for w in caught)
        counts.append((merit_calls["n"], clamps, report.certificates.gradient_norm))
    assert counts[0] == counts[1] == (52, 1, counts[0][2])
    assert counts[0][2] == float(np.linalg.norm(ms.fd_gradient(merit, report.minimizer)))


def test_audit_refuses_a_seed_grid_over_budget(tmp_path, merit_calls, capsys):
    # 9^4 = 6,561 census seeds at M = 4; 5^4 = 625 is the densest grid under 9^3
    t = np.arange(20.0)
    biexp_file(tmp_path, t, np.exp(-0.3 * t) + 2.0 * np.exp(-4.0 * t), ([-1.5, 0.0], [-6.0, -1.8]))
    argv = ["--problem", str(tmp_path / "biexp.json"), "--command", "audit"]
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "input error: audit would run 6561 census seeds (9 per axis in 4 dimensions), more "
        "than 729; the largest --grid-density that fits is 5\n"
    )
    assert merit_calls["n"] == 0
    assert not (tmp_path / "out").exists()


def test_grid_stack_stays_under_the_cap(tmp_path):
    import tracemalloc

    t = np.linspace(0.0, 10.0, 5000)
    definition = biexp_file(
        tmp_path, t, np.exp(-2.0 * t) + 2.0 * np.exp(-0.3 * t), ([-3.0, -1.0], [-0.6, 0.0])
    )
    tracemalloc.start()
    try:
        report = ms.solve_hierarchical(definition.merit, definition.split, grid=201)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 404 when the outer stage took central differences
    assert report.inner_solves == 401
    # one whole 201-node grid stack, 201 x 5,000 samples x 2 columns, is
    # 15.3 MiB, and its transposed copy for 2 Phi^T Phi as much again
    assert peak < 20 * 2**20
