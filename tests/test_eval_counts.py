"""Pinned merit-evaluation counts of the main entry points.

Evaluation counts are exact and machine-independent, so any change to the
slice solver, the outer loop, the grid scans or the probes that alters the
work done shows up here. A deliberate change updates the pinned number and
says why in CHANGES.md.
"""

import json

import numpy as np
import pytest

import minsection as ms
from minsection import cli
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
            ("QUAD", 1434), ("SINE_VALLEY", 1594), ("TWO_WELLS", 1460), ("EXP_FIT", 27)
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
    assert merit_calls["n"] == 460


def test_minimal_section_count(entries, merit_calls):
    merit = entries["TWO_WELLS"].merit
    ms.minimal_section_1d(merit, 0, first_axis_grid(merit))
    assert merit_calls["n"] == 1659


def test_equivalence_report_count(entries, split01, merit_calls):
    # The three starts the CLI draws for --starts 3 --seed 4.
    rng = np.random.default_rng(4)
    starts = [rng.uniform(-0.5, 0.5, size=2) * 10.0 for _ in range(3)]
    ms.equivalence_report(entries["SINE_VALLEY"].merit, split01, starts)
    assert merit_calls["n"] == 2138


def test_recover_from_anchor_count(entries, merit_calls):
    ms.recover_from_anchor(entries["SINE_VALLEY"].merit, 0, 0.3)
    assert merit_calls["n"] == 1333


def chain3_merit():
    """Residuals (p0 - 0.3, p1 - sin p0, p2 - p0 p1) on [-2, 2]^3."""
    return ms.build_residual_merit(
        (lambda p: p[0] - 0.3, lambda p: p[1] - np.sin(p[0]), lambda p: p[2] - p[0] * p[1]),
        3,
        box=np.array([[-2.0, 2.0]] * 3),
    )


def test_m3_general_solve_count(merit_calls):
    # 3,969 of the evaluations are the 441-node budgeted convexity probe
    # (84,980 over the 21^3 grid).
    merit = chain3_merit()
    report = ms.solve_hierarchical(merit, ms.ParameterSplit((0,), (1, 2)))
    assert merit_calls["n"] == 4590
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
    assert merit_calls["n"] == 2968
    assert report.passed


@pytest.mark.parametrize(
    "merit, p0, evaluations, iterations",
    [
        pytest.param(ms.get_problem("SINE_VALLEY").merit, (1.0, 1.0), 65, 4, id="SINE_VALLEY"),
        pytest.param(chain3_merit(), (0.5, -0.5, 0.5), 175, 6, id="chain3"),
    ],
)
def test_solve_direct_counts(merit_calls, merit, p0, evaluations, iterations):
    report = ms.solve_direct(merit, p0)
    assert merit_calls["n"] == report.outer_evaluations == evaluations
    assert report.iterations == iterations


def test_solve_direct_stall_count(merit_calls):
    # The floor term makes F a staircase in p1 whose treads the Newton step
    # overshoots at every step length the line search tries.
    merit = ms.MeritFunction(
        2,
        lambda p: p[0] ** 2 + (p[1] - 0.3) ** 2 + 1e-3 * np.floor(1e4 * p[1]),
        domain_box=[[-1.0, 1.0], [-1.0, 1.0]],
    )
    with pytest.warns(ms.BoundaryStepWarning):
        with pytest.raises(ms.SolveError, match="^direct line search stalled$") as info:
            ms.solve_direct(merit, (0.2, 0.9))
    assert merit_calls["n"] == 126
    assert info.value.best_point is not None and merit.contains(info.value.best_point)


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
    assert info.value.best_y is not None


BOUNDARY_STOP = (
    "the Newton step leaves the eliminated-coordinate box at the iterate; "
    "the slice minimum may lie outside the box"
)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
@pytest.mark.parametrize(
    "command, evaluations",
    [("solve", 1335), ("sections", 1335), ("equivalence", 1335), ("trace", 12)],
)
def test_newton_step_out_of_box_stops_at_once(tmp_path, capsys, merit_calls, command, evaluations):
    # The DEGEN_LINE slice at x = -10 has its minimum y = 12 beyond the box
    # face y = 10: the first Newton step reaches the face and the next one
    # points out of the box, which no step length can enter (3,579, 3,579,
    # 3,579 and 2,256 evaluations when such a slice ran out its 50 Newton
    # iterations).
    argv = ["--problem", "DEGEN_LINE", "--command", command, "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert merit_calls["n"] == evaluations
    assert capsys.readouterr().err.endswith(BOUNDARY_STOP + "\n")


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_newton_boundary_stop_carries_best_iterate(merit_calls):
    merit = ms.get_problem("DEGEN_LINE").merit
    problem = ms.SliceProblem(merit, ms.ParameterSplit((0,), (1,)), [-10.0])
    with pytest.raises(ms.SubMinimizeError) as info:
        ms.subminimize_newton(problem)
    assert str(info.value) == BOUNDARY_STOP
    assert merit_calls["n"] == 12
    assert info.value.iterations == 1
    assert info.value.best_y is not None and info.value.best_y[0] == 10.0


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_direct_boundary_stop_carries_best_point(merit_calls):
    # The minimum (0, 2) lies beyond the face p1 = 1. From p0 = 0 the
    # first step lands on the face, and the next points straight out of it.
    merit = ms.MeritFunction(
        2, lambda p: p[0] ** 2 + (p[1] - 2.0) ** 2, domain_box=[[-1.0, 1.0], [-1.0, 1.0]]
    )
    with pytest.raises(ms.SolveError, match="^direct Newton step leaves the domain box at the iterate; ") as info:
        ms.solve_direct(merit, (0.0, 0.0))
    assert merit_calls["n"] == 28
    assert info.value.best_point is not None and merit.contains(info.value.best_point)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_direct_stops_on_projected_gradient(merit_calls):
    # From p0 = 0.5 the first step lands on the face p1 = 1 with p0 about
    # -9e-12, so each later clipped step still moves the iterate a little;
    # the gradient off the held face is below tolerance there (10,614
    # evaluations in 200 iterations before this stop).
    merit = ms.MeritFunction(
        2, lambda p: p[0] ** 2 + (p[1] - 2.0) ** 2, domain_box=[[-1.0, 1.0], [-1.0, 1.0]]
    )
    with pytest.raises(ms.SolveError, match="^direct Newton step leaves the domain box at the iterate; ") as info:
        ms.solve_direct(merit, (0.5, 0.0))
    assert merit_calls["n"] == 28
    assert info.value.best_point is not None and merit.contains(info.value.best_point)


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_slice_newton_stops_on_projected_gradient(merit_calls):
    # The same face stop on an eliminated block of two coordinates (2,664
    # evaluations in 50 iterations before it).
    merit = ms.MeritFunction(
        3,
        lambda p: p[0] ** 2 + p[1] ** 2 + (p[2] - 2.0) ** 2,
        domain_box=[[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]],
    )
    problem = ms.SliceProblem(merit, ms.ParameterSplit((0,), (1, 2)), [0.2])
    with pytest.raises(ms.SubMinimizeError) as info:
        ms.subminimize_newton(problem, y0=[0.5, 0.0])
    assert str(info.value) == BOUNDARY_STOP
    assert merit_calls["n"] == 28
    assert info.value.iterations == 1
    assert info.value.best_y is not None


def test_section_decreasing_grid_refused_before_probe(entries, merit_calls):
    with pytest.raises(ValueError, match="^grid must be strictly increasing$"):
        ms.minimal_section_1d(entries["QUAD"].merit, 0, np.linspace(1.0, -1.0, 21))
    assert merit_calls["n"] == 0


def test_boxed_catalog_file_counts_once(tmp_path, entries, merit_calls):
    # The file's merit reuses the catalog evaluator, so one call is one
    # evaluation (the census counted 7,280 when the file wrapped the merit).
    box = [[-2.0, 2.0], [-2.0, 2.0]]
    path = tmp_path / "two_wells.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "split": {"x_indices": [0], "y_indices": [1]},
        "domain_box": box,
        "model": {"kind": "catalog", "name": "TWO_WELLS"},
    }))
    merit = ms.load_problem_file(path).merit
    merit([0.5, 0.5])
    assert merit_calls["n"] == 1
    merit_calls["n"] = 0
    ms.find_critical_points(merit)
    assert merit_calls["n"] == 3640
    merit_calls["n"] = 0
    ms.find_critical_points(entries["TWO_WELLS"].merit, box=box)
    assert merit_calls["n"] == 3640
