import itertools
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minsection as ms
from minsection.subminimize import SliceProblem, SliceSolver


def test_probe_sine_valley_positive(entries, split01):
    cert = ms.probe_y_convexity(entries["SINE_VALLEY"].merit, split01, grid_density=9)
    assert cert.positive
    assert cert.verdict == "positive_definite_everywhere_sampled"
    assert cert.min_eig_over_samples == pytest.approx(2.0, abs=1e-3)


def test_probe_degen_line_positive_in_y(entries, split01):
    # hand differentiation: d^2/dy^2 (x + y - 2)^2 = 2; the degeneracy lives
    # in the full Hessian, not the eliminated block
    cert = ms.probe_y_convexity(entries["DEGEN_LINE"].merit, split01, grid_density=9)
    assert cert.positive
    assert cert.min_eig_over_samples == pytest.approx(2.0, abs=1e-3)


def test_probe_neg_y_violated(entries, split01):
    cert = ms.probe_y_convexity(entries["NEG_Y"].merit, split01, grid_density=5)
    assert not cert.positive
    assert cert.verdict == "violated"
    assert cert.witness is not None
    assert cert.witness_min_eig <= 0.0
    assert cert.witness_min_eig == pytest.approx(-2.0, abs=1e-3)


def test_probe_full_convexity(aniso3, entries):
    merit, _ = aniso3
    assert ms.probe_full_convexity(merit, grid_density=5).positive
    assert not ms.probe_full_convexity(entries["TWO_WELLS"].merit, grid_density=7).positive


def test_linear_elimination_exact(entries, split01):
    sub = ms.subminimize_linear(SliceProblem(entries["EXP_FIT"].merit, split01, [-0.5]))
    assert sub.method == "linear_elimination"
    assert sub.y_star[0] == pytest.approx(2.0, abs=1e-12)
    assert sub.value == pytest.approx(0.0, abs=1e-20)
    assert sub.grad_y_norm <= 1e-8
    assert sub.y_hessian_min_eig > 0.0


def test_linear_elimination_constant_basis_is_mean(entries, split01):
    # at x = 0 the single basis map is identically 1, so the optimal
    # coefficient is the sample mean
    from minsection.problems import EXP_FIT_DATA

    sub = ms.subminimize_linear(SliceProblem(entries["EXP_FIT"].merit, split01, [0.0]))
    assert sub.y_star[0] == pytest.approx(float(np.mean(EXP_FIT_DATA)), rel=1e-12)


def test_linear_elimination_wrong_structure(entries, split01):
    with pytest.raises(ValueError, match="linear elimination"):
        ms.subminimize_linear(SliceProblem(entries["QUAD"].merit, split01, [1.0]))


def test_linear_elimination_collinear_basis_at_x():
    # two exponential basis maps coincide at x = 0: the design matrix is
    # rank one there and the solve must report the numerical rank
    model = ms.PartiallyLinearModel(
        basis=(
            lambda t, x: math.exp(x[0] * t),
            lambda t, x: math.exp(2.0 * x[0] * t),
        ),
        t=np.arange(6.0),
        d=np.ones(6),
        nonlinear_dim=1,
    )
    merit = ms.build_partially_linear(model)
    split = ms.ParameterSplit((0,), (1, 2))
    with pytest.raises(ms.RankDeficiencyError) as excinfo:
        ms.subminimize_linear(SliceProblem(merit, split, [0.0]))
    assert excinfo.value.rank == 1
    assert "x = [0.0]: " in str(excinfo.value) and not str(excinfo.value).endswith(" ")
    # away from the collinear point the same model solves fine
    sub = ms.subminimize_linear(SliceProblem(merit, split, [0.4]))
    assert sub.y_hessian_min_eig > 0.0


def test_linear_stack_refuses_at_its_collinear_row():
    # the model above, stacked: the middle row x = 0 is collinear
    model = ms.PartiallyLinearModel(
        basis=(
            lambda t, x: math.exp(x[0] * t),
            lambda t, x: math.exp(2.0 * x[0] * t),
        ),
        t=np.arange(6.0),
        d=np.ones(6),
        nonlinear_dim=1,
    )
    merit = ms.build_partially_linear(model)
    split = ms.ParameterSplit((0,), (1, 2))
    stack = np.array([[-0.4], [-0.2], [0.0], [0.2], [0.4]])
    slices = SliceSolver(merit, split)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ms.RankDeficiencyError, match=r"x = \[0\.0\]: ") as excinfo:
            slices.solve(stack)
    assert (excinfo.value.rank, excinfo.value.required) == (1, 2)
    assert list(slices.solved) == [(-0.4,), (-0.2,)]
    for x in (-0.4, -0.2):
        assert_same_sub(slices.solved[(x,)], ms.subminimize_linear(SliceProblem(merit, split, [x])))


def test_newton_sine_valley(entries, split01):
    sub = ms.subminimize_newton(
        SliceProblem(entries["SINE_VALLEY"].merit, split01, [1.0]), y0=[0.0]
    )
    assert sub.y_star[0] == pytest.approx(math.sin(1.0), abs=1e-8)
    assert sub.method == "newton"
    assert sub.grad_y_norm <= sub.inner_tol


def test_newton_quad(entries, split01):
    sub = ms.subminimize_newton(SliceProblem(entries["QUAD"].merit, split01, [3.0]), y0=[5.0])
    assert sub.y_star[0] == pytest.approx(0.0, abs=1e-9)
    assert sub.value == pytest.approx(9.0, rel=1e-12)


def test_newton_two_wells(entries, split01):
    sub = ms.subminimize_newton(
        SliceProblem(entries["TWO_WELLS"].merit, split01, [0.5]), y0=[-2.0]
    )
    assert sub.y_star[0] == pytest.approx(0.5, abs=1e-9)
    assert sub.value == pytest.approx(0.5625, rel=1e-10)


def test_newton_refuses_concave_block(entries, split01):
    with pytest.raises(ms.ConvexityError):
        ms.subminimize_newton(SliceProblem(entries["NEG_Y"].merit, split01, [1.0]), y0=[1.0])


def test_newton_max_iter_carries_best(entries, split01, monkeypatch):
    monkeypatch.setattr(ms.subminimize, "MAX_NEWTON_ITERATIONS", 0)
    with pytest.raises(ms.SubMinimizeError) as excinfo:
        ms.subminimize_newton(
            SliceProblem(entries["SINE_VALLEY"].merit, split01, [1.0]),
            y0=[8.0],
        )
    assert excinfo.value.best_y is not None
    assert excinfo.value.grad_norm is not None


def test_newton_certifies_each_stop_at_its_own_value():
    # F = x^2 + exp(y): from y0 = 400 each Newton step lowers y by about 1,
    # so 50 iterations end far from the face y = -800 where the slice
    # minimum lies. A tolerance taken from F(x, y0) = exp(400) would
    # certify y = 354. The squared gradient norm at y0 overflows: it must
    # read inf, not warn.
    merit = ms.build_residual_merit(
        (lambda p: p[0], lambda p: math.exp(0.5 * p[1])),
        2,
        box=np.array([[-1.0, 1.0], [-800.0, 800.0]]),
    )
    problem = SliceProblem(merit, ms.ParameterSplit((0,), (1,)), [0.0])
    with pytest.raises(ms.SubMinimizeError, match="no convergence within 50") as excinfo:
        ms.subminimize_newton(problem, y0=[400.0])
    assert excinfo.value.best_y[0] > 300.0


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_slice_refusal_carries_its_full_point(entries, split01):
    problem = SliceProblem(entries["DEGEN_LINE"].merit, split01, [-10.0])
    with pytest.raises(ms.SubMinimizeError) as excinfo:
        ms.subminimize_newton(problem)
    best = excinfo.value.best_y
    assert excinfo.value.point.tolist() == problem.point(best).tolist() == [-10.0, 10.0]


@pytest.mark.parametrize(
    "x_indices, x, y0, where, point",
    [
        # the central gradient stencil about p1 = 2 meets the wall
        ((0, 2), [0.5, 0.3], [2.0], "gradient entry at coordinate 1", [0.5, 2.0, 0.3]),
        ((0,), [0.5], [2.0, 0.3], "gradient entry at coordinate 1", [0.5, 2.0, 0.3]),
        # the gradient stencil fits below the wall, the second difference does not
        ((0, 2), [0.5, 0.3], [1.9999], "Hessian entry at coordinate pair (1, 1)",
         [0.5, 1.9999, 0.3]),
        ((0,), [0.5], [1.9999, 0.3], "Hessian entry at coordinate pair (1, 1)",
         [0.5, 1.9999, 0.3]),
    ],
    ids=["gradient_m1", "gradient_m2", "hessian_m1", "hessian_m2"],
)
def test_slice_stencil_error_carries_its_full_point(x_indices, x, y0, where, point):
    # p0^2 + (p1 - 1)^2 + p2^2, infinite for p1 > 2: a slice's non-finite
    # stencil entry is named by its parameter index, at the full point
    merit = ms.build_residual_merit(
        (lambda p: p[0], lambda p: p[1] - 1.0, lambda p: p[2],
         lambda p: math.inf if p[1] > 2.0 else 0.0),
        3,
        box=np.array([[-3.0, 3.0]] * 3),
    )
    split = ms.ParameterSplit(x_indices, tuple(i for i in range(3) if i not in x_indices))
    with pytest.raises(ms.numerics.NonFiniteValueError) as info:
        ms.subminimize_newton(SliceProblem(merit, split, x), y0=y0)
    assert str(info.value) == f"non-finite {where}"
    assert info.value.point.tolist() == point
    assert info.value.coordinates == tuple(int(c) for c in where if c.isdigit())


def test_slice_problem_validates_x(entries, split01):
    with pytest.raises(ValueError, match="outside"):
        SliceProblem(entries["QUAD"].merit, split01, [11.0])


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_slice_problem_refuses_non_finite_x(entries, split01, x):
    # Every comparison with NaN is false, so a box check alone lets it in.
    with pytest.raises(ValueError, match="finite"):
        SliceProblem(entries["QUAD"].merit, split01, [x])


def test_conditional_minimality(entries, split01):
    # F(x, y*) <= F(x, y) for random y, strictly unless y == y*
    rng = np.random.default_rng(2)
    for name in ("SINE_VALLEY", "QUAD", "EXP_FIT"):
        merit = entries[name].merit
        xbox = split01.x_box(merit.domain_box)
        ybox = split01.y_box(merit.domain_box)
        x = rng.uniform(xbox[0, 0], xbox[0, 1])
        sub = ms.solve_slice(merit, split01, [x])
        for _ in range(200):
            y = rng.uniform(ybox[0, 0], ybox[0, 1])
            value = merit(split01.embed([x], [y]))
            if abs(y - sub.y_star[0]) > 1e-6:
                assert value > sub.value, name
            else:
                assert value >= sub.value - 1e-12


def test_certificate_soundness(entries, split01):
    # independent FD recomputation agrees with the stored derivative norm
    for name in ("SINE_VALLEY", "EXP_FIT", "TWO_WELLS"):
        merit = entries[name].merit
        sub = ms.solve_slice(merit, split01, [0.3])
        problem = SliceProblem(merit, split01, [0.3])
        recomputed = np.linalg.norm(
            ms.fd_gradient(problem.value, sub.y_star, box=problem.y_box())
        )
        assert abs(recomputed - sub.grad_y_norm) <= 10.0 * sub.inner_tol, name


def test_linear_vs_newton_equivalence(entries, split01):
    merit = entries["EXP_FIT"].merit
    rng = np.random.default_rng(9)
    for x in (-0.5, -0.2, 0.3):
        problem = SliceProblem(merit, split01, [x])
        exact = ms.subminimize_linear(problem)
        for _ in range(10):
            y0 = rng.uniform(-5.0, 5.0, size=1)
            newton = ms.subminimize_newton(problem, y0=y0)
            assert abs(newton.y_star[0] - exact.y_star[0]) <= 1e-6


def test_probe_density_validation(entries, split01):
    with pytest.raises(ValueError, match="density"):
        ms.probe_y_convexity(entries["QUAD"].merit, split01, grid_density=2)


def test_probe_density_defaults():
    from minsection.subminimize import default_probe_density

    assert default_probe_density(2) == 21
    assert default_probe_density(4) == 21
    assert default_probe_density(5) == 7
    assert default_probe_density(8) == 7


def test_slice_solves_order_independent(entries, split01):
    # pure solves: sweeping in either order gives bitwise-equal results
    merit = entries["SINE_VALLEY"].merit
    xs = [-1.0, 0.3, 2.0]
    forward = [ms.solve_slice(merit, split01, [x]).y_star[0] for x in xs]
    backward = [ms.solve_slice(merit, split01, [x]).y_star[0] for x in reversed(xs)]
    assert forward == list(reversed(backward))


def test_repeated_slice_is_not_solved_again(entries, split01):
    solver = SliceSolver(entries["SINE_VALLEY"].merit, split01)
    first = solver.solve(np.array([0.3]))
    assert solver.solve([0.3]) is first
    assert solver.solves == 1
    # another x is a new solve
    solver.solve([0.4])
    assert solver.solves == 2


def test_revisited_slice_is_not_solved_again(entries, split01, monkeypatch):
    starts = []
    newton = ms.subminimize._newton_rows

    def recording_newton(merit, split, xs, ys, inner_tol=None):
        starts.append(float(np.asarray(ys)[0, 0]))
        return newton(merit, split, xs, ys, inner_tol)

    monkeypatch.setattr(ms.subminimize, "_newton_rows", recording_newton)
    merit = entries["SINE_VALLEY"].merit
    solver = SliceSolver(merit, split01)
    first = solver.solve([0.3])
    second = solver.solve([0.4])
    assert solver.solve([0.3]) is first
    assert solver.solves == 2
    # the last two results returned, the revisited one included, predict the
    # next start on their secant: x = 0.5 lies two spacings from x1 = 0.3
    solver.solve([0.5])
    y3, y4 = float(first.y_star[0]), float(second.y_star[0])
    # the first solve starts from the center of the y-box
    assert starts[:2] == [float(split01.y_box(merit.domain_box).mean()), y3]
    assert starts[2] == pytest.approx(y3 + 2.0 * (y4 - y3), rel=1e-12)
    assert second.y_star[0] != first.y_star[0]
    # two results at one x, both revisits, span no line: the next start is
    # the last result
    assert solver.solve([0.4]) is second
    assert solver.solve([0.4]) is second
    assert solver.solves == 3
    third = solver.solve([1.0])
    assert starts[3] == y4
    # more than two spacings from the last x: the last result again
    solver.solve([2.3])
    assert starts[4] == float(third.y_star[0])


def test_secant_start_on_a_linear_implicit_graph(aniso3, monkeypatch):
    # For a quadratic merit y*(x) is linear, so a secant start on the line
    # of the last two x is the slice minimum itself; off that line the
    # start is the last result.
    iterations = []
    newton = ms.subminimize._newton_rows

    def recording_newton(merit, split, xs, ys, inner_tol=None):
        for sub in newton(merit, split, xs, ys, inner_tol):
            iterations.append(sub.iterations)
            yield sub

    monkeypatch.setattr(ms.subminimize, "_newton_rows", recording_newton)
    merit, _ = aniso3
    solver = SliceSolver(merit, ms.ParameterSplit((0, 1), (2,)))
    for x in ([1.0, 1.0], [2.0, 0.0], [3.0, -1.0], [4.0, 2.0], [5.0, 5.0]):
        solver.solve(x)
    # [3, -1] and [5, 5] lie on the line of the two x before them, [4, 2] does not
    assert [it == 0 for it in iterations] == [False, False, True, False, True]


# -- sample budget of the convexity probe ----------------------------------


def recording_merit(residuals, dimension, box):
    """Residual merit that records every point it is evaluated at."""
    seen = []

    def first(p):
        seen.append(np.array(p, dtype=float))
        return residuals[0](p)

    merit = ms.build_residual_merit((first,) + tuple(residuals[1:]), dimension, box=box)
    return merit, seen


def chain_residuals(dimension):
    """(p0 - 0.3, p1 - sin p0, p2 - p0 p1, p3 - p1 p2, ...)."""
    residuals = [lambda p: p[0] - 0.3, lambda p: p[1] - math.sin(p[0])]
    residuals += [lambda p, k=k: p[k] - p[k - 2] * p[k - 1] for k in range(2, dimension)]
    return tuple(residuals)


def m3_merit():
    return ms.build_residual_merit(chain_residuals(3), 3, box=np.array([[-2.0, 2.0]] * 3))


def probe_cases(entries):
    """The 12 catalog single-coordinate splits and all six M = 3 splits."""
    cases = [
        (entry.merit, ms.ParameterSplit.single(i, 2)) for entry in entries.values() for i in (0, 1)
    ]
    for x in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
        cases.append((m3_merit(), ms.ParameterSplit(x, tuple(i for i in range(3) if i not in x))))
    return cases


def test_default_probe_at_m4_samples_the_budget():
    from minsection.subminimize import PROBE_BUDGET

    merit, seen = recording_merit(chain_residuals(4), 4, np.array([[-2.0, 2.0]] * 4))
    cert = ms.probe_y_convexity(merit, ms.ParameterSplit((0,), (1, 2, 3)))
    assert PROBE_BUDGET == 441
    assert cert.plan == "halton" and cert.grid_density is None
    assert cert.sampled_points == 441
    # 19 evaluations per 3 x 3 block: 21^4 grid nodes cost 3,695,139
    assert len(seen) == 441 * 19


def test_explicit_density_keeps_the_full_grid():
    cert = ms.probe_y_convexity(m3_merit(), ms.ParameterSplit((0,), (1, 2)), grid_density=9)
    assert cert.plan == "grid" and cert.grid_density == 9
    assert cert.sampled_points == 729


def test_budgeted_probe_verdicts_match_the_full_grid(entries):
    for merit, split in probe_cases(entries):
        budgeted = ms.probe_y_convexity(merit, split)
        assert budgeted.sampled_points <= 441
        assert budgeted.positive == ms.probe_y_convexity(merit, split, grid_density=21).positive


def test_budgeted_probe_stays_in_the_box():
    box = np.array([[0.1, 0.4], [-0.3, 0.2], [0.5, 0.6], [-1.0, -0.9]])
    merit, seen = recording_merit(chain_residuals(4), 4, box)
    assert ms.probe_y_convexity(merit, ms.ParameterSplit((0, 1), (2, 3))).plan == "halton"
    assert ms.probe_full_convexity(merit).plan == "halton"
    points = np.array(seen)
    assert np.all(points >= box[:, 0]) and np.all(points <= box[:, 1])


def test_budgeted_probe_is_deterministic():
    split = ms.ParameterSplit((1,), (0, 2))
    first = ms.probe_y_convexity(m3_merit(), split)
    second = ms.probe_y_convexity(m3_merit(), split)
    assert first.plan == "halton" and not first.positive
    assert np.array_equal(first.witness, second.witness)
    assert replace(first, witness=None) == replace(second, witness=None)


def test_violated_certificates_carry_a_violating_witness(entries):
    from minsection.numerics import fd_y_block
    from minsection.subminimize import PD_TOL

    violated = 0
    for merit, split in probe_cases(entries):
        cert = ms.probe_y_convexity(merit, split)
        if cert.positive:
            continue
        violated += 1
        w = np.linalg.eigvalsh(fd_y_block(merit, cert.witness, split))
        assert cert.witness_min_eig == w[0]
        assert cert.witness_min_eig <= PD_TOL * max(1.0, float(np.max(np.abs(w))))
    assert violated == 7


# -- the batched probe against a per-node reference -------------------------


def reference_probe(merit, split, grid_density=None, full_density=7):
    """The probe one node at a time: each block from the scalar
    ``fd_y_block`` or ``_second_diff_block``, each spectrum from its own
    ``eigvalsh``. ``split is None`` is the full-Hessian probe."""
    from minsection.numerics import _second_diff_block, fd_y_block
    from minsection.subminimize import PD_TOL, PROBE_BUDGET, _halton, default_probe_density
    from minsection.subminimize import linear_elimination_applies

    default = full_density if split is None else default_probe_density(merit.dimension)
    if split is not None and linear_elimination_applies(merit, split):
        axes = list(split.x_indices)
    else:
        axes = list(range(merit.dimension))
    box = merit.domain_box
    axes_box = box[axes]
    if grid_density is None and default ** len(axes_box) > PROBE_BUDGET:
        plan, density = "halton", None
        lo, hi = axes_box[:, 0], axes_box[:, 1]
        halton = lo + _halton(PROBE_BUDGET, len(axes_box)) * (hi - lo)
        nodes = itertools.islice(
            itertools.chain([axes_box.mean(axis=1)], itertools.product(*axes_box), halton),
            PROBE_BUDGET,
        )
    else:
        plan, density = "grid", default if grid_density is None else grid_density
        nodes = itertools.product(*(np.linspace(lo, hi, density) for lo, hi in axes_box))
    worst, worst_point, violated, count = np.inf, None, False, 0
    p = box.mean(axis=1)
    for node in nodes:
        p[axes] = node
        if split is None:
            block, _, _ = _second_diff_block(merit, p, tuple(range(merit.dimension)), box)
        else:
            block = fd_y_block(merit, p, split)
        w = np.linalg.eigvalsh(block)
        if w[0] <= PD_TOL * max(1.0, float(np.max(np.abs(w)))):
            violated = True
        if w[0] < worst:
            worst, worst_point = float(w[0]), p.copy()
        count += 1
    return ms.ConvexityCertificate(
        split=split,
        sampled_points=count,
        min_eig_over_samples=worst,
        positive=not violated,
        witness=worst_point if violated else None,
        witness_min_eig=worst if violated else None,
        grid_density=density,
        plan=plan,
    )


@pytest.fixture
def merit_calls(monkeypatch):
    """A list that grows by a copy of the point on every merit evaluation."""
    calls = []
    evaluate = ms.MeritFunction.__call__

    def counted(merit, p):
        calls.append(np.array(p, dtype=float))
        return evaluate(merit, p)

    monkeypatch.setattr(ms.MeritFunction, "__call__", counted)
    return calls


def outcome(calls, probe, *args):
    """(certificate or (error type, message, point), the points evaluated,
    in order, as one array)."""
    before = len(calls)
    try:
        result = probe(*args)
    except ValueError as err:
        point = getattr(err, "point", None)
        result = (type(err), str(err), None if point is None else point.tolist())
    return result, np.array(calls[before:])


def assert_same_probe(calls, merit, split, grid_density=None):
    if split is None:
        batched = outcome(calls, ms.probe_full_convexity, merit, grid_density)
    else:
        batched = outcome(calls, ms.probe_y_convexity, merit, split, grid_density)
    reference = outcome(calls, reference_probe, merit, split, grid_density)
    (got, got_points), (want, want_points) = batched, reference
    # the same points, bit for bit, in the same order
    assert got_points.shape == want_points.shape
    assert got_points.tobytes() == want_points.tobytes()
    if isinstance(want, tuple):
        assert got == want
        return want
    assert got.plan == want.plan and got.grid_density == want.grid_density
    assert got.sampled_points == want.sampled_points
    assert got.min_eig_over_samples == want.min_eig_over_samples
    assert got.positive == want.positive
    assert got.witness_min_eig == want.witness_min_eig
    assert (got.witness is None) == (want.witness is None)
    assert want.witness is None or np.array_equal(got.witness, want.witness)
    return want


def test_batched_probe_matches_per_node_reference(entries, merit_calls):
    catalog = [(e.merit, ms.ParameterSplit.single(i, 2)) for e in entries.values() for i in (0, 1)]
    assert len(catalog) == 12
    for merit, split in catalog:
        assert_same_probe(merit_calls, merit, split)
        assert_same_probe(merit_calls, merit, split, grid_density=9)
    for merit, split in probe_cases(entries)[12:]:
        assert_same_probe(merit_calls, merit, split)
    m4 = ms.build_residual_merit(chain_residuals(4), 4, box=np.array([[-2.0, 2.0]] * 4))
    assert assert_same_probe(merit_calls, m4, ms.ParameterSplit((0,), (1, 2, 3))).plan == "halton"
    plans = [assert_same_probe(merit_calls, e.merit, None).plan for e in entries.values()]
    plans += [assert_same_probe(merit_calls, m, None).plan for m in (m3_merit(), m4)]
    assert plans[-2:] == ["grid", "halton"]


def test_chunked_grid_probe_matches_per_node_reference(entries, merit_calls):
    # explicit grids of more than PROBE_BUDGET nodes are probed in chunks,
    # their nodes in itertools.product order across the chunk boundaries
    assert_same_probe(merit_calls, m3_merit(), ms.ParameterSplit((0,), (1, 2)), grid_density=9)
    assert_same_probe(merit_calls, m3_merit(), None, grid_density=8)
    exp_fit = entries["EXP_FIT"].merit
    assert assert_same_probe(merit_calls, exp_fit, ms.ParameterSplit.single(0, 2), 900).positive


def test_batched_probe_raises_as_the_reference(merit_calls):
    def island(p):
        return p[0] ** 2 + p[1] ** 2 if p[0] + p[1] < 1.5 else math.nan

    def cliff(p):
        # finite everywhere, but a stencil across p0 + p1 = 1 overflows its block
        return 1e305 if p[0] + p[1] > 1.0 else p[0] ** 2 + p[1] ** 2

    for evaluate in (island, cliff):
        merit = ms.MeritFunction(2, evaluate, domain_box=[[-2.0, 2.0]] * 2)
        for split in (None, ms.ParameterSplit.single(0, 2)):
            # the scalar reference warns where the cliff's block overflows
            with np.errstate(over="ignore"):
                error = assert_same_probe(merit_calls, merit, split, grid_density=5)
            assert error[0] is ms.numerics.NonFiniteValueError
    # a box thinner than the stencil along coordinate 1 only near its top
    merit = ms.MeritFunction(2, lambda p: p @ p, domain_box=[[-2.0, 2.0], [1000.0, 1000.4884]])
    before = len(merit_calls)
    error = assert_same_probe(merit_calls, merit, None, grid_density=5)
    assert error[:2] == (ValueError, "domain box is thinner than the FD stencil along coordinate 1")
    assert len(merit_calls) > before


def test_explicit_density_probe_works_one_chunk_at_a_time():
    import tracemalloc

    merit = m3_merit()
    ms.probe_full_convexity(merit, grid_density=3)
    tracemalloc.start()
    try:
        cert = ms.probe_full_convexity(merit, grid_density=15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.sampled_points == 3375
    # the stencil of the whole grid: 3,375 nodes x 19 points x 3 coordinates
    assert peak < 3375 * 19 * 3 * 8


def load_fit_file(tmp_path, t, x_box, basis, offset=None):
    """A partially linear problem file over samples ``t`` (data 0.5)."""
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "\n".join(f"{float(tk)!r},0.5" for tk in t) + "\n", encoding="utf-8"
    )
    model = {"kind": "partially_linear", "basis": basis}
    if offset is not None:
        model["offset"] = offset
    doc = {
        "dimension": len(x_box) + len(basis),
        "domain_box": [list(b) for b in x_box] + [[-5.0, 5.0]] * len(basis),
        "model": model,
        "data_file": "obs.csv",
    }
    path = tmp_path / "fit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    definition = ms.load_problem_file(path)
    return definition.merit, definition.split


def test_batched_closed_form_probe_matches_per_node_reference(tmp_path, merit_calls):
    every_term = [
        {"type": "polynomial", "degree": 2, "scale": 0.5},
        {"type": "exponential", "rate_index": 0},
        {"type": "sinusoid", "fn": "sin", "frequency_index": 0},
        {"type": "sinusoid", "fn": "cos", "frequency_index": 0, "scale": 2.0},
        {"type": "constant", "scale": 3.0},
    ]
    one_rate = load_fit_file(tmp_path, np.linspace(0.0, 3.0, 400), [(-1.0, 1.5)], every_term)
    assert assert_same_probe(merit_calls, *one_rate).sampled_points == 7
    assert_same_probe(merit_calls, *one_rate, grid_density=21)
    biexp = load_fit_file(
        tmp_path,
        np.linspace(0.0, 4.0, 20),
        [(-3.0, -0.1), (-1.0, 0.5)],
        [{"type": "exponential", "rate_index": i} for i in (0, 1)],
    )
    assert assert_same_probe(merit_calls, *biexp).sampled_points == 441
    three_rates = load_fit_file(
        tmp_path,
        np.linspace(0.0, 3.0, 12),
        [(-2.0, 0.5), (-1.0, 1.0), (0.5, 2.0)],
        [{"type": "exponential", "rate_index": 0}],
        offset=[
            {"type": "exponential", "rate_index": 1},
            {"type": "sinusoid", "fn": "sin", "frequency_index": 2},
        ],
    )
    assert assert_same_probe(merit_calls, *three_rates).plan == "halton"
    # scalar basis and offset maps on a 6-D quadratic, n = 3
    rows = np.linalg.cholesky(np.eye(6) + 0.3).T
    model = ms.PartiallyLinearModel(
        basis=tuple(lambda tk, x, j=j: float(rows[int(tk), j]) for j in range(3, 6)),
        t=np.arange(6.0),
        d=np.ones(6),
        nonlinear_dim=3,
        offset=lambda tk, x: float(rows[int(tk), :3] @ x),
    )
    scalar = ms.build_partially_linear(model)
    assert assert_same_probe(merit_calls, scalar, ms.ParameterSplit((0, 1, 2), (3, 4, 5))).positive
    assert merit_calls == []


def test_batched_closed_form_probe_raises_as_the_reference(merit_calls, monkeypatch):
    # Every basis value is finite on the rate box [-2, 17] (exp(17 * 39) is
    # about 1e288), but 2 Phi^T Phi overflows from a rate of about 9.1 up.
    model = ms.PartiallyLinearModel(
        basis=(lambda tk, x: math.exp(x[0] * tk),),
        t=np.arange(40.0),
        d=np.ones(40),
        nonlinear_dim=1,
    )
    merit = ms.build_partially_linear(model, box=[[-2.0, 17.0], [-10.0, 10.0]])
    split = ms.ParameterSplit((0,), (1,))
    error = assert_same_probe(merit_calls, merit, split)
    assert error[:2] == (
        ms.numerics.NonFiniteValueError, "non-finite closed-form eliminated-block Hessian"
    )
    # three nodes per stacked design matrix: the overflow starts in a later slice
    monkeypatch.setattr(ms.subminimize, "STACK_VALUES", 3 * 40)
    assert assert_same_probe(merit_calls, merit, split) == error
    assert assert_same_probe(merit_calls, merit, split, grid_density=7) != error
    assert merit_calls == []


def test_closed_form_probe_bounds_its_design_matrix_stack(tmp_path):
    import tracemalloc

    t = np.linspace(0.0, 10.0, 5000)
    merit, split = load_fit_file(
        tmp_path,
        t,
        [(-3.0, -0.1), (-1.0, 0.5)],
        [{"type": "exponential", "rate_index": i} for i in (0, 1)],
    )
    tracemalloc.start()
    try:
        cert = ms.probe_y_convexity(merit, split)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.sampled_points == 441
    # the unsliced stack alone, 441 nodes x 5,000 samples x 2 columns, is 35 MB
    assert peak < 16 * 2**20


def reference_linear(merit, split, x):
    """The node-by-node linear elimination: one design matrix, one
    least-squares solve, one ``2 Phi^T Phi`` and one ``eigvalsh`` per x."""
    model = merit.model
    phi = model.design_matrix(x)
    b = model.d - model.offsets(x)
    y_star = ms.numerics.linear_lsq_solve(phi, b)
    grad = 2.0 * phi.T @ (phi @ y_star - b)
    w = np.linalg.eigvalsh(2.0 * phi.T @ phi)
    value = merit(split.embed(x, y_star))
    return ms.SubMinimum(
        y_star=y_star,
        value=value,
        grad_y_norm=float(np.linalg.norm(grad)),
        y_hessian_min_eig=float(w[0]),
        method="linear_elimination",
        iterations=0,
        inner_tol=ms.subminimize.default_inner_tol(value),
        y_index=int(np.count_nonzero(w < -1e-8 * max(1.0, abs(w[-1])))),
    )


def assert_same_sub(got, want):
    assert np.array_equal(got.y_star, want.y_star)
    for field in ("value", "grad_y_norm", "y_hessian_min_eig", "y_index", "inner_tol",
                  "method", "iterations"):
        assert getattr(got, field) == getattr(want, field), field


def stacked_cases(tmp_path, entries):
    """(merit, split, stack) for every basis kind of the stacked solve."""
    rng = np.random.default_rng(3)
    exp_fit = entries["EXP_FIT"].merit
    exp_split = ms.model_split(exp_fit)
    lo, hi = exp_split.x_box(exp_fit.domain_box)[0]
    cases = [(exp_fit, exp_split, np.linspace(lo, hi, 21)[:, None])]
    biexp = load_fit_file(
        tmp_path,
        np.linspace(0.0, 4.0, 20),
        [(-3.0, -0.1), (-1.0, 0.5)],
        [{"type": "exponential", "rate_index": i} for i in (0, 1)],
    )
    cases.append((*biexp, np.column_stack([np.linspace(-3.0, -0.1, 21), np.full(21, 0.25)])))
    frequency = load_fit_file(
        tmp_path,
        0.05 * np.arange(400),
        [(0.7, 1.3)],
        [
            {"type": "sinusoid", "fn": "sin", "frequency_index": 0},
            {"type": "sinusoid", "fn": "cos", "frequency_index": 0},
            {"type": "constant"},
        ],
    )
    cases.append((*frequency, np.linspace(0.7, 1.3, 21)[:, None]))
    # offset terms: the stacked vectorized branch of PartiallyLinearModel.offsets
    offset_fit = load_fit_file(
        tmp_path,
        np.linspace(0.0, 3.0, 30),
        [(-1.0, 0.5)],
        [{"type": "exponential", "rate_index": 0}, {"type": "constant"}],
        offset=[
            {"type": "polynomial", "degree": 2, "scale": 0.3},
            {"type": "sinusoid", "fn": "sin", "frequency_index": 0},
        ],
    )
    cases.append((*offset_fit, np.linspace(-1.0, 0.5, 21)[:, None]))
    rows = np.linalg.cholesky(np.eye(6) + 0.3).T
    model = ms.PartiallyLinearModel(
        basis=tuple(lambda tk, x, j=j: float(rows[int(tk), j]) for j in range(3, 6)),
        t=np.arange(6.0),
        d=np.ones(6),
        nonlinear_dim=3,
        offset=lambda tk, x: float(rows[int(tk), :3] @ x),
    )
    cases.append((
        ms.build_partially_linear(model),
        ms.ParameterSplit((0, 1, 2), (3, 4, 5)),
        rng.uniform(-5.0, 5.0, size=(21, 3)),
    ))
    return cases


def test_stacked_linear_solve_matches_per_node(tmp_path, entries, merit_calls):
    for merit, split, stack in stacked_cases(tmp_path, entries):
        slices = SliceSolver(merit, split)
        before = len(merit_calls)
        stacked = slices.solve(stack)
        assert len(merit_calls) == before
        assert len(stack) == slices.solves == len(stacked)
        for x, sub in zip(stack, stacked):
            assert_same_sub(sub, ms.subminimize_linear(SliceProblem(merit, split, x)))
            assert_same_sub(sub, reference_linear(merit, split, x))
            assert slices.solve(x) is sub
        assert slices.solves == len(stack)


def test_linear_rows_make_no_merit_call(tmp_path, entries, merit_calls):
    # A linear row's value is the squared norm of the residual its solve
    # holds: bitwise the merit at (x, y*), with no merit evaluation.
    for merit, split, stack in stacked_cases(tmp_path, entries):
        stacked = SliceSolver(merit, split).solve(stack)
        alone = [SliceSolver(merit, split).solve(x) for x in stack]
        alone.append(ms.subminimize_linear(SliceProblem(merit, split, stack[0])))
        assert merit_calls == []
        for x, sub in zip(stack, stacked):
            assert sub.value == merit(split.embed(x, sub.y_star))
        for x, sub in zip(stack, alone):
            assert sub.value == merit(split.embed(x, sub.y_star))
        merit_calls.clear()


def test_stacked_linear_solve_refuses_as_per_node(entries, merit_calls):
    merit = entries["EXP_FIT"].merit
    split = ms.model_split(merit)
    lo, hi = split.x_box(merit.domain_box)[0]
    grid = np.linspace(lo, hi, 9)[:, None]
    # each stack with the index of its first invalid row
    for bad, k in (
        (np.vstack([grid, [[hi + 1.0]]]), 9),
        (np.vstack([grid[:4], [[np.nan]], grid[4:]]), 4),
        (np.vstack([grid[:2], [[np.inf]], [[lo - 1.0]]]), 2),
        (np.column_stack([grid, grid]), 0),
    ):
        slices = SliceSolver(merit, split)
        with pytest.raises(ValueError) as per_node:
            SliceProblem(merit, split, bad[k])
        with pytest.raises(ValueError) as stacked:
            slices.solve(bad)
        assert str(stacked.value) == str(per_node.value)
        assert slices.solves == 0 and slices.solved == {}
    assert merit_calls == []


def test_stacked_linear_solve_skips_solved_rows(entries, merit_calls):
    merit = entries["EXP_FIT"].merit
    split = ms.model_split(merit)
    lo, hi = split.x_box(merit.domain_box)[0]
    grid = np.linspace(lo, hi, 11)[:, None]
    slices = SliceSolver(merit, split)
    known = slices.solve(grid[5])
    assert slices.solves == 1 and merit_calls == []
    stack = np.vstack([grid, grid[2:4]])
    stacked = slices.solve(stack)
    assert stacked[5] is known
    assert stacked[11] is stacked[2] and stacked[12] is stacked[3]
    assert slices.solves == 11 and merit_calls == []
    assert all(again is sub for again, sub in zip(slices.solve(stack), stacked))
    assert slices.solves == 11 and merit_calls == []


def test_stacked_linear_solve_is_cut_at_the_stack_cap(tmp_path, entries, monkeypatch):
    merit, split, stack = stacked_cases(tmp_path, entries)[1]
    whole = SliceSolver(merit, split).solve(stack)
    sizes = []
    design_matrix = ms.PartiallyLinearModel.design_matrix

    def recorded(model, x):
        if np.ndim(x) == 2:
            sizes.append(len(x))
        return design_matrix(model, x)

    monkeypatch.setattr(ms.PartiallyLinearModel, "design_matrix", recorded)
    # four x rows per stack: 20 samples x (2 + 2 + 5) values each, the
    # design matrix, the SVD's U and five (N, T) arrays
    monkeypatch.setattr(ms.subminimize, "STACK_VALUES", 4 * 20 * (2 + 2 + 5) + 7)
    cut = SliceSolver(merit, split).solve(stack)
    assert sizes == [4, 4, 4, 4, 4, 1]
    for got, want in zip(cut, whole):
        assert_same_sub(got, want)


# -- stacked Newton slices against one-row solves ---------------------------


def steep_line_merit():
    """x^2 + (y - 3x)^2 on [-2, 2] x [-5, 5]: the slice minimum y = 3x lies
    beyond a face of the y-box for |x| > 5/3."""
    return ms.build_residual_merit(
        (lambda p: p[0], lambda p: p[1] - 3.0 * p[0]), 2, box=np.array([[-2.0, 2.0], [-5.0, 5.0]])
    )


def walled_merit():
    """x^2 + (y - 3x)^2 on [-2, 2] x [-5, 5], infinite above y = 4.2."""
    return ms.build_residual_merit(
        (lambda p: p[0], lambda p: p[1] - 3.0 * p[0], lambda p: math.inf if p[1] > 4.2 else 0.0),
        2,
        box=np.array([[-2.0, 2.0], [-5.0, 5.0]]),
    )


def newton_stack_cases(entries):
    """(merit, split, x rows, starts) stacks of Newton slices."""
    rng = np.random.default_rng(11)
    sine = entries["SINE_VALLEY"].merit
    chain = m3_merit()
    steep = steep_line_merit()
    return [
        (sine, ms.ParameterSplit((0,), (1,)), rng.uniform(-10.0, 10.0, (9, 1)),
         rng.uniform(-10.0, 10.0, (9, 1))),
        (chain, ms.ParameterSplit((0,), (1, 2)), rng.uniform(-2.0, 2.0, (7, 1)),
         rng.uniform(-2.0, 2.0, (7, 2))),
        # starts on and next to the faces y = +-5 clamp their first gradient
        # stencils; the rows at x = +-1.9 end at a face
        (steep, ms.ParameterSplit((0,), (1,)), np.array([[-1.9], [-1.0], [0.3], [1.2], [1.9]]),
         np.array([[5.0], [-5.0], [5.0 - 1e-9], [0.0], [5.0]])),
        # the merit is infinite above y = 4.2: the first gradient stencil, the
        # first second-difference stencil or the start itself meets the wall
        (walled_merit(), ms.ParameterSplit((0,), (1,)), np.array([[0.0], [0.5], [1.0], [1.3]]),
         np.array([[4.2 - 1e-5], [4.2 - 3e-4], [0.0], [4.3]])),
        # a lone row, as SliceSolver hands a one-row level to the row loop:
        # started on the face y = 5, it clamps its first gradient stencil
        # and ends at that face
        (steep, ms.ParameterSplit((0,), (1,)), np.array([[1.9]]), np.array([[5.0]])),
        # p0^2 + (p1^2 - p0)^2: the y-block 12 y^2 - 4 x is -1.88 at the start
        # of the row x = 0.5, which is refused there; the other two rows
        # converge
        (ms.build_residual_merit((lambda p: p[0], lambda p: p[1] ** 2 - p[0]), 2,
                                 box=np.array([[-2.0, 2.0], [-2.0, 2.0]])),
         ms.ParameterSplit((0,), (1,)), np.array([[-1.0], [0.5], [-0.5]]),
         np.array([[0.1], [0.1], [0.3]])),
        # the same with a second eliminated coordinate, p0^2 + (p1^2 - p0)^2
        # + p2^2: the m = 2 step refuses the row x = 0.5 and solves the
        # other two
        (ms.build_residual_merit((lambda p: p[0], lambda p: p[1] ** 2 - p[0], lambda p: p[2]), 3,
                                 box=np.array([[-2.0, 2.0]] * 3)),
         ms.ParameterSplit((0,), (1, 2)), np.array([[-1.0], [0.5], [-0.5]]),
         np.array([[0.1, 0.3], [0.1, 0.3], [0.3, -0.2]])),
    ]


def newton_outcome(calls, solve):
    """(result or (error type, message), merit evaluations, warnings)."""
    before = len(calls)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = solve()
        except Exception as err:  # compared with the one-row solve's error
            result = (type(err), str(err))
    return result, len(calls) - before, [w.category for w in caught]


def newton_rows(merit, split, xs, starts):
    """Each row's result of ``_newton_rows`` on the stack, the error for a
    failing row: the stack stops at its first failing row, so the rows
    after it are solved as a stack of their own."""
    from minsection.subminimize import _newton_rows

    results = []
    while len(results) < len(xs):
        k = len(results)
        try:
            results.extend(_newton_rows(merit, split, xs[k:], starts[k:]))
        except Exception as err:  # the failing row's error, compared by the caller
            results.append(err)
    return results


def default_starts(merit, split, rows):
    """The default Newton start, the center of the eliminated-coordinate
    box, for each of ``rows`` rows."""
    return np.tile(split.y_box(merit.domain_box).mean(axis=1), (rows, 1))


@pytest.mark.parametrize("default_start", [False, True], ids=["stacked", "default"])
@pytest.mark.parametrize(
    "case",
    [0, 1, 2, 3, 4, 5, 6],
    ids=["SINE_VALLEY", "chain3", "faces", "wall", "lone", "refused", "refused_m2"],
)
def test_newton_stack_rows_are_one_row_solves(entries, merit_calls, case, default_start):
    # each row is solved as subminimize_newton solves it alone, from the
    # case's stacked starts or from the default start
    merit, split, xs, starts = newton_stack_cases(entries)[case]
    if default_start:
        starts = default_starts(merit, split, len(xs))
    stacked, stacked_evals, stacked_warnings = newton_outcome(
        merit_calls, lambda: newton_rows(merit, split, xs, starts)
    )
    evals, clamps = 0, []
    for x, y0, got in zip(xs, starts, stacked):
        problem = SliceProblem(merit, split, x)
        want, count, caught = newton_outcome(
            merit_calls,
            lambda: ms.subminimize_newton(problem, y0=None if default_start else y0),
        )
        evals += count
        clamps += caught
        if isinstance(want, tuple):
            assert (type(got), str(got)) == want
        else:
            assert_same_sub(got, want)
    assert stacked_evals == evals
    # one BoundaryStepWarning per clamped row-gradient, as row by row
    assert stacked_warnings == clamps
    assert set(clamps) <= {ms.BoundaryStepWarning}
    # from the center, the rows at x = +-1.9 end at a face
    assert len(clamps) == {(2, False): 5, (2, True): 2, (4, False): 1, (4, True): 1}.get(
        (case, default_start), 0
    )


def reference_newton(merit, split, x, y0, projected=None):
    """Damped Newton on the slice at ``x`` from ``y0``, one iteration at a
    time: ``fd_hessian`` of the slice objective, the block's spectrum from
    ``eigvalsh``, the step from ``solve`` on the k x k block and halvings
    of the clipped step under ``_armijo``; the gradient tolerance is
    ``default_inner_tol`` of the current iterate's value. A step that
    leaves the box ends the row where it is stationary on its faces, and
    elsewhere, with coordinates held against a face, is replaced by the
    projected step: the held coordinates stay, and the free block takes
    Newton's step on its own Hessian block, whose spectrum is tested
    alone; each projected step appends its iterate to the list
    ``projected``, when given. A refusal is returned as ``(type, where,
    point, min eigenvalue or iterations)``."""
    from minsection.subminimize import (
        MAX_HALVINGS, MAX_NEWTON_ITERATIONS, PD_TOL, _armijo, default_inner_tol,
    )

    box = split.y_box(merit.domain_box)
    lo, hi = box[:, 0], box[:, 1]

    def f(y):
        return merit(split.embed(x, y))

    def indefinite(w):
        return w[0] <= PD_TOL * max(1.0, float(np.max(np.abs(w))))

    y = np.clip(y0, lo, hi)
    fy = f(y)
    best = (y, fy, math.inf)
    for iteration in range(MAX_NEWTON_ITERATIONS + 1):
        tol = default_inner_tol(fy)
        report = ms.fd_hessian(f, y, box=box, f0=fy)
        g, hess = report.gradient, report.hessian
        norm = float(np.sqrt(g @ g))
        if norm < best[2]:
            best = (y, fy, norm)
        w = np.linalg.eigvalsh(hess)
        if norm <= tol:
            if indefinite(w):
                return ms.ConvexityError, "sub-minimum", split.embed(x, y), float(w[0])
            return ms.SubMinimum(y, fy, norm, float(w[0]), "newton", iteration, tol, 0)
        if indefinite(w):
            return ms.ConvexityError, "iterate", split.embed(x, y), float(w[0])
        step = np.linalg.solve(hess, -g)
        full = np.clip(y + step, lo, hi)
        if np.any(full != y + step):
            on_face = ((y <= lo) & (g > 0.0)) | ((y >= hi) & (g < 0.0))
            if np.linalg.norm(g[~on_face]) <= tol:
                return ms.SubMinimizeError, "boundary", split.embed(x, best[0]), iteration
            if on_face.any():
                if projected is not None:
                    projected.append(y)
                free = ~on_face
                block = hess[np.ix_(free, free)]
                w = np.linalg.eigvalsh(block)
                if indefinite(w):
                    return ms.ConvexityError, "iterate", split.embed(x, y), float(w[0])
                step = np.zeros(len(y))
                step[free] = np.linalg.solve(block, -g[free])
                full = np.clip(y + step, lo, hi)
        if np.all(full == y):
            return ms.SubMinimizeError, "boundary", split.embed(x, best[0]), iteration
        slope = g @ step
        t = 1.0
        for _ in range(MAX_HALVINGS):
            trial = np.clip(y + t * step, lo, hi)
            value = f(trial)
            if _armijo(value, fy, t * slope):
                break
            t *= 0.5
        else:
            return ms.SubMinimizeError, "stalled", split.embed(x, best[0]), iteration
        y, fy = trial, value
    return ms.SubMinimizeError, "max_iter", split.embed(x, best[0]), MAX_NEWTON_ITERATIONS


def refusal(err):
    """A stacked row's refusal in the form of :func:`reference_newton`'s."""
    where = {
        "at an iterate": "iterate",
        "at the sub-minimum": "sub-minimum",
        "leaves the eliminated-coordinate box": "boundary",
        "backtracking line search failed": "stalled",
        "no convergence within": "max_iter",
    }
    (kind,) = [kind for text, kind in where.items() if text in str(err)]
    last = err.min_eig if isinstance(err, ms.ConvexityError) else err.iterations
    return type(err), kind, err.point, last


def corner_merit():
    """(p0 / 2)^2 + 9 (p1 - p2)^2 + 0.09 (p1 + p2 - 2.4 - p0)^2 + (p3 -
    p1)^2 on [-1, 1]^3 x [-3, 3]: the slice minimum in (p1, p2, p3) is
    (c, c, c), c = 1.2 + p0 / 2. For p0 > -0.4 it lies beyond the corner
    p1 = p2 = 1, which the projected Newton step reaches with p1 and p2
    held against their faces."""
    return ms.build_residual_merit(
        (
            lambda p: 0.5 * p[0],
            lambda p: 3.0 * (p[1] - p[2]),
            lambda p: 0.3 * (p[1] + p[2] - 2.4 - p[0]),
            lambda p: p[3] - p[1],
        ),
        4,
        box=np.array([[-1.0, 1.0], [-1.0, 1.0], [-1.0, 1.0], [-3.0, 3.0]]),
    )


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
@pytest.mark.parametrize("default_start", [False, True], ids=["stacked", "default"])
@pytest.mark.parametrize(
    "case",
    [0, 1, 4, 5, 6, 7, 8, 9, 10],
    ids=["SINE_VALLEY", "chain3", "lone", "refused", "refused_m2", "SINE_VALLEY_21",
         "last_step_0", "last_step_1", "corner"],
)
def test_newton_stack_rows_match_a_per_row_reference(
    entries, merit_calls, monkeypatch, case, default_start
):
    rng = np.random.default_rng(5)
    level = (entries["SINE_VALLEY"].merit, ms.ParameterSplit((0,), (1,)),
             np.linspace(-3.0, 3.0, 21)[:, None], rng.uniform(-10.0, 10.0, (21, 1)))
    # rows still running at the last of 0 or 1 iterations: each takes that
    # iteration's step and line search before it ends on max_iter
    last_step = (entries["SINE_VALLEY"].merit, ms.ParameterSplit((0,), (1,)),
                 np.array([[1.0], [0.3]]), np.array([[9.0], [-4.0]]))
    if case in (8, 9):
        monkeypatch.setattr(ms.subminimize, "MAX_NEWTON_ITERATIONS", case - 8)
    # three eliminated coordinates, two of them held against their faces
    # on the way to the corner
    corner = (corner_merit(), ms.ParameterSplit((0,), (1, 2, 3)), np.array([[0.0], [0.8], [-0.6]]),
              np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 1.0], [1.0, 1.0, 0.0]]))
    cases = newton_stack_cases(entries) + [level, last_step, last_step, corner]
    merit, split, xs, starts = cases[case]
    if default_start:
        starts = default_starts(merit, split, len(xs))
    stacked = newton_rows(merit, split, xs, starts)
    # each row's points, told apart by their x
    own = [[p.tobytes() for p in merit_calls if np.array_equal(split.x_part(p), x)] for x in xs]
    assert sum(map(len, own)) == len(merit_calls)
    projected = []
    for x, y0, got, points in zip(xs, starts, stacked, own):
        merit_calls.clear()
        want = reference_newton(merit, split, x, y0, projected)
        assert points == [p.tobytes() for p in merit_calls]
        if isinstance(want, tuple):
            kind, where, point, last = refusal(got)
            assert (kind, where, last) == want[:2] + want[3:]
            assert point.tobytes() == want[2].tobytes()
        else:
            assert_same_sub(got, want)
    failed = {
        4: [True], 5: [False, True, False], 6: [False, True, False], 8: [True, True],
        9: [True, False] if default_start else [False, True], 10: [True, True, False],
    }
    assert [isinstance(r, Exception) for r in stacked] == failed.get(case, [False] * len(xs))
    # only the corner rows take projected steps
    assert bool(projected) == (case == 10)


@settings(max_examples=200, deadline=None)
@given(
    params=st.tuples(
        st.floats(0.1, 3.0), st.floats(-2.0, 2.0), st.floats(0.0, 3.0),
        st.floats(0.5, 4.0), st.floats(-2.0, 2.0),
    ),
    eliminated=st.sampled_from([0, 1]),
    lo=st.floats(-4.0, 1.0),
    width=st.one_of(st.floats(1e-4, 1e-3), st.floats(1e-3, 6.0), st.floats(1.0, 6.0)),
    # each row's x and its start as a fraction of the y-box: 0 and 1 are
    # its faces, and starts outside it are clipped
    rows=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.sampled_from([0.0, 1.0]) | st.floats(-0.5, 1.5)),
        min_size=1, max_size=3, unique_by=lambda row: row[0],
    ),
)
def test_scalar_newton_kernel_matches_the_reference(params, eliminated, lo, width, rows):
    # (a (p0 - c))^2 + (p1 - b sin(k p0) - d)^2 with either coordinate
    # eliminated: convex in p1, not always in p0; a box narrow enough to
    # hold the slice minimum outside it, or too thin for the stencils
    from hypothesis import event

    a, c, b, k, d = params
    box = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    box[eliminated] = [lo, lo + width]
    merit, seen = recording_merit(
        (lambda p: a * (p[0] - c), lambda p: p[1] - b * math.sin(k * p[0]) - d), 2, box
    )
    split = ms.ParameterSplit((1 - eliminated,), (eliminated,))
    xs = np.array([[x] for x, _ in rows])
    starts = np.array([[lo + u * width] for _, u in rows])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stacked = newton_rows(merit, split, xs, starts)
    stacked_warnings = [(w.category, str(w.message)) for w in caught]
    own = [[p.tobytes() for p in seen if np.array_equal(split.x_part(p), x)] for x in xs]
    assert sum(map(len, own)) == len(seen)
    warned = []
    for x, y0, got, points in zip(xs, starts, stacked, own):
        seen.clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                want = reference_newton(merit, split, x, y0)
            except ValueError as err:  # a thin box
                want = err
        warned += [(w.category, str(w.message)) for w in caught]
        assert points == [p.tobytes() for p in seen]
        if isinstance(want, ValueError):
            event("thin box")
            assert (type(got), str(got)) == (type(want), str(want))
        elif isinstance(want, tuple):
            event(want[1])
            kind, where, point, last = refusal(got)
            assert (kind, where, last) == want[:2] + want[3:]
            assert point.tobytes() == want[2].tobytes()
        else:
            event("converged")
            assert_same_sub(got, want)
    assert stacked_warnings == warned


@settings(max_examples=400, deadline=None)
@given(
    h=st.one_of(
        st.floats(5e-324, 2.2250738585072014e-308),
        st.floats(1e-300, 1e-8),
        st.floats(1e-8, 1e8),
        st.floats(1e8, 1.7976931348623157e308),
    ),
    g=st.floats(-1e300, 1e300),
)
def test_one_by_one_newton_step_is_lapack_bitwise(h, g):
    # The m = 1 Newton step is -g / h in Python floats, and its spectrum the
    # element h: both must be bitwise LAPACK's solve and eigenvalue.
    block = np.array([[[h]]])
    solved = np.linalg.solve(block, np.array([[[-g]]]))[0, 0, 0]
    assert np.float64(solved).tobytes() == np.float64(-g / h).tobytes()
    for element in (h, -h):
        w = np.linalg.eigvalsh(np.array([[[element]]]))[0, 0]
        assert np.float64(w).tobytes() == np.float64(element).tobytes()


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_newton_stack_refuses_at_the_first_failing_level(merit_calls):
    # The slice minimum 5 exp(-(x - c)^2 / 0.01) leaves the y-box [-2, 2]
    # near each spike center c. The nine grid rows are solved in the levels
    # [4], [0, 8], [2, 6], [1, 3, 5, 7].
    def spikes(*centers):
        def implicit(x):
            return sum(5.0 * np.exp(-((x - c) ** 2) / 0.01) for c in centers)

        return ms.build_residual_merit(
            (lambda p: 0.1 * p[0], lambda p: p[1] - implicit(p[0])),
            2,
            box=np.array([[0.0, 8.0], [-2.0, 2.0]]),
        )

    split = ms.ParameterSplit((0,), (1,))
    grid = np.arange(9.0)
    # rows 1 and 8 fail: row 8 is in the earlier level
    slices = SliceSolver(spikes(1.0, 8.0), split)
    with pytest.raises(ms.SubMinimizeError, match="^the Newton step leaves") as info:
        slices.solve(grid[:, None])
    assert split.x_part(info.value.point).tolist() == [8.0]
    assert sorted(slices.solved) == [(0.0,), (4.0,)]
    assert slices.solves == 3
    # rows 3 and 1 fail in one level: the lower row is raised
    with pytest.raises(ms.TraceError) as info:
        ms.trace_implicit(spikes(3.0, 1.0), split, grid)
    assert info.value.x_failed.tolist() == [1.0]
    assert str(info.value).startswith("slice solve failed at x = [1.0] ")


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_newton_stack_evaluates_nothing_after_its_first_failing_row(merit_calls):
    # x^2 + (y - 3x)^2 on [-2, 2] x [-5, 5]: the slice minimum y = 3x lies
    # beyond the face y = 5 for x > 5/3, where the row stops at the face
    from minsection.subminimize import _newton_rows

    merit, split = steep_line_merit(), ms.ParameterSplit((0,), (1,))
    rows = _newton_rows(merit, split, np.array([[-1.0], [1.9], [0.5], [-0.3]]), np.zeros((4, 1)))
    assert next(rows).y_star[0] == pytest.approx(-3.0, abs=1e-6)
    with pytest.raises(ms.SubMinimizeError, match="^the Newton step leaves") as info:
        next(rows)
    assert split.x_part(info.value.point).tolist() == [1.9]
    assert next(rows, None) is None
    assert {float(p[0]) for p in merit_calls} == {-1.0, 1.9}
    # a slice solver's level stops there too: after the middle row, the
    # level of the two ends stops at its first row, x = 1.8, and the other
    # end is never evaluated
    merit_calls.clear()
    slices = SliceSolver(merit, split)
    grid = np.linspace(1.8, -1.2, 9)[:, None]
    with pytest.raises(ms.SubMinimizeError) as info:
        slices.solve(grid)
    assert split.x_part(info.value.point).tolist() == [1.8]
    assert list(slices.solved) == [tuple(grid[4])]
    assert slices.solves == 2
    assert {float(p[0]) for p in merit_calls} == {grid[4, 0], 1.8}


def test_newton_stack_stays_in_the_box():
    box = np.array([[-2.0, 2.0], [-5.0, 5.0]])
    merit, seen = recording_merit((lambda p: p[0], lambda p: p[1] - 3.0 * p[0]), 2, box)
    xs = np.linspace(-2.0, 2.0, 17)[:, None]
    starts = np.resize([5.0, -5.0, 4.9999, 0.0], (17, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ms.BoundaryStepWarning)
        newton_rows(merit, ms.ParameterSplit((0,), (1,)), xs, starts)
    points = np.array(seen)
    assert len(points) > 17 * 5
    assert np.all((points >= box[:, 0]) & (points <= box[:, 1]))


def test_newton_stack_rows_keep_their_own_x(entries, monkeypatch):
    # each row's slice objective overwrites one full-length point of its
    # own: no evaluation of a row may see another row's x
    merit, split = entries["TWO_WELLS"].merit, ms.ParameterSplit((0,), (1,))
    grid = np.linspace(-2.0, 2.0, 21)[:, None]
    seen, owners = [], []
    evaluate = ms.MeritFunction.__call__
    objective = ms.subminimize._slice_objective

    def recorded(self, p):
        seen.append(np.array(p, copy=True))
        return evaluate(self, p)

    def owned(merit, split, x, y):
        value = objective(merit, split, x, y)

        def row(v):
            owners.append(float(x[0]))
            return value(v)

        return row

    monkeypatch.setattr(ms.MeritFunction, "__call__", recorded)
    monkeypatch.setattr(ms.subminimize, "_slice_objective", owned)
    solved = SliceSolver(merit, split).solve(grid)
    assert len(solved) == 21 and all(sub.method == "newton" for sub in solved)
    assert len(seen) == len(owners) > 21 * 5
    assert [float(p[0]) for p in seen] == owners
    assert sorted(set(owners)) == grid[:, 0].tolist()


def test_level_order_and_starts():
    from minsection.subminimize import _interpolate, _lagrange, _levels

    assert _levels(1) == [[0]]
    assert _levels(2) == [[1], [0]]
    assert _levels(9) == [[4], [0, 8], [2, 6], [1, 3, 5, 7]]
    assert sorted(sum(_levels(101), [])) == list(range(101))
    assert len(_levels(101)) == 8
    # a cubic through the four nearest rows is exact on a cubic
    ys = (np.arange(9.0) ** 3)[:, None]
    starts = _interpolate(*_lagrange([0, 2, 4, 6, 8], [1, 3, 5, 7]), ys)
    assert starts[:, 0].tolist() == [1, 27, 125, 343]
    # one row taken: its value
    assert _interpolate(*_lagrange([4], [0, 8]), ys).tolist() == [[64.0], [64.0]]


def reference_starts(taken, ys, targets):
    """The interpolated starts as one numpy expression per level: the
    reference for the cached level plans."""
    taken = np.asarray(taken)
    t = np.asarray(targets, dtype=float)[:, None]
    nodes = taken[np.argsort(np.abs(taken - t), axis=1, kind="stable")[:, :4]]
    same = np.eye(nodes.shape[1], dtype=bool)
    ratios = (t - nodes)[:, None, :] / np.where(same, 1, nodes[:, :, None] - nodes[:, None, :])
    ratios[:, same] = 1.0
    return np.einsum("lq,lqm->lm", ratios.prod(axis=2), ys[nodes])


def test_level_plan_is_the_levels_and_their_starts():
    from minsection.subminimize import _interpolate, _lagrange, _level_plan, _levels

    rng = np.random.default_rng(3)
    for count in [*range(1, 102), 441]:
        plan = _level_plan(count)
        assert [list(level) for level, _, _ in plan] == _levels(count)
        assert plan[0][1:] == (None, None)
        for m in (1, 2):
            ys = rng.standard_normal((count, m)) * 10.0 ** rng.integers(-3, 4, (count, 1))
            taken = []
            for level, nodes, weights in plan:
                if taken:
                    want = reference_starts(taken, ys, list(level))
                    assert _interpolate(nodes, weights, ys).tobytes() == want.tobytes()
                    fresh = _interpolate(*_lagrange(taken, list(level)), ys)
                    assert fresh.tobytes() == want.tobytes()
                taken = sorted(taken + list(level))
    # a cached plan cannot be changed by its callers
    _, nodes, weights = _level_plan(9)[1]
    with pytest.raises(ValueError):
        weights[0, 0] = 0.0
    with pytest.raises(ValueError):
        nodes[0, 0] = 0


def test_solvers_share_one_plan_per_stack_size(entries, monkeypatch):
    from minsection import subminimize

    plans = []
    plan = subminimize._level_plan

    def recorded(count):
        plans.append(plan(count))
        return plans[-1]

    monkeypatch.setattr(subminimize, "_level_plan", recorded)
    split = ms.ParameterSplit((0,), (1,))
    for name in ("QUAD", "SINE_VALLEY"):
        SliceSolver(entries[name].merit, split).solve(np.linspace(-2.0, 2.0, 21)[:, None])
    assert len(plans) == 2 and plans[0] is plans[1]


def reference_check_rows(merit, split, xs):
    """The row check as stacked numpy tests: the reference for
    :func:`~minsection.subminimize._check_rows`."""
    if xs.shape[1] != split.n:
        raise ValueError(f"x_fixed must have {split.n} entries, got {xs.shape[1]}")
    xb = split.x_box(merit.domain_box)
    pad = 1e-12 * np.maximum(1.0, np.abs(xb).max(axis=1))
    finite = np.isfinite(xs).all(axis=1)
    valid = finite & ((xs >= xb[:, 0] - pad) & (xs <= xb[:, 1] + pad)).all(axis=1)
    if not valid.all():
        k = int(np.argmin(valid))
        if not finite[k]:
            raise ValueError(f"x_fixed must be finite, got {xs[k]}")
        raise ValueError("x_fixed lies outside the retained-coordinate box")


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 3),
    box=st.lists(
        st.tuples(st.floats(-1e3, 1e3), st.floats(1e-9, 1e3), st.sampled_from(["", "lo", "hi"])),
        min_size=3, max_size=3,
    ),
    picks=st.lists(
        st.lists(st.tuples(st.integers(0, 8), st.floats(0.0, 1.0)), min_size=4, max_size=4),
        min_size=1, max_size=4,
    ),
    width=st.sampled_from([0, -1, 1]),
)
def test_row_check_matches_the_numpy_reference(n, box, picks, width):
    from minsection.subminimize import _check_rows

    # a face may be infinite: then only the finiteness test refuses an inf
    domain = np.array(
        [[-np.inf if face == "lo" else lo, np.inf if face == "hi" else lo + w]
         for lo, w, face in box[:n]] + [[-1.0, 1.0]]
    )
    merit = ms.build_residual_merit(tuple(lambda p, k=k: p[k] for k in range(n + 1)), n + 1,
                                    box=domain)
    split = ms.ParameterSplit(tuple(range(n)), (n,))
    xb = domain[:n]
    pad = 1e-12 * np.maximum(1.0, np.abs(xb).max(axis=1))
    lo, hi = xb[:, 0] - pad, xb[:, 1] + pad

    def value(j, kind, u):
        # the padded faces, the floats just beyond them, non-finite values,
        # and points of the padded and of the unpadded box
        return [
            lo[j], hi[j], np.nextafter(lo[j], -np.inf), np.nextafter(hi[j], np.inf),
            np.nan, np.inf, -np.inf,
            lo[j] + u * (hi[j] - lo[j]), xb[j, 0] + u * (xb[j, 1] - xb[j, 0]),
        ][kind]

    columns = max(1, n + width)
    with np.errstate(invalid="ignore"):  # inf - inf at an infinite face
        xs = np.array([[value(j % n, *pick) for j, pick in enumerate(row[:columns])]
                       for row in picks])
    outcomes = []
    for check in (reference_check_rows, _check_rows):
        try:
            check(merit, split, xs)
            outcomes.append(None)
        except ValueError as err:
            outcomes.append((type(err), str(err)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_newton_start_clip_is_numpys_signed_zeros_included():
    split = ms.ParameterSplit((0,), (1,))
    for box, start in (([0.0, 1.0], -0.0), ([-1.0, -0.0], 0.0)):
        merit, seen = recording_merit(
            (lambda p: p[0], lambda p: p[1] + 0.5), 2, np.array([[-1.0, 1.0], box])
        )
        starts = np.array([[start]])
        newton_rows(merit, split, np.array([[0.0]]), starts)
        want = np.minimum(np.maximum(starts, box[0]), box[1])
        assert seen[0][1:].tobytes() == want[0].tobytes()


def test_bad_newton_start_is_refused_before_any_evaluation(entries, split01, merit_calls):
    problem = SliceProblem(entries["SINE_VALLEY"].merit, split01, [0.5])
    with pytest.raises(ValueError, match="y0 must not hold NaN"):
        ms.subminimize_newton(problem, y0=[np.nan])
    with pytest.raises(ValueError, match="y0 must have 1 entries"):
        ms.subminimize_newton(problem, y0=[0.1, 0.2])
    assert merit_calls == []
    # an infinite start is clipped to the face of the eliminated-coordinate box
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ms.BoundaryStepWarning)
        far = ms.subminimize_newton(problem, y0=[np.inf])
        face = ms.subminimize_newton(problem, y0=[problem.y_box()[0, 1]])
    assert_same_sub(far, face)
    assert merit_calls[0][1] == problem.y_box()[0, 1]


def test_malformed_x_stack_is_refused_before_any_evaluation(entries, split01, merit_calls):
    # an x_fixed of three dimensions is an input error naming its shape
    slices = SliceSolver(entries["QUAD"].merit, split01)
    with pytest.raises(ValueError) as info:
        slices.solve(np.zeros((2, 1, 1)))
    assert str(info.value) == (
        "x_fixed must be one x or an (N, n) stack of x rows, got shape (2, 1, 1)"
    )
    assert merit_calls == [] and slices.solves == 0 and not slices.solved
    # the same solver then solves a Newton slice, with merit calls
    slices.solve(np.zeros((2, 1)))
    assert merit_calls and slices.solves == 1


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan, np.inf])
def test_tolerances_are_refused_before_any_evaluation(entries, split01, merit_calls, tol):
    merit = entries["SINE_VALLEY"].merit
    problem = SliceProblem(merit, split01, [0.5])
    calls = [
        lambda: ms.Tolerances(inner_tol=tol),
        lambda: SliceSolver(merit, split01, inner_tol=tol),
        lambda: ms.subminimize_newton(problem, inner_tol=tol),
        lambda: ms.trace_implicit(merit, split01, [0.0, 0.5, 1.0], inner_tol=tol),
        lambda: ms.minimal_section_1d(merit, 0, [0.0, 0.5, 1.0], inner_tol=tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^inner_tol must be positive and finite"):
            call()
    with pytest.raises(ValueError, match="^outer_tol must be positive and finite"):
        ms.Tolerances(outer_tol=tol)
    assert merit_calls == []


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
def test_projected_step_tests_the_free_block_alone():
    # From y0 = (0, 1) the coordinate p2 is held on its face p2 = 1 (the
    # minimum p2 = 5 lies beyond it) and the free block p1 has curvature
    # 2e8. Pinning p2 with an identity row put an eigenvalue 1.0 into the
    # tested system, below PD_TOL * 2e8, and refused the slice as not
    # convex. The free block alone is positive definite: the row walks to
    # p1 = p0 and stops on the face, as it does when started there.
    merit = ms.build_residual_merit(
        (lambda p: 1e4 * (p[1] - p[0]), lambda p: 10.0 * (p[2] - 5.0)),
        3,
        box=np.array([[-1.0, 1.0], [-2.0, 2.0], [-1.0, 1.0]]),
    )
    problem = SliceProblem(merit, ms.ParameterSplit((0,), (1, 2)), [0.5])
    stops = []
    for y0 in ([0.0, 1.0], [0.5, 1.0]):
        with pytest.raises(ms.SubMinimizeError, match="^the Newton step leaves the eliminated") as info:
            ms.subminimize_newton(problem, y0=y0)
        stops.append(info.value.best_y)
    assert stops[0] == pytest.approx(stops[1], abs=1e-12)
    assert stops[1].tolist() == [0.5, 1.0]
