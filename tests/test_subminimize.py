import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

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
    assert "x = [0.]" in str(excinfo.value)
    # away from the collinear point the same model solves fine
    sub = ms.subminimize_linear(SliceProblem(merit, split, [0.4]))
    assert sub.y_hessian_min_eig > 0.0


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


def test_newton_max_iter_carries_best(entries, split01):
    with pytest.raises(ms.SubMinimizeError) as excinfo:
        ms.subminimize_newton(
            SliceProblem(entries["SINE_VALLEY"].merit, split01, [1.0]),
            y0=[8.0],
            max_iter=0,
        )
    assert excinfo.value.best_y is not None
    assert excinfo.value.grad_norm is not None


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
    # an explicit start, or another x, is a new solve
    assert solver.solve([0.3], y0=[1.0]) is not first
    solver.solve([0.4])
    assert solver.solves == 3


def test_revisited_slice_is_not_solved_again(entries, split01, monkeypatch):
    starts = []
    newton = ms.subminimize.subminimize_newton

    def recording_newton(problem, y0=None, inner_tol=None):
        starts.append(None if y0 is None else float(y0[0]))
        return newton(problem, y0=y0, inner_tol=inner_tol)

    monkeypatch.setattr(ms.subminimize, "subminimize_newton", recording_newton)
    solver = SliceSolver(entries["SINE_VALLEY"].merit, split01)
    first = solver.solve([0.3])
    second = solver.solve([0.4])
    assert solver.solve([0.3]) is first
    assert solver.solves == 2
    # the last two results returned, the revisited one included, predict the
    # next start on their secant: x = 0.5 lies two spacings from x1 = 0.3
    solver.solve([0.5])
    y3, y4 = float(first.y_star[0]), float(second.y_star[0])
    assert starts[:2] == [None, y3]
    assert starts[2] == pytest.approx(y3 + 2.0 * (y4 - y3), rel=1e-12)
    assert second.y_star[0] != first.y_star[0]
    # an explicit start always solves, and its result is not kept
    assert solver.solve([0.4], y0=[1.0]) is not second
    assert starts[3] == 1.0
    assert solver.solve([0.4]) is second
    assert solver.solves == 4
    # two results at one x span no line: the next start is the last result
    third = solver.solve([1.0])
    assert starts[4] == y4
    # more than two spacings from the last x: the last result again
    solver.solve([2.3])
    assert starts[5] == float(third.y_star[0])


def test_secant_start_on_a_linear_implicit_graph(aniso3, monkeypatch):
    # For a quadratic merit y*(x) is linear, so a secant start on the line
    # of the last two x is the slice minimum itself; off that line the
    # start is the last result.
    iterations = []
    newton = ms.subminimize.subminimize_newton

    def recording_newton(problem, y0=None, inner_tol=None):
        sub = newton(problem, y0=y0, inner_tol=inner_tol)
        iterations.append(sub.iterations)
        return sub

    monkeypatch.setattr(ms.subminimize, "subminimize_newton", recording_newton)
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
    """A list that grows by one on every merit evaluation."""
    calls = []
    evaluate = ms.MeritFunction.__call__

    def counted(merit, p):
        calls.append(None)
        return evaluate(merit, p)

    monkeypatch.setattr(ms.MeritFunction, "__call__", counted)
    return calls


def outcome(calls, probe, *args):
    """(certificate or (error type, message, point), merit evaluations)."""
    before = len(calls)
    try:
        result = probe(*args)
    except ValueError as err:
        point = getattr(err, "point", None)
        result = (type(err), str(err), None if point is None else point.tolist())
    return result, len(calls) - before


def assert_same_probe(calls, merit, split, grid_density=None):
    if split is None:
        batched = outcome(calls, ms.probe_full_convexity, merit, grid_density)
    else:
        batched = outcome(calls, ms.probe_y_convexity, merit, split, grid_density)
    reference = outcome(calls, reference_probe, merit, split, grid_density)
    (got, got_evals), (want, want_evals) = batched, reference
    assert got_evals == want_evals
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
