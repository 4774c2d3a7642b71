
import itertools
import logging
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minsection as ms
from minsection import morse
from minsection.numerics import NonFiniteValueError

from .conftest import differenced


def two_wells_oracle():
    """Hand-solved stationary points of (x^2-1)^2 + (y-x)^2.

    Setting both partials to zero forces y = x and 4x(x^2-1) = 0, so the
    points are (0,0), (1,1), (-1,-1); the Hessian [[12x^2-2, -2], [-2, 2]]
    classifies the origin as index 1 and the wells as index 0.
    """
    points = {}
    for x in (-1.0, 0.0, 1.0):
        hess = np.array([[12.0 * x * x - 2.0, -2.0], [-2.0, 2.0]])
        negatives = int(np.count_nonzero(np.linalg.eigvalsh(hess) < 0))
        points[(x, x)] = negatives
    return points


def test_find_critical_points_quad(entries):
    points = ms.find_critical_points(entries["QUAD"].merit, seed_density=5)
    assert len(points) == 1
    assert np.allclose(points[0].location, [0.0, 0.0], atol=1e-6)
    assert points[0].index_gamma == 0
    assert not points[0].degenerate


def test_find_critical_points_two_wells(entries):
    points = ms.find_critical_points(entries["TWO_WELLS"].merit, seed_density=9)
    oracle = two_wells_oracle()
    assert len(points) == 3
    for p in points:
        key = min(oracle, key=lambda k: abs(k[0] - p.location[0]) + abs(k[1] - p.location[1]))
        assert abs(p.location[0] - key[0]) <= 1e-5
        assert abs(p.location[1] - key[1]) <= 1e-5
        assert p.index_gamma == oracle[key]
        assert not p.degenerate


def test_find_critical_points_degenerate_valley(entries):
    points = ms.find_critical_points(entries["DEGEN_LINE"].merit, seed_density=5)
    assert points
    for p in points:
        assert p.degenerate
        assert abs(p.location[0] + p.location[1] - 2.0) <= 1e-5


def test_critical_points_reverify_gradient(entries):
    for name in ("QUAD", "TWO_WELLS"):
        merit = entries[name].merit
        points = ms.find_critical_points(merit, seed_density=5)
        for p in points:
            grad = np.linalg.norm(ms.fd_gradient(merit, p.location))
            assert grad <= 10.0 * max(p.grad_norm, 1e-8)


def test_dedup_idempotent(entries):
    merit = entries["TWO_WELLS"].merit
    first = ms.find_critical_points(merit, seed_density=7)
    second = ms.find_critical_points(merit, seed_density=7)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.location, b.location)
        assert a.index_gamma == b.index_gamma


def test_nondegenerate_points_isolated(entries):
    points = ms.find_critical_points(entries["TWO_WELLS"].merit, seed_density=9)
    merge_radius = 1e-5 * max(1.0, float(np.linalg.norm([20.0, 20.0])))
    for i, a in enumerate(points):
        for b in points[i + 1 :]:
            assert np.linalg.norm(a.location - b.location) > merge_radius


def test_outward_gradient_quad(entries):
    merit = entries["QUAD"].merit
    assert ms.check_outward_gradient(merit, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]))


def test_outward_gradient_sine_valley_oracle(entries):
    # oracle: analytic gradient dotted with the face normal at the same
    # relative-interior sampling the checker uses
    merit = entries["SINE_VALLEY"].merit
    box = np.array([[-3.0, 3.0], [-3.0, 3.0]])
    density = 9
    interior = np.linspace(-3.0, 3.0, density + 2)[1:-1]
    oracle_ok = True
    for i in range(2):
        for side, sign in ((-3.0, -1.0), (3.0, 1.0)):
            for v in interior:
                p = np.empty(2)
                p[i] = side
                p[1 - i] = v
                oracle_ok &= sign * merit.gradient(p)[i] > 0.0
    assert oracle_ok
    assert ms.check_outward_gradient(merit, box=box, boundary_density=density)


def test_outward_gradient_inward_case():
    merit = ms.MeritFunction(
        2, lambda p: float(-p[0] ** 2 - p[1] ** 2), structure="general"
    )
    assert not ms.check_outward_gradient(merit, boundary_density=3)


def test_audit_single_minimum():
    census = ms.morse_equality_audit(
        ms.find_critical_points(ms.get_problem("QUAD").merit, seed_density=5), True
    )
    assert census.counts == {0: 1}
    assert census.alternating_sum == 1
    assert census.passes


def test_audit_two_wells_counts(entries):
    points = ms.find_critical_points(entries["TWO_WELLS"].merit, seed_density=9)
    census = ms.morse_equality_audit(points, True)
    assert census.counts == {0: 2, 1: 1}
    assert census.alternating_sum == 1
    assert census.passes


def test_audit_missing_point_fails():
    points = ms.find_critical_points(ms.get_problem("TWO_WELLS").merit, seed_density=9)
    # drop one well: the alternating sum falls to zero and the audit fails
    pruned = [p for p in points if not np.allclose(p.location, [1.0, 1.0], atol=1e-3)]
    census = ms.morse_equality_audit(pruned, True)
    assert census.alternating_sum == 0
    assert not census.passes
    assert "missing critical point or boundary leak" in ms.census_report(pruned, census)


def test_audit_rejects_degenerate(entries):
    points = ms.find_critical_points(entries["DEGEN_LINE"].merit, seed_density=5)
    with pytest.raises(ms.DegenerateCriticalPointError) as excinfo:
        ms.morse_equality_audit(points, True)
    assert excinfo.value.points
    first = excinfo.value.points[0]
    assert first.value == min(p.value for p in excinfo.value.points)
    assert excinfo.value.point.tolist() == first.location.tolist()


def test_audit_not_outward_fails(entries):
    points = ms.find_critical_points(entries["QUAD"].merit, seed_density=5)
    census = ms.morse_equality_audit(points, False)
    assert not census.passes


def test_strictly_convex_full_audit(entries):
    # strictly convex with outward boundary gradient: exactly one point,
    # index 0, equality holds
    merit = entries["QUAD"].merit
    points = ms.find_critical_points(merit, seed_density=7)
    outward = ms.check_outward_gradient(merit, boundary_density=5)
    census = ms.morse_equality_audit(points, outward)
    assert len(points) == 1 and points[0].index_gamma == 0
    assert census.passes


def test_census_report_text(entries):
    points = ms.find_critical_points(entries["QUAD"].merit, seed_density=5)
    census = ms.morse_equality_audit(points, True)
    report = ms.census_report(points, census)
    assert "audit: PASS" in report
    assert "index=0" in report


def test_outward_check_evaluates_only_inside_the_box(entries):
    # Without closed forms, only the normal derivative is taken, one-sided
    # toward the interior: three evaluations per sampled face point, none
    # outside the box, and no clamp warning, though each face point clamps.
    box = np.array([[-2.0, 2.0], [-1.5, 3.0]])
    for name in ("QUAD", "TWO_WELLS", "SINE_VALLEY"):
        merit = entries[name].merit
        seen = []

        def recording(p, merit=merit, seen=seen):
            p = np.asarray(p, dtype=float)
            assert np.all(p >= box[:, 0]) and np.all(p <= box[:, 1]), p
            seen.append(p.copy())
            return merit(p)

        recorder = ms.MeritFunction(2, recording, domain_box=box)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert ms.check_outward_gradient(recorder, boundary_density=5)
        assert not any(issubclass(w.category, ms.BoundaryStepWarning) for w in caught)
        assert len(seen) == 4 * 5 * 3


def test_census_evaluates_only_inside_the_box(entries):
    # The seeds are nodes of the box, and every Newton and fallback trial
    # is clipped to it, so no converged seed can lie outside it.
    for name, box in (("TWO_WELLS", [[-2.0, 2.0], [-2.0, 2.0]]), ("EXP_FIT", None)):
        merit = entries[name].merit
        box = merit.domain_box if box is None else np.array(box)

        def recording(p, merit=merit, box=box):
            p = np.asarray(p, dtype=float)
            assert np.all(p >= box[:, 0]) and np.all(p <= box[:, 1]), p
            return merit(p)

        # each point found is evaluated at its location, so it lies in the box
        assert ms.find_critical_points(ms.MeritFunction(2, recording, domain_box=box))


def test_outward_check_refuses_non_finite_and_thin_boxes():
    box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    blows_up = ms.MeritFunction(
        2, lambda p: float(p @ p) if p[0] < 0.99 else float("nan"), domain_box=box
    )
    with pytest.raises(NonFiniteValueError):
        ms.check_outward_gradient(blows_up, boundary_density=3)
    # a closed-form gradient needs no stencil, so the thin box is refused
    # on a copy that takes central differences
    thin = np.array([[-1.0, 1.0], [0.0, 1e-6]])
    with pytest.raises(ValueError, match="thinner than the FD stencil along coordinate 1"):
        ms.check_outward_gradient(differenced(ms.get_problem("QUAD").merit), box=thin)


def pocket_merit(depth=0.0016):
    """Two minima at p0 = +-sqrt(depth) on the line p1 = p0 / 2, with a
    saddle between them: 0.08 apart by default, closer than a census ball's
    diameter (0.113 on [-2, 2]^2); 0.02 apart, closer than its radius, at
    ``depth = 1e-4``."""
    residuals = (
        lambda p: (p[0] ** 2 - depth) * (1.0 + p[0] ** 2),
        lambda p: p[1] - 0.5 * p[0],
    )
    return ms.build_residual_merit(residuals, 2, box=np.array([[-2.0, 2.0], [-2.0, 2.0]]))


def ripple_merit(k):
    """Minima pi / k apart along p0 on the parabola p1 = 0.3 p0^2 over
    [-1, 1]^2, a saddle midway between each pair, all well resolved: the
    minima lie closer together than a census ball's diameter (0.057) for
    k = 60 and than its radius for k = 200."""
    residuals = (lambda p: np.sin(k * p[0]) / k, lambda p: p[1] - 0.3 * p[0] ** 2)
    return ms.build_residual_merit(residuals, 2, box=np.array([[-1.0, 1.0], [-1.0, 1.0]]))


def reference_census(merit, box=None, seed_density=9):
    """The census seed loop with every seed run to convergence or failure,
    its derivatives taken as the census takes them."""
    box = merit.domain_box if box is None else np.asarray(box, dtype=float)
    axes = [np.linspace(lo, hi, seed_density) for lo, hi in box]
    seeds = [np.array(combo) for combo in itertools.product(*axes)]
    points = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ms.BoundaryStepWarning)
        grads = [morse._gradient(merit, s, box) for s in seeds]
        critical_tol = 1e-8 * max(1.0, float(np.median([np.linalg.norm(g) for g in grads])))
        merge_radius = 1e-5 * max(1.0, float(np.linalg.norm(box[:, 1] - box[:, 0])))
        for seed, g in zip(seeds, grads):
            result = morse._newton_on_gradient(merit, seed, g, box, critical_tol, 60)
            if result is None:
                continue
            p, gn = result
            if np.any(p < box[:, 0]) or np.any(p > box[:, 1]):
                continue
            if any(np.linalg.norm(p - q.location) <= merge_radius for q in points):
                continue
            hess = morse._hessian(merit, p, box)
            summary = ms.eigen_index(hess)
            points.append(
                ms.CriticalPoint(p, merit(p), gn, summary.negative_count,
                                 summary.near_zero_count > 0, summary, hess)
            )
    points.sort(key=lambda cp: (cp.value, tuple(cp.location)))
    return points


def assert_same_points(found, reference):
    assert len(found) == len(reference)
    for a, b in zip(found, reference):
        assert np.array_equal(a.location, b.location)
        assert a.value == b.value
        assert a.grad_norm == b.grad_norm
        assert (a.index_gamma, a.degenerate) == (b.index_gamma, b.degenerate)
        assert np.array_equal(a.eigen.eigenvalues, b.eigen.eigenvalues)
        assert np.array_equal(a.hessian, b.hessian)


CATALOG_NAMES = ("QUAD", "SINE_VALLEY", "TWO_WELLS", "DEGEN_LINE", "EXP_FIT", "NEG_Y")


@pytest.mark.parametrize(
    "name, box, density",
    [
        *[pytest.param(n, None, d, id=f"{n}-{d}") for n in CATALOG_NAMES for d in (9, 15)],
        *[pytest.param(f"{n}-differenced", None, d, id=f"{n}-differenced-{d}")
          for n in CATALOG_NAMES for d in (9, 15)],
        pytest.param("TWO_WELLS", [[-2.0, 2.0], [-2.0, 2.0]], 9, id="cli_audit-box"),
        pytest.param("TWO_WELLS-differenced", [[-2.0, 2.0], [-2.0, 2.0]], 9,
                     id="cli_audit-box-differenced"),
        pytest.param("pocket", None, 9, id="pocket-9"),
        pytest.param("pocket", None, 15, id="pocket-15"),
        pytest.param("close-pocket", None, 9, id="close-pocket-9"),
        pytest.param("close-pocket", None, 15, id="close-pocket-15"),
        *[pytest.param(f"close-wells-{a}", None, d, id=f"close-wells-{a}-{d}")
          for a in (0.02, 0.01, 0.005) for d in (9, 15)],
        *[pytest.param(f"ripple-{k}", None, d, id=f"ripple-{k}-{d}")
          for k in (60, 200) for d in (9, 15)],
    ],
)
def test_census_matches_reference_loop(entries, name, box, density):
    # A seed is ended in a found point's ball only where Newton from it
    # converges to that point, so the census is bitwise that of running
    # every seed to convergence, also where two points of the same index lie
    # closer together than a ball's radius: resolved (ripple) or not (the
    # close pocket and wells, where the gradient tolerance spans more than
    # the merge radius and no ball is used). Catalog merits run with their
    # closed-form gradient and Hessian, and as copies without them; the
    # other merits have none.
    if name.endswith("-differenced"):
        merit = differenced(entries[name.split("-")[0]].merit)
    elif name.startswith("ripple-"):
        merit = ripple_merit(float(name.split("-")[1]))
    elif name.startswith("close-wells-"):
        merit = two_wells_merit(float(name.rsplit("-", 1)[1]), 0.3, 1.0)
    elif name.endswith("pocket"):
        merit = pocket_merit(1e-4 if name == "close-pocket" else 0.0016)
    else:
        merit = entries[name].merit
    assert_same_points(
        ms.find_critical_points(merit, box=box, seed_density=density),
        reference_census(merit, box=box, seed_density=density),
    )


def two_wells_merit(a, b, c):
    """Minima at (+-a, +-a b), 2a apart, and a saddle at the origin."""
    return ms.build_residual_merit(
        (lambda p: p[0] ** 2 - a * a, lambda p: c * (p[1] - b * p[0])),
        2,
        box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
    )


def seeded_two_wells(seed):
    # Wells from 0.01 to 3 apart: some closer than a census ball's radius.
    rng = np.random.default_rng(seed)
    a = 10.0 ** rng.uniform(np.log10(0.005), np.log10(1.5))
    return two_wells_merit(a, rng.uniform(-1.0, 1.0), rng.uniform(0.5, 3.0))


def seeded_quadratic(seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    center = rng.uniform(-1.0, 1.0, size=2)
    return ms.build_residual_merit(
        (lambda p: float(rows[0] @ (p - center)), lambda p: float(rows[1] @ (p - center))),
        2,
        box=np.array([[-2.0, 2.0], [-2.0, 2.0]]),
    )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), two_wells=st.booleans(), density=st.sampled_from((5, 9)))
def test_census_matches_reference_loop_on_seeded_merits(seed, two_wells, density):
    merit = seeded_two_wells(seed) if two_wells else seeded_quadratic(seed)
    assert_same_points(
        ms.find_critical_points(merit, seed_density=density),
        reference_census(merit, seed_density=density),
    )


def test_census_log_counts_seeds_ended_in_a_ball(entries, caplog):
    with caplog.at_level(logging.INFO, logger="minsection.morse"):
        ms.find_critical_points(entries["TWO_WELLS"].merit, box=[[-2.0, 2.0], [-2.0, 2.0]])
    (message,) = [r.getMessage() for r in caplog.records if "critical point search" in r.getMessage()]
    assert message.startswith("critical point search: 81 seeds, 3 unique points, ")
    assert message.endswith(" ended in a found point's ball")
    assert int(message.split(", ")[-1].split()[0]) > 0


# -- closed-form derivatives ------------------------------------------------


def test_closed_form_census_evaluates_each_found_point_once(entries, monkeypatch):
    # Every gradient and Hessian of the census and the outward check is the
    # merit's closed form, so the only evaluations are the found points'
    # values, one each.
    evaluated = []
    evaluate = ms.MeritFunction.__call__

    def recording(merit, p):
        evaluated.append(tuple(np.asarray(p, dtype=float).tolist()))
        return evaluate(merit, p)

    monkeypatch.setattr(ms.MeritFunction, "__call__", recording)
    for name in CATALOG_NAMES:
        merit = entries[name].merit
        for density in (9, 15):
            evaluated.clear()
            points = ms.find_critical_points(merit, seed_density=density)
            ms.check_outward_gradient(merit, boundary_density=density)
            assert points
            assert sorted(evaluated) == sorted(tuple(p.location.tolist()) for p in points)
            assert [p.value for p in points] == [evaluate(merit, p.location) for p in points]


def census_verdict(merit, density):
    """(counts by index or the degenerate refusal, outward verdict, pass)."""
    points = ms.find_critical_points(merit, seed_density=density)
    outward = ms.check_outward_gradient(merit, boundary_density=density)
    try:
        census = ms.morse_equality_audit(points, outward)
    except ms.DegenerateCriticalPointError:
        return points, ("degenerate", outward, False)
    return points, (census.counts, outward, census.passes)


@pytest.mark.parametrize("density", [9, 15])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_closed_form_verdicts_match_finite_differences(entries, name, density):
    merit = entries[name].merit
    exact, verdict = census_verdict(merit, density)
    fd, fd_verdict = census_verdict(differenced(merit), density)
    assert verdict == fd_verdict
    if verdict[0] != "degenerate":
        # non-degenerate points are isolated: both censuses find the same ones
        assert len(exact) == len(fd)
        for a, b in zip(exact, fd):
            assert np.allclose(a.location, b.location, rtol=0.0, atol=1e-6)
            assert a.index_gamma == b.index_gamma


def closed_form_merit(gradient=lambda p: 2.0 * p, hessian=lambda p: 2.0 * np.eye(2)):
    return ms.MeritFunction(
        2, lambda p: float(p @ p), domain_box=[[-1.0, 1.0]] * 2, gradient=gradient,
        hessian=hessian,
    )


def test_non_finite_closed_form_gradient_at_a_seed_is_refused():
    def gradient(p):
        g = 2.0 * p
        if p.tolist() == [0.5, -0.5]:
            g[1] = np.nan
        return g

    with pytest.raises(NonFiniteValueError) as info:
        ms.find_critical_points(closed_form_merit(gradient=gradient), seed_density=5)
    assert str(info.value) == "non-finite closed-form gradient entry at coordinate 1"
    assert info.value.point.tolist() == [0.5, -0.5]
    assert info.value.coordinates == (1,)


def test_census_refuses_a_closed_form_hessian_as_the_probes_do():
    wrong = closed_form_merit(hessian=lambda p: np.eye(3))
    with pytest.raises(ValueError, match=r"^closed-form Hessian has shape \(3, 3\), expected \(2, 2\)$"):
        ms.find_critical_points(wrong, seed_density=5)
    asymmetric = closed_form_merit(hessian=lambda p: np.array([[2.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError, match="^closed-form Hessian block is not symmetric"):
        ms.find_critical_points(asymmetric, seed_density=5)

    # at the first seed's Newton step, and at the found point's classification
    for where in ([-1.0, -1.0], [0.0, 0.0]):
        def hessian(p, where=where):
            h = 2.0 * np.eye(2)
            if p.tolist() == where:
                h[0, 1] = h[1, 0] = np.nan
            return h

        with pytest.raises(NonFiniteValueError) as info:
            ms.find_critical_points(closed_form_merit(hessian=hessian), seed_density=5)
        assert str(info.value) == "non-finite Hessian entry at coordinate pair (0, 1)"
        assert info.value.point.tolist() == where
        assert info.value.coordinates == (0, 1)


@pytest.mark.parametrize(
    "box, message",
    [
        pytest.param([[-1.0, 1.0]] * 3, r"^domain box must have shape \(M, 2\)$", id="three-rows"),
        pytest.param([-1.0, 1.0], r"^domain box must have shape \(M, 2\)$", id="flat"),
        pytest.param([[1.0, -1.0], [-1.0, 1.0]], "^domain box intervals must be nondegenerate$",
                     id="inverted"),
        pytest.param([[-1.0, 1.0], [-np.inf, 1.0]], "^domain box bounds must be finite, got ",
                     id="infinite"),
        pytest.param([[-1.0, 1.0], [np.nan, 1.0]], "^domain box bounds must be finite, got ",
                     id="nan"),
    ],
)
def test_explicit_box_is_refused_before_any_evaluation(box, message):
    def evaluate(p):
        pytest.fail(f"evaluated at {p}")

    merit = ms.MeritFunction(2, evaluate)
    with pytest.raises(ValueError, match=message):
        ms.find_critical_points(merit, box=box)
    with pytest.raises(ValueError, match=message):
        ms.check_outward_gradient(merit, box=box)
