import itertools
import math

import numpy as np
import pytest

import minsection as ms
from minsection.problems import EXP_FIT_DATA, EXP_FIT_T, linear_elimination_applies


def test_residual_merit_zero_at_root():
    merit = ms.build_residual_merit((lambda p: p[0] - 1.0, lambda p: p[1] - 2.0), 2)
    assert merit([1.0, 2.0]) == 0.0


def test_residual_merit_sum_of_squares():
    merit = ms.build_residual_merit((lambda p: p[0] - 1.0, lambda p: p[1] - 2.0), 2)
    assert merit([0.0, 0.0]) == 5.0


def test_residual_merit_mixed_terms():
    merit = ms.build_residual_merit(
        (lambda p: p[1] - math.sin(p[0]), lambda p: p[0]), 2
    )
    # direct arithmetic oracle: first residual vanishes, second is pi/2
    expected = (math.pi / 2.0) ** 2
    assert merit([math.pi / 2.0, 1.0]) == pytest.approx(expected, rel=1e-15)


def test_residual_merit_rejects_empty():
    with pytest.raises(ValueError, match="at least one residual"):
        ms.build_residual_merit((), 2)


def test_residual_merit_is_the_sum_of_squares_bit_for_bit(entries):
    chain = (lambda p: p[0] - 0.3, lambda p: p[1] - math.sin(p[0]), lambda p: p[2] - p[0] * p[1])
    merits = [e.merit for e in entries.values() if e.merit.structure == "residual"]
    assert len(merits) == 4
    merits.append(ms.build_residual_merit(chain, 3, box=np.array([[-2.0, 2.0]] * 3)))
    rng = np.random.default_rng(20)
    for merit in merits:
        box = merit.domain_box
        points = box[:, 0] + rng.uniform(size=(1000, merit.dimension)) * (box[:, 1] - box[:, 0])
        got = np.array([merit(p) for p in points])
        want = np.array([float(sum(r(p) ** 2 for r in merit.residuals)) for p in points])
        assert got.tobytes() == want.tobytes()


def test_residual_merit_overflow_is_inf_and_nan_is_nan():
    # numpy squares: an overflow is inf with a RuntimeWarning, never an
    # OverflowError as a Python float square would raise
    merit = ms.build_residual_merit((lambda p: p[0], lambda p: p[1]), 2)
    for p in ([1e200, 1.0], [1.0, 1e200]):
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert merit(np.array(p)) == math.inf
    assert math.isnan(merit(np.array([math.nan, 1.0])))
    assert math.isnan(merit(np.array([1.0, math.nan])))


def test_merit_call_hands_evaluate_a_float64_ndarray():
    class Marked(np.ndarray):
        pass

    seen = []
    merit = ms.MeritFunction(2, lambda p: seen.append(p) or 0.0)
    native = np.array([0.25, -3.0])
    inputs = [
        [0.25, -3.0], (0.25, -3.0), [1, -3], np.array([1, -3]),
        np.array([0.25, -3.0], dtype=np.float32), np.array([0.25, -3.0], dtype=">f8"),
        native.view(Marked), native, native[::-1],
    ]
    for p in inputs:
        merit(p)
        got = seen.pop()
        assert got.__class__ is np.ndarray and got.dtype == np.dtype(float)
        assert got.dtype.isnative
        assert got.tolist() == np.asarray(p, dtype=float).tolist()
    # a float64 ndarray is handed over as it is, as np.asarray would
    for p in (native, native[::-1]):
        merit(p)
        assert seen.pop() is p


def test_partially_linear_zero_at_generating_parameters(entries):
    merit = entries["EXP_FIT"].merit
    assert merit([-0.5, 2.0]) == 0.0


def test_partially_linear_value_oracle(entries):
    # direct summation over the 10 samples with the linear coefficient zeroed
    merit = entries["EXP_FIT"].merit
    expected = sum((2.0 * math.exp(-0.5 * t)) ** 2 for t in range(10))
    assert merit([-0.5, 0.0]) == pytest.approx(expected, rel=1e-14)


def test_partially_linear_rejects_pure_linear():
    with pytest.raises(ValueError, match="n >= 1"):
        ms.PartiallyLinearModel(
            basis=(lambda t, x: 1.0, lambda t, x: t),
            t=np.arange(5.0),
            d=np.arange(5.0),
            nonlinear_dim=0,
        )


def test_partially_linear_rejects_underdetermined():
    with pytest.raises(ValueError, match="samples"):
        ms.PartiallyLinearModel(
            basis=(lambda t, x: 1.0, lambda t, x: t),
            t=np.array([0.0]),
            d=np.array([1.0]),
            nonlinear_dim=1,
        )


def test_catalog_sine_valley_implicit(entries):
    entry = entries["SINE_VALLEY"]
    for x in (-2.0, 0.0, 0.7, 3.0):
        assert entry.known_implicit(x) == pytest.approx(math.sin(x))


def test_catalog_two_wells_section_is_double_well(entries):
    entry = entries["TWO_WELLS"]
    # substituting the implicit map collapses the section to (x^2 - 1)^2
    for x in np.linspace(-2, 2, 9):
        y = entry.known_implicit(x)
        assert entry.merit([x, y]) == pytest.approx((x * x - 1.0) ** 2, abs=1e-14)


def test_catalog_degen_line_has_no_isolated_minimum(entries):
    entry = entries["DEGEN_LINE"]
    assert entry.known_minimum is None
    assert entry.known_minima == ()
    for x in np.linspace(-5, 5, 7):
        assert entry.merit([x, 2.0 - x]) == pytest.approx(0.0, abs=1e-25)


def test_catalog_lookup_unknown():
    with pytest.raises(KeyError, match="unknown catalog problem"):
        ms.get_problem("NOPE")


def test_catalog_lookup_builds_only_the_named_entry(monkeypatch):
    from minsection import problems

    names = [entry.name for entry in ms.catalog()]
    assert list(problems._BUILDERS) == names
    built = []
    for name, build in problems._BUILDERS.items():
        monkeypatch.setitem(
            problems._BUILDERS, name, lambda name=name, build=build: built.append(name) or build()
        )
    for name in names:
        built.clear()
        assert ms.get_problem(name).name == name
        assert built == [name]


def test_exp_fit_data_matches_generating_model():
    assert np.allclose(EXP_FIT_DATA, 2.0 * np.exp(-0.5 * EXP_FIT_T))


def test_known_minima_have_zero_gradient(entries):
    # numeric gradient norm <= 1e-6 (scaled) at every stored minimizer
    for entry in entries.values():
        for p in entry.known_minima:
            grad = ms.fd_gradient(entry.merit, p)
            scale = max(1.0, abs(entry.merit(p)))
            assert np.linalg.norm(grad) <= 1e-6 * scale, entry.name


def test_partially_linear_y_block_independent_of_y(entries):
    merit = entries["EXP_FIT"].merit
    split = ms.model_split(merit)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = rng.uniform(-2.0, 0.5)
        y1, y2 = rng.uniform(-5.0, 5.0, size=2)
        b1 = ms.fd_y_block(merit, np.array([x, y1]), split)
        b2 = ms.fd_y_block(merit, np.array([x, y2]), split)
        assert np.allclose(b1, b2, rtol=1e-8, atol=1e-10)


def test_residual_merits_are_nonnegative(entries):
    rng = np.random.default_rng(5)
    for entry in entries.values():
        if entry.merit.structure == "general":
            continue
        box = entry.merit.domain_box
        samples = rng.uniform(box[:, 0], box[:, 1], size=(50, entry.merit.dimension))
        for p in samples:
            assert entry.merit(p) >= 0.0, entry.name


def test_split_validation():
    with pytest.raises(ValueError, match="disjoint"):
        ms.ParameterSplit((0, 1), (1, 2))
    with pytest.raises(ValueError, match="cover"):
        ms.ParameterSplit((0,), (2,))
    with pytest.raises(ValueError, match="nonempty"):
        ms.ParameterSplit((), (0, 1))
    split = ms.ParameterSplit((2, 0), (1,))
    assert split.n == 2 and split.m == 1 and split.dimension == 3


def test_split_refuses_duplicate_indices():
    # disjoint and covering {0, 1}, but index 0 is listed twice
    with pytest.raises(ValueError, match="must not contain duplicates"):
        ms.ParameterSplit((0, 0), (1,))


def test_split_embed_roundtrip():
    split = ms.ParameterSplit((0, 2), (1, 3))
    p = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(split.embed(split.x_part(p), split.y_part(p)), p)


def test_parameter_vector_validation():
    with pytest.raises(ValueError, match="finite"):
        ms.as_parameter_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="M >= 2"):
        ms.as_parameter_vector([1.0])


def test_random_quadratic_problem_shape_and_minimum():
    rng = np.random.default_rng(0)
    entry = ms.random_quadratic_problem(4, 2, rng)
    merit = entry.merit
    assert merit.structure == "partially_linear"
    p_star = entry.known_minimum
    assert np.linalg.norm(ms.fd_gradient(merit, p_star)) <= 1e-6 * max(
        1.0, merit(p_star)
    )
    # value exceeds the optimum everywhere else
    for _ in range(20):
        q = p_star + rng.uniform(-1.0, 1.0, size=4)
        assert merit(q) >= merit(p_star)


@pytest.mark.parametrize("nonlinear_dim", [1, 2, 3])
def test_linear_elimination_applies_matches_model_split(nonlinear_dim):
    merit = ms.random_quadratic_problem(4, nonlinear_dim, np.random.default_rng(3)).merit
    canonical = ms.model_split(merit)
    checked = 0
    for n in range(1, 4):
        for x_set in itertools.combinations(range(4), n):
            y_set = [i for i in range(4) if i not in x_set]
            for x in itertools.permutations(x_set):
                for y in itertools.permutations(y_set):
                    split = ms.ParameterSplit(x, y)
                    assert linear_elimination_applies(merit, split) == (canonical == split)
                    checked += 1
    assert checked == 72
    general = ms.build_residual_merit((lambda p: p[0], lambda p: p[1]), 2)
    assert not linear_elimination_applies(general, ms.ParameterSplit((0,), (1,)))
