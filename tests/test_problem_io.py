import itertools
import json
import math
import re

import numpy as np
import pytest

import minsection as ms
from minsection import cli
from minsection.problem_io import ProblemFileError


def write_exp_fit_inputs(tmp_path, **overrides):
    t = np.arange(10.0)
    d = 2.0 * np.exp(-0.5 * t)
    lines = ["t,d"] + [f"{float(tk)!r},{float(dk)!r}" for tk, dk in zip(t, d)]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {
        "dimension": 2,
        "split": {"x_indices": [0], "y_indices": [1]},
        "domain_box": [[-2.0, 0.5], [-5.0, 5.0]],
        "model": {
            "kind": "partially_linear",
            "basis": [{"type": "exponential", "rate_index": 0}],
        },
        "data_file": "obs.csv",
    }
    doc.update(overrides)
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_partially_linear(tmp_path):
    definition = ms.load_problem_file(write_exp_fit_inputs(tmp_path))
    assert definition.merit.structure == "partially_linear"
    assert definition.split == ms.ParameterSplit((0,), (1,))
    assert definition.merit([-0.5, 2.0]) == pytest.approx(0.0, abs=1e-20)


def test_load_catalog_problem(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(
        json.dumps({"dimension": 2, "model": {"kind": "catalog", "name": "QUAD"}}),
        encoding="utf-8",
    )
    definition = ms.load_problem_file(path)
    assert definition.name == "QUAD"
    assert definition.entry is not None
    assert definition.merit([1.0, 1.0]) == 2.0


def test_load_catalog_with_box_override(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(
        json.dumps(
            {
                "dimension": 2,
                "domain_box": [[-1.0, 1.0], [-1.0, 1.0]],
                "model": {"kind": "catalog", "name": "QUAD"},
            }
        ),
        encoding="utf-8",
    )
    definition = ms.load_problem_file(path)
    assert np.allclose(definition.merit.domain_box, [[-1.0, 1.0], [-1.0, 1.0]])


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
@pytest.mark.parametrize("lo", [0.0, -0.5, 3.0, -1e4, 1e4])
def test_a_box_that_loads_fits_every_stencil(tmp_path, lo):
    # widths about four second-difference steps: each box is refused when
    # it loads, or no stencil about a point of it meets the thin-box error
    from minsection.numerics import HESSIAN_STEP, _second_diff_block

    path = tmp_path / "box.json"
    loaded = refused = 0
    for scale in np.linspace(0.99, 1.01, 41):
        hi = lo + 4.0 * HESSIAN_STEP * max(1.0, abs(lo)) * scale
        path.write_text(json.dumps({
            "dimension": 2,
            "model": {"kind": "catalog", "name": "QUAD"},
            "domain_box": [[-1.0, 1.0], [lo, hi]],
        }))
        try:
            merit = ms.load_problem_file(path).merit
        except ProblemFileError as err:
            assert str(err).startswith("field domain_box is thinner along coordinate 1 ")
            refused += 1
            continue
        loaded += 1
        for y in np.linspace(lo, hi, 7):
            p = np.array([0.0, y])
            _second_diff_block(merit, p, (0, 1), merit.domain_box)
            ms.fd_gradient(merit, p, box=merit.domain_box)
    assert loaded and refused


def test_basis_expression_set(tmp_path):
    t = np.linspace(0.0, 1.0, 8)
    d = 3.0 + 2.0 * t + 0.5 * np.sin(1.3 * t)
    lines = ["t,d"] + [f"{float(tk)!r},{float(dk)!r}" for tk, dk in zip(t, d)]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {
        "dimension": 4,
        "model": {
            "kind": "partially_linear",
            "basis": [
                {"type": "constant"},
                {"type": "polynomial", "degree": 1},
                {"type": "sinusoid", "fn": "sin", "frequency_index": 0},
            ],
        },
        "data_file": "obs.csv",
    }
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    definition = ms.load_problem_file(path)
    assert definition.merit.dimension == 4
    # generating parameters reproduce the data exactly
    assert definition.merit([1.3, 3.0, 2.0, 0.5]) == pytest.approx(0.0, abs=1e-18)


def test_offset_terms(tmp_path):
    t = np.arange(6.0)
    d = 5.0 * np.ones(6) + 2.0 * t
    lines = ["t,d"] + [f"{tk},{dk}" for tk, dk in zip(t, d)]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {
        "dimension": 2,
        "model": {
            "kind": "partially_linear",
            "basis": [{"type": "constant"}],
            "offset": [{"type": "polynomial", "degree": 1, "scale": 2.0}],
        },
        "data_file": "obs.csv",
    }
    path = tmp_path / "offset.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    definition = ms.load_problem_file(path)
    assert definition.merit([0.0, 5.0]) == pytest.approx(0.0, abs=1e-20)


def test_missing_field_reported(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"kind": "catalog", "name": "QUAD"}}))
    with pytest.raises(ProblemFileError, match="dimension"):
        ms.load_problem_file(path)


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"dimension": 2,\n  "model": }')
    with pytest.raises(ProblemFileError, match="line 2"):
        ms.load_problem_file(path)


def test_unknown_model_kind(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2, "model": {"kind": "magic"}}))
    with pytest.raises(ProblemFileError, match="model.kind"):
        ms.load_problem_file(path)


def test_unknown_basis_type(tmp_path):
    path = write_exp_fit_inputs(
        tmp_path, model={"kind": "partially_linear", "basis": [{"type": "spline"}]}
    )
    with pytest.raises(ProblemFileError, match=r"model.basis\[0\].type"):
        ms.load_problem_file(path)


def test_split_mismatch_reported(tmp_path):
    path = write_exp_fit_inputs(tmp_path, split={"x_indices": [0], "y_indices": [2]})
    with pytest.raises(ProblemFileError, match="split"):
        ms.load_problem_file(path)


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"model": {"kind": "partially_linear",
                    "basis": [{"type": "exponential", "rate_index": False}]}},
         "model.basis[0].rate_index"),
        ({"model": {"kind": "partially_linear", "basis": [{"type": "polynomial", "degree": True}]}},
         "model.basis[0].degree"),
        ({"split": {"x_indices": [0.5], "y_indices": [1]}}, "split.x_indices"),
    ],
    ids=["bool-rate-index", "bool-degree", "float-split-index"],
)
def test_non_integer_index_fields_are_input_errors(tmp_path, capsys, overrides, field):
    # JSON booleans are not integers, and a float index is not truncated
    path = write_exp_fit_inputs(tmp_path, **overrides)
    with pytest.raises(ProblemFileError, match=re.escape(f"field {field} ")):
        ms.load_problem_file(path)
    out = tmp_path / "run"
    assert cli.main(["--problem", str(path), "--command", "solve", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err


def test_data_csv_header_enforced(tmp_path):
    (tmp_path / "obs.csv").write_text("time,obs\n0,1\n", encoding="utf-8")
    path = write_exp_fit_inputs(tmp_path)
    (tmp_path / "obs.csv").write_text("time,obs\n0,1\n", encoding="utf-8")
    with pytest.raises(ProblemFileError, match="expected header 't,d'"):
        ms.load_problem_file(path)


def test_data_csv_bad_cell_reports_line(tmp_path):
    (tmp_path / "data.csv").write_text("t,d\n0,1.0\n1,oops\n", encoding="utf-8")
    with pytest.raises(ProblemFileError, match="line 3"):
        ms.load_data_csv(tmp_path / "data.csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_data_csv_non_finite_cell_reports_line(tmp_path, cell):
    (tmp_path / "data.csv").write_text(f"t,d\n0,1.0\n3.0,{cell}\n", encoding="utf-8")
    with pytest.raises(ProblemFileError) as err:
        ms.load_data_csv(tmp_path / "data.csv")
    assert str(err.value) == (
        f"data file {tmp_path / 'data.csv'} line 3: values must be finite, got '3.0,{cell}'"
    )
    (tmp_path / "data.csv").write_text(f"t,d\n{cell},1.0\n", encoding="utf-8")
    with pytest.raises(ProblemFileError, match="line 2: values must be finite"):
        ms.load_data_csv(tmp_path / "data.csv")


def test_data_csv_round_trip(tmp_path):
    (tmp_path / "data.csv").write_text("t,d\n0,1.5\n2,-0.25\n", encoding="utf-8")
    t, d = ms.load_data_csv(tmp_path / "data.csv")
    assert np.array_equal(t, [0.0, 2.0])
    assert np.array_equal(d, [1.5, -0.25])


# -- vectorized terms ---------------------------------------------------------

X_BOX = [[-0.8, 0.3], [0.5, 2.0]]
BASIS = [
    {"type": "polynomial", "degree": 0},
    {"type": "polynomial", "degree": 1, "scale": -1.5},
    {"type": "polynomial", "degree": 2},
    {"type": "polynomial", "degree": 5, "scale": 0.25},
    {"type": "constant", "scale": 3.0},
    {"type": "sinusoid", "fn": "sin", "frequency_index": 1},
    {"type": "sinusoid", "fn": "cos", "frequency_index": 0, "scale": 2.0},
    {"type": "exponential", "rate_index": 0},
    {"type": "exponential", "rate_index": 1, "scale": -0.5},
]


def math_term(term, tk, x):
    """One term at one sample, evaluated with the ``math`` module."""
    scale = term.get("scale", 1.0)
    if term["type"] == "polynomial":
        return scale * tk ** term["degree"]
    if term["type"] == "exponential":
        return scale * math.exp(x[term["rate_index"]] * tk)
    if term["type"] == "sinusoid":
        return scale * getattr(math, term["fn"])(x[term["frequency_index"]] * tk)
    return scale


def load_terms(tmp_path, t, basis, offset=None):
    lines = ["t,d"] + [f"{float(tk)!r},0.5" for tk in t]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = {"kind": "partially_linear", "basis": basis}
    if offset is not None:
        model["offset"] = offset
    doc = {
        "dimension": 2 + len(basis),
        "domain_box": X_BOX + [[-5.0, 5.0]] * len(basis),
        "model": model,
        "data_file": "obs.csv",
    }
    path = tmp_path / "terms.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ms.load_problem_file(path).merit.model


def box_points(seed=0, count=4):
    rng = np.random.default_rng(seed)
    lo, hi = np.array(X_BOX).T
    return [np.array(x) for x in itertools.product(*X_BOX)] + list(
        rng.uniform(lo, hi, size=(count, 2))
    )


@pytest.mark.parametrize(
    "t",
    [np.arange(-6.0, 9.0), np.random.default_rng(7).uniform(-4.0, 6.0, 60)],
    ids=["integer_t", "real_t"],
)
def test_vectorized_design_matrix_matches_math(tmp_path, t):
    model = load_terms(tmp_path, t, BASIS)
    assert model.vectorized
    # exp, and powers of degree 2 and up, may round differently from math
    # by one ulp; integer t keeps every power exact.
    integer_t = np.array_equal(t, np.round(t))
    exact = [
        term["type"] in ("constant", "sinusoid")
        or (term["type"] == "polynomial" and (term["degree"] < 2 or integer_t))
        for term in BASIS
    ]
    for x in box_points():
        phi = model.design_matrix(x)
        assert phi.shape == (t.size, len(BASIS))
        for j, term in enumerate(BASIS):
            want = np.array([math_term(term, float(tk), x) for tk in t])
            if exact[j]:
                assert np.array_equal(phi[:, j], want), term
            else:
                np.testing.assert_array_max_ulp(phi[:, j], want, maxulp=2)


def test_vectorized_offsets_match_math(tmp_path):
    t = np.random.default_rng(8).uniform(-4.0, 6.0, 30)
    exact_terms = [term for term in BASIS if term["type"] in ("constant", "sinusoid")]
    exact_terms.append({"type": "polynomial", "degree": 1, "scale": 0.5})
    basis = [{"type": "constant"}]
    mixed = load_terms(tmp_path, t, basis, exact_terms)
    exp_only = load_terms(tmp_path, t, basis, [BASIS[-1]])
    constant_only = load_terms(tmp_path, t, basis, [{"type": "constant", "scale": 2.5}])
    for x in box_points():
        want = np.array([sum(math_term(term, float(tk), x) for term in exact_terms) for tk in t])
        assert np.array_equal(mixed.offsets(x), want)
        want = np.array([math_term(BASIS[-1], float(tk), x) for tk in t])
        np.testing.assert_array_max_ulp(exp_only.offsets(x), want, maxulp=2)
        assert np.array_equal(constant_only.offsets(x), np.full(t.size, 2.5))


def test_overflow_at_load_names_first_sample_of_first_corner(tmp_path):
    # The box corners are visited in itertools.product order; at the first
    # one that overflows, the first non-finite sample is named.
    t = np.arange(40.0)
    basis = [{"type": "exponential", "rate_index": 1}]
    lines = ["t,d"] + [f"{float(tk)!r},1.0" for tk in t]
    (tmp_path / "obs.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    doc = {
        "dimension": 3,
        "domain_box": [[-30.0, 1.0], [-1.0, 25.0], [-10.0, 10.0]],
        "model": {"kind": "partially_linear", "basis": basis,
                  "offset": [{"type": "exponential", "rate_index": 0, "scale": -1e300}]},
        "data_file": "obs.csv",
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ProblemFileError) as err:
        ms.load_problem_file(path)
    assert str(err.value) == (
        "field model.basis[0] is not finite at t = 29.0, x = [-30.0, 25.0] "
        "(a corner of the nonlinear domain box)"
    )
    doc["domain_box"][1] = [-1.0, 2.0]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ProblemFileError) as err:
        ms.load_problem_file(path)
    assert str(err.value) == (
        "field model.offset[0] is not finite at t = 20.0, x = [1.0, -1.0] "
        "(a corner of the nonlinear domain box)"
    )


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "scalar"])
def test_stacked_design_matrix_is_its_rows(tmp_path, vectorized):
    t = np.random.default_rng(9).uniform(-4.0, 6.0, 40)
    if vectorized:
        model = load_terms(tmp_path, t, BASIS)
    else:
        model = ms.PartiallyLinearModel(
            basis=tuple(lambda tk, x, term=term: math_term(term, tk, x) for term in BASIS),
            t=t,
            d=np.zeros(t.size),
            nonlinear_dim=2,
        )
    xs = np.array(box_points(count=20))
    stack = model.design_matrix(xs)
    assert stack.shape == (len(xs), t.size, len(BASIS))
    for x, phi in zip(xs, stack):
        assert np.array_equal(phi, model.design_matrix(x))
    assert model.design_matrix(xs[:0]).shape == (0, t.size, len(BASIS))
