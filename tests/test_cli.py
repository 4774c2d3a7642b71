import ast
import json
import math
import os
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import minsection as ms
from minsection import cli


def run_cli(args):
    return cli.main(args)


def test_solve_exp_fit_writes_report(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        ["--problem", "EXP_FIT", "--command", "solve", "--out", str(out)]
    ) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert np.allclose(payload["minimizer"], [-0.5, 2.0], atol=1e-6)
    assert payload["inner_method"] == "linear_elimination"
    text = (out / "solve.txt").read_text()
    assert "convexity: positive_definite_everywhere_sampled" in text


def test_audit_two_wells_census(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        ["--problem", "TWO_WELLS", "--command", "audit", "--out", str(out)]
    ) == 0
    payload = json.loads((out / "census.json").read_text())
    assert payload["counts"] == {"0": 2, "1": 1}
    assert payload["alternating_sum"] == 1
    assert payload["passes"] is True


def test_sections_quad_csv_matches_parabola(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        [
            "--problem",
            "QUAD",
            "--command",
            "sections",
            "--x-indices",
            "0",
            "--grid-density",
            "41",
            "--out",
            str(out),
        ]
    ) == 0
    lines = (out / "section_0.csv").read_text().splitlines()
    assert lines[0] == "x_i,F,comp_0,residual"
    for line in lines[1:]:
        x, value, *_ = (float(c) for c in line.split(","))
        assert abs(value - x * x) <= 1e-10


def test_refusal_exit_code_and_witness(tmp_path, capsys):
    code = run_cli(
        ["--problem", "NEG_Y", "--command", "solve", "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "witness point" in err
    assert "refused" in err


@pytest.mark.parametrize(
    "problem, command, witness",
    [
        ("DEGEN_LINE", "solve", ["witness point: [-10.0, 10.0]"]),
        ("NEG_Y", "trace", ["witness point: [0.0, 0.0]", "witness min eigenvalue: -2.0"]),
    ],
)
def test_slice_refusals_print_their_witness(tmp_path, capsys, problem, command, witness):
    # DEGEN_LINE's slice at x = -10 stops on the face y = 10; NEG_Y's trace
    # refuses its middle slice, x = 0, where the merit is concave in y
    argv = ["--problem", problem, "--command", command, "--out", str(tmp_path)]
    assert run_cli(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1 - len(witness)].startswith("refused: ")
    assert lines[-len(witness):] == witness


def test_degenerate_audit_refused(tmp_path, capsys):
    code = run_cli(
        ["--problem", "DEGEN_LINE", "--command", "audit", "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "degenerate" in err
    # each printed location is the repr of a census point's coordinates
    (refusal,) = [line for line in err.splitlines() if line.startswith("refused: ")]
    where = refusal.split(" at ", 1)[1].split(": ", 1)[0]
    printed = [ast.literal_eval(loc) for loc in where.split("; ")]
    points = ms.find_critical_points(ms.get_problem("DEGEN_LINE").merit, seed_density=9)
    census = [[float(v) for v in p.location] for p in points if p.degenerate]
    assert printed == census
    # the witness is the first listed, lowest-value degenerate point
    assert f"witness point: {census[0]}" in err.splitlines()


def test_malformed_problem_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dimension": 2')
    code = run_cli(["--problem", str(bad), "--command", "solve", "--out", str(tmp_path)])
    assert code == 2
    assert "input error" in capsys.readouterr().err


def test_unwritable_output_dir_exit_2(tmp_path, capsys):
    # --out names a regular file, so creating the output directory fails
    # with an OSError only once the command has run
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code = run_cli(["--problem", "EXP_FIT", "--command", "solve", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert out.read_text() == "not a directory\n"


def test_missing_anchor_flags_exit_2(tmp_path, capsys):
    code = run_cli(
        ["--problem", "DEGEN_LINE", "--command", "recover", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "anchor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--problem", "QUAD", "--command", "solve", "--grid-density", "2"], "--grid-density"),
        (["--problem", "QUAD", "--command", "solve", "--x-indices", "5"], "--x-indices"),
        (
            ["--problem", "DEGEN_LINE", "--command", "recover", "--anchor-index", "7",
             "--anchor-value", "0"],
            "--anchor-index",
        ),
        (["--problem", "QUAD", "--command", "sections", "--x-indices", "3"], "--x-indices"),
        (["--problem", "QUAD", "--command", "trace", "--grid-density", "0"], "--grid-density"),
        (["--problem", "QUAD", "--command", "sections", "--grid-density", "0"], "--grid-density"),
        (["--problem", "QUAD", "--command", "equivalence", "--starts", "0"], "--starts"),
        (
            ["--problem", "EXP_FIT", "--command", "recover", "--anchor-index", "0",
             "--anchor-value", "nan"],
            "--anchor-value",
        ),
        (
            ["--problem", "EXP_FIT", "--command", "recover", "--anchor-index", "0",
             "--anchor-value", "inf"],
            "--anchor-value",
        ),
        (
            ["--problem", "SINE_VALLEY", "--command", "recover", "--anchor-index", "0",
             "--anchor-value", "50"],
            "--anchor-value",
        ),
        (["--problem", "QUAD", "--command", "solve", "--outer-tol", "nan"], "--outer-tol"),
        (["--problem", "QUAD", "--command", "solve", "--outer-tol", "0"], "--outer-tol"),
        (["--problem", "QUAD", "--command", "solve", "--inner-tol", "-1"], "--inner-tol"),
        (["--problem", "QUAD", "--command", "trace", "--inner-tol", "inf"], "--inner-tol"),
        (["--problem", "QUAD", "--command", "equivalence", "--seed", "-1"], "--seed"),
        # one above the bound: a density far above it could exhaust memory
        *[
            (["--problem", "QUAD", "--command", command, "--grid-density",
              str(cli.MAX_GRID_DENSITY + 1)] + (
                ["--anchor-index", "0", "--anchor-value", "0"] if command == "recover" else []),
             f"--grid-density must be between 3 and {cli.MAX_GRID_DENSITY}")
            for command in cli.COMMANDS
        ],
    ],
)
def test_bad_flag_values_exit_2(tmp_path, capsys, argv, flag):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and flag in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_stencil_thin_box_is_input_error(tmp_path, capsys, monkeypatch, command):
    # coordinate 1 is 1e-6 wide, narrower than four second-difference steps
    (tmp_path / "thin.json").write_text(json.dumps({
        "dimension": 2,
        "model": {"kind": "catalog", "name": "SINE_VALLEY"},
        "domain_box": [[-2.0, 2.0], [0.0, 1e-6]],
    }))
    calls = []
    monkeypatch.setattr(ms.MeritFunction, "__call__", lambda merit, p: calls.append(p))
    argv = ["--problem", str(tmp_path / "thin.json"), "--command", command,
            "--anchor-index", "0", "--anchor-value", "0", "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith(
        "input error: field domain_box is thinner along coordinate 1 than the "
        "finite-difference stencil"
    )
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "trace"])
@pytest.mark.parametrize("bounds", [[math.nan, 1.0], [-1.0, math.inf], [-math.inf, 1.0]])
def test_non_finite_box_is_input_error(tmp_path, capsys, monkeypatch, command, bounds):
    # json writes and reads NaN, Infinity and -Infinity; a NaN bound passes
    # the lo < hi test, and an infinite one leaves the grids without nodes
    (tmp_path / "box.json").write_text(json.dumps({
        "dimension": 2,
        "model": {"kind": "catalog", "name": "SINE_VALLEY"},
        "domain_box": [[-2.0, 2.0], bounds],
    }))
    calls = []
    monkeypatch.setattr(ms.MeritFunction, "__call__", lambda merit, p: calls.append(p))
    argv = ["--problem", str(tmp_path / "box.json"), "--command", command,
            "--out", str(tmp_path / "out")]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == (
        "input error: field domain_box has a non-finite bound along coordinate 1: "
        f"[{bounds[0]!r}, {bounds[1]!r}]\n"
    )
    assert calls == []
    assert not (tmp_path / "out").exists()


def test_recover_command(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        [
            "--problem",
            "DEGEN_LINE",
            "--command",
            "recover",
            "--anchor-index",
            "0",
            "--anchor-value",
            "0.5",
            "--out",
            str(out),
        ]
    ) == 0
    payload = json.loads((out / "recovery.json").read_text())
    assert np.allclose(payload["recovered"], [0.5, 1.5], atol=1e-9)


def test_trace_command_csv(tmp_path):
    out = tmp_path / "run"
    assert run_cli(
        [
            "--problem",
            "SINE_VALLEY",
            "--command",
            "trace",
            "--grid-density",
            "11",
            "--out",
            str(out),
        ]
    ) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "x_0,g_0,F,residual,y_index"
    assert len(lines) == 12
    x0, g0, *_ = (float(c) for c in lines[1].split(","))
    assert abs(g0 - np.sin(x0)) <= 1e-7


def test_equivalence_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli(
            [
                "--problem",
                "SINE_VALLEY",
                "--command",
                "equivalence",
                "--starts",
                "3",
                "--seed",
                "42",
                "--out",
                str(out),
            ]
        ) == 0
    assert (out1 / "equivalence.json").read_bytes() == (out2 / "equivalence.json").read_bytes()
    payload = json.loads((out1 / "equivalence.json").read_text())
    assert payload["max_distance"] <= 1e-6


@pytest.mark.filterwarnings("ignore::minsection.BoundaryStepWarning")
@pytest.mark.parametrize("problem", ["SINE_VALLEY", "TWO_WELLS"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_is_byte_deterministic(tmp_path, capsys, problem, command):
    # Two runs in one process: no solver state may leak into the outputs.
    extra = {
        "recover": ["--anchor-index", "0", "--anchor-value", "0.3"],
        "equivalence": ["--starts", "3", "--seed", "4"],
    }.get(command, [])
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        status = run_cli(["--problem", problem, "--command", command, "--out", str(out)] + extra)
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        runs.append((status, capsys.readouterr().out, files))
    assert runs[0][0] == 0 and runs[0][2]
    assert runs[0] == runs[1]


def test_file_problem_through_cli(tmp_path):
    t = np.arange(10.0)
    d = 2.0 * np.exp(-0.5 * t)
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "\n".join(f"{float(tk)!r},{float(dk)!r}" for tk, dk in zip(t, d)) + "\n"
    )
    (tmp_path / "prob.json").write_text(
        json.dumps(
            {
                "dimension": 2,
                "split": {"x_indices": [0], "y_indices": [1]},
                "domain_box": [[-2.0, 0.5], [-5.0, 5.0]],
                "model": {
                    "kind": "partially_linear",
                    "basis": [{"type": "exponential", "rate_index": 0}],
                },
                "data_file": "obs.csv",
            }
        )
    )
    out = tmp_path / "run"
    assert run_cli(
        ["--problem", str(tmp_path / "prob.json"), "--command", "solve", "--out", str(out)]
    ) == 0
    payload = json.loads((out / "solve.json").read_text())
    assert np.allclose(payload["minimizer"], [-0.5, 2.0], atol=1e-6)


def test_non_finite_observation_is_input_error(tmp_path, capsys):
    t = np.arange(10.0)
    d = 2.0 * np.exp(-0.5 * t)
    rows = [f"{float(tk)!r},{float(dk)!r}" for tk, dk in zip(t, d)]
    rows[3] = "3.0,nan"
    (tmp_path / "obs.csv").write_text("t,d\n" + "\n".join(rows) + "\n")
    (tmp_path / "prob.json").write_text(
        json.dumps(
            {
                "dimension": 2,
                "split": {"x_indices": [0], "y_indices": [1]},
                "domain_box": [[-2.0, 0.5], [-5.0, 5.0]],
                "model": {
                    "kind": "partially_linear",
                    "basis": [{"type": "exponential", "rate_index": 0}],
                },
                "data_file": "obs.csv",
            }
        )
    )
    out = tmp_path / "run"
    code = run_cli(
        ["--problem", str(tmp_path / "prob.json"), "--command", "solve", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert f"data file {tmp_path / 'obs.csv'} line 5: values must be finite" in err
    assert not out.exists()


def test_json_floats_round_trip(tmp_path):
    out = tmp_path / "run"
    run_cli(["--problem", "EXP_FIT", "--command", "solve", "--out", str(out)])
    payload = json.loads((out / "solve.json").read_text())
    # shortest-repr serialization parses back to the exact double
    raw = (out / "solve.json").read_text()
    assert json.loads(json.dumps(payload)) == payload
    assert repr(payload["gradient_norm"]) in raw


def test_overflowing_basis_is_input_error(tmp_path, capsys):
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "\n".join(f"{float(tk)!r},1.0" for tk in range(40)) + "\n"
    )
    (tmp_path / "prob.json").write_text(
        json.dumps(
            {
                "dimension": 2,
                "split": {"x_indices": [0], "y_indices": [1]},
                "domain_box": [[-2.0, 30.0], [-10.0, 10.0]],
                "model": {
                    "kind": "partially_linear",
                    "basis": [{"type": "exponential", "rate_index": 0}],
                },
                "data_file": "obs.csv",
            }
        )
    )
    code = run_cli(
        ["--problem", str(tmp_path / "prob.json"), "--command", "solve", "--out", str(tmp_path)]
    )
    assert code == 2
    assert "model.basis[0]" in capsys.readouterr().err


def test_overflowing_y_block_refused_with_witness(tmp_path, capsys):
    # Every basis term is finite on the rate box [-2, 17], but 2 Phi^T Phi
    # overflows once exp(2 * 39 * rate) does.
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "\n".join(f"{float(tk)!r},1.0" for tk in range(40)) + "\n"
    )
    (tmp_path / "prob.json").write_text(
        json.dumps(
            {
                "dimension": 2,
                "split": {"x_indices": [0], "y_indices": [1]},
                "domain_box": [[-2.0, 17.0], [-10.0, 10.0]],
                "model": {
                    "kind": "partially_linear",
                    "basis": [{"type": "exponential", "rate_index": 0}],
                },
                "data_file": "obs.csv",
            }
        )
    )
    code = run_cli(
        ["--problem", str(tmp_path / "prob.json"), "--command", "solve", "--out", str(tmp_path)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "min eigenvalue" not in err
    witness = ast.literal_eval(err.split("witness point: ")[1].splitlines()[0])
    nodes = np.linspace(-2.0, 17.0, 21)
    first_overflow = nodes[nodes > np.log(np.finfo(float).max) / (2 * 39)][0]
    assert witness == [first_overflow, 0.0]


def test_nan_island_refused_with_witness(tmp_path, capsys, monkeypatch):
    def nan_island(p):
        return float("nan") if p[0] > 0.5 else float(p[0] ** 2 + p[1] ** 2)

    merit = ms.MeritFunction(2, nan_island, domain_box=[[-1.0, 1.0], [-1.0, 1.0]])
    entry = ms.ProblemCatalogEntry("NAN_ISLAND", merit, "strictly_convex")
    monkeypatch.setattr(cli, "get_problem", lambda name: entry)
    code = run_cli(["--problem", "NAN_ISLAND", "--command", "solve", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "non-finite" in err and "witness point" in err


def test_non_finite_closed_form_gradient_refused_with_witness(tmp_path, capsys, monkeypatch):
    # The merit is finite everywhere; its closed-form gradient is not.
    merit = ms.MeritFunction(
        2,
        lambda p: float(p[0] ** 2 + p[1] ** 2),
        domain_box=[[-1.0, 1.0], [-1.0, 1.0]],
        gradient=lambda p: np.array([float("nan"), 2.0 * p[1]]),
    )
    entry = ms.ProblemCatalogEntry("NAN_GRADIENT", merit, "strictly_convex")
    monkeypatch.setattr(cli, "get_problem", lambda name: entry)
    out = tmp_path / "run"
    assert run_cli(["--problem", "NAN_GRADIENT", "--command", "solve", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-2] == "refused: non-finite closed-form gradient entry at coordinate 0"
    witness = ast.literal_eval(lines[-1].removeprefix("witness point: "))
    assert len(witness) == 2 and merit.contains(witness)
    assert not out.exists()


def test_non_finite_section_difference_refused_with_witness(tmp_path, capsys, monkeypatch):
    # No closed form: the outer stage's central difference along the
    # retained parameter p1 meets NaN; the witness is the full vector.
    def nan_gap(p):
        y, x, z = p
        if 0.0 < abs(x) < 1e-4:
            return float("nan")
        return float(x**2 + (y - x) ** 2 + (z + x) ** 2 + 1.0)

    merit = ms.MeritFunction(3, nan_gap, domain_box=[[-10.0, 10.0]] * 3)
    entry = ms.ProblemCatalogEntry("NAN_GAP", merit, "strictly_convex")
    monkeypatch.setattr(cli, "get_problem", lambda name: entry)
    out = tmp_path / "run"
    argv = ["--problem", "NAN_GAP", "--command", "solve", "--x-indices", "1", "--y-indices",
            "0,2", "--out", str(out)]
    assert run_cli(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[-2] == "refused: non-finite gradient entry at coordinate 1"
    assert lines[-1] == "witness point: [0.0, 0.0, 0.0]"
    assert not out.exists()


@pytest.mark.parametrize(
    "offset", [{}, 0, False, "", None],
    ids=["empty-object", "zero", "false", "empty-string", "null"],
)
def test_falsy_non_list_offset_is_input_error(tmp_path, capsys, offset):
    t = np.arange(10.0)
    (tmp_path / "obs.csv").write_text(
        "t,d\n" + "\n".join(f"{float(tk)!r},{float(dk)!r}" for tk, dk in zip(t, np.exp(-t))) + "\n"
    )
    (tmp_path / "prob.json").write_text(
        json.dumps(
            {
                "dimension": 2,
                "domain_box": [[-2.0, 0.5], [-5.0, 5.0]],
                "model": {
                    "kind": "partially_linear",
                    "basis": [{"type": "exponential", "rate_index": 0}],
                    "offset": offset,
                },
                "data_file": "obs.csv",
            }
        )
    )
    out = tmp_path / "run"
    argv = ["--problem", str(tmp_path / "prob.json"), "--command", "solve", "--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err == "input error: field model.offset has the wrong type\n"
    assert not out.exists()


def test_solve_error_refusal_prints_best_point(tmp_path, capsys):
    # An outer tolerance below float resolution stalls the quasi-Newton
    # line search at the section minimum, a SolveError refusal. An even grid
    # has no node at the minimum x = 0, whose slice the middle-first grid
    # solve would hit exactly.
    argv = ["--problem", "SINE_VALLEY", "--command", "solve", "--outer-tol", "1e-300",
            "--grid-density", "20"]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 1
    assert list(tmp_path.iterdir()) == []
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith("refused: quasi-Newton line search stalled at x = ")
    best = ast.literal_eval(lines[1].removeprefix("witness point: "))
    assert lines[1].startswith("witness point: ") and len(best) == 2
    assert max(abs(v) for v in best) < 1e-6
    value = float(lines[2].removeprefix("witness value: "))
    assert lines[2].startswith("witness value: ") and 0.0 <= value < 1e-12
    assert len(lines) == 3


#: One of each refusal type, and the witness lines the CLI prints for it:
#: ``witness point``, ``witness min eigenvalue`` and ``witness value``,
#: each exactly when the refusal carries that field.
REFUSAL_CASES = [
    (ms.numerics.NonFiniteValueError("non-finite gradient entry", [1.0, -2.0], (1,)),
     ["witness point: [1.0, -2.0]"]),
    (ms.RankDeficiencyError("design matrix has rank 1 < 2", 1, 2), []),
    (ms.DegenerateCriticalPointError("degenerate point", [SimpleNamespace(location=[0.5, 0.0])]),
     ["witness point: [0.5, 0.0]"]),
    (ms.ConvexityError("not positive definite", point=[0.0, 0.0], min_eig=-2.0),
     ["witness point: [0.0, 0.0]", "witness min eigenvalue: -2.0"]),
    (ms.SubMinimizeError("slice stalled", point=[-10.0, 10.0], grad_norm=3.0, iterations=1),
     ["witness point: [-10.0, 10.0]"]),
    (ms.BracketError("section is flat on the grid", "flat"), []),
    (ms.SolveError("line search stalled", point=[1e-9, -0.0], value=0.25),
     ["witness point: [1e-09, -0.0]", "witness value: 0.25"]),
    (ms.TraceError("slice failed", x_failed=np.array([0.0]), point=[0.0, 1.0], min_eig=-1.5),
     ["witness point: [0.0, 1.0]", "witness min eigenvalue: -1.5"]),
]


@pytest.mark.parametrize(
    "error, witness", REFUSAL_CASES, ids=[type(error).__name__ for error, _ in REFUSAL_CASES]
)
def test_every_refusal_prints_its_witness(tmp_path, capsys, monkeypatch, error, witness):
    def command(args, definition, out):
        raise error

    monkeypatch.setitem(cli._DISPATCH, "solve", command)
    assert run_cli(["--problem", "QUAD", "--command", "solve", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"refused: {error}", *witness]


def test_boundary_clamps_are_one_warning_line(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ, PYTHONPATH=str(Path(ms.__file__).resolve().parents[1]))
    argv = ["--problem", "TWO_WELLS", "--command", "solve", "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "minsection.cli"] + argv, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert "numerics.py" not in done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("warning:")]
    assert len(lines) == 1 and done.stderr == lines[0] + "\n"
    assert lines[0].startswith("warning: gradient stencil clamped at the domain boundary ")
    assert lines[0].endswith(" time(s); one-sided differences were used")


def test_other_warnings_pass_through_and_refusals_follow_the_tally(tmp_path, capsys, monkeypatch):
    def command(args, definition, out):
        for _ in range(3):
            warnings.warn("clamped", ms.BoundaryStepWarning)
        warnings.warn("something else", UserWarning)
        raise ms.SolveError("no minimum")

    monkeypatch.setitem(cli._DISPATCH, "solve", command)
    with pytest.warns(UserWarning, match="something else") as caught:
        status = run_cli(["--problem", "QUAD", "--command", "solve", "--out", str(tmp_path)])
    assert status == 1
    assert [w.category for w in caught] == [UserWarning]
    assert capsys.readouterr().err.splitlines() == [
        "warning: gradient stencil clamped at the domain boundary 3 time(s); one-sided "
        "differences were used",
        "refused: no minimum",
    ]


def test_audit_prints_the_census_counts_as_one_note(tmp_path, capsys):
    logger = ms.morse.logger
    level, handlers = logger.level, list(logger.handlers)
    assert run_cli(["--problem", "TWO_WELLS", "--command", "audit", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "note: critical point search: 81 seeds, 3 unique points, 0 dropped, "
        "70 ended in a found point's ball"
    ]
    # the census logger is left as it was
    assert (logger.level, logger.handlers) == (level, handlers)


def test_unexpected_exception_is_one_internal_error_line(tmp_path, capsys, monkeypatch):
    def command(args, definition, out):
        raise RuntimeError("lost a row")

    monkeypatch.setitem(cli._DISPATCH, "solve", command)
    assert run_cli(["--problem", "QUAD", "--command", "solve", "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["internal error: RuntimeError: lost a row"]
    assert "Traceback" not in captured.err + captured.out


def test_cli_manifest_lines_repeat():
    import importlib.util
    from pathlib import Path

    tool = Path(__file__).resolve().parent.parent / "tools" / "cli_manifest.py"
    spec = importlib.util.spec_from_file_location("cli_manifest", tool)
    manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(manifest)
    runs = [("QUAD", "solve"), ("NEG_Y", "trace"), ("exp_offset", "solve")]
    first = [manifest.manifest_line(*run) for run in runs]
    assert [manifest.manifest_line(*run) for run in runs] == first
    records = [json.loads(line) for line in first]
    assert [(r["problem"], r["command"], r["exit"]) for r in records] == [
        ("QUAD", "solve", 0), ("NEG_Y", "trace", 1), ("exp_offset", "solve", 0)
    ]
    assert sorted(records[0]["files"]) == ["solve.json", "solve.txt"]
    # a problem file's inputs are not listed among its outputs
    assert sorted(records[2]["files"]) == ["solve.json", "solve.txt"]
