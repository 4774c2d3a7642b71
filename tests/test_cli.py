import ast
import json
import os
import warnings

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
    ],
)
def test_bad_flag_values_exit_2(tmp_path, capsys, argv, flag):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and flag in err
    assert not any(tmp_path.iterdir())


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
    best = ast.literal_eval(lines[1].removeprefix("best point: "))
    assert lines[1].startswith("best point: ") and len(best) == 2
    assert max(abs(v) for v in best) < 1e-6
    value = float(lines[2].removeprefix("best value: "))
    assert lines[2].startswith("best value: ") and 0.0 <= value < 1e-12
    assert len(lines) == 3


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
