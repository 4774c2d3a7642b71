"""The three workloads: their inputs, made from the seed, and their ops.

An op builds its problem objects anew and, when it is file-defined,
reloads its file, so no state carries over from one pass to the next.
``Op.run`` is the timed part; ``Op.check`` runs outside the timing and
raises :class:`checks.CheckError` on a wrong output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("separable-fit", "general-newton", "cli-analysis")

#: The one operation allowed to fail: the closest-rate bi-exponential fit,
#: on which coordinate cycling does not converge. Its inputs do not depend
#: on the seed, so it fails on every pass of every run.
KNOWN_FAULT = ("SolveError", "coordinate cycling did not converge within 60 cycles")

BIEXP_RATES = ((-0.3, -4.0), (-0.5, -3.0), (-0.7, -2.3))
BIEXP_AMPLITUDES = (1.0, 2.0)
BIEXP_T = np.arange(20.0)
BIEXP_RATE_BOX = ((-1.5, 0.0), (-6.0, -1.8))
LINEAR_BOX = (-10.0, 10.0)

FREQ_SAMPLES = 400
FREQ_STEP = 0.05
FREQ_BOX = (0.7, 1.3)
FREQ_NOISE = 0.05

M3_BOX = (-2.0, 2.0)
ANISO_WEIGHT = 1.5
ANISO_AB = (0.3, 0.7)
#: Keeps the slice minimum p2 = p0 + c inside the p2 range.
ANISO_X_BOX = (-5.0, 5.0)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    known_fault: tuple[str, str] | None = None
    state: dict = field(default_factory=dict)

    def is_known_fault(self, err: BaseException) -> bool:
        return self.known_fault is not None and (
            type(err).__name__,
            str(err),
        ) == self.known_fault


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _write_problem(run_dir: Path, stem: str, doc: dict, t=None, d=None) -> Path:
    if t is not None:
        rows = ["t,d"] + [f"{tk!r},{dk!r}" for tk, dk in zip(map(float, t), map(float, d))]
        _write(run_dir / f"{stem}.csv", "\n".join(rows) + "\n")
        doc = dict(doc, data_file=f"{stem}.csv")
    return _write(run_dir / f"{stem}.json", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _hier_check(what, want, tol):
    def check(report):
        checks.close_to(what, report.minimizer, want, tol)

    return check


# -- separable-fit -----------------------------------------------------------


def spd_quadratic(rng, dimension: int, nonlinear_dim: int):
    """Seeded SPD quadratic as a partially linear model.

    Residual rows ``R (p - p_star)`` plus one constant row, so
    ``F(p) = |R (p - p_star)|^2 + c^2``. The Hessian and the retained part
    of ``p_star`` come from a generator fixed per shape: the section over x
    and so the outer work (cycles, slice solves) are then the same for every
    seed. The seed draws the eliminated part of ``p_star`` and ``c``.
    Returns (rows, data, minimiser), the minimiser from an independent numpy
    least-squares solve.
    """
    shape_rng = np.random.default_rng((dimension, nonlinear_dim))
    eigs = shape_rng.uniform(1.0, 2.0, size=dimension)
    q, _ = np.linalg.qr(shape_rng.standard_normal((dimension, dimension)))
    a = (q * eigs) @ q.T
    rows = np.zeros((dimension + 1, dimension))
    rows[:dimension] = np.linalg.cholesky(0.5 * (a + a.T)).T
    p_star = np.concatenate([
        shape_rng.uniform(-3.0, 3.0, size=nonlinear_dim),
        rng.uniform(-3.0, 3.0, size=dimension - nonlinear_dim),
    ])
    d = rows @ p_star
    d[dimension] = -float(rng.uniform(0.0, 5.0))
    minimiser = np.linalg.lstsq(rows[:dimension], d[:dimension], rcond=None)[0]
    return rows, d, minimiser


def _quadratic_op(ms, rng, dimension, n):
    rows, d, minimiser = spd_quadratic(rng, dimension, n)

    def run():
        def column(j):
            return lambda tk, x: float(rows[int(tk), j])

        model = ms.problems.PartiallyLinearModel(
            basis=tuple(column(j) for j in range(n, dimension)),
            t=np.arange(dimension + 1, dtype=float),
            d=d,
            nonlinear_dim=n,
            offset=lambda tk, x: float(rows[int(tk), :n] @ x),
        )
        merit = ms.problems.build_partially_linear(model)
        split = ms.problems.ParameterSplit(tuple(range(n)), tuple(range(n, dimension)))
        return ms.solver.solve_hierarchical(merit, split)

    return Op(f"quad_m{dimension}_n{n}", run, _hier_check("quadratic minimiser", minimiser, 1e-5))


def _file_fit_op(ms, name, path, check, known_fault=None):
    def run():
        definition = ms.problem_io.load_problem_file(path)
        return definition, ms.solver.solve_hierarchical(definition.merit, definition.split)

    return Op(name, run, lambda result: check(*result), known_fault)


def separable_fit(ms, rng, run_dir: Path) -> list[Op]:
    ops = []

    def exp_fit():
        merit = ms.problems.get_problem("EXP_FIT").merit
        return ms.solver.solve_hierarchical(merit, ms.problems.ParameterSplit((0,), (1,)))

    ops.append(Op("exp_fit", exp_fit, _hier_check("EXP_FIT minimiser", (-0.5, 2.0), 1e-6)))
    for dimension, n in ((4, 1), (4, 2), (6, 3)):
        ops.append(_quadratic_op(ms, rng, dimension, n))

    box = [list(BIEXP_RATE_BOX[0]), list(BIEXP_RATE_BOX[1]), list(LINEAR_BOX), list(LINEAR_BOX)]
    basis = [{"type": "exponential", "rate_index": i} for i in range(2)]
    for k, rates in enumerate(BIEXP_RATES):
        d = sum(a * np.exp(r * BIEXP_T) for a, r in zip(BIEXP_AMPLITUDES, rates))
        doc = {
            "dimension": 4,
            "split": {"x_indices": [0, 1], "y_indices": [2, 3]},
            "domain_box": box,
            "model": {"kind": "partially_linear", "basis": basis},
        }
        path = _write_problem(run_dir, f"biexp_{k}", doc, BIEXP_T, d)
        want = np.array(list(rates) + list(BIEXP_AMPLITUDES))

        def check(definition, report, want=want):
            checks.close_to("bi-exponential rates and amplitudes", report.minimizer, want, 1e-5)

        fault = KNOWN_FAULT if k == len(BIEXP_RATES) - 1 else None
        ops.append(_file_fit_op(ms, f"biexp_{k}", path, check, fault))

    t = FREQ_STEP * np.arange(FREQ_SAMPLES)
    w_true = float(rng.uniform(0.95, 1.05))
    amps = np.array([rng.uniform(0.5, 1.5), rng.uniform(-1.5, -0.5), rng.uniform(-1.0, 1.0)])
    d = checks.frequency_design(t, w_true) @ amps + FREQ_NOISE * rng.standard_normal(t.size)
    doc = {
        "dimension": 4,
        "split": {"x_indices": [0], "y_indices": [1, 2, 3]},
        "domain_box": [list(FREQ_BOX)] + [list(LINEAR_BOX)] * 3,
        "model": {
            "kind": "partially_linear",
            "basis": [
                {"type": "sinusoid", "fn": "sin", "frequency_index": 0},
                {"type": "sinusoid", "fn": "cos", "frequency_index": 0},
                {"type": "constant"},
            ],
        },
    }
    path = _write_problem(run_dir, "frequency", doc, t, d)
    merit = checks.frequency_merit(t, d)
    f_true = merit(np.concatenate([[w_true], amps]))

    def freq_check(definition, report):
        p = report.minimizer
        checks.lstsq_amplitudes("frequency-fit amplitudes", t, d, p[0], p[1:], 1e-8)
        checks.not_above("frequency-fit value", merit(p), f_true)
        checks.small_gradient("frequency-fit", merit, p, 1e-1)

    ops.append(_file_fit_op(ms, "frequency", path, freq_check))
    return ops


# -- general-newton ----------------------------------------------------------


def m3_residuals():
    return (
        lambda p: p[0] - 0.3,
        lambda p: p[1] - math.sin(p[0]),
        lambda p: p[2] - p[0] * p[1],
    )


def m3_merit_value(p) -> float:
    return float(sum(r(p) ** 2 for r in m3_residuals()))


M3_MINIMUM = (0.3, math.sin(0.3), 0.3 * math.sin(0.3))


def sine_valley_value(p) -> float:
    return float(p[0] ** 2 + (p[1] - math.sin(p[0])) ** 2)


def general_newton(ms, rng, run_dir: Path) -> list[Op]:
    problems, solver = ms.problems, ms.solver
    ops = []

    def catalog_solve(name):
        def run():
            merit = problems.get_problem(name).merit
            return solver.solve_hierarchical(merit, problems.ParameterSplit((0,), (1,)))

        return run

    ops.append(Op("quad", catalog_solve("QUAD"), _hier_check("QUAD minimiser", (0.0, 0.0), 1e-6)))
    ops.append(Op("sine_valley", catalog_solve("SINE_VALLEY"),
                  _hier_check("SINE_VALLEY minimiser", (0.0, 0.0), 1e-6)))

    def one_well():
        merit = problems.build_residual_merit(
            (lambda p: p[0] ** 2 - 1.0, lambda p: p[1] - p[0]), 2,
            box=np.array([[0.25, 2.0], [-3.0, 3.0]]),
        )
        return solver.solve_hierarchical(merit, problems.ParameterSplit((0,), (1,)))

    ops.append(Op("two_wells_one_well", one_well,
                  _hier_check("TWO_WELLS minimiser", (1.0, 1.0), 1e-6)))

    def m3():
        merit = problems.build_residual_merit(
            m3_residuals(), 3, box=np.array([M3_BOX] * 3))
        return solver.solve_hierarchical(merit, problems.ParameterSplit((0,), (1, 2)))

    ops.append(Op("m3_probe", m3, _hier_check("M = 3 minimiser", M3_MINIMUM, 1e-6)))

    # Residuals k (p0 - p1 - a), p0 + p1 - b, p2 - p0 - c: an anisotropic
    # section in (p0, p1) that coordinate cycling needs nine cycles for. The
    # seed moves only the eliminated coordinate's minimum (c), which leaves
    # the cycle count alone.
    a, b = ANISO_AB
    c = float(rng.uniform(-1.0, 1.0))
    aniso_min = ((a + b) / 2.0, (b - a) / 2.0, (a + b) / 2.0 + c)

    def aniso():
        merit = problems.build_residual_merit(
            (
                lambda p: ANISO_WEIGHT * (p[0] - p[1] - a),
                lambda p: p[0] + p[1] - b,
                lambda p: p[2] - p[0] - c,
            ),
            3,
            box=np.array([ANISO_X_BOX, ANISO_X_BOX, LINEAR_BOX]),
        )
        return solver.solve_hierarchical(merit, problems.ParameterSplit((0, 1), (2,)))

    ops.append(Op("anisotropic_quadratic", aniso,
                  _hier_check("anisotropic minimiser", aniso_min, 1e-5)))

    sine_starts = [rng.uniform(-1.5, 1.5, size=2) for _ in range(2)]
    m3_starts = [rng.uniform(-1.0, 1.0, size=3) for _ in range(2)]

    def direct():
        sine = problems.get_problem("SINE_VALLEY").merit
        m3_merit = problems.build_residual_merit(m3_residuals(), 3, box=np.array([M3_BOX] * 3))
        return [solver.solve_direct(sine, p0) for p0 in sine_starts] + [
            solver.solve_direct(m3_merit, p0) for p0 in m3_starts
        ]

    def direct_check(reports):
        cases = [(sine_valley_value, p0) for p0 in sine_starts]
        cases += [(m3_merit_value, p0) for p0 in m3_starts]
        for report, (f, p0) in zip(reports, cases):
            checks.small_gradient("solve_direct", f, report.minimizer, 1e-6)
            checks.not_above("solve_direct value", f(report.minimizer), f(p0))

    ops.append(Op("solve_direct", direct, direct_check))

    anchor = float(rng.uniform(-3.0, 3.0))

    def recover():
        merit = problems.get_problem("DEGEN_LINE").merit
        return solver.recover_from_anchor(merit, 0, anchor)

    def recover_check(recovery):
        checks.close_to("anchored coordinate", recovery.recovered[0], anchor, 0.0)
        checks.on_line("recover_from_anchor", recovery.recovered, 1e-6)

    ops.append(Op("recover_degen_line", recover, recover_check))
    return ops


# -- cli-analysis ------------------------------------------------------------


@dataclass
class CliResult:
    status: int
    files: dict[str, bytes]


def _cli_op(ms, name: str, argv: list[str], run_dir: Path, check) -> Op:
    """``cli.main`` in process; its outputs go to a fresh directory."""
    state: dict = {}

    def run():
        out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=run_dir))
        try:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = ms.cli.main(argv + ["--out", str(out)])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return CliResult(status, files)

    def check_result(result: CliResult):
        checks.exit_status(f"minsection {' '.join(argv)}", result.status)
        check(result.files)
        checks.same_bytes(name, state.setdefault("files", result.files), result.files)

    return Op(name, run, check_result, state=state)


def cli_analysis(ms, rng, run_dir: Path) -> list[Op]:
    rate = float(rng.uniform(-0.8, -0.3))
    amplitude = float(rng.uniform(1.0, 3.0))
    t = np.arange(10.0)
    exp_doc = {
        "dimension": 2,
        "split": {"x_indices": [0], "y_indices": [1]},
        "domain_box": [[-2.0, 0.5], [-5.0, 5.0]],
        "model": {"kind": "partially_linear",
                  "basis": [{"type": "exponential", "rate_index": 0}]},
    }
    exp_path = _write_problem(run_dir, "cli_exp", exp_doc, t, amplitude * np.exp(rate * t))
    wells_doc = {
        "dimension": 2,
        "split": {"x_indices": [0], "y_indices": [1]},
        "domain_box": [[-2.0, 2.0], [-2.0, 2.0]],
        "model": {"kind": "catalog", "name": "TWO_WELLS"},
    }
    wells_path = _write_problem(run_dir, "cli_two_wells", wells_doc)
    anchor = float(rng.uniform(-3.0, 3.0))
    seed = int(rng.integers(0, 2**31 - 1))

    def solve_check(files):
        doc = json.loads(files["solve.json"])
        checks.close_to("cli solve minimiser", doc["minimizer"], (rate, amplitude), 1e-6)

    def trace_check(files):
        checks.trace_follows_sine(files["trace.csv"].decode("utf-8"), 1e-6)

    def sections_check(files):
        checks.section_minima(files["section_0.csv"].decode("utf-8"), (-1.0, 1.0), 1e-9)

    def audit_check(files):
        checks.two_wells_census(json.loads(files["census.json"]), 1e-6)

    def recover_check(files):
        doc = json.loads(files["recovery.json"])
        checks.close_to("cli anchored coordinate", doc["recovered"][0], anchor, 0.0)
        checks.on_line("cli recover", doc["recovered"], 1e-6)

    def equivalence_check(files):
        doc = json.loads(files["equivalence.json"])
        for entry in doc["direct_minimizers"]:
            checks.close_to("cli direct minimiser", entry["point"], (0.0, 0.0), 1e-6)
        checks.close_to("cli equivalence distance", doc["max_distance"], 0.0, 1e-6)

    return [
        _cli_op(ms, "cli_solve", ["--problem", str(exp_path), "--command", "solve"],
                run_dir, solve_check),
        _cli_op(ms, "cli_trace", ["--problem", "SINE_VALLEY", "--command", "trace"],
                run_dir, trace_check),
        _cli_op(ms, "cli_sections", ["--problem", "TWO_WELLS", "--command", "sections"],
                run_dir, sections_check),
        _cli_op(ms, "cli_audit", ["--problem", str(wells_path), "--command", "audit"],
                run_dir, audit_check),
        _cli_op(ms, "cli_recover", ["--problem", "DEGEN_LINE", "--command", "recover",
                                    "--anchor-index", "0", "--anchor-value", repr(anchor)],
                run_dir, recover_check),
        _cli_op(ms, "cli_equivalence", ["--problem", "SINE_VALLEY", "--command", "equivalence",
                                        "--starts", "3", "--seed", str(seed)],
                run_dir, equivalence_check),
    ]


_OPS_BY_WORKLOAD = {
    "separable-fit": separable_fit,
    "general-newton": general_newton,
    "cli-analysis": cli_analysis,
}


def build(workload: str, ms, seed: int, run_dir: Path) -> list[Op]:
    """Make the workload's inputs from ``seed`` and return its op list."""
    rng = np.random.default_rng(seed)
    return _OPS_BY_WORKLOAD[workload](ms, rng, run_dir)
