"""Command-line front end.

Loads a problem (catalog name or definition file), dispatches one command
(solve, trace, sections, audit, recover, equivalence), and writes reports
and CSVs for external plotting. Exit codes: 0 success, 1 solver refusal
(theory preconditions violated, witness printed), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import morse, sections, solver
from .numerics import NonFiniteValueError, RankDeficiencyError
from .problem_io import ProblemDefinition, ProblemFileError, load_problem_file
from .problems import ParameterSplit, get_problem
from .subminimize import ConvexityError, SubMinimizeError

COMMANDS = ("solve", "trace", "sections", "audit", "recover", "equivalence")

REFUSALS = (
    ConvexityError,
    SubMinimizeError,
    solver.BracketError,
    solver.SolveError,
    sections.TraceError,
    morse.DegenerateCriticalPointError,
    RankDeficiencyError,
    NonFiniteValueError,
)


@dataclass
class RunConfig:
    problem: str
    command: str
    x_indices: tuple[int, ...] | None = None
    y_indices: tuple[int, ...] | None = None
    grid_density: int | None = None
    inner_tol: float | None = None
    outer_tol: float | None = None
    anchor_index: int | None = None
    anchor_value: float | None = None
    starts: int = 5
    seed: int = 0
    output_dir: str = "."

    def validate(self):
        if self.command not in COMMANDS:
            raise ProblemFileError(
                f"unknown command {self.command!r}; expected one of {', '.join(COMMANDS)}"
            )
        if self.command == "recover":
            if self.anchor_index is None or self.anchor_value is None:
                raise ProblemFileError(
                    "command 'recover' requires --anchor-index and --anchor-value"
                )
        if self.command == "sections":
            if self.x_indices is not None and len(self.x_indices) != 1:
                raise ProblemFileError("command 'sections' takes a single --x-indices entry")
        if self.grid_density is not None and self.grid_density < 3:
            raise ProblemFileError(f"--grid-density must be at least 3, got {self.grid_density}")
        if self.starts < 1:
            raise ProblemFileError(f"--starts must be at least 1, got {self.starts}")
        if self.anchor_value is not None and not math.isfinite(self.anchor_value):
            raise ProblemFileError(f"--anchor-value must be finite, got {self.anchor_value!r}")
        for flag, tol in (("--inner-tol", self.inner_tol), ("--outer-tol", self.outer_tol)):
            if tol is not None and not (math.isfinite(tol) and tol > 0.0):
                raise ProblemFileError(f"{flag} must be positive and finite, got {tol!r}")


def _atomic_write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(config: RunConfig) -> ProblemDefinition:
    candidate = Path(config.problem)
    if candidate.suffix or candidate.exists():
        return load_problem_file(candidate)
    try:
        entry = get_problem(config.problem)
    except KeyError as err:
        raise ProblemFileError(str(err.args[0])) from err
    split = ParameterSplit((0,), tuple(range(1, entry.merit.dimension)))
    return ProblemDefinition(merit=entry.merit, split=split, name=entry.name, entry=entry)


def _resolve_split(config: RunConfig, definition: ProblemDefinition) -> ParameterSplit:
    x, y = config.x_indices, config.y_indices
    if x is None and y is None:
        return definition.split
    dim = definition.merit.dimension
    if x is None:
        x = tuple(i for i in range(dim) if i not in y)
    if y is None:
        y = tuple(i for i in range(dim) if i not in x)
    message = f"--x-indices/--y-indices must split 0..{dim - 1} into two disjoint nonempty sets"
    try:
        split = ParameterSplit(x, y)
    except ValueError as err:
        raise ProblemFileError(f"{message}: {err}") from err
    if split.dimension != dim:
        raise ProblemFileError(message)
    return split


def _check_index(flag: str, index: int, dim: int):
    if not 0 <= index < dim:
        raise ProblemFileError(f"{flag} {index} is out of range for a {dim}-parameter problem")


def _tolerances(config: RunConfig) -> solver.Tolerances:
    return solver.Tolerances(
        inner_tol=config.inner_tol,
        outer_tol=config.outer_tol,
        probe_density=config.grid_density,
    )


def _fmt(x) -> str:
    return repr(float(x))


def _cmd_solve(config, definition, out):
    split = _resolve_split(config, definition)
    report = solver.solve_hierarchical(
        definition.merit,
        split,
        grid=config.grid_density,
        tolerances=_tolerances(config),
    )
    _atomic_write(out / "solve.txt", solver.format_solve_report(report))
    _write_json(out / "solve.json", solver.solve_report_dict(report))
    print(f"minimizer: {[float(v) for v in report.minimizer]} value: {_fmt(report.value)}")
    return 0


def _cmd_trace(config, definition, out):
    split = _resolve_split(config, definition)
    merit = definition.merit
    density = 101 if config.grid_density is None else config.grid_density
    xbox = split.x_box(merit.domain_box)
    if split.n != 1:
        raise ProblemFileError("command 'trace' currently requires a 1-D retained block")
    grid = np.linspace(xbox[0, 0], xbox[0, 1], density)
    trace = sections.trace_implicit(merit, split, grid, inner_tol=config.inner_tol)
    header = (
        ",".join(f"x_{i}" for i in range(split.n))
        + ","
        + ",".join(f"g_{j}" for j in range(split.m))
        + ",F,residual,y_index"
    )
    lines = [header]
    for j in range(grid.size):
        cells = [_fmt(v) for v in trace.x_samples[j]]
        cells += [_fmt(v) for v in trace.g_values[j]]
        cells += [_fmt(trace.values[j]), _fmt(trace.residual_norms[j])]
        cells.append(str(int(trace.y_index_along_trace[j])))
        lines.append(",".join(cells))
    _atomic_write(out / "trace.csv", "\n".join(lines) + "\n")
    print(f"traced {grid.size} points; max residual {_fmt(trace.residual_norms.max())}")
    return 0


def _cmd_sections(config, definition, out):
    merit = definition.merit
    index = config.x_indices[0] if config.x_indices else definition.split.x_indices[0]
    _check_index("--x-indices", index, merit.dimension)
    density = 101 if config.grid_density is None else config.grid_density
    lo, hi = merit.domain_box[index]
    grid = np.linspace(lo, hi, density)
    section = sections.minimal_section_1d(
        merit, index, grid, inner_tol=config.inner_tol
    )
    path = out / f"section_{index}.csv"
    _atomic_write(path, sections.section_csv_text(section))
    print(
        f"section for parameter {index}: {len(section.minima_x)} polished minim"
        f"{'um' if len(section.minima_x) == 1 else 'a'} at {list(section.minima_x)}"
    )
    return 0


def _cmd_audit(config, definition, out):
    merit = definition.merit
    density = 9 if config.grid_density is None else config.grid_density
    points = morse.find_critical_points(merit, seed_density=density)
    outward = morse.check_outward_gradient(merit, boundary_density=density)
    census = morse.morse_equality_audit(points, outward)
    _atomic_write(out / "census.txt", morse.census_report(points, census))
    _write_json(
        out / "census.json",
        {
            "points": [
                {
                    "location": [float(v) for v in p.location],
                    "value": float(p.value),
                    "index": p.index_gamma,
                    "degenerate": p.degenerate,
                }
                for p in points
            ],
            "counts": {str(k): v for k, v in census.counts.items()},
            "boundary_outward": census.boundary_outward,
            "alternating_sum": census.alternating_sum,
            "passes": census.passes,
        },
    )
    print(
        f"census: {census.counts} alternating sum {census.alternating_sum} "
        f"{'PASS' if census.passes else 'FAIL'}"
    )
    return 0


def _cmd_recover(config, definition, out):
    _check_index("--anchor-index", config.anchor_index, definition.merit.dimension)
    lo, hi = (float(v) for v in definition.merit.domain_box[config.anchor_index])
    if not lo <= config.anchor_value <= hi:
        raise ProblemFileError(
            f"--anchor-value {config.anchor_value!r} lies outside [{lo!r}, {hi!r}], "
            f"the box of parameter {config.anchor_index}"
        )
    recovery = solver.recover_from_anchor(
        definition.merit,
        config.anchor_index,
        config.anchor_value,
        inner_tol=config.inner_tol,
        probe_density=config.grid_density,
    )
    text = (
        f"anchor: index {recovery.anchor_index} value {_fmt(recovery.anchor_value)}\n"
        f"recovered: [{', '.join(_fmt(v) for v in recovery.recovered)}]\n"
        f"value: {_fmt(recovery.value)}\n"
        f"section residual: {_fmt(recovery.section_residual)}\n"
    )
    _atomic_write(out / "recovery.txt", text)
    _write_json(
        out / "recovery.json",
        {
            "anchor_index": recovery.anchor_index,
            "anchor_value": recovery.anchor_value,
            "recovered": [float(v) for v in recovery.recovered],
            "value": recovery.value,
            "section_residual": recovery.section_residual,
        },
    )
    print(f"recovered: {[float(v) for v in recovery.recovered]}")
    return 0


def _cmd_equivalence(config, definition, out):
    merit = definition.merit
    split = _resolve_split(config, definition)
    rng = np.random.default_rng(config.seed)
    box = merit.domain_box
    center = box.mean(axis=1)
    half = 0.5 * (box[:, 1] - box[:, 0])
    starts = [
        center + rng.uniform(-0.5, 0.5, size=merit.dimension) * half
        for _ in range(config.starts)
    ]
    report = solver.equivalence_report(
        merit, split, starts, grid=config.grid_density, tolerances=_tolerances(config)
    )
    payload = {
        "candidates": [
            {"point": [float(v) for v in point], "value": float(value)}
            for point, value in report.candidates
        ],
        "direct_minimizers": [
            {"point": [float(v) for v in r.minimizer], "value": float(r.value)}
            for r in report.direct_reports
        ],
        "max_distance": report.max_distance,
        "max_value_gap": report.max_value_gap,
        "seed": config.seed,
        "starts": config.starts,
    }
    text_lines = [
        f"hierarchical candidates: {len(report.candidates)}",
    ]
    for point, value in report.candidates:
        text_lines.append(
            f"  [{', '.join(_fmt(v) for v in point)}] value {_fmt(value)}"
        )
    text_lines.append(f"direct starts: {config.starts} (seed {config.seed})")
    text_lines.append(f"max distance: {_fmt(report.max_distance)}")
    text_lines.append(f"max value gap: {_fmt(report.max_value_gap)}")
    _atomic_write(out / "equivalence.txt", "\n".join(text_lines) + "\n")
    _write_json(out / "equivalence.json", payload)
    print(
        f"max distance {_fmt(report.max_distance)}; max value gap "
        f"{_fmt(report.max_value_gap)}"
    )
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "sections": _cmd_sections,
    "audit": _cmd_audit,
    "recover": _cmd_recover,
    "equivalence": _cmd_equivalence,
}


def run(config: RunConfig) -> int:
    """Dispatch one command; returns the process exit status."""
    try:
        config.validate()
        definition = _load(config)
        return _DISPATCH[config.command](config, definition, Path(config.output_dir))
    except REFUSALS as err:
        print(f"refused: {err}", file=sys.stderr)
        witness = getattr(err, "point", None)
        if witness is not None:
            print(f"witness point: {[float(v) for v in witness]}", file=sys.stderr)
            if getattr(err, "min_eig", None) is not None:
                print(f"witness min eigenvalue: {err.min_eig!r}", file=sys.stderr)
        return 1
    except (ProblemFileError, OSError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2


def _indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {err}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minsection",
        description=(
            "Hierarchical least-squares minimization: eliminate a parameter "
            "block per slice, then bracket the resulting section."
        ),
    )
    parser.add_argument("--problem", required=True, help="catalog name or problem file path")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--x-indices", type=_indices, default=None)
    parser.add_argument("--y-indices", type=_indices, default=None)
    parser.add_argument("--grid-density", type=int, default=None)
    parser.add_argument("--inner-tol", type=float, default=None)
    parser.add_argument("--outer-tol", type=float, default=None)
    parser.add_argument("--anchor-index", type=int, default=None)
    parser.add_argument("--anchor-value", type=float, default=None)
    parser.add_argument("--starts", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        problem=args.problem,
        command=args.command,
        x_indices=args.x_indices,
        y_indices=args.y_indices,
        grid_density=args.grid_density,
        inner_tol=args.inner_tol,
        outer_tol=args.outer_tol,
        anchor_index=args.anchor_index,
        anchor_value=args.anchor_value,
        starts=args.starts,
        seed=args.seed,
        output_dir=args.out,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
