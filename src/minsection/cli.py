"""Command-line front end.

Loads a problem (catalog name or definition file), dispatches one command
(solve, trace, sections, audit, recover, equivalence), and writes reports
and CSVs for external plotting. Exit codes: 0 success, 1 solver refusal
(theory preconditions violated, witness printed) or internal error, 2 input
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import morse, sections, solver
from .numerics import BoundaryStepWarning, NonFiniteValueError, RankDeficiencyError
from .problem_io import ProblemDefinition, ProblemFileError, load_problem_file
from .problems import ParameterSplit, get_problem
from .solver import _fmt
from .subminimize import ConvexityError, SubMinimizeError

COMMANDS = ("solve", "trace", "sections", "audit", "recover", "equivalence")

#: Most census seeds ``audit`` runs, one Newton solve from each node of its
#: ``--grid-density``-per-axis grid: the default 9 per axis at M = 3.
AUDIT_SEEDS = 9**3

#: Largest ``--grid-density``: 100 times the trace's default of 101 nodes.
#: Every command allocates its grids and probe lines before it checks them.
MAX_GRID_DENSITY = 10_001

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


def _validate(args: argparse.Namespace):
    if args.command == "recover" and (args.anchor_index is None or args.anchor_value is None):
        raise ProblemFileError("command 'recover' requires --anchor-index and --anchor-value")
    if args.command == "sections" and args.x_indices is not None and len(args.x_indices) != 1:
        raise ProblemFileError("command 'sections' takes a single --x-indices entry")
    if args.grid_density is not None and not 3 <= args.grid_density <= MAX_GRID_DENSITY:
        raise ProblemFileError(
            f"--grid-density must be between 3 and {MAX_GRID_DENSITY}, got {args.grid_density}"
        )
    if args.starts < 1:
        raise ProblemFileError(f"--starts must be at least 1, got {args.starts}")
    if args.seed < 0:
        raise ProblemFileError(f"--seed must be non-negative, got {args.seed}")
    if args.anchor_value is not None and not math.isfinite(args.anchor_value):
        raise ProblemFileError(f"--anchor-value must be finite, got {args.anchor_value!r}")
    for flag, tol in (("--inner-tol", args.inner_tol), ("--outer-tol", args.outer_tol)):
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


def _load(args: argparse.Namespace) -> ProblemDefinition:
    candidate = Path(args.problem)
    if candidate.suffix or candidate.exists():
        return load_problem_file(candidate)
    try:
        entry = get_problem(args.problem)
    except KeyError as err:
        raise ProblemFileError(str(err.args[0])) from err
    split = ParameterSplit((0,), tuple(range(1, entry.merit.dimension)))
    return ProblemDefinition(merit=entry.merit, split=split, name=entry.name, entry=entry)


def _resolve_split(args: argparse.Namespace, definition: ProblemDefinition) -> ParameterSplit:
    x, y = args.x_indices, args.y_indices
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


def _tolerances(args: argparse.Namespace) -> solver.Tolerances:
    return solver.Tolerances(
        inner_tol=args.inner_tol,
        outer_tol=args.outer_tol,
        probe_density=args.grid_density,
    )


def _cmd_solve(args, definition, out):
    split = _resolve_split(args, definition)
    report = solver.solve_hierarchical(
        definition.merit,
        split,
        grid=args.grid_density,
        tolerances=_tolerances(args),
    )
    _atomic_write(out / "solve.txt", solver.format_solve_report(report))
    _write_json(out / "solve.json", solver.solve_report_dict(report))
    print(f"minimizer: {[float(v) for v in report.minimizer]} value: {_fmt(report.value)}")


def _cmd_trace(args, definition, out):
    split = _resolve_split(args, definition)
    merit = definition.merit
    density = 101 if args.grid_density is None else args.grid_density
    xbox = split.x_box(merit.domain_box)
    if split.n != 1:
        raise ProblemFileError("command 'trace' currently requires a 1-D retained block")
    grid = np.linspace(xbox[0, 0], xbox[0, 1], density)
    trace = sections.trace_implicit(merit, split, grid, inner_tol=args.inner_tol)
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


def _cmd_sections(args, definition, out):
    merit = definition.merit
    index = args.x_indices[0] if args.x_indices else definition.split.x_indices[0]
    _check_index("--x-indices", index, merit.dimension)
    density = 101 if args.grid_density is None else args.grid_density
    lo, hi = merit.domain_box[index]
    grid = np.linspace(lo, hi, density)
    section = sections.minimal_section_1d(
        merit, index, grid, inner_tol=args.inner_tol
    )
    path = out / f"section_{index}.csv"
    _atomic_write(path, sections.section_csv_text(section))
    print(
        f"section for parameter {index}: {len(section.minima_x)} polished minim"
        f"{'um' if len(section.minima_x) == 1 else 'a'} at {list(section.minima_x)}"
    )


@contextlib.contextmanager
def _notes(logger):
    """Collect the INFO records ``logger`` emits inside the block as
    ``note:`` lines."""
    lines = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: lines.append(f"note: {record.getMessage()}")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _cmd_audit(args, definition, out):
    merit = definition.merit
    density = 9 if args.grid_density is None else args.grid_density
    seeds = density**merit.dimension
    if seeds > AUDIT_SEEDS:
        fits = max((d for d in range(3, 10) if d**merit.dimension <= AUDIT_SEEDS), default=None)
        raise ProblemFileError(
            f"audit would run {seeds} census seeds ({density} per axis in {merit.dimension} "
            f"dimensions), more than {AUDIT_SEEDS}; "
            + (f"the largest --grid-density that fits is {fits}" if fits
               else "no --grid-density fits")
        )
    with _notes(morse.logger) as notes:
        points = morse.find_critical_points(merit, seed_density=density)
    for line in notes:
        print(line, file=sys.stderr)
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


def _cmd_recover(args, definition, out):
    _check_index("--anchor-index", args.anchor_index, definition.merit.dimension)
    lo, hi = (float(v) for v in definition.merit.domain_box[args.anchor_index])
    if not lo <= args.anchor_value <= hi:
        raise ProblemFileError(
            f"--anchor-value {args.anchor_value!r} lies outside [{lo!r}, {hi!r}], "
            f"the box of parameter {args.anchor_index}"
        )
    recovery = solver.recover_from_anchor(
        definition.merit,
        args.anchor_index,
        args.anchor_value,
        inner_tol=args.inner_tol,
        probe_density=args.grid_density,
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


def _cmd_equivalence(args, definition, out):
    merit = definition.merit
    split = _resolve_split(args, definition)
    rng = np.random.default_rng(args.seed)
    box = merit.domain_box
    center = box.mean(axis=1)
    half = 0.5 * (box[:, 1] - box[:, 0])
    starts = [
        center + rng.uniform(-0.5, 0.5, size=merit.dimension) * half
        for _ in range(args.starts)
    ]
    report = solver.equivalence_report(
        merit, split, starts, grid=args.grid_density, tolerances=_tolerances(args)
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
        "seed": args.seed,
        "starts": args.starts,
    }
    text_lines = [
        f"hierarchical candidates: {len(report.candidates)}",
    ]
    for point, value in report.candidates:
        text_lines.append(
            f"  [{', '.join(_fmt(v) for v in point)}] value {_fmt(value)}"
        )
    text_lines.append(f"direct starts: {args.starts} (seed {args.seed})")
    text_lines.append(f"max distance: {_fmt(report.max_distance)}")
    text_lines.append(f"max value gap: {_fmt(report.max_value_gap)}")
    _atomic_write(out / "equivalence.txt", "\n".join(text_lines) + "\n")
    _write_json(out / "equivalence.json", payload)
    print(
        f"max distance {_fmt(report.max_distance)}; max value gap "
        f"{_fmt(report.max_value_gap)}"
    )


_DISPATCH = {
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "sections": _cmd_sections,
    "audit": _cmd_audit,
    "recover": _cmd_recover,
    "equivalence": _cmd_equivalence,
}


def _dispatch(args: argparse.Namespace) -> tuple[int, list[str]]:
    """Run one command; returns the exit status and the lines for stderr."""
    try:
        _validate(args)
        definition = _load(args)
        _DISPATCH[args.command](args, definition, Path(args.out))
        return 0, []
    except REFUSALS as err:
        lines = [f"refused: {err}"]
        witness = getattr(err, "point", None)
        if witness is not None:
            lines.append(f"witness point: {[float(v) for v in witness]}")
            if getattr(err, "min_eig", None) is not None:
                lines.append(f"witness min eigenvalue: {err.min_eig!r}")
        best = getattr(err, "best_point", None)
        if best is not None:
            lines.append(f"best point: {[float(v) for v in best]}")
            if err.best_value is not None:
                lines.append(f"best value: {float(err.best_value)!r}")
        return 1, lines
    except (ProblemFileError, OSError) as err:
        return 2, [f"input error: {err}"]
    except Exception as err:  # a fault of the program, not of the input or the theory
        return 1, [f"internal error: {type(err).__name__}: {err}"]


def run(args: argparse.Namespace) -> int:
    """Dispatch one command line parsed by :func:`build_parser`; returns the
    process exit status.

    Every :class:`BoundaryStepWarning` of the command is counted, not
    shown, and the count is printed as one ``warning:`` line on stderr
    ahead of any refusal or input error. Other warnings pass through. An
    exception that is neither a refusal nor an input error is printed as
    one ``internal error: <type>: <message>`` line, with status 1.
    """
    clamps = 0
    show = warnings.showwarning

    def tally(message, category, *rest):
        nonlocal clamps
        if issubclass(category, BoundaryStepWarning):
            clamps += 1
        else:
            show(message, category, *rest)

    with warnings.catch_warnings():
        warnings.simplefilter("always", BoundaryStepWarning)
        warnings.showwarning = tally
        try:
            status, lines = _dispatch(args)
        finally:
            if clamps:
                print(
                    f"warning: gradient stencil clamped at the domain boundary {clamps} "
                    "time(s); one-sided differences were used",
                    file=sys.stderr,
                )
    for line in lines:
        print(line, file=sys.stderr)
    return status


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one :func:`build_parser`: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    return run(_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
