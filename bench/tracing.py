"""Spans around calls into each minsection module, recorded from outside.

The traced pass rebinds the functions that carry each module's work
(public ones and a few private ones) to wrappers that open a span, call
the original and close the span. Modules bind these names with
``from ... import``, so a wrapper is bound under every module that looks
the name up; a name rebound in one module only would lose the calls made
from the others.

Spans live in flat arrays in memory and are written out once, at the end
of the run. Each span has a name, a start, an end, its parent and an op id.
A merit evaluation (``MeritFunction.__call__``) is itself a span and counts
toward the innermost span open when it was called. Self time is a span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: Spans that decide which phase a slice solve belongs to: the nearest one
#: above the solve wins. A slice solve polished by ``minimal_section_1d``
#: outside ``golden_refine`` (the final solve at each polished minimum) is
#: counted as polish.
PHASES = {
    "solver.grid_scan": "solver.grid_scan.slice_solves",
    "solver.golden": "solver.golden.slice_solves",
    "sections.trace": "sections.trace.slice_solves",
    "sections.polish": "sections.polish.slice_solves",
    "sections.section": "sections.polish.slice_solves",
}
SLICE_SOLVES = ("subminimize.newton", "subminimize.linear")

#: Layers whose merit evaluations are counted inclusively: every evaluation
#: made while a span of the layer is open anywhere on the stack.
EVAL_LAYERS = (
    "numerics",
    "subminimize.probe",
    "subminimize.newton",
    "solver.final_certificate",
    "solver.direct",
    "morse",
)

#: Per-layer metrics in report order: (name, unit).
LAYER_METRICS = (
    ("numerics.fd_gradient.calls", "count"),
    ("numerics.fd_hessian.calls", "count"),
    ("numerics.fd_y_block.calls", "count"),
    ("numerics.merit_evals", "count"),
    ("numerics.self_ms", "ms"),
    ("problems.design_matrix.calls", "count"),
    ("problems.basis_evals", "count"),
    ("problems.design_matrix.self_ms", "ms"),
    ("problems.merit.self_ms", "ms"),
    ("subminimize.probe.points", "count"),
    ("subminimize.probe.merit_evals", "count"),
    ("subminimize.probe.self_ms", "ms"),
    ("subminimize.newton.calls", "count"),
    ("subminimize.newton.iterations", "count"),
    ("subminimize.newton.merit_evals", "count"),
    ("subminimize.newton.self_ms", "ms"),
    ("subminimize.linear.calls", "count"),
    ("subminimize.linear.self_ms", "ms"),
    ("solver.grid_scan.slice_solves", "count"),
    ("solver.golden.slice_solves", "count"),
    ("solver.outer_cycles", "count"),
    ("solver.self_ms", "ms"),
    ("solver.final_certificate.merit_evals", "count"),
    ("solver.direct.iterations", "count"),
    ("solver.direct.merit_evals", "count"),
    ("sections.trace.slice_solves", "count"),
    ("sections.polish.slice_solves", "count"),
    ("sections.self_ms", "ms"),
    ("morse.seeds", "count"),
    ("morse.merit_evals", "count"),
    ("morse.self_ms", "ms"),
    ("problem_io.load.calls", "count"),
    ("problem_io.load.self_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("cli.bytes_written", "bytes"),
    ("tracing.overhead_ms", "ms"),
)

#: Self time summed over every span whose name starts with the key.
SELF_MS = {
    "numerics.self_ms": "numerics.",
    "problems.design_matrix.self_ms": "problems.design_matrix",
    "problems.merit.self_ms": "problems.merit",
    "subminimize.probe.self_ms": "subminimize.probe",
    "subminimize.newton.self_ms": "subminimize.newton",
    "subminimize.linear.self_ms": "subminimize.linear",
    "solver.self_ms": "solver.",
    "sections.self_ms": "sections.",
    "morse.self_ms": "morse.",
    "problem_io.load.self_ms": "problem_io.",
    "cli.self_ms": "cli.",
}

#: Call counts: metric -> span name.
CALLS = {
    "numerics.fd_gradient.calls": "numerics.fd_gradient",
    "numerics.fd_hessian.calls": "numerics.fd_hessian",
    "numerics.fd_y_block.calls": "numerics.fd_y_block",
    "problems.design_matrix.calls": "problems.design_matrix",
    "subminimize.newton.calls": "subminimize.newton",
    "subminimize.linear.calls": "subminimize.linear",
    "morse.seeds": "morse.seed",
    "problem_io.load.calls": "problem_io.load",
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name_code = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.evals = array("l")
        self.counters: Counter = Counter()
        self.stack: list[int] = []
        self.op_id = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_code.append(code)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.evals.append(0)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(counters, result, args)``
        runs on success and may add to the counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after is not None:
                after(tracer.counters, result, args)
            return result

        return traced

    def rebind(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self, ms) -> None:
        """Rebind the traced names in every module of the package ``ms``."""
        numerics, problems, subminimize = ms.numerics, ms.problems, ms.subminimize
        solver, sections, morse = ms.solver, ms.sections, ms.morse
        problem_io, cli = ms.problem_io, ms.cli
        tracer = self

        merit_call = problems.MeritFunction.__call__

        def traced_merit(merit, p):
            stack = tracer.stack
            if stack:
                tracer.evals[stack[-1]] += 1
            sid = tracer.open("problems.merit")
            try:
                return merit_call(merit, p)
            finally:
                tracer.close(sid)

        self.rebind(problems.MeritFunction, "__call__", traced_merit)

        def count_basis(counters, phi, args):
            counters["problems.basis_evals"] += phi.size

        self.rebind(
            problems.PartiallyLinearModel,
            "design_matrix",
            self.wrap("problems.design_matrix", problems.PartiallyLinearModel.design_matrix,
                      count_basis),
        )

        def spread(attr, name, modules, after=None):
            wrapped = self.wrap(name, getattr(modules[0], attr), after)
            for module in modules:
                self.rebind(module, attr, wrapped)
            return wrapped

        fd_gradient = spread("fd_gradient", "numerics.fd_gradient", (numerics, morse))
        spread("fd_hessian", "numerics.fd_hessian", (numerics, subminimize, solver, morse))
        spread("fd_y_block", "numerics.fd_y_block", (numerics, subminimize))
        spread("_second_diff_block", "numerics.second_diff", (numerics, subminimize))
        spread("linear_lsq_solve", "numerics.lsq", (numerics, subminimize))
        # solver uses fd_gradient only for the final gradient certificate.
        self.rebind(solver, "fd_gradient", self.wrap("solver.final_certificate", fd_gradient))

        def count_points(counters, cert, args):
            counters["subminimize.probe.points"] += cert.sampled_points

        def count_iterations(counters, sub, args):
            counters["subminimize.newton.iterations"] += sub.iterations

        spread("probe_y_convexity", "subminimize.probe", (subminimize, solver, sections),
               count_points)
        spread("subminimize_newton", "subminimize.newton", (subminimize, solver, sections),
               count_iterations)
        spread("subminimize_linear", "subminimize.linear", (subminimize, solver, sections))

        def count_cycles(counters, report, args):
            counters["solver.outer_cycles"] += report.iterations

        def count_direct(counters, report, args):
            counters["solver.direct.iterations"] += report.iterations

        spread("solve_hierarchical", "solver.hierarchical", (solver,), count_cycles)
        spread("solve_direct", "solver.direct", (solver,), count_direct)
        spread("equivalence_report", "solver.equivalence", (solver,))
        spread("recover_from_anchor", "solver.recover", (solver,))
        spread("line_minimize", "solver.grid_scan", (solver, sections))
        spread("enumerate_section_minima", "solver.grid_scan", (solver,))
        self.rebind(solver, "golden_refine",
                    self.wrap("solver.golden", solver.golden_refine))
        self.rebind(sections, "golden_refine",
                    self.wrap("sections.polish", sections.golden_refine))

        spread("trace_implicit", "sections.trace", (sections,))
        spread("minimal_section_1d", "sections.section", (sections,))

        spread("find_critical_points", "morse.find", (morse,))
        spread("_newton_on_gradient", "morse.seed", (morse,))
        spread("check_outward_gradient", "morse.outward", (morse,))
        spread("morse_equality_audit", "morse.audit", (morse,))

        spread("load_problem_file", "problem_io.load", (problem_io, cli))
        spread("load_data_csv", "problem_io.load_data", (problem_io,))

        def count_bytes(counters, result, args):
            counters["cli.bytes_written"] += len(args[1].encode("utf-8"))

        spread("main", "cli.main", (cli,))
        spread("run", "cli.run", (cli,))
        spread("_atomic_write", "cli.write", (cli,), count_bytes)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name_code, dtype=np.int64),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "merit_evals": np.asarray(self.evals, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of everything recorded so far."""
        a = self.arrays()
        names = self.names
        n = a["start"].size
        duration = a["end"] - a["start"]
        child = np.zeros(n)
        parents = a["parent"]
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        self_time = duration - child
        codes = a["name"]

        out: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}
        out.update({k: float(v) for k, v in self.counters.items()})
        by_name_self = np.bincount(codes, weights=self_time, minlength=len(names))
        by_name_calls = np.bincount(codes, minlength=len(names))
        for metric, prefix in SELF_MS.items():
            out[metric] = 1e3 * float(
                sum(by_name_self[c] for c, nm in enumerate(names) if nm.startswith(prefix))
            )
        for metric, span in CALLS.items():
            if span in self._codes:
                out[metric] = float(by_name_calls[self._codes[span]])

        # Ancestor-derived counts: inclusive merit evaluations per layer and
        # the phase each slice solve ran in. Parents precede children.
        eval_keys: list[frozenset] = []
        phase: list[str | None] = []
        own_keys = [
            frozenset(k for k in EVAL_LAYERS if nm == k or nm.startswith(k + "."))
            for nm in names
        ]
        evals = a["merit_evals"]
        slice_codes = {self._codes[s] for s in SLICE_SOLVES if s in self._codes}
        inclusive: Counter = Counter()
        for i in range(n):
            code = codes[i]
            p = parents[i]
            keys = own_keys[code] | eval_keys[p] if p >= 0 else own_keys[code]
            eval_keys.append(keys)
            nm = names[code]
            ph = PHASES.get(nm) or (phase[p] if p >= 0 else None)
            phase.append(ph)
            if evals[i]:
                for k in keys:
                    inclusive[k] += int(evals[i])
            if code in slice_codes and p >= 0 and phase[p] is not None:
                out[phase[p]] += 1.0
        for k in EVAL_LAYERS:
            out[f"{k}.merit_evals"] = float(inclusive[k])
        return out
