"""minsection benchmark: one workload, one process, one thread.

    python3 bench/run.py --workload separable-fit --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; minsection is imported from ``src/`` of
that checkout and from nowhere else. The run goes through the workload's
fixed op list once to count merit evaluations and warm up, then repeats
the list for whole timed passes, and with ``--trace 1`` once more under
tracing. Every output is checked on every pass. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).

An op's time is its mean over the timed passes, divided by the mean time
of a reference loop timed before every op of the same passes (see
``reference_loop``); that takes out most of the drift in machine speed.
bench/README.md says why this replaced best-of-passes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One thread: keep OpenBLAS from starting worker threads. Set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "bench" / "_runs"

#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 7
MIN_PASSES = 3
#: A run stops adding timed passes once it has spent this multiple of
#: ``--seconds`` on them, so a slow machine cannot stretch it without bound.
PASS_TIME_CAP = 1.3
#: Typical duration of one timed pass (op list plus reference loops) on
#: the reference machine; sets the pass count for ``--seconds``.
NOMINAL_PASS_S = {"separable-fit": 3.0, "general-newton": 1.6, "cli-analysis": 0.38}
#: Best time of ``reference_loop`` on the reference machine (2-vCPU Xeon VM
#: at 2.1 GHz). Times are reported as if the reference loop took this long.
REFERENCE_NOMINAL_S = 0.004

_REF_MATRIX = np.array([[2.0, 0.3], [0.3, 1.0]])


def reference_loop() -> float:
    """Fixed interpreter-bound work with small numpy calls, the same mix as
    the program's inner loops. It never calls minsection, so a change to
    the program cannot change it."""
    acc = 0.0
    w = np.zeros(3)
    for i in range(300):
        w[0] = i * 1e-3
        v = np.asarray(w, dtype=float)
        s = np.linalg.solve(_REF_MATRIX, v[:2])
        acc += float(s[0] + np.linalg.eigvalsh(_REF_MATRIX)[0])
        for k in range(8):
            x = w[0] + k
            acc += math.exp(-x) * math.sin(x)
    return acc


def timed_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def import_minsection():
    """Import minsection from the checkout's ``src/``, afresh each call.

    Its bytecode is written to ``src/minsection/__pycache__`` whatever
    ``PYTHONDONTWRITEBYTECODE`` says, so after the first set-up in a
    checkout the import loads bytecode and its cost does not depend on the
    environment.
    """
    for name in [m for m in sys.modules if m == "minsection" or m.startswith("minsection.")]:
        del sys.modules[name]
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = False
    try:
        ms = importlib.import_module("minsection")
        for sub in ("numerics", "problems", "subminimize", "solver", "sections", "morse",
                    "problem_io", "cli"):
            importlib.import_module(f"minsection.{sub}")
    finally:
        sys.dont_write_bytecode = saved
    return ms


def setup(workload: str, seed: int, run_dir: Path):
    """Import the package, make the inputs and write the data files."""
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    ms = import_minsection()
    return ms, workloads.build(workload, ms, seed, run_dir)


class Run:
    """Outcome bookkeeping across the passes of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def execute(self, op):
        """Run and check one op; returns its wall time in seconds."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception as err:  # every op failure is reported, none stops the run
            elapsed = perf_counter() - t0
            self.failed += 1
            if not op.is_known_fault(err):
                self.correct = False
                print(f"bench: op {op.name} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return elapsed
        elapsed = perf_counter() - t0
        try:
            op.check(result)
        except checks.CheckError as err:
            self.correct = False
            print(f"bench: op {op.name} failed its check: {err}", file=sys.stderr)
        return elapsed


def count_merit_evals(ms, run: Run) -> list[int]:
    """One untimed pass with every ``MeritFunction.__call__`` counted."""
    cls = ms.problems.MeritFunction
    original = cls.__call__
    counter = [0]

    def counted(merit, p):
        counter[0] += 1
        return original(merit, p)

    per_op = []
    cls.__call__ = counted
    try:
        for op in run.ops:
            counter[0] = 0
            run.execute(op)
            per_op.append(counter[0])
    finally:
        cls.__call__ = original
    return per_op


def timed_passes(run: Run, workload: str, seconds: int):
    """Whole passes over the op list, a reference loop timed before each op.

    Returns each op's wall times, one per pass, and every reference time.
    """
    planned = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    times = [[] for _ in run.ops]
    reference = []
    start = perf_counter()
    for done in range(planned):
        if done >= MIN_PASSES and perf_counter() - start > PASS_TIME_CAP * seconds:
            break
        gc.collect()
        for i, op in enumerate(run.ops):
            reference.append(timed_reference())
            times[i].append(run.execute(op))
    return times, reference


def traced_pass(ms, run: Run, run_dir: Path) -> tuple[dict, float]:
    tracer = tracing.Tracer()
    tracer.install(ms)
    total = 0.0
    try:
        gc.collect()
        for i, op in enumerate(run.ops):
            tracer.op_id = i
            sid = tracer.open("op")
            try:
                total += run.execute(op)
            finally:
                tracer.close(sid)
    finally:
        tracer.uninstall()
    tracer.save(run_dir / "trace.npz")
    return tracer.layer_metrics(), total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "minsection" / "__init__.py").is_file():
        print(f"bench: no minsection sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    run_dir = RUNS / f"{args.workload}-seed{args.seed}"

    setup_times, setup_reference = [], []
    for _ in range(SETUP_REPEATS):
        setup_reference.append(timed_reference())
        t0 = perf_counter()
        ms, ops = setup(args.workload, args.seed, run_dir)
        setup_times.append(perf_counter() - t0)
    setup_reference.append(timed_reference())
    if not Path(ms.__file__).resolve().is_relative_to(src.resolve()):
        print(f"bench: minsection was imported from {ms.__file__}, not {src}", file=sys.stderr)
        return 2

    run = Run(ops)
    evals = count_merit_evals(ms, run)
    times, reference = timed_passes(run, args.workload, args.seconds)
    mean_times = [statistics.fmean(t) for t in times]
    scale = REFERENCE_NOMINAL_S / statistics.fmean(reference)

    if args.trace:
        layers, traced_total = traced_pass(ms, run, run_dir)
        layers["tracing.overhead_ms"] = 1e3 * (traced_total - sum(mean_times))
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit in tracing.LAYER_METRICS
        }
    else:
        op_s = [t * scale for t in mean_times]
        metrics = {
            "setup_s": {
                "value": statistics.median(setup_times) * REFERENCE_NOMINAL_S
                / statistics.median(setup_reference),
                "unit": "s",
            },
            "ops_per_s": {"value": len(ops) / sum(op_s), "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * statistics.median(op_s), "unit": "ms"},
            "merit_evals_per_op": {"value": sum(evals) / len(ops), "unit": "count"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    detail = {
        "ops": [op.name for op in ops],
        "passes": len(times[0]),
        "mean_ms": [round(1e3 * t, 3) for t in mean_times],
        "best_ms": [round(1e3 * min(t), 3) for t in times],
        "merit_evals": evals,
        "reference_mean_ms": round(1e3 * statistics.fmean(reference), 4),
        "reference_best_ms": round(1e3 * min(reference), 4),
        "setup_ms": [round(1e3 * s, 3) for s in setup_times],
        "setup_reference_ms": [round(1e3 * s, 4) for s in setup_reference],
    }
    print("bench: " + json.dumps(detail), file=sys.stderr)
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
