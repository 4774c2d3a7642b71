"""Span bookkeeping of the traced pass.

    python3 -m pytest bench/test_tracing.py -q
"""

from __future__ import annotations

import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Run, count_merit_evals, import_minsection  # noqa: E402

ms = import_minsection()


def test_phases_inclusive_evals_and_self_time():
    tracer = tracing.Tracer()
    root = tracer.open("op")
    scan = tracer.open("solver.grid_scan")
    newton = tracer.open("subminimize.newton")
    tracer.evals[newton] += 3
    hessian = tracer.open("numerics.fd_hessian")
    tracer.evals[hessian] += 5
    tracer.close(hessian)
    tracer.close(newton)
    golden = tracer.open("solver.golden")
    tracer.close(tracer.open("subminimize.linear"))
    tracer.close(golden)
    tracer.close(scan)
    tracer.close(root)

    out = tracer.layer_metrics()
    assert out["solver.grid_scan.slice_solves"] == 1
    assert out["solver.golden.slice_solves"] == 1
    assert out["subminimize.newton.calls"] == 1
    assert out["subminimize.linear.calls"] == 1
    assert out["subminimize.newton.merit_evals"] == 8
    assert out["numerics.merit_evals"] == 5
    a = tracer.arrays()
    total_self = sum(
        out[k] for k in ("numerics.self_ms", "subminimize.newton.self_ms",
                         "subminimize.linear.self_ms", "solver.self_ms")
    )
    assert total_self == pytest.approx(1e3 * (a["end"][scan] - a["start"][scan]))


def test_traced_pass_sees_every_counted_evaluation(tmp_path):
    ops = workloads.build("general-newton", ms, 0, tmp_path)
    ops = [op for op in ops if op.name in ("sine_valley", "solve_direct", "recover_degen_line")]
    run = Run(ops)
    counted = count_merit_evals(ms, run)

    originals = {(m, name): getattr(m, name) for m in (ms.solver, ms.sections, ms.numerics)
                 for name in ("solve_hierarchical", "subminimize_newton", "fd_gradient")
                 if hasattr(m, name)}
    tracer = tracing.Tracer()
    tracer.install(ms)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for i, op in enumerate(ops):
                tracer.op_id = i
                sid = tracer.open("op")
                run.execute(op)
                tracer.close(sid)
    finally:
        tracer.uninstall()
    assert run.correct and run.failed == 0
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn

    a = tracer.arrays()
    per_op = [int(a["merit_evals"][a["op"] == i].sum()) for i in range(len(ops))]
    assert per_op == counted
    out = tracer.layer_metrics()
    assert out["solver.direct.iterations"] > 0
    assert out["solver.direct.merit_evals"] == counted[1]
    assert out["subminimize.probe.points"] == 2 * 21 * 21
