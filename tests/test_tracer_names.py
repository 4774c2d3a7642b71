"""The benchmark tracer rebinds names in every module that imports them.

``bench/tracing.py`` looks each traced function up by name in the modules
that bind it, some of which keep an import only for that lookup. Installing
and removing the tracer here makes dropping such an import fail the main
test suite, not only the benchmark's own tests.
"""

import importlib.util
from pathlib import Path

import minsection as ms
import minsection.cli  # noqa: F401 - the tracer rebinds names in every module

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_installs_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    bound = {name: getattr(ms.solver, name) for name in ("fd_hessian", "subminimize_newton")}
    tracer.install(ms)
    try:
        assert all(getattr(ms.solver, name) is not fn for name, fn in bound.items())
    finally:
        tracer.uninstall()
    assert all(getattr(ms.solver, name) is fn for name, fn in bound.items())
