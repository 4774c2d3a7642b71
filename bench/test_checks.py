"""The benchmark's output checks accept real outputs and reject perturbed ones.

    python3 -m pytest bench/test_checks.py -q

Each op is run once on the checkout's minsection to get a genuine result;
the check must pass on it and fail once the result is nudged (a minimiser
shifted by 1e-3, a census with its saddle removed, a changed byte).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from run import import_minsection  # noqa: E402

minsection = import_minsection()

SEED = 3
SHIFT = 1e-3


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    built = {}
    for workload in workloads.WORKLOADS:
        run_dir = tmp_path_factory.mktemp(workload)
        built.update({op.name: op for op in workloads.build(workload, minsection, SEED, run_dir)})
    return built


@pytest.fixture(scope="module")
def results(ops):
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, op in ops.items():
            if op.known_fault is None:
                out[name] = op.run()
    return out


def rejects(op, result):
    with pytest.raises(checks.CheckError):
        op.check(result)


def rejects_content(op, result):
    """Reject on content alone: the perturbed files stand as the first pass."""
    saved = dict(op.state)
    op.state.clear()
    try:
        rejects(op, result)
    finally:
        op.state.clear()
        op.state.update(saved)


def shifted(report, index=0):
    minimizer = np.array(report.minimizer, dtype=float)
    minimizer[index] += SHIFT
    return dataclasses.replace(report, minimizer=minimizer)


HIERARCHICAL = ["exp_fit", "quad_m4_n1", "quad_m4_n2", "quad_m6_n3", "biexp_0", "biexp_1",
                "quad", "sine_valley", "two_wells_one_well", "m3_probe", "anisotropic_quadratic"]


@pytest.mark.parametrize("name", HIERARCHICAL)
def test_minimiser_checks(ops, results, name):
    op, result = ops[name], results[name]
    op.check(result)
    if isinstance(result, tuple):  # file-defined ops return (definition, report)
        definition, report = result
        for i in range(report.minimizer.size):
            rejects(op, (definition, shifted(report, i)))
    else:
        for i in range(result.minimizer.size):
            rejects(op, shifted(result, i))


def test_known_fault_op_keeps_its_check(ops):
    op = ops["biexp_2"]
    want = np.array(list(workloads.BIEXP_RATES[2]) + list(workloads.BIEXP_AMPLITUDES))
    op.check((None, SimpleNamespace(minimizer=want)))
    for i in range(want.size):
        bad = want.copy()
        bad[i] += SHIFT
        rejects(op, (None, SimpleNamespace(minimizer=bad)))
    err = minsection.SolveError(workloads.KNOWN_FAULT[1])
    assert op.is_known_fault(err)
    assert not op.is_known_fault(minsection.SolveError("another failure"))
    assert not ops["biexp_1"].is_known_fault(err)


def test_frequency_fit_checks(ops, results):
    op = ops["frequency"]
    definition, report = results["frequency"]
    op.check((definition, report))
    p = report.minimizer
    # Amplitudes that are not the least-squares solve at the reported frequency.
    bad_amps = p.copy()
    bad_amps[1] += SHIFT
    rejects(op, (definition, dataclasses.replace(report, minimizer=bad_amps)))
    # A shifted frequency with amplitudes re-solved there: the gradient check fails.
    model = definition.merit.model
    w = p[0] + SHIFT
    amps = np.linalg.lstsq(checks.frequency_design(model.t, w), model.d, rcond=None)[0]
    moved = np.concatenate([[w], amps])
    rejects(op, (definition, dataclasses.replace(report, minimizer=moved)))


def test_value_not_above_reference():
    checks.not_above("v", 1.0, 1.0)
    with pytest.raises(checks.CheckError):
        checks.not_above("v", 1.0 + 1e-9, 1.0)


def test_solve_direct_checks(ops, results):
    op, reports = ops["solve_direct"], results["solve_direct"]
    op.check(reports)
    for k in range(len(reports)):
        bad = list(reports)
        bad[k] = shifted(reports[k])
        rejects(op, bad)


def test_recovery_checks(ops, results):
    op, recovery = ops["recover_degen_line"], results["recover_degen_line"]
    op.check(recovery)
    for i in range(2):
        moved = recovery.recovered.copy()
        moved[i] += SHIFT
        rejects(op, dataclasses.replace(recovery, recovered=moved))


def _edit_json(result, name, edit):
    doc = json.loads(result.files[name])
    edit(doc)
    files = dict(result.files, **{name: json.dumps(doc).encode("utf-8")})
    return workloads.CliResult(result.status, files)


def _edit_csv(result, name, column, delta):
    lines = result.files[name].decode("utf-8").splitlines()
    header = lines[0].split(",")
    j = header.index(column)
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        cells[j] = repr(float(cells[j]) + delta)
        rows.append(",".join(cells))
    text = "\n".join([lines[0]] + rows) + "\n"
    return workloads.CliResult(result.status, dict(result.files, **{name: text.encode("utf-8")}))


CLI = ["cli_solve", "cli_trace", "cli_sections", "cli_audit", "cli_recover", "cli_equivalence"]


@pytest.mark.parametrize("name", CLI)
def test_cli_exit_status_and_bytes(ops, results, name):
    op, result = ops[name], results[name]
    op.check(result)
    rejects_content(op, workloads.CliResult(1, result.files))
    first = next(iter(result.files))
    changed = dict(result.files, **{first: result.files[first] + b" "})
    rejects(op, workloads.CliResult(0, changed))


def test_cli_solve_rejects_shifted_minimiser(ops, results):
    def edit(doc):
        doc["minimizer"][0] += SHIFT

    rejects_content(ops["cli_solve"], _edit_json(results["cli_solve"], "solve.json", edit))


def test_cli_trace_rejects_shifted_graph(ops, results):
    rejects_content(ops["cli_trace"], _edit_csv(results["cli_trace"], "trace.csv", "g_0", SHIFT))


def test_cli_sections_rejects_moved_minima(ops, results):
    rejects_content(ops["cli_sections"], _edit_csv(results["cli_sections"], "section_0.csv", "x_i", SHIFT))
    rejects_content(ops["cli_sections"], _edit_csv(results["cli_sections"], "section_0.csv", "F", SHIFT))


def test_cli_audit_rejects_census_without_saddle(ops, results):
    def drop_saddle(doc):
        doc["points"] = [p for p in doc["points"] if p["index"] != 1]
        doc["counts"] = {"0": 2}
        doc["alternating_sum"] = 2

    def move_minimum(doc):
        doc["points"][0]["location"][0] += SHIFT

    rejects_content(ops["cli_audit"], _edit_json(results["cli_audit"], "census.json", drop_saddle))
    rejects_content(ops["cli_audit"], _edit_json(results["cli_audit"], "census.json", move_minimum))


def test_census_check_reads_counts_and_points():
    good = {
        "counts": {"0": 2, "1": 1},
        "alternating_sum": 1,
        "passes": True,
        "points": [
            {"index": 0, "location": [1.0, 1.0]},
            {"index": 0, "location": [-1.0, -1.0]},
            {"index": 1, "location": [0.0, 0.0]},
        ],
    }
    checks.two_wells_census(good, 1e-6)
    for bad in (
        dict(good, points=good["points"][:2]),
        dict(good, passes=False),
        dict(good, counts={"0": 2, "1": 1, "2": 1}),
    ):
        with pytest.raises(checks.CheckError):
            checks.two_wells_census(bad, 1e-6)


def test_cli_recover_rejects_off_line_point(ops, results):
    def edit(doc):
        doc["recovered"][1] += SHIFT

    rejects_content(ops["cli_recover"], _edit_json(results["cli_recover"], "recovery.json", edit))


def test_cli_equivalence_rejects_distant_direct_minimiser(ops, results):
    def edit(doc):
        doc["direct_minimizers"][0]["point"][0] += SHIFT

    rejects_content(ops["cli_equivalence"],
            _edit_json(results["cli_equivalence"], "equivalence.json", edit))
