"""Output checks, computed apart from the program under test.

Every check takes plain numbers, arrays or file text and raises
:class:`CheckError` when the output is wrong. None of them calls
minsection: reference values come from closed forms, from numpy, or from
properties the method must have.
"""

from __future__ import annotations

import csv
import io

import numpy as np


class CheckError(AssertionError):
    """A program output failed a benchmark check."""


def close_to(what: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckError(f"{what}: shape {got.shape}, expected {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not err <= tol:
        raise CheckError(f"{what}: {got.tolist()} is {err:.3e} from {want.tolist()} (tol {tol:.1e})")


def not_above(what: str, value: float, reference: float) -> None:
    """``value <= reference`` up to rounding (1e-12 relative)."""
    slack = 1e-12 * max(1.0, abs(reference))
    if not value <= reference + slack:
        raise CheckError(f"{what}: {value!r} exceeds {reference!r}")


def central_gradient(f, p, rel_step: float = 1e-6) -> np.ndarray:
    """Plain central differences with step ``rel_step * max(1, |p_i|)``."""
    p = np.asarray(p, dtype=float)
    g = np.empty(p.size)
    for i in range(p.size):
        h = rel_step * max(1.0, abs(p[i]))
        hi, lo = p.copy(), p.copy()
        hi[i] += h
        lo[i] -= h
        g[i] = (f(hi) - f(lo)) / (2.0 * h)
    return g


def small_gradient(what: str, f, p, tol: float) -> None:
    norm = float(np.linalg.norm(central_gradient(f, p)))
    if not norm <= tol:
        raise CheckError(f"{what}: gradient norm {norm:.3e} at {list(p)} exceeds {tol:.1e}")


def frequency_design(t, w: float) -> np.ndarray:
    """Columns sin(w t), cos(w t), 1: the frequency-fit basis."""
    t = np.asarray(t, dtype=float)
    return np.column_stack([np.sin(w * t), np.cos(w * t), np.ones_like(t)])


def frequency_merit(t, d):
    t = np.asarray(t, dtype=float)
    d = np.asarray(d, dtype=float)

    def merit(p):
        r = frequency_design(t, p[0]) @ np.asarray(p[1:], dtype=float) - d
        return float(r @ r)

    return merit


def lstsq_amplitudes(what: str, t, d, w: float, amplitudes, tol: float) -> None:
    """The linear block equals an independent least-squares solve at ``w``."""
    ref = np.linalg.lstsq(frequency_design(t, w), np.asarray(d, dtype=float), rcond=None)[0]
    close_to(what, amplitudes, ref, tol * max(1.0, float(np.max(np.abs(ref)))))


def on_line(what: str, point, tol: float) -> None:
    """Recovery on DEGEN_LINE lies on the valley floor x + y = 2."""
    miss = abs(float(point[0]) + float(point[1]) - 2.0)
    if not miss <= tol:
        raise CheckError(f"{what}: {list(point)} is {miss:.3e} off the line x + y = 2")


def exit_status(what: str, status) -> None:
    if status != 0:
        raise CheckError(f"{what}: exit status {status!r}, expected 0")


def _columns(text: str) -> dict[str, np.ndarray]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    if len(rows) < 2:
        raise CheckError("csv output has no data rows")
    header, body = rows[0], rows[1:]
    try:
        if any(len(r) != len(header) for r in body):
            raise ValueError("row length differs from the header")
        return {name: np.array([float(r[j]) for r in body]) for j, name in enumerate(header)}
    except ValueError as err:
        raise CheckError(f"malformed csv output: {err}") from err


def trace_follows_sine(text: str, tol: float) -> None:
    """trace.csv on SINE_VALLEY: the traced graph is g(x) = sin x."""
    cols = _columns(text)
    if "x_0" not in cols or "g_0" not in cols:
        raise CheckError("trace.csv lacks the x_0 and g_0 columns")
    close_to("trace g_0 - sin(x_0)", cols["g_0"] - np.sin(cols["x_0"]), np.zeros(cols["x_0"].size), tol)


def section_minima(text: str, expected, tol: float) -> None:
    """section_<i>.csv: the strict local minima of F over the grid sit at
    ``expected`` (within ``tol``) and F vanishes there."""
    cols = _columns(text)
    x, f = cols["x_i"], cols["F"]
    idx = [j for j in range(1, x.size - 1) if f[j] < f[j - 1] and f[j] < f[j + 1]]
    close_to("section minima", x[idx], np.asarray(expected, dtype=float), tol)
    close_to("section values at the minima", f[idx], np.zeros(len(idx)), tol)


def two_wells_census(doc: dict, tol: float) -> None:
    """census.json for TWO_WELLS on [-2, 2]^2: two minima at +-(1, 1), one
    saddle at the origin, alternating sum 1."""
    counts = {str(k): v for k, v in doc.get("counts", {}).items()}
    if counts != {"0": 2, "1": 1}:
        raise CheckError(f"census counts {counts}, expected {{'0': 2, '1': 1}}")
    alternating = sum((-1) ** int(k) * v for k, v in counts.items())
    if doc.get("alternating_sum") != 1 or alternating != 1:
        raise CheckError(f"alternating sum {doc.get('alternating_sum')!r}, expected 1")
    if doc.get("passes") is not True:
        raise CheckError("census audit did not pass")
    found = sorted(
        (int(pt["index"]), tuple(pt["location"])) for pt in doc.get("points", [])
    )
    expected = [(0, (-1.0, -1.0)), (0, (1.0, 1.0)), (1, (0.0, 0.0))]
    if [k for k, _ in found] != [k for k, _ in expected]:
        raise CheckError(f"census point indices {[k for k, _ in found]}, expected [0, 0, 1]")
    for (_, loc), (_, want) in zip(found, expected):
        close_to("census point", loc, want, tol)


def same_bytes(what: str, first: dict[str, bytes], now: dict[str, bytes]) -> None:
    """Machine-readable outputs are byte-identical across passes."""
    if sorted(first) != sorted(now):
        raise CheckError(f"{what}: output files {sorted(now)}, expected {sorted(first)}")
    for name in first:
        if first[name] != now[name]:
            raise CheckError(f"{what}: {name} differs from the first pass")

