"""Byte manifest of the CLI over the catalog: one JSON line per run.

    python3 tools/cli_manifest.py > manifest.txt

Run from the root of a checkout; minsection is imported from ``src/`` of
that checkout. Each catalog problem runs each command through ``cli.main``
in process (``recover`` with ``--anchor-index 0 --anchor-value 0.25``), its
outputs written to a fresh temporary directory. After the catalog runs
come the runs of ``MORE``, whose lines also list their extra arguments,
each reaching a path no catalog run does: one ends in a ``SolveError``
refusal, so the manifest covers every witness line the refusal printer
writes, one takes the ``sections`` fallback (at each grid point a scan
of the slice, then a Newton solve from its best point) to two polished
minima, one solves a partially linear problem file with an offset,
whose merit carries the closed-form gradient of the file's terms, one
solves that file with its split swapped, whose convexity probe takes
central second differences (every catalog merit carries a closed-form
Hessian, which the probes take instead), and one audits that file, whose
census takes the closed-form gradient with central second differences
(a catalog census takes both closed forms, and a file carries no
Hessian). A
problem of ``FILES`` is written, with its data, into the run's temporary
directory and named in its line by its stem. A run's line holds its exit
status and the sha256 of its stdout, its stderr and each output file,
with sorted keys. Two checkouts whose manifests are identical print the
same bytes and write the same files on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minsection import cli  # noqa: E402
from minsection.problems import catalog  # noqa: E402

#: Extra arguments of a command; every other command runs with none.
EXTRA = {"recover": ["--anchor-index", "0", "--anchor-value", "0.25"]}

#: Runs after the catalog's, as ``(problem, command, arguments)``. An outer
#: tolerance below float resolution stalls the quasi-Newton line search:
#: a ``SolveError`` whose witness is a point and a value. TWO_WELLS
#: sectioned along parameter 1 has no positive convexity certificate for
#: the trace, so its section is sampled by the fallback slice solves.
#: ``exp_offset`` is a problem file of ``FILES``; with its split swapped
#: (x = rate's coefficient, y = rate) linear elimination does not apply
#: and its merit has no closed-form Hessian, so the probe differences the
#: merit, and refuses: the block is negative at (0, 0). Its audit's census
#: takes the file's closed-form gradient and differences its Hessians
#: (about 0.5 s on one x86-64 server core, some 40% of the manifest's time).
MORE = [
    ("SINE_VALLEY", "solve", ["--outer-tol", "1e-300", "--grid-density", "20"]),
    ("TWO_WELLS", "sections", ["--x-indices", "1"]),
    ("exp_offset", "solve", []),
    ("exp_offset", "solve", ["--x-indices", "1"]),
    ("exp_offset", "audit", []),
]

#: Problem files by stem, as ``(document, samples)``: d = 2 exp(-0.45 t) +
#: 0.5 t + 0.2 cos(-0.45 t), fitted by one exponential basis term and an
#: offset whose cosine term depends on the rate.
FILES = {
    "exp_offset": (
        {
            "dimension": 2,
            "split": {"x_indices": [0], "y_indices": [1]},
            "domain_box": [[-2.0, 0.5], [-5.0, 5.0]],
            "model": {
                "kind": "partially_linear",
                "basis": [{"type": "exponential", "rate_index": 0}],
                "offset": [
                    {"type": "polynomial", "degree": 1, "scale": 0.5},
                    {"type": "sinusoid", "fn": "cos", "frequency_index": 0, "scale": 0.2},
                ],
            },
        },
        [(t, 2.0 * math.exp(-0.45 * t) + 0.5 * t + 0.2 * math.cos(-0.45 * t))
         for t in map(float, range(12))],
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_line(problem: str, command: str, args=()) -> str:
    """Run ``minsection --problem problem --command command`` in process,
    with the extra arguments ``args``, and return its manifest line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        target = problem
        if problem in FILES:
            doc, samples = FILES[problem]
            data = Path(tmp) / f"{problem}.csv"
            data.write_text("t,d\n" + "".join(f"{t!r},{d!r}\n" for t, d in samples))
            path = Path(tmp) / f"{problem}.json"
            path.write_text(json.dumps(dict(doc, data_file=data.name)))
            target = str(path)
        argv = ["--problem", target, "--command", command, "--out", str(out),
                *EXTRA.get(command, []), *args]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        files = {
            path.relative_to(out).as_posix(): _sha(path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()
        }
    record = {
        "problem": problem,
        "command": command,
        "exit": status,
        "stdout": _sha(stdout.getvalue().encode()),
        "stderr": _sha(stderr.getvalue().encode()),
        "files": files,
    }
    if args:
        record["args"] = list(args)
    return json.dumps(record, sort_keys=True)


def main() -> int:
    for entry in catalog():
        for command in cli.COMMANDS:
            print(manifest_line(entry.name, command), flush=True)
    for run in MORE:
        print(manifest_line(*run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
