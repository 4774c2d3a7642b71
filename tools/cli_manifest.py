"""Byte manifest of the CLI over the catalog: one JSON line per run.

    python3 tools/cli_manifest.py > manifest.txt

Run from the root of a checkout; minsection is imported from ``src/`` of
that checkout. Each catalog problem runs each command through ``cli.main``
in process (``recover`` with ``--anchor-index 0 --anchor-value 0.25``), its
outputs written to a fresh temporary directory. After the catalog runs
come the runs of ``MORE``, whose lines also list their extra arguments,
each reaching a path no catalog run does: one ends in a ``SolveError``
refusal, so the manifest covers every witness line the refusal printer
writes, and one takes the ``sections`` fallback (at each grid point a
scan of the slice, then a Newton solve from its best point) to two
polished minima. A run's line holds its exit status and the sha256 of
its stdout, its stderr and each output file, with sorted keys. Two
checkouts whose manifests are identical print the same bytes and write
the same files on every run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
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
MORE = [
    ("SINE_VALLEY", "solve", ["--outer-tol", "1e-300", "--grid-density", "20"]),
    ("TWO_WELLS", "sections", ["--x-indices", "1"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_line(problem: str, command: str, args=()) -> str:
    """Run ``minsection --problem problem --command command`` in process,
    with the extra arguments ``args``, and return its manifest line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        argv = ["--problem", problem, "--command", command, "--out", out,
                *EXTRA.get(command, []), *args]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        root = Path(out)
        files = {
            path.relative_to(root).as_posix(): _sha(path.read_bytes())
            for path in sorted(root.rglob("*")) if path.is_file()
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
