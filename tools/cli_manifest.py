"""Byte manifest of the CLI over the catalog: one JSON line per run.

    python3 tools/cli_manifest.py > manifest.txt

Run from the root of a checkout; minsection is imported from ``src/`` of
that checkout. Each catalog problem runs each command through ``cli.main``
in process (``recover`` with ``--anchor-index 0 --anchor-value 0.25``), its
outputs written to a fresh temporary directory. A run's line holds its
exit status and the sha256 of its stdout, its stderr and each output file,
with sorted keys. Two checkouts whose manifests are identical print the
same bytes and write the same files on every catalog run.
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_line(problem: str, command: str) -> str:
    """Run ``minsection --problem problem --command command`` in process
    and return its manifest line."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        argv = ["--problem", problem, "--command", command, "--out", out, *EXTRA.get(command, [])]
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
    return json.dumps(record, sort_keys=True)


def main() -> int:
    for entry in catalog():
        for command in cli.COMMANDS:
            print(manifest_line(entry.name, command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
