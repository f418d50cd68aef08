"""Write the JSON reports of the command line for a fixed set of builders.

Usage: ``python3 tools/reports.py OUTDIR``

For each report this writes ``OUTDIR/<name>.stdout``, ``.stderr`` and
``.exit`` (the exit code), running ``biunitary`` from the ``src`` tree of
the checkout that holds this script, at seed 0 with ``--format json``:

* ``decompose`` on the fourteen test builders plus E7, A11 and A15;
* ``verify-theorem -k 4``, ``relcomm -k 3 --basis``, ``pmpo -k 3``,
  ``check`` and ``stats -n 4`` on the fourteen test builders.

Two checkouts give the same reports when ``diff -r`` of their output
directories is empty.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

BUILDERS = [
    "dynkin A3", "dynkin A4", "dynkin A5", "dynkin A6", "dynkin A7",
    "dynkin D4", "dynkin D5", "dynkin E6",
    "trivial 2", "trivial 3",
    "cyclic 2", "cyclic 3", "cyclic 4", "cyclic 5",
]
LARGE = ["dynkin E7", "dynkin A11", "dynkin A15"]

REPORTS = (
    [("decompose", b, []) for b in BUILDERS + LARGE]
    + [("verify-theorem", b, ["-k", "4"]) for b in BUILDERS]
    + [("relcomm", b, ["-k", "3", "--basis"]) for b in BUILDERS]
    + [("pmpo", b, ["-k", "3"]) for b in BUILDERS]
    + [("check", b, []) for b in BUILDERS]
    + [("stats", b, ["-n", "4"]) for b in BUILDERS]
)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/reports.py OUTDIR", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command, builder, extra in REPORTS:
        name = f"{command}-{builder.replace(' ', '-')}"
        run = subprocess.run(
            [sys.executable, "-m", "biunitary.cli", command, "--builtin", builder,
             *extra, "--seed", "0", "--format", "json"],
            capture_output=True, env=env)
        (out / f"{name}.stdout").write_bytes(run.stdout)
        (out / f"{name}.stderr").write_bytes(run.stderr)
        (out / f"{name}.exit").write_text(f"{run.returncode}\n")
        print(f"{name}: exit {run.returncode}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
