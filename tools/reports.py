"""Write the JSON reports of the command line for a fixed set of builders.

Usage: ``python3 tools/reports.py OUTDIR``

For each report this writes ``OUTDIR/<name>.stdout``, ``.stderr`` and
``.exit`` (the exit code), running ``biunitary`` from the ``src`` tree of
the checkout that holds this script, at seed 0 with ``--format json``;
``<name>`` is the command, the builder and the report's ``--`` flags, joined
by ``-`` (``pmpo-dynkin-A3-dump``):

* ``decompose`` and ``check`` on the fourteen test builders plus E7, A11
  and A15;
* ``verify-theorem -k 4``, ``relcomm -k 3 --basis``, ``pmpo -k 3``,
  ``pmpo -k 2 --dump`` and ``stats -n 4`` on the fourteen test builders.

Usage: ``python3 tools/reports.py --compare A B``

compares two such directories and exits 1 on any difference, printing one
line per differing file; for a JSON report the line names each top-level
field that differs, with both values.  Every file must be byte-equal,
except the ``basis`` arrays of the ``relcomm`` reports: the flat basis
vectors are a gauge choice, so there only the projector ``V V^*`` of the
rows (each row one st-2 orthonormal vector) must agree within
``BASIS_TOL``, and every other field of the report must be equal.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

BUILDERS = [
    "dynkin A3", "dynkin A4", "dynkin A5", "dynkin A6", "dynkin A7",
    "dynkin D4", "dynkin D5", "dynkin E6",
    "trivial 2", "trivial 3",
    "cyclic 2", "cyclic 3", "cyclic 4", "cyclic 5",
]
LARGE = ["dynkin E7", "dynkin A11", "dynkin A15"]

BASIS_TOL = 1e-12
SHOW_CHARS = 80          # a differing field value is cut to this many characters
ABSENT = "(absent)"      # shown for a field that one of two reports lacks

REPORTS = (
    [("decompose", b, []) for b in BUILDERS + LARGE]
    + [("verify-theorem", b, ["-k", "4"]) for b in BUILDERS]
    + [("relcomm", b, ["-k", "3", "--basis"]) for b in BUILDERS]
    + [("pmpo", b, ["-k", "3"]) for b in BUILDERS]
    + [("pmpo", b, ["-k", "2", "--dump"]) for b in BUILDERS]
    + [("check", b, []) for b in BUILDERS + LARGE]
    + [("stats", b, ["-n", "4"]) for b in BUILDERS]
)


def _projector(rows: list[list[str]]) -> np.ndarray:
    v = np.array([[complex(z) for z in row] for row in rows], dtype=complex)
    return v.T @ v.conj()


def _show(value) -> str:
    """A field value as a report line shows it: strings bare, the rest as JSON."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return text if len(text) <= SHOW_CHARS else text[:SHOW_CHARS - 3] + "..."


def _basis_difference(va, vb) -> str | None:
    pa, pb = _projector(va), _projector(vb)
    if pa.shape != pb.shape:
        return f"basis projectors have shapes {pa.shape} and {pb.shape}"
    gap = float(np.max(np.abs(pa - pb), initial=0.0))
    return None if gap <= BASIS_TOL else f"basis projectors differ by {gap:.3e}"


def _difference(name: str, a: bytes, b: bytes) -> str | None:
    """Why two reports of one name differ, or None when they agree.

    A JSON object report names each top-level field that differs, with both
    values; any other difference of bytes is reported as such.
    """
    if a == b:
        return None
    try:
        da, db = json.loads(a), json.loads(b)
    except ValueError:
        return "bytes differ"
    if not (isinstance(da, dict) and isinstance(db, dict)):
        return "bytes differ"
    gauge = name.startswith("relcomm-") and name.endswith(".stdout")
    why = []
    for key in sorted(da.keys() | db.keys()):
        va, vb = da.get(key, ABSENT), db.get(key, ABSENT)
        if gauge and key == "basis" and ABSENT not in (va, vb):
            why.append(_basis_difference(va, vb))
        elif json.dumps(va) != json.dumps(vb):
            why.append(f"{key} {_show(va)} != {_show(vb)}")
    why = [w for w in why if w is not None]
    if why:
        return "; ".join(why)
    return None if gauge else "bytes differ"


def compare(a: pathlib.Path, b: pathlib.Path) -> int:
    names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
    bad = 0
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            why = f"only in {a if pa.is_file() else b}"
        else:
            why = _difference(name, pa.read_bytes(), pb.read_bytes())
        if why is not None:
            print(f"{name}: {why}")
            bad += 1
    print(f"{len(names) - bad} of {len(names)} files agree")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(pathlib.Path(argv[1]), pathlib.Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 tools/reports.py OUTDIR | --compare A B", file=sys.stderr)
        return 2
    out = pathlib.Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for command, builder, extra in REPORTS:
        name = "-".join([command, *builder.split(), *(a[2:] for a in extra if a[:2] == "--")])
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
