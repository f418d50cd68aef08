"""Workloads of the benchmark: the CLI cases each one runs and their checks.

Every case is one ``biunitary`` command line on a builtin connection.  The
expected integers of each case live in ``references.json`` next to this
file; :func:`check` compares a report against them and returns the list of
mismatches (empty when the report is correct).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Case:
    id: str
    command: str
    builtin: str
    k: int | None = None
    flags: tuple[str, ...] = ()

    def argv(self, seed: int) -> list[str]:
        argv = [self.command, "--builtin", self.builtin, *self.flags]
        if self.k is not None:
            argv += ["-k", str(self.k)]
        return argv + ["--seed", str(seed), "--format", "json"]


# Why each workload exists, and which layers it loads, is recorded in
# BENCHMARK.json.  D5 k=6 sits in both `theorem` and `basis` on purpose: a
# flat-solve change that helps the former but has to rebuild the basis shows
# its cost in the latter.
WORKLOADS: dict[str, tuple[Case, ...]] = {
    "theorem": (
        Case("D5-k6", "verify-theorem", "dynkin D5", 6),
        Case("cyclic5-k4", "verify-theorem", "cyclic 5", 4),
        Case("E6-k5", "verify-theorem", "dynkin E6", 5),
        Case("trivial3-k4", "verify-theorem", "trivial 3", 4),
    ),
    "discover": (
        Case("A15", "decompose", "dynkin A15"),
        Case("E7", "decompose", "dynkin E7"),
        Case("A11", "decompose", "dynkin A11"),
    ),
    "basis": (
        Case("D5-k6", "relcomm", "dynkin D5", 6, ("--basis",)),
        Case("cyclic4-k5", "relcomm", "cyclic 4", 5, ("--basis",)),
        Case("E6-k5", "relcomm", "dynkin E6", 5, ("--basis",)),
        Case("trivial3-k3", "relcomm", "trivial 3", 3, ("--basis",)),
    ),
}

# One small case per command, run untimed before the first pass so that
# lazy imports and first-call costs stay out of the timed region.
WARMUP = {
    "verify-theorem": Case("warmup", "verify-theorem", "dynkin A3", 2),
    "decompose": Case("warmup", "decompose", "dynkin A3"),
    "relcomm": Case("warmup", "relcomm", "dynkin A3", 2, ("--basis",)),
}


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as f:
        return json.load(f)


def report_integers(case: Case, doc: dict) -> dict:
    """The integers (and the global index) a report of this case must carry."""
    if case.command == "verify-theorem":
        return {"rows": [[r["k"], r["rank"], r["flat_dimension"], r["dim"]]
                         for r in doc["rows"]],
                "passed": doc["passed"]}
    if case.command == "decompose":
        return {"labels": doc["labels"], "w": float(doc["w"]),
                "fusion": doc["fusion"], "conjugate": doc["conjugate"],
                "vertical_multiplicities": doc["vertical_multiplicities"],
                "power_multiplicities": doc["power_multiplicities"]}
    if case.command == "relcomm":
        vecs = doc.get("basis", [])
        return {"dim": doc["dim"], "flat_dimension": doc["flat_dimension"],
                "basis_shape": [len(vecs), len(vecs[0]) if vecs else 0]}
    raise ValueError(f"no reference format for {case.command!r}")


def check(case: Case, text: str, expected: dict) -> list[str]:
    """Mismatches between one report and the stored reference."""
    try:
        doc = json.loads(text)
        got = report_integers(case, doc)
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable report: {err!r}"]
    problems = []
    for key, want in expected.items():
        have = got.get(key)
        if key == "w":
            if not math.isclose(have, want, rel_tol=1e-9):
                problems.append(f"w: {have!r} != {want!r}")
        elif have != want:
            problems.append(f"{key}: {_short(have)} != {_short(want)}")
    if case.command == "relcomm":
        problems += _basis_entries_problems(doc.get("basis", []))
    return problems


def _basis_entries_problems(vecs: list[list[str]]) -> list[str]:
    """Every basis coefficient must parse as a finite complex number, and no
    basis vector may vanish."""
    for j, vec in enumerate(vecs):
        try:
            vals = [complex(s) for s in vec]
        except ValueError as err:
            return [f"basis vector {j}: {err}"]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in vals):
            return [f"basis vector {j} has a non-finite entry"]
        if not any(vals):
            return [f"basis vector {j} is zero"]
    return []


def _short(value) -> str:
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= 120 else text[:117] + "..."
