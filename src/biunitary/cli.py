"""Command-line front end: build, check, decompose, and verify connections.

Commands exchange connections through the interchange document format and
emit either human-readable tables or versioned JSON reports.  Exit status is
0 on success, 1 on a numeric failure (a failed check, a rank mismatch, or a
non-terminating closure), and 2 on unreadable or invalid input.

``--tol`` is the bi-unitarity threshold of ``check``; discovery and
compression use it floored at 1e-8.  ``relcomm`` runs no discovery: it
records ``--tol`` in its provenance but does not use it.  The 1e-6 Gram cut
with its 50x gap and the 1e-8 rank cut are fixed.

``verify-theorem`` takes the rank of P^k as its trace, computed without
forming the operator, and exits 1 unless that trace lies within 1e-9 of an
integer.  ``pmpo`` builds the dense P^k for its SVD/eigen rank and its
idempotency residual, and exits 2 before building it when the two dense
arrays it holds would exceed half of physical memory.  ``relcomm`` and
``verify-theorem`` exit 2 under the same budget before a flat solve whose
half-ladder blocks or transports would exceed it; ``verify-theorem`` solves
its largest k first, so an oversized k is refused before any other solve.
A JSON report formats every entry of the ``pmpo --dump`` matrix and the
``relcomm --basis`` vectors as a string, ``FORMATTED_ENTRY_BYTES`` each
against the same budget (exit 2 before formatting); a table report prints
neither, so it formats neither.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from . import __version__
from .bases import LoopBasis, StringBasis
from .connection import (
    Connection,
    ConnectionError,
    _fmt,
    build_cyclic_group,
    build_dynkin,
    build_trivial,
    check_biunitarity,
    connection_to_document,
    read_connection,
    write_connection,
)
from .decomp import discover_irreducibles, sector_statistics
from .graphs import GraphError
from .mpo import operator_rank, pmpo_P, projector_trace
from .nullspace import INTEGRALITY_EPS
from .strings import check_budget, flat_fields

REPORT_VERSION = 1
# Peak memory per matrix entry formatted into a JSON report, its complex
# array included: 174 B measured for relcomm --basis and 139 B for
# pmpo --dump on trivial 3 at k = 3 (531,441 entries each), rounded up
FORMATTED_ENTRY_BYTES = 176


def _fmt_rows(mat) -> list[list[str]]:
    """The rows of a complex matrix as "a+bj" strings, each part to 17 digits."""
    return [[_fmt(z.real) + ("+" if z.imag >= 0 else "-") + _fmt(abs(z.imag)) + "j"
             for z in row] for row in mat.tolist()]


def _build_builtin(tokens: list[str]) -> Connection:
    if not tokens:
        raise ConnectionError("empty builtin request")
    kind = tokens[0].lower()
    if kind == "dynkin":
        if len(tokens) != 2:
            raise ConnectionError("usage: dynkin <A3|D4|E6|...>")
        return build_dynkin(tokens[1])
    if kind == "trivial":
        if len(tokens) != 2:
            raise ConnectionError("usage: trivial <d>")
        return build_trivial(int(tokens[1]))
    if kind == "cyclic":
        if len(tokens) != 2:
            raise ConnectionError("usage: cyclic <n>")
        return build_cyclic_group(int(tokens[1]))
    raise ConnectionError(f"unknown builtin kind {tokens[0]!r}")


def _load(args) -> tuple[Connection, str]:
    """Load the input connection and return it with its content hash."""
    if getattr(args, "builtin", None):
        conn = _build_builtin(args.builtin.split())
        payload = json.dumps(connection_to_document(conn), sort_keys=True).encode()
        return conn, hashlib.sha256(payload).hexdigest()
    path = getattr(args, "input", None)
    if not path:
        raise ConnectionError("no input: give a connection file or --builtin")
    with open(path, "rb") as f:
        payload = f.read()
    conn = read_connection(path)
    return conn, hashlib.sha256(payload).hexdigest()


def _provenance(args, input_hash: str) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "tool_version": __version__,
        "input_sha256": input_hash,
        "tolerance": _fmt(args.tol),
        "seed": getattr(args, "seed", None),
        "max_depth": getattr(args, "max_depth", None),
    }


def _emit(args, report: dict, table_lines: list[str]) -> None:
    if args.format == "json":
        text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    else:
        text = "\n".join(table_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _fusion_payload(fd) -> dict:
    n_table = {f"{a},{b},{c}": n for (a, b, c), n in fd.n_table.items() if n}
    l_table = {}
    for (a, n), v in sorted(fd.l_table.items()):
        l_table[f"{a},{n}"] = v
    return {
        "labels": list(fd.labels),
        "identity": fd.identity,
        "d": {a: _fmt(fd.d[a]) for a in fd.labels},
        "w": _fmt(fd.w),
        "fusion": n_table,
        "vertical_multiplicities": {a: fd.m_table[a].tolist() for a in fd.labels},
        "conjugate": dict(fd.conj),
        "power_multiplicities": l_table,
        "v0": list(fd.v0),
        "mu_v0": {x: _fmt(fd.mu[x]) for x in fd.v0},
    }


def cmd_builtin(args) -> int:
    conn = _build_builtin([args.kind] + args.params)
    if args.out:
        write_connection(conn, args.out)
    else:
        json.dump(connection_to_document(conn), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    return 0


def cmd_check(args) -> int:
    conn, h = _load(args)
    rep = check_biunitarity(conn, args.tol)
    report = _provenance(args, h) | {
        "command": "check",
        "passed": bool(rep.passed),
        "max_residual": _fmt(rep.max_residual),
        "original_max_residual": _fmt(rep.original.max_residual),
        "reflected_max_residual": _fmt(rep.primed.max_residual),
        "mismatched_blocks": len(rep.original.mismatched_blocks)
        + len(rep.primed.mismatched_blocks),
    }
    lines = [
        f"bi-unitarity check (tol {args.tol:g})",
        f"  original residual   {rep.original.max_residual:.3e}",
        f"  reflected residual  {rep.primed.max_residual:.3e}",
        f"  result              {'PASS' if rep.passed else 'FAIL'}",
    ]
    _emit(args, report, lines)
    return 0 if rep.passed else 1


def cmd_decompose(args) -> int:
    conn, h = _load(args)
    fd, _, _ = discover_irreducibles(conn, max_depth=args.max_depth,
                                     seed=args.seed, tol=args.tol)
    fd.multiplicities(args.powers)
    report = _provenance(args, h) | {"command": "decompose"} | _fusion_payload(fd)
    lines = [f"irreducible decomposition ({len(fd.labels)} classes, tol {args.tol:g})",
             f"  global index w = {fd.w:.12g}"]
    for a in fd.labels:
        lines.append(f"  {a}: d = {fd.d[a]:.12g}, conj = {fd.conj[a]}, "
                     f"M = {fd.m_table[a].tolist()}")
    _emit(args, report, lines)
    return 0


def _validate_config(args) -> None:
    if getattr(args, "k", 1) < 1:
        raise ValueError("k must be >= 1")
    if getattr(args, "n", 1) < 1:
        raise ValueError("n must be >= 1")
    if not 0 < args.tol <= 1e-2:
        raise ValueError("tolerance must lie in (0, 1e-2]")
    if getattr(args, "max_depth", 1) < 1:
        raise ValueError("max depth must be >= 1")


def _theorem_rows(conn, args):
    fd, reps, wn = discover_irreducibles(conn, max_depth=args.max_depth,
                                         seed=args.seed, tol=args.tol)
    # the flat solves grow with k: an oversized last one refuses before any other
    last = flat_fields(wn, args.k, return_basis=False)
    rows = []
    for k in range(1, args.k + 1):
        # P^k is a Hermitian idempotent: its rank is its trace, if integral
        tr = projector_trace(fd, reps, k)
        rank = round(tr)
        if abs(tr - rank) > INTEGRALITY_EPS:
            raise RuntimeError(f"trace of P^k at k={k} is not integral: {_fmt(tr)}, "
                               f"residual {abs(tr - rank):.3e}")
        ff = last if k == args.k else flat_fields(wn, k, return_basis=False)
        rows.append({"k": k, "rank": rank, "flat_dimension": ff.dimension,
                     "dim": ff.basis.dim})
    return fd, rows


def cmd_pmpo(args) -> int:
    conn, h = _load(args)
    fd, reps, wn = discover_irreducibles(conn, max_depth=args.max_depth,
                                         seed=args.seed, tol=args.tol)
    sbasis = StringBasis(wn.top, args.k)
    what = f"dense P^k at k={args.k} on dim B_k = {sbasis.dim}"
    # pmpo_P holds the operator and at most one block product
    check_budget(2 * 16 * sbasis.dim ** 2, what, "two dense dim B_k x dim B_k arrays")
    dump = args.dump and args.format == "json"
    if dump:
        check_budget(FORMATTED_ENTRY_BYTES * sbasis.dim ** 2, what, "its formatted JSON entries")
    lbasis = LoopBasis(sbasis, wn.mu)
    p = pmpo_P(fd, reps, args.k, lbasis)
    rank = operator_rank(p)
    defect = p.idempotency_defect()
    report = _provenance(args, h) | {
        "command": "pmpo", "k": args.k, "dim": lbasis.dim, "rank": rank,
        "idempotency_residual": _fmt(defect),
    }
    if dump:
        report["basis_legend"] = [list(loop) for loop in lbasis.loops]
        report["matrix"] = _fmt_rows(p.matrix)
    lines = [f"projector operator at k = {args.k} (tol {args.tol:g})",
             f"  loop space dimension  {lbasis.dim}",
             f"  rank                  {rank}",
             f"  idempotency residual  {defect:.3e}"]
    _emit(args, report, lines)
    return 0 if defect < 1e-8 else 1


def cmd_relcomm(args) -> int:
    conn, h = _load(args)
    ff = flat_fields(conn, args.k, return_basis=args.basis)
    report = _provenance(args, h) | {
        "command": "relcomm", "k": args.k, "dim": ff.basis.dim,
        "flat_dimension": ff.dimension,
    }
    if args.basis and args.format == "json" and ff.vectors is not None:
        check_budget(FORMATTED_ENTRY_BYTES * ff.vectors.size,
                     f"flat basis at k={args.k} on dim B_k = {ff.basis.dim}",
                     "its formatted JSON entries")
        report["basis"] = _fmt_rows(ff.vectors.T)
    lines = [f"flat fields at k = {args.k}",
             f"  string space dimension {ff.basis.dim}",
             f"  flat dimension         {ff.dimension}"]
    _emit(args, report, lines)
    return 0


def cmd_verify_theorem(args) -> int:
    conn, h = _load(args)
    fd, rows = _theorem_rows(conn, args)
    all_pass = all(r["rank"] == r["flat_dimension"] for r in rows)
    report = _provenance(args, h) | {
        "command": "verify-theorem",
        "w": _fmt(fd.w),
        "labels": list(fd.labels),
        "rows": [{"k": r["k"], "rank": r["rank"], "flat_dimension": r["flat_dimension"],
                  "dim": r["dim"], "pass": r["rank"] == r["flat_dimension"]}
                 for r in rows],
        "passed": all_pass,
    }
    lines = [f"rank of the projector vs flat-field dimension (tol {args.tol:g})"]
    for r in rows:
        verdict = "PASS" if r["rank"] == r["flat_dimension"] else "FAIL"
        lines.append(f"  k={r['k']}: rank {r['rank']}  flat {r['flat_dimension']}  "
                     f"(space dim {r['dim']})  {verdict}")
    lines.append(f"  overall {'PASS' if all_pass else 'FAIL'}")
    _emit(args, report, lines)
    return 0 if all_pass else 1


def cmd_stats(args) -> int:
    conn, h = _load(args)
    fd, reps, wn = discover_irreducibles(conn, max_depth=args.max_depth,
                                         seed=args.seed, tol=args.tol)
    scheme = wn.scheme()
    per_level = []
    lines = [f"normalized profiles up to n = {args.n} (tol {args.tol:g})"]
    sqw = math.sqrt(fd.w)
    for n in range(1, args.n + 1):
        st = sector_statistics(fd, scheme, n)
        per_level.append({
            "n": n,
            "alpha": _fmt(st.alpha),
            "kappa": {x: _fmt(v) for x, v in st.kappa.items()},
            "beta": _fmt(st.beta),
            "lambda": {a: _fmt(v) for a, v in st.lam.items()},
            "path_counts": st.path_counts,
            "power_multiplicities": st.power_multiplicities,
        })
        kmax = max(abs(st.kappa[x] - wn.mu[x] / sqw) for x in fd.v0)
        lmax = max(abs(st.lam[a] - fd.d[a] / sqw) for a in fd.labels)
        lines.append(f"  n={n}: alpha={st.alpha:.6g} beta={st.beta:.6g} "
                     f"|kappa-mu/sqrt(w)|={kmax:.2e} |lambda-d/sqrt(w)|={lmax:.2e}")
    report = _provenance(args, h) | {"command": "stats", "levels": per_level,
                                     "w": _fmt(fd.w)}
    _emit(args, report, lines)
    return 0


def _add_io_args(p, with_k=False, with_n=False):
    p.add_argument("input", nargs="?", help="connection interchange document")
    p.add_argument("--builtin", help='builtin connection, e.g. "dynkin A3"')
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-depth", type=int, default=12, dest="max_depth")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    if with_k:
        p.add_argument("-k", type=int, default=2)
    if with_n:
        p.add_argument("-n", type=int, default=4)


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="biunitary",
                                 description="Bi-unitary connections, fusion data, "
                                             "projector operators, and flat fields.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("builtin", help="write a builtin connection document")
    p.add_argument("kind", choices=("dynkin", "trivial", "cyclic"))
    p.add_argument("params", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_builtin)

    p = sub.add_parser("check", help="bi-unitarity residuals")
    _add_io_args(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="irreducible classes and fusion data")
    _add_io_args(p)
    p.add_argument("--powers", type=int, default=4,
                   help="tabulate power multiplicities up to this level")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("pmpo", help="projector operator rank and idempotency")
    _add_io_args(p, with_k=True)
    p.add_argument("--dump", action="store_true",
                   help="include the dense matrix and the loop basis legend")
    p.set_defaults(func=cmd_pmpo)

    p = sub.add_parser("relcomm", help="flat-field dimension")
    _add_io_args(p, with_k=True)
    p.add_argument("--basis", action="store_true", help="include basis coefficients")
    p.set_defaults(func=cmd_relcomm)

    p = sub.add_parser("verify-theorem", help="rank of the projector vs flat dimension")
    _add_io_args(p, with_k=True)
    p.set_defaults(func=cmd_verify_theorem)

    p = sub.add_parser("stats", help="normalized path and multiplicity profiles")
    _add_io_args(p, with_n=True)
    p.set_defaults(func=cmd_stats)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command != "builtin":
            _validate_config(args)
        return args.func(args)
    except (ConnectionError, GraphError, FileNotFoundError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        # DecompositionError, DepthExceededError, or a flat system without a gap
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
