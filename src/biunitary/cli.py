"""Command-line front end: build, check, decompose, and verify connections.

Commands exchange connections through the interchange document format and
emit either human-readable tables or versioned JSON reports.  Exit status is
0 on success, 1 on a numeric failure (a failed check, a rank mismatch, or a
non-terminating closure), and 2 on unreadable or invalid input.

``--tol`` is the bi-unitarity threshold of ``check``; discovery and
compression use it floored at 1e-8.  ``relcomm`` runs no discovery: it
records ``--tol`` in its provenance but does not use it.  The 1e-6 Gram cut
and the 1e-8 rank cut, each with its 50x gap, are fixed.

``verify-theorem`` takes the rank of P^k as its trace, computed without
forming the operator, and exits 1 unless that trace lies within 1e-9 of an
integer.  ``pmpo`` builds the dense P^k for its SVD/eigen rank and its
idempotency residual, exits 1 when that spectrum has no clean gap at the
rank cut, and exits 2 before building it when the two dense arrays it holds
would exceed half of physical memory; it sizes them from the path counts,
listing no path.  ``relcomm`` and
``verify-theorem`` exit 2 under the same budget before a flat solve whose
half-ladder blocks or stacks would exceed it; ``verify-theorem`` solves
its largest k first, so an oversized k is refused before any other solve.
A JSON report writes the ``pmpo --dump`` matrix and the ``relcomm --basis``
vectors row by row, each entry as the string ``"a+bj"`` or ``"a-bj"`` with
both parts in the bytes of Python's ``%.17g``: a numpy kernel spells the
parts of dense chunks exactly, and Python's ``%`` takes the rest (sparse
chunks, non-finite parts, 3-digit exponents, near-ties).  For ``relcomm``,
``FORMATTED_ENTRY_BYTES`` per entry count against the same budget (exit 2
before formatting); ``pmpo``'s two-array pre-flight already counts more.  A
table report prints neither, so it formats neither.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

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
from .ladders import grid_counts
from .mpo import operator_rank, pmpo_P, projector_trace
from .nullspace import DEFAULT_TOL, INTEGRALITY_EPS, PMPO_IDEMPOTENCY_EPS, check_budget
from .strings import flat_fields

REPORT_VERSION = 1
# Peak memory per matrix entry formatted into a JSON report, its complex
# array included, as the rise in peak RSS over the same report without the
# matrix on trivial 3 at k = 3 (531,441 entries each), written row by row:
# at most 16.4 B (relcomm --basis) and 0.7 B (pmpo --dump) in three runs,
# under 24 B; below pmpo's 32 B of dense arrays, so only relcomm checks it.
FORMATTED_ENTRY_BYTES = 24
# Peak memory per cell of a builtin trivial <d> or cyclic <n>, checked before
# any cell is built: the rise in peak RSS of ``builtin trivial 300`` over
# ``trivial 2``, at most 767 B per cell in three runs (933 B for cyclic), rounded up.
_BUILTIN_CELL_BYTES = 1024


# Stands in for the matrix of a report while the rest is encoded as JSON
_MATRIX = "\0matrix\0"
# Parts per call of the formatting kernel, and the fewest nonzero parts worth one
_CHUNK, _FEW_PARTS = 2048, 256
_PLUS = np.arange(_CHUNK) % 2 == 1                 # the imaginary parts of a chunk
_U, _SPLIT = np.uint64, 134217729.0                # 2^27 + 1, Veltkamp's constant


def _exponent_tables():
    """Per E = -99..99, by integer arithmetic: the least double >= 10^E; hi, the double nearest
    10^(16-E), its Veltkamp halves, lo nearest the rest; the rounding counted as near a tie."""
    tens, scales = [], []
    for e in range(-99, 100):
        num, den = 10 ** max(e, 0), 10 ** max(-e, 0)
        n, d = (num / den).as_integer_ratio()
        tens.append(n / d if n * den >= num * d else math.nextafter(n / d, math.inf))
        n, d = (hi := 10 ** 16 * den / num).as_integer_ratio()
        scales.append((hi, (10 ** 16 * den * d - n * num) / (num * d)))
    hi, lo = np.array(scales).T
    hh = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.array(tens), np.stack([hi, hh, hi - hh, lo]), np.where(lo != 0, 0.5 - 1e-11, 0.5)


_TENS, _SCALES, _NEAR_TIE = _exponent_tables()
# Per E: the suffix "e-EE" or "e+EE" of the exponent form, a '.' after the first q digits
# (24: none), and z: the part reads "0." and z - 1 zeros before its digits
_E = np.arange(-99, 100)
_FIXED = (_E >= -4) & (_E <= 16)
_SUFFIX = np.array([int.from_bytes(b"e%+03d" % e, "little") for e in _E], dtype=_U) * ~_FIXED
_Q, _Z = np.where(_FIXED, np.where(_E >= 0, _E + 1, 24), 1), np.where(_FIXED & (_E < 0), -_E, 0)
# Strings of up to 24 bytes are three little-endian words: _LOW[:, k] keeps the first
# k bytes, _DOT[:, k] is a '.' at byte k, _ASCII[:, k] makes the first k digits ASCII,
# and a word moved to byte k shifts up by _UP[:, k] and down by -_UP[:, k]
_LOW = np.array([[(1 << 8 * min(max(k - 8 * j, 0), 8)) - 1 for k in range(26)]
                 for j in range(3)], dtype=_U)
_DOT, _ASCII = (_LOW[:, 1:] ^ _LOW[:, :-1]) & _U(0x2E2E2E2E2E2E2E2E), _LOW & _U(0x3030303030303030)
_UP = (8 * np.arange(18) - np.array([[0], [64], [128]])).astype(_U)    # wrapped counts give 0
# Per sign ('', '+', '-', '-' for plus + 2 signbit) and z: the prefix and its bits
_PREFIX = [s + b"0." + b"0" * (z - 1) if z else s for s in (b"", b"+", b"-", b"-")
           for z in range(5)]
_PREFIX_BITS = np.array([8 * len(s) for s in _PREFIX], dtype=_U)
_PREFIX = np.array([int.from_bytes(s, "little") for s in _PREFIX], dtype=_U)
_ZERO_TEXT = np.array([b"0", b"+0", b"-0", b"-0"], dtype="S24")


def _g17(x: np.ndarray, plus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``"%+.17g" if p else "%.17g"`` of each ``x``, ``plus``, as S24, and where it is unset.

    The digits of a part with exponent E are round(|x| 10^(16-E)) half to even: hi |x| as an
    exact Dekker two-product, plus lo |x|.  Unset: nonzero |x| outside [1e-99, 1e99), NaN,
    inf, and roundings within 1e-11 of a tie where 10^(16-E) is not a double.
    """
    a = np.abs(x)
    zero, ok = a == 0, (a >= 1e-99) & (a < 1e99)
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64) + 99      # E + 99, or one off it
    e += np.subtract(a >= _TENS.take(e + 1, mode="clip"), a < _TENS.take(e, mode="clip"), dtype=e.dtype)
    hi, hh, hl, lo = _SCALES.take(e, axis=1)
    ph, t = a * hi, a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    r = al * hl - (((ph - ah * hh) - al * hh) - ah * hl) + a * lo
    n = np.rint(r)
    slow = ~(ok | zero) | (np.abs(r - n) > _NEAR_TIE.take(e))
    d = (ph.astype(_U) + n.astype(np.int64).view(_U)) * ~zero
    del a, ph, t, ah, al, r, n, hi, hh, hl, lo      # a smaller working set for the digits
    carry = d == 10 ** 17                    # rounded up to the next decade
    d[carry] = 10 ** 16
    e += carry
    # the 17 digits as bytes 0..9, leading digit first, in words of 8 + 1 + 8
    w = d // _U(10 ** 9)
    d -= w * _U(10 ** 9)
    d8 = d // _U(10 ** 8)
    w = np.stack([w, d - d8 * _U(10 ** 8)])
    for div, mul, shift, lane, mask in ((10 ** 4, 109951163, 40, 32, 2 ** 14 - 1),
                                        (100, 5243, 19, 16, 0x0000007F0000007F),
                                        (10, 103, 10, 8, 0x000F000F000F000F)):
        hi = ((w * _U(mul)) >> _U(shift)) & _U(mask)      # w // div in each lane
        w = hi | ((w - hi * _U(div)) << _U(lane))
    v = np.stack([w[0], d8 | (w[1] << _U(8)), w[1] >> _U(56)])
    del w, d, d8
    # kd digits kept: up to the last nonzero one, and the integer part
    nb = (np.frexp(v)[1] + 7) >> 3
    q = _Q.take(e)
    kd = np.maximum(np.where(v[2] != 0, 17, np.where(v[1] != 0, 8 + nb[1], nb[0])), q % 24)
    v |= _ASCII.take(kd, axis=1)
    s = _SUFFIX.take(e)
    up = _UP.take(kd, axis=1)
    v |= (s << up) | (s >> -up)
    q[kd <= q] = 24
    low = v & _LOW.take(q, axis=1)
    v ^= low
    low |= _DOT.take(q, axis=1) | (v << _U(8))
    low[1:] |= v[:-1] >> _U(56)
    k = 5 * (plus + 2 * np.signbit(x)) + _Z.take(e)
    bits = _PREFIX_BITS.take(k)
    w = low << bits
    w[1:] |= low[:-1] >> (_U(64) - bits)
    w[0] |= _PREFIX.take(k)
    return np.ascontiguousarray(w.T, dtype="<u8").view("S24")[:, 0], slow


def _format_parts(x: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """``"%+.17g" if p else "%.17g"`` of each ``x``, ``plus``, as S24: by :func:`_g17`
    if many are nonzero, else zeros as constants; the rest by Python's ``%``."""
    sparse = np.count_nonzero(x) < _FEW_PARTS
    text, slow = (_ZERO_TEXT.take(plus + 2 * np.signbit(x)), x != 0) if sparse else _g17(x, plus)
    for i in np.flatnonzero(slow).tolist():
        text[i] = (b"%+.17g" if plus[i] else b"%.17g") % x[i]
    return text


def _write_matrix(write, mat: np.ndarray) -> None:
    """Write a matrix as the value of a top-level field of a JSON report.

    The bytes are those of ``json.dumps(..., indent=1)`` on the list of rows of
    ``"a+bj"`` strings: each part to 17 significant digits, the sign ``+``
    when the imaginary part is ``>= 0`` and ``-`` otherwise, so -0.0 is
    written ``+0`` and a NaN imaginary part ``-nan``.  Adding 0.0 to the
    imaginary parts turns -0.0 into +0.0; :func:`_format_parts` formats the
    parts of a block of rows in fixed chunks, and each row is one ``%``
    operation on a template of ``%s`` fields.
    """
    rows, cols = mat.shape
    if rows == 0:
        write("[]")
        return
    cells = ",\n".join(['   "%s%sj"'] * cols)
    template = f"  [\n{cells}\n  ]" if cols else "  []"
    step = max(1, _CHUNK // max(2 * cols, 1))
    write("[\n")
    for i0 in range(0, rows, step):
        parts = np.array(mat[i0:i0 + step], dtype=complex, order="C").view(np.float64).ravel()
        parts[1::2] += 0.0
        text = np.empty(len(parts), dtype="S24")
        for j in range(0, len(parts), _CHUNK):
            text[j:j + _CHUNK] = _format_parts(parts[j:j + _CHUNK], _PLUS[:len(parts) - j])
        for i, row in enumerate(text.reshape(min(step, rows - i0), 2 * cols), i0):
            row = row.view(np.uint8).astype(np.uint32).view("U24")     # str, not bytes, items
            write((template % tuple(row.tolist())).replace("+nanj", "-nanj"))
            write(",\n" if i + 1 < rows else "\n ]")


def _build_builtin(tokens: list[str]) -> Connection:
    if not tokens:
        raise ConnectionError("empty builtin request")
    kind = tokens[0].lower()
    if kind == "dynkin":
        if len(tokens) != 2:
            raise ConnectionError("usage: dynkin <A3|D4|E6|...>")
        return build_dynkin(tokens[1])
    if kind in ("trivial", "cyclic"):
        if len(tokens) != 2:
            raise ConnectionError(f"usage: {kind} <{'d' if kind == 'trivial' else 'n'}>")
        n = int(tokens[1])
        cells = max(n, 0) ** 2
        check_budget(_BUILTIN_CELL_BYTES * cells, f"builtin {kind} {n}", f"its {cells} cells")
        return (build_trivial if kind == "trivial" else build_cyclic_group)(n)
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
    """Write the report to ``--out`` or stdout.

    A JSON report is ``json.dumps(report, indent=1, sort_keys=True)`` with a
    newline; its one top-level ``ndarray`` field, if any, is written row by
    row as :func:`_write_matrix` describes.
    """
    mat, head, tail = None, "\n".join(table_lines) + "\n", ""
    if args.format == "json":
        key = next((k for k, v in report.items() if isinstance(v, np.ndarray)), None)
        if key is None:
            head = json.dumps(report, indent=1, sort_keys=True) + "\n"
        else:
            mat = report[key]
            text = json.dumps(report | {key: _MATRIX}, indent=1, sort_keys=True) + "\n"
            field = f'"{key}": '
            # a string value escapes its quotes, so only the field itself matches
            head, _, tail = text.partition(field + json.dumps(_MATRIX))
            head += field
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as f:
        f.write(head)
        if mat is not None:
            _write_matrix(f.write, mat)
        f.write(tail)


def _fusion_payload(fd) -> dict:
    n_table = {f"{a},{b},{c}": n for (a, b, c), n in fd.n_table.items() if n}
    l_table = {f"{a},{n}": v for (a, n), v in sorted(fd.l_table.items())}
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
        # a Connection has square unitarity blocks only
        "mismatched_blocks": 0,
    }
    lines = [
        f"bi-unitarity check (tol {args.tol:g})",
        f"  original residual   {rep.original.max_residual:.3e}",
        f"  reflected residual  {rep.primed.max_residual:.3e}",
        f"  result              {'PASS' if rep.passed else 'FAIL'}",
    ]
    _emit(args, report, lines)
    return 0 if rep.passed else 1


def _discover(conn, args):
    """Discovery at the command's depth cap, seed and tolerance."""
    return discover_irreducibles(conn, max_depth=args.max_depth, seed=args.seed, tol=args.tol)


def cmd_decompose(args) -> int:
    conn, h = _load(args)
    fd, _, _ = _discover(conn, args)
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
    if getattr(args, "powers", 1) < 1:
        raise ValueError("powers must be >= 1")
    if not 0 < args.tol <= 1e-2:
        raise ValueError("tolerance must lie in (0, 1e-2]")
    if getattr(args, "max_depth", 1) < 1:
        raise ValueError("max depth must be >= 1")


def _theorem_rows(conn, args):
    fd, reps, wn = _discover(conn, args)
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
                     "dim": ff.basis.dim, "pass": rank == ff.dimension})
    return fd, rows


def cmd_pmpo(args) -> int:
    conn, h = _load(args)
    fd, reps, wn = _discover(conn, args)
    dim = sum(n * n for n in grid_counts(wn.top, args.k).values())     # listing no path
    what = f"dense P^k at k={args.k} on dim B_k = {dim}"
    # the operator, and pmpo_P's block product or eigvalsh's copy; the checks go by row blocks
    check_budget(2 * 16 * dim ** 2, what, "two dense dim B_k x dim B_k arrays")
    dump = args.dump and args.format == "json"
    lbasis = LoopBasis(StringBasis(wn.top, args.k), wn.mu)
    p = pmpo_P(fd, reps, args.k, lbasis)
    rank = operator_rank(p)
    defect = p.idempotency_defect()
    report = _provenance(args, h) | {
        "command": "pmpo", "k": args.k, "dim": lbasis.dim, "rank": rank,
        "idempotency_residual": _fmt(defect),
    }
    if dump:
        report["basis_legend"] = [list(loop) for loop in lbasis.loops]
        report["matrix"] = p.matrix
    lines = [f"projector operator at k = {args.k} (tol {args.tol:g})",
             f"  loop space dimension  {lbasis.dim}",
             f"  rank                  {rank}",
             f"  idempotency residual  {defect:.3e}"]
    _emit(args, report, lines)
    return 0 if defect < PMPO_IDEMPOTENCY_EPS else 1


def cmd_relcomm(args) -> int:
    conn, h = _load(args)
    ff = flat_fields(conn, args.k, return_basis=args.basis and args.format == "json")
    report = _provenance(args, h) | {
        "command": "relcomm", "k": args.k, "dim": ff.basis.dim,
        "flat_dimension": ff.dimension,
    }
    if ff.vectors is not None:
        check_budget(FORMATTED_ENTRY_BYTES * ff.vectors.size,
                     f"flat basis at k={args.k} on dim B_k = {ff.basis.dim}",
                     "its formatted JSON entries")
        report["basis"] = ff.vectors.T
    lines = [f"flat fields at k = {args.k}",
             f"  string space dimension {ff.basis.dim}",
             f"  flat dimension         {ff.dimension}"]
    _emit(args, report, lines)
    return 0


def cmd_verify_theorem(args) -> int:
    conn, h = _load(args)
    fd, rows = _theorem_rows(conn, args)
    all_pass = all(r["pass"] for r in rows)
    report = _provenance(args, h) | {
        "command": "verify-theorem",
        "w": _fmt(fd.w),
        "labels": list(fd.labels),
        "rows": rows,
        "passed": all_pass,
    }
    lines = [f"rank of the projector vs flat-field dimension (tol {args.tol:g})"]
    for r in rows:
        lines.append(f"  k={r['k']}: rank {r['rank']}  flat {r['flat_dimension']}  "
                     f"(space dim {r['dim']})  {'PASS' if r['pass'] else 'FAIL'}")
    lines.append(f"  overall {'PASS' if all_pass else 'FAIL'}")
    _emit(args, report, lines)
    return 0 if all_pass else 1


def cmd_stats(args) -> int:
    conn, h = _load(args)
    fd, reps, wn = _discover(conn, args)
    per_level = []
    lines = [f"normalized profiles up to n = {args.n} (tol {args.tol:g})"]
    sqw = math.sqrt(fd.w)
    for n in range(1, args.n + 1):
        st = sector_statistics(fd, wn, n)
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
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
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
    except (ConnectionError, GraphError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        # DecompositionError, DepthExceededError, or a flat system without a gap
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
