"""Matrix product operators on the loop space of a horizontal graph.

Each irreducible summand label a gives an operator O_a^k on the space of
closed paths of length 2k: the ladder of 2k alternating cells with the same
boundary bond at both ends, the returning half read under the mirror
conventions; it is built on the string space and carried to the loops by
the diagonal folding map.  The weighted sum P^k of all labels with
coefficients d_a / w is an idempotent whose rank is the quantity the
flat-field computation reproduces independently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import LoopBasis, StringBasis
from .connection import Connection
from .ladders import LadderEngine, paired_string_operator
from .nullspace import HERMITIAN_EPS, RANK_EPS

__all__ = [
    "MPOOperator",
    "mpo_O",
    "mpo_O_tilde",
    "pmpo_P",
    "pmpo_P_tilde",
    "projector_trace",
    "operator_rank",
]


def _row_blocks(n: int) -> list[slice]:
    """Row slices of an n x n matrix, about 2^20 entries (16 MiB complex) each."""
    step = max(1, (1 << 20) // max(1, n))
    return [slice(i, i + step) for i in range(0, n, step)]


@dataclass
class MPOOperator:
    """A dense operator on a string or loop basis."""

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def idempotency_defect(self) -> float:
        """Max-norm of P P - P: exact up to dimension 3000 (over row blocks),
        above that the worst of 16 normalized random probes (fixed seed)."""
        n, p = self.dim, self.matrix
        if n <= 3000:
            return max(float(np.max(np.abs(p[rows] @ p - p[rows]))) for rows in _row_blocks(n))
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(16):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            w = p @ v
            worst = max(worst, float(np.max(np.abs(p @ w - w))))
        return worst


def mpo_O_tilde(a_conn: Connection, k: int, basis: StringBasis) -> MPOOperator:
    """The string-side summand operator on B_k: the half ladder paired with
    itself, the shared boundary bond summed."""
    ladder = LadderEngine(a_conn).half_ladder(basis.pathset, k)
    return MPOOperator(paired_string_operator(ladder.pairs(), basis))


def _fold(op: MPOOperator, basis: LoopBasis) -> MPOOperator:
    """Carry a string-side operator to the loops, in place: f^-1 M f."""
    f = basis.fold_factor
    op.matrix *= f[None, :]
    op.matrix /= f[:, None]
    return op


def mpo_O(a_conn: Connection, k: int, basis: LoopBasis) -> MPOOperator:
    """The length-2k operator of one summand connection on the loop space.

    The loop basis is index-aligned with its string basis, and the loop-side
    operator is the string-side one conjugated by the half-folding map: the
    returning half is read mirrored, with the fold-normalization weights.
    """
    return _fold(mpo_O_tilde(a_conn, k, basis.strings), basis)


def pmpo_P_tilde(fd, reps: dict[str, Connection], k: int, basis: StringBasis) -> MPOOperator:
    """The string-side projector sum_a (d_a / w) Õ_a^k, conjugate to P^k
    under the folding map.

    Every summand pairs its ladder with itself, so the whole sum is one
    pairing of the label ladders, each scaled by sqrt(d_a / w).
    """
    pairs = (term for a in fd.labels for term in LadderEngine(reps[a])
             .half_ladder(basis.pathset, k).pairs(np.sqrt(fd.d[a] / fd.w)))
    return MPOOperator(paired_string_operator(pairs, basis))


def pmpo_P(fd, reps: dict[str, Connection], k: int, basis: LoopBasis) -> MPOOperator:
    """The projector sum_a (d_a / w) O_a^k."""
    return _fold(pmpo_P_tilde(fd, reps, k, basis.strings), basis)


def projector_trace(fd, reps: dict[str, Connection], k: int) -> float:
    """tr P^k = sum_a (d_a / w) tr O_a^k, without forming any operator.

    The fold is a diagonal similarity, so tr O_a^k = tr Õ_a^k, and the
    diagonal of Õ_a^k pairs the top == bottom half-ladder entries over the
    strings of each (base, end) grid: tr Õ_a^k = sum |S|^2 over the grid
    sums S of :meth:`LadderEngine.diagonal_sweep`.  P^k is a Hermitian
    idempotent, so the trace is its rank.  The result is a float: its
    distance to the nearest integer is the evidence, and at large k (or
    large ranks) float rounding alone breaks integrality, so a caller that
    certifies the rank must refuse a trace that is not integral.
    """
    total = 0.0
    for a in fd.labels:
        sweep = LadderEngine(reps[a]).diagonal_sweep(k)
        total += fd.d[a] / fd.w * sum(float(np.sum(np.abs(s) ** 2)) for s in sweep.values())
    return total


def operator_rank(op) -> int:
    """Number of singular values above RANK_EPS * max(1, sigma_max).

    Exactly diagonal matrices read their singular values off the diagonal
    and square Hermitian ones use their eigenvalues; both shortcuts are
    exact, not approximations.
    """
    a = op.matrix if isinstance(op, MPOOperator) else np.asarray(op)
    d = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(d):
        sigma = np.abs(d)
    elif a.shape[0] == a.shape[1] and _is_hermitian(a):
        sigma = np.abs(np.linalg.eigvalsh(a))
    else:
        sigma = np.linalg.svd(a, compute_uv=False)
    smax = float(np.max(sigma)) if sigma.size else 0.0
    return int(np.count_nonzero(sigma > RANK_EPS * max(1.0, smax)))


def _is_hermitian(a: np.ndarray) -> bool:
    """max |a - a^H| <= HERMITIAN_EPS * max(1, max |a|), over row blocks."""
    blocks = _row_blocks(len(a))
    skew = max(float(np.max(np.abs(a[rows] - a[:, rows].conj().T))) for rows in blocks)
    scale = max(float(np.max(np.abs(a[rows]))) for rows in blocks)
    return skew <= HERMITIAN_EPS * max(1.0, scale)
