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
from .connection import Connection, renormalize
from .ladders import Ladder, LadderEngine, paired_string_operator
from .nullspace import RANK_EPS

__all__ = [
    "MPOOperator",
    "PhiMap",
    "mpo_O",
    "mpo_O_tilde",
    "pmpo_P",
    "pmpo_P_tilde",
    "projector_trace",
    "operator_rank",
    "shift2",
    "phi_map",
    "four_tensor",
    "ring_contract",
]


@dataclass
class MPOOperator:
    """A dense operator with basis bookkeeping and a provenance tag."""

    matrix: np.ndarray
    basis: object
    tag: str = ""

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def idempotency_defect(self) -> float:
        """Max-norm of P P - P: exact up to dimension 3000, above that the
        worst of 16 normalized random probes (fixed seed)."""
        n = self.dim
        if n <= 3000:
            return float(np.max(np.abs(self.matrix @ self.matrix - self.matrix)))
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(16):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            w = self.matrix @ v
            worst = max(worst, float(np.max(np.abs(self.matrix @ w - w))))
        return worst


def mpo_O_tilde(a_conn: Connection, k: int, basis: StringBasis,
                engine: LadderEngine | None = None,
                ladder: Ladder | None = None) -> MPOOperator:
    """The string-side summand operator on B_k: the half ladder paired with
    itself, the shared boundary bond summed."""
    if ladder is None:
        eng = engine if engine is not None else LadderEngine(a_conn)
        ladder = eng.half_ladder(basis.pathset, k)
    mat = paired_string_operator(ladder.pairs(), basis)
    return MPOOperator(mat, basis, tag=f"Ot[{a_conn.name},k={k}]")


def _fold(op: MPOOperator, basis: LoopBasis, tag: str) -> MPOOperator:
    """Carry a string-side operator to the loops, in place: f^-1 M f."""
    mat = op.matrix
    f = basis.fold_factor
    mat *= f[None, :]
    mat /= f[:, None]
    return MPOOperator(mat, basis, tag=tag)


def mpo_O(a_conn: Connection, k: int, basis: LoopBasis,
          engine: LadderEngine | None = None) -> MPOOperator:
    """The length-2k operator of one summand connection on the loop space.

    The loop basis is index-aligned with its string basis, and the loop-side
    operator is the string-side one conjugated by the half-folding map: the
    returning half is read mirrored, with the fold-normalization weights.
    """
    return _fold(mpo_O_tilde(a_conn, k, basis.strings, engine), basis,
                 f"O[{a_conn.name},k={k}]")


def pmpo_P_tilde(fd, reps: dict[str, Connection], k: int, basis: StringBasis) -> MPOOperator:
    """The string-side projector sum_a (d_a / w) Õ_a^k, conjugate to P^k
    under the folding map.

    Every summand pairs its ladder with itself, so the whole sum is one
    pairing of the label ladders, each scaled by sqrt(d_a / w).
    """
    pairs = (term for a in fd.labels for term in LadderEngine(reps[a])
             .half_ladder(basis.pathset, k).pairs(np.sqrt(fd.d[a] / fd.w)))
    return MPOOperator(paired_string_operator(pairs, basis), basis, tag=f"Pt[k={k}]")


def pmpo_P(fd, reps: dict[str, Connection], k: int, basis: LoopBasis) -> MPOOperator:
    """The projector sum_a (d_a / w) O_a^k."""
    return _fold(pmpo_P_tilde(fd, reps, k, basis.strings), basis, f"P[k={k}]")


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


def operator_rank(op, tol: float = RANK_EPS) -> int:
    """Number of singular values above tol * max(1, sigma_max).

    Exactly diagonal matrices read their singular values off the diagonal
    and Hermitian ones use their eigenvalues; both shortcuts are exact, not
    approximations.
    """
    a = op.matrix if isinstance(op, MPOOperator) else np.asarray(op)
    if a.size == 0:
        return 0
    d = np.diagonal(a)
    if np.count_nonzero(a) == np.count_nonzero(d):
        sigma = np.abs(d)
    elif np.max(np.abs(a - a.conj().T)) <= 1e-13 * max(1.0, float(np.max(np.abs(a)))):
        sigma = np.abs(np.linalg.eigvalsh(a))
    else:
        sigma = np.linalg.svd(a, compute_uv=False)
    smax = float(np.max(sigma)) if sigma.size else 0.0
    return int(np.count_nonzero(sigma > tol * max(1.0, smax)))


def shift2(basis: LoopBasis) -> MPOOperator:
    """Cyclic rotation of every loop by one cell (two edge positions)."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, loop in enumerate(basis.loops):
        shifted = loop[2:] + loop[:2]
        mat[basis.index_of(shifted), i] = 1.0
    return MPOOperator(mat, basis, tag=f"shift2[k={basis.k}]")


@dataclass
class PhiMap:
    """The half-folding isomorphism from loops to strings.

    A loop maps to the string of its two halves, second half reversed, with
    the factor sqrt(mu_start / mu_mid).  The loop basis is index-aligned
    with the string basis, so the map is the diagonal matrix of the fold
    factors; in particular it is invertible.
    """

    loops: LoopBasis
    strings: StringBasis

    def matrix(self) -> np.ndarray:
        return np.diag(self.loops.fold_factor).astype(complex)


def phi_map(basis: LoopBasis) -> PhiMap:
    return PhiMap(basis, basis.strings)


# -- the 4-tensor and its ring, an independent contraction path --------------


def four_tensor(a_conn: Connection) -> dict:
    """The block of a summand connection and its reflection as a 4-tensor.

    Keys are (left bond, (bottom edge pair), right bond, (top edge pair));
    the shared middle vertical edge is summed and the fourth-root weight
    prefactor is attached.  Entries with non-composable edges are simply
    absent (they would be annihilated by any operator built from the tensor).
    """
    primed = renormalize(a_conn, "prime")
    g = a_conn.top
    mu = a_conn.mu
    by_left: dict[str, list] = {}
    for cell, v in primed.cells():
        by_left.setdefault(cell.left, []).append((cell, v))
    out: dict[tuple, complex] = {}
    for c1, v1 in a_conn.cells():
        for c2, v2 in by_left.get(c1.right, ()):  # middle vertical edge
            x = g.source(c1.top)
            y = g.source(c2.top)      # second top edge traversed backwards
            z = g.source(c1.bottom)
            w = g.source(c2.bottom)
            pref = ((mu[x] * mu[w]) / (mu[y] * mu[z])) ** 0.25
            key = (c1.left, (c1.bottom, c2.bottom), c2.right, (c1.top, c2.top))
            out[key] = out.get(key, 0j) + pref * v1 * v2
    return out


def ring_contract(tensor: dict, k: int, basis: LoopBasis) -> np.ndarray:
    """Periodic ring of k copies of a 4-tensor, contracted on the loop basis.

    Brute-force oracle: intended for small k as an independent check of the
    ladder-built operators.
    """
    by_tops: dict[tuple, list] = {}
    for (l, bots, r, tops), v in tensor.items():
        by_tops.setdefault(tops, []).append((l, bots, r, v))
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, loop in enumerate(basis.loops):
        tops = [tuple(loop[2 * j:2 * j + 2]) for j in range(k)]
        # partial[(first bond, current bond)][bottom tuple] = amplitude
        partial = {}
        for l, bots, r, v in by_tops.get(tops[0], ()):
            partial.setdefault((l, r), {})
            d = partial[(l, r)]
            d[bots] = d.get(bots, 0j) + v
        for j in range(1, k):
            nxt: dict[tuple, dict] = {}
            for (l0, r0), amps in partial.items():
                for l, bots, r, v in by_tops.get(tops[j], ()):
                    if l != r0:
                        continue
                    d = nxt.setdefault((l0, r), {})
                    for prev_bots, amp in amps.items():
                        key = prev_bots + bots
                        d[key] = d.get(key, 0j) + amp * v
            partial = nxt
        for (l0, r0), amps in partial.items():
            if l0 != r0:
                continue
            for bots, amp in amps.items():
                try:
                    o = basis.index_of(bots)
                except KeyError:
                    continue
                mat[o, i] += amp
    return mat
