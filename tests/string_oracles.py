"""Loop implementations of string-algebra operations, kept as oracles.

The per-vertex trace reads the diagonal of one base-vertex block.  The
two-level string elements once multiplied, took adjoints and traced
pair by pair over ``Bratteli2.pairs``, and the Temperley-Lieb span was
found by re-ranking the whole trial set every round.  The library now uses
the blockwise ``Field`` algebra and one growing st-2 orthonormal list; these
are the old forms, for comparison.
"""

from __future__ import annotations

import numpy as np

from biunitary import Field, TraceData, jones_projection
from biunitary.nullspace import ST2_RANK_EPS


def trace_at(basis, mu, gamma1: float, x: str, field) -> complex:
    """The trace of the string algebra at base vertex x: the matrix units
    (p, p) weighed gamma1^{-k} mu_end / mu_x."""
    return complex(sum(np.trace(field.vec[grid]) * gamma1 ** (-basis.k) * mu[v] / mu[x]
                       for (b, v), grid in basis.grids.items() if b == x))


def pair_product(d, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Coefficients of ``a @ b``: e_(p,q) e_(q,r) = e_(p,r), summed pair by pair."""
    out = np.zeros(d.dim, dtype=complex)
    by_first: dict[tuple, list[int]] = {}
    for i, (p, q) in enumerate(d.pairs):
        by_first.setdefault(p, []).append(i)
    for i, (p, q) in enumerate(d.pairs):
        for j in by_first.get(q, ()):
            out[d.pair_index[(p, d.pairs[j][1])]] += a[i] * b[j]
    return out


def pair_star(d, a: np.ndarray) -> np.ndarray:
    """Coefficients of the adjoint: e_(p,q)* = e_(q,p), conjugated."""
    out = np.zeros(d.dim, dtype=complex)
    for i, (p, q) in enumerate(d.pairs):
        out[d.pair_index[(q, p)]] = np.conj(a[i])
    return out


def pair_trace(d, a: np.ndarray, weights: dict[str, float]) -> complex:
    """Sum of the diagonal units' coefficients times their terminal weight."""
    return complex(sum(a[i] * weights[d.terminal[p]]
                       for i, (p, q) in enumerate(d.pairs) if p == q))


def _st2_rank(vecs: list[np.ndarray], gram: np.ndarray) -> int:
    m = np.array(vecs)
    ev = np.linalg.eigvalsh((m.conj() * gram[None, :]) @ m.T)
    top = float(ev[-1]) if len(ev) else 0.0
    return int(np.count_nonzero(ev > ST2_RANK_EPS * max(1.0, top)))


def _prune(vs, gram: np.ndarray, target: int):
    kept, m = [], []
    for v in vs:
        m.append(v.vec)
        if _st2_rank(m, gram) == len(m):
            kept.append(v)
        else:
            m.pop()
        if len(kept) == target:
            break
    return kept


def ranked_span_dimension(g, mu, gamma1: float, w: float, k: int, basis) -> int:
    """The Temperley-Lieb span by re-ranking span and products every round."""
    tr = TraceData(basis, mu, gamma1, w)
    gens = [Field.identity(basis)]
    gens += [jones_projection(g, mu, gamma1, i, k, basis) for i in range(1, k)]
    span = list(gens)
    rank = _st2_rank([v.vec for v in span], tr.gram)
    while True:
        trial = span + [a @ b for a in span for b in gens[1:]]
        r2 = _st2_rank([v.vec for v in trial], tr.gram)
        if r2 == rank:
            return rank
        span = _prune(trial, tr.gram, r2)
        rank = r2
