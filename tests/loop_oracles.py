"""Brute-force loop-space oracles: the rotation and the ring of 4-tensors.

``shift2`` rotates every loop by one cell; ``four_tensor`` and
``ring_contract`` rebuild a summand operator on the loop basis from the
connection's cells directly, without any half ladder, as an independent
contraction path.  All three return plain arrays or dicts and are meant
for small k only.
"""

from __future__ import annotations

import numpy as np

from biunitary import renormalize


def shift2(basis) -> np.ndarray:
    """Cyclic rotation of every loop by one cell (two edge positions)."""
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for i, loop in enumerate(basis.loops):
        shifted = loop[2:] + loop[:2]
        mat[basis.index_of(shifted), i] = 1.0
    return mat


def four_tensor(a_conn) -> dict:
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


def ring_contract(tensor: dict, k: int, basis) -> np.ndarray:
    """Periodic ring of k copies of a 4-tensor, contracted on the loop basis."""
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
