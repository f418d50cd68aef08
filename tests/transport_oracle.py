"""Dense pinned transports, kept as oracles for the Kraus-form flat solve.

The flat solve once formed every pinned transport ``T_{z1 z2}`` as a dense
``dim B_k(y) x dim B_k(x)`` matrix by pairing two anchors' bonds of the half
ladder.  The library now applies the transports to per-grid stacks of fields
(``Ladder.add_pinned_transport``); these are the dense forms, for comparison.
The library's flat solve then took the unit strings of its root block as
unknowns and summed a complex Gram over every ordered anchor pair;
``complex_flat_gram`` keeps that form.
"""

from __future__ import annotations

import numpy as np

from biunitary import ConnectionError, LadderEngine, StringBasis
from biunitary.strings import _constraint_blocks, _reach_tree


def pinned_pairs(ladder, zeta1: str, zeta2: str):
    """``(key, s1, s2)`` with the bonds of anchor zeta1 and of anchor zeta2
    (same endpoints): the terms of the pinned transport."""
    x, y = ladder.anchors.source(zeta1), ladder.anchors.range(zeta1)
    i1, i2 = (ladder.anchors.edges_between(x, y).index(z) for z in (zeta1, zeta2))
    for key, blk in ladder.blocks.items():
        if key[0][0] == x and key[1][0] == y:
            yield key, blk[i1], blk[i2]


def paired_vertex_operator(pairs, basis, col_vertex: str | None = None,
                           row_vertex: str | None = None) -> np.ndarray:
    """``paired_string_operator`` restricted to the strings based at
    ``row_vertex`` (rows) and ``col_vertex`` (columns), all when omitted."""
    rows = slice(0, basis.dim) if row_vertex is None else basis.block_slices[row_vertex]
    cols = slice(0, basis.dim) if col_vertex is None else basis.block_slices[col_vertex]
    out = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=complex)
    for (ki, ko), u1, u2 in pairs:
        if col_vertex not in (None, ki[0]) or row_vertex not in (None, ko[0]):
            continue
        m, np_, nq = u1.shape
        r0 = int(basis.grids[ko].flat[0]) - rows.start
        c0 = int(basis.grids[ki].flat[0]) - cols.start
        prod = (u1.transpose(2, 1, 0).reshape(nq * np_, m)
                @ np.conj(u2).transpose(0, 2, 1).reshape(m, nq * np_))
        dst = out[r0:r0 + nq * nq, c0:c0 + np_ * np_].reshape(nq, nq, np_, np_)
        dst += prod.reshape(nq, np_, nq, np_).transpose(0, 2, 1, 3)
    return out


def transport_T(ladder, zeta1: str, zeta2: str, basis) -> np.ndarray:
    """The two-boundary ladder operator with bonds zeta1 and zeta2 pinned, as
    the dense (dim B_k(y), dim B_k(x)) matrix from strings at x to strings
    at y.  Summing the diagonal over the bonds of one endpoint pair recovers
    the string-side summand operator block."""
    left = ladder.anchors
    if left.source(zeta1) != left.source(zeta2) or left.range(zeta1) != left.range(zeta2):
        raise ConnectionError("boundary edges must share both endpoints")
    return paired_vertex_operator(pinned_pairs(ladder, zeta1, zeta2), basis,
                                  col_vertex=left.source(zeta1), row_vertex=left.range(zeta1))


def stacks_of(basis, x: str, fields: np.ndarray) -> dict:
    """Per-grid stacks ``{(x, u): (n, P, P)}`` of n fields at x, given as the
    rows of an (n, dim B_k(x)) array."""
    start = basis.block_slices[x].start
    return {key: fields[:, grid.ravel() - start].reshape(len(fields), *grid.shape)
            for key, grid in basis.grids.items() if key[0] == x}


def complex_flat_gram(w_conn, k: int) -> np.ndarray:
    """The flat solve's Gram on the unit strings of its root block, summed as
    ``conj(c) c^T`` over every ordered anchor pair (z1, z2) and whole row
    grids, none left out; a tree edge's own pair, exactly zero, is skipped."""
    basis = StringBasis(w_conn.top, k)
    lad = LadderEngine(_constraint_blocks(w_conn)).half_ladder(basis.pathset, k)
    rows: dict[str, list] = {}
    for key in basis.grids:
        rows.setdefault(key[0], []).append(key)
    dims = {x: sum(basis.grids[key].size for key in keys) for x, keys in rows.items()}
    root = min(dims, key=lambda x: (dims[x], x))
    n0 = dims[root]
    reach = stacks_of(basis, root, np.eye(n0, dtype=complex))
    tree = _reach_tree(lad.anchors, root, basis.base_vertices)
    for _, y, zeta in tree:
        for row in rows[y]:
            q = len(basis.grids[row])
            reach[row] = lad.add_pinned_transport(zeta, zeta, reach, row, slice(None),
                                                  np.zeros((n0, q, q), dtype=complex))
    tree_edges = {zeta for _, _, zeta in tree}
    gram = np.zeros((n0, n0), dtype=complex)
    for x, y in sorted({(s, r) for _, s, r in lad.anchors.edges}):
        edges = lad.anchors.edges_between(x, y)
        for z1 in edges:
            for z2 in edges:
                if z1 == z2 and z1 in tree_edges:
                    continue
                for row in rows[y]:
                    r = reach[row]
                    c = lad.add_pinned_transport(z1, z2, reach, row, slice(None),
                                                 -r if z1 == z2 else np.zeros_like(r))
                    c = c.reshape(n0, -1)
                    gram += np.conj(c) @ c.T
    return gram
