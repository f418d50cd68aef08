"""The dense half ladder: the sweep the block form replaced, kept as an oracle.

``dense_half_ladder`` is the library's former ``LadderEngine.half_ladder``
with the engine's global tables (edge lists, dense column matrices) and the
path set's global extension tables rebuilt here.  ``dense_slice`` cuts it
at a block key of :class:`biunitary.ladders.Ladder`.
"""

from __future__ import annotations

import math

import numpy as np


def path_ends(pathset, j):
    """The end vertex of each path of length j: at odd lengths the last
    edge is run along the graph and ends at its range, at even lengths
    against it and ends at its source; at length 0 a path ends at its start."""
    g = pathset.graph
    if j == 0:
        return sorted(set(g.src_vertices))
    return [g.range(p[-1]) if j % 2 == 1 else g.source(p[-1]) for p in pathset.paths[j]]


def _global_extensions(pathset, j):
    """Per edge e: the length-(j-1) parents and the length-j children of
    every extension by e, as global indices into the path lists."""
    g = pathset.graph
    # length-0 paths are all the empty tuple: key them by start vertex
    parents = ({v: i for i, v in enumerate(path_ends(pathset, 0))} if j == 1
               else {p: i for i, p in enumerate(pathset.paths[j - 1])})
    ext: dict[str, tuple[list[int], list[int]]] = {}
    for i, p in enumerate(pathset.paths[j]):
        sel, new = ext.setdefault(p[-1], ([], []))
        sel.append(parents[g.source(p[0])] if j == 1 else parents[p[:-1]])
        new.append(i)
    return {e: (np.asarray(s), np.asarray(n)) for e, (s, n) in ext.items()}


def _dense_columns(conn):
    left_index = {e: i for i, (e, _, _) in enumerate(conn.left.edges)}
    right_index = {e: i for i, (e, _, _) in enumerate(conn.right.edges)}
    nl, nr = len(left_index), len(right_index)
    g = conn.top
    mu = conn.mu
    odd: dict[tuple[str, str], np.ndarray] = {}
    even: dict[tuple[str, str], np.ndarray] = {}
    for cell, v in conn.cells():
        l, t, r, b = cell
        x, y = g.source(t), g.range(t)
        z, w = g.source(b), g.range(b)
        li, ri = left_index[l], right_index[r]
        m = odd.get((t, b))
        if m is None:
            m = odd[(t, b)] = np.zeros((nr, nl), dtype=complex)
        m[ri, li] = v
        m2 = even.get((t, b))
        if m2 is None:
            m2 = even[(t, b)] = np.zeros((nl, nr), dtype=complex)
        m2[li, ri] = math.sqrt((mu[x] * mu[w]) / (mu[y] * mu[z])) * np.conj(v)
    return odd, even


def dense_half_ladder(conn, pathset, k):
    """``L[a, b, p, q]`` as one dense (anchors, bonds, P_k, P_k) array.

    a runs over the left edges, b over the right edges (odd k) or the left
    edges (even k), p and q over all paths of length k.
    """
    left_edges = [e for e, _, _ in conn.left.edges]
    right_edges = [e for e, _, _ in conn.right.edges]
    odd_blocks, even_blocks = _dense_columns(conn)
    nl = len(left_edges)
    v0 = pathset.paths[0]
    v0_index = {v: i for i, v in enumerate(path_ends(pathset, 0))}
    state = np.zeros((nl, nl, len(v0), len(v0)), dtype=complex)
    for a, e in enumerate(left_edges):
        x = conn.left.source(e)
        y = conn.left.range(e)
        state[a, a, v0_index[x], v0_index[y]] = 1.0
    for j in range(1, k + 1):
        odd = j % 2 == 1
        blocks = odd_blocks if odd else even_blocks
        n_out = len(right_edges) if odd else len(left_edges)
        ext = _global_extensions(pathset, j)
        n_paths = len(pathset.paths[j])
        new = np.zeros((nl, n_out, n_paths, n_paths), dtype=complex)
        for (t, b), m in blocks.items():
            if t not in ext or b not in ext:
                continue
            psel, pnew = ext[t]
            qsel, qnew = ext[b]
            sub = state[:, :, psel][:, :, :, qsel]
            contrib = np.einsum("cb,abpq->acpq", m, sub)
            new[:, :, pnew[:, None], qnew[None, :]] += contrib
        state = new
    return state


def dense_slice(conn, pathset, k, key):
    """The ``np.ix_`` index of a block key ``((x, u), (y, v))`` into the
    dense ladder: anchors x -> y, bonds u -> v, paths x -> u and y -> v."""
    (x, u), (y, v) = key
    bonds = conn.right if k % 2 == 1 else conn.left
    lefts = [e for e, _, _ in conn.left.edges]
    bond_ids = [e for e, _, _ in bonds.edges]
    starts = [pathset.graph.source(p[0]) for p in pathset.paths[k]]
    ends = path_ends(pathset, k)

    def grid(s, t):
        return [i for i in range(len(ends)) if starts[i] == s and ends[i] == t]

    return np.ix_([lefts.index(e) for e in conn.left.edges_between(x, y)],
                  [bond_ids.index(e) for e in bonds.edges_between(u, v)],
                  grid(x, u), grid(y, v))
