"""Transfer-matrix contraction of connection ladders over alternating paths.

Everything built on a connection with equal top and bottom graphs reduces to
one primitive: the half ladder of k cells whose columns alternate between
the connection itself and its horizontal reflection, anchored on a vertical
edge at the left boundary.  The operators on loop and string spaces are
quadratic assemblies of this tensor, one factor conjugated when the diagram
folds back on itself.
"""

from __future__ import annotations

import math

import numpy as np

from .connection import Connection, ConnectionError

__all__ = ["PathSet", "LadderEngine"]


class PathSet:
    """Alternating paths on a horizontal graph, all lengths up to a cap.

    Paths start on the source layer and alternate between the graph and its
    reversal; a path is stored as a tuple of edge ids with the traversal
    direction implied by the position parity.  Lists are sorted by start
    vertex and then lexicographically, and extension tables per column drive
    the ladder sweeps.
    """

    def __init__(self, g, max_len: int):
        self.graph = g
        self.max_len = max_len
        rev = g.reverse()
        starts = sorted(set(g.src_vertices))
        cur = [((), v) for v in starts]
        self.paths: list[list[tuple[str, ...]]] = [[p for p, _ in cur]]
        self.ends: list[list[str]] = [[v for _, v in cur]]
        # length-0 paths are all the empty tuple: key them by start vertex
        self.index: list[dict] = [{v: i for i, (_, v) in enumerate(cur)}]
        self.extensions: list[dict[str, tuple[np.ndarray, np.ndarray]]] = [{}]
        for j in range(1, max_len + 1):
            traverse = g if j % 2 == 1 else rev
            nxt = []
            for p, v in cur:
                for e in sorted(traverse.edges_from(v)):
                    nxt.append((p + (e,), traverse.range(e)))
            nxt.sort(key=lambda pv: (self._start_of(pv[0]), pv[0]))
            self.paths.append([p for p, _ in nxt])
            self.ends.append([v for _, v in nxt])
            self.index.append({p: i for i, (p, _) in enumerate(nxt)})
            ext: dict[str, tuple[list[int], list[int]]] = {}
            for i, (p, _) in enumerate(nxt):
                e = p[-1]
                sel, new = ext.setdefault(e, ([], []))
                parent = self.index[0][g.source(p[0])] if j == 1 else self.index[j - 1][p[:-1]]
                sel.append(parent)
                new.append(i)
            self.extensions.append(
                {e: (np.asarray(s), np.asarray(n)) for e, (s, n) in ext.items()})
            cur = nxt

    def _start_of(self, p: tuple[str, ...]) -> str:
        return self.graph.source(p[0])

    def count(self, length: int) -> int:
        return len(self.paths[length])


class LadderEngine:
    """Half-ladder contraction for one top == bottom connection."""

    def __init__(self, conn: Connection):
        if not conn.is_a_type:
            raise ConnectionError("ladders need a connection with top == bottom graph")
        self.conn = conn
        self.left_edges = [e for e, _, _ in conn.left.edges]
        self.right_edges = [e for e, _, _ in conn.right.edges]
        self.left_index = {e: i for i, e in enumerate(self.left_edges)}
        self.right_index = {e: i for i, e in enumerate(self.right_edges)}
        nl, nr = len(self.left_edges), len(self.right_edges)
        g = conn.top
        mu = conn.mu

        self._odd: dict[tuple[str, str], np.ndarray] = {}
        self._even: dict[tuple[str, str], np.ndarray] = {}
        for cell, v in conn.cells():
            l, t, r, b = cell
            x, y = g.source(t), g.range(t)
            z, w = g.source(b), g.range(b)
            li, ri = self.left_index[l], self.right_index[r]
            m = self._odd.get((t, b))
            if m is None:
                m = self._odd[(t, b)] = np.zeros((nr, nl), dtype=complex)
            m[ri, li] = v
            # reflected column: bond enters on a right edge, leaves on a left
            # edge, and the cell contributes the conjugate with the weight
            # ratio of the reflection
            m2 = self._even.get((t, b))
            if m2 is None:
                m2 = self._even[(t, b)] = np.zeros((nl, nr), dtype=complex)
            m2[li, ri] = math.sqrt((mu[x] * mu[w]) / (mu[y] * mu[z])) * np.conj(v)

    def half_ladder(self, pathset: PathSet, k: int) -> np.ndarray:
        """Contract k alternating columns with fixed boundary bonds.

        Returns ``L[a, b, p, q]``: a is the anchor bond (a left vertical
        edge), b the bond after k columns, p the top path and q the bottom
        path of length k.  ``L[a, b, p, q]`` is nonzero only when the top
        path starts at the source of a and the bottom path at its range.
        """
        nl = len(self.left_edges)
        v0 = pathset.paths[0]
        v0_index = {pathset.ends[0][i]: i for i in range(len(v0))}
        state = np.zeros((nl, nl, len(v0), len(v0)), dtype=complex)
        for a, e in enumerate(self.left_edges):
            x = self.conn.left.source(e)
            y = self.conn.left.range(e)
            state[a, a, v0_index[x], v0_index[y]] = 1.0
        for j in range(1, k + 1):
            odd = j % 2 == 1
            blocks = self._odd if odd else self._even
            n_out = len(self.right_edges) if odd else len(self.left_edges)
            ext = pathset.extensions[j]
            new = np.zeros((nl, n_out, pathset.count(j), pathset.count(j)), dtype=complex)
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


def paired_string_operator(pairs, basis, col_vertex: str | None = None,
                           row_vertex: str | None = None) -> np.ndarray:
    """Quadratic assembly of ladder tensors on a string basis.

    ``pairs`` iterates over (u1, u2) path-indexed matrices (top x bottom);
    the result accumulates, over all of them,

        M[(q1, q2), (p1, p2)] += u1[p1, q1] * conj(u2[p2, q2])

    with rows running over strings based at ``row_vertex`` and columns over
    strings based at ``col_vertex`` (all base vertices when omitted).  The
    sum runs blockwise over the common-endpoint grids, which keeps every
    write contiguous.
    """
    row_keys = [key for key in basis.grids if row_vertex is None or key[0] == row_vertex]
    col_keys = [key for key in basis.grids if col_vertex is None or key[0] == col_vertex]
    row_off = 0 if row_vertex is None else basis.block_slices[row_vertex].start
    col_off = 0 if col_vertex is None else basis.block_slices[col_vertex].start
    n_rows = basis.dim if row_vertex is None else _block_len(basis, row_vertex)
    n_cols = basis.dim if col_vertex is None else _block_len(basis, col_vertex)
    out = np.zeros((n_rows, n_cols), dtype=complex)
    for u1, u2 in pairs:
        if not (np.any(u1) and np.any(u2)):
            continue
        for ko in row_keys:
            qs = basis.block_paths[ko]
            s1 = u1[:, qs]
            s2 = u2[:, qs]
            if not (np.any(s1) and np.any(s2)):
                continue
            go = basis.grids[ko]
            r0 = int(go.flat[0]) - row_off
            nq = len(qs)
            for ki in col_keys:
                ps = basis.block_paths[ki]
                usub1 = s1[ps]
                if not np.any(usub1):
                    continue
                usub2 = s2[ps]
                if not np.any(usub2):
                    continue
                blk = np.einsum("ia,jb->abij", usub1, np.conj(usub2))
                gi = basis.grids[ki]
                c0 = int(gi.flat[0]) - col_off
                np_ = len(ps)
                # splitting both axes of an output block keeps it a view;
                # adding into it avoids a copy of the non-contiguous blk
                dst = out[r0:r0 + nq * nq, c0:c0 + np_ * np_].reshape(nq, nq, np_, np_)
                dst += blk
    return out


def _block_len(basis, x: str) -> int:
    sl = basis.block_slices[x]
    return sl.stop - sl.start
