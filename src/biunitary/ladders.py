"""Transfer-matrix contraction of connection ladders over alternating paths.

Everything built on a connection with equal top and bottom graphs reduces to
one primitive: the half ladder of k cells whose columns alternate between
the connection itself and its horizontal reflection, anchored on a vertical
edge at the left boundary.  The operators on loop and string spaces are
quadratic assemblies of this tensor, one factor conjugated when the diagram
folds back on itself; only this module reads its blocks.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .connection import Connection, ConnectionError
from .graphs import alternating, count_paths

__all__ = ["PathSet", "LadderEngine", "Ladder", "grid_counts"]


class PathSet:
    """Alternating paths on a horizontal graph, all lengths up to a cap.

    Paths start on the source layer and alternate between the graph and its
    reversal; a path is stored as a tuple of edge ids with the traversal
    direction implied by the position parity.  Lists are sorted by start
    vertex and then lexicographically; ``extensions[j][(e, x)]`` places the
    extensions by e: u -> u' of the paths x -> u among the paths x -> u'.
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
        self.extensions: list[dict[tuple[str, str], np.ndarray]] = [{}]
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
            counts: dict[tuple[str, str], int] = {}
            ext: dict[tuple[str, str], list[int]] = {}
            for p, v in nxt:
                x = self._start_of(p)
                ext.setdefault((p[-1], x), []).append(counts.get((x, v), 0))
                counts[(x, v)] = ext[(p[-1], x)][-1] + 1
            self.extensions.append({key: np.asarray(pos) for key, pos in ext.items()})
            cur = nxt

    def _start_of(self, p: tuple[str, ...]) -> str:
        return self.graph.source(p[0])


def grid_counts(g, k: int) -> dict[tuple[str, str], int]:
    """The grid sizes ``{(x, u): |P(x -> u)|}`` at length k, listing no path."""
    return {(x, u): n for x in sorted(set(g.src_vertices))
            for u, n in sorted(count_paths(alternating(g, 2), x, k).items())}


class Ladder:
    """The half ladder ``L[a, b, p, q]`` as its nonzero blocks: a the anchor
    x -> y (a left vertical edge), b the bond u -> v after k columns, p the
    top path x -> u and q the bottom path y -> v.  ``blocks[((x, u), (y, v))]``,
    keyed by the string basis's (column grid, row grid), has shape (anchors,
    bonds, |P(x -> u)|, |P(y -> v)|), in graph order and path-set order."""

    def __init__(self, blocks: dict, anchors):
        self.blocks = blocks
        self.anchors = anchors      # the left vertical graph

    @property
    def nbytes(self) -> int:
        return sum(blk.nbytes for blk in self.blocks.values())

    def pairs(self, scale: float = 1.0):
        """``(key, s, s)`` per block, s scaled with every (anchor, bond) pair
        on its stack axis: the terms of scale^2 times the summand operator."""
        for key, blk in self.blocks.items():
            s = scale * blk.reshape(-1, *blk.shape[2:])
            yield key, s, s

    def pinned_pairs(self, zeta1: str, zeta2: str):
        """``(key, s1, s2)`` with the bonds of anchor zeta1 and of anchor
        zeta2 (same endpoints): the terms of the pinned transport."""
        x, y = self.anchors.source(zeta1), self.anchors.range(zeta1)
        i1, i2 = (self.anchors.edges_between(x, y).index(z) for z in (zeta1, zeta2))
        for key, blk in self.blocks.items():
            if key[0][0] == x and key[1][0] == y:
                yield key, blk[i1], blk[i2]

    def pinned_defect(self, counts: dict[tuple[str, str], int]) -> tuple[float, float]:
        """Squared Frobenius norms of the pinned transports minus delta times
        the identity, and of the transports alone, summed over anchor pairs
        with equal endpoints on the unrestricted path-pair space, given the
        grid sizes of the length-k paths.  Bond Grams are block diagonal over
        the bond endpoints, so both sums run per block; on delta-valued
        connections the entries are small integers, so they are exact."""
        scale = trace = 0.0
        for (top, bottom), blk in self.blocks.items():
            f = blk.reshape(*blk.shape[:2], -1)
            gram = (np.conj(f) @ f.transpose(0, 2, 1)).reshape(len(f), -1)
            scale += float(np.sum(np.real(gram @ np.conj(gram).T)))
            if top == bottom:
                tr = np.einsum("abpp->ab", blk)
                trace += float(np.vdot(tr, tr).real)
        # against the identity on the paths from the anchor's range y
        n_y = [sum(n for (x, _), n in counts.items() if x == y) for _, _, y in self.anchors.edges]
        return scale + (float(sum(n * n for n in n_y)) - 2.0 * trace), scale


class LadderEngine:
    """Half-ladder contraction for one top == bottom connection."""

    def __init__(self, conn: Connection):
        if not conn.is_a_type:
            raise ConnectionError("ladders need a connection with top == bottom graph")
        self.conn = conn
        g, mu = conn.top, conn.mu
        self._rev = g.reverse()
        # column blocks (bonds out, bonds in) per (top, bottom) edge: the cell
        # block, and on even columns the reflected cell, entered on a right
        # edge and left on a left edge, conjugated, times its weight ratio;
        # an all-zero block (or one without bonds) moves nothing and is left out
        self._odd = {(t, b): m for t, _, _ in g.edges for b, _, _ in g.edges
                     if (m := conn.cell_matrix(t, b)).any()}
        self._even = {(t, b): math.sqrt((mu[g.source(t)] * mu[g.range(b)])
                                        / (mu[g.range(t)] * mu[g.source(b)])) * m.conj().T
                      for (t, b), m in self._odd.items()}

    def block_entries(self, counts: dict[tuple[str, str], int], k: int) -> int:
        """Entries of the length-k half ladder's blocks, from its grid sizes
        alone: an upper bound, since a grid pair may be out of reach."""
        left = self.conn.left
        bonds = self.conn.right if k % 2 == 1 else left
        return sum(len(left.edges_between(x, y)) * len(bonds.edges_between(u, v)) * np_ * nq
                   for (x, u), np_ in counts.items() for (y, v), nq in counts.items())

    def half_ladder(self, pathset: PathSet, k: int) -> Ladder:
        """Contract k alternating columns with fixed boundary bonds: each
        column moves every block along a top edge t and a bottom edge b
        through the column block of (t, b) into the extended grids."""
        left = self.conn.left
        state = {((x, x), (y, y)): np.eye(n, dtype=complex).reshape(n, n, 1, 1)
                 for (x, y), n in sorted(Counter((s, r) for _, s, r in left.edges).items())}
        for j in range(1, k + 1):
            trav, cols = (self.conn.top, self._odd) if j % 2 == 1 else (self._rev, self._even)
            ext, counts = pathset.extensions[j], grid_counts(pathset.graph, j)
            new: dict = {}
            for ((x, u), (y, v)), blk in state.items():
                na, nb, np_, nq = blk.shape
                flat = blk.reshape(na, nb, np_ * nq)
                for t in trav.edges_from(u):
                    for b in trav.edges_from(v):
                        if (m := cols.get((t, b))) is None:
                            continue
                        key = ((x, trav.range(t)), (y, trav.range(b)))
                        if key not in new:
                            new[key] = np.zeros((na, len(m), counts[key[0]], counts[key[1]]),
                                                dtype=complex)
                        new[key][:, :, ext[(t, x)][:, None], ext[(b, y)]] += (
                            (m @ flat).reshape(na, len(m), np_, nq))
            state = new
        return Ladder(state, left)

    def diagonal_sweep(self, k: int) -> dict[tuple[str, str], np.ndarray]:
        """Grid sums of the half ladder's top == bottom entries.

        Returns ``{(x, v): S}`` with ``S[a, b] = sum_p L[a, b, p, p]`` over
        the paths p of length k from x to v, a over the loop anchors x -> x
        and b over the bonds v -> v, in graph order.  Equal paths only meet
        the diagonal column blocks (t, t), so the sweep runs over
        (bond x vertex) alone: its cost does not depend on the path count.
        """
        left = self.conn.left
        state = {(x, x): np.eye(len(left.edges_between(x, x)), dtype=complex)
                 for x in sorted({s for _, s, r in left.edges if s == r})}
        for j in range(1, k + 1):
            trav, cols = (self.conn.top, self._odd) if j % 2 == 1 else (self._rev, self._even)
            new: dict[tuple[str, str], np.ndarray] = {}
            for (x, u), s in state.items():
                for t in trav.edges_from(u):
                    if (m := cols.get((t, t))) is None:
                        continue
                    key, contrib = (x, trav.range(t)), s @ m.T
                    new[key] = new[key] + contrib if key in new else contrib
            state = new
        return state


def paired_string_operator(pairs, basis, col_vertex: str | None = None,
                           row_vertex: str | None = None) -> np.ndarray:
    """Quadratic assembly of paired ladder stacks on a string basis.

    ``pairs`` yields ``(((x, u), (y, v)), u1, u2)`` as :class:`Ladder` hands
    them out: two stacks of shape ``(m, |P(x -> u)|, |P(y -> v)|)``.  The
    result sums over the stack axis,

        M[(q1, q2), (p1, p2)] = sum_s u1[s, p1, q1] * conj(u2[s, p2, q2])

    with rows running over strings based at ``row_vertex`` and columns over
    strings based at ``col_vertex`` (all base vertices when omitted).  Each
    pair is one matrix product over the stack axis.
    """
    rows = slice(0, basis.dim) if row_vertex is None else basis.block_slices[row_vertex]
    cols = slice(0, basis.dim) if col_vertex is None else basis.block_slices[col_vertex]
    out = np.zeros((rows.stop - rows.start, cols.stop - cols.start), dtype=complex)
    for (ki, ko), u1, u2 in pairs:
        if col_vertex not in (None, ki[0]) or row_vertex not in (None, ko[0]):
            continue
        m, np_, nq = u1.shape
        r0 = int(basis.grids[ko].flat[0]) - rows.start
        c0 = int(basis.grids[ki].flat[0]) - cols.start
        # (q1, p1, s) @ (s, q2, p2): the stack axis is the inner dimension
        prod = (u1.transpose(2, 1, 0).reshape(nq * np_, m)
                @ np.conj(u2).transpose(0, 2, 1).reshape(m, nq * np_))
        # splitting both axes of an output block keeps it a view
        dst = out[r0:r0 + nq * nq, c0:c0 + np_ * np_].reshape(nq, nq, np_, np_)
        dst += prod.reshape(nq, np_, nq, np_).transpose(0, 2, 1, 3)
    return out
