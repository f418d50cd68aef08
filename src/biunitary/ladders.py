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
from .graphs import count_paths

__all__ = ["PathSet", "LadderEngine", "Ladder", "grid_counts"]


class PathSet:
    """Alternating paths on a horizontal graph, all lengths up to a cap.

    Paths start on the source layer and alternate between the graph and its
    reversal; a path is stored as a tuple of edge ids with the traversal
    direction implied by the position parity.  Lists are sorted by start
    vertex and then lexicographically.  ``block_paths[j][(x, u)]`` indexes
    the paths x -> u in ``paths[j]``, keys sorted; ``extensions[j][(e, x)]`` places
    the extensions by e: u -> u' of the paths x -> u among the paths x -> u'.
    """

    def __init__(self, g, max_len: int):
        self.graph = g
        self.max_len = max_len
        rev = g.reverse()
        starts = sorted(set(g.src_vertices))
        cur = [(v, (), v) for v in starts]      # (start, path, end)
        self.paths: list[list[tuple[str, ...]]] = [[p for _, p, _ in cur]]
        self.block_paths: list[dict[tuple[str, str], np.ndarray]] = [
            {(v, v): np.asarray([i]) for i, v in enumerate(starts)}]
        self.extensions: list[dict[tuple[str, str], np.ndarray]] = [{}]
        for j in range(1, max_len + 1):
            traverse = g if j % 2 == 1 else rev
            nxt = []
            for x, p, v in cur:
                for e in traverse.edges_from(v):
                    nxt.append((x, p + (e,), traverse.range(e)))
            nxt.sort()      # by start, then path: no two paths are equal
            self.paths.append([p for _, p, _ in nxt])
            blocks: dict[tuple[str, str], list[int]] = {}
            ext: dict[tuple[str, str], list[int]] = {}
            for i, (x, p, v) in enumerate(nxt):
                idxs = blocks.setdefault((x, v), [])
                ext.setdefault((p[-1], x), []).append(len(idxs))
                idxs.append(i)
            self.block_paths.append({key: np.asarray(idxs) for key, idxs in sorted(blocks.items())})
            self.extensions.append({key: np.asarray(pos) for key, pos in ext.items()})
            cur = nxt


def grid_counts(g, k: int) -> dict[tuple[str, str], int]:
    """The grid sizes ``{(x, u): |P(x -> u)|}`` at length k, listing no path."""
    return {(x, u): n for x in sorted(set(g.src_vertices))
            for u, n in sorted(count_paths(g, x, k).items())}


class Ladder:
    """The half ladder ``L[a, b, p, q]`` as its nonzero blocks: a the anchor
    x -> y (a left vertical edge), b the bond u -> v after k columns, p the
    top path x -> u and q the bottom path y -> v.  ``blocks[((x, u), (y, v))]``,
    keyed by the string basis's (column grid, row grid), has shape (anchors,
    bonds, |P(x -> u)|, |P(y -> v)|), in graph order and path-set order."""

    def __init__(self, blocks: dict, anchors):
        self.blocks = blocks
        self.anchors = anchors      # the left vertical graph
        # the blocks into each row grid from each anchor source x: {(x, row): [(col, blk)]}
        self._into: dict = {}
        for (col, row), blk in blocks.items():
            self._into.setdefault((col[0], row), []).append((col, blk))

    @property
    def nbytes(self) -> int:
        return sum(blk.nbytes for blk in self.blocks.values())

    def pairs(self, scale: float = 1.0):
        """``(key, s)`` per block, s scaled with every (anchor, bond) pair on
        its stack axis: the terms of scale^2 times the summand operator."""
        for key, blk in self.blocks.items():
            yield key, scale * blk.reshape(-1, *blk.shape[2:])

    def add_pinned_transport(self, zeta1: str, zeta2: str, stacks: dict, row, cols: slice,
                             out: np.ndarray) -> np.ndarray:
        """Add columns ``cols`` of row grid ``row`` of the transport pinned on
        anchors zeta1 and zeta2 (both x -> y) to ``out``, and return it.

        ``stacks[(x, u)]`` holds n fields on the grid (x, u) as (n, P, P),
        and ``out`` is (n, Q, |cols|) on ``row`` = (y, v).  The transport acts
        in Kraus form, ``F -> sum_b L[zeta1, b]^T F conj(L[zeta2, b])`` over
        the bonds b of each block into ``row``, batched into one product a
        side; a product holds at most the larger of ``out`` and one field's.
        """
        left = self.anchors
        x, y = left.source(zeta1), left.range(zeta1)
        if left.source(zeta2) != x or left.range(zeta2) != y:
            raise ConnectionError("boundary edges must share both endpoints")
        i1, i2 = (left.edges_between(x, y).index(z) for z in (zeta1, zeta2))
        n, c = len(out), out.shape[2]
        for col, blk in self._into.get((x, row), ()):
            _, nb, p, q = blk.shape
            lt = blk[i1].reshape(nb * p, q)
            rt = np.conj(blk[i2][:, :, cols]).transpose(1, 0, 2).reshape(p, nb * c)
            # fields in chunks whose products are no larger than ``out``
            step = max(1, n * q // (nb * p))
            for a in range(0, n, step):
                m = min(step, n - a)
                # (m, p1, b, q2) -> (m, q2, b, p1): the bonds and p1 are summed next
                t = (stacks[col][a:a + m].reshape(m * p, p) @ rt).reshape(m, p, nb, c)
                t = t.transpose(0, 3, 2, 1).reshape(m * c, nb * p)
                out[a:a + m] += (t @ lt).reshape(m, c, q).transpose(0, 2, 1)
        return out

    def pinned_defect(self, counts: dict[tuple[str, str], int]) -> float:
        """Squared Frobenius norm of the pinned transports minus delta times
        the identity, summed over anchor pairs with equal endpoints on
        ``B_k``, given the grid sizes of the length-k paths: the transports
        vanish on the path pairs with different ends.  Bond Grams are block
        diagonal over the bond endpoints, so the sum runs per block; on
        delta-valued connections the entries are small integers, so it is exact."""
        scale = trace = 0.0
        for (top, bottom), blk in self.blocks.items():
            f = blk.reshape(*blk.shape[:2], -1)
            gram = sum(np.conj(fa) @ fa.T for fa in f)      # per anchor: f is not copied
            scale += float(np.vdot(gram, gram).real)
            if top == bottom:
                tr = np.einsum("abpp->ab", blk)
                trace += float(np.vdot(tr, tr).real)
        # against the identity on B_k(y), the path pairs from the anchor's range y with equal ends
        dim_b = [sum(n * n for (x, _), n in counts.items() if x == y) for _, _, y in self.anchors.edges]
        return scale + (float(sum(dim_b)) - 2.0 * trace)


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

    def product_entries(self, counts: dict[tuple[str, str], int], k: int) -> int:
        """Entries of the largest column product ``m @ flat`` of sweep step k,
        from the grid sizes at k - 1 alone: an upper bound."""
        left = self.conn.left
        bonds = Counter((s, r) for _, s, r in (self.conn.right if k % 2 == 1 else left).edges)
        return max(bonds.values()) * max(len(left.edges_between(x, y)) * np_ * nq
                                         for (x, _), np_ in counts.items()
                                         for (y, _), nq in counts.items())

    def half_ladder(self, pathset: PathSet, k: int) -> Ladder:
        """Contract k alternating columns with fixed boundary bonds: each
        column moves every block along a top edge t and a bottom edge b
        through the column block of (t, b) into the extended grids."""
        left = self.conn.left
        state = {((x, x), (y, y)): np.eye(n, dtype=complex).reshape(n, n, 1, 1)
                 for (x, y), n in sorted(Counter((s, r) for _, s, r in left.edges).items())}
        for j in range(1, k + 1):
            trav, cols = (self.conn.top, self._odd) if j % 2 == 1 else (self._rev, self._even)
            ext, blocks = pathset.extensions[j], pathset.block_paths[j]
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
                            new[key] = np.zeros((na, len(m), len(blocks[key[0]]),
                                                 len(blocks[key[1]])), dtype=complex)
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


def paired_string_operator(pairs, basis) -> np.ndarray:
    """Quadratic assembly of ladder stacks, each paired with itself, on a
    string basis.

    ``pairs`` yields ``(((x, u), (y, v)), u)`` as :class:`Ladder` hands them
    out: a stack of shape ``(m, |P(x -> u)|, |P(y -> v)|)``.  The result sums
    over the stack axis,

        M[(q1, q2), (p1, p2)] = sum_s u[s, p1, q1] * conj(u[s, p2, q2])

    on the whole string basis.  Each pair is one matrix product over the
    stack axis.
    """
    out = np.zeros((basis.dim, basis.dim), dtype=complex)
    for (ki, ko), u in pairs:
        m, np_, nq = u.shape
        r0 = int(basis.grids[ko].flat[0])
        c0 = int(basis.grids[ki].flat[0])
        # (q1, p1, s) @ (s, q2, p2): the stack axis is the inner dimension
        prod = (u.transpose(2, 1, 0).reshape(nq * np_, m)
                @ np.conj(u).transpose(0, 2, 1).reshape(m, nq * np_))
        # splitting both axes of an output block keeps it a view
        dst = out[r0:r0 + nq * nq, c0:c0 + np_ * np_].reshape(nq, nq, np_, np_)
        dst += prod.reshape(nq, np_, nq, np_).transpose(0, 2, 1, 3)
    return out
