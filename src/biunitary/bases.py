"""Loop and string bases over a horizontal graph, and fields of strings.

Strings of length k based at x are pairs of length-k paths from x with a
common endpoint; loops of length 2k based at x are closed alternating paths.
Folding a loop in half gives the bijection between the two bases that the
path-space and string-space operators are conjugate under.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import LayeredGraph
from .ladders import PathSet

__all__ = ["path_vertices", "StringBasis", "LoopBasis", "Field"]


def path_vertices(g: LayeredGraph, path: tuple[str, ...], start: str) -> tuple[str, ...]:
    """Vertex sequence visited by an alternating path."""
    verts = [start]
    for i, e in enumerate(path):
        verts.append(g.range(e) if i % 2 == 0 else g.source(e))
    return tuple(verts)


class StringBasis:
    """All strings of a fixed length, grouped by base vertex.

    Element order: base vertices sorted, then the two path tuples
    lexicographically.  ``p1_idx`` and ``p2_idx`` index into the length-k
    path list of the underlying :class:`PathSet`.
    """

    def __init__(self, g: LayeredGraph, k: int, pathset: PathSet | None = None):
        if k < 1:
            raise ValueError("string length must be >= 1")
        self.graph = g
        self.k = k
        self.pathset = pathset if pathset is not None else PathSet(g, k)
        if self.pathset.max_len < k:
            raise ValueError("path set too short for this basis")
        self.block_paths = self.pathset.block_paths[k]

        p1, p2, xs, vs = [], [], [], []
        self.grids: dict[tuple[str, str], np.ndarray] = {}
        self.block_slices: dict[str, slice] = {}
        pos = 0
        for (x, v), idxs in self.block_paths.items():   # by base, then by end
            n = len(idxs)
            self.grids[(x, v)] = np.arange(pos, pos + n * n).reshape(n, n)
            p1 += np.repeat(idxs, n).tolist()
            p2 += np.tile(idxs, n).tolist()
            xs += [x] * (n * n)
            vs += [v] * (n * n)
            start = self.block_slices[x].start if x in self.block_slices else pos
            pos += n * n
            self.block_slices[x] = slice(start, pos)
        self.p1_idx = np.asarray(p1)
        self.p2_idx = np.asarray(p2)
        self.base = tuple(xs)
        self.end = tuple(vs)
        self.dim = pos
        self.base_vertices = tuple(sorted(self.block_slices))

    def identity_vector(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[self.p1_idx == self.p2_idx] = 1.0
        return v


class LoopBasis:
    """Closed paths of length 2k, index-aligned with the string basis.

    Loop number i is the unfolding of string number i: first leg followed by
    the second leg reversed.  With this alignment the half-folding map is
    the diagonal matrix of ``fold_factor`` = sqrt(mu_start / mu_mid), and
    the loop blocks per base vertex coincide with the string blocks.
    """

    def __init__(self, strings: StringBasis, mu: dict[str, float]):
        self.strings = strings
        paths = strings.pathset.paths[strings.k]
        loops = []
        for s in range(strings.dim):
            first = paths[strings.p1_idx[s]]
            second = paths[strings.p2_idx[s]]
            loops.append(first + tuple(reversed(second)))
        self.loops = tuple(loops)
        self.dim = strings.dim
        self.fold_factor = np.asarray(
            [math.sqrt(mu[x] / mu[v]) for x, v in zip(strings.base, strings.end)])


class Field:
    """An element of the direct sum of matrix algebras indexed by the ``grids``
    of its basis: the string algebras over base vertices for a
    :class:`StringBasis`.  Every operation returns the caller's type."""

    def __init__(self, basis: StringBasis, vec: np.ndarray | None = None):
        self.basis = basis
        self.vec = np.zeros(basis.dim, dtype=complex) if vec is None else np.asarray(vec, dtype=complex)

    def matrices(self) -> dict:
        return {key: self.vec[grid] for key, grid in self.basis.grids.items()}

    @classmethod
    def from_matrices(cls, basis, mats):
        vec = np.zeros(basis.dim, dtype=complex)
        for key, m in mats.items():
            vec[basis.grids[key]] = m
        return cls(basis, vec)

    @classmethod
    def identity(cls, basis: StringBasis) -> "Field":
        return cls(basis, basis.identity_vector())

    def __add__(self, other):
        return type(self)(self.basis, self.vec + other.vec)

    def __sub__(self, other):
        return type(self)(self.basis, self.vec - other.vec)

    def __rmul__(self, scalar):
        return type(self)(self.basis, scalar * self.vec)

    def __matmul__(self, other):
        """Algebra product, blockwise matrix multiplication."""
        theirs = other.matrices()
        return self.from_matrices(self.basis, {key: m @ theirs[key]
                                               for key, m in self.matrices().items()})

    def star(self):
        return self.from_matrices(self.basis, {key: m.conj().T
                                               for key, m in self.matrices().items()})
