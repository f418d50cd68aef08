"""Conditional expectation onto the relative commutant of a two-level string algebra.

A two-level Bratteli diagram grows from a single initial vertex: first-level
edges end on middle vertices, second-level edges continue to terminal
vertices.  Length-two strings form a multi-matrix algebra C containing the
length-one algebra B; averaging the first leg over all parallel edges into
the same middle vertex is the trace-preserving conditional expectation onto
the relative commutant of B in C, for any faithful trace determined by the
terminal vertex.  Its elements are ``bases.Field`` objects whose blocks are
the matrix algebras of the terminal vertices.
"""

from __future__ import annotations

import numpy as np

from .bases import Field

__all__ = ["Bratteli2", "StringElement2", "conditional_expectation",
           "embed_level_one", "normalized_weights"]


class Bratteli2:
    """Two levels of edges from a single initial vertex, multi-edges allowed."""

    def __init__(self, level1, level2):
        self.level1 = tuple(sorted((str(e), str(v)) for e, v in level1))
        self.level2 = tuple(sorted((str(e), str(v), str(w)) for e, v, w in level2))
        self._mid = {e: v for e, v in self.level1}
        self._dst = {e: w for e, _, w in self.level2}
        mids = {v for _, v in self.level1}
        if any(v not in mids for _, v, _ in self.level2):
            raise ValueError("second-level edge from an unreachable vertex")
        self.k_count = {}
        for _, v in self.level1:
            self.k_count[v] = self.k_count.get(v, 0) + 1

        # basis of pairs of length-2 paths with common terminal vertex
        paths = [(e1, e2) for e1, v in self.level1 for e2, s, _ in self.level2 if s == v]
        paths.sort()
        self.paths = tuple(paths)
        self.terminal = {p: self._dst[p[1]] for p in paths}
        self.pairs = tuple((p, q) for p in paths for q in paths
                           if self.terminal[p] == self.terminal[q])
        self.pair_index = {pq: i for i, pq in enumerate(self.pairs)}
        self.dim = len(self.pairs)
        by_terminal: dict[str, list] = {}
        for p in paths:
            by_terminal.setdefault(self.terminal[p], []).append(p)
        # per terminal vertex: pair_index[(p, q)] over the paths ending there
        self.grids = {w: np.array([[self.pair_index[(p, q)] for q in ps] for p in ps])
                      for w, ps in sorted(by_terminal.items())}

    def mid(self, level1_edge: str) -> str:
        return self._mid[level1_edge]


class StringElement2(Field):
    """An element of the length-two string algebra, as a coefficient vector."""

    def __init__(self, diagram: Bratteli2, vec: np.ndarray):
        super().__init__(diagram, vec)

    @property
    def diagram(self) -> Bratteli2:
        return self.basis

    @classmethod
    def zero(cls, diagram: Bratteli2) -> "StringElement2":
        return cls(diagram, np.zeros(diagram.dim, dtype=complex))

    @classmethod
    def unit(cls, diagram: Bratteli2, p, q, coeff=1.0) -> "StringElement2":
        el = cls.zero(diagram)
        el.vec[diagram.pair_index[(tuple(p), tuple(q))]] = coeff
        return el

    def trace(self, weights: dict[str, float]) -> complex:
        """Trace with weight per terminal vertex on diagonal matrix units."""
        return complex(sum(weights[w] * np.trace(m) for w, m in self.matrices().items()))

    def norm2(self, weights: dict[str, float]) -> float:
        v = (self.star() @ self).trace(weights)
        return float(max(v.real, 0.0)) ** 0.5


def normalized_weights(diagram: Bratteli2, raw: dict[str, float]) -> dict[str, float]:
    """Scale per-terminal-vertex weights so the identity has trace one."""
    total = sum(raw[diagram.terminal[p]] for p in diagram.paths)
    return {v: x / total for v, x in raw.items()}


def conditional_expectation(diagram: Bratteli2, element: StringElement2) -> StringElement2:
    """Average the first legs over parallel edges into the same middle vertex.

    On a matrix unit with equal first legs this spreads the unit uniformly
    over the K parallel first edges; units with different first legs map to
    zero.  The result commutes with the length-one subalgebra and the map
    preserves every terminal-vertex trace.
    """
    d = diagram
    out = StringElement2.zero(d)
    for i, ((e1, f1), (e2, f2)) in enumerate(d.pairs):
        a = element.vec[i]
        if a == 0 or e1 != e2:
            continue
        v = d.mid(e1)
        share = a / d.k_count[v]
        for e, mv in d.level1:
            if mv == v:
                out.vec[d.pair_index[((e, f1), (e, f2))]] += share
    return out


def embed_level_one(diagram: Bratteli2, e1: str, e2: str) -> StringElement2:
    """The image of a length-one matrix unit inside the length-two algebra."""
    if diagram.mid(e1) != diagram.mid(e2):
        raise ValueError("length-one string needs a common middle vertex")
    out = StringElement2.zero(diagram)
    v = diagram.mid(e1)
    for f, s, _ in diagram.level2:
        if s == v:
            out.vec[diagram.pair_index[((e1, f), (e2, f))]] += 1.0
    return out
