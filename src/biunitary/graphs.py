"""Layered multigraphs, Perron-Frobenius eigendata, and path counting.

A layered graph is a finite multigraph whose edges all run from one vertex
layer to another (possibly the same) layer.  Four such graphs arranged
around a square carry a connection (see :mod:`biunitary.connection`).

Vertex and edge ids are opaque strings; every basis produced downstream is
ordered lexicographically on these ids, so all matrix representations are
reproducible.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = [
    "GraphError",
    "LayeredGraph",
    "perron_frobenius",
    "count_paths",
    "spanning_tree",
]


class GraphError(ValueError):
    """Malformed graph data or a failed eigenvector computation."""


class LayeredGraph:
    """Finite multigraph with oriented edges from a source layer to a range layer.

    Edges are stored oriented; :meth:`reverse` flips every edge while keeping
    edge ids, which models traversing the same unoriented graph backwards.
    Multi-edges are allowed and counted.  Instances are immutable by
    convention: never mutate the stored tuples.
    """

    def __init__(self, name, vertices, edges, source_layer, range_layer):
        self.name = str(name)
        self.source_layer = source_layer
        self.range_layer = range_layer

        vdict = {}
        for v, layer in vertices:
            v = str(v)
            if v in vdict and vdict[v] != layer:
                raise GraphError(f"vertex {v!r} listed with two layers")
            vdict[v] = layer
        self.vertices = tuple(sorted(vdict.items()))
        self._layer = vdict

        es = []
        seen = set()
        for e, s, r in edges:
            e, s, r = str(e), str(s), str(r)
            if e in seen:
                raise GraphError(f"duplicate edge id {e!r}")
            seen.add(e)
            if s not in vdict or r not in vdict:
                raise GraphError(f"edge {e!r} has an unknown endpoint")
            if vdict[s] != source_layer or vdict[r] != range_layer:
                raise GraphError(f"edge {e!r} does not run source layer -> range layer")
            es.append((e, s, r))
        self.edges = tuple(sorted(es))

        self.src_vertices = tuple(v for v, l in self.vertices if l == source_layer)
        self.rng_vertices = tuple(v for v, l in self.vertices if l == range_layer)
        self._src_index = {v: i for i, v in enumerate(self.src_vertices)}
        self._rng_index = {v: i for i, v in enumerate(self.rng_vertices)}
        self._source = {e: s for e, s, r in self.edges}
        self._range = {e: r for e, s, r in self.edges}
        self._from = {}
        self._between = {}
        for e, s, r in self.edges:
            self._from.setdefault(s, []).append(e)
            self._between.setdefault((s, r), []).append(e)

    # -- basic accessors -------------------------------------------------

    @property
    def n_edges(self):
        return len(self.edges)

    def source(self, edge_id: str) -> str:
        return self._source[edge_id]

    def range(self, edge_id: str) -> str:
        return self._range[edge_id]

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._source

    def edges_from(self, v: str) -> tuple[str, ...]:
        return tuple(self._from.get(v, ()))

    def edges_between(self, s: str, r: str) -> tuple[str, ...]:
        return tuple(self._between.get((s, r), ()))

    def layer_of(self, v: str):
        return self._layer[v]

    def adjacency(self) -> np.ndarray:
        """Multiplicity matrix, rows = source vertices, columns = range vertices."""
        a = np.zeros((len(self.src_vertices), len(self.rng_vertices)), dtype=np.int64)
        for e, s, r in self.edges:
            a[self._src_index[s], self._rng_index[r]] += 1
        return a

    def reverse(self) -> "LayeredGraph":
        """The edge-reversed graph; edge ids are preserved."""
        return LayeredGraph(self.name + "~", self.vertices, [(e, r, s) for e, s, r in self.edges],
                            self.range_layer, self.source_layer)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        tree = spanning_tree(self, self.vertices[0][0], directed=False)
        return len(tree) == len(self.vertices) - 1

    def validate(self) -> None:
        """Raise unless the graph is connected with at least two edges."""
        if self.n_edges < 2:
            raise GraphError(f"graph {self.name!r} has {self.n_edges} edges, needs >= 2")
        if not self.is_connected():
            raise GraphError(f"graph {self.name!r} is not connected")

    def structurally_equal(self, other: "LayeredGraph") -> bool:
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.source_layer == other.source_layer
            and self.range_layer == other.range_layer
        )

    def __repr__(self):
        return (
            f"LayeredGraph({self.name!r}, {len(self.vertices)} vertices, "
            f"{self.n_edges} edges, layers {self.source_layer}->{self.range_layer})"
        )


def perron_frobenius(g: LayeredGraph, base: str | None = None) -> tuple[float, dict[str, float]]:
    """Perron-Frobenius eigenvalue and positive two-sided eigenvector of a graph.

    Returns ``(lam, weights)`` with ``sum_x A[x,y] w[x] = lam * w[y]`` and
    ``sum_y A[x,y] w[y] = lam * w[x]``.  The scale is fixed by
    ``weights[base] = 1`` when `base` is a vertex of `g`, otherwise by
    max-entry 1.  One symmetric eigensolve of A A^T, whose top eigenvalue
    ``lam**2`` is simple on a connected graph between two layers; raises on
    empty or disconnected input.
    """
    if not g.vertices or g.n_edges == 0:
        raise GraphError("empty graph")
    if not g.is_connected():
        raise GraphError(f"graph {g.name!r} is disconnected")
    a = g.adjacency().astype(float)
    evals, evecs = np.linalg.eigh(a @ a.T)
    lam = float(np.sqrt(evals[-1]))
    v = np.abs(evecs[:, -1])
    u = (a.T @ v) / lam
    weights = {}
    for x, i in zip(g.src_vertices, range(len(v))):
        weights[x] = float(v[i])
    for y, i in zip(g.rng_vertices, range(len(u))):
        weights[y] = float(u[i])
    if base is not None and base in weights:
        scale = weights[base]
    else:
        scale = max(weights.values())
    weights = {k: w / scale for k, w in weights.items()}
    if min(weights.values()) <= 0:
        raise GraphError("eigenvector not strictly positive")
    return lam, weights


# -- walks ------------------------------------------------------------------


def spanning_tree(g: LayeredGraph, root: str, directed: bool = True) -> list[tuple[str, str, str]]:
    """Breadth-first spanning tree of the vertices of `g` reachable from `root`.

    Returns ``(x, y, edge)`` triples in the order the vertices ``y`` are
    first reached.  The successors of each ``x`` are visited in sorted
    order, each carried by the first edge (in id order) from ``x`` to it.
    Edges run from source to range when `directed`, and both ways otherwise.
    """
    succ: dict[str, dict[str, str]] = {}
    for e, s, r in g.edges:
        succ.setdefault(s, {}).setdefault(r, e)
        if not directed:
            succ.setdefault(r, {}).setdefault(s, e)
    reached, tree, queue = {root}, [], deque([root])
    while queue:
        x = queue.popleft()
        for y, e in sorted(succ.get(x, {}).items()):
            if y not in reached:
                reached.add(y)
                tree.append((x, y, e))
                queue.append(y)
    return tree


def count_paths(g: LayeredGraph, start: str, length: int) -> dict[str, int]:
    """Exact number of back-and-forth paths of `length` steps on `g` from
    `start`, per end vertex: odd steps run along the edges, even steps
    against them."""
    counts = {str(start): 1}
    for i in range(length):
        new: dict[str, int] = {}
        for _, s, r in g.edges:
            if i % 2:
                s, r = r, s
            c = counts.get(s)
            if c:
                new[r] = new.get(r, 0) + c
        counts = new
    return counts
