"""Connections on four-graph squares: values, renormalizations, products, builders.

A connection assigns a complex number to every cell of a square of four
layered graphs.  A cell is a quadruple of composable edges

    left   l: x -> z        top     t: x -> y
    right  r: y -> w        bottom  b: z -> w

with corner vertices x (top-left), y (top-right), z (bottom-left),
w (bottom-right).  Unitarity is a statement about the square matrices
collecting all cell values over a fixed corner pair (x, w); bi-unitarity
additionally requires unitarity after the reflection that exchanges the
roles of horizontal and vertical edges and rescales by weight ratios.
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np

from .graphs import GraphError, LayeredGraph, perron_frobenius, spanning_tree
from .nullspace import DEFAULT_TOL, check_budget

__all__ = [
    "ConnectionError",
    "Cell",
    "Connection",
    "UnitarityReport",
    "BiunitarityReport",
    "SquareReport",
    "check_unitarity",
    "check_biunitarity",
    "validate_square",
    "renormalize",
    "vertical_product",
    "build_dynkin",
    "build_trivial",
    "build_cyclic_group",
    "build_identity",
    "connection_to_document",
    "connection_from_document",
    "write_connection",
    "read_connection",
    "FORMAT_VERSION",
]


class ConnectionError(ValueError):
    """Invalid cell data or incompatible connection operands."""


class Cell(NamedTuple):
    left: str
    top: str
    right: str
    bottom: str


class Connection:
    """A complex-valued cell table on a square of four layered graphs.

    The table is sparse: absent cells have value zero.  Graphs, weights and
    values are immutable by convention.  ``gamma`` (the horizontal and the
    vertical eigenvalue) and ``base`` (a source vertex of the top graph) are
    None for products and summands; renormalizations drop the base.
    """

    def __init__(self, top, left, bottom, right, mu, values,
                 gamma=None, base=None, name=""):
        self.top: LayeredGraph = top
        self.left: LayeredGraph = left
        self.bottom: LayeredGraph = bottom
        self.right: LayeredGraph = right
        self.mu: dict[str, float] = dict(mu)
        if gamma is not None and not (isinstance(gamma, (tuple, list)) and len(gamma) == 2 and all(
                isinstance(g, numbers.Real) and math.isfinite(g) and g > 0 for g in gamma)):
            raise ConnectionError(f"gamma = {gamma!r} is not a pair of positive finite numbers")
        self.gamma = gamma
        self.base = base
        self.name = name

        if set(top.src_vertices) != set(left.src_vertices):
            raise ConnectionError("top and left graphs disagree on the x layer")
        if set(top.rng_vertices) != set(right.src_vertices):
            raise ConnectionError("top and right graphs disagree on the y layer")
        if set(left.rng_vertices) != set(bottom.src_vertices):
            raise ConnectionError("left and bottom graphs disagree on the z layer")
        if set(bottom.rng_vertices) != set(right.rng_vertices):
            raise ConnectionError("bottom and right graphs disagree on the w layer")
        if base is not None and base not in top.src_vertices:
            raise ConnectionError(f"base = {base!r} is not a source vertex of the top graph")
        for v in self.vertex_ids():
            if v not in self.mu:
                raise ConnectionError(f"missing weight for vertex {v!r}")
            if not (math.isfinite(self.mu[v]) and self.mu[v] > 0):
                raise ConnectionError(f"weight mu[{v!r}] = {self.mu[v]} is not positive and finite")

        vals = {}
        for key, v in values.items():
            cell = Cell(*key)
            self._check_cell(cell)
            v = complex(v)
            if not cmath.isfinite(v):
                raise ConnectionError(f"cell {cell}: value {v} is not finite")
            if v != 0:
                vals[cell] = v
        self.values: dict[Cell, complex] = vals
        self._check_dimension_matching()
        self._block_cache: dict[tuple[str, str], np.ndarray] = {}

    # -- structure ---------------------------------------------------------

    def vertex_ids(self):
        out = set()
        for g in (self.top, self.left, self.bottom, self.right):
            out.update(v for v, _ in g.vertices)
        return out

    @property
    def x_vertices(self):
        return self.top.src_vertices

    @property
    def y_vertices(self):
        return self.top.rng_vertices

    @property
    def w_vertices(self):
        return self.bottom.rng_vertices

    @property
    def is_a_type(self) -> bool:
        """True when top and bottom graphs coincide (summand-shaped connection)."""
        return self.top.structurally_equal(self.bottom)

    def _check_cell(self, cell: Cell) -> tuple[str, str, str, str]:
        l, t, r, b = cell
        for g, e, role in ((self.left, l, "left"), (self.top, t, "top"),
                           (self.right, r, "right"), (self.bottom, b, "bottom")):
            if not g.has_edge(e):
                raise ConnectionError(f"{role} edge {e!r} not in the {role} graph")
        x, z = self.left.source(l), self.left.range(l)
        if self.top.source(t) != x:
            raise ConnectionError(f"cell {cell}: left and top edges disagree at x")
        y = self.top.range(t)
        if self.right.source(r) != y:
            raise ConnectionError(f"cell {cell}: top and right edges disagree at y")
        if self.bottom.source(b) != z:
            raise ConnectionError(f"cell {cell}: left and bottom edges disagree at z")
        w = self.bottom.range(b)
        if self.right.range(r) != w:
            raise ConnectionError(f"cell {cell}: right and bottom edges disagree at w")
        return x, y, z, w

    def _check_dimension_matching(self) -> None:
        dl = self.left.adjacency()
        db = self.bottom.adjacency()
        dt = self.top.adjacency()
        dr = self.right.adjacency()
        # rows x, cols w; both counts are the sizes of the unitarity blocks
        via_z = dl @ db
        via_y = dt @ dr
        if via_z.shape != via_y.shape or not np.array_equal(via_z, via_y):
            raise ConnectionError("corner-pair dimension matching fails: "
                                  "left*bottom and top*right path counts differ")

    # -- values ------------------------------------------------------------

    def value(self, cell) -> complex:
        cell = Cell(*cell)
        self._check_cell(cell)
        return self.values.get(cell, 0j)

    def cells(self):
        """Iterate over (cell, value) with nonzero value."""
        return self.values.items()

    def cell_matrix(self, t: str, b: str) -> np.ndarray:
        """Values over a fixed top and bottom edge, rows = right edges, cols = left edges."""
        key = (t, b)
        m = self._block_cache.get(key)
        if m is None:
            x, y = self.top.source(t), self.top.range(t)
            z, w = self.bottom.source(b), self.bottom.range(b)
            lefts = self.left.edges_between(x, z)
            rights = self.right.edges_between(y, w)
            m = np.zeros((len(rights), len(lefts)), dtype=complex)
            for j, l in enumerate(lefts):
                for i, r in enumerate(rights):
                    v = self.values.get(Cell(l, t, r, b))
                    if v is not None:
                        m[i, j] = v
            self._block_cache[key] = m
        return m

    def with_mu(self, mu: dict[str, float]) -> "Connection":
        """Same connection with replaced weights (values are untouched)."""
        return Connection(self.top, self.left, self.bottom, self.right, mu,
                          self.values, gamma=self.gamma, base=self.base, name=self.name)

    def __repr__(self):
        return (f"Connection({self.name!r}, {len(self.values)} cells, "
                f"|x|={len(self.x_vertices)}, |y|={len(self.y_vertices)})")


# -- unitarity ------------------------------------------------------------


@dataclass
class UnitarityReport:
    block_residuals: dict[tuple[str, str], float] = field(default_factory=dict)
    tol: float = DEFAULT_TOL

    @property
    def max_residual(self) -> float:
        return max(self.block_residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


@dataclass
class BiunitarityReport:
    original: UnitarityReport
    primed: UnitarityReport

    @property
    def max_residual(self) -> float:
        return max(self.original.max_residual, self.primed.max_residual)

    @property
    def passed(self) -> bool:
        return self.original.passed and self.primed.passed


@dataclass
class SquareReport:
    residuals: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    messages: list[str] = field(default_factory=list)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def check_unitarity(conn: Connection, tol: float = DEFAULT_TOL) -> UnitarityReport:
    """Unitarity of the corner-pair value matrices.

    For each pair (x, w) the matrix U has rows indexed by composable
    (top, right) edge pairs from x to w and columns by composable
    (left, bottom) pairs; both U U* - 1 and U* U - 1 residuals are recorded
    in max norm; every block is square, as :class:`Connection` checks.
    ValueError is raised first if the largest block exceeds the budget.
    """
    rep = UnitarityReport(tol=tol)
    blocks = {(x, w): [(t, r) for t in conn.top.edges_from(x)
                       for r in conn.right.edges_between(conn.top.range(t), w)]
              for x in conn.x_vertices for w in conn.w_vertices}
    # u, its conjugate, a product, and the real identity and residual: 4 complex n x n
    n = max(map(len, blocks.values()), default=0)
    check_budget(64 * n * n, "connection", f"the unitarity check of its {n} x {n} corner block")
    for (x, w), rows in blocks.items():
        cols = [(l, b) for l in conn.left.edges_from(x)
                for b in conn.bottom.edges_between(conn.left.range(l), w)]
        if not rows:
            continue
        u = np.zeros((len(rows), len(cols)), dtype=complex)
        for i, (t, r) in enumerate(rows):
            for j, (l, b) in enumerate(cols):
                v = conn.values.get(Cell(l, t, r, b))
                if v is not None:
                    u[i, j] = v
        eye = np.eye(len(rows))
        r1 = float(np.max(np.abs(u @ u.conj().T - eye)))
        r2 = float(np.max(np.abs(u.conj().T @ u - eye)))
        rep.block_residuals[(x, w)] = max(r1, r2)
    return rep


def check_biunitarity(conn: Connection, tol: float = DEFAULT_TOL) -> BiunitarityReport:
    """Unitarity of the connection and of its horizontal reflection."""
    return BiunitarityReport(
        original=check_unitarity(conn, tol),
        primed=check_unitarity(renormalize(conn, "prime"), tol),
    )


def _eigen_residuals(g: LayeredGraph, mu: dict[str, float], gamma: float) -> tuple[float, float]:
    a = g.adjacency().astype(float)
    vs = np.array([mu[x] for x in g.src_vertices])
    vr = np.array([mu[y] for y in g.rng_vertices])
    r1 = float(np.max(np.abs(a.T @ vs - gamma * vr))) if len(vr) else 0.0
    r2 = float(np.max(np.abs(a @ vr - gamma * vs))) if len(vs) else 0.0
    return r1, r2


def validate_square(conn: Connection, tol: float = DEFAULT_TOL) -> SquareReport:
    """Connectivity, the eight eigenvalue equations (``gamma[0]`` horizontal,
    ``gamma[1]`` vertical) and ``gamma > 1``; :class:`Connection` checks the
    rest.  Raises unless the connection carries ``gamma``."""
    if conn.gamma is None:
        raise ConnectionError("square validation needs a connection with gamma")
    gamma1, gamma2 = conn.gamma
    rep = SquareReport()
    pairs = [("g", conn.top, gamma1), ("g_prime", conn.bottom, gamma1),
             ("h", conn.left, gamma2), ("h_prime", conn.right, gamma2)]
    for name, graph, gamma in pairs:
        try:
            graph.validate()
            rep.checks[f"{name}_connected"] = True
        except GraphError as err:
            rep.checks[f"{name}_connected"] = False
            rep.messages.append(str(err))
            continue
        r_in, r_out = _eigen_residuals(graph, conn.mu, gamma)
        rep.residuals[f"{name}_into_range"] = r_in
        rep.residuals[f"{name}_into_source"] = r_out
        rep.checks[f"{name}_into_range"] = r_in < tol
        rep.checks[f"{name}_into_source"] = r_out < tol
    rep.checks["gamma1_gt_1"] = gamma1 > 1.0
    rep.checks["gamma2_gt_1"] = gamma2 > 1.0
    return rep


# -- renormalizations -------------------------------------------------------


def _mu_factor(conn: Connection, cell: Cell) -> float:
    x, y, z, w = conn._check_cell(cell)
    mu = conn.mu
    return math.sqrt((mu[x] * mu[w]) / (mu[y] * mu[z]))


# kind -> (new (left, top, right, bottom) as positions of the old ones,
#          which of them are reversed, whether values are rescaled, name suffix)
_RENORMALIZATIONS = {
    "prime": ((2, 1, 0, 3), (False, True, False, True), True, "'"),
    "bar": ((0, 3, 2, 1), (True, False, True, False), True, "~"),
    "bar_prime": ((2, 3, 0, 1), (True, True, True, True), False, "~'"),
}


def renormalize(conn: Connection, kind: str) -> Connection:
    """Reflected or rotated connections on the rewired graph square.

    ``prime``: horizontal reflection; horizontal edges reversed, vertical
    graphs swapped, values conjugated and rescaled by the weight-ratio
    factor.  ``bar``: vertical reflection; vertical edges reversed,
    horizontal graphs swapped, values conjugated with the same factor.
    ``bar_prime``: half-turn; all edges reversed, values kept as they are.
    ``prime`` and ``bar`` are involutive; ``bar_prime`` equals their
    composition up to relabeling.  Each keeps ``gamma``, and drops the base,
    since the new top graph starts on another layer.
    """
    if kind not in _RENORMALIZATIONS:
        raise ValueError(f"unknown renormalization kind {kind!r}")
    perm, reverse, rescale, suffix = _RENORMALIZATIONS[kind]
    old = (conn.left, conn.top, conn.right, conn.bottom)
    left, top, right, bottom = (old[i].reverse() if rev else old[i]
                                for i, rev in zip(perm, reverse))
    moved = itemgetter(*perm)
    values = {}
    for c, v in conn.cells():
        values[Cell(*moved(c))] = _mu_factor(conn, c) * v.conjugate() if rescale else v
    return Connection(top, left, bottom, right, conn.mu, values,
                      gamma=conn.gamma, name=conn.name + suffix)


# -- products ---------------------------------------------------------------


def _composite_vertical(g1: LayeredGraph, g2: LayeredGraph, name: str) -> LayeredGraph:
    """Length-two composites of two vertical graphs, ids joined with '|'."""
    verts = {}
    for v, layer in g1.vertices:
        if g1.layer_of(v) == g1.source_layer:
            verts[v] = layer
    for v, layer in g2.vertices:
        if g2.layer_of(v) == g2.range_layer:
            if v in verts and verts[v] != layer:
                raise ConnectionError(f"vertex {v!r} appears on two layers in a product")
            verts[v] = layer
    edges = []
    for e1, s1, r1 in g1.edges:
        for e2 in g2.edges_from(r1):
            edges.append((f"{e1}|{e2}", s1, g2.range(e2)))
    return LayeredGraph(name, verts.items(), edges, g1.source_layer, g2.range_layer)


def _glue(first: Connection, second: Connection, first_side: str, second_side: str,
          key) -> dict[Cell, complex]:
    """Cell values of a product: ``v1 * v2`` summed over the cell pairs whose
    ``first_side`` and ``second_side`` edges are the shared middle edge,
    into the cell ``key(c1, c2)``."""
    shared = attrgetter(second_side)
    by_edge: dict[str, list[tuple[Cell, complex]]] = {}
    for c2, v2 in second.cells():
        by_edge.setdefault(shared(c2), []).append((c2, v2))
    shared = attrgetter(first_side)
    values: dict[Cell, complex] = {}
    for c1, v1 in first.cells():
        for c2, v2 in by_edge.get(shared(c1), ()):
            k = key(c1, c2)
            values[k] = values.get(k, 0j) + v1 * v2
    return values


def vertical_product(top: Connection, bottom: Connection) -> Connection:
    """Stack two connections; vertical edges compose and the shared horizontal edge is summed."""
    if not top.bottom.structurally_equal(bottom.top):
        raise ConnectionError("vertical product needs top.bottom == bottom.top")
    left = _composite_vertical(top.left, bottom.left, f"({top.left.name}|{bottom.left.name})")
    right = _composite_vertical(top.right, bottom.right, f"({top.right.name}|{bottom.right.name})")
    values = _glue(top, bottom, "bottom", "top", lambda c1, c2: Cell(
        f"{c1.left}|{c2.left}", c1.top, f"{c1.right}|{c2.right}", c2.bottom))
    return Connection(top.top, left, bottom.bottom, right, bottom.mu | top.mu, values,
                      name=f"({top.name}*{bottom.name})")


# -- builders ---------------------------------------------------------------

def _square(edges, weights):
    """The four graphs of one bipartite graph around a square, and their weights.

    Each edge is ``(id, reversed id, even vertex, odd vertex)``.  G (0 -> 3)
    and H (0 -> 1) run from the even class to the odd one under ``G:id`` and
    ``H:id``; Gp (1 -> 2) and Hp (3 -> 2) run back under the reversed id.
    Vertex ``v`` on layer ``l`` is ``"l:v"`` with weight ``weights[v]``.
    Returns ``(G, H, Gp, Hp, mu)``, in the argument order of
    :class:`Connection`.
    """
    def graph(name: str, sl: int, rl: int, back: bool) -> LayeredGraph:
        ends = [(r, o, u) if back else (e, u, o) for e, r, u, o in edges]
        verts = [(f"{sl}:{s}", sl) for _, s, _ in ends] + [(f"{rl}:{t}", rl) for _, _, t in ends]
        return LayeredGraph(name, verts, [(f"{name}:{i}", f"{sl}:{s}", f"{rl}:{t}")
                                          for i, s, t in ends], sl, rl)

    square = (graph("G", 0, 3, False), graph("H", 0, 1, False),
              graph("Gp", 1, 2, True), graph("Hp", 3, 2, True))
    mu = {v: weights[v.split(":", 1)[1]] for g in square for v, _ in g.vertices}
    return (*square, mu)


def _dynkin_edges(diagram: str) -> tuple[str, list[tuple[str, str]], int]:
    """Name, edges and Coxeter number of an A-D-E diagram named like ``A3`` or ``e_6``."""
    d = diagram.replace("_", "").strip().upper()
    m = re.fullmatch(r"([ADE])([0-9]+)", d)
    if m is None:
        raise ValueError(f"unknown Dynkin diagram {diagram!r}: "
                         f"want a family letter A, D or E followed by a rank")
    family, n = m[1], int(m[2])
    if family == "A":
        if n < 2:
            raise ValueError("A_n needs n >= 2")
        return d, [(str(i), str(i + 1)) for i in range(1, n)], n + 1
    if family == "D":
        if n < 4:
            raise ValueError("D_n needs n >= 4")
        chain = [(str(i), str(i + 1)) for i in range(1, n - 2)]
        return d, chain + [(str(n - 2), str(n - 1)), (str(n - 2), str(n))], 2 * n - 2
    if n not in (6, 7, 8):
        raise ValueError("E_n needs n in {6, 7, 8}")
    chain = [(str(i), str(i + 1)) for i in range(1, n - 1)]
    return d, chain + [("3", str(n))], {6: 12, 7: 18, 8: 30}[n]


def build_dynkin(diagram: str, base: str | None = None) -> Connection:
    """The standard bi-unitary connection on an A-D-E diagram.

    All four graphs are the diagram; the even two-coloring class (the one
    containing vertex "1") provides layers 0 and 2, the odd class layers
    1 and 3.  Cell values are delta(y, z) eps + sqrt(mu_y mu_z / mu_x mu_w)
    delta(x, w) conj(eps) with eps on the unit circle determined by the
    Coxeter number N, and gamma1 = gamma2 = 2 cos(pi / N).
    """
    d, edges, coxeter = _dynkin_edges(diagram)
    color = {"1": 0}    # the parity of the depth from "1", with the diagram on one layer
    for x, y, _ in spanning_tree(LayeredGraph(d, [(v, 0) for e in edges for v in e],
                                              [(f"{a}-{b}", a, b) for a, b in edges], 0, 0),
                                 "1", directed=False):
        color[y] = 1 - color[x]
    even = sorted(v for v, c in color.items() if c == 0)
    base = str(base) if base is not None else even[0]
    if base not in even:
        raise ValueError(f"base vertex {base!r} is not in the even class {even}")
    oriented = [(a, b) if color[a] == 0 else (b, a) for a, b in edges]   # (even, odd)

    # Perron-Frobenius data of the diagram, even side -> odd side
    lam, weights = perron_frobenius(LayeredGraph(
        d, [(u, 0) for u, _ in oriented] + [(o, 1) for _, o in oriented],
        [(f"{u}-{o}", u, o) for u, o in oriented], 0, 1), base=base)
    g, h, g_prime, h_prime, mu = _square(
        [(f"{u}-{o}", f"{o}-{u}", u, o) for u, o in oriented], weights)

    eps = 1j * np.exp(1j * math.pi / (2 * coxeter))
    values = {}
    for t_e, x, y in g.edges:
        for l_e in h.edges_from(x):
            z = h.range(l_e)
            for b_e in g_prime.edges_from(z):
                w = g_prime.range(b_e)
                for r_e in h_prime.edges_between(y, w):
                    # ids are "layer:vertex"; the deltas compare diagram vertices
                    v = 0j
                    if y[2:] == z[2:]:
                        v += eps
                    if x[2:] == w[2:]:
                        v += math.sqrt(mu[y] * mu[z] / (mu[x] * mu[w])) * eps.conjugate()
                    if v != 0:
                        values[(l_e, t_e, r_e, b_e)] = v
    return Connection(g, h, g_prime, h_prime, mu, values,
                      gamma=(lam, lam), base=f"0:{base}", name=d)


def build_trivial(d: int) -> Connection:
    """One vertex per layer, d parallel edges per graph, delta-valued cells."""
    if d < 2:
        raise ValueError("the trivial connection needs d >= 2 (graphs must have more than one edge)")
    values = {}
    for i in range(d):       # top == bottom index
        for j in range(d):   # left == right index
            values[(f"H:{j}", f"G:{i}", f"Hp:{j}", f"Gp:{i}")] = 1.0
    return Connection(*_square([(str(j), str(j), "x", "x") for j in range(d)], {"x": 1.0}),
                      values, gamma=(float(d), float(d)), base="0:x", name=f"trivial{d}")


def build_cyclic_group(n: int) -> Connection:
    """Bicharacter connection of the cyclic group Z/n on the star K_{n,1}.

    Outer vertices carry the group elements on layers 0 and 2, the star
    centers sit on layers 1 and 3, and the cell determined by the pair
    (g, h) has value exp(2 pi i g h / n).  The reflected value matrix is the
    discrete Fourier matrix, so the checker certifies the convention.
    """
    if n < 2:
        raise ValueError("cyclic group connection needs n >= 2")
    values = {}
    for a in range(n):
        for b in range(n):
            values[(f"H:{a}", f"G:{a}", f"Hp:{b}", f"Gp:{b}")] = np.exp(2j * math.pi * a * b / n)
    outer = [str(a) for a in range(n)]
    return Connection(*_square([(a, a, a, "c") for a in outer],
                               dict.fromkeys(outer, 1.0) | {"c": math.sqrt(n)}),
                      values, gamma=(math.sqrt(n), math.sqrt(n)), base="0:0", name=f"Z{n}")


def build_identity(horizontal: LayeredGraph, mu: dict[str, float]) -> Connection:
    """The unit connection over a horizontal graph: one vertical loop per vertex.

    Cells require top == bottom edge and have value one; this is exactly
    bi-unitary and acts as the unit for the vertical product.
    """
    sl, rl = horizontal.source_layer, horizontal.range_layer
    left = LayeredGraph(f"1[{horizontal.name}]L",
                        [(v, sl) for v in horizontal.src_vertices],
                        [(f"1:{v}", v, v) for v in horizontal.src_vertices], sl, sl)
    right = LayeredGraph(f"1[{horizontal.name}]R",
                         [(v, rl) for v in horizontal.rng_vertices],
                         [(f"1:{v}", v, v) for v in horizontal.rng_vertices], rl, rl)
    values = {}
    for e, s, r in horizontal.edges:
        values[(f"1:{s}", e, f"1:{r}", e)] = 1.0
    return Connection(horizontal, left, horizontal, right,
                      {v: mu[v] for v in set(horizontal.src_vertices) | set(horizontal.rng_vertices)},
                      values, name=f"1[{horizontal.name}]")


# -- interchange format ------------------------------------------------------

FORMAT_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def connection_to_document(conn: Connection) -> dict:
    """Serializable document for a connection; decimals carry 17 significant digits."""
    layers = sorted({(v, g.layer_of(v)) for g in (conn.top, conn.left, conn.bottom, conn.right)
                     for v, _ in g.vertices})
    doc = {
        "format": "connection-interchange",
        "version": FORMAT_VERSION,
        "layers": [{"id": v, "layer": layer} for v, layer in layers],
        "graphs": {},
        "mu": {v: _fmt(conn.mu[v]) for v, _ in layers},
        "values": [],
    }
    for role, g in (("top", conn.top), ("left", conn.left),
                    ("bottom", conn.bottom), ("right", conn.right)):
        doc["graphs"][role] = {
            "name": g.name,
            "source_layer": g.source_layer,
            "range_layer": g.range_layer,
            "edges": [{"id": e, "src": s, "dst": r} for e, s, r in g.edges],
        }
    if conn.gamma is not None:
        doc["gamma"] = [_fmt(conn.gamma[0]), _fmt(conn.gamma[1])]
    if conn.base is not None:
        doc["base"] = conn.base
    if conn.name:
        doc["name"] = conn.name
    for cell in sorted(conn.values):
        v = conn.values[cell]
        doc["values"].append({"left": cell.left, "top": cell.top,
                              "right": cell.right, "bottom": cell.bottom,
                              "re": _fmt(v.real), "im": _fmt(v.imag)})
    return doc


def _derive_mu(graphs: dict[str, LayeredGraph], base: str | None) -> dict[str, float]:
    """Glue per-graph Perron-Frobenius vectors into one weight function."""
    mu: dict[str, float] = {}
    for g in (graphs["left"], graphs["top"], graphs["right"], graphs["bottom"]):
        _, w = perron_frobenius(g, base=base if base in {v for v, _ in g.vertices} else None)
        shared = [v for v in w if v in mu]
        scale = mu[shared[0]] / w[shared[0]] if shared else 1.0
        for v, x in w.items():
            mu.setdefault(v, scale * x)
    return mu


def _number(x) -> float:
    """``float(x)``, refusing a boolean: a JSON ``true`` is not the number 1."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not a number")
    return float(x)


def connection_from_document(doc: dict) -> Connection:
    """The connection of an interchange document.

    Raises :class:`ConnectionError`, naming the field, when the document is
    not a JSON object or a field is missing or malformed.
    """
    if not isinstance(doc, dict):
        raise ConnectionError("connection document is not a JSON object")
    if doc.get("format") != "connection-interchange":
        raise ConnectionError("not a connection interchange document")
    if doc.get("version") != FORMAT_VERSION:
        raise ConnectionError(f"unsupported format version {doc.get('version')!r}")
    where = "layers"
    try:
        layer_of = {rec["id"]: rec["layer"] for rec in doc["layers"]}
        graphs = {}
        for role in ("top", "left", "bottom", "right"):
            where = f"graphs.{role}"
            spec = doc["graphs"][role]
            vids = {spec["source_layer"], spec["range_layer"]}
            verts = [(v, l) for v, l in layer_of.items() if l in vids]
            graphs[role] = LayeredGraph(spec.get("name", role), verts,
                                        [(e["id"], e["src"], e["dst"]) for e in spec["edges"]],
                                        spec["source_layer"], spec["range_layer"])
        where = "mu"
        mu = {v: _number(s) for v, s in doc.get("mu", {}).items()}
        where = "values"
        values = {(rec["left"], rec["top"], rec["right"], rec["bottom"]):
                  complex(_number(rec["re"]), _number(rec["im"])) for rec in doc["values"]}
        where = "gamma"
        gamma = None
        if "gamma" in doc:
            if not isinstance(doc["gamma"], list):
                raise TypeError(f"{doc['gamma']!r} is not a list")
            if len(doc["gamma"]) != 2:
                raise IndexError(f"{len(doc['gamma'])} entries, not 2")
            gamma = (_number(doc["gamma"][0]), _number(doc["gamma"][1]))
        where = "name"
        name = doc.get("name", "")
        if not isinstance(name, str):
            raise TypeError(f"{name!r} is not a string")
        where = "base"
        base = doc.get("base")
        if base is not None and not isinstance(base, str):
            raise TypeError(f"{base!r} is not a string")
    except GraphError:
        raise
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as err:
        raise ConnectionError(f"connection document: missing or invalid field {where!r} "
                              f"({type(err).__name__}: {err})") from err
    if not mu:
        # weights are optional in the format: recover them from the graphs
        try:
            mu = _derive_mu(graphs, base)
        except GraphError as err:
            raise ConnectionError(f"document carries no weights and none can be "
                                  f"derived: {err}") from err
    return Connection(graphs["top"], graphs["left"], graphs["bottom"], graphs["right"],
                      mu, values, gamma=gamma, base=base, name=name)


def write_connection(conn: Connection, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(connection_to_document(conn), f, indent=1, sort_keys=True)
        f.write("\n")


def read_connection(path) -> Connection:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as err:
            raise ConnectionError(f"unreadable connection document: {err}") from err
    return connection_from_document(doc)
