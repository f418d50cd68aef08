"""String algebras over the horizontal graph: traces, transports, flat fields.

The string space B_k is the direct sum over layer-0 vertices of the span of
path pairs with common endpoints.  Boundary-pinned ladder transports act on
it; a field of strings is flat when every transport acts as the identity
with a delta on the boundary bonds.  The dimension of the flat space is
computed here from the original connection alone, independently of the
irreducible decomposition, which is what makes the rank comparison with the
projector operator a genuine two-sided check.
"""

from __future__ import annotations

import math
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bases import Field, StringBasis, path_vertices
from .connection import Connection, ConnectionError, renormalize, vertical_product
from .ladders import Ladder, LadderEngine, PathSet, grid_counts, paired_string_operator
from .nullspace import gram_null_space

# Dense arrays a command may hold at once must fit in half of physical memory
DENSE_BUDGET_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2

__all__ = [
    "TraceData",
    "transport_T",
    "FlatFieldResult",
    "flat_fields",
    "jones_projection",
    "jones_span_dimension",
]


def check_budget(need: int, what: str, purpose: str) -> None:
    """ValueError when ``need`` bytes exceed ``DENSE_BUDGET_BYTES``."""
    if need > DENSE_BUDGET_BYTES:
        raise ValueError(f"{what} needs {need / 2**30:.1f} GiB for {purpose}, above the budget "
                         f"of {DENSE_BUDGET_BYTES / 2**30:.1f} GiB (half of physical memory)")


# -- traces -------------------------------------------------------------------


class TraceData:
    """The normalized trace and the two-norm on the string space.

    Per-vertex traces give matrix units (p, p) the weight
    gamma1^{-k} mu_end / mu_base; the global trace weighs the vertex blocks
    by mu_base^2 / w.  Requires weights normalized so the squared layer-0
    weights sum to w, which makes the identity have trace one.
    """

    def __init__(self, basis: StringBasis, mu: dict[str, float], gamma1: float, w: float):
        self.basis = basis
        self.mu = mu
        self.gamma1 = gamma1
        self.w = w
        s0 = sum(mu[x] ** 2 for x in basis.base_vertices)
        if abs(s0 - w) > 1e-8 * max(1.0, w):
            raise ValueError(f"weights are not normalized: sum mu^2 = {s0:.12g}, w = {w:.12g}")
        k = basis.k
        self.diag_mask = basis.p1_idx == basis.p2_idx
        self.local_weight = np.array(
            [gamma1 ** (-k) * mu[basis.end[i]] / mu[basis.base[i]] for i in range(basis.dim)])
        # the st-2 inner product is diagonal: local weight times mu_base^2 / w
        self.gram = _st2_weights(basis, mu, gamma1 ** (-k), w)

    def trace_at(self, x: str, field: Field) -> complex:
        sl = self.basis.block_slices[x]
        m = self.diag_mask[sl]
        return complex(np.sum(field.vec[sl][m] * self.local_weight[sl][m]))

    def trace(self, field: Field) -> complex:
        return complex(np.sum(field.vec[self.diag_mask] * self.gram[self.diag_mask]))

    def inner(self, a: Field, b: Field) -> complex:
        return complex(np.sum(np.conj(a.vec) * b.vec * self.gram))

    def norm_st2(self, field: Field) -> float:
        return math.sqrt(max(float(np.sum(np.abs(field.vec) ** 2 * self.gram)), 0.0))


# -- transports ---------------------------------------------------------------


def transport_T(ladder: Ladder, zeta1: str, zeta2: str, basis: StringBasis) -> np.ndarray:
    """The two-boundary ladder operator with bonds zeta1 and zeta2 pinned.

    Both bonds must be anchors of the half ladder with the same endpoints
    x -> y; the returning half of the ladder is the mirrored, conjugated copy
    pinned on zeta2, and the far bond is summed.  Returns the
    (dim B_k(y), dim B_k(x)) matrix from strings at x to strings at y.
    Summing the diagonal over the bonds of one endpoint pair recovers the
    string-side summand operator block.
    """
    left = ladder.anchors
    if left.source(zeta1) != left.source(zeta2) or left.range(zeta1) != left.range(zeta2):
        raise ConnectionError("boundary edges must share both endpoints")
    return paired_string_operator(ladder.pinned_pairs(zeta1, zeta2), basis,
                                  col_vertex=left.source(zeta1), row_vertex=left.range(zeta1))


# -- flat fields --------------------------------------------------------------


@dataclass
class FlatFieldResult:
    dimension: int
    basis: StringBasis
    vectors: np.ndarray | None          # (dim B_k, dimension), st-2 orthonormal
    system_scale: float                 # largest singular value of the solved system
    exact: bool                         # all constraints vanished identically

    def fields(self) -> list[Field]:
        if self.vectors is None:
            raise ValueError("basis vectors were not requested")
        return [Field(self.basis, self.vectors[:, j]) for j in range(self.vectors.shape[1])]


def _constraint_blocks(w_conn: Connection):
    """The product connection of a connection with its vertical reflection."""
    return vertical_product(w_conn, renormalize(w_conn, "bar"))


def _vertical_tree(by_pair: dict[tuple[str, str], list[str]], root: str,
                   vertices=()) -> list[tuple[str, str, str]]:
    """Breadth-first spanning tree of a vertical graph, grown from ``root``.

    Returns ``(x, y, edge)`` triples in the order the vertices ``y`` are
    first reached, each carried by the first edge listed for ``(x, y)``.
    Every vertex of the edge map, and every vertex in ``vertices``, must be
    reachable along directed edges; otherwise ConnectionError names the
    unreached ones.
    """
    out: dict[str, list[tuple[str, str]]] = {}
    for (x, y), edges in sorted(by_pair.items()):
        out.setdefault(x, []).append((y, edges[0]))
    reached = {root}
    tree = []
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y, e in out.get(x, ()):
            if y not in reached:
                reached.add(y)
                tree.append((x, y, e))
                queue.append(y)
    missing = sorted({v for pair in by_pair for v in pair}.union(vertices) - reached)
    if missing:
        raise ConnectionError(f"vertical graph does not reach {', '.join(missing)} "
                              f"from base vertex {root}")
    return tree


def flat_fields(w_conn: Connection, k: int, return_basis: bool = True) -> FlatFieldResult:
    """Solve the flatness system of the squared connection on fields of strings.

    The constraints run over all pairs of vertical edges of the product of
    the connection with its vertical reflection: pinned transports must act
    as delta times the identity between the base-vertex blocks.  Using the
    product connection itself, not its irreducible summands, keeps this
    computation independent of the decomposition pipeline.

    A flat field is fixed by its block at one root base vertex ``*`` (the
    one with the smallest block, ties broken by name): along each edge of a
    breadth-first spanning tree of the vertical graph, ``f_y = T f_x`` with
    the diagonal transport of that edge.  Substituting these relations
    leaves a system on ``B_k(*)`` alone, whose Gram matrix sums
    ``C^* C`` with ``C = T_{z1 z2} R_x - delta R_y`` over all edge pairs,
    ``R_x`` being the transport product from ``*`` to ``x``.  The vertical
    graph must therefore reach every base vertex from ``*``; otherwise
    ConnectionError is raised.

    Returns the dimension and, on request, an st-2 orthonormal basis of
    flat fields, rebuilt blockwise as ``R_x v``.  When every constraint
    vanishes identically the whole string space is flat and no system is
    formed.  ValueError is raised before the half ladder, the transports or
    the shortcut's basis would exceed ``DENSE_BUDGET_BYTES``.
    """
    eng, g = LadderEngine(_constraint_blocks(w_conn)), w_conn.top
    counts = grid_counts(g, k)
    what = f"flat solve at k={k} on {sum(counts.values())} paths"
    # the sweep holds two consecutive states, and the last two are the largest
    need = 16 * (eng.block_entries(grid_counts(g, k - 1), k - 1) + eng.block_entries(counts, k))
    check_budget(need, what, "its half ladder")
    pathset = PathSet(g, k)
    lad = eng.half_ladder(pathset, k)
    total, scale = lad.pinned_defect(counts)
    if total <= 1e-20 * max(1.0, scale):
        basis = StringBasis(w_conn.top, k, pathset)
        vecs = None
        if return_basis:
            check_budget(16 * basis.dim ** 2, what, "its basis")
            vecs = np.diag(1.0 / np.sqrt(_st2_gram(basis, w_conn, k))).astype(complex)
        return FlatFieldResult(dimension=basis.dim, basis=basis, vectors=vecs,
                               system_scale=math.sqrt(scale), exact=True)

    by_pair: dict[tuple[str, str], list[str]] = {}
    for e, s, r in lad.anchors.edges:
        by_pair.setdefault((s, r), []).append(e)
    dims: dict[str, int] = {}       # dim B_k(x) per base vertex
    for (x, _), c in counts.items():
        dims[x] = dims.get(x, 0) + c * c
    root = min(dims, key=lambda x: (dims[x], x))
    n0 = dims[root]
    check_budget(16 * (max(dims.get(x, 0) * dims.get(y, 0) for x, y in by_pair)
                       + n0 * sum(dims.values())), what, "its transports and reach matrices")
    basis = StringBasis(w_conn.top, k, pathset)
    slices = basis.block_slices
    reach = {root: np.eye(n0, dtype=complex)}
    tree = _vertical_tree(by_pair, root, basis.base_vertices)
    for x, y, zeta in tree:
        t = transport_T(lad, zeta, zeta, basis)
        reach[y] = t @ reach[x]
    tree_edges = {zeta for _, _, zeta in tree}
    gram = np.zeros((n0, n0), dtype=complex)
    for (x, y), edges in sorted(by_pair.items()):
        for z1 in edges:
            for z2 in edges:
                if z1 == z2 and z1 in tree_edges:
                    continue  # T R_x - R_y is exactly zero: R_y was set to T R_x
                c = transport_T(lad, z1, z2, basis) @ reach[x]
                if z1 == z2:
                    c -= reach[y]
                gram += c.conj().T @ c
    null, evecs, smax = gram_null_space(gram, return_basis, RuntimeError,
                                        "flatness system has no clean spectral gap")
    dim = int(np.count_nonzero(null))
    vecs = None
    if return_basis and dim:
        v0 = evecs[:, null]
        v = np.zeros((basis.dim, dim), dtype=complex)
        for x, r in reach.items():
            v[slices[x]] = r @ v0
        g = _st2_gram(basis, w_conn, k)
        gm = (v.conj().T * g[None, :]) @ v
        ev, eu = np.linalg.eigh(gm)
        vecs = v @ eu @ np.diag(1.0 / np.sqrt(np.clip(ev, 1e-300, None)))
    return FlatFieldResult(dimension=dim, basis=basis, vectors=vecs,
                           system_scale=smax, exact=False)


def _st2_weights(basis: StringBasis, mu: dict[str, float], inv_gamma_k: float,
                 w: float) -> np.ndarray:
    """The diagonal of the st-2 Gram matrix, gamma1^-k mu_end mu_base / w,
    given ``inv_gamma_k = gamma1^-k``."""
    g = np.empty(basis.dim)
    for (x, v), grid in basis.grids.items():
        g[grid] = inv_gamma_k * mu[v] * mu[x] / w
    return g


def _st2_gram(basis: StringBasis, w_conn: Connection, k: int) -> np.ndarray:
    """The st-2 weights of a connection's strings, w from its base weights."""
    mu = w_conn.mu
    if w_conn.gamma is None:
        raise ConnectionError("connection carries no eigenvalue data for the trace")
    return _st2_weights(basis, mu, w_conn.gamma[0] ** (-k),
                        sum(mu[x] ** 2 for x in basis.base_vertices))


# -- Jones projections --------------------------------------------------------


def jones_projection(g, mu: dict[str, float], gamma1: float, i: int, k: int,
                     basis: StringBasis | None = None) -> Field:
    """The i-th Temperley-Lieb idempotent in the length-k string space.

    Supported on pairs of paths that agree except for an out-and-back move
    at position i, weighted by the geometric mean of the visited vertex
    weights over the pivot weight and by 1 / gamma1.  Certified downstream
    by the defining relations rather than by any particular convention.
    """
    if basis is None:
        basis = StringBasis(g, k)
    if not 1 <= i <= k - 1:
        raise ValueError(f"position must satisfy 1 <= i <= k-1, got {i} for k={k}")
    paths = basis.pathset.paths[k]
    vec = np.zeros(basis.dim, dtype=complex)
    for s in range(basis.dim):
        p = paths[basis.p1_idx[s]]
        q = paths[basis.p2_idx[s]]
        if p[:i - 1] != q[:i - 1] or p[i + 1:] != q[i + 1:]:
            continue
        if p[i - 1] != p[i] or q[i - 1] != q[i]:
            continue
        pv = path_vertices(g, p, basis.base[s])
        qv = path_vertices(g, q, basis.base[s])
        vec[s] = math.sqrt(mu[pv[i]] * mu[qv[i]]) / (gamma1 * mu[pv[i - 1]])
    return Field(basis, vec)


def jones_span_dimension(g, mu: dict[str, float], gamma1: float, w: float, k: int,
                         basis: StringBasis | None = None) -> int:
    """Dimension of the unital algebra generated by the Temperley-Lieb idempotents."""
    if basis is None:
        basis = StringBasis(g, k)
    tr = TraceData(basis, mu, gamma1, w)
    gens = [Field.identity(basis)]
    gens += [jones_projection(g, mu, gamma1, i, k, basis) for i in range(1, k)]

    span = list(gens)
    rank = _st2_rank([v.vec for v in span], tr.gram)
    while True:
        new = []
        for a in span:
            for b in gens[1:]:
                new.append(a @ b)
        trial = span + new
        r2 = _st2_rank([v.vec for v in trial], tr.gram)
        if r2 == rank:
            return rank
        # keep an independent subset to bound growth
        span = _prune(trial, tr, r2)
        rank = r2


def _st2_rank(vecs: list[np.ndarray], gram: np.ndarray) -> int:
    """Rank of the st-2 Gram matrix of some string vectors (1e-10 cut)."""
    m = np.array(vecs)
    ev = np.linalg.eigvalsh((m.conj() * gram[None, :]) @ m.T)
    top = float(ev[-1]) if len(ev) else 0.0
    return int(np.count_nonzero(ev > 1e-10 * max(1.0, top)))


def _prune(vs, tr: TraceData, target: int):
    kept = []
    m = []
    for v in vs:
        m.append(v.vec)
        if _st2_rank(m, tr.gram) == len(m):
            kept.append(v)
        else:
            m.pop()
        if len(kept) == target:
            break
    return kept
