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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bases import Field, StringBasis, path_vertices
from .connection import Connection, ConnectionError, renormalize, vertical_product
from .ladders import LadderEngine, paired_string_operator
from .mpo import MPOOperator

__all__ = [
    "TraceData",
    "TransportMap",
    "transport_T",
    "mpo_O_tilde",
    "pmpo_P_tilde",
    "FlatFieldResult",
    "flat_fields",
    "jones_projection",
    "jones_span_dimension",
]

RANK_EPS = 1e-8


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
        self.block_weight = np.array(
            [mu[basis.base[i]] ** 2 / w for i in range(basis.dim)])
        self.gram = self.block_weight * self.local_weight  # st-2 inner product is diagonal

    def trace_at(self, x: str, field: Field) -> complex:
        sl = self.basis.block_slices[x]
        m = self.diag_mask[sl]
        return complex(np.sum(field.vec[sl][m] * self.local_weight[sl][m]))

    def trace(self, field: Field) -> complex:
        return complex(np.sum(field.vec[self.diag_mask]
                              * (self.local_weight * self.block_weight)[self.diag_mask]))

    def inner(self, a: Field, b: Field) -> complex:
        return complex(np.sum(np.conj(a.vec) * b.vec * self.gram))

    def norm_st2(self, field: Field) -> float:
        return math.sqrt(max(float(np.sum(np.abs(field.vec) ** 2 * self.gram)), 0.0))


# -- transports and string-side operators ------------------------------------


def _engine_and_ladder(a_conn: Connection, basis: StringBasis, k: int,
                       engine: LadderEngine | None = None, ladder: np.ndarray | None = None):
    eng = engine if engine is not None else LadderEngine(a_conn)
    lad = ladder if ladder is not None else eng.half_ladder(basis.pathset, k)
    return eng, lad


@dataclass
class TransportMap:
    """A boundary-pinned ladder transport from strings at x to strings at y."""

    x: str
    y: str
    zeta1: str
    zeta2: str
    matrix: np.ndarray  # (dim Str_y, dim Str_x)

    def apply(self, field: Field) -> np.ndarray:
        return self.matrix @ field.block(self.x)


def transport_T(a_conn: Connection, k: int, zeta1: str, zeta2: str,
                basis: StringBasis, engine: LadderEngine | None = None,
                ladder: np.ndarray | None = None) -> TransportMap:
    """The two-boundary ladder operator with bonds zeta1 and zeta2 pinned.

    Both bonds must be vertical edges with the same endpoints x -> y; the
    returning half of the ladder is the mirrored, conjugated copy pinned on
    zeta2, and the far bond is summed.  Summing the diagonal over the bonds
    of one endpoint pair recovers the string-side summand operator block.
    """
    eng, lad = _engine_and_ladder(a_conn, basis, k, engine, ladder)
    left = a_conn.left
    if left.source(zeta1) != left.source(zeta2) or left.range(zeta1) != left.range(zeta2):
        raise ConnectionError("boundary edges must share both endpoints")
    x, y = left.source(zeta1), left.range(zeta1)
    i1, i2 = eng.left_index[zeta1], eng.left_index[zeta2]
    mat = paired_string_operator(
        ((lad[i1, b], lad[i2, b]) for b in range(lad.shape[1])),
        basis, col_vertex=x, row_vertex=y)
    return TransportMap(x=x, y=y, zeta1=zeta1, zeta2=zeta2, matrix=mat)


def mpo_O_tilde(a_conn: Connection, k: int, basis: StringBasis,
                engine: LadderEngine | None = None,
                ladder: np.ndarray | None = None) -> MPOOperator:
    """The string-side summand operator on B_k.

    Conjugate under the half-folding map to the loop-side operator; computed
    directly from the half ladder with the shared boundary bond summed.
    """
    eng, lad = _engine_and_ladder(a_conn, basis, k, engine, ladder)
    na, nb, np_, nq = lad.shape
    l2d = lad.reshape(na * nb, np_, nq)
    mat = paired_string_operator(((l2d[m], l2d[m]) for m in range(na * nb)), basis)
    return MPOOperator(mat, basis, tag=f"Ot[{a_conn.name},k={k}]")


def pmpo_P_tilde(fd, reps: dict[str, Connection], k: int, basis: StringBasis) -> MPOOperator:
    mat = np.zeros((basis.dim, basis.dim), dtype=complex)
    for a in fd.labels:
        mat += (fd.d[a] / fd.w) * mpo_O_tilde(reps[a], k, basis).matrix
    return MPOOperator(mat, basis, tag=f"Pt[k={k}]")


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


def _total_defect_sq(lad: np.ndarray, conn: Connection, basis: StringBasis) -> tuple[float, float]:
    """Frobenius norm of the full constraint system, without assembling it.

    Works on the unrestricted path-pair space, which upper-bounds the
    restriction to strings; a value of exactly zero certifies that every
    pinned transport is the delta identity, so everything is flat.
    """
    left = conn.left
    paths = basis.pathset
    k = basis.k
    starts = np.array([conn.top.source(p[0]) for p in paths.paths[k]])
    total = 0.0
    scale = 0.0
    by_pair: dict[tuple[str, str], list[int]] = {}
    for i, (e, s, r) in enumerate(left.edges):
        by_pair.setdefault((s, r), []).append(i)
    # per-edge bond Gram of the ladder, shared by every pair it appears in
    bond_gram = [np.einsum("bpq,cpq->bc", np.conj(lad[i]), lad[i]) for i in range(lad.shape[0])]
    for (x, y), idxs in by_pair.items():
        n_y = int(np.count_nonzero(starts == y))
        mask = starts == x
        for i1 in idxs:
            for i2 in idxs:
                a = lad[i1]   # (bond, p, q)
                c = lad[i2]
                t_sq = float(np.real(np.sum(bond_gram[i1] * np.conj(bond_gram[i2]))))
                scale += t_sq
                total += t_sq
                if i1 == i2:
                    # cross terms against the identity, supported on x == y
                    s1 = np.einsum("bpp->b", a[:, mask][:, :, mask])
                    s2 = np.einsum("bpp->b", c[:, mask][:, :, mask])
                    total += -2.0 * float(np.real(np.sum(np.conj(s1) * s2))) + n_y * n_y
    return total, scale


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


def flat_fields(w_conn: Connection, k: int, tol: float = 1e-9,
                return_basis: bool = True) -> FlatFieldResult:
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
    formed.
    """
    wt = _constraint_blocks(w_conn)
    basis = StringBasis(w_conn.top, k)
    eng = LadderEngine(wt)
    lad = eng.half_ladder(basis.pathset, k)
    total, scale = _total_defect_sq(lad, wt, basis)
    if total <= 1e-20 * max(1.0, scale):
        vecs = None
        if return_basis:
            g = np.array([math.sqrt(mu_w) for mu_w in _st2_gram(basis, w_conn, k)])
            vecs = np.diag(1.0 / g).astype(complex)
        return FlatFieldResult(dimension=basis.dim, basis=basis, vectors=vecs,
                               system_scale=math.sqrt(scale), exact=True)

    by_pair: dict[tuple[str, str], list[str]] = {}
    for e, s, r in wt.left.edges:
        by_pair.setdefault((s, r), []).append(e)
    slices = basis.block_slices
    root = min(basis.base_vertices, key=lambda x: (slices[x].stop - slices[x].start, x))
    n0 = slices[root].stop - slices[root].start
    reach = {root: np.eye(n0, dtype=complex)}
    for x, y, zeta in _vertical_tree(by_pair, root, basis.base_vertices):
        t = transport_T(wt, k, zeta, zeta, basis, engine=eng, ladder=lad).matrix
        reach[y] = t @ reach[x]
    gram = np.zeros((n0, n0), dtype=complex)
    for (x, y), edges in sorted(by_pair.items()):
        for z1 in edges:
            for z2 in edges:
                c = transport_T(wt, k, z1, z2, basis, engine=eng, ladder=lad).matrix @ reach[x]
                if z1 == z2:
                    c -= reach[y]
                gram += c.conj().T @ c
    if return_basis:
        evals, evecs = np.linalg.eigh(gram)
    else:
        evals = np.linalg.eigvalsh(gram)
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    smax = float(sigma[-1]) if len(sigma) else 0.0
    cut = 1e-6 * max(smax, 1.0)
    null = sigma <= cut
    nonzero = sigma[~null]
    if len(nonzero) and float(nonzero.min()) < 50 * cut:
        raise RuntimeError("flatness system has no clean spectral gap "
                           f"(min nonzero {nonzero.min():.3e}, cut {cut:.3e})")
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


def _st2_gram(basis: StringBasis, w_conn: Connection, k: int) -> np.ndarray:
    mu = w_conn.mu
    w = sum(mu[x] ** 2 for x in basis.base_vertices)
    gamma1 = w_conn.gamma[0] if w_conn.gamma else None
    if gamma1 is None:
        raise ConnectionError("connection carries no eigenvalue data for the trace")
    return np.array([gamma1 ** (-k) * mu[basis.end[i]] * mu[basis.base[i]] / w
                     for i in range(basis.dim)])


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
                         basis: StringBasis | None = None, tol: float = 1e-9) -> int:
    """Dimension of the unital algebra generated by the Temperley-Lieb idempotents."""
    if basis is None:
        basis = StringBasis(g, k)
    tr = TraceData(basis, mu, gamma1, w)
    gens = [Field.identity(basis)]
    gens += [jones_projection(g, mu, gamma1, i, k, basis) for i in range(1, k)]

    def gram_rank(vs):
        m = np.array([v.vec for v in vs])
        gm = (m.conj() * tr.gram[None, :]) @ m.T
        ev = np.linalg.eigvalsh(gm)
        top = float(ev[-1]) if len(ev) else 0.0
        return int(np.count_nonzero(ev > 1e-10 * max(1.0, top)))

    span = list(gens)
    rank = gram_rank(span)
    while True:
        new = []
        for a in span:
            for b in gens[1:]:
                new.append(a @ b)
        trial = span + new
        r2 = gram_rank(trial)
        if r2 == rank:
            return rank
        # keep an independent subset to bound growth
        span = _prune(trial, tr, r2)
        rank = r2


def _prune(vs, tr: TraceData, target: int):
    kept = []
    m = []
    for v in vs:
        m.append(v.vec)
        arr = np.array(m)
        gm = (arr.conj() * tr.gram[None, :]) @ arr.T
        ev = np.linalg.eigvalsh(gm)
        top = float(ev[-1])
        if np.count_nonzero(ev > 1e-10 * max(1.0, top)) == len(m):
            kept.append(v)
        else:
            m.pop()
        if len(kept) == target:
            break
    return kept
