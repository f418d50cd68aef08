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
from .graphs import spanning_tree
from .ladders import LadderEngine, PathSet, grid_counts
from .nullspace import (FROBENIUS_SKIP_SQ, ST2_RANK_EPS, WEIGHT_SUM_EPS, check_budget,
                        stacked_null_space)

# Flat-solve transport chunks hold max(n0^2, this) entries, 1 MiB: n0^2 alone makes
# small systems' chunks narrow (verify-theorem E6 k5 0.066 -> 0.086 s, 2 cores),
# and 2 MiB raised the theorem benchmark's peak RSS from 56.3 to 60.3 MiB.
CHUNK_FLOOR_ENTRIES = 2 ** 16
# Python bookkeeping per string (basis indices), path of length <= k and, four times, grid pair
# (ladder block headers); tracemalloc saw at most 144, 247 and 1052 B on 12 builder-k cases.
# The half-ladder pre-flight counts it twice per grid pair of its last two states (the sweep
# alone traced up to 356 B per grid pair over its blocks, cyclic 5 k3), and 16 times for the
# headers and frames of its transients (1648 B over the rest on trivial 2 and 3).
BOOK_BYTES = 256
# The sweep's fancy-index add traces four times its column product ``m @ flat``.
PRODUCT_COPIES = 4

__all__ = [
    "TraceData",
    "FlatFieldResult",
    "flat_fields",
    "jones_projection",
    "jones_span_dimension",
]


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
        s0 = sum(mu[x] ** 2 for x in basis.base_vertices)
        if abs(s0 - w) > WEIGHT_SUM_EPS * max(1.0, w):
            raise ValueError(f"weights are not normalized: sum mu^2 = {s0:.12g}, w = {w:.12g}")
        inv_gamma_k = gamma1 ** (-basis.k)
        self.diag_mask = basis.p1_idx == basis.p2_idx
        # the st-2 inner product is diagonal: the local weight
        # gamma1^{-k} mu_end / mu_base times mu_base^2 / w
        self.gram = np.empty(basis.dim)
        for (x, v), grid in basis.grids.items():
            self.gram[grid] = inv_gamma_k * mu[v] * mu[x] / w

    def trace(self, field: Field) -> complex:
        return complex(np.sum(field.vec[self.diag_mask] * self.gram[self.diag_mask]))

    def inner(self, a: Field, b: Field) -> complex:
        return complex(np.sum(np.conj(a.vec) * b.vec * self.gram))

    def norm_st2(self, field: Field) -> float:
        return math.sqrt(max(float(np.sum(np.abs(field.vec) ** 2 * self.gram)), 0.0))


# -- flat fields --------------------------------------------------------------


@dataclass
class FlatFieldResult:
    dimension: int
    basis: StringBasis
    vectors: np.ndarray | None          # (dim B_k, dimension), st-2 orthonormal
    exact: bool     # one base vertex within the Frobenius skip: all flat, unit-string basis

    def fields(self) -> list[Field]:
        if self.vectors is None:
            raise ValueError("basis vectors were not requested")
        return [Field(self.basis, self.vectors[:, j]) for j in range(self.vectors.shape[1])]


def _constraint_blocks(w_conn: Connection):
    """The product connection of a connection with its vertical reflection."""
    return vertical_product(w_conn, renormalize(w_conn, "bar"))


def _reach_tree(anchors, root: str, vertices=()) -> list[tuple[str, str, str]]:
    """The directed ``spanning_tree`` of a vertical graph from ``root``, which must
    reach every vertex of the graph and of ``vertices``: ConnectionError names
    the unreached ones."""
    tree = spanning_tree(anchors, root)
    missing = sorted({v for v, _ in anchors.vertices}.union(vertices)
                     - {root}.union(y for _, y, _ in tree))
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
    one with the smallest block, ties broken by name): along each edge of
    the directed ``spanning_tree`` of the vertical graph, ``f_y = T f_x`` with
    the diagonal transport of that edge.  Substituting these relations
    leaves a system on ``B_k(*)`` alone, whose Gram matrix sums
    ``C^* C`` with ``C = T_{z1 z2} R_x - delta R_y`` over all edge pairs,
    ``R_x`` being the transport product from ``*`` to ``x``.  The vertical
    graph must therefore reach every base vertex from ``*``; otherwise
    ConnectionError is raised before any array is formed.

    The system commutes with the string adjoint, ``(T_{z1 z2} f)^* =
    T_{z2 z1}(f^*)``, so its complex null space is spanned by Hermitian
    fields and has the real dimension of the system on them.  The unknowns
    are the real coefficients of the Hermitian coordinates of ``B_k(*)``,
    grid by grid ``E_aa``, ``(E_ab + E_ba)/√2`` and ``i(E_ab - E_ba)/√2``, a
    unitary change from the unit strings that keeps the Gram spectrum.  On
    Hermitian fields the (z2, z1) constraint is the adjoint of the (z1, z2)
    one, so only z1 <= z2 is formed, the off-diagonal ones times √2, and
    the Gram is real.

    Each ``R_x`` is held as per-grid stacks ``(n0, P, P)`` that the
    transports act on in Kraus form, and ``C`` as one stack per column chunk
    of a row grid, of about ``max(n0^2, CHUNK_FLOOR_ENTRIES)`` entries, for
    ``stacked_null_space``, so no transport matrix is formed.

    Returns the dimension and, on request, an st-2 orthonormal basis of
    flat fields, rebuilt in one complex array as ``R_x v`` from the real
    null vectors v while the reach stacks are dropped.  On one base vertex
    every anchor is a loop and the tree is empty, so the half ladder's
    pinned defect bounds ``Σ ‖C‖²`` (it also counts the path pairs with
    different ends); when it is at most ``FROBENIUS_SKIP_SQ``,
    ``stacked_null_space`` would leave every stack out, so no system is
    formed and the basis is the unit strings.  With several base vertices a
    non-loop anchor adds ``n_y² >= 1`` to it, and it is not computed.
    ValueError is raised before the half ladder, the stacks and basis or
    the shortcut's basis would exceed ``DENSE_BUDGET_BYTES``.
    """
    eng, g = LadderEngine(_constraint_blocks(w_conn)), w_conn.top
    counts = grid_counts(g, k)
    what = f"flat solve at k={k} on {sum(counts.values())} paths"
    rows: dict[str, list] = {}      # the grids (x, u) per base vertex x
    for key in counts:
        rows.setdefault(key[0], []).append(key)
    dims = {x: sum(counts[key] ** 2 for key in keys) for x, keys in rows.items()}
    root = min(dims, key=lambda x: (dims[x], x))
    n0 = dims[root]
    tree = _reach_tree(eng.conn.left, root, rows)
    # the sweep holds two consecutive states, the last two the largest, and the copies of
    # its largest column product over the last two steps
    last = grid_counts(g, k - 1)
    product = max(eng.product_entries(grid_counts(g, j - 1), j)
                  for j in range(max(1, k - 1), k + 1))
    need = (16 * (eng.block_entries(last, k - 1) + eng.block_entries(counts, k)
                  + PRODUCT_COPIES * product)
            + BOOK_BYTES * (2 * (len(last) ** 2 + len(counts) ** 2) + 16))
    check_budget(need, what, "its half ladder")
    pathset = PathSet(g, k)
    lad = eng.half_ladder(pathset, k)
    del eng     # its cell blocks and product connection are not needed past the half ladder
    exact = len(dims) == 1 and lad.pinned_defect(counts) <= FROBENIUS_SKIP_SQ
    # the reach stacks (and as large a basis), the real Gram twice, a constraint's column chunk
    # (at most a row grid, at least a column) and three Kraus temporaries, each that or a product
    chunk, q = max(n0 * n0, CHUNK_FLOOR_ENTRIES), max(counts.values())
    most = max(min(chunk, n0 * q * q), n0 * q, max(blk[0].size for blk in lad.blocks.values()))
    books = BOOK_BYTES * (sum(dims.values()) + sum(map(len, pathset.paths)) + 4 * len(counts) ** 2)
    if exact:   # no system: the unit-string basis alone, when asked for
        check_budget(16 * n0 * n0 * return_basis, what, "its basis")
    else:
        check_budget(16 * (n0 * ((1 + return_basis) * sum(dims.values()) + n0) + 4 * most) + books,
                     what, f"its reach stacks, {'basis, ' * return_basis}constraints and Gram")
    basis = StringBasis(g, k, pathset)
    if exact:
        vecs = (np.diag((1.0 / np.sqrt(_st2_gram(basis, w_conn, k))).astype(complex))
                if return_basis else None)
        return FlatFieldResult(dimension=n0, basis=basis, vectors=vecs, exact=True)

    def chunks(row):    # column ranges of ``row`` holding at most a chunk, or one column
        width = max(1, chunk // (n0 * counts[row]))
        return [slice(c, c + width) for c in range(0, counts[row], width)]
    # per grid (x, u): the stack (n0, P, P) of R_x on it
    start = basis.block_slices[root].start
    reach = {key: _hermitian_stack(n0, basis.grids[key] - start) for key in rows[root]}
    for _, y, zeta in tree:
        for row in rows[y]:
            reach[row] = np.zeros((n0, counts[row], counts[row]), dtype=complex)
            for cs in chunks(row):
                lad.add_pinned_transport(zeta, zeta, reach, row, cs, reach[row][:, :, cs])
    tree_edges = {zeta for _, _, zeta in tree}

    def constraints():
        for x, y in sorted({(s, r) for _, s, r in lad.anchors.edges}):
            edges = lad.anchors.edges_between(x, y)
            for i, z1 in enumerate(edges):
                for z2 in edges[i:]:
                    # T R_x - R_y is exactly zero on a tree edge: R_y was set to T R_x
                    if z1 == z2 and z1 in tree_edges:
                        continue
                    for row in rows[y]:
                        for cs in chunks(row):
                            r = reach[row][:, :, cs]
                            if z1 == z2:
                                yield lad.add_pinned_transport(z1, z2, reach, row, cs, -r)
                            else:   # it stands for itself and its adjoint, the (z2, z1) one
                                c = lad.add_pinned_transport(z1, z2, reach, row, cs,
                                                             np.zeros_like(r))
                                c *= math.sqrt(2.0)
                                yield c
                                del c   # the next chunk is formed without this one

    null, evecs, _ = stacked_null_space(n0, constraints(), return_basis)
    dim = int(np.count_nonzero(null))
    vecs = None
    if return_basis and dim:
        v0 = evecs[:, null].astype(complex)
        # the fields R_x v0, one path row at a time, each reach stack dropped once read
        vecs = np.zeros((basis.dim, dim), dtype=complex)
        for key in list(reach):
            r = reach.pop(key)
            for i, idx in enumerate(basis.grids[key]):
                vecs[idx] = r[:, i].T @ v0
        # st-2 orthonormalized in place, over row blocks of at most ``most`` entries
        g, step = _st2_gram(basis, w_conn, k), max(1, most // dim)
        blocks = [slice(i, i + step) for i in range(0, basis.dim, step)]
        gm = np.zeros((dim, dim), dtype=complex)
        for b in blocks:
            gm += (vecs[b].conj().T * g[b]) @ vecs[b]
        ev, eu = np.linalg.eigh(gm)
        eu /= np.sqrt(np.clip(ev, 1e-300, None))
        for b in blocks:
            vecs[b] = vecs[b] @ eu
    return FlatFieldResult(dimension=dim, basis=basis, vectors=vecs, exact=False)


def _hermitian_stack(n0: int, idx: np.ndarray) -> np.ndarray:
    """The stack (n0, P, P) of the unknowns ``idx`` (P, P) on one grid, in
    Hermitian coordinates: ``E_aa`` at (a, a), and for a < b
    ``(E_ab + E_ba)/√2`` at (a, b) and ``i(E_ab - E_ba)/√2`` at (b, a)."""
    p, h = len(idx), math.sqrt(0.5)
    out = np.zeros((n0, p, p), dtype=complex)
    d = np.arange(p)
    out[idx[d, d], d, d] = 1.0
    a, b = np.triu_indices(p, 1)
    out[idx[a, b], a, b] = out[idx[a, b], b, a] = h
    out[idx[b, a], a, b], out[idx[b, a], b, a] = 1j * h, -1j * h
    return out


def _st2_gram(basis: StringBasis, w_conn: Connection, k: int) -> np.ndarray:
    """The st-2 weights of a connection's strings, w from its base weights."""
    mu = w_conn.mu
    if w_conn.gamma is None:
        raise ConnectionError("connection carries no eigenvalue data for the trace")
    w = sum(mu[x] ** 2 for x in basis.base_vertices)
    return TraceData(basis, mu, w_conn.gamma[0], w).gram


# -- Jones projections --------------------------------------------------------


def jones_projection(g, mu: dict[str, float], gamma1: float, i: int, k: int,
                     basis: StringBasis) -> Field:
    """The i-th Temperley-Lieb idempotent in the length-k string space.

    Supported on pairs of paths that agree except for an out-and-back move
    at position i, weighted by the geometric mean of the visited vertex
    weights over the pivot weight and by 1 / gamma1.  Certified downstream
    by the defining relations rather than by any particular convention.
    """
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
                         basis: StringBasis) -> int:
    """Dimension of the unital algebra generated by the Temperley-Lieb idempotents.

    Grows an st-2 orthonormal list from the identity.  Each queued element is
    orthogonalised twice against the list and kept when its squared st-2
    residual exceeds ``ST2_RANK_EPS * max(1, |v|^2)``; a kept element queues
    its right products with every ``e_i``, so the list spans the algebra
    once the queue runs dry.
    """
    tr = TraceData(basis, mu, gamma1, w)
    gens = [jones_projection(g, mu, gamma1, i, k, basis) for i in range(1, k)]
    ortho = np.empty((0, basis.dim), dtype=complex)     # st-2 orthonormal rows
    queue = deque([Field.identity(basis)])
    while queue:
        v = queue.popleft()
        x = v.vec
        for _ in range(2):
            x = x - ((ortho.conj() * tr.gram) @ x) @ ortho
        n2 = float(np.sum(np.abs(x) ** 2 * tr.gram))
        if n2 > ST2_RANK_EPS * max(1.0, tr.norm_st2(v) ** 2):
            ortho = np.vstack([ortho, x / math.sqrt(n2)])
            queue.extend(v @ e for e in gens)
    return len(ortho)
