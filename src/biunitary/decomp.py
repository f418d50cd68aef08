"""Intertwiners, irreducible decomposition, and fusion data of connections.

Connections whose top and bottom graphs coincide (both equal to a fixed
horizontal graph G) form a semisimple category: morphisms are families of
matrices between vertical edge spaces commuting with all cell values.  This
module solves for those intertwiner spaces, splits endomorphism algebras
into minimal projections, compresses connections onto summands, and closes
the set of irreducible summands of powers of a product connection into a
finite label set with dimensions, fusion rules, and conjugation.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .connection import (
    Connection,
    ConnectionError,
    build_identity,
    check_biunitarity,
    renormalize,
    vertical_product,
)
from .graphs import LayeredGraph, count_paths
from .nullspace import (
    ADJOINT_CLOSURE_EPS,
    BIUNITARITY_FLOOR,
    CLUSTER_GAP_EPS,
    DEFAULT_TOL,
    HOM_RESIDUAL_EPS,
    IDEMPOTENCY_EPS,
    RANK_EPS,
    SPAN_EPS,
    gram_null_space,
    null_mask,
)

__all__ = [
    "DecompositionError",
    "DepthExceededError",
    "hom_space",
    "end_minimal_projections",
    "compress",
    "discover_irreducibles",
    "FusionData",
    "SectorStatistics",
    "sector_statistics",
]


class DecompositionError(RuntimeError):
    """Failure while splitting an endomorphism algebra."""


class DepthExceededError(RuntimeError):
    """Closure of the label set did not terminate within max_depth."""


# -- intertwiner spaces -----------------------------------------------------


class _HomProblem:
    """Index bookkeeping for the linear system defining Hom(src, dst).

    An intertwiner family is one matrix per vertex pair, from src vertical
    edges to dst vertical edges: keys ("L", x, z) for pairs on the x layer
    and ("R", y, w) on the y layer, block shape (dst edge count, src edge
    count).  A family is held flat, its blocks row-major in ``keys`` order;
    a space of families is the ``(m, n_var)`` stack of its flat vectors.

    ``pairs`` holds one constraint ``dst[t, b] T_L(x, z) == T_R(y, w) src[t, b]``
    per top edge t: x->y and bottom edge b: z->w with a slot on either side,
    as ``(L key or None, R key or None, dst[t, b], src[t, b])``.  It is built
    on first use: a problem held only for its key layout reads no cell.
    """

    def __init__(self, src: Connection, dst: Connection):
        if not (src.top.structurally_equal(dst.top) and src.bottom.structurally_equal(dst.bottom)):
            raise ConnectionError("hom space needs identical horizontal graphs")
        if not src.is_a_type:
            raise ConnectionError("hom space is defined for top == bottom connections")
        self.keys: list[tuple] = []
        self.shapes: dict[tuple, tuple[int, int]] = {}
        self.offsets: dict[tuple, int] = {}
        off = 0
        for side, verts, graph in (("L", src.x_vertices, "left"), ("R", src.y_vertices, "right")):
            gs, gd = getattr(src, graph), getattr(dst, graph)
            verts = sorted(set(verts))
            for u in verts:
                for v in verts:
                    m = (len(gd.edges_between(u, v)), len(gs.edges_between(u, v)))
                    if m[0] and m[1]:
                        key = (side, u, v)
                        self.keys.append(key)
                        self.shapes[key] = m
                        self.offsets[key] = off
                        off += m[0] * m[1]
        self.n_var = off
        self._src, self._dst = src, dst

    @functools.cached_property
    def pairs(self) -> list[tuple]:
        src, dst = self._src, self._dst
        pairs = []
        for t, x, y in src.top.edges:
            for b, z, w in src.bottom.edges:
                kl = ("L", x, z) if ("L", x, z) in self.offsets else None
                kr = ("R", y, w) if ("R", y, w) in self.offsets else None
                if kl or kr:
                    pairs.append((kl, kr, dst.cell_matrix(t, b), src.cell_matrix(t, b)))
        return pairs

    def block(self, flat: np.ndarray, key: tuple) -> np.ndarray:
        """The `key` blocks of a flat family or a stack of them, as a view."""
        d, s = self.shapes[key]
        o = self.offsets[key]
        return flat[..., o:o + d * s].reshape(*flat.shape[:-1], d, s)

    def adjoint(self, stack: np.ndarray) -> np.ndarray:
        """The slot-wise conjugate transpose of every family of an End stack.

        The weight-ratio twisted adjoint coincides with this one: within a
        block all vertical edges share the same endpoints, so the diagonal
        twist is a scalar and cancels.
        """
        return np.concatenate([self.block(stack, k).conj().swapaxes(-1, -2)
                               .reshape(len(stack), -1) for k in self.keys], axis=-1)

    def residual(self, stack: np.ndarray) -> float:
        """Largest entry of ``A T_L - T_R B`` over every family of the stack."""
        worst = 0.0
        for kl, kr, a_mat, b_mat in self.pairs:
            c = 0
            if kl:
                c = a_mat @ self.block(stack, kl)
            if kr:
                c = c - self.block(stack, kr) @ b_mat
            if np.size(c):
                worst = max(worst, float(np.max(np.abs(c))))
        return worst


def _factor_rows(prob: _HomProblem, factors: dict, keys: list, rows: np.ndarray) -> None:
    """Multiply in place the rows of each of the consecutive ``keys``, from ``keys[0]`` on, by
    its factor, on the dst index of an L block and the src index of an R block."""
    for k in keys:
        (d, s), o = prob.shapes[k], prob.offsets[k] - prob.offsets[keys[0]]
        x = rows[o:o + d * s]
        x[...] = (factors[k] @ x.reshape((d, -1) if k[0] == "L" else (d, s, -1))).reshape(x.shape)


def _hom_kernel(prob: _HomProblem) -> np.ndarray:
    """The ``(m, n_var)`` stack of an orthonormal basis (entrywise, by a QR) of the
    hom space: the kernel of the Gram ``[[D_L, X], [X^H, D_R]]`` of the constraints
    in ``prob.pairs``, which is never formed.  ``D_L`` and ``D_R`` hold the per-key
    squares ``A^H A (x) I`` and ``I (x) conj(B) B^T``, positive definite (a degree
    times the identity) on the unitary connections every caller passes; a key whose
    square is not raises.  The eigensolve runs on the Schur complement ``I - Y Y^H``,
    ``Y = D_L^{-1/2} X D_R^{-1/2}``, of ``u = D_L^{1/2} v_L``, and ``v_R = -D_R^{-1} X^H
    v_L``; on the mirror form when the R side is smaller, so it has min(n_L, n_R) rows."""
    n = prob.n_var
    # rows (A (x) I) vec T_L - (I (x) B^T) vec T_R per pair: squares per key, cross -A^H (x) B^T
    n_left = min((prob.offsets[k] for k in prob.keys if k[0] == "R"), default=n)
    squares: dict[tuple, np.ndarray] = {}
    cross = np.zeros((n_left, n - n_left), dtype=complex)
    for kl, kr, a_mat, b_mat in prob.pairs:
        if kl:
            squares[kl] = squares.get(kl, 0) + a_mat.conj().T @ a_mat
        if kr:
            squares[kr] = squares.get(kr, 0) + b_mat.conj() @ b_mat.T
        if kl and kr:
            (d1, s1), (d2, s2) = prob.shapes[kl], prob.shapes[kr]
            o1, o2 = prob.offsets[kl], prob.offsets[kr] - n_left
            blk = cross[o1:o1 + d1 * s1, o2:o2 + d2 * s2].reshape(d1, s1, d2, s2)
            blk -= a_mat.conj().T[:, None, :, None] * b_mat.T[None, :, None, :]
    # the squares' inverse roots in one batched eigh, each padded by the identity to the largest
    sizes = [prob.shapes[k][0 if k[0] == "L" else 1] for k in prob.keys]
    padded = np.tile(np.eye(max(sizes, default=0), dtype=complex), (len(sizes), 1, 1))
    for sq, k, m in zip(padded, prob.keys, sizes):
        sq[:m, :m] = squares.get(k, 0)
    evals, evecs = np.linalg.eigh(padded)
    if np.any(bad := np.min(evals, axis=1, initial=1.0) <= 0):
        raise DecompositionError(f"hom system square at {prob.keys[int(np.argmax(bad))]} "
                                 "is not positive definite")
    roots = (evecs / np.sqrt(evals)[:, None, :]) @ evecs.conj().swapaxes(1, 2)
    factors = {k: r[:m, :m] for k, m, r in zip(prob.keys, sizes, roots)}
    left = [k for k in prob.keys if k[0] == "L"]
    right = prob.keys[len(left):]
    _factor_rows(prob, factors, left, cross)
    y_h = np.ascontiguousarray(cross.conj().T)     # Y^H
    _factor_rows(prob, factors, right, y_h)
    # z maps the smaller side's u to the other side's rows, and S = I - z^H z
    z = y_h if (left_small := 2 * n_left <= n) else y_h.conj().T
    s_mat = np.eye(z.shape[1]) - z.conj().T @ z
    null_mask, evecs, _ = gram_null_space(s_mat, True, DecompositionError,
                                          "no clean spectral gap in hom system")
    if not null_mask.any():     # no kernel vector, nothing to rebuild or check
        return np.zeros((0, n), dtype=complex)
    u = evecs[:, null_mask]
    v = np.vstack((u, -(z @ u)) if left_small else (-(z @ u), u))    # offset order: L, then R
    _factor_rows(prob, factors, prob.keys, v)
    kern = np.ascontiguousarray(np.linalg.qr(v)[0].T)
    r = prob.residual(kern)
    if r > HOM_RESIDUAL_EPS:
        raise DecompositionError(f"kernel vector violates intertwining ({r:.3e})")
    return kern


def hom_space(src: Connection, dst: Connection) -> list[np.ndarray]:
    """Orthonormal basis of the intertwiner families from unitary `src` to `dst`: the rows
    of :func:`_hom_kernel`, flat in :class:`_HomProblem` order.  Every hom solve runs here."""
    return list(_hom_kernel(_HomProblem(src, dst)))


# -- endomorphism splitting --------------------------------------------------


def _span_distance(kern: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Distance of each row of `vecs` to the span of the orthonormal rows of `kern`."""
    return np.linalg.norm(vecs - (vecs @ kern.conj().T) @ kern, axis=-1)


def end_minimal_projections(c: Connection, seed: int = 0) -> list[dict[tuple, np.ndarray]]:
    """Pairwise-orthogonal minimal projections summing to one in End(c),
    each as its ``{key: block}`` dict in :class:`_HomProblem` keys.

    Certifies that End(c) is closed under the slot-wise adjoint, draws a
    seeded random self-adjoint element, splits its spectrum globally across
    the vertex-pair blocks, and verifies each spectral projection is minimal.
    Reseeds on spectral collisions and gap failures; raises after eight.
    """
    prob = _HomProblem(c, c)
    kern = np.array(hom_space(c, c))
    if not len(kern):
        raise DecompositionError("endomorphism algebra is empty")
    defect = float(np.max(_span_distance(kern, prob.adjoint(kern))))
    if defect > ADJOINT_CLOSURE_EPS:
        raise DecompositionError(f"End(c) not closed under the adjoint (defect {defect:.3e})")

    for attempt in range(8):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.standard_normal(len(kern)) + 1j * rng.standard_normal(len(kern))
        a = coeffs @ kern

        items = []  # (eigenvalue, block key, eigenvector)
        for k in prob.keys:
            blk = prob.block(a, k)
            evals, evecs = np.linalg.eigh(blk + blk.conj().T)
            for i, lam in enumerate(evals):
                items.append((float(lam), k, evecs[:, i]))
        items.sort(key=lambda it: it[0])
        spread = items[-1][0] - items[0][0] if len(items) > 1 else 1.0
        gap = CLUSTER_GAP_EPS * max(1.0, spread)
        clusters: list[list] = [[items[0]]]
        for it in items[1:]:
            if it[0] - clusters[-1][-1][0] <= gap:
                clusters[-1].append(it)
            else:
                clusters.append([it])

        projs = np.zeros((len(clusters), prob.n_var), dtype=complex)
        for p, cl in zip(projs, clusters):
            for _, k, v in cl:
                prob.block(p, k)[...] += np.outer(v, v.conj())
        unit = projs / np.linalg.norm(projs, axis=1, keepdims=True)
        if np.max(_span_distance(kern, unit)) > SPAN_EPS:
            continue
        # per key: every cluster's block, and its compressions p t p of the basis
        ps = [prob.block(projs, k) for k in prob.keys]
        if max(float(np.max(np.abs(b @ b - b))) for b in ps) > IDEMPOTENCY_EPS:
            continue
        span = np.concatenate([(b[:, None] @ prob.block(kern, k) @ b[:, None])
                               .reshape(len(projs), len(kern), -1)
                               for b, k in zip(ps, prob.keys)], axis=-1)
        try:    # minimal: the compressions of each cluster keep one singular value
            null = null_mask(np.linalg.svd(span, compute_uv=False), RANK_EPS,
                             DecompositionError, "minimality test has no clean spectral gap")
        except DecompositionError:
            continue
        if np.all(np.count_nonzero(~null, axis=-1) == 1):
            return [{k: prob.block(p, k) for k in prob.keys} for p in projs]
    raise DecompositionError("spectral-gap failure after 8 reseeds")


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        ph = out[i, j]
        out[:, j] *= np.conj(ph) / abs(ph)
    return out


def compress(c: Connection, p: dict[tuple, np.ndarray], tol: float = DEFAULT_TOL) -> Connection:
    """The summand of `c` cut out by a self-adjoint projection in End(c),
    given as its ``{key: block}`` dict in :class:`_HomProblem` keys.

    Chooses isometries v with v v* = p per vertex pair and conjugates every
    cell matrix; the output must pass the bi-unitarity check at
    ``max(tol, BIUNITARITY_FLOOR)``, which is enforced, since summands of
    bi-unitary connections are bi-unitary.
    """
    isometries: dict[tuple, np.ndarray] = {}
    ranks: dict[tuple, int] = {}
    for k, blk in p.items():
        evals, evecs = np.linalg.eigh(blk)
        keep = evals > 0.5
        r = int(np.count_nonzero(keep))
        ranks[k] = r
        if r:
            isometries[k] = _phase_fix(evecs[:, keep])

    sl = c.left.source_layer
    rl = c.right.source_layer
    xs = sorted(set(c.x_vertices))
    ys = sorted(set(c.y_vertices))

    def vertical(side: str, verts, layer) -> LayeredGraph:
        edges = []
        for u in verts:
            for v in verts:
                r = ranks.get((side, u, v), 0)
                for i in range(r):
                    edges.append((f"p:{u}>{v}:{i}", u, v))
        return LayeredGraph(f"{c.name}{side}p", [(v, layer) for v in verts], edges, layer, layer)

    left = vertical("L", xs, sl)
    right = vertical("R", ys, rl)

    values = {}
    for t, _, _ in c.top.edges:
        x, y = c.top.source(t), c.top.range(t)
        for b, _, _ in c.bottom.edges:
            z, w = c.bottom.source(b), c.bottom.range(b)
            vl = isometries.get(("L", x, z))
            vr = isometries.get(("R", y, w))
            if vl is None or vr is None:
                continue
            m = vr.conj().T @ c.cell_matrix(t, b) @ vl
            for (i, j), v in np.ndenumerate(m):
                values[(f"p:{x}>{z}:{j}", t, f"p:{y}>{w}:{i}", b)] = v

    out = Connection(c.top, left, c.bottom, right, c.mu, values, name=f"{c.name}[p]")
    rep = check_biunitarity(out, max(tol, BIUNITARITY_FLOOR))
    if not rep.passed:
        raise DecompositionError(
            f"compressed connection fails bi-unitarity (residual {rep.max_residual:.3e}); "
            "the projection is not a valid endomorphism")
    return out


# -- fusion data --------------------------------------------------------------


@dataclass
class FusionData:
    """Label set of irreducible connections with all derived integer tables.

    ``d`` maps labels to Perron-Frobenius dimensions, ``w`` is the global
    index, ``n_table[(a, b, c)]`` is the multiplicity of c in
    ``vertical_product(rep_b, rep_a)``, so that ``sum_c N_ab^c M_c = M_b M_a``,
    ``m_table[a]`` is the vertical multiplicity matrix ``M_a`` over the
    layer-0 vertex order ``v0``, ``conj`` is the contragredient involution,
    and ``l_table[(a, n)]`` counts a inside the n-th power of the generating
    product connection.
    """

    labels: tuple[str, ...]
    identity: str
    v0: tuple[str, ...]
    d: dict[str, float]
    w: float
    n_table: dict[tuple[str, str, str], int]
    m_table: dict[str, np.ndarray]
    conj: dict[str, str]
    l_table: dict[tuple[str, int], int] = field(default_factory=dict)
    mu: dict[str, float] = field(default_factory=dict)

    def multiplicities(self, n: int) -> dict[str, int]:
        """Multiplicities L_a^n of each label in the n-th power, by fusion recursion."""
        if n < 1:
            raise ValueError("n >= 1")
        if not any(m == 1 for _, m in self.l_table):
            raise ValueError("first-power multiplicities are missing")
        for m in range(2, n + 1):
            if all((a, m) in self.l_table for a in self.labels):
                continue
            cur = dict.fromkeys(self.labels, 0)
            for (b, a, c), nn in self.n_table.items():
                cur[c] += self.l_table[(a, m - 1)] * self.l_table[(b, 1)] * nn
            self.l_table.update(((c, m), v) for c, v in cur.items())
        return {a: self.l_table[(a, n)] for a in self.labels}


@dataclass(eq=False)  # hashed by identity: discovery keys its first-power counts by entry
class _ClassEntry:
    rep: Connection
    m: np.ndarray
    d: float
    first_n: int
    label: str = "?"


def _pf_dimension(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m.astype(float)))))


class _MultiplicitySolver:
    """Exact nonnegative integer solutions of ``sum_c N_c M_c = target``.

    The multiplicity matrices ``M_c`` of the labels, flattened, are
    reduced once by fraction-free elimination in Python ints.  A label whose
    vector is independent of the earlier labels' is a pivot; the others are
    ``free``, and their multiplicities must be supplied (by a hom count).
    The pivot vectors restricted to the pivot rows of the echelon form a
    nonsingular square block, so given the free counts the solution, if
    any, is unique: the pivot multiplicities are read off a float solve on
    that block, rounded, and an integer vector that satisfies the full
    identity exactly in int64 is that solution.
    """

    def __init__(self, ms: list[np.ndarray]):
        self.cols = np.array(ms, dtype=np.int64).reshape(len(ms), -1)
        echelon: list[tuple[int, list[int]]] = []  # (pivot row, reduced vector)
        self.pivots: list[int] = []
        self.free: list[int] = []
        for j, col in enumerate(self.cols.tolist()):
            v = col
            for p, e in echelon:
                if v[p]:
                    v = [e[p] * x - v[p] * y for x, y in zip(v, e)]
            row = next((i for i, x in enumerate(v) if x), None)
            if row is None:
                self.free.append(j)
            else:
                g = math.gcd(*v)
                echelon.append((row, [x // g for x in v]))
                self.pivots.append(j)
        self.rows = [p for p, _ in echelon]
        self.block = self.cols[np.ix_(self.pivots, self.rows)].T.astype(float)

    def solve(self, target: np.ndarray, free_counts: dict[int, int], what: str) -> list[int]:
        """The multiplicities given those of the free labels; raises
        :class:`DecompositionError` unless they are nonnegative integers
        satisfying the identity exactly."""
        n = np.zeros(len(self.cols), dtype=np.int64)
        for c, count in free_counts.items():
            n[c] = count
        rest = target.reshape(-1) - n @ self.cols
        try:
            x = np.linalg.solve(self.block, rest[self.rows].astype(float))
        except np.linalg.LinAlgError:
            x = None
        # a nonnegative solution has no pivot entry above the sum of the target
        # (a pivot M_c is a nonzero count matrix); this also fails on nan and inf
        if x is not None and np.all(np.abs(x) <= target.sum() + 1):
            n[self.pivots] = np.rint(x)
            if n.min() >= 0 and np.array_equal(n @ self.cols, target.reshape(-1)):
                return n.tolist()
        raise DecompositionError(
            f"multiplicities in {what} are not a nonnegative integer solution "
            "of the multiplicity-matrix identity")


def _vertical_counts(rep: Connection) -> np.ndarray:
    """The left and right multiplicity matrices of `rep` as one block diagonal."""
    m, r = rep.left.adjacency(), rep.right.adjacency()
    zero = np.zeros((len(m), len(r)), dtype=np.int64)
    return np.block([[m, zero], [zero.T, r]])


def _conjugates(reps: dict[str, Connection], m_table: dict[str, np.ndarray]) -> dict[str, str]:
    """The conjugate of every label by hom search: the one label ``b`` with
    ``M_b == M_a^T`` that receives a hom from the bar of ``a``, of dimension 1."""
    conj = {}
    for a, rep in reps.items():
        bar = renormalize(rep, "bar")
        dims = {b: len(hom_space(bar, reps[b])) for b in reps
                if np.array_equal(m_table[b], m_table[a].T)}
        found = [b for b, n in dims.items() if n]
        if len(found) != 1 or dims[found[0]] != 1:
            raise DecompositionError(f"no unique conjugate for {a} in the hom search")
        conj[a] = found[0]
    if any(conj[conj[a]] != a for a in conj):
        raise DecompositionError("the conjugates found by hom search are not an involution")
    return conj


def _fusion_tables(classes: list[_ClassEntry], reps: dict[str, Connection]):
    """``n_table``: row ``(a, b)`` solves ``sum_c N_ab^c D_c = D_b D_a`` for
    ``vertical_product(rep_b, rep_a)``, ``D_c`` the block diagonal of the left
    and right multiplicity matrices.  With free labels, each solved entry
    fills its duality orbit (conjugates from :func:`_conjugates`), and a row
    forms its product and solves homs only for free entries still unfilled.
    An orbit value at odds with a known one, or a non-associative table,
    raises :class:`DecompositionError`."""
    counts = [_vertical_counts(reps[e.label]) for e in classes]
    solver = _MultiplicitySolver(counts)
    labels = [e.label for e in classes]
    conj = _conjugates(reps, {e.label: e.m for e in classes}) if solver.free else None
    known: dict[tuple[str, str, str], int] = {}
    n_table: dict[tuple[str, str, str], int] = {}
    for ia, a in enumerate(labels):
        for ib, b in enumerate(labels):
            free = {c: known[(a, b, labels[c])] for c in solver.free if (a, b, labels[c]) in known}
            if len(free) < len(solver.free):
                prod = vertical_product(reps[b], reps[a])
                free |= {c: len(hom_space(reps[labels[c]], prod))
                         for c in solver.free if c not in free}
            row = solver.solve(counts[ib] @ counts[ia], free, f"{b}*{a}")
            for c, nc in zip(labels, row):
                n_table[(a, b, c)] = nc
                if conj:    # the orbit of (a, b, c) under Frobenius reciprocity and conjugation
                    a_, b_, c_ = conj[a], conj[b], conj[c]
                    for k in sorted({(a, b, c), (a_, c, b), (b, c_, a_), (b_, a_, c_),
                                     (c, b_, a), (c_, a, b_)}):
                        if known.setdefault(k, nc) != nc:
                            raise DecompositionError(f"{b}*{a} contains {c} {nc} times, "
                                                     f"against N{k} = {known[k]} by duality")
    n = np.array(list(n_table.values()), dtype=np.int64).reshape((len(labels),) * 3)
    if not np.array_equal(np.einsum("abe,ecf->abcf", n, n), np.einsum("bce,aef->abcf", n, n)):
        raise DecompositionError("the fusion table is not associative")
    return n_table


def _peel(prod: Connection, classes: list[_ClassEntry], depth: int, seed: int,
          tol: float) -> list[int]:
    """The multiplicity in `prod` of every class, appending the new ones.

    By Schur's lemma the orthonormal rows ``T_i`` of ``Hom(c, prod)`` satisfy
    ``T_i^* T_j = delta_ij / n_c``, ``n_c`` the vertical edge count of ``c``,
    so ``n_c sum_i T_i T_i^*`` projects onto the copies of ``c``.  Until the
    counts give the multiplicity matrix of `prod` exactly, the first summand
    of the complement of the known content joins the classes as a new one.
    """
    end = _HomProblem(prod, prod)
    target = prod.left.adjacency()
    known = np.zeros(end.n_var, dtype=complex)
    counts: list[int] = []
    n_old = len(classes)
    while True:
        for entry in classes[len(counts):]:
            prob = _HomProblem(entry.rep, prod)
            kern = hom_space(entry.rep, prod)
            counts.append(len(kern))
            stack = np.reshape(kern, (len(kern), prob.n_var))
            n_c = sum(s for _, s in prob.shapes.values())
            for key in prob.keys:
                t = prob.block(stack, key)
                end.block(known, key)[...] += n_c * np.tensordot(t, t.conj(), ([0, 2], [0, 2]))
        accounted = sum(n * e.m for n, e in zip(counts, classes))
        if len(classes) > n_old and not counts[-1]:
            raise DecompositionError(f"a new summand of {prod.name} peels off no content")
        if np.any(accounted > target):
            raise DecompositionError(f"hom counts exceed the content of {prod.name}")
        if np.array_equal(accounted, target):
            return counts
        rest = {k: np.eye(end.shapes[k][0]) - end.block(known, k) for k in end.keys}
        err = max(float(np.max(np.abs(b @ b - b))) for b in rest.values())
        if err > IDEMPOTENCY_EPS:
            raise DecompositionError(
                f"complement of the known content is not a projection ({err:.3e})")
        rest_conn = compress(prod, rest, tol)
        summand = compress(rest_conn, end_minimal_projections(rest_conn, seed)[0], tol)
        sm = summand.left.adjacency()
        classes.append(_ClassEntry(summand, sm, _pf_dimension(sm), depth))


def discover_irreducibles(w_conn: Connection, max_depth: int = 12, seed: int = 0,
                          tol: float = DEFAULT_TOL):
    """Close the set of irreducible connections under multiplication by W W-bar.

    Returns ``(fusion_data, reps, w_normalized)`` where reps maps canonical
    labels to irreducible connections carrying the globally rescaled weights
    (so that the squared weights on layer 0 sum to the global index), and
    ``w_normalized`` is the input connection with the same rescaling.

    Breadth-first: each known class is multiplied by the product connection
    and the result is peeled into known classes by hom counting; only the
    unaccounted content is split, one new class at a time (see
    :func:`_peel`).  Raises :class:`DepthExceededError` if new classes keep
    appearing past ``max_depth`` powers.  The first-power multiplicities are
    the counts of the first product, ``W W-bar`` itself, certified by its
    exact multiplicity-matrix identity; the fusion table comes from a
    certified integer solve of the identities on both vertical graphs, filled
    by duality where they leave labels free, and exactly associative (see
    :func:`_fusion_tables`); the conjugate of ``a`` is the one ``b`` with ``N_ab^1 == 1``.
    A disconnected top graph is refused with :class:`ConnectionError` before
    any hom solve: the unit connection over it is reducible.
    """
    if not w_conn.top.is_connected():
        raise ConnectionError(f"top graph {w_conn.top.name!r} is not connected: "
                              "its unit connection is reducible")
    birep = check_biunitarity(w_conn, max(tol, BIUNITARITY_FLOOR))
    if not birep.passed:
        raise ConnectionError(f"input connection is not bi-unitary (residual {birep.max_residual:.3e})")
    wt = vertical_product(w_conn, renormalize(w_conn, "bar"))
    g = w_conn.top
    # v0 is sorted.  Every class and wt has bottom == top, so Connection makes
    # its left graph run from v0 to v0, and ``left.adjacency()`` is in v0 order.
    v0 = g.src_vertices
    ident = build_identity(g, w_conn.mu)

    classes = [_ClassEntry(ident, ident.left.adjacency(), 1.0, 0)]
    depth = n_known = 0
    while n_known < len(classes):   # the classes found at the last depth are the frontier
        depth += 1
        if depth > max_depth:
            raise DepthExceededError(
                f"label set still growing after {max_depth} powers; "
                "increase max_depth or check the tolerance")
        frontier, n_known = classes[n_known:], len(classes)
        for entry in frontier:
            counts = _peel(vertical_product(entry.rep, wt), classes, depth, seed, tol)
            if depth == 1:  # the identity's product is W W-bar itself
                first_power = dict(zip(classes, counts))

    # canonical labels: dimension, first power, left and right multiplicity matrices, all
    # gauge-free; classes tied on all of them (none on the builders) keep discovery order
    classes.sort(key=lambda e: (round(e.d, 9), e.first_n, tuple(_vertical_counts(e.rep).flat)))
    for i, e in enumerate(classes):
        e.label = f"a{i}"
    identity_label = classes[0].label

    w_value = float(sum(e.d ** 2 for e in classes))
    s0 = sum(w_conn.mu[x] ** 2 for x in v0)
    factor = math.sqrt(w_value / s0)
    mu = {v: factor * m for v, m in w_conn.mu.items()}

    reps = {e.label: e.rep.with_mu({v: mu[v] for v in e.rep.mu}) for e in classes}
    w_norm = w_conn.with_mu(mu)

    labels = tuple(e.label for e in classes)
    d = {e.label: e.d for e in classes}
    m_table = {e.label: e.m for e in classes}

    n_table = _fusion_tables(classes, reps)
    l_table = {(e.label, 1): first_power.get(e, 0) for e in classes}

    conj = {}
    for a in labels:
        partners = [b for b in labels if n_table[(a, b, identity_label)]]
        if len(partners) != 1 or n_table[(a, partners[0], identity_label)] != 1:
            raise DecompositionError(f"no unique conjugate for {a} in the fusion table")
        conj[a] = partners[0]

    fd = FusionData(labels=labels, identity=identity_label, v0=v0, d=d, w=w_value,
                    n_table=n_table, m_table=m_table, conj=conj, l_table=l_table,
                    mu=mu)
    return fd, reps, w_norm


# -- statistics ----------------------------------------------------------------


@dataclass
class SectorStatistics:
    n: int
    path_counts: dict[str, int]
    alpha: float
    kappa: dict[str, float]
    power_multiplicities: dict[str, int]
    beta: float
    lam: dict[str, float]


def sector_statistics(fd: FusionData, w_conn: Connection, n: int) -> SectorStatistics:
    """Normalized path-count and power-multiplicity profiles at level n.

    The paths run back and forth on the left graph of `w_conn` from its
    base.  ``kappa`` converges to mu_x / sqrt(w) over layer-0 vertices and
    ``lam`` to d_a / sqrt(w) over labels as n grows; both are exact integer
    data before normalization.
    """
    if w_conn.base is None:
        raise ConnectionError("sector statistics need a connection with a base vertex")
    counts = count_paths(w_conn.left, w_conn.base, 2 * n)
    k = {x: counts.get(x, 0) for x in fd.v0}
    mult = fd.multiplicities(n)
    squares = (sum(v * v for v in k.values()), sum(v * v for v in mult.values()))
    if max(squares) > sys.float_info.max:     # an exact int-float comparison
        raise ValueError(f"level n = {n} is too large: its squared counts exceed a float")
    alpha, beta = math.sqrt(squares[0]), math.sqrt(squares[1])
    kappa = {x: v / alpha for x, v in k.items()}
    lam = {a: v / beta for a, v in mult.items()}
    return SectorStatistics(n=n, path_counts=k, alpha=alpha, kappa=kappa,
                            power_multiplicities=mult, beta=beta, lam=lam)
