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

import math
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
from .graphs import LayeredGraph, count_paths, alternating
from .nullspace import RANK_EPS, gram_null_space

__all__ = [
    "DecompositionError",
    "DepthExceededError",
    "IntertwinerFamily",
    "hom_space",
    "end_minimal_projections",
    "compress",
    "decompose",
    "discover_irreducibles",
    "FusionData",
    "SectorStatistics",
    "sector_statistics",
]


class DecompositionError(RuntimeError):
    """Failure while splitting an endomorphism algebra."""


class DepthExceededError(RuntimeError):
    """Closure of the label set did not terminate within max_depth."""


# -- intertwiner families ----------------------------------------------------


@dataclass
class IntertwinerFamily:
    """Per-vertex-pair matrices from src vertical edges to dst vertical edges.

    Keys are ("L", x, z) for pairs on the x layer and ("R", y, w) for pairs
    on the y layer; the block shape is (dst edge count, src edge count).
    """

    blocks: dict[tuple, np.ndarray]

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.blocks[k].reshape(-1) for k in sorted(self.blocks)]) \
            if self.blocks else np.zeros(0, dtype=complex)

    def adjoint(self) -> "IntertwinerFamily":
        """Slot-wise conjugate transpose.

        The weight-ratio twisted adjoint coincides with this one: within a
        block all vertical edges share the same endpoints, so the diagonal
        twist is a scalar and cancels.
        """
        return IntertwinerFamily({k: b.conj().T for k, b in self.blocks.items()})

    def norm(self) -> float:
        return float(np.linalg.norm(self.flatten()))


class _HomProblem:
    """Index bookkeeping for the linear system defining Hom(src, dst)."""

    def __init__(self, src: Connection, dst: Connection):
        if not (src.top.structurally_equal(dst.top) and src.bottom.structurally_equal(dst.bottom)):
            raise ConnectionError("hom space needs identical horizontal graphs")
        if not src.is_a_type:
            raise ConnectionError("hom space is defined for top == bottom connections")
        self.src, self.dst = src, dst
        self.keys: list[tuple] = []
        self.shapes: dict[tuple, tuple[int, int]] = {}
        self.offsets: dict[tuple, int] = {}
        off = 0
        xs = sorted(set(src.x_vertices))
        ys = sorted(set(src.y_vertices))
        for x in xs:
            for z in xs:
                m = (len(dst.left.edges_between(x, z)), len(src.left.edges_between(x, z)))
                if m[0] and m[1]:
                    key = ("L", x, z)
                    self.keys.append(key)
                    self.shapes[key] = m
                    self.offsets[key] = off
                    off += m[0] * m[1]
        for y in ys:
            for w in ys:
                m = (len(dst.right.edges_between(y, w)), len(src.right.edges_between(y, w)))
                if m[0] and m[1]:
                    key = ("R", y, w)
                    self.keys.append(key)
                    self.shapes[key] = m
                    self.offsets[key] = off
                    off += m[0] * m[1]
        self.n_var = off

    def unflatten(self, vec: np.ndarray) -> IntertwinerFamily:
        blocks = {}
        for k in self.keys:
            m = self.shapes[k]
            o = self.offsets[k]
            blocks[k] = vec[o:o + m[0] * m[1]].reshape(m)
        return IntertwinerFamily(blocks)

    def constraint_pairs(self):
        """Per (top edge, bottom edge): the two cell matrices and slot keys."""
        for t, _, _ in self.src.top.edges:
            x, y = self.src.top.source(t), self.src.top.range(t)
            for b, _, _ in self.src.bottom.edges:
                z, w = self.src.bottom.source(b), self.src.bottom.range(b)
                a_mat = self.dst.cell_matrix(t, b)   # (dst_r, dst_l)
                b_mat = self.src.cell_matrix(t, b)   # (src_r, src_l)
                kl, kr = ("L", x, z), ("R", y, w)
                yield kl, kr, a_mat, b_mat

    def residual(self, fam: IntertwinerFamily) -> float:
        worst = 0.0
        for kl, kr, a_mat, b_mat in self.constraint_pairs():
            tl = fam.blocks.get(kl)
            tr = fam.blocks.get(kr)
            term = 0.0
            c = None
            if tl is not None and a_mat.size:
                c = a_mat @ tl
            if tr is not None and b_mat.size:
                c = (0 if c is None else c) - tr @ b_mat
            if c is not None and np.size(c):
                term = float(np.max(np.abs(c)))
            worst = max(worst, term)
        return worst


def hom_space(src: Connection, dst: Connection) -> list[IntertwinerFamily]:
    """Orthonormal basis of intertwiner families from `src` to `dst`.

    Solves, for every top edge t: x->y and bottom edge b: z->w,

        dst[t, b] @ T_L(x, z) == T_R(y, w) @ src[t, b]

    by extracting the kernel of the Gram operator of the stacked system.
    The basis is orthonormal in the entrywise inner product and its order is
    fixed by the eigensolver, so results are reproducible.
    """
    prob = _HomProblem(src, dst)
    n = prob.n_var
    if n == 0:
        return []
    gram = np.zeros((n, n), dtype=complex)
    for kl, kr, a_mat, b_mat in prob.constraint_pairs():
        has_l = kl in prob.offsets and a_mat.size
        has_r = kr in prob.offsets and b_mat.size
        if has_l:
            ol = prob.offsets[kl]
            dl, sl = prob.shapes[kl]
            blk = np.kron(a_mat.conj().T @ a_mat, np.eye(sl))
            gram[ol:ol + dl * sl, ol:ol + dl * sl] += blk
        if has_r:
            orr = prob.offsets[kr]
            dr, sr = prob.shapes[kr]
            blk = np.kron(np.eye(dr), b_mat.conj() @ b_mat.T)
            gram[orr:orr + dr * sr, orr:orr + dr * sr] += blk
        if has_l and has_r:
            ol, orr = prob.offsets[kl], prob.offsets[kr]
            dl, sl = prob.shapes[kl]
            dr, sr = prob.shapes[kr]
            cross = -np.kron(a_mat.conj().T, b_mat.T)
            gram[ol:ol + dl * sl, orr:orr + dr * sr] += cross
            gram[orr:orr + dr * sr, ol:ol + dl * sl] += cross.conj().T
    null_mask, evecs, smax = gram_null_space(gram, True, DecompositionError,
                                             "no clean spectral gap in hom system")
    fams = [prob.unflatten(evecs[:, i]) for i in np.nonzero(null_mask)[0]]
    for f in fams:
        r = prob.residual(f)
        if r > 1e-8 * max(1.0, smax):
            raise DecompositionError(f"kernel vector violates intertwining ({r:.3e})")
    return fams


# -- endomorphism splitting --------------------------------------------------


def _family_lincomb(fams, coeffs) -> IntertwinerFamily:
    blocks = {}
    for f, c in zip(fams, coeffs):
        for k, b in f.blocks.items():
            if k in blocks:
                blocks[k] = blocks[k] + c * b
            else:
                blocks[k] = c * b
    return IntertwinerFamily(blocks)


def _project_onto_span(fams, target: IntertwinerFamily) -> float:
    """Distance from `target` to the span of `fams` (all assumed orthonormal)."""
    v = target.flatten()
    for f in fams:
        b = f.flatten()
        v = v - (b.conj() @ v) * b
    return float(np.linalg.norm(v))


def adjoint_closure_defect(basis: list[IntertwinerFamily]) -> float:
    """How far the span of an orthonormal basis is from being adjoint-closed."""
    worst = 0.0
    for f in basis:
        worst = max(worst, _project_onto_span(basis, f.adjoint()))
    return worst


def end_minimal_projections(c: Connection, seed: int = 0) -> list[IntertwinerFamily]:
    """Pairwise-orthogonal minimal projections summing to one in End(c).

    Certifies that End(c) is closed under the slot-wise adjoint, draws a
    seeded random self-adjoint element, splits its spectrum globally across
    the vertex-pair blocks, and verifies each spectral projection is minimal.
    Reseeds on spectral collisions; raises after eight failures.
    """
    basis = hom_space(c, c)
    if not basis:
        raise DecompositionError("endomorphism algebra is empty")
    defect = adjoint_closure_defect(basis)
    if defect > 1e-6:
        raise DecompositionError(f"End(c) not closed under the adjoint (defect {defect:.3e})")
    prob = _HomProblem(c, c)

    for attempt in range(8):
        rng = np.random.default_rng(seed + attempt)
        coeffs = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
        a = _family_lincomb(basis, coeffs)
        s = IntertwinerFamily({k: a.blocks[k] + a.blocks[k].conj().T for k in a.blocks})

        items = []  # (eigenvalue, block key, eigenvector)
        for k, blk in s.blocks.items():
            evals, evecs = np.linalg.eigh(blk)
            for i, lam in enumerate(evals):
                items.append((float(lam), k, evecs[:, i]))
        items.sort(key=lambda it: it[0])
        spread = items[-1][0] - items[0][0] if len(items) > 1 else 1.0
        gap = max(1e-7, 1e-7 * spread)
        clusters: list[list] = [[items[0]]]
        for it in items[1:]:
            if it[0] - clusters[-1][-1][0] <= gap:
                clusters[-1].append(it)
            else:
                clusters.append([it])

        projections = []
        ok = True
        for cl in clusters:
            blocks = {k: np.zeros((prob.shapes[k][0], prob.shapes[k][0]), dtype=complex)
                      for k in prob.keys}
            for _, k, v in cl:
                blocks[k] += np.outer(v, v.conj())
            p = IntertwinerFamily(blocks)
            if _project_onto_span(basis, _normalized(p)) > 1e-7:
                ok = False
                break
            idem = max(float(np.max(np.abs(b @ b - b))) if b.size else 0.0
                       for b in p.blocks.values())
            if idem > 1e-9:
                ok = False
                break
            span = np.array([_compress_family(p, t).flatten() for t in basis])
            rank = np.linalg.matrix_rank(span, tol=1e-8 * max(1.0, float(np.abs(span).max())))
            if rank != 1:
                ok = False
                break
            projections.append(p)
        if ok:
            return projections
    raise DecompositionError("spectral-gap failure after 8 reseeds")


def _normalized(f: IntertwinerFamily) -> IntertwinerFamily:
    n = f.norm()
    return IntertwinerFamily({k: b / n for k, b in f.blocks.items()}) if n else f


def _compress_family(p: IntertwinerFamily, t: IntertwinerFamily) -> IntertwinerFamily:
    return IntertwinerFamily({k: p.blocks[k] @ t.blocks[k] @ p.blocks[k] for k in p.blocks})


def _phase_fix(vecs: np.ndarray) -> np.ndarray:
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        ph = out[i, j]
        out[:, j] *= np.conj(ph) / abs(ph)
    return out


def compress(c: Connection, p: IntertwinerFamily, tol: float = 1e-9) -> Connection:
    """The summand of `c` cut out by a self-adjoint projection in End(c).

    Chooses isometries v with v v* = p per vertex pair and conjugates every
    cell matrix; the output must pass the bi-unitarity check, which is
    enforced, since summands of bi-unitary connections are bi-unitary.
    """
    isometries: dict[tuple, np.ndarray] = {}
    ranks: dict[tuple, int] = {}
    for k, blk in p.blocks.items():
        if blk.size == 0:
            ranks[k] = 0
            continue
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
            for i in range(m.shape[0]):
                for j in range(m.shape[1]):
                    if m[i, j] != 0:
                        values[(f"p:{x}>{z}:{j}", t, f"p:{y}>{w}:{i}", b)] = m[i, j]

    out = Connection(c.top, left, c.bottom, right, c.mu, values, name=f"{c.name}[p]")
    rep = check_biunitarity(out, max(tol, 1e-8))
    if not rep.passed:
        raise DecompositionError(
            f"compressed connection fails bi-unitarity (residual {rep.max_residual:.3e}); "
            "the projection is not a valid endomorphism")
    return out


def decompose(c: Connection, seed: int = 0, tol: float = RANK_EPS) -> list[Connection]:
    """All irreducible summands of `c`, one per minimal projection."""
    return [compress(c, p, tol) for p in end_minimal_projections(c, seed)]


# -- fusion data --------------------------------------------------------------


@dataclass
class FusionData:
    """Label set of irreducible connections with all derived integer tables.

    ``d`` maps labels to Perron-Frobenius dimensions, ``w`` is the global
    index, ``n_table[(a, b, c)]`` counts c inside the product of a and b,
    ``m_table[a]`` is the vertical multiplicity matrix over the layer-0
    vertex order ``v0``, ``conj`` is the contragredient involution, and
    ``l_table[(a, n)]`` counts a inside the n-th power of the generating
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
    gamma: tuple[float, float] | None = None

    def fuse(self, a: str, b: str) -> dict[str, int]:
        return {cc: self.n_table[(a, b, cc)] for cc in self.labels if self.n_table[(a, b, cc)]}

    def multiplicities(self, n: int) -> dict[str, int]:
        """Multiplicities L_a^n of each label in the n-th power, by fusion recursion."""
        if n < 1:
            raise ValueError("n >= 1")
        have = {a: self.l_table.get((a, 1), 0) for a in self.labels}
        top = max((m for (_, m) in self.l_table), default=0)
        if top < 1:
            raise ValueError("first-power multiplicities are missing")
        for m in range(2, n + 1):
            if all((a, m) in self.l_table for a in self.labels):
                continue
            prev = {a: self.l_table[(a, m - 1)] for a in self.labels}
            cur = {c: 0 for c in self.labels}
            for a in self.labels:
                if not prev[a]:
                    continue
                for b in self.labels:
                    lb = self.l_table[(b, 1)]
                    if not lb:
                        continue
                    for c in self.labels:
                        nn = self.n_table[(b, a, c)]
                        if nn:
                            cur[c] += prev[a] * lb * nn
            for c in self.labels:
                self.l_table[(c, m)] = cur[c]
        return {a: self.l_table[(a, n)] for a in self.labels}


@dataclass
class _ClassEntry:
    label: str
    rep: Connection
    m: np.ndarray
    d: float
    first_n: int


def _left_multiplicity_matrix(c: Connection, v0: tuple[str, ...]) -> np.ndarray:
    m = np.zeros((len(v0), len(v0)), dtype=np.int64)
    for i, x in enumerate(v0):
        for j, z in enumerate(v0):
            m[i, j] = len(c.left.edges_between(x, z))
    return m


def _pf_dimension(m: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(m.astype(float)))))


def discover_irreducibles(w_conn: Connection, max_depth: int = 12, seed: int = 0,
                          tol: float = RANK_EPS):
    """Close the set of irreducible connections under multiplication by W W-bar.

    Returns ``(fusion_data, reps, w_normalized)`` where reps maps canonical
    labels to irreducible connections carrying the globally rescaled weights
    (so that the squared weights on layer 0 sum to the global index), and
    ``w_normalized`` is the input connection with the same rescaling.

    Breadth-first: each known class is multiplied by the product connection
    and the result is peeled into known classes by multiplicity counting;
    a full splitting runs only when unknown content remains.  Raises
    :class:`DepthExceededError` if new classes keep appearing past
    ``max_depth`` powers.
    """
    birep = check_biunitarity(w_conn, max(tol, 1e-8))
    if not birep.passed:
        raise ConnectionError(f"input connection is not bi-unitary (residual {birep.max_residual:.3e})")
    wt = vertical_product(w_conn, renormalize(w_conn, "bar"))
    g = w_conn.top
    v0 = tuple(sorted(set(g.src_vertices)))
    ident = build_identity(g, w_conn.mu)

    classes: list[_ClassEntry] = [
        _ClassEntry("?", ident, _left_multiplicity_matrix(ident, v0), 1.0, 0)]
    frontier = [classes[0]]
    depth = 0
    while frontier:
        depth += 1
        if depth > max_depth:
            raise DepthExceededError(
                f"label set still growing after {max_depth} powers; "
                "increase max_depth or check the tolerance")
        new_frontier: list[_ClassEntry] = []
        for entry in frontier:
            prod = vertical_product(entry.rep, wt)
            prod_m = _left_multiplicity_matrix(prod, v0)
            accounted = np.zeros_like(prod_m)
            for known in classes:
                mult = len(hom_space(known.rep, prod))
                accounted += mult * known.m
            if np.array_equal(accounted, prod_m):
                continue
            for summand in decompose(prod, seed=seed, tol=tol):
                sm = _left_multiplicity_matrix(summand, v0)
                match = None
                for known in classes:
                    if np.array_equal(known.m, sm) and len(hom_space(summand, known.rep)):
                        match = known
                        break
                if match is None:
                    entry_new = _ClassEntry("?", summand, sm, _pf_dimension(sm), depth)
                    classes.append(entry_new)
                    new_frontier.append(entry_new)
        frontier = new_frontier

    # canonical labels: dimension, then first power of appearance, then the matrix
    classes.sort(key=lambda e: (round(e.d, 9), e.first_n, tuple(e.m.reshape(-1))))
    for i, e in enumerate(classes):
        e.label = f"a{i}"
    identity_label = classes[0].label

    w_value = float(sum(e.d ** 2 for e in classes))
    s0 = sum(w_conn.mu[x] ** 2 for x in v0)
    factor = math.sqrt(w_value / s0)
    mu = {v: factor * m for v, m in w_conn.mu.items()}

    reps = {e.label: e.rep.with_mu({v: mu[v] for v in e.rep.mu}) for e in classes}
    w_norm = w_conn.with_mu(mu)
    wt_norm = wt.with_mu({v: mu[v] for v in wt.mu})

    labels = tuple(e.label for e in classes)
    d = {e.label: e.d for e in classes}
    m_table = {e.label: e.m for e in classes}

    n_table: dict[tuple[str, str, str], int] = {}
    for ea in classes:
        for eb in classes:
            prod = vertical_product(reps[eb.label], reps[ea.label])
            for ec in classes:
                n_table[(ea.label, eb.label, ec.label)] = len(hom_space(ec.rep, prod))

    conj = {}
    for ea in classes:
        bar = renormalize(reps[ea.label], "bar")
        partner = None
        for eb in classes:
            if np.array_equal(eb.m, ea.m.T) and len(hom_space(bar, reps[eb.label])):
                partner = eb.label
                break
        if partner is None:
            raise DecompositionError(f"no conjugate found for {ea.label}")
        conj[ea.label] = partner

    l_table = {(e.label, 1): len(hom_space(reps[e.label], wt_norm)) for e in classes}

    fd = FusionData(labels=labels, identity=identity_label, v0=v0, d=d, w=w_value,
                    n_table=n_table, m_table=m_table, conj=conj, l_table=l_table,
                    mu=mu, gamma=w_conn.gamma)
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


def sector_statistics(fd: FusionData, scheme, n: int) -> SectorStatistics:
    """Normalized path-count and power-multiplicity profiles at level n.

    ``kappa`` converges to mu_x / sqrt(w) over layer-0 vertices and ``lam``
    to d_a / sqrt(w) over labels as n grows; both are exact integer data
    before normalization.
    """
    counts = count_paths(alternating(scheme.h, 2 * n), scheme.base, 2 * n)
    k = {x: counts.get(x, 0) for x in fd.v0}
    alpha = math.sqrt(sum(v * v for v in k.values()))
    kappa = {x: v / alpha for x, v in k.items()}
    mult = fd.multiplicities(n)
    beta = math.sqrt(sum(v * v for v in mult.values()))
    lam = {a: v / beta for a, v in mult.items()}
    return SectorStatistics(n=n, path_counts=k, alpha=alpha, kappa=kappa,
                            power_multiplicities=mult, beta=beta, lam=lam)
