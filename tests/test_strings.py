"""String algebras: traces, transports, flat fields, and the proof relations."""

import numpy as np
import pytest

from biunitary import (
    Field,
    LadderEngine,
    TraceData,
    count_loops,
    flat_fields,
    mpo_O_tilde,
    pmpo_P_tilde,
    transport_T,
)
from biunitary import ConnectionError, StringBasis, renormalize, vertical_product
from biunitary.graphs import alternating
from biunitary.ladders import grid_counts
from biunitary.strings import _st2_gram, _vertical_tree

from conftest import ALL_BUILDERS


def edges_by_pair(conn):
    out = {}
    for e, s, r in conn.left.edges:
        out.setdefault((s, r), []).append(e)
    return out


def dense_flat_fields(w_conn, k):
    """Full-space oracle for ``flat_fields``: every constraint on all of B_k.

    Assembles the dense Gram matrix of the whole flatness system and returns
    the flat dimension with an st-2 orthonormal basis (None when the exact
    shortcut applies, which both solvers run first).
    """
    wt = vertical_product(w_conn, renormalize(w_conn, "bar"))
    basis = StringBasis(w_conn.top, k)
    lad = LadderEngine(wt).half_ladder(basis.pathset, k)
    total, scale = lad.pinned_defect(grid_counts(w_conn.top, k))
    if total <= 1e-20 * max(1.0, scale):
        return basis.dim, None
    n = basis.dim
    gram = np.zeros((n, n), dtype=complex)
    for (x, y), edges in sorted(edges_by_pair(wt).items()):
        sx, sy = basis.block_slices[x], basis.block_slices[y]
        eye = np.eye(sy.stop - sy.start)
        for z1 in edges:
            for z2 in edges:
                t = transport_T(lad, z1, z2, basis)
                gram[sx, sx] += t.conj().T @ t
                if z1 == z2:
                    gram[sx, sy] += -t.conj().T
                    gram[sy, sx] += -t
                    gram[sy, sy] += eye
    evals, evecs = np.linalg.eigh(gram)
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    cut = 1e-6 * max(float(sigma[-1]), 1.0)
    null = sigma <= cut
    nonzero = sigma[~null]
    assert not len(nonzero) or float(nonzero.min()) >= 50 * cut
    v = evecs[:, null]
    g = _st2_gram(basis, w_conn, k)
    ev, eu = np.linalg.eigh((v.conj().T * g[None, :]) @ v)
    return int(np.count_nonzero(null)), v @ eu @ np.diag(1.0 / np.sqrt(ev))


def st2_projector(vecs, g):
    """Orthogonal projector onto the span of an st-2 orthonormal basis."""
    return vecs @ (vecs.conj().T * g[None, :])


class TestTrace:
    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A5", "cyclic:3", "trivial:2"])
    def test_identity_has_trace_one(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3):
            sb, _ = bases_for(name, k)
            tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
            assert abs(tr.trace(Field.identity(sb)) - 1) < 1e-12

    def test_a3_single_unit_has_local_trace_one(self, systems, bases_for):
        s = systems("dynkin:A3")
        sb, _ = bases_for("dynkin:A3", 1)
        f = Field(sb)
        f.vec[sb.index_of(("G:1-2",), ("G:1-2",))] = 1.0
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        assert abs(tr.trace_at("0:1", f) - 1.0) < 1e-12

    def test_trivial_diagonal_unit(self, systems, bases_for):
        s = systems("trivial:2")
        sb, _ = bases_for("trivial:2", 1)
        f = Field(sb)
        f.vec[sb.index_of(("G:0",), ("G:0",))] = 1.0
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        assert abs(tr.trace_at("0:x", f) - 0.5) < 1e-12

    def test_unnormalized_weights_rejected(self, systems, bases_for):
        s = systems("dynkin:A3")
        sb, _ = bases_for("dynkin:A3", 1)
        bad = {v: 10 * m for v, m in s.wn.mu.items()}
        with pytest.raises(ValueError):
            TraceData(sb, bad, s.wn.gamma[0], s.fd.w)

    def test_norm_is_positive(self, systems, bases_for):
        s = systems("dynkin:A4")
        sb, _ = bases_for("dynkin:A4", 2)
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = Field(sb, rng.standard_normal(sb.dim) + 1j * rng.standard_normal(sb.dim))
            n2 = tr.norm_st2(f)
            assert n2 >= 0
            assert abs(n2 ** 2 - tr.inner(f, f).real) < 1e-10


class TestBasisDimensions:
    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A4", "dynkin:A7", "cyclic:4"])
    def test_string_space_equals_loop_count(self, systems, bases_for, name):
        s = systems(name)
        g = s.wn.top
        for k in (1, 2, 3):
            sb, lb = bases_for(name, k)
            loops = sum(count_loops(alternating(g, 2 * k), x, 2 * k)
                        for x in set(g.src_vertices))
            assert sb.dim == loops == lb.dim


class TestTransports:
    def test_identity_label_transport_is_identity(self, systems, bases_for):
        s = systems("dynkin:A4")
        rep = s.reps[s.fd.identity]
        for k in (1, 2):
            sb, _ = bases_for("dynkin:A4", k)
            lad = LadderEngine(rep).half_ladder(sb.pathset, k)
            for (x, y), edges in edges_by_pair(rep).items():
                for z in edges:
                    t = transport_T(lad, z, z, sb)
                    assert np.max(np.abs(t - np.eye(t.shape[0]))) < 1e-12

    def test_mismatched_boundary_edges_rejected(self, systems, bases_for):
        s = systems("dynkin:A3")
        rep = s.reps["a1"]
        sb, _ = bases_for("dynkin:A3", 1)
        pairs = edges_by_pair(rep)
        (z1,), (z2,) = (pairs[p] for p in sorted(pairs)[:2])
        lad = LadderEngine(rep).half_ladder(sb.pathset, 1)
        with pytest.raises(ConnectionError, match="^boundary edges must share both endpoints$"):
            transport_T(lad, z1, z2, sb)

    @pytest.mark.parametrize("name", ["trivial:2", "dynkin:A3", "dynkin:A4", "cyclic:3"])
    def test_diagonal_transport_sum_recovers_operator(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3):
            sb, _ = bases_for(name, k)
            for a in s.fd.labels:
                rep = s.reps[a]
                lad = LadderEngine(rep).half_ladder(sb.pathset, k)
                ot = mpo_O_tilde(rep, k, sb).matrix
                acc = np.zeros_like(ot)
                for (x, y), edges in edges_by_pair(rep).items():
                    sx, sy = sb.block_slices[x], sb.block_slices[y]
                    for z in edges:
                        acc[sy, sx] += transport_T(lad, z, z, sb)
                assert np.max(np.abs(acc - ot)) < 1e-12


class TestFlatFields:
    @pytest.mark.parametrize("name,dims", [
        ("dynkin:A3", (1, 2, 4, 8)),
        ("dynkin:A4", (1, 2, 5, 13)),
        ("trivial:2", (4, 16, 64, 256)),
    ])
    def test_dimensions(self, systems, name, dims):
        s = systems(name)
        for k, want in enumerate(dims, start=1):
            assert flat_fields(s.wn, k, return_basis=False).dimension == want

    def test_trivial_shortcut_is_exact(self, systems):
        s = systems("trivial:2")
        res = flat_fields(s.wn, 3, return_basis=False)
        assert res.exact and res.dimension == 64

    def test_basis_is_st2_orthonormal(self, systems):
        s = systems("dynkin:A4")
        res = flat_fields(s.wn, 3, return_basis=True)
        sb = res.basis
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        v = res.vectors
        gram = (v.conj().T * tr.gram[None, :]) @ v
        assert np.max(np.abs(gram - np.eye(res.dimension))) < 1e-9

    def test_two_level_flatness_propagates(self, systems, bases_for):
        # fields flat for the squared connection stay flat for its square
        from biunitary import renormalize, vertical_product
        s = systems("dynkin:A3")
        wt = vertical_product(s.wn, renormalize(s.wn, "bar"))
        wt2 = vertical_product(wt, wt)
        for k in (1, 2):
            res = flat_fields(s.wn, k, return_basis=True)
            sb = res.basis
            lad = LadderEngine(wt2).half_ladder(sb.pathset, k)
            for f in res.fields():
                for (x, y), edges in edges_by_pair(wt2).items():
                    for z1 in edges:
                        for z2 in edges:
                            got = transport_T(lad, z1, z2, sb) @ f.block(x)
                            want = f.vec[sb.block_slices[y]] if z1 == z2 else 0 * got
                            assert np.max(np.abs(got - want)) < 1e-10


class TestVertexBlockSolve:
    ORACLE_CASES = ([(name, k) for name in ALL_BUILDERS for k in (1, 2, 3, 4)]
                    + [("dynkin:D5", 5), ("dynkin:E6", 5), ("dynkin:A7", 5)])

    @pytest.mark.parametrize("name,k", ORACLE_CASES)
    def test_matches_dense_oracle(self, systems, name, k):
        wn = systems(name).wn
        want_dim, want_vecs = dense_flat_fields(wn, k)
        assert flat_fields(wn, k, return_basis=False).dimension == want_dim
        res = flat_fields(wn, k, return_basis=True)
        assert res.dimension == want_dim
        if want_vecs is None:
            assert res.exact
            return
        g = _st2_gram(res.basis, wn, k)
        got = st2_projector(res.vectors, g)
        want = st2_projector(want_vecs, g)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_tree_reaches_depth_two(self):
        by_pair = {("r", "r"): ["l"], ("r", "u"): ["e1", "e1b"],
                   ("u", "v"): ["e2"], ("v", "r"): ["e3"], ("u", "r"): ["e4"]}
        assert _vertical_tree(by_pair, "r") == [("r", "u", "e1"), ("u", "v", "e2")]

    def test_disconnected_graph_is_rejected(self):
        by_pair = {("a", "a"): ["e0"], ("a", "b"): ["e1"], ("c", "d"): ["e2"]}
        with pytest.raises(ConnectionError, match="c, d"):
            _vertical_tree(by_pair, "a")

    def test_isolated_required_vertex_is_rejected(self):
        by_pair = {("a", "b"): ["e1"], ("b", "a"): ["e2"]}
        assert _vertical_tree(by_pair, "a", ("a", "b")) == [("a", "b", "e1")]
        with pytest.raises(ConnectionError, match="z"):
            _vertical_tree(by_pair, "a", ("a", "b", "z"))


class TestReflectedInputs:
    @pytest.mark.parametrize("name,kind", [("dynkin:A4", "prime"),
                                           ("dynkin:A5", "bar"),
                                           ("dynkin:D4", "prime")])
    def test_rank_matches_flat_dimension_on_reflected_squares(self, name, kind):
        # the pipeline does not depend on the layer placement of the input
        from biunitary import (LoopBasis, StringBasis, discover_irreducibles,
                               operator_rank, pmpo_P, renormalize)
        from conftest import make_builder
        conn = renormalize(make_builder(name), kind)
        fd, reps, wn = discover_irreducibles(conn, seed=5)
        for k in (1, 2):
            lb = LoopBasis(StringBasis(wn.top, k), wn.mu)
            rank = operator_rank(pmpo_P(fd, reps, k, lb))
            assert rank == flat_fields(wn, k, return_basis=False).dimension


class TestProofRelations:
    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A4", "cyclic:3", "dynkin:D4"])
    def test_flat_fields_satisfy_all_three_displays(self, systems, bases_for, name):
        s = systems(name)
        v0 = s.fd.v0
        for k in (1, 2):
            res = flat_fields(s.wn, k, return_basis=True)
            sb = res.basis
            fields = res.fields()
            mu_vec = np.array([s.wn.mu[x] for x in sb.base])
            pt = pmpo_P_tilde(s.fd, s.reps, k, sb)
            for f in fields:
                # pinned transports act as deltas
                for a in s.fd.labels:
                    rep = s.reps[a]
                    lad = LadderEngine(rep).half_ladder(sb.pathset, k)
                    for (x, y), edges in edges_by_pair(rep).items():
                        for z1 in edges:
                            for z2 in edges:
                                got = transport_T(lad, z1, z2, sb) @ f.block(x)
                                want = f.vec[sb.block_slices[y]] if z1 == z2 else 0 * got
                                assert np.max(np.abs(got - want)) < 1e-9
                    # the string operator acts by vertical multiplicities
                    ot = mpo_O_tilde(rep, k, sb).matrix
                    for i_x, x in enumerate(v0):
                        probe = np.zeros(sb.dim, dtype=complex)
                        sx = sb.block_slices[x]
                        probe[sx] = f.vec[sx]
                        out = ot @ probe
                        for i_y, y in enumerate(v0):
                            sy = sb.block_slices[y]
                            want = s.fd.m_table[a][i_x, i_y] * f.vec[sy]
                            assert np.max(np.abs(out[sy] - want)) < 1e-9
                # the weighted field is fixed by the projector
                weighted = mu_vec * f.vec
                assert np.max(np.abs(pt.matrix @ weighted - weighted)) < 1e-9
