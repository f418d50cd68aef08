"""String algebras: traces, transports, flat fields, and the proof relations."""

import numpy as np
import pytest

import biunitary.ladders
import biunitary.nullspace
import biunitary.strings
from biunitary import (
    Field,
    LadderEngine,
    TraceData,
    flat_fields,
    mpo_O,
    pmpo_P,
)
from biunitary import ConnectionError, StringBasis, renormalize, vertical_product
from biunitary.ladders import grid_counts
from biunitary.graphs import LayeredGraph
from biunitary.strings import _constraint_blocks, _reach_tree, _st2_gram

from conftest import ALL_BUILDERS, make_builder
from loop_oracles import string_index
from path_oracles import count_loops
from string_oracles import trace_at
from transport_oracle import complex_flat_gram, stacks_of, transport_T


def edges_by_pair(conn):
    out = {}
    for e, s, r in conn.left.edges:
        out.setdefault((s, r), []).append(e)
    return out


def dense_flat_fields(w_conn, k):
    """Full-space oracle for ``flat_fields``: every constraint on all of B_k.

    Assembles the dense Gram matrix of the whole flatness system and returns
    the flat dimension with an st-2 orthonormal basis (None when the shortcut
    applies, which both solvers run first: one base vertex, and a pinned
    defect within the Frobenius skip (1e-6 / 2)^2).
    """
    wt = vertical_product(w_conn, renormalize(w_conn, "bar"))
    basis = StringBasis(w_conn.top, k)
    lad = LadderEngine(wt).half_ladder(basis.pathset, k)
    if (len(basis.base_vertices) == 1
            and lad.pinned_defect(grid_counts(w_conn.top, k)) <= (1e-6 / 2) ** 2):
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
        f.vec[string_index(sb, ("G:1-2",), ("G:1-2",))] = 1.0
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        assert abs(trace_at(sb, s.wn.mu, s.wn.gamma[0], "0:1", f) - 1.0) < 1e-12

    def test_trivial_diagonal_unit(self, systems, bases_for):
        s = systems("trivial:2")
        sb, _ = bases_for("trivial:2", 1)
        f = Field(sb)
        f.vec[string_index(sb, ("G:0",), ("G:0",))] = 1.0
        tr = TraceData(sb, s.wn.mu, s.wn.gamma[0], s.fd.w)
        assert abs(trace_at(sb, s.wn.mu, s.wn.gamma[0], "0:x", f) - 0.5) < 1e-12

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
            loops = sum(count_loops(g, x, 2 * k)
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
        x = rep.left.source(z1)
        stacks = stacks_of(sb, x, np.ones((1, sb.block_slices[x].stop - sb.block_slices[x].start)))
        row = next(key for key in sb.grids if key[0] == rep.left.range(z1))
        with pytest.raises(ConnectionError, match="^boundary edges must share both endpoints$"):
            lad.add_pinned_transport(z1, z2, stacks, row, slice(0, 1),
                                     np.zeros((1, 1, 1), dtype=complex))
        with pytest.raises(ConnectionError, match="^boundary edges must share both endpoints$"):
            transport_T(lad, z1, z2, sb)

    @pytest.mark.parametrize("name,k", [("dynkin:D5", 4), ("dynkin:E6", 3), ("cyclic:3", 3)])
    def test_stack_transport_matches_dense(self, systems, name, k):
        # every pinned pair of the flat system, on random fields at x
        wt = _constraint_blocks(systems(name).wn)
        sb = StringBasis(wt.top, k)
        lad = LadderEngine(wt).half_ladder(sb.pathset, k)
        rng = np.random.default_rng(7)
        for (x, y), edges in edges_by_pair(wt).items():
            shape = (3, sb.block_slices[x].stop - sb.block_slices[x].start)
            f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            stacks = stacks_of(sb, x, f)
            for z1 in edges:
                for z2 in edges:
                    want = stacks_of(sb, y, (transport_T(lad, z1, z2, sb) @ f.T).T)
                    for row, w in want.items():
                        # the whole grid, and its second half of columns
                        for cols in (slice(None), slice(w.shape[2] // 2, None)):
                            start = rng.standard_normal(w[:, :, cols].shape) + 0j
                            got = lad.add_pinned_transport(z1, z2, stacks, row, cols,
                                                           start.copy())
                            assert np.max(np.abs(got - start - w[:, :, cols])) < 1e-12

    @pytest.mark.parametrize("name", ["trivial:2", "dynkin:A3", "dynkin:A4", "cyclic:3"])
    def test_diagonal_transport_sum_recovers_operator(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3):
            sb, _ = bases_for(name, k)
            for a in s.fd.labels:
                rep = s.reps[a]
                lad = LadderEngine(rep).half_ladder(sb.pathset, k)
                ot = mpo_O(rep, k, sb).matrix
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
                            got = transport_T(lad, z1, z2, sb) @ f.vec[sb.block_slices[x]]
                            want = f.vec[sb.block_slices[y]] if z1 == z2 else 0 * got
                            assert np.max(np.abs(got - want)) < 1e-10


def st2_distance(res, wn, vecs):
    """The st-2 distance of each column of `vecs` to the flat space of `res`,
    relative to the largest st-2 norm of the columns (a product of two flat
    fields may vanish, and then only its rounding is left)."""
    g = _st2_gram(res.basis, wn, res.basis.k)
    rest = vecs - st2_projector(res.vectors, g) @ vecs
    norms = np.sum(np.abs(vecs) ** 2 * g[:, None], axis=0)
    return np.sqrt(np.sum(np.abs(rest) ** 2 * g[:, None], axis=0) / np.max(norms))


def embed_one_level(lower, upper, vecs):
    """Fields on B_{k-1} carried to B_k by f(p, q) -> f(pe, qe), the new last
    edge e summed: a string whose two paths end in one edge takes the value
    of the string of their prefixes, every other string zero."""
    short, long_ = lower.pathset.paths[lower.k], upper.pathset.paths[upper.k]
    index = {(short[i], short[j]): n for n, (i, j) in enumerate(zip(lower.p1_idx, lower.p2_idx))}
    out = np.zeros((upper.dim, vecs.shape[1]), dtype=complex)
    for n, (i, j) in enumerate(zip(upper.p1_idx, upper.p2_idx)):
        p, q = long_[i], long_[j]
        if p[-1] == q[-1]:
            out[n] = vecs[index[(p[:-1], q[:-1])]]
    return out


class TestFlatTower:
    """The flat spaces F_1 ⊂ F_2 ⊂ F_3 form a tower of *-algebras."""

    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:D5", "dynkin:E6"])
    def test_closed_under_product_and_adjoint(self, systems, name):
        wn = systems(name).wn
        for k in (1, 2, 3):
            res = flat_fields(wn, k)
            fields = res.fields()
            made = [f @ h for f in fields for h in fields] + [f.star() for f in fields]
            dist = st2_distance(res, wn, np.stack([f.vec for f in made], axis=1))
            assert np.max(dist) < 1e-12

    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:D5", "dynkin:E6"])
    def test_each_level_embeds_in_the_next(self, systems, name):
        wn = systems(name).wn
        lower = flat_fields(wn, 1)
        for k in (2, 3):
            upper = flat_fields(wn, k)
            up = embed_one_level(lower.basis, upper.basis, lower.vectors)
            assert np.linalg.matrix_rank(up) == lower.dimension
            assert np.max(st2_distance(upper, wn, up)) < 1e-12
            lower = upper


def root_block(conn, k):
    """dim B_k(*) of the flat solve's root: the smallest base-vertex block."""
    dims = {}
    for (x, _), n in grid_counts(conn.top, k).items():
        dims[x] = dims.get(x, 0) + n * n
    return min(dims.values())


class TestFrobeniusSkip:
    @pytest.fixture
    def gram_calls(self, monkeypatch):
        calls = []
        solve = biunitary.nullspace.gram_null_space

        def counted(gram, *args):
            calls.append(len(gram))
            return solve(gram, *args)

        monkeypatch.setattr(biunitary.nullspace, "gram_null_space", counted)
        return calls

    @pytest.mark.parametrize("name", [b for b in ALL_BUILDERS
                                      if b != "dynkin:D5" and not b.startswith("trivial")])
    def test_fires_on_flat_builders(self, systems, gram_calls, name):
        wn = systems(name).wn
        for k in (1, 2, 3, 4):
            res = flat_fields(wn, k, return_basis=k <= 2)
            assert not res.exact
            assert res.dimension == root_block(wn, k)
        assert gram_calls == []

    @pytest.mark.parametrize("name", ["dynkin:D5", "dynkin:E7"])
    def test_does_not_fire_below_the_root_block(self, systems, gram_calls, name):
        wn = systems(name).wn
        for k in (3, 4):
            assert flat_fields(wn, k, return_basis=False).dimension < root_block(wn, k)
        assert gram_calls == [root_block(wn, 3), root_block(wn, 4)]


def without_skip(patch):
    """No stack left out: the skip at -1 where the flat solve and the stacked
    null space read it."""
    patch.setattr(biunitary.strings, "FROBENIUS_SKIP_SQ", -1.0)
    patch.setattr(biunitary.nullspace, "FROBENIUS_SKIP_SQ", -1.0)


class TestOneVertexShortcut:
    """The shortcut is the Frobenius skip read off the half ladder, tried on
    one base vertex only."""

    @pytest.mark.parametrize("name,k", [("trivial:2", k) for k in (1, 2, 3)]
                             + [("trivial:3", k) for k in (1, 2)])
    def test_stacked_route_agrees_with_the_shortcut(self, systems, monkeypatch, name, k):
        wn = systems(name).wn
        short = flat_fields(wn, k)
        assert short.exact
        with monkeypatch.context() as m:
            without_skip(m)
            stacked = flat_fields(wn, k)
        assert not stacked.exact
        assert stacked.dimension == short.dimension == short.basis.dim
        g = _st2_gram(short.basis, wn, k)
        assert np.max(np.abs(st2_projector(stacked.vectors, g)
                             - st2_projector(short.vectors, g))) < 1e-12

    @pytest.mark.parametrize("name,kind", [("trivial:2", None), ("trivial:3", None),
                                           ("dynkin:A3", "prime"), ("dynkin:D4", "bar")])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pinned_defect_bounds_the_stacks(self, monkeypatch, name, kind, k):
        # one base vertex: every anchor is a loop, and the defect is sum |C|^2
        conn = make_builder(name) if kind is None else renormalize(make_builder(name), kind)
        counts = grid_counts(conn.top, k)
        assert len({x for x, _ in counts}) == 1
        seen, solve = [], biunitary.strings.stacked_null_space

        def summed(n, stacks, vectors):
            stacks = list(stacks)
            seen.append(sum(float(np.vdot(c, c).real) for c in stacks))
            return solve(n, stacks, vectors)

        monkeypatch.setattr(biunitary.strings, "stacked_null_space", summed)
        without_skip(monkeypatch)
        flat_fields(conn, k, return_basis=False)
        wt = _constraint_blocks(conn)
        lad = LadderEngine(wt).half_ladder(StringBasis(conn.top, k).pathset, k)
        defect = lad.pinned_defect(counts)
        (norm2,) = seen
        assert abs(defect - norm2) <= 1e-12 * max(1.0, defect)

    def test_only_one_vertex_solves_read_the_defect(self, systems, monkeypatch):
        calls = []
        defect = biunitary.ladders.Ladder.pinned_defect

        def counted(lad, counts):
            calls.append(len({x for x, _ in counts}))
            return defect(lad, counts)

        monkeypatch.setattr(biunitary.ladders.Ladder, "pinned_defect", counted)
        for name in ("trivial:3", "dynkin:D5", "cyclic:5", "dynkin:E6"):
            for k in (1, 2, 3):
                flat_fields(systems(name).wn, k, return_basis=False)
        assert calls == [1, 1, 1]


class TestRealGram:
    """The real Gram in Hermitian coordinates, one constraint per adjoint pair,
    against the complex Gram on unit strings over every anchor pair."""

    @pytest.mark.parametrize("name,k", [("dynkin:D5", 5), ("dynkin:E7", 4), ("dynkin:E6", 4),
                                        ("cyclic:4", 3)])
    def test_same_spectrum_as_the_complex_gram(self, systems, monkeypatch, name, k):
        wn = systems(name).wn
        grams, solve = [], biunitary.nullspace.gram_null_space

        def kept(gram, *args):
            grams.append(gram)
            return solve(gram, *args)

        monkeypatch.setattr(biunitary.nullspace, "gram_null_space", kept)
        monkeypatch.setattr(biunitary.nullspace, "FROBENIUS_SKIP_SQ", -1.0)    # no stack left out
        dim = flat_fields(wn, k, return_basis=False).dimension
        (gram,) = grams
        assert gram.dtype == np.float64
        got = np.linalg.eigvalsh(gram)
        want = np.linalg.eigvalsh(complex_flat_gram(wn, k))
        scale = max(1.0, float(want[-1]))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        # the same cut: the largest dropped and the smallest kept eigenvalue
        assert dim == np.count_nonzero(solve(np.diag(want), False, RuntimeError, "oracle")[0])
        assert abs(got[dim - 1] - want[dim - 1]) <= 1e-12 * scale
        if dim < len(want):
            assert abs(got[dim] - want[dim]) <= 1e-12 * want[dim]


def vertical_graph(edges):
    """A vertical graph on one layer with the given ``(edge, x, y)`` edges."""
    return LayeredGraph("V", [(v, 0) for _, x, y in edges for v in (x, y)], edges, 0, 0)


class TestVertexBlockSolve:
    ORACLE_CASES = ([(name, k) for name in ALL_BUILDERS for k in (1, 2, 3, 4)]
                    + [("dynkin:D5", 5), ("dynkin:D5", 6), ("dynkin:E6", 5), ("dynkin:A7", 5),
                       ("dynkin:E7", 5)])

    @pytest.mark.parametrize("name,k", ORACLE_CASES)
    def test_matches_dense_oracle(self, systems, monkeypatch, name, k):
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
        # without the floor, each transport chunk is Gram-sized or one column
        monkeypatch.setattr(biunitary.strings, "CHUNK_FLOOR_ENTRIES", 1)
        assert flat_fields(wn, k, return_basis=False).dimension == want_dim
        res = flat_fields(wn, k, return_basis=True)
        assert res.dimension == want_dim
        assert np.max(np.abs(st2_projector(res.vectors, g) - want)) < 1e-12

    def test_tree_reaches_depth_two(self):
        g = vertical_graph([("l", "r", "r"), ("e1", "r", "u"), ("e1b", "r", "u"),
                                 ("e2", "u", "v"), ("e3", "v", "r"), ("e4", "u", "r")])
        assert _reach_tree(g, "r") == [("r", "u", "e1"), ("u", "v", "e2")]

    def test_disconnected_graph_is_rejected(self):
        g = vertical_graph([("e0", "a", "a"), ("e1", "a", "b"), ("e2", "c", "d")])
        with pytest.raises(ConnectionError, match="c, d"):
            _reach_tree(g, "a")

    def test_isolated_required_vertex_is_rejected(self):
        g = vertical_graph([("e1", "a", "b"), ("e2", "b", "a")])
        assert _reach_tree(g, "a", ("a", "b")) == [("a", "b", "e1")]
        with pytest.raises(ConnectionError, match="z"):
            _reach_tree(g, "a", ("a", "b", "z"))


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
            pt = pmpo_P(s.fd, s.reps, k, sb)
            for f in fields:
                # pinned transports act as deltas
                for a in s.fd.labels:
                    rep = s.reps[a]
                    lad = LadderEngine(rep).half_ladder(sb.pathset, k)
                    for (x, y), edges in edges_by_pair(rep).items():
                        for z1 in edges:
                            for z2 in edges:
                                got = transport_T(lad, z1, z2, sb) @ f.vec[sb.block_slices[x]]
                                want = f.vec[sb.block_slices[y]] if z1 == z2 else 0 * got
                                assert np.max(np.abs(got - want)) < 1e-9
                    # the string operator acts by vertical multiplicities
                    ot = mpo_O(rep, k, sb).matrix
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
