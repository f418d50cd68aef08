"""Intertwiner spaces, splitting, discovery, fusion data, statistics."""

import math
import re
from collections import Counter

import numpy as np
import pytest

import biunitary.decomp
import biunitary.nullspace
from biunitary import (
    DecompositionError,
    DepthExceededError,
    Connection,
    build_dynkin,
    build_identity,
    check_biunitarity,
    compress,
    discover_irreducibles,
    end_minimal_projections,
    hom_space,
    renormalize,
    sector_statistics,
    vertical_product,
)
from biunitary.decomp import (
    _HomProblem,
    _MultiplicitySolver,
    _hom_kernel,
    _span_distance,
    _vertical_counts,
)
from biunitary.nullspace import HOM_RESIDUAL_EPS, RANK_EPS

from conftest import ALL_BUILDERS, make_builder
from fusion_oracle import hom_conjugates, hom_fusion_tables
from hom_oracle import full_gram_hom_kernel

GOLDEN = (1 + math.sqrt(5)) / 2


def wtilde(conn):
    return vertical_product(conn, renormalize(conn, "bar"))


class TestHomSpace:
    def test_schur_for_irreducible(self):
        c = build_dynkin("A3")
        ident = build_identity(c.top, c.mu)
        assert len(hom_space(ident, ident)) == 1

    def test_identity_multiplicity_in_product(self, systems):
        s = systems("dynkin:A3")
        wt = wtilde(s.wn)
        ident = build_identity(s.wn.top, s.wn.mu)
        assert len(hom_space(ident, wt)) == 1

    def test_inequivalent_summands_have_no_homs(self, systems):
        s = systems("dynkin:A3")
        assert len(hom_space(s.reps["a0"], s.reps["a1"])) == 0

    def test_basis_is_orthonormal(self, systems):
        s = systems("trivial:2")
        wt = wtilde(s.wn)
        basis = hom_space(wt, wt)
        assert len(basis) == 16
        flat = np.array(basis)
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10

    def test_adjoint_closure(self, systems):
        for name in ("dynkin:A4", "cyclic:3"):
            s = systems(name)
            wt = wtilde(s.wn)
            kern = np.array(hom_space(wt, wt))
            assert np.max(_span_distance(kern, _HomProblem(wt, wt).adjoint(kern))) < 1e-10

    def test_kernel_vectors_are_checked_against_the_equations(self, monkeypatch):
        # a Gram cut above every singular value declares non-solutions null
        monkeypatch.setattr(biunitary.nullspace, "GRAM_EPS", 10.0)
        wt = wtilde(build_dynkin("A3"))
        with pytest.raises(DecompositionError, match="^kernel vector violates intertwining "):
            hom_space(wt, wt)

    def test_stacked_residual_flags_one_perturbed_kernel_vector(self, systems):
        wt = wtilde(systems("dynkin:A4").wn)
        prob = _HomProblem(wt, wt)
        kern = np.array(hom_space(wt, wt))
        assert prob.residual(kern) < HOM_RESIDUAL_EPS
        bad = kern.copy()
        bad[1] += 1e-4 * np.random.default_rng(0).standard_normal(prob.n_var)
        assert prob.residual(bad) > HOM_RESIDUAL_EPS
        # one pass over the stack is the worst of the per-vector residuals
        assert prob.residual(bad) == max(prob.residual(v[None]) for v in bad)

    @pytest.mark.parametrize("case", ["dynkin:E7 product", "trivial:3 product", "dynkin:A3 a0 a1"])
    def test_each_constraint_pair_is_listed_once(self, systems, case):
        name, _, what = case.partition(" ")
        s = systems(name)
        if what == "product":
            src = dst = wtilde(s.wn)
        else:
            src, dst = (s.reps[a] for a in what.split())
        prob = _HomProblem(src, dst)
        want = []
        for t, x, y in src.top.edges:
            for b, z, w in src.bottom.edges:
                kl = ("L", x, z) if (dst.left.edges_between(x, z)
                                     and src.left.edges_between(x, z)) else None
                kr = ("R", y, w) if (dst.right.edges_between(y, w)
                                     and src.right.edges_between(y, w)) else None
                if kl or kr:
                    want.append((kl, kr, dst.cell_matrix(t, b), src.cell_matrix(t, b)))
        assert [p[:2] for p in prob.pairs] == [p[:2] for p in want]
        for got, exp in zip(prob.pairs, want):
            assert np.array_equal(got[2], exp[2]) and np.array_equal(got[3], exp[3])
        assert prob.residual(_hom_kernel(prob)) < HOM_RESIDUAL_EPS

    def test_a_problem_built_but_not_solved_reads_no_cell(self, monkeypatch):
        wt = wtilde(build_dynkin("A4"))
        read = []
        cell_matrix = type(wt).cell_matrix
        monkeypatch.setattr(type(wt), "cell_matrix",
                            lambda c, t, b: read.append((t, b)) or cell_matrix(c, t, b))
        prob = _HomProblem(wt, wt)
        assert prob.n_var and prob.keys
        assert read == []
        # solving reads the cells once per constraint pair and side
        assert len(_hom_kernel(prob)) == 2  # A4: W W-bar is 1 + a1
        assert len(read) == 2 * len(prob.pairs) > 0


def discovered_problems(conn):
    """Every hom problem that discovery on `conn` solves, in order."""
    probs, kernel = [], biunitary.decomp._hom_kernel
    with pytest.MonkeyPatch.context() as m:
        m.setattr(biunitary.decomp, "_hom_kernel", lambda prob: probs.append(prob) or kernel(prob))
        discover_irreducibles(conn)
    return probs


DISCOVERED = ALL_BUILDERS + ["dynkin:E7", "dynkin:D7"]


class TestSchurKernel:
    """The hom kernel on the Schur complement against the full-Gram oracle."""

    @pytest.mark.parametrize("name", DISCOVERED)
    def test_same_kernel_as_the_full_gram(self, name):
        probs = discovered_problems(make_builder(name))
        assert probs
        for prob in probs:
            kern, want = _hom_kernel(prob), full_gram_hom_kernel(prob)
            assert kern.shape == want.shape
            assert np.max(np.abs(kern.conj().T @ kern - want.conj().T @ want), initial=0) < 1e-12

    @pytest.mark.parametrize("name", DISCOVERED)
    def test_each_square_is_a_degree_times_the_identity(self, name):
        # an L key (x, z) gets the bottom edges out of z, an R key (y, w) the top edges into y
        for prob in discovered_problems(make_builder(name)):
            src = prob._src
            out_of = Counter(z for _, z, _ in src.bottom.edges)
            into = Counter(y for _, _, y in src.top.edges)
            squares = {}
            for kl, kr, a_mat, b_mat in prob.pairs:
                if kl:
                    squares[kl] = squares.get(kl, 0) + a_mat.conj().T @ a_mat
                if kr:
                    squares[kr] = squares.get(kr, 0) + b_mat.conj() @ b_mat.T
            assert squares.keys() == set(prob.keys)
            for (side, u, v), sq in squares.items():
                deg = out_of[v] if side == "L" else into[u]
                assert np.max(np.abs(sq - deg * np.eye(len(sq)))) < 1e-13

    def test_a_zeroed_cell_block_is_refused(self):
        # on the A3 product the key (L, x, x) at an end vertex x meets one cell block
        wt = wtilde(build_dynkin("A3"))
        uses = Counter(kl for kl, _, _, _ in _HomProblem(wt, wt).pairs)
        t, b, key = next((t, b, ("L", x, z)) for t, x, _ in wt.top.edges
                         for b, z, _ in wt.bottom.edges if uses[("L", x, z)] == 1)
        values = {c: v for c, v in wt.values.items() if (c.top, c.bottom) != (t, b)}
        zeroed = Connection(wt.top, wt.left, wt.bottom, wt.right, wt.mu, values)
        assert not zeroed.cell_matrix(t, b).any() and wt.cell_matrix(t, b).any()
        with pytest.raises(DecompositionError,
                           match=f"^hom system square at {re.escape(str(key))} is not positive definite$"):
            hom_space(zeroed, zeroed)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ["D5", "D7", "E7"])
    def test_labels_do_not_follow_the_kernel_basis(self, monkeypatch, name, seed):
        def discover():
            calls, hom = [], biunitary.decomp.hom_space
            with pytest.MonkeyPatch.context() as m:
                m.setattr(biunitary.decomp, "hom_space",
                          lambda src, dst: calls.append(src) or hom(src, dst))
                fd, _, _ = discover_irreducibles(build_dynkin(name), seed=seed)
            return fd, len(calls)

        want, want_solves = discover()
        kernel = biunitary.decomp._hom_kernel
        for rotation in range(3):
            rng = np.random.default_rng(100 + 10 * seed + rotation)

            def rotated(prob):     # the same space in another orthonormal basis
                kern = kernel(prob)
                z = rng.standard_normal((len(kern),) * 2) + 1j * rng.standard_normal((len(kern),) * 2)
                return np.linalg.qr(z)[0] @ kern

            monkeypatch.setattr(biunitary.decomp, "_hom_kernel", rotated)
            got, got_solves = discover()
            assert got.labels == want.labels and got_solves == want_solves
            assert (got.n_table, got.conj, got.l_table) == (want.n_table, want.conj, want.l_table)
            assert all(np.array_equal(got.m_table[a], want.m_table[a]) for a in want.labels)

    @pytest.mark.parametrize("name", ["D5", "D7", "E6", "E7", "A11"])
    def test_the_label_key_separates_every_class(self, monkeypatch, name):
        # a tie on the full key would leave its classes in discovery order, which
        # follows the kernel basis; E7 has two classes with equal d, M_L and M_R
        made, entry = [], biunitary.decomp._ClassEntry
        monkeypatch.setattr(biunitary.decomp, "_ClassEntry",
                            lambda *a: made.append(entry(*a)) or made[-1])
        discover_irreducibles(build_dynkin(name))
        keys = [(round(e.d, 9), e.first_n, tuple(_vertical_counts(e.rep).flat)) for e in made]
        assert len(set(keys)) == len(keys)
        if name == "E7":
            assert len({k[:1] + k[2:] for k in keys}) == len(keys) - 1


class TestSplitting:
    def test_irreducible_yields_identity_projection(self):
        c = build_dynkin("A3")
        ident = build_identity(c.top, c.mu)
        projs = end_minimal_projections(ident, seed=0)
        assert len(projs) == 1
        for blk in projs[0].values():
            assert np.max(np.abs(blk - np.eye(blk.shape[0]))) < 1e-10

    def test_a3_product_splits_in_two(self, systems):
        s = systems("dynkin:A3")
        assert len(end_minimal_projections(wtilde(s.wn), seed=1)) == 2

    def test_trivial_product_splits_in_four(self, systems):
        s = systems("trivial:2")
        assert len(end_minimal_projections(wtilde(s.wn), seed=1)) == 4

    @pytest.mark.parametrize("name", ALL_BUILDERS)
    def test_product_splits_into_its_first_power_multiplicities(self, systems, name):
        s = systems(name)
        projs = end_minimal_projections(wtilde(s.wn), seed=1)
        assert len(projs) == sum(s.fd.l_table[(a, 1)] for a in s.fd.labels)
        for k, blk in projs[0].items():
            ps = [p[k] for p in projs]
            assert np.max(np.abs(sum(ps) - np.eye(blk.shape[0]))) < 1e-12
            for i, p in enumerate(ps):
                for q in ps[i + 1:]:
                    assert np.max(np.abs(p @ q)) < 1e-12
                    assert np.max(np.abs(q @ p)) < 1e-12

    def test_a_space_not_closed_under_the_adjoint_is_refused(self, monkeypatch, systems):
        monkeypatch.setattr(biunitary.decomp, "ADJOINT_CLOSURE_EPS", -1.0)
        with pytest.raises(DecompositionError, match="^End\\(c\\) not closed under the adjoint "):
            end_minimal_projections(wtilde(systems("dynkin:A3").wn))

    def test_a_minimality_gap_failure_reseeds(self, monkeypatch, systems):
        # the first attempt's compressions get a second singular value within
        # the gap of the cut, so the second attempt, at seed + 1, decides
        wt = wtilde(systems("dynkin:A4").wn)
        want = end_minimal_projections(wt, seed=1)
        rule, calls = biunitary.decomp.null_mask, []

        def ungapped(sigma, *args):
            calls.append(len(calls))
            if len(calls) == 1:
                sigma = sigma.copy()
                sigma[0, 1] = 10 * RANK_EPS * max(1.0, sigma[0, 0])
            return rule(sigma, *args)

        monkeypatch.setattr(biunitary.decomp, "null_mask", ungapped)
        got = end_minimal_projections(wt, seed=0)
        assert calls == [0, 1]
        assert len(got) == len(want) == 2
        for p, q in zip(got, want):
            assert all(np.array_equal(p[k], q[k]) for k in q)

    def test_eight_minimality_gap_failures_are_refused(self, monkeypatch, systems):
        calls = []

        def ungapped(sigma, eps, error, prefix):
            calls.append(prefix)
            raise error(prefix)

        monkeypatch.setattr(biunitary.decomp, "null_mask", ungapped)
        with pytest.raises(DecompositionError, match="^spectral-gap failure after 8 reseeds$"):
            end_minimal_projections(wtilde(systems("dynkin:A4").wn))
        assert calls == ["minimality test has no clean spectral gap"] * 8

    def test_compress_identity_projection(self, systems):
        s = systems("dynkin:A3")
        wt = wtilde(s.wn)
        basis = hom_space(wt, wt)
        projs = end_minimal_projections(wt, seed=2)
        total = {k: sum(p[k] for p in projs) for k in projs[0]}
        for blk in total.values():
            assert np.max(np.abs(blk - np.eye(blk.shape[0]))) < 1e-9
        out = compress(wt, projs[0])
        assert check_biunitarity(out, 1e-9).passed

    def test_a3_summand_dimensions(self, systems):
        s = systems("dynkin:A3")
        c = wtilde(s.wn)
        summands = [compress(c, p) for p in end_minimal_projections(c, 4)]
        dims = sorted(float(np.max(np.abs(np.linalg.eigvals(
            x.left.adjacency().astype(float))))) for x in summands)
        assert np.allclose(dims, [1.0, 1.0], atol=1e-10)

    def test_a4_nontrivial_summand_has_golden_dimension(self, systems):
        s = systems("dynkin:A4")
        assert abs(s.fd.d["a1"] - GOLDEN) < 1e-8

    def test_reseeding_stability(self):
        conn = build_dynkin("A4")
        profiles = []
        for seed in (0, 1, 2):
            fd, _, _ = discover_irreducibles(conn, seed=seed)
            profiles.append(sorted((round(fd.d[a], 9), fd.m_table[a].tobytes())
                                   for a in fd.labels))
        assert profiles[0] == profiles[1] == profiles[2]


class TestDiscovery:
    @pytest.mark.parametrize("name,nv,w", [
        ("dynkin:A3", 2, 2.0),
        ("dynkin:A4", 2, (5 + math.sqrt(5)) / 2),
        ("dynkin:A5", 3, 6.0),
        ("trivial:2", 1, 1.0),
        ("cyclic:2", 2, 2.0),
        ("cyclic:3", 3, 3.0),
    ])
    def test_label_counts_and_global_index(self, systems, name, nv, w):
        s = systems(name)
        assert len(s.fd.labels) == nv
        assert abs(s.fd.w - w) < 1e-6

    def test_depth_cap_raises(self):
        with pytest.raises(DepthExceededError):
            discover_irreducibles(build_dynkin("A7"), max_depth=1)

    def test_mu_rescaled_to_global_index(self, systems):
        s = systems("dynkin:A4")
        assert abs(sum(s.fd.mu[x] ** 2 for x in s.fd.v0) - s.fd.w) < 1e-10

    def test_power_multiplicities_match_direct_homs(self, systems):
        # recursion through the fusion table against independent hom counting
        s = systems("dynkin:A3")
        wt = wtilde(s.wn)
        wt2 = vertical_product(wt, wt)
        direct = {a: len(hom_space(s.reps[a], wt2)) for a in s.fd.labels}
        assert direct == s.fd.multiplicities(2)

    def test_a4_power_two_decomposition(self, systems):
        s = systems("dynkin:A4")
        mult = s.fd.multiplicities(2)
        total = sum(mult[a] * s.fd.d[a] for a in s.fd.labels)
        assert abs(total - s.wn.gamma[1] ** 4) < 1e-8
        wt = wtilde(s.wn)
        wt2 = vertical_product(wt, wt)
        direct = {a: len(hom_space(s.reps[a], wt2)) for a in s.fd.labels}
        assert direct == mult


class TestFusionData:
    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:A5", "cyclic:4", "dynkin:D4"])
    def test_ring_axioms(self, systems, name):
        fd = systems(name).fd
        labels = fd.labels
        # unit
        for a in labels:
            for b in labels:
                assert fd.n_table[(fd.identity, a, b)] == (1 if a == b else 0)
                assert fd.n_table[(a, fd.identity, b)] == (1 if a == b else 0)
        # associativity
        for a in labels:
            for b in labels:
                for cc in labels:
                    for dd in labels:
                        lhs = sum(fd.n_table[(a, b, e)] * fd.n_table[(e, cc, dd)]
                                  for e in labels)
                        rhs = sum(fd.n_table[(b, cc, f)] * fd.n_table[(a, f, dd)]
                                  for f in labels)
                        assert lhs == rhs
        # dimension homomorphism
        for a in labels:
            for b in labels:
                total = sum(fd.n_table[(a, b, cc)] * fd.d[cc] for cc in labels)
                assert abs(fd.d[a] * fd.d[b] - total) < 1e-8
        # conjugation pairs with the unit
        for a in labels:
            assert fd.conj[fd.conj[a]] == a
            for b in labels:
                assert fd.n_table[(a, b, fd.identity)] == (1 if b == fd.conj[a] else 0)

    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:A6", "cyclic:3"])
    def test_frobenius_reciprocity_of_vertical_counts(self, systems, name):
        fd = systems(name).fd
        for a in fd.labels:
            assert np.array_equal(fd.m_table[a], fd.m_table[fd.conj[a]].T)

    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:A7", "cyclic:5"])
    def test_weighted_multiplicity_identity(self, systems, name):
        fd = systems(name).fd
        mu = np.array([fd.mu[x] for x in fd.v0])
        total = np.zeros(len(fd.v0))
        for a in fd.labels:
            total += fd.d[a] * (mu @ fd.m_table[a])
        assert np.max(np.abs(total - fd.w * mu)) < 1e-8

    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:A5"])
    def test_vertical_eigenvector_relation(self, systems, name):
        fd = systems(name).fd
        mu = np.array([fd.mu[x] for x in fd.v0])
        for a in fd.labels:
            assert np.max(np.abs(fd.m_table[a] @ mu - fd.d[a] * mu)) < 1e-8


ORACLE_BUILDERS = ALL_BUILDERS + ["dynkin:E7", "dynkin:A11", "dynkin:A15"]


@pytest.fixture(scope="module")
def oracle_tables(systems):
    """name -> ``(n_table, l_table, conj)`` of the all-hom oracle, computed once."""
    cache = {}

    def get(name):
        if name not in cache:
            s = systems(name)
            cache[name] = (*hom_fusion_tables(s.fd, s.reps, s.wn), hom_conjugates(s.fd, s.reps))
        return cache[name]

    return get


def left_counts(conn):
    """Left multiplicity matrix over sorted source and range vertices."""
    g = conn.left
    return np.array([[len(g.edges_between(x, z)) for z in sorted(g.rng_vertices)]
                     for x in sorted(g.src_vertices)])


class TestIntegerFusion:
    @pytest.mark.parametrize("name", ALL_BUILDERS)
    def test_left_adjacency_is_in_v0_order(self, systems, name):
        """Discovery reads multiplicity matrices as ``left.adjacency()``: rows and
        columns must be the layer-0 vertices in ``fd.v0`` order."""
        s = systems(name)
        v0 = s.fd.v0
        for c in [*s.reps.values(), wtilde(s.wn)]:
            assert c.left.src_vertices == c.left.rng_vertices == v0
            counts = [[len(c.left.edges_between(x, z)) for z in v0] for x in v0]
            assert np.array_equal(c.left.adjacency(), counts)

    @pytest.mark.parametrize("name", ORACLE_BUILDERS)
    def test_tables_match_the_hom_oracle(self, systems, oracle_tables, name):
        s = systems(name)
        n_table, l_table, conj = oracle_tables(name)
        assert list(n_table.items()) == list(s.fd.n_table.items())
        assert l_table == {(a, 1): s.fd.l_table[(a, 1)] for a in s.fd.labels}
        assert conj == s.fd.conj

    @pytest.mark.parametrize("name", ORACLE_BUILDERS)
    def test_oracle_tables_satisfy_duality_and_associativity(self, systems, oracle_tables, name):
        labels = systems(name).fd.labels
        n_table, _, conj = oracle_tables(name)
        for (a, b, c), n in n_table.items():
            assert n == n_table[(conj[a], c, b)] == n_table[(c, conj[b], a)]
            assert n == n_table[(conj[b], conj[a], conj[c])]
        n = np.array([[[n_table[(a, b, c)] for c in labels] for b in labels] for a in labels])
        assert np.array_equal(np.einsum("abe,ecf->abcf", n, n), np.einsum("bce,aef->abcf", n, n))

    @pytest.mark.parametrize("name", ["dynkin:A4", "dynkin:A7", "dynkin:D5", "dynkin:E6"])
    def test_vertical_product_composes_left_edges_top_then_bottom(self, systems, name):
        w = systems(name).wn
        wbar = renormalize(w, "bar")
        m, mbar = left_counts(w), left_counts(wbar)
        # W W-bar lives on the even vertices and W-bar W on the odd ones
        w_first, wbar_first = m @ mbar, mbar @ m
        assert w_first.shape != wbar_first.shape or not np.array_equal(w_first, wbar_first)
        assert np.array_equal(left_counts(vertical_product(w, wbar)), w_first)
        assert np.array_equal(left_counts(vertical_product(wbar, w)), wbar_first)

    @pytest.mark.parametrize("name", ["dynkin:D5", "dynkin:E6"])
    def test_label_products_have_matrix_products(self, systems, name):
        s = systems(name)
        for a in s.fd.labels:
            for b in s.fd.labels:
                prod = vertical_product(s.reps[b], s.reps[a])
                assert np.array_equal(prod.left.adjacency(),
                                      s.fd.m_table[b] @ s.fd.m_table[a])

    @pytest.mark.parametrize("name,n_free", [("dynkin:A7", 0), ("dynkin:D5", 2),
                                             ("dynkin:E7", 3)])
    def test_free_label_counts(self, systems, name, n_free):
        fd = systems(name).fd
        assert len(_MultiplicitySolver([fd.m_table[a] for a in fd.labels]).free) == n_free

    @pytest.mark.parametrize("name,n_free", [("dynkin:A7", 0), ("dynkin:D5", 1),
                                             ("dynkin:E7", 2), ("dynkin:D7", 2)])
    def test_free_label_counts_on_both_vertical_graphs(self, systems, name, n_free):
        s = systems(name)
        counts = {a: _vertical_counts(s.reps[a]) for a in s.fd.labels}
        assert len(_MultiplicitySolver(list(counts.values())).free) == n_free
        # the left block is M_a, and the identity holds on the right graphs as well
        nl = len(s.fd.v0)
        for a in s.fd.labels:
            assert np.array_equal(counts[a][:nl, :nl], s.fd.m_table[a])
            assert not counts[a][:nl, nl:].any() and not counts[a][nl:, :nl].any()
            for b in s.fd.labels:
                total = sum(s.fd.n_table[(a, b, c)] * counts[c] for c in s.fd.labels)
                assert np.array_equal(total, counts[b] @ counts[a])

    @staticmethod
    def table_calls(monkeypatch, conn):
        """Discovery on ``conn``, and the hom solves and the products made while
        filling its tables."""
        calls = {"hom_space": 0, "vertical_product": 0}
        tables = biunitary.decomp._fusion_tables

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        def counted_tables(*args):
            with pytest.MonkeyPatch.context() as m:
                for name in calls:
                    m.setattr(biunitary.decomp, name, counting(name, getattr(biunitary.decomp, name)))
                return tables(*args)

        monkeypatch.setattr(biunitary.decomp, "_fusion_tables", counted_tables)
        fd, _, _ = discover_irreducibles(conn)
        return fd, calls["hom_space"], calls["vertical_product"]

    def test_full_rank_discovery_solves_no_hom_for_the_tables(self, monkeypatch):
        fd, solves, products = self.table_calls(monkeypatch, build_dynkin("A7"))
        assert len(fd.labels) == 4
        assert solves == products == 0

    @pytest.mark.parametrize("name,searches,entries,products", [
        pytest.param("D5", 8, 10, 10, id="D5"),
        pytest.param("E7", 12, 27, 21, id="E7"),
        pytest.param("D7", 12, 31, 21, id="D7")])
    def test_rank_deficient_discovery_solves_homs_for_free_labels_only(
            self, monkeypatch, name, searches, entries, products):
        # one solve per conjugate candidate (D5: 4 labels, 2 candidates each; E7 and
        # D7: 6 labels, 12 candidates), then one per free entry that no duality orbit
        # has filled, in the only rows that form their product: D5 has 1 free label
        # in 16 rows, E7 and D7 2 in 36
        fd, solves, formed = self.table_calls(monkeypatch, build_dynkin(name))
        assert solves == searches + entries
        assert formed == products

    def test_a_row_that_contradicts_duality_is_refused(self, monkeypatch):
        solve = _MultiplicitySolver.solve

        def corrupted(self, target, free, what):
            row = solve(self, target, free, what)
            return [1, *row[1:]] if what == "a1*a0" else row

        monkeypatch.setattr(_MultiplicitySolver, "solve", corrupted)
        # N_{a0 a1}^{a0} = 1 spreads to N_{a0 a0}^{a1}, which the row a0*a0 set to 0
        with pytest.raises(DecompositionError,
                           match=r"^a1\*a0 contains a0 1 times, against N\('a0', 'a0', 'a1'\) = 0 "):
            discover_irreducibles(build_dynkin("D5"))

    def test_a_row_that_breaks_associativity_is_refused(self, monkeypatch):
        solve = _MultiplicitySolver.solve

        def corrupted(self, target, free, what):
            row = solve(self, target, free, what)
            return [row[0] + 1, *row[1:]] if what == "a2*a1" else row

        monkeypatch.setattr(_MultiplicitySolver, "solve", corrupted)
        # A5 is full rank, so no duality orbit sees the row; only associativity does
        with pytest.raises(DecompositionError, match="^the fusion table is not associative$"):
            discover_irreducibles(build_dynkin("A5"))

    def test_a_conjugate_search_with_two_answers_is_refused(self, monkeypatch):
        hom = biunitary.decomp.hom_space
        # every hom from a bar connection answers, so both of a0's candidates, a0 and a1, do
        monkeypatch.setattr(biunitary.decomp, "hom_space",
                            lambda src, dst: [None] if src.name.endswith("~") else hom(src, dst))
        with pytest.raises(DecompositionError, match="^no unique conjugate for a0 in the hom search$"):
            discover_irreducibles(build_dynkin("D5"))

    @pytest.mark.parametrize("entries", [
        {("a1", "a1", "a0"): 0},                          # no partner
        {("a1", "a0", "a0"): 1},                          # two partners
        {("a1", "a1", "a0"): 2},                          # the unit twice
    ])
    def test_corrupted_unit_entries_are_refused(self, monkeypatch, entries):
        tables = biunitary.decomp._fusion_tables

        def corrupted(*args):
            return tables(*args) | entries

        monkeypatch.setattr(biunitary.decomp, "_fusion_tables", corrupted)
        with pytest.raises(DecompositionError, match="^no unique conjugate for a1 "):
            discover_irreducibles(build_dynkin("A4"))

    @pytest.mark.parametrize("name", ["D5", "E7", "A15"])
    def test_discovery_splits_once_per_new_class(self, monkeypatch, name):
        calls = []
        split = biunitary.decomp.end_minimal_projections

        def counted(*args, **kwargs):
            calls.append(args[0])
            return split(*args, **kwargs)

        monkeypatch.setattr(biunitary.decomp, "end_minimal_projections", counted)
        fd, _, _ = discover_irreducibles(build_dynkin(name))
        assert len(calls) == len(fd.labels) - 1

    @pytest.mark.parametrize("name", ["cyclic:5", "dynkin:E7", "dynkin:D5"])
    def test_discovery_compresses_only_the_summands_it_keeps(self, monkeypatch, name):
        # one compression onto the complement and one onto its first summand per new class
        calls = []
        compress = biunitary.decomp.compress

        def counted(*args, **kwargs):
            calls.append(args[0])
            return compress(*args, **kwargs)

        monkeypatch.setattr(biunitary.decomp, "compress", counted)
        fd, _, _ = discover_irreducibles(make_builder(name))
        assert len(calls) == 2 * (len(fd.labels) - 1)

    @pytest.mark.parametrize("broken,message", [
        (lambda kern: kern[:-1], "peels off no content"),                 # lost vector
        (lambda kern: kern + kern[-1:], "hom counts exceed the content"),  # extra copy
        (lambda kern: [2 * t for t in kern], "is not a projection"),       # not orthonormal
    ])
    def test_a_faulty_hom_count_stops_the_peel(self, monkeypatch, broken, message):
        # only the peel's counts are broken: End(c), solved with src is dst, stays whole
        hom = biunitary.decomp.hom_space
        monkeypatch.setattr(biunitary.decomp, "hom_space",
                            lambda src, dst: hom(src, dst) if src is dst else broken(hom(src, dst)))
        with pytest.raises(DecompositionError, match=message):
            discover_irreducibles(build_dynkin("A4"))

    def test_solve_with_a_free_count(self):
        # the third matrix is the sum of the first two: it is the free label
        solver = _MultiplicitySolver([np.eye(2, dtype=int), np.array([[0, 1], [1, 0]]),
                                      np.ones((2, 2), dtype=int)])
        assert (solver.pivots, solver.free) == ([0, 1], [2])
        assert solver.solve(np.array([[3, 2], [2, 3]]), {2: 1}, "t") == [2, 1, 1]
        assert solver.solve(np.array([[3, 2], [2, 3]]), {2: 2}, "t") == [1, 0, 2]

    @pytest.mark.parametrize("ms,target", [
        ([np.array([[2]])], np.array([[1]])),                          # not an integer
        ([np.eye(2, dtype=int), np.ones((2, 2), dtype=int)],
         np.array([[0, 1], [1, 0]])),                                   # negative
        ([np.eye(2, dtype=int)], np.array([[1, 1], [0, 1]])),           # no solution
    ])
    def test_solve_refuses_what_is_no_nonnegative_integer_solution(self, ms, target):
        with pytest.raises(DecompositionError,
                           match="^multiplicities in t are not a nonnegative integer solution "):
            _MultiplicitySolver(ms).solve(target, {}, "t")

    @pytest.mark.parametrize("block", [np.zeros((1, 1)), np.full((1, 1), np.nan)])
    def test_a_singular_or_non_finite_solve_is_refused(self, block):
        solver = _MultiplicitySolver([np.array([[1]])])
        solver.block = block
        with pytest.raises(DecompositionError,
                           match="^multiplicities in t are not a nonnegative integer solution "):
            solver.solve(np.array([[1]]), {}, "t")

    def test_a_corrupted_multiplicity_matrix_is_refused(self, monkeypatch):
        init = _MultiplicitySolver.__init__

        def corrupted(self, ms):
            ms = [m.copy() for m in ms]
            ms[0][0, 0] += 1
            init(self, ms)

        monkeypatch.setattr(_MultiplicitySolver, "__init__", corrupted)
        with pytest.raises(DecompositionError,
                           match="^multiplicities in a0\\*a0 are not a nonnegative integer"):
            discover_irreducibles(build_dynkin("A7"))


class TestStatistics:
    def test_a3_profiles_are_exactly_balanced(self, systems):
        s = systems("dynkin:A3")
        for n in range(1, 7):
            st = sector_statistics(s.fd, s.wn, n)
            for x in s.fd.v0:
                assert abs(st.kappa[x] - 1 / math.sqrt(2)) < 1e-12
            for a in s.fd.labels:
                assert abs(st.lam[a] - 1 / math.sqrt(2)) < 1e-12
        st3 = sector_statistics(s.fd, s.wn, 3)
        assert st3.power_multiplicities == {"a0": 4, "a1": 4}
        assert st3.path_counts == {"0:1": 4, "0:3": 4}

    def test_a_level_beyond_a_float_is_refused(self, systems):
        # A3: the squared counts sum to 2^1023 at n = 512, beyond a float at 513
        s = systems("dynkin:A3")
        assert sector_statistics(s.fd, s.wn, 512).alpha == 2.0 ** 511.5
        with pytest.raises(ValueError, match=r"^level n = 513 is too large: "):
            sector_statistics(s.fd, s.wn, 513)

    def test_a4_profiles_converge(self, systems):
        s = systems("dynkin:A4")
        sqw = math.sqrt(s.fd.w)
        st10 = sector_statistics(s.fd, s.wn, 10)
        for x in s.fd.v0:
            assert abs(st10.kappa[x] - s.fd.mu[x] / sqw) < 1e-3
        st6 = sector_statistics(s.fd, s.wn, 6)
        for a in s.fd.labels:
            assert abs(st6.lam[a] - s.fd.d[a] / sqw) < 1e-2

    @pytest.mark.parametrize("name", ["dynkin:A4", "cyclic:3", "dynkin:D4"])
    def test_power_weighted_dimension_identity(self, systems, name):
        s = systems(name)
        g2 = s.wn.gamma[1]
        for n in range(1, 5):
            mult = s.fd.multiplicities(n)
            total = sum(mult[a] * s.fd.d[a] for a in s.fd.labels)
            assert abs(total - g2 ** (2 * n)) < 1e-6
