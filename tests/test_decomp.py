"""Intertwiner spaces, splitting, discovery, fusion data, statistics."""

import math

import numpy as np
import pytest

import biunitary.nullspace
from biunitary import (
    DecompositionError,
    DepthExceededError,
    build_dynkin,
    build_identity,
    check_biunitarity,
    compress,
    decompose,
    discover_irreducibles,
    end_minimal_projections,
    hom_space,
    renormalize,
    sector_statistics,
    vertical_product,
)
from biunitary.decomp import adjoint_closure_defect, _left_multiplicity_matrix

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
        flat = np.array([b.flatten() for b in basis])
        gram = flat.conj() @ flat.T
        assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10

    def test_adjoint_closure(self, systems):
        for name in ("dynkin:A4", "cyclic:3"):
            s = systems(name)
            basis = hom_space(wtilde(s.wn), wtilde(s.wn))
            assert adjoint_closure_defect(basis) < 1e-10

    def test_kernel_vectors_are_checked_against_the_equations(self, monkeypatch):
        # a Gram cut above every singular value declares non-solutions null
        monkeypatch.setattr(biunitary.nullspace, "GRAM_EPS", 10.0)
        wt = wtilde(build_dynkin("A3"))
        with pytest.raises(DecompositionError, match="^kernel vector violates intertwining "):
            hom_space(wt, wt)


class TestSplitting:
    def test_irreducible_yields_identity_projection(self):
        c = build_dynkin("A3")
        ident = build_identity(c.top, c.mu)
        projs = end_minimal_projections(ident, seed=0)
        assert len(projs) == 1
        for blk in projs[0].blocks.values():
            assert np.max(np.abs(blk - np.eye(blk.shape[0]))) < 1e-10

    def test_a3_product_splits_in_two(self, systems):
        s = systems("dynkin:A3")
        assert len(end_minimal_projections(wtilde(s.wn), seed=1)) == 2

    def test_trivial_product_splits_in_four(self, systems):
        s = systems("trivial:2")
        assert len(end_minimal_projections(wtilde(s.wn), seed=1)) == 4

    def test_compress_identity_projection(self, systems):
        s = systems("dynkin:A3")
        wt = wtilde(s.wn)
        basis = hom_space(wt, wt)
        projs = end_minimal_projections(wt, seed=2)
        total = {k: sum(p.blocks[k] for p in projs) for k in projs[0].blocks}
        for blk in total.values():
            assert np.max(np.abs(blk - np.eye(blk.shape[0]))) < 1e-9
        out = compress(wt, projs[0])
        assert check_biunitarity(out, 1e-9).passed

    def test_a3_summand_dimensions(self, systems):
        s = systems("dynkin:A3")
        summands = decompose(wtilde(s.wn), seed=4)
        dims = sorted(float(np.max(np.abs(np.linalg.eigvals(
            _left_multiplicity_matrix(x, s.fd.v0).astype(float))))) for x in summands)
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


class TestStatistics:
    def test_a3_profiles_are_exactly_balanced(self, systems):
        s = systems("dynkin:A3")
        scheme = s.wn.scheme()
        for n in range(1, 7):
            st = sector_statistics(s.fd, scheme, n)
            for x in s.fd.v0:
                assert abs(st.kappa[x] - 1 / math.sqrt(2)) < 1e-12
            for a in s.fd.labels:
                assert abs(st.lam[a] - 1 / math.sqrt(2)) < 1e-12
        st3 = sector_statistics(s.fd, scheme, 3)
        assert st3.power_multiplicities == {"a0": 4, "a1": 4}
        assert st3.path_counts == {"0:1": 4, "0:3": 4}

    def test_a4_profiles_converge(self, systems):
        s = systems("dynkin:A4")
        scheme = s.wn.scheme()
        sqw = math.sqrt(s.fd.w)
        st10 = sector_statistics(s.fd, scheme, 10)
        for x in s.fd.v0:
            assert abs(st10.kappa[x] - s.fd.mu[x] / sqw) < 1e-3
        st6 = sector_statistics(s.fd, scheme, 6)
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
