"""Loop-space operators: fusion, idempotency, rank, rotation, folding, the ring."""

import numpy as np
import pytest

from biunitary import (
    four_tensor,
    mpo_O,
    mpo_O_tilde,
    operator_rank,
    phi_map,
    pmpo_P,
    ring_contract,
    shift2,
)


class TestSummandOperators:
    @pytest.mark.parametrize("name", ["trivial:2", "dynkin:A3", "dynkin:A4"])
    def test_identity_label_gives_identity_operator(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3):
            _, lb = bases_for(name, k)
            o = mpo_O(s.reps[s.fd.identity], k, lb)
            assert np.max(np.abs(o.matrix - np.eye(lb.dim))) < 1e-12

    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A4", "cyclic:3", "dynkin:D4"])
    def test_fusion_identity(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3):
            _, lb = bases_for(name, k)
            ops = {a: mpo_O(s.reps[a], k, lb).matrix for a in s.fd.labels}
            for a in s.fd.labels:
                for b in s.fd.labels:
                    want = sum(s.fd.n_table[(a, b, c)] * ops[c] for c in s.fd.labels)
                    got = ops[a] @ ops[b]
                    assert np.max(np.abs(got - want)) < 1e-8

    def test_a3_nontrivial_label_swaps_blocks(self, systems, bases_for):
        s = systems("dynkin:A3")
        _, lb = bases_for("dynkin:A3", 1)
        o = mpo_O(s.reps["a1"], 1, lb).matrix
        # vertical multiplicities exchange the two base vertices
        assert abs(o[0, 0]) < 1e-12 and abs(o[1, 1]) < 1e-12
        assert abs(abs(o[0, 1]) - 1) < 1e-10 and abs(abs(o[1, 0]) - 1) < 1e-10


class TestProjector:
    @pytest.mark.parametrize("name,ranks", [
        ("dynkin:A3", (1, 2, 4, 8)),
        ("dynkin:A4", (1, 2, 5, 13)),
        ("trivial:2", (4, 16, 64, 256)),
    ])
    def test_rank_oracle(self, systems, bases_for, name, ranks):
        s = systems(name)
        for k, want in enumerate(ranks, start=1):
            _, lb = bases_for(name, k)
            p = pmpo_P(s.fd, s.reps, k, lb)
            assert p.idempotency_defect() < 1e-8
            assert operator_rank(p) == want

    def test_trivial_projector_is_identity(self, systems, bases_for):
        s = systems("trivial:2")
        _, lb = bases_for("trivial:2", 2)
        p = pmpo_P(s.fd, s.reps, 2, lb)
        assert np.max(np.abs(p.matrix - np.eye(16))) == 0.0


class TestOperatorRank:
    def test_identity_and_zero(self):
        assert operator_rank(np.eye(7)) == 7
        assert operator_rank(np.zeros((5, 5))) == 0

    def test_threshold(self):
        m = np.diag([1.0, 1e-3, 1e-12])
        assert operator_rank(m) == 2

    def test_diagonal_test_sees_off_diagonal_entries(self):
        # rank 1 and not diagonal: its diagonal is zero, its singular values (1, 0)
        assert operator_rank(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1
        assert operator_rank(np.diag([1.0, 0.0])) == 1

    def test_non_hermitian_path(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        a = a + 1j * (rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6)))
        assert operator_rank(a) <= 6


class TestShift:
    def test_k1_is_identity(self, bases_for):
        _, lb = bases_for("dynkin:A3", 1)
        assert np.array_equal(shift2(lb).matrix, np.eye(lb.dim))

    @pytest.mark.parametrize("k", [2, 3])
    def test_order_divides_k(self, bases_for, k):
        _, lb = bases_for("dynkin:A4", k)
        m = shift2(lb).matrix
        power = np.linalg.matrix_power(m, k)
        assert np.array_equal(power, np.eye(lb.dim))

    def test_commutes_with_projector(self, systems, bases_for):
        s = systems("dynkin:A3")
        _, lb = bases_for("dynkin:A3", 3)
        p = pmpo_P(s.fd, s.reps, 3, lb)
        sh = shift2(lb)
        assert np.max(np.abs(sh.matrix @ p.matrix - p.matrix @ sh.matrix)) < 1e-12


class TestPhi:
    def test_a3_fold_factor(self, systems, bases_for):
        sb, lb = bases_for("dynkin:A3", 1)
        i = lb.index_of(("G:1-2", "G:1-2"))
        mu = systems("dynkin:A3").wn.mu
        assert abs(lb.fold_factor[i] - (mu["0:1"] / mu["3:2"]) ** 0.5) < 1e-12
        assert abs(lb.fold_factor[i] - 2 ** -0.25) < 1e-12

    def test_trivial_factors_are_one(self, bases_for):
        _, lb = bases_for("trivial:2", 2)
        assert np.allclose(lb.fold_factor, 1.0)

    def test_full_rank(self, bases_for):
        _, lb = bases_for("dynkin:A4", 2)
        phi = phi_map(lb)
        assert operator_rank(phi.matrix(), 1e-10) == lb.dim

    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A4", "cyclic:2"])
    def test_intertwines_loop_and_string_operators(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2):
            sb, lb = bases_for(name, k)
            phi = phi_map(lb)
            pm = phi.matrix()
            for a in s.fd.labels:
                o = mpo_O(s.reps[a], k, lb).matrix
                ot = mpo_O_tilde(s.reps[a], k, sb).matrix
                assert np.max(np.abs(pm @ o - ot @ pm)) < 1e-10


class TestFourTensor:
    def test_trivial_entries(self, systems):
        s = systems("trivial:2")
        ft = four_tensor(s.reps[s.fd.identity])
        assert all(abs(v - 1.0) < 1e-12 for v in ft.values())
        for (l, bots, r, tops) in ft:
            assert bots == tops  # identity block forces matching paths

    def test_weight_prefactor_is_one_on_balanced_corners(self, systems):
        s = systems("dynkin:A3")
        ft = four_tensor(s.reps["a1"])
        g = s.reps["a1"].top
        mu = s.reps["a1"].mu
        for (l, bots, r, tops), v in ft.items():
            x = g.source(tops[0])
            y = g.source(tops[1])
            if abs(mu[x] - mu[y]) < 1e-12:
                pass  # fourth-root factor is one; value is a plain product
        assert ft  # table is nonempty

    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A4", "cyclic:3"])
    def test_ring_matches_ladder_operator(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2):
            _, lb = bases_for(name, k)
            for a in s.fd.labels:
                ring = ring_contract(four_tensor(s.reps[a]), k, lb)
                ladder = mpo_O(s.reps[a], k, lb).matrix
                assert np.max(np.abs(ring - ladder)) < 1e-10
