"""Loop-space operators: fusion, idempotency, rank, trace, rotation, folding, the ring."""

import numpy as np
import pytest

from biunitary import (
    LadderEngine,
    LoopBasis,
    MPOOperator,
    StringBasis,
    mpo_O,
    operator_rank,
    pmpo_P,
    projector_trace,
)
from biunitary.mpo import _is_hermitian
from biunitary.nullspace import PMPO_IDEMPOTENCY_EPS

from conftest import ALL_BUILDERS
from dense_ladder import dense_half_ladder, path_ends
from loop_oracles import four_tensor, loop_index, ring_contract, shift2


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


class TestProjectorTrace:
    """tr P^k from the diagonal sweep against the dense rank and the fusion
    closed form: three independent routes to the same integer."""

    @pytest.mark.parametrize("name", ALL_BUILDERS)
    def test_matches_dense_rank(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3, 4):
            _, lb = bases_for(name, k)
            rank = operator_rank(pmpo_P(s.fd, s.reps, k, lb))
            assert abs(projector_trace(s.fd, s.reps, k) - rank) <= 1e-9

    @pytest.mark.parametrize("name", ["dynkin:D5", "dynkin:E6", "dynkin:A7"])
    def test_matches_dense_rank_k5(self, systems, name):
        s = systems(name)
        lb = LoopBasis(StringBasis(s.wn.top, 5), s.wn.mu)
        rank = operator_rank(pmpo_P(s.fd, s.reps, 5, lb))
        assert abs(projector_trace(s.fd, s.reps, 5) - rank) <= 1e-9

    @pytest.mark.parametrize("name", ["dynkin:E6", "dynkin:D5", "dynkin:A15"])
    @pytest.mark.parametrize("k", [2, 4, 6, 10])
    def test_matches_even_k_fusion_closed_form(self, systems, name, k):
        s = systems(name)
        want = sum(int(v) ** 2 for v in s.fd.multiplicities(k // 2).values())
        assert abs(projector_trace(s.fd, s.reps, k) - want) <= 1e-9

    @pytest.mark.parametrize("name", ["dynkin:A4", "cyclic:3", "dynkin:D4"])
    def test_sweep_sums_half_ladder_diagonal(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2, 3):
            sb, _ = bases_for(name, k)
            paths = sb.pathset.paths[k]
            for a in s.fd.labels:
                rep = s.reps[a]
                grids = [(rep.top.source(p[0]), v) for p, v in zip(paths, path_ends(sb.pathset, k))]
                diag = np.einsum("abpp->abp", dense_half_ladder(rep, sb.pathset, k))
                sweep = LadderEngine(rep).diagonal_sweep(k)
                lefts = [e for e, _, _ in rep.left.edges]
                bonds = rep.right if k % 2 == 1 else rep.left
                bond_ids = [e for e, _, _ in bonds.edges]
                for x, v in set(grids) | set(sweep):
                    # rows: the loop anchors x -> x; columns: the bonds v -> v
                    want = diag[:, :, np.array([g == (x, v) for g in grids])].sum(axis=2)
                    rows = [lefts.index(e) for e in rep.left.edges_between(x, x)]
                    cols = [bond_ids.index(e) for e in bonds.edges_between(v, v)]
                    got = np.zeros_like(want)
                    if (x, v) in sweep:
                        got[np.ix_(rows, cols)] = sweep[(x, v)]
                    assert np.max(np.abs(got - want)) < 1e-12


class TestOperatorRank:
    def test_identity_and_zero(self):
        assert operator_rank(np.eye(7)) == 7
        assert operator_rank(np.zeros((5, 5))) == 0
        for shape in ((0, 0), (0, 3), (3, 0)):
            assert operator_rank(np.zeros(shape)) == 0

    def test_threshold(self):
        m = np.diag([1.0, 1e-3, 1e-12])
        assert operator_rank(m) == 2

    def test_an_ungapped_spectrum_raises_on_every_route(self):
        # sigma = 1e-7 lies above the cut 1e-8 but within 50 times it
        rng = np.random.default_rng(17)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 3)))
        sigma = np.diag([1.0, 1e-7, 0.0])
        # the diagonal, Hermitian-eigenvalue and SVD routes
        for a in (np.diag([1.0, 1e-7]), v @ sigma @ v.T, u @ sigma @ v.T):
            with pytest.raises(RuntimeError, match=r"^operator spectrum has no clean spectral gap "
                                                   r"\(min nonzero 1\.000e-07, cut 1\.000e-08\)"):
                operator_rank(a)

    def test_diagonal_test_sees_off_diagonal_entries(self):
        # rank 1 and not diagonal: its diagonal is zero, its singular values (1, 0)
        assert operator_rank(np.array([[0.0, 1.0], [0.0, 0.0]])) == 1
        assert operator_rank(np.diag([1.0, 0.0])) == 1

    def test_rectangular(self):
        assert operator_rank(np.ones((2, 3))) == 1
        rng = np.random.default_rng(5)
        assert operator_rank(rng.standard_normal((3, 5))) == 3
        assert operator_rank(rng.standard_normal((5, 3))) == 3

    def test_non_hermitian_path(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6))
        a = a + 1j * (rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6)))
        assert operator_rank(a) <= 6

    def test_row_block_checks_match_the_dense_ones(self):
        # 1100 rows make three row blocks; the defect sits in the last one
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((1100, 40)) + 1j * rng.standard_normal((1100, 40)))
        p = q @ q.conj().T
        assert _is_hermitian(p) and operator_rank(p) == 40
        assert MPOOperator(p).idempotency_defect() < 1e-12
        p[-1, 0] += 1e-3
        assert not _is_hermitian(p)
        dense = float(np.max(np.abs(p @ p - p)))
        assert MPOOperator(p).idempotency_defect() == pytest.approx(dense, rel=1e-12)

    def test_probes_above_dimension_3000(self):
        # one past the dense check: 16 random probes of a rank-5 projector
        rng = np.random.default_rng(13)
        q, _ = np.linalg.qr(rng.standard_normal((3001, 5)))
        p = q @ q.T
        assert MPOOperator(p).idempotency_defect() < 1e-12
        p[-1, 0] += 1e-3
        assert MPOOperator(p).idempotency_defect() > PMPO_IDEMPOTENCY_EPS


class TestShift:
    def test_k1_is_identity(self, bases_for):
        _, lb = bases_for("dynkin:A3", 1)
        assert np.array_equal(shift2(lb), np.eye(lb.dim))

    @pytest.mark.parametrize("k", [2, 3])
    def test_order_divides_k(self, bases_for, k):
        _, lb = bases_for("dynkin:A4", k)
        m = shift2(lb)
        power = np.linalg.matrix_power(m, k)
        assert np.array_equal(power, np.eye(lb.dim))

    def test_commutes_with_projector(self, systems, bases_for):
        s = systems("dynkin:A3")
        _, lb = bases_for("dynkin:A3", 3)
        p = pmpo_P(s.fd, s.reps, 3, lb)
        sh = shift2(lb)
        assert np.max(np.abs(sh @ p.matrix - p.matrix @ sh)) < 1e-12


class TestPhi:
    def test_a3_fold_factor(self, systems, bases_for):
        sb, lb = bases_for("dynkin:A3", 1)
        i = loop_index(lb)[("G:1-2", "G:1-2")]
        mu = systems("dynkin:A3").wn.mu
        assert abs(lb.fold_factor[i] - (mu["0:1"] / mu["3:2"]) ** 0.5) < 1e-12
        assert abs(lb.fold_factor[i] - 2 ** -0.25) < 1e-12

    def test_trivial_factors_are_one(self, bases_for):
        _, lb = bases_for("trivial:2", 2)
        assert np.allclose(lb.fold_factor, 1.0)

    def test_full_rank(self, bases_for):
        _, lb = bases_for("dynkin:A4", 2)
        assert operator_rank(np.diag(lb.fold_factor)) == lb.dim

    @pytest.mark.parametrize("name", ["dynkin:A3", "dynkin:A4", "cyclic:2"])
    def test_intertwines_loop_and_string_operators(self, systems, bases_for, name):
        s = systems(name)
        for k in (1, 2):
            sb, lb = bases_for(name, k)
            pm = np.diag(lb.fold_factor)
            for a in s.fd.labels:
                o = mpo_O(s.reps[a], k, lb).matrix
                ot = mpo_O(s.reps[a], k, sb).matrix
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
