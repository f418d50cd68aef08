"""The block half ladder and its stacked contraction against the dense sweep
and the per-term loop they replaced."""

from collections import Counter

import numpy as np
import pytest

from biunitary import (LadderEngine, PathSet, StringBasis, mpo_O, mpo_O_tilde, pmpo_P,
                       pmpo_P_tilde)
from biunitary.ladders import grid_counts, paired_string_operator
from biunitary.strings import _constraint_blocks

from conftest import ALL_BUILDERS, make_builder
from dense_ladder import dense_half_ladder, dense_slice, path_ends
from transport_oracle import paired_vertex_operator, pinned_pairs


def per_term_paired_operator(u1, u2, basis, col_vertex=None, row_vertex=None):
    """Reference: one einsum per stack entry and (row grid, column grid) pair,
    written through the grids' own string indices.

    M[(q1, q2), (p1, p2)] += u1[s, p1, q1] * conj(u2[s, p2, q2]) over s.
    """
    row_keys = [key for key in basis.grids if row_vertex is None or key[0] == row_vertex]
    col_keys = [key for key in basis.grids if col_vertex is None or key[0] == col_vertex]
    row_off = 0 if row_vertex is None else basis.block_slices[row_vertex].start
    col_off = 0 if col_vertex is None else basis.block_slices[col_vertex].start
    n_rows = basis.dim if row_vertex is None else sum(basis.grids[k].size for k in row_keys)
    n_cols = basis.dim if col_vertex is None else sum(basis.grids[k].size for k in col_keys)
    out = np.zeros((n_rows, n_cols), dtype=complex)
    for a, b in zip(u1, u2):
        if not (np.any(a) and np.any(b)):
            continue
        for ko in row_keys:
            qs = basis.block_paths[ko]
            s1, s2 = a[:, qs], b[:, qs]
            if not (np.any(s1) and np.any(s2)):
                continue
            rows = basis.grids[ko].ravel() - row_off
            for ki in col_keys:
                ps = basis.block_paths[ki]
                usub1, usub2 = s1[ps], s2[ps]
                if not (np.any(usub1) and np.any(usub2)):
                    continue
                cols = basis.grids[ki].ravel() - col_off
                blk = np.einsum("ia,jb->abij", usub1, np.conj(usub2))
                out[np.ix_(rows, cols)] += blk.reshape(len(rows), len(cols))
    return out


def constraint_ladders(conn, k):
    """The flat system's half ladder, as blocks and dense, with the product
    connection and the string basis."""
    wt = _constraint_blocks(conn)
    basis = StringBasis(conn.top, k)
    lad = LadderEngine(wt).half_ladder(basis.pathset, k)
    return wt, lad, dense_half_ladder(wt, basis.pathset, k), basis


def constraint_stacks(conn, k):
    """Two different dense stacks on the flat system's half ladder, and its basis."""
    _, _, dense, basis = constraint_ladders(conn, k)
    u1 = dense.reshape(-1, *dense.shape[2:])
    return u1, np.roll(u1, 1, axis=0), basis


def dense_total_defect_sq(lad, conn, basis):
    """The former ``strings._total_defect_sq`` on the dense ladder."""
    pair = [(s, r) for _, s, r in conn.left.edges]
    same = np.array([[p1 == p2 for p2 in pair] for p1 in pair])
    starts = Counter(conn.top.source(p[0]) for p in basis.pathset.paths[basis.k])
    n_y = np.array([starts[r] for _, r in pair])
    flat = lad.reshape(lad.shape[0], lad.shape[1], -1)
    bond_gram = np.array([np.conj(f) @ f.T for f in flat]).reshape(len(flat), -1)
    t_sq = np.real(bond_gram @ np.conj(bond_gram).T)
    scale = float(np.sum(t_sq[same]))
    tr = np.einsum("abpp->ab", lad)
    cross = float(np.sum(n_y * n_y)) - 2.0 * float(np.vdot(tr, tr).real)
    return scale + cross, scale


CASES = [(name, k) for name in ALL_BUILDERS for k in (1, 2, 3)]
LARGE = [(name, 5) for name in ("dynkin:D5", "dynkin:E6", "dynkin:A7")]


class TestBlockLadder:
    @pytest.mark.parametrize("name,k", CASES + LARGE)
    def test_blocks_are_the_dense_nonzeros(self, systems, name, k):
        wt, lad, dense, basis = constraint_ladders(systems(name).wn, k)
        covered = np.zeros(dense.shape, dtype=bool)
        for key, blk in lad.blocks.items():
            ix = dense_slice(wt, basis.pathset, k, key)
            assert blk.shape == dense[ix].shape
            assert np.max(np.abs(blk - dense[ix])) < 1e-12
            covered[ix] = True
        assert not np.any(dense[~covered])

    @pytest.mark.parametrize("name", ALL_BUILDERS)
    def test_preflight_counts_the_blocks(self, systems, name):
        wn = systems(name).wn
        eng = LadderEngine(_constraint_blocks(wn))
        pathset = PathSet(wn.top, 4)
        for k in (1, 2, 3, 4):
            counts = grid_counts(wn.top, k)
            listed = Counter((wn.top.source(p[0]), v)
                             for p, v in zip(pathset.paths[k], path_ends(pathset, k)))
            assert counts == dict(listed)
            # the path set's grids: sorted keys, each its path indices in order
            grids = {}
            for i, (p, v) in enumerate(zip(pathset.paths[k], path_ends(pathset, k))):
                grids.setdefault((wn.top.source(p[0]), v), []).append(i)
            blocks = pathset.block_paths[k]
            assert [(key, idxs.tolist()) for key, idxs in blocks.items()] == sorted(grids.items())
            assert {key: len(idxs) for key, idxs in blocks.items()} == counts
            assert 16 * eng.block_entries(counts, k) == eng.half_ladder(pathset, k).nbytes


class TestStackedContraction:
    @pytest.mark.parametrize("name,k", CASES)
    def test_matches_per_term_loop(self, systems, name, k):
        wt, lad, dense, basis = constraint_ladders(systems(name).wn, k)
        u = dense.reshape(-1, *dense.shape[2:])
        want = per_term_paired_operator(u, u, basis)
        assert np.max(np.abs(paired_string_operator(lad.pairs(), basis) - want)) < 1e-12
        sl = basis.block_slices
        for y in basis.base_vertices:
            for x in basis.base_vertices:
                got = paired_vertex_operator(((key, s, s) for key, s in lad.pairs()), basis,
                                             col_vertex=x, row_vertex=y)
                assert np.max(np.abs(got - want[sl[y], sl[x]])) < 1e-12
        # two different stacks: the bonds of two anchors with equal endpoints
        anchors = [e for e, _, _ in wt.left.edges]
        for z1, x, y in wt.left.edges:
            for z2 in wt.left.edges_between(x, y):
                got = paired_vertex_operator(pinned_pairs(lad, z1, z2), basis,
                                             col_vertex=x, row_vertex=y)
                ref = per_term_paired_operator(dense[anchors.index(z1)], dense[anchors.index(z2)],
                                               basis, col_vertex=x, row_vertex=y)
                assert np.max(np.abs(got - ref)) < 1e-12

    def test_per_term_loop_restricts_to_vertex_blocks(self, systems):
        u1, u2, basis = constraint_stacks(systems("dynkin:D4").wn, 2)
        want = per_term_paired_operator(u1, u2, basis)
        sl = basis.block_slices
        for y in basis.base_vertices:
            for x in basis.base_vertices:
                ref = per_term_paired_operator(u1, u2, basis, col_vertex=x, row_vertex=y)
                assert np.array_equal(ref, want[sl[y], sl[x]])


class TestProjectorStack:
    @pytest.mark.parametrize("name,k", CASES)
    def test_one_pairing_is_the_weighted_label_sum(self, systems, bases_for, name, k):
        s = systems(name)
        sb, lb = bases_for(name, k)
        want_t = sum(s.fd.d[a] / s.fd.w * mpo_O_tilde(s.reps[a], k, sb).matrix
                     for a in s.fd.labels)
        want = sum(s.fd.d[a] / s.fd.w * mpo_O(s.reps[a], k, lb).matrix for a in s.fd.labels)
        assert np.max(np.abs(pmpo_P_tilde(s.fd, s.reps, k, sb).matrix - want_t)) < 1e-12
        assert np.max(np.abs(pmpo_P(s.fd, s.reps, k, lb).matrix - want)) < 1e-12


class TestTotalDefect:
    @pytest.mark.parametrize("name", ["trivial:2", "trivial:3"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_delta_connections_are_exactly_zero(self, systems, name, k):
        wn = systems(name).wn
        wt = _constraint_blocks(wn)
        basis = StringBasis(wn.top, k)
        lad = LadderEngine(wt).half_ladder(basis.pathset, k)
        assert lad.pinned_defect(grid_counts(basis.graph, k)) == 0.0
        assert any(blk.any() for blk in lad.blocks.values())

    @pytest.mark.parametrize("name", [b for b in ALL_BUILDERS if not b.startswith("trivial")])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_other_connections_stay_off_the_shortcut(self, systems, name, k):
        # several base vertices: each non-loop anchor x -> y adds the n_y^2 path
        # pairs from y, at least 1, where the transports have no trace
        wn = systems(name).wn
        wt = _constraint_blocks(wn)
        basis = StringBasis(wn.top, k)
        lad = LadderEngine(wt).half_ladder(basis.pathset, k)
        counts = grid_counts(basis.graph, k)
        pairs = sum(sum(n for (x, _), n in counts.items() if x == y) ** 2
                    for _, x, y in wt.left.edges if x != y)
        assert len(basis.base_vertices) > 1 and pairs >= 1
        assert lad.pinned_defect(counts) >= pairs * (1 - 1e-12)

    @pytest.mark.parametrize("name,k", CASES)
    def test_matches_dense_formula(self, systems, name, k):
        wt, lad, dense, basis = constraint_ladders(systems(name).wn, k)
        total = lad.pinned_defect(grid_counts(basis.graph, k))
        want_total, want_scale = dense_total_defect_sq(dense, wt, basis)
        assert abs(total - want_total) <= 1e-12 * max(1.0, want_scale)


class TestAdjointPairing:
    """``(T_{z1 z2} f)^* = T_{z2 z1}(f^*)``: the flat solve's real coordinates rest on it."""

    @pytest.mark.parametrize("name,k", [(name, k) for name in ALL_BUILDERS + ["dynkin:E7",
                                                                              "dynkin:D7"]
                                        for k in (1, 2, 3)])
    def test_pinned_transport_commutes_with_the_adjoint(self, name, k):
        wt = _constraint_blocks(make_builder(name))
        basis = StringBasis(wt.top, k)
        lad = LadderEngine(wt).half_ladder(basis.pathset, k)
        rng = np.random.default_rng(k)
        shapes = {key: (2, *grid.shape) for key, grid in basis.grids.items()}
        f = {key: rng.standard_normal(sh) + 1j * rng.standard_normal(sh)
             for key, sh in shapes.items()}
        f_star = {key: a.conj().transpose(0, 2, 1) for key, a in f.items()}
        for x, y in sorted({(s, r) for _, s, r in wt.left.edges}):
            for z1 in wt.left.edges_between(x, y):
                for z2 in wt.left.edges_between(x, y):
                    for row in (key for key in basis.grids if key[0] == y):
                        t = lad.add_pinned_transport(z1, z2, f, row, slice(None),
                                                     np.zeros(shapes[row], dtype=complex))
                        t_star = lad.add_pinned_transport(z2, z1, f_star, row, slice(None),
                                                          np.zeros(shapes[row], dtype=complex))
                        err = np.max(np.abs(t.conj().transpose(0, 2, 1) - t_star))
                        assert err <= 1e-13 * max(1.0, float(np.max(np.abs(t))))
