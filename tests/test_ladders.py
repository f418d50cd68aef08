"""The stacked ladder contraction against the per-term loop it replaced."""

import numpy as np
import pytest

from biunitary import LadderEngine, StringBasis, mpo_O, mpo_O_tilde, pmpo_P, pmpo_P_tilde
from biunitary.ladders import paired_string_operator
from biunitary.strings import _constraint_blocks, _total_defect_sq

from conftest import ALL_BUILDERS


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


def constraint_stacks(conn, k):
    """Two different stacks on the flat system's half ladder, and its basis."""
    basis = StringBasis(conn.top, k)
    lad = LadderEngine(_constraint_blocks(conn)).half_ladder(basis.pathset, k)
    u1 = lad.reshape(-1, *lad.shape[2:])
    return u1, np.roll(u1, 1, axis=0), basis


CASES = [(name, k) for name in ALL_BUILDERS for k in (1, 2, 3)]


class TestStackedContraction:
    @pytest.mark.parametrize("name,k", CASES)
    def test_matches_per_term_loop(self, systems, name, k):
        u1, u2, basis = constraint_stacks(systems(name).wn, k)
        want = per_term_paired_operator(u1, u2, basis)
        assert np.max(np.abs(paired_string_operator(u1, u2, basis) - want)) < 1e-12
        sl = basis.block_slices
        for y in basis.base_vertices:
            for x in basis.base_vertices:
                got = paired_string_operator(u1, u2, basis, col_vertex=x, row_vertex=y)
                assert np.max(np.abs(got - want[sl[y], sl[x]])) < 1e-12

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
        total, scale = _total_defect_sq(LadderEngine(wt).half_ladder(basis.pathset, k), wt, basis)
        assert total == 0.0
        assert scale > 0.0

    @pytest.mark.parametrize("name", [b for b in ALL_BUILDERS if not b.startswith("trivial")])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_other_connections_stay_off_the_shortcut(self, systems, name, k):
        # the cross term against the identity is >= 0 on these builders; at
        # odd k on A3 and cyclic:2 it is 0 exactly, so rounding may sit on
        # either side of total == scale
        wn = systems(name).wn
        wt = _constraint_blocks(wn)
        basis = StringBasis(wn.top, k)
        total, scale = _total_defect_sq(LadderEngine(wt).half_ladder(basis.pathset, k), wt, basis)
        assert total >= scale * (1 - 1e-12)
        assert total > 1e-20 * max(1.0, scale)
