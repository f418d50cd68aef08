"""The shared Gram null-space decision: cut, gap check, and both callers."""

import numpy as np
import pytest

import biunitary.nullspace
from biunitary import (
    DecompositionError,
    build_dynkin,
    flat_fields,
    hom_space,
    renormalize,
    vertical_product,
)
from biunitary.cli import main
from biunitary.nullspace import FROBENIUS_SKIP_SQ, GRAM_EPS, gram_null_space, stacked_null_space


def gram_of_rank(n, rank, seed=0):
    """C^* C for a random complex (rank x n) system C, and C itself."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((rank, n)) + 1j * rng.standard_normal((rank, n))
    return c.conj().T @ c, c


class TestGramNullSpace:
    @pytest.mark.parametrize("n,rank", [(8, 5), (6, 6), (4, 1)])
    def test_null_count_with_clean_gap(self, n, rank):
        gram, c = gram_of_rank(n, rank)
        null, evecs, smax = gram_null_space(gram, True, RuntimeError, "test")
        assert int(np.count_nonzero(null)) == n - rank
        assert abs(smax - np.linalg.svd(c, compute_uv=False)[0]) < 1e-10 * smax
        assert np.max(np.abs(c @ evecs[:, null]), initial=0.0) < 1e-10 * smax

    def test_eigvalsh_and_eigh_paths_agree(self):
        gram, _ = gram_of_rank(9, 4, seed=2)
        null_v, evecs, smax_v = gram_null_space(gram, True, RuntimeError, "test")
        null_n, none, smax_n = gram_null_space(gram, False, RuntimeError, "test")
        assert none is None
        assert evecs.shape == (9, 9)
        assert np.array_equal(null_v, null_n)
        assert abs(smax_v - smax_n) < 1e-12 * smax_v

    def test_zero_and_empty_grams(self):
        null, _, smax = gram_null_space(np.zeros((3, 3)), False, RuntimeError, "test")
        assert null.all() and smax == 0.0
        null, _, smax = gram_null_space(np.zeros((0, 0)), True, RuntimeError, "test")
        assert null.size == 0 and smax == 0.0

    def test_cut_is_relative_to_max_one_sigma_max(self):
        # sigma = (1e-7, 1): below the cut 1e-6; the gap to 1 is clean
        null, _, _ = gram_null_space(np.diag([1e-14, 1.0]), False, RuntimeError, "test")
        assert null.tolist() == [True, False]
        # sigma = (1e3 * 1e-7, 1e3): the cut scales with sigma_max
        null, _, smax = gram_null_space(np.diag([1e-8, 1e6]), False, RuntimeError, "test")
        assert null.tolist() == [True, False] and smax == 1e3

    @pytest.mark.parametrize("error,prefix", [
        (DecompositionError, "no clean spectral gap in hom system"),
        (RuntimeError, "flatness system has no clean spectral gap"),
    ])
    def test_gap_failure_raises_given_type_and_prefix(self, error, prefix):
        # sigma = 1e-5 lies above the cut 1e-6 but within 50 times it
        gram = np.diag([(10 * GRAM_EPS) ** 2, 1.0])
        for vectors in (True, False):
            with pytest.raises(error) as info:
                gram_null_space(gram, vectors, error, prefix)
            assert type(info.value) is error
            assert str(info.value).startswith(f"{prefix} (min nonzero 1.000e-05, cut 1.000e-06)")


def stacks_with_norm(n, rank, norm2, parts=3, seed=0):
    """``parts`` random real (n, 5) stacks of common rank ``rank`` whose
    squared Frobenius norms sum to ``norm2``, and the Gram of all of them:
    the unknowns of ``stacked_null_space`` are real."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, rank))
    stacks = [a @ rng.standard_normal((rank, 5)) for _ in range(parts)]
    scale = np.sqrt(norm2 / sum(float(np.vdot(c, c).real) for c in stacks))
    stacks = [scale * c for c in stacks]
    return stacks, sum(np.conj(c) @ c.T for c in stacks)


class TestStackedNullSpace:
    @pytest.mark.parametrize("factor", [1 - 1e-6, 1 + 1e-6])
    def test_skip_threshold_agrees_with_the_gram(self, factor):
        # just below the threshold nothing is formed; just above, a Gram is
        for vectors in (False, True):
            stacks, gram = stacks_with_norm(6, 2, factor * FROBENIUS_SKIP_SQ)
            want, _, _ = gram_null_space(gram, vectors, RuntimeError, "test")
            null, evecs, bound = stacked_null_space(6, iter(stacks), vectors)
            assert np.count_nonzero(null) == np.count_nonzero(want) == 6
            if factor < 1:
                assert abs(bound ** 2 - factor * FROBENIUS_SKIP_SQ) < 1e-9 * FROBENIUS_SKIP_SQ
                assert evecs is None if not vectors else np.array_equal(evecs, np.eye(6))

    @pytest.mark.parametrize("sigma", [0.4, 0.5, 0.6, 0.99, 1.01, 10.0, 60.0])
    def test_decision_matches_the_gram_across_the_cut(self, sigma):
        # one singular value sigma * GRAM_EPS: null up to the cut, a gap
        # failure up to 50 times it, kept above
        c = np.zeros((3, 4), dtype=complex)
        c[0, 0] = sigma * GRAM_EPS
        try:
            want = np.count_nonzero(gram_null_space(np.conj(c) @ c.T, False, RuntimeError, "t")[0])
        except RuntimeError:
            with pytest.raises(RuntimeError, match="^flatness system has no clean spectral gap "):
                stacked_null_space(3, [c], False)
        else:
            null, _, _ = stacked_null_space(3, [c], False)
            assert np.count_nonzero(null) == want == (3 if sigma < 1 else 2)

    def test_skip_holds_at_the_largest_singular_value(self):
        # one singular value carries the whole norm: sigma = GRAM_EPS / 2
        c = np.zeros((4, 3), dtype=complex)
        c[1, 0] = GRAM_EPS / 2
        null, _, bound = stacked_null_space(4, [c], False)
        want, _, _ = gram_null_space(np.conj(c) @ c.T, False, RuntimeError, "test")
        assert null.all() and want.all() and bound == GRAM_EPS / 2

    @pytest.mark.parametrize("n,rank", [(8, 5), (6, 6), (4, 1)])
    def test_full_rank_terms_match_the_gram(self, n, rank):
        stacks, gram = stacks_with_norm(n, rank, 10.0, seed=n)
        stacks = [1e-20 * stacks[0]] + stacks
        want, _, smax = gram_null_space(gram, True, RuntimeError, "test")
        null, evecs, got_smax = stacked_null_space(n, stacks, True)
        assert np.array_equal(null, want) and np.count_nonzero(null) == n - rank
        assert abs(got_smax - smax) < 1e-12 * smax
        for c in stacks:
            assert np.max(np.abs(c.T @ evecs[:, null]), initial=0.0) < 1e-9

    def test_complex_stacks_are_their_real_and_imaginary_equations(self):
        # on real unknowns a complex stack holds two real equations per entry
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        c = a @ (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
        want, want_vecs, want_smax = stacked_null_space(6, [np.hstack([c.real, c.imag])], True)
        null, evecs, smax = stacked_null_space(6, [c], True)
        assert evecs.dtype == np.float64
        assert np.array_equal(null, want) and np.count_nonzero(null) == 2
        assert abs(smax - want_smax) < 1e-12 * smax
        assert np.max(np.abs(c.T @ evecs[:, null])) < 1e-12 * smax
        assert np.max(np.abs(want_vecs[:, null] @ want_vecs[:, null].T
                             - evecs[:, null] @ evecs[:, null].T)) < 1e-12

    def test_gap_failure_raises_through_the_stack(self):
        c = np.diag([10 * GRAM_EPS, 1.0]).astype(complex)
        with pytest.raises(RuntimeError, match="^flatness system has no clean spectral gap"):
            stacked_null_space(2, [c], False)


class TestCallersOnGapFailure:
    """With an impossible gap factor every nonzero singular value fails."""

    @pytest.fixture
    def no_gap(self, monkeypatch):
        monkeypatch.setattr(biunitary.nullspace, "GAP_FACTOR", 1e30)

    def test_hom_space_raises_decomposition_error(self, no_gap):
        a3 = build_dynkin("A3")
        wt = vertical_product(a3, renormalize(a3, "bar"))
        with pytest.raises(DecompositionError, match="^no clean spectral gap in hom system"):
            hom_space(wt, wt)

    def test_flat_fields_raises_runtime_error(self, no_gap):
        # D5 at k=3: its root-block system has a nonzero singular value
        with pytest.raises(RuntimeError,
                           match="^flatness system has no clean spectral gap") as info:
            flat_fields(build_dynkin("D5"), 3, return_basis=False)
        assert type(info.value) is RuntimeError

    @pytest.mark.parametrize("argv,prefix", [
        (["relcomm", "-k", "3"], "flatness system has no clean spectral gap"),
        (["decompose"], "no clean spectral gap in hom system"),
    ])
    def test_cli_exit_code_is_numeric_failure(self, no_gap, capsys, argv, prefix):
        assert main(argv + ["--builtin", "dynkin D5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}")
        assert "Traceback" not in err
