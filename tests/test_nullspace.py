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
from biunitary.nullspace import GRAM_EPS, gram_null_space


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
