"""The full-Gram hom kernel, as the library solved it before the Schur
complement: one dense ``eigh`` of the ``n_var x n_var`` Gram of every
intertwining constraint.  Tests compare the library's kernel against it."""

import numpy as np

from biunitary.decomp import DecompositionError, _HomProblem
from biunitary.nullspace import HOM_RESIDUAL_EPS, gram_null_space


def _gram_block(gram: np.ndarray, prob: _HomProblem, k1: tuple, k2: tuple) -> np.ndarray:
    """The (k1, k2) block of the hom Gram as a writable ``(d1, s1, d2, s2)`` view."""
    (d1, s1), (d2, s2) = prob.shapes[k1], prob.shapes[k2]
    o1, o2 = prob.offsets[k1], prob.offsets[k2]
    return gram[o1:o1 + d1 * s1, o2:o2 + d2 * s2].reshape(d1, s1, d2, s2)


def full_gram_hom_kernel(prob: _HomProblem) -> np.ndarray:
    """The ``(m, n_var)`` stack of an orthonormal basis of the hom space:
    the kernel of the Gram operator of the constraints in ``prob.pairs``.
    The basis is orthonormal in the entrywise inner product and its order is
    fixed by the eigensolver, so results are reproducible.
    """
    n = prob.n_var
    # Per constraint pair the system rows are (A (x) I) vec T_L - (I (x) B^T) vec T_R.
    # The squares A^H A (x) I and I (x) conj(B) B^T are summed per slot key and
    # placed once; the cross terms -A^H (x) B^T are added per pair.
    squares: dict[tuple, np.ndarray] = {}
    gram = np.zeros((n, n), dtype=complex)
    for kl, kr, a_mat, b_mat in prob.pairs:
        if kl:
            squares[kl] = squares.get(kl, 0) + a_mat.conj().T @ a_mat
        if kr:
            squares[kr] = squares.get(kr, 0) + b_mat.conj() @ b_mat.T
        if kl and kr:
            cross = _gram_block(gram, prob, kl, kr)
            cross -= a_mat.conj().T[:, None, :, None] * b_mat.T[None, :, None, :]
    for key, sq in squares.items():
        blk = _gram_block(gram, prob, key, key)
        if key[0] == "L":  # A^H A (x) I
            idx = np.arange(prob.shapes[key][1])
            blk[:, idx, :, idx] = sq
        else:              # I (x) conj(B) B^T
            idx = np.arange(prob.shapes[key][0])
            blk[idx, :, idx, :] = sq
    # every L offset precedes every R offset: the lower cross region mirrors the upper
    n_left = min((prob.offsets[k] for k in prob.keys if k[0] == "R"), default=n)
    gram[n_left:, :n_left] = gram[:n_left, n_left:].conj().T
    null_mask, evecs, smax = gram_null_space(gram, True, DecompositionError,
                                             "no clean spectral gap in hom system")
    kern = np.ascontiguousarray(evecs[:, null_mask].T)
    r = prob.residual(kern)
    if r > HOM_RESIDUAL_EPS * max(1.0, smax):
        raise DecompositionError(f"kernel vector violates intertwining ({r:.3e})")
    return kern
