"""The fixed numerical cuts, the memory budget, and the one null-space
decision on a Gram matrix ``C^* C`` that both the intertwiner solve and the
flatness solve reduce to.
"""

from __future__ import annotations

import math
import os

import numpy as np

# Default bi-unitarity threshold: ``check_biunitarity``, ``validate_square``
# and the ``--tol`` option of the command line.
DEFAULT_TOL = 1e-9
# Singular-value cut of operator ranks, relative to max(1, sigma_max).
RANK_EPS = 1e-8
# A square operator is ranked by its eigenvalues when it is Hermitian to this,
# relative to max(1, its largest entry).
HERMITIAN_EPS = 1e-13
# Effective singular-value cut used on Gram spectra: squaring the system
# pushes rounding noise to ~1e-15 * lambda_max, above the square of the
# nominal 1e-8 cut, so the cut is widened and a spectral gap is asserted.
GRAM_EPS = 1e-6
# The stacked null space leaves out of its Gram terms whose squared Frobenius
# norms sum to at most this, which lowers each eigenvalue by at most a quarter
# of the smallest squared cut; when all are left out, every value is null.  The
# flat solve's one-vertex shortcut compares a bound of that sum with it.
FROBENIUS_SKIP_SQ = (GRAM_EPS / 2) ** 2
# Every kept singular value must exceed the cut by this factor.
GAP_FACTOR = 50
# A float trace of an idempotent certifies its integer rank only when it lies
# this close to that integer.
INTEGRALITY_EPS = 1e-9

# Cuts of the endomorphism splitting in ``decomp``.  A hom kernel vector must
# satisfy the intertwining equations to this, relative to max(1, sigma_max).
HOM_RESIDUAL_EPS = 1e-8
# End(c) is adjoint-closed when every basis adjoint is this close to the span.
ADJOINT_CLOSURE_EPS = 1e-6
# Eigenvalues of a random self-adjoint endomorphism this close, relative to
# max(1, spread), fall in one spectral cluster.
CLUSTER_GAP_EPS = 1e-7
# A normalized spectral projection must lie this close to the span of End(c).
SPAN_EPS = 1e-7
# Largest entry of p @ p - p allowed for a spectral projection.
IDEMPOTENCY_EPS = 1e-9
# ``pmpo`` exits 1 unless the idempotency residual of the dense P^k is below this.
PMPO_IDEMPOTENCY_EPS = 1e-8
# A spectral projection p is minimal when its compressions p t p of a basis
# of End(c) have rank one at this cut, relative to max(1, largest entry).
MINIMALITY_RANK_EPS = 1e-8
# Discovery and compression check bi-unitarity at max(tol, this floor).
BIUNITARITY_FLOOR = 1e-8

# The squared layer-0 weights of a trace must sum to w within this, relative
# to max(1, w).
WEIGHT_SUM_EPS = 1e-8
# A string element is independent of an st-2 orthonormal list when its squared
# st-2 residual exceeds this, relative to max(1, its squared st-2 norm).
ST2_RANK_EPS = 1e-10
# Dense arrays a command may hold at once must fit in half of physical memory.
DENSE_BUDGET_BYTES = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


def check_budget(need: int, what: str, purpose: str) -> None:
    """ValueError when ``need`` bytes exceed ``DENSE_BUDGET_BYTES``."""
    if need > DENSE_BUDGET_BYTES:
        raise ValueError(f"{what} needs {need / 2**30:.1f} GiB for {purpose}, above the budget "
                         f"of {DENSE_BUDGET_BYTES / 2**30:.1f} GiB (half of physical memory)")


def gram_null_space(gram: np.ndarray, vectors: bool, error: type[Exception],
                    prefix: str) -> tuple[np.ndarray, np.ndarray | None, float]:
    """``(null mask, eigenvectors or None, sigma_max)`` of a Gram matrix.

    The system's singular values are the square roots of the clipped Gram
    eigenvalues; those at most ``GRAM_EPS * max(1, sigma_max)`` are null.
    Eigenvectors (``eigh``) are computed only when ``vectors`` is set,
    otherwise just ``eigvalsh`` runs.  Raises ``error``, its message
    starting with ``prefix``, when a kept value is within the gap factor.
    """
    if vectors:
        evals, evecs = np.linalg.eigh(gram)
    else:
        evals, evecs = np.linalg.eigvalsh(gram), None
    sigma = np.sqrt(np.clip(evals, 0.0, None))
    smax = float(sigma[-1]) if len(sigma) else 0.0
    cut = GRAM_EPS * max(smax, 1.0)
    null = sigma <= cut
    nonzero = sigma[~null]
    if len(nonzero) and float(nonzero.min()) < GAP_FACTOR * cut:
        raise error(f"{prefix} (min nonzero {nonzero.min():.3e}, cut {cut:.3e})")
    return null, evecs, smax


def stacked_null_space(n: int, stacks,
                       vectors: bool) -> tuple[np.ndarray, np.ndarray | None, float]:
    """``gram_null_space`` of the flatness system stacked from ``stacks`` on n real unknowns.

    Row j of each stack is the image of unknown j under one group of
    equations, whose real and imaginary parts are each an equation, so the
    real Gram sums ``Re(conj(c) c^T)``, one real product ``s s^T`` of each
    stack's float64 view s, over the stacks not left out under
    ``FROBENIUS_SKIP_SQ``.  When all are left out no Gram is formed: the mask
    is all true, the vectors are the identity, and their Frobenius norm,
    which bounds sigma_max, is returned for it.
    """
    left_out, gram = 0.0, None
    for c in stacks:
        c2 = float(np.vdot(c, c).real)
        if left_out + c2 <= FROBENIUS_SKIP_SQ:
            left_out += c2
        else:
            if gram is None:
                gram = np.zeros((n, n))
            s = np.ascontiguousarray(c.reshape(n, -1)).view(np.float64)
            gram += s @ s.T
            del s
        del c       # the next stack is formed without this one
    if gram is None:
        return np.ones(n, dtype=bool), np.eye(n) if vectors else None, math.sqrt(left_out)
    return gram_null_space(gram, vectors, RuntimeError, "flatness system has no clean spectral gap")
