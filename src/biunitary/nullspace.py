"""The fixed numerical cuts, and the one null-space decision on a Gram matrix
``C^* C`` that both the intertwiner solve and the flatness solve reduce to.
"""

from __future__ import annotations

import numpy as np

# Singular-value cut of operator ranks, relative to max(1, sigma_max).
RANK_EPS = 1e-8
# Effective singular-value cut used on Gram spectra: squaring the system
# pushes rounding noise to ~1e-15 * lambda_max, above the square of the
# nominal 1e-8 cut, so the cut is widened and a spectral gap is asserted.
GRAM_EPS = 1e-6
# Every kept singular value must exceed the cut by this factor.
GAP_FACTOR = 50


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
