"""The all-hom fusion loops: one hom solve per table entry, kept as an oracle.

``hom_fusion_tables`` fills ``N_ab^c`` and ``L_a^1`` the way discovery did
before the integer multiplicity solve: ``N_ab^c`` is the dimension of
``Hom(c, b * a)`` and ``L_a^1`` that of ``Hom(a, W W-bar)``.
``hom_conjugates`` finds each conjugate the way discovery did before it read
them off ``N_ab^1``: the first label with the transposed multiplicity matrix
that receives a nonzero hom from the bar of ``a``.
"""

from __future__ import annotations

import numpy as np

from biunitary import DecompositionError, hom_space, renormalize, vertical_product


def hom_fusion_tables(fd, reps, w_norm):
    """``(n_table, l_table)`` of a discovered label set by direct hom counting."""
    wt_norm = vertical_product(w_norm, renormalize(w_norm, "bar"))
    n_table: dict[tuple[str, str, str], int] = {}
    for a in fd.labels:
        for b in fd.labels:
            prod = vertical_product(reps[b], reps[a])
            for c in fd.labels:
                n_table[(a, b, c)] = len(hom_space(reps[c], prod))
    l_table = {(a, 1): len(hom_space(reps[a], wt_norm)) for a in fd.labels}
    return n_table, l_table


def hom_conjugates(fd, reps):
    """``conj`` of a discovered label set by hom search over the bar connections."""
    conj = {}
    for a in fd.labels:
        bar = renormalize(reps[a], "bar")
        conj[a] = next((b for b in fd.labels
                        if np.array_equal(fd.m_table[b], fd.m_table[a].T)
                        and len(hom_space(bar, reps[b]))), None)
        if conj[a] is None:
            raise DecompositionError(f"no conjugate found for {a}")
    return conj
