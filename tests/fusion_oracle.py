"""The all-hom fusion loops: one hom solve per table entry, kept as an oracle.

``hom_fusion_tables`` fills ``N_ab^c`` and ``L_a^1`` the way discovery did
before the integer multiplicity solve: ``N_ab^c`` is the dimension of
``Hom(c, b * a)`` and ``L_a^1`` that of ``Hom(a, W W-bar)``.
"""

from __future__ import annotations

from biunitary import hom_space, renormalize, vertical_product


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
