"""Irreducible decomposition and fusion data of the squared connection.

The square of a connection with its vertical reflection generates, under
repeated products and splitting, a finite set of irreducible connection
classes.  Their Perron-Frobenius dimensions, fusion multiplicities, and
conjugation assemble into the fusion data this walkthrough prints.
"""

import math

from biunitary import (
    build_cyclic_group,
    build_dynkin,
    discover_irreducibles,
    sector_statistics,
)

for make, label in [(lambda: build_dynkin("A4"), "A4"),
                    (lambda: build_dynkin("A5"), "A5"),
                    (lambda: build_cyclic_group(3), "Z/3")]:
    fd, reps, wn = discover_irreducibles(make(), seed=0)
    print(f"== {label}: {len(fd.labels)} classes, global index w = {fd.w:.9g}")
    for a in fd.labels:
        print(f"   {a}: d = {fd.d[a]:.9g}, conjugate = {fd.conj[a]}, "
              f"vertical multiplicities = {fd.m_table[a].tolist()}")
    print("   fusion table (nonzero):")
    for (a, b, c), n in sorted(fd.n_table.items()):
        if n:
            print(f"     {a} x {b} -> {n} {c}")

# -- the golden ratio appears for the five-vertex chain ------------------------

fd, reps, wn = discover_irreducibles(build_dynkin("A4"), seed=0)
phi = (1 + math.sqrt(5)) / 2
print(f"A4 nontrivial dimension vs golden ratio: {fd.d['a1']:.12f} vs {phi:.12f}")
print(f"A4 global index vs (5 + sqrt 5)/2:       {fd.w:.12f} vs {(5 + math.sqrt(5))/2:.12f}")

# -- power multiplicities and the normalized profiles --------------------------

sqw = math.sqrt(fd.w)
print("level-n profiles for A4 (Fibonacci data):")
for n in range(1, 8):
    st = sector_statistics(fd, wn, n)
    kdev = max(abs(st.kappa[x] - wn.mu[x] / sqw) for x in fd.v0)
    ldev = max(abs(st.lam[a] - fd.d[a] / sqw) for a in fd.labels)
    print(f"  n={n}: path counts {st.path_counts}  power multiplicities "
          f"{st.power_multiplicities}  profile deviations {kdev:.2e} / {ldev:.2e}")
print("both profiles approach mu/sqrt(w) and d/sqrt(w).")
