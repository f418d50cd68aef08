"""The projector operator and the flat fields compute the same dimensions.

Each irreducible class defines a matrix product operator on closed paths of
length 2k; the dimension-weighted average of all classes is an idempotent.
Independently, the flatness equations of the squared connection cut out a
subspace of fields of strings.  The rank of the former equals the dimension
of the latter: the tower of higher relative commutants, computed two ways.
"""

import numpy as np

from biunitary import (
    LoopBasis,
    StringBasis,
    build_cyclic_group,
    build_dynkin,
    build_trivial,
    discover_irreducibles,
    flat_fields,
    mpo_O,
    operator_rank,
    pmpo_P,
    projector_trace,
)

conn = build_dynkin("A4")
fd, reps, wn = discover_irreducibles(conn, seed=0)

print("== A4: the operators at k = 2")
sb = StringBasis(wn.top, 2)
lb = LoopBasis(sb, wn.mu)
ops = {a: mpo_O(reps[a], 2, lb) for a in fd.labels}
print("   identity class acts as the identity matrix:",
      np.allclose(ops[fd.identity].matrix, np.eye(lb.dim)))
for a in fd.labels:
    for b in fd.labels:
        want = sum(fd.n_table[(a, b, c)] * ops[c].matrix for c in fd.labels)
        got = ops[a].matrix @ ops[b].matrix
        print(f"   O_{a} O_{b} = sum of fusion multiples, residual "
              f"{np.max(np.abs(got - want)):.2e}")

p = pmpo_P(fd, reps, 2, lb)
print(f"   projector idempotency residual: {p.idempotency_defect():.2e}")
print(f"   folding map is invertible: rank {operator_rank(np.diag(lb.fold_factor), 1e-10)} "
      f"of {lb.dim}")

print("\n== rank of the projector (dense, and as the trace of P^k) vs flat-field dimension")
builders = [("A3", lambda: build_dynkin("A3"), 4),
            ("A4", lambda: build_dynkin("A4"), 4),
            ("A5", lambda: build_dynkin("A5"), 4),
            ("D4", lambda: build_dynkin("D4"), 4),
            ("E6", lambda: build_dynkin("E6"), 2),
            ("trivial d=2", lambda: build_trivial(2), 4),
            ("Z/4", lambda: build_cyclic_group(4), 3)]
for label, make, kmax in builders:
    fd, reps, wn = discover_irreducibles(make(), seed=0)
    ranks, traces, flats = [], [], []
    for k in range(1, kmax + 1):
        basis = LoopBasis(StringBasis(wn.top, k), wn.mu)
        ranks.append(operator_rank(pmpo_P(fd, reps, k, basis)))
        traces.append(round(projector_trace(fd, reps, k), 9))
        flats.append(flat_fields(wn, k, return_basis=False).dimension)
    verdict = "EQUAL" if ranks == traces == flats else "MISMATCH"
    print(f"   {label:12s} dense ranks {ranks}  traces {traces}  flat {flats}  -> {verdict}")
