"""Strings: traces, Temperley-Lieb idempotents, and the conditional expectation.

The string space carries a normalized trace; on the chain diagrams the range
of the string-side projector is generated by the Jones idempotents, and the
two-level conditional expectation averages first legs over parallel edges.
"""

import numpy as np

from biunitary import (
    Field,
    StringBasis,
    TraceData,
    build_dynkin,
    discover_irreducibles,
    flat_fields,
    jones_projection,
    jones_span_dimension,
    operator_rank,
    pmpo_P,
)
from biunitary.bratteli import (
    Bratteli2,
    StringElement2,
    conditional_expectation,
    embed_level_one,
    normalized_weights,
)

fd, reps, wn = discover_irreducibles(build_dynkin("A5"), seed=0)
g1 = wn.gamma[0]

print("== traces and Temperley-Lieb structure on A5, k = 3")
sb = StringBasis(wn.top, 3)
tr = TraceData(sb, wn.mu, g1, fd.w)
print("   trace of the identity:", tr.trace(Field.identity(sb)).real)

es = [jones_projection(wn.top, wn.mu, g1, i, 3, sb) for i in (1, 2)]
for i, e in enumerate(es, start=1):
    print(f"   e_{i}: idempotency {np.max(np.abs((e @ e - e).vec)):.2e}, "
          f"trace {tr.trace(e).real:.9f} (expected {g1 ** -2:.9f})")
braid = es[0] @ es[1] @ es[0] - (g1 ** -2) * es[0]
print(f"   e_1 e_2 e_1 = e_1 / gamma^2, residual {np.max(np.abs(braid.vec)):.2e}")

span = jones_span_dimension(wn.top, wn.mu, g1, fd.w, 3, sb)
rank = operator_rank(pmpo_P(fd, reps, 3, sb))
print(f"   span of idempotent words: {span}; projector rank: {rank}")

print("\n== flat fields carry the same structure")
res = flat_fields(wn, 3, return_basis=True)
print(f"   flat dimension {res.dimension}; basis is orthonormal in the trace norm:")
gram = np.array([[tr.inner(a, b) for b in res.fields()] for a in res.fields()])
print(f"   max |gram - identity| = {np.max(np.abs(gram - np.eye(res.dimension))):.2e}")

print("\n== the two-level conditional expectation")
diagram = Bratteli2(
    level1=[("a0", "v0"), ("a1", "v0"), ("b0", "v1")],
    level2=[("c0", "v0", "w0"), ("c1", "v0", "w0"), ("c2", "v0", "w1"),
            ("d0", "v1", "w0")],
)
weights = normalized_weights(diagram, {"w0": 1.0, "w1": 2.0})
unit = StringElement2.unit(diagram, ("a0", "c0"), ("a0", "c1"))
image = conditional_expectation(diagram, unit)
print("   a matrix unit with equal first legs spreads over the parallel edges:")
for i, (p, q) in enumerate(diagram.pairs):
    if image.vec[i]:
        print(f"     ({p}, {q}) -> {image.vec[i].real:+.3f}")
print("   trace preserved:", abs(unit.trace(weights) - image.trace(weights)) < 1e-14)
b = embed_level_one(diagram, "a0", "a1")
comm = (image @ b) - (b @ image)
print("   image commutes with the length-one algebra:",
      np.max(np.abs(comm.vec)) < 1e-14)
