"""Connections on graph squares: values, checks, reflections, files.

A connection assigns a complex number to every cell of a square of four
bipartite multigraphs.  This walkthrough builds the standard examples,
evaluates cells, runs the unitarity checkers, and round-trips a connection
through the interchange format.
"""

import os
import tempfile

from biunitary import (
    build_cyclic_group,
    build_dynkin,
    build_trivial,
    check_biunitarity,
    read_connection,
    renormalize,
    validate_square,
    write_connection,
)

# -- the A_3 diagram connection ------------------------------------------------

conn = build_dynkin("A3")
print("connection:", conn)
print("eigenvalues:", conn.gamma)
print("weights:", {v: round(m, 6) for v, m in conn.mu.items()})

# Four cells in total; the two with matching outer corners pick up the
# weight-ratio term on top of the unit-circle constant.
for cell, value in sorted(conn.cells()):
    print(f"  cell {tuple(cell)} -> {value:.6f}")

rep = validate_square(conn)
print("square eigen-equations pass:", rep.passed, f"(max residual {rep.max_residual:.2e})")

rep = check_biunitarity(conn)
print("bi-unitarity:", rep.passed,
      f"(original {rep.original.max_residual:.2e}, reflected {rep.primed.max_residual:.2e})")

# -- reflections are involutive ------------------------------------------------

primed = renormalize(conn, "prime")
# the reflected top graph starts on layer 1, so the base vertex is dropped
print("reflection keeps gamma:", primed.gamma == conn.gamma, "and has base", primed.base)
double = renormalize(primed, "prime")
diff = max(abs(conn.values[c] - double.values.get(c, 0)) for c in conn.values)
print("double horizontal reflection returns the table, max diff:", diff)

half_turn = renormalize(conn, "bar_prime")
composed = renormalize(renormalize(conn, "prime"), "bar")
diff = max(abs(half_turn.values[c] - composed.values.get(c, 0)) for c in half_turn.values)
print("half-turn equals the composition of the two reflections, max diff:", diff)

# -- every builder passes the checker at 1e-10 --------------------------------

for make, label in [(lambda: build_dynkin("A5"), "A5"),
                    (lambda: build_dynkin("D4"), "D4"),
                    (lambda: build_dynkin("E6"), "E6"),
                    (lambda: build_trivial(3), "trivial d=3"),
                    (lambda: build_cyclic_group(4), "cyclic Z/4")]:
    c = make()
    r = check_biunitarity(c, 1e-10)
    print(f"  {label:12s} residual {r.max_residual:.2e}  ->  {'ok' if r.passed else 'FAIL'}")

# -- interchange format --------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "a3.json")
    write_connection(conn, path)
    back = read_connection(path)
print("file round trip is exact:", back.values == conn.values and back.mu == conn.mu)
