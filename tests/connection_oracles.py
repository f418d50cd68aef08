"""Cell traversal conventions and the side-by-side product, kept as oracles.

No library route reads a cell against its edge orientations or glues two
connections along a vertical edge; the tests check these forms against the
renormalizations and the vertical product that the library does use.
"""

from __future__ import annotations

from dataclasses import dataclass

from biunitary import Cell, Connection, ConnectionError
from biunitary.connection import _composite_vertical, _glue, _mu_factor


@dataclass(frozen=True)
class OrientedCellQuery:
    """A cell plus traversal direction flags.

    Horizontal edges (top and bottom) may be traversed right-to-left, which
    reads the cell in mirror image; vertical edges (left and right) may be
    traversed bottom-to-top, which reads the cell flipped upside down.  The
    flags must be set pairwise: mixed single-edge reversals do not describe
    a consistent diagram.
    """

    cell: Cell
    top_reversed: bool = False
    bottom_reversed: bool = False
    left_reversed: bool = False
    right_reversed: bool = False


def extended_value(conn: Connection, q: OrientedCellQuery) -> complex:
    """Cell value under the traversal conventions.

    Both horizontal edges traversed reversed reads the cell in mirror image
    and conjugates the value; both vertical edges reversed reads it flipped
    and multiplies by sqrt(mu_x mu_w / (mu_y mu_z)); the rules compose.
    Single-edge reversals are inconsistent and rejected.
    """
    if q.top_reversed != q.bottom_reversed or q.left_reversed != q.right_reversed:
        raise ConnectionError("inconsistent orientation flags: reversals come in pairs")
    v = conn.value(q.cell)
    if q.top_reversed:
        v = v.conjugate()
    if q.left_reversed:
        v *= _mu_factor(conn, Cell(*q.cell))
    return v


def horizontal_product(leftc: Connection, rightc: Connection) -> Connection:
    """Concatenate two connections side by side; the shared vertical edge is summed."""
    if not leftc.right.structurally_equal(rightc.left):
        raise ConnectionError("horizontal product needs leftc.right == rightc.left")
    top = _composite_vertical(leftc.top, rightc.top, f"({leftc.top.name}|{rightc.top.name})")
    bottom = _composite_vertical(leftc.bottom, rightc.bottom,
                                 f"({leftc.bottom.name}|{rightc.bottom.name})")
    values = _glue(leftc, rightc, "right", "left", lambda c1, c2: Cell(
        c1.left, f"{c1.top}|{c2.top}", c2.right, f"{c1.bottom}|{c2.bottom}"))
    return Connection(top, leftc.left, bottom, rightc.right, rightc.mu | leftc.mu, values,
                      name=f"({leftc.name}.{rightc.name})")
