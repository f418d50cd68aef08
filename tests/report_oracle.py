"""The per-entry matrix formatting of JSON reports, kept as an oracle.

``fmt_rows`` builds the list of rows of ``"a+bj"`` strings that a report's
matrix stood for before the command line wrote matrices row by row: each
part formatted to 17 significant digits, the sign of the imaginary part
written out (``+`` when it is ``>= 0``, so ``-0.0`` gives ``+0`` and NaN
gives ``-nan``).  ``oracle_text`` is the whole report as it was encoded then.
"""

from __future__ import annotations

import json

import numpy as np

from biunitary.connection import _fmt


def fmt_rows(mat) -> list[list[str]]:
    """The rows of a complex matrix as "a+bj" strings, each part to 17 digits."""
    return [[_fmt(z.real) + ("+" if z.imag >= 0 else "-") + _fmt(abs(z.imag)) + "j"
             for z in row] for row in np.asarray(mat, dtype=complex).tolist()]


def oracle_text(report: dict) -> str:
    """A JSON report with each ``ndarray`` field encoded as ``fmt_rows``."""
    rows = {k: fmt_rows(v) for k, v in report.items() if isinstance(v, np.ndarray)}
    return json.dumps(report | rows, indent=1, sort_keys=True) + "\n"
