"""JSON reports write their matrix row by row, in the bytes of the per-entry oracle;
the formatting kernel writes each part in the bytes of Python's ``%.17g``."""

import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import biunitary.cli
from biunitary.cli import _FEW_PARTS, _emit, _format_parts, _g17, _write_matrix, main
from report_oracle import oracle_text

NAN, INF = float("nan"), float("inf")
TINY = 5e-324                    # the smallest subnormal
# The doubles nearest 10^E, of which those below 10^E round up to the next decade at 17
# digits; the two literals read as 0.0001 and 1e+17, across the notation switches
CARRIES = [9.99999999999999999e-5, 99999999999999999.0] + [float(f"1e{e}") for e in range(-99, 99)]

MATRICES = {
    "signed-zeros": np.array([[complex(0.0, 0.0), complex(-0.0, 0.0),
                               complex(0.0, -0.0), complex(-0.0, -0.0)]]),
    "extremes": np.array([[complex(TINY, -TINY), complex(-TINY, 2.2250738585072014e-308),
                           complex(1e-310, -1e-310)],
                          [complex(1e300, -1e-300), complex(-1e-300, 1e300),
                           complex(1 / 3, -2 / 3)]]),
    "real": np.array([[1 / 3, -0.0], [-1e300, TINY]]),
    "transposed": (np.arange(6).reshape(2, 3) * (1 - 1j) / 3).T,
    "one-entry": np.array([[1 + 1j]]),
    "no-rows": np.zeros((0, 3), dtype=complex),
    "no-columns": np.zeros((3, 0), dtype=complex),
    "non-finite": np.array([[complex(NAN, NAN), complex(INF, -INF)],
                            [complex(-INF, INF), complex(1.0, NAN)]]),
    # enough nonzero parts that the kernel, not Python's %, writes them
    "carries": np.resize(CARRIES, (2, 300)) * (1 - 1j),
    "dense": (np.random.default_rng(0).standard_normal((3, 400)) * (1 + 1j)
              * 10.0 ** np.random.default_rng(1).integers(-30, 30, (3, 400))),
    # rows of 2200 parts: a kernel chunk and a short chunk that Python's % writes
    "wide": np.random.default_rng(5).standard_normal((2, 1100)) * (1 - 2j),
}

# a legend entry that looks like the placeholder and the field it stands in
DECOY = ['"matrix": "\0matrix\0"', "\0matrix\0", '"basis": "\0matrix\0"']


def relcomm_report(mat):
    return {"command": "relcomm", "k": 2, "dim": mat.shape[1],
            "flat_dimension": mat.shape[0], "basis": mat}


def pmpo_report(mat):
    return {"command": "pmpo", "k": 2, "dim": mat.shape[0], "rank": 1,
            "idempotency_residual": "0", "basis_legend": [DECOY], "matrix": mat}


def written(capsys, out):
    """The report on stdout, or in the file ``out`` with stdout left empty."""
    text = capsys.readouterr().out
    if out is None:
        return text
    assert text == ""
    return out.read_bytes().decode()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("make", [relcomm_report, pmpo_report])
@pytest.mark.parametrize("name", MATRICES)
def test_matrix_bytes_equal_the_oracle(tmp_path, capsys, name, make, to_file):
    report = make(MATRICES[name])
    out = tmp_path / "report.json" if to_file else None
    _emit(SimpleNamespace(format="json", out=out), report, ["unused"])
    assert written(capsys, out) == oracle_text(report)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("argv,key", [
    (("relcomm", "--builtin", "trivial 3", "-k", "2", "--basis"), "basis"),
    (("pmpo", "--builtin", "dynkin D4", "-k", "2", "--dump"), "matrix"),
])
def test_commands_write_their_matrix_as_the_oracle(tmp_path, capsys, monkeypatch,
                                                  argv, key, to_file):
    reports = []
    emit = biunitary.cli._emit

    def recording(args, report, lines):
        reports.append(report)
        emit(args, report, lines)

    monkeypatch.setattr(biunitary.cli, "_emit", recording)
    out = tmp_path / "report.json" if to_file else None
    assert main([*argv, "--format", "json", *(["--out", str(out)] if out else [])]) == 0
    (report,) = reports
    assert isinstance(report[key], np.ndarray) and report[key].size > 0
    assert written(capsys, out) == oracle_text(report)


def python_g17(x, plus):
    return [(("%+.17g" if p else "%.17g") % v).encode() for v, p in zip(x.tolist(), plus.tolist())]


def may_be_unset(v):
    """Where the kernel may leave a part to Python: 0 < |v| < 1e-99, |v| >= 1e99, NaN and
    inf, and within 1e-11 of a rounding tie where 10^(16-E) is not a double."""
    if not 1e-99 <= abs(v) < 1e99:
        return v != 0
    q = Fraction(abs(v))
    e = len(str(int(q))) - 1 if q >= 1 else -len(str(int(1 / q)))    # 10^e <= q < 10^(e + 1)
    y = q * Fraction(10) ** (16 - e)
    return not 0 <= 16 - e <= 22 and abs(y - int(y) - Fraction(1, 2)) < Fraction(1, 10 ** 11)


def assert_formats_as_python(values):
    """The kernel alone where it sets a string, and the whole formatting, in both sign
    modes, on enough copies of the values that the kernel runs."""
    x = np.resize(np.asarray(values, dtype=float), max(len(values), 2 * _FEW_PARTS))
    for plus in (np.zeros(len(x), bool), np.ones(len(x), bool), np.arange(len(x)) % 2 == 1):
        want = python_g17(x, plus)
        text, unset = _g17(x, plus)
        assert all(t == w for t, w, u in zip(text.tolist(), want, unset) if not u)
        assert all(may_be_unset(v) for v in x[unset].tolist())
        assert _format_parts(x, plus).tolist() == want


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_any_floats_format_as_python(values):
    # subnormals, signed zeros, NaN and inf included
    assert_formats_as_python(values)


POWERS = np.array([float(f"1e{e}") for e in range(-323, 309)])
rng = np.random.default_rng(2)
EDGES = {
    "powers of ten and their neighbours": np.concatenate(
        [POWERS, np.nextafter(POWERS, 0), np.nextafter(POWERS, INF), -POWERS]),
    "half-way values": (2 * rng.integers(0, 2 ** 20, 2000) + 1) * 2.0 ** -rng.integers(0, 70, 2000),
    # odd m / 2^j with 18 digits: exact ties at 17, on scales 10^(16-E) exact or not (E < -6)
    "exact ties": [m / 2 ** j for j in range(1, 26)
                   for m in range(-(-10 ** 17 // 5 ** j) | 1, 10 ** 18 // 5 ** j, 2)[:100]],
    "integers above 2^53": np.concatenate([2.0 ** 53 + 2 * np.arange(500), 2.0 ** np.arange(53, 200),
                                           rng.integers(2 ** 53, 2 ** 63, 500).astype(float)]),
    "3-digit exponents": [1e100, -1e-100, 9.9999999999999999e99, 1.5e-300, 2.2250738585072014e-308,
                          TINY, -1.7976931348623157e308, 1e-99, 1e99, -np.nextafter(1e99, 0)],
    "decade carries": CARRIES,
    "random": rng.standard_normal(4000) * 10.0 ** rng.integers(-120, 120, 4000),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_cases_format_as_python(name):
    assert_formats_as_python(EDGES[name])


def test_decade_carries_switch_notation():
    assert python_g17(np.array(CARRIES[:2]), np.zeros(2, bool)) == [b"0.0001", b"1e+17"]
    # doubles below 10^E whose 17 digits round up to it, which the kernel writes itself
    carried = [v for e, v in zip(range(-99, 99), CARRIES[2:])
               if Fraction(v) < Fraction(10) ** e == Fraction("%.17g" % v)]
    assert carried == [1e-79, 1e-78, 1e-73, 1e-70, 1e-14, 1e98]
    x = np.resize(carried, 2 * _FEW_PARTS)
    plus = np.arange(len(x)) % 2 == 1
    text, unset = _g17(x, plus)
    assert not unset.any() and text.tolist() == python_g17(x, plus)


def test_ties_where_the_scale_is_not_a_double_are_left_to_python():
    ties = np.array([v for v in EDGES["exact ties"] if v < 1e-6])     # E = -7, -8
    assert len(ties) == 8
    for plus in (np.zeros(8, bool), np.ones(8, bool)):
        assert _g17(ties, plus)[1].all()


def test_kernel_sets_every_part_of_a_report_matrix():
    # finite parts in [1e-99, 1e99) away from ties: none left to Python's %
    x = np.random.default_rng(3).standard_normal(4096) * 10.0 ** np.arange(-40, 40).repeat(52)[:4096]
    text, unset = _g17(x, np.arange(4096) % 2 == 1)
    assert not unset.any()


@pytest.mark.parametrize("shape", [(256, 1024), (729, 729)])
def test_writer_memory_does_not_grow_with_the_matrix(shape):
    # traced peaks 738 KB and 524 KB; the matrices hold 4 and 8.5 MB, the text 12 and 25 MB
    rng = np.random.default_rng(4)
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    tracemalloc.start()
    try:
        _write_matrix(lambda text: None, mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
