"""JSON reports write their matrix row by row, in the bytes of the per-entry oracle."""

from types import SimpleNamespace

import numpy as np
import pytest

import biunitary.cli
from biunitary.cli import _emit, main
from report_oracle import oracle_text

NAN, INF = float("nan"), float("inf")
TINY = 5e-324                    # the smallest subnormal

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
