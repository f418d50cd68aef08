"""The compare mode of ``tools/reports.py``: bytes, except relcomm bases; the
fields of a differing JSON report are named."""

import importlib.util
import json
import pathlib

import numpy as np

from report_oracle import fmt_rows

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "reports.py"
spec = importlib.util.spec_from_file_location("reports", TOOL)
reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reports)


def relcomm_report(vectors) -> bytes:
    rows = fmt_rows(vectors)
    return json.dumps({"command": "relcomm", "flat_dimension": len(rows),
                       "basis": rows}, indent=1).encode()


def write(tmp_path, name, files):
    d = tmp_path / name
    d.mkdir()
    for fname, data in files.items():
        (d / fname).write_bytes(data)
    return d


def test_basis_gauge_is_not_a_difference(tmp_path, capsys):
    v = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 2)))[0].T
    c, s = np.cos(0.3), np.sin(0.3)
    w = np.array([[c, -s], [s, c]]) @ v          # the same span, another basis
    a = write(tmp_path, "a", {"relcomm-x.stdout": relcomm_report(v), "check-x.exit": b"0\n"})
    b = write(tmp_path, "b", {"relcomm-x.stdout": relcomm_report(w), "check-x.exit": b"0\n"})
    assert reports.main(["--compare", str(a), str(b)]) == 0
    assert capsys.readouterr().out == "2 of 2 files agree\n"


def test_every_other_difference_counts(tmp_path, capsys):
    v = np.eye(3)[:2]
    base = {"relcomm-x.stdout": relcomm_report(v), "relcomm-y.stdout": relcomm_report(v),
            "check-x.exit": b"0\n", "check-y.exit": b"0\n"}
    other = dict(base)
    other["relcomm-x.stdout"] = relcomm_report(np.eye(3)[1:])     # another span
    doc = json.loads(base["relcomm-y.stdout"])
    doc["flat_dimension"] = 3
    other["relcomm-y.stdout"] = json.dumps(doc).encode()
    other["check-x.exit"] = b"1\n"
    del other["check-y.exit"]
    a, b = write(tmp_path, "a", base), write(tmp_path, "b", other)
    assert reports.main(["--compare", str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check-x.exit: bytes differ"
    assert lines[1].startswith("check-y.exit: only in ")
    assert lines[2].startswith("relcomm-x.stdout: basis projectors differ by 1.000e+00")
    assert lines[3] == "relcomm-y.stdout: flat_dimension 2 != 3"
    assert lines[4] == "0 of 4 files agree"


def test_a_json_report_names_the_fields_that_differ(tmp_path, capsys):
    doc = {"command": "pmpo", "idempotency_residual": "2.2759572004815709e-15", "rank": 5}
    other = doc | {"idempotency_residual": "2.1094237467877974e-15", "rank": 6}
    del other["command"]
    a = write(tmp_path, "a", {"pmpo-x.stdout": json.dumps(doc, indent=1).encode(),
                              "pmpo-y.stdout": json.dumps(doc, indent=1).encode()})
    b = write(tmp_path, "b", {"pmpo-x.stdout": json.dumps(other, indent=1).encode(),
                              "pmpo-y.stdout": json.dumps(doc).encode()})   # layout only
    assert reports.main(["--compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "pmpo-x.stdout: command pmpo != (absent); "
        "idempotency_residual 2.2759572004815709e-15 != 2.1094237467877974e-15; rank 5 != 6",
        "pmpo-y.stdout: bytes differ",
        "0 of 2 files agree",
    ]


def test_usage(capsys):
    assert reports.main(["--compare", "only-one"]) == 2
    assert "usage" in capsys.readouterr().err
