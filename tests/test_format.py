"""Interchange format: bit-exact round trips and validation failures."""

import json

import pytest

from biunitary import (
    ConnectionError,
    build_cyclic_group,
    build_dynkin,
    build_trivial,
    connection_from_document,
    connection_to_document,
    read_connection,
    renormalize,
    write_connection,
)
from biunitary.cli import main


@pytest.mark.parametrize("make", [
    lambda: build_dynkin("A4"),
    lambda: build_trivial(3),
    lambda: build_cyclic_group(3),
] + [
    # a renormalization keeps gamma; its top graph starts on another layer, so it has no base
    lambda name=name, kind=kind: renormalize(build_dynkin(name), kind)
    for name in ("A4", "D5", "E6") for kind in ("prime", "bar", "bar_prime")
])
def test_round_trip_bit_exact(tmp_path, make):
    conn = make()
    path = tmp_path / "conn.json"
    write_connection(conn, path)
    back = read_connection(path)
    assert back.values == conn.values          # complex values, exact
    assert back.mu == conn.mu
    assert back.gamma == conn.gamma
    assert back.base == conn.base
    assert back.top.edges == conn.top.edges
    # a second write is byte-identical
    path2 = tmp_path / "again.json"
    write_connection(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_seventeen_digit_payload():
    doc = connection_to_document(build_dynkin("A4"))
    mu = doc["mu"]["1:2"]
    assert float(mu) == build_dynkin("A4").mu["1:2"]
    assert len(mu.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_rejects_wrong_format():
    with pytest.raises(ConnectionError):
        connection_from_document({"format": "something-else", "version": 1})


def test_rejects_wrong_version():
    doc = connection_to_document(build_trivial(2))
    doc["version"] = 99
    with pytest.raises(ConnectionError):
        connection_from_document(doc)


def test_read_rejects_truncated_file(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(connection_to_document(build_trivial(2)))[:40])
    with pytest.raises(ConnectionError):
        read_connection(p)


def test_missing_weights_are_derived(tmp_path):
    conn = build_dynkin("A4")
    doc = connection_to_document(conn)
    del doc["mu"]
    back = connection_from_document(doc)
    # derived weights agree up to overall scale, so value ratios are intact
    ratio = back.mu["0:1"] / conn.mu["0:1"]
    for v in conn.mu:
        assert abs(back.mu[v] - ratio * conn.mu[v]) < 1e-9
    from biunitary import check_biunitarity
    assert check_biunitarity(back, 1e-9).passed


def test_absent_cells_are_zero(tmp_path):
    conn = build_trivial(2)
    doc = connection_to_document(conn)
    assert len(doc["values"]) == len(conn.values)
    back = connection_from_document(doc)
    assert back.value(("H:0", "G:0", "Hp:1", "Gp:0")) == 0


def _without_graphs():
    doc = connection_to_document(build_trivial(2))
    doc["graphs"] = {}
    return doc


def _a3_with(field, value):
    """The A3 document with one field replaced; ``mu`` replaces the weight of 0:1,
    ``re`` and ``im`` a part of the first cell value."""
    doc = connection_to_document(build_dynkin("A3"))
    if field == "mu":
        doc["mu"]["0:1"] = value
    elif field in ("re", "im"):
        doc["values"][0][field] = value
    else:
        doc[field] = value
    return doc


def _a3_base(value, mu=True):
    """The A3 document with ``base`` replaced, and its weights dropped unless ``mu``."""
    doc = _a3_with("base", value)
    if not mu:
        del doc["mu"]
    return doc


@pytest.mark.parametrize("make,message", [
    (lambda: {"format": "connection-interchange", "version": 1},
     "missing or invalid field 'layers' (KeyError: 'layers')"),
    (lambda: [{"format": "connection-interchange", "version": 1}],
     "connection document is not a JSON object"),
    (_without_graphs, "missing or invalid field 'graphs.top' (KeyError: 'top')"),
    (lambda: _a3_with("mu", "0"), "weight mu['0:1'] = 0.0 is not positive and finite"),
    (lambda: _a3_with("mu", "nan"), "weight mu['0:1'] = nan is not positive and finite"),
    (lambda: _a3_with("mu", "-1"), "weight mu['0:1'] = -1.0 is not positive and finite"),
    (lambda: _a3_with("gamma", ["0", "0"]),
     "gamma = (0.0, 0.0) is not a pair of positive finite numbers"),
    (lambda: _a3_with("gamma", ["inf", "2"]),
     "gamma = (inf, 2.0) is not a pair of positive finite numbers"),
    (lambda: _a3_with("gamma", ["2"]), "missing or invalid field 'gamma' (IndexError: "),
    (lambda: _a3_with("gamma", "12"),
     "missing or invalid field 'gamma' (TypeError: '12' is not a list)"),
    (lambda: _a3_with("gamma", ["2", "2", "2"]),
     "missing or invalid field 'gamma' (IndexError: 3 entries, not 2)"),
    (lambda: _a3_with("gamma", [True, "2"]),
     "missing or invalid field 'gamma' (TypeError: True is not a number)"),
    (lambda: _a3_with("mu", True),
     "missing or invalid field 'mu' (TypeError: True is not a number)"),
    (lambda: _a3_with("re", True),
     "missing or invalid field 'values' (TypeError: True is not a number)"),
    (lambda: _a3_with("im", False),
     "missing or invalid field 'values' (TypeError: False is not a number)"),
    (lambda: _a3_with("base", "0:9"),
     "base = '0:9' is not a source vertex of the top graph"),
    (lambda: _a3_with("name", 3), "missing or invalid field 'name' (TypeError: "),
    (lambda: _a3_with("name", ["A3"]), "missing or invalid field 'name' (TypeError: "),
    (lambda: _a3_base(["0:0"]),
     "missing or invalid field 'base' (TypeError: ['0:0'] is not a string)"),
    (lambda: _a3_base({"id": "0:0"}),
     "missing or invalid field 'base' (TypeError: {'id': '0:0'} is not a string)"),
    (lambda: _a3_base(["0:0"], mu=False),
     "missing or invalid field 'base' (TypeError: ['0:0'] is not a string)"),
    (lambda: _a3_base({"id": "0:0"}, mu=False),
     "missing or invalid field 'base' (TypeError: {'id': '0:0'} is not a string)"),
])
def test_malformed_documents_name_the_field(tmp_path, capsys, make, message):
    with pytest.raises(ConnectionError) as err:
        connection_from_document(make())
    assert message in str(err.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(make()))
    assert main(["check", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [f"error: {err.value}"]
