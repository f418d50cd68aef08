"""Command-line interface: pipelines, exit codes, report determinism."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import biunitary.cli
import biunitary.decomp
import biunitary.nullspace
import biunitary.strings
from biunitary import (LadderEngine, PathSet, build_dynkin, connection_from_document,
                       connection_to_document)
from biunitary.cli import main
from biunitary.decomp import DecompositionError
from biunitary.ladders import grid_counts
from biunitary.strings import _constraint_blocks, flat_fields


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_builtin_writes_document(tmp_path, capsys):
    path = tmp_path / "a3.json"
    code, _, _ = run(capsys, "builtin", "dynkin", "A3", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["format"] == "connection-interchange"
    assert doc["version"] == 1


def test_check_passes_on_builtin_file(tmp_path, capsys):
    path = tmp_path / "a3.json"
    run(capsys, "builtin", "dynkin", "A3", "--out", str(path))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "PASS" in out


def test_check_fails_on_broken_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format": "connection-interchange", "version": 1,')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error" in err


def test_missing_file_is_input_error(capsys):
    code, _, _ = run(capsys, "check", "/nonexistent/conn.json")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", "dynkin A3", "--out", "{dir}"],
    ["builtin", "dynkin", "A3", "--out", "{dir}"],
    ["check", "{dir}"],
])
def test_directory_paths_are_input_errors(tmp_path, capsys, argv):
    code, out, err = run(capsys, *(a.format(dir=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(tmp_path) in err


@pytest.mark.parametrize("command", [["relcomm", "-k", "2"], ["check"]])
@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_cell_values_are_input_errors(tmp_path, capsys, command, part, value):
    path = tmp_path / "a3.json"
    run(capsys, "builtin", "dynkin", "A3", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["values"][0][part] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "is not finite" in err


def test_verify_theorem_a3(capsys):
    code, out, _ = run(capsys, "verify-theorem", "--builtin", "dynkin A3", "-k", "3")
    assert code == 0
    assert "k=3: rank 4  flat 4" in out
    assert "overall PASS" in out


def test_decompose_cyclic_two(capsys):
    code, out, _ = run(capsys, "decompose", "--builtin", "cyclic 2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == ["a0", "a1"]
    assert float(doc["w"]) == 2.0
    assert all(float(v) == 1.0 for v in doc["d"].values())


def test_pmpo_and_relcomm_agree(capsys):
    code, out, _ = run(capsys, "pmpo", "--builtin", "dynkin A4", "-k", "3",
                       "--format", "json")
    assert code == 0
    rank = json.loads(out)["rank"]
    code, out, _ = run(capsys, "relcomm", "--builtin", "dynkin A4", "-k", "3",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["flat_dimension"] == rank == 5


def test_stats_runs(capsys):
    code, out, _ = run(capsys, "stats", "--builtin", "dynkin A4", "-n", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levels"]) == 3


@pytest.mark.parametrize("drop", [None, "base", "gamma"])
def test_stats_needs_the_base_but_not_gamma(tmp_path, capsys, drop):
    doc = connection_to_document(build_dynkin("A3"))
    doc.pop(drop, None)
    path = tmp_path / "a3.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "stats", str(path), "-n", "3")
    if drop == "base":
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: sector statistics need a connection with a base vertex"]
    else:
        assert code == 0 and err == ""
        assert out == run(capsys, "stats", "--builtin", "dynkin A3", "-n", "3")[1]


def test_reports_deterministic_across_seeds(capsys):
    texts = []
    for seed in ("0", "1", "2"):
        code, out, _ = run(capsys, "decompose", "--builtin", "dynkin A4",
                           "--format", "json", "--seed", seed)
        assert code == 0
        doc = json.loads(out)
        doc.pop("seed")
        texts.append(json.dumps(doc, sort_keys=True))
    assert texts[0] == texts[1] == texts[2]


def test_same_seed_byte_identical(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "verify-theorem", "--builtin", "cyclic 3",
                           "-k", "2", "--format", "json", "--seed", "7")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_unknown_builtin_is_input_error(capsys):
    code, _, _ = run(capsys, "check", "--builtin", "octonion 3")
    assert code == 2
    for args in (["builtin", "dynkin", "_"], ["builtin", "dynkin", ""],
                 ["builtin", "dynkin", "E"], ["builtin", "dynkin", "A3x"],
                 ["check", "--builtin", "dynkin _"]):
        code, out, err = run(capsys, *args)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), args


def test_invalid_tolerance_is_input_error(capsys):
    code, _, _ = run(capsys, "check", "--builtin", "dynkin A3", "--tol", "0.5")
    assert code == 2


def test_invalid_k_is_input_error(capsys):
    code, _, _ = run(capsys, "pmpo", "--builtin", "dynkin A3", "-k", "0")
    assert code == 2


def test_invalid_powers_is_refused_before_discovery(capsys, monkeypatch):
    def discover(*args, **kwargs):
        raise AssertionError("--powers must be checked before discovery")

    monkeypatch.setattr(biunitary.cli, "discover_irreducibles", discover)
    code, out, err = run(capsys, "decompose", "--builtin", "dynkin A3", "--powers", "0")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: powers must be >= 1"]


def test_depth_cap_is_numeric_failure(capsys):
    code, _, err = run(capsys, "decompose", "--builtin", "dynkin A7",
                       "--max-depth", "1")
    assert code == 1
    assert "max_depth" in err or "depth" in err


@pytest.mark.parametrize("argv,message", [
    (["stats", "--builtin", "dynkin A3", "-n", "0"], "n must be >= 1"),
    (["decompose", "--builtin", "dynkin A3", "--max-depth", "0"], "max depth must be >= 1"),
    (["check", "--builtin", "dynkin"], "usage: dynkin <A3|D4|E6|...>"),
    (["check", "--builtin", "trivial"], "usage: trivial <d>"),
    (["check", "--builtin", "  "], "empty builtin request"),
    (["check"], "no input: give a connection file or --builtin"),
])
def test_usage_errors_are_input_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {message}"]


def test_builtin_writes_its_document_to_stdout(capsys):
    code, out, err = run(capsys, "builtin", "dynkin", "A3")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert doc == connection_to_document(build_dynkin("A3"))
    assert connection_to_document(connection_from_document(doc)) == doc


def direct_sum(conn):
    """The document of ``conn`` beside a copy of itself, every id of the copy
    suffixed with ``b``: a bi-unitary connection on a disconnected square."""
    doc = connection_to_document(conn)
    doc["layers"] += [{"id": r["id"] + "b", "layer": r["layer"]} for r in doc["layers"]]
    doc["mu"] |= {v + "b": m for v, m in doc["mu"].items()}
    for g in doc["graphs"].values():
        g["edges"] += [{key: e[key] + "b" for key in ("id", "src", "dst")} for e in g["edges"]]
    sides = ("left", "top", "right", "bottom")
    doc["values"] += [rec | {side: rec[side] + "b" for side in sides} for rec in doc["values"]]
    return doc


@pytest.mark.parametrize("name,unreached", [("trivial 2", "0:xb from base vertex 0:x"),
                                            ("dynkin D5", "0:1b, 0:3b from base vertex 0:1")])
def test_a_disconnected_top_graph_is_input_error(tmp_path, capsys, monkeypatch, name, unreached):
    kind, arg = name.split()
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(direct_sum(biunitary.cli._build_builtin([kind, arg]))))
    assert run(capsys, "check", str(path))[0] == 0

    def refused(*args, **kwargs):
        raise AssertionError("the input must be refused first")

    # discovery refuses before any hom solve, the flat solve before its half ladder
    monkeypatch.setattr(biunitary.decomp, "hom_space", refused)
    monkeypatch.setattr(LadderEngine, "half_ladder", refused)
    for argv in (["decompose"], ["verify-theorem", "-k", "2"], ["pmpo", "-k", "2"], ["stats"]):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (2, ""), argv
        assert err.splitlines() == ["error: top graph 'G' is not connected: "
                                    "its unit connection is reducible"]
    code, out, err = run(capsys, "relcomm", str(path), "-k", "2")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: vertical graph does not reach {unreached}"]


def test_pmpo_dump_includes_legend(capsys):
    code, out, _ = run(capsys, "pmpo", "--builtin", "dynkin A3", "-k", "1",
                       "--dump", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis_legend"]) == doc["dim"]
    assert len(doc["matrix"]) == doc["dim"]


def test_flat_system_failure_is_numeric_failure(capsys, monkeypatch):
    def no_gap(*args, **kwargs):
        raise RuntimeError("flatness system has no clean spectral gap")

    monkeypatch.setattr(biunitary.cli, "flat_fields", no_gap)
    code, _, err = run(capsys, "relcomm", "--builtin", "dynkin A3", "-k", "2")
    assert code == 1
    assert err.startswith("error: flatness system has no clean spectral gap")
    assert "Traceback" not in err


def test_decomposition_failure_is_numeric_failure(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise DecompositionError("endomorphism algebra is empty")

    monkeypatch.setattr(biunitary.cli, "discover_irreducibles", fail)
    code, _, err = run(capsys, "verify-theorem", "--builtin", "dynkin A3", "-k", "1")
    assert code == 1
    assert err.startswith("error: endomorphism algebra is empty")
    assert "Traceback" not in err


def test_relcomm_header_claims_no_tolerance(capsys):
    # relcomm runs no discovery, so --tol decides nothing there
    code, out, _ = run(capsys, "relcomm", "--builtin", "dynkin A3", "-k", "2",
                       "--tol", "1e-7")
    assert code == 0
    assert out.splitlines()[0] == "flat fields at k = 2"
    assert "tol" not in out


def test_pmpo_over_memory_budget_is_input_error(capsys, monkeypatch):
    # A3 at k=2 has dim B_k = 4: two dense complex arrays are 512 bytes
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", 511)
    code, out, err = run(capsys, "pmpo", "--builtin", "dynkin A3", "-k", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: dense P^k at k=2 on dim B_k = 4 ")
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", 512)
    code, _, _ = run(capsys, "pmpo", "--builtin", "dynkin A3", "-k", "2")
    assert code == 0


def test_verify_theorem_builds_no_dense_projector(capsys, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("verify-theorem must not use the dense projector")

    monkeypatch.setattr(biunitary.cli, "pmpo_P", dense)
    monkeypatch.setattr(biunitary.cli, "operator_rank", dense)
    code, out, _ = run(capsys, "verify-theorem", "--builtin", "dynkin E6", "-k", "4")
    assert code == 0
    assert "k=4: rank 21  flat 21" in out
    assert "overall PASS" in out


def test_non_integral_trace_is_numeric_failure(capsys, monkeypatch):
    monkeypatch.setattr(biunitary.cli, "projector_trace", lambda fd, reps, k: 2.5)
    code, out, err = run(capsys, "verify-theorem", "--builtin", "dynkin A3", "-k", "2")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: trace of P^k at k=1 is not integral: 2.5, residual")
    assert "Traceback" not in err


def half_ladder_bytes(conn, k):
    """The blocks of the flat solve's last two half-ladder states, 512 B per
    grid pair of each for their headers and keys, 4 KiB for the headers of
    the sweep's transients, and four copies of the largest column product
    ``m @ flat`` of the last two steps: anchors x -> y, times the bonds of the
    step's most multiple edge, times |P(x -> u)| |P(y -> v)| at the step
    before."""
    eng = LadderEngine(_constraint_blocks(conn))
    counts = {j: grid_counts(conn.top, j) for j in (k - 1, k)}
    blocks = sum(16 * eng.block_entries(c, j) + 512 * len(c) ** 2 for j, c in counts.items())
    product = 0
    for j in range(max(1, k - 1), k + 1):
        before = grid_counts(conn.top, j - 1)
        bonds = eng.conn.right if j % 2 == 1 else eng.conn.left
        most = max(len(bonds.edges_between(s, r)) for _, s, r in bonds.edges)
        product = max(product, most * max(len(eng.conn.left.edges_between(x, y)) * p * q
                                          for (x, _), p in before.items()
                                          for (y, _), q in before.items()))
    return blocks + 4096 + 4 * 16 * product


def stack_bytes(conn, k, basis=False):
    """The flat solve's reach stacks on n0 fields, its real Gram twice, and four
    column chunks of a constraint (one chunk and the Kraus temporaries), each
    of max(n0^2, 2^16) entries but no more than the largest row grid, and at
    least one column of it; with a basis, a second array as large as the
    reach stacks; and 256 B per string, per path of length <= k and, four
    times over, per grid pair, for the Python bookkeeping."""
    counts = grid_counts(conn.top, k)
    dims = {}
    for (x, _), n in counts.items():
        dims[x] = dims.get(x, 0) + n * n
    n0, q = min(dims.values()), max(counts.values())
    chunk = max(min(max(n0 * n0, 2 ** 16), n0 * q * q), n0 * q)
    paths = sum(sum(grid_counts(conn.top, j).values()) for j in range(k + 1))
    books = 256 * (sum(dims.values()) + paths + 4 * len(counts) ** 2)
    return 16 * (n0 * ((1 + basis) * sum(dims.values()) + n0) + 4 * chunk) + books


def test_flat_solve_over_memory_budget_is_input_error(capsys, monkeypatch):
    need = max(half_ladder_bytes(build_dynkin("A3"), 2), stack_bytes(build_dynkin("A3"), 2))
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need - 1)
    for command in ("relcomm", "verify-theorem"):
        code, out, err = run(capsys, command, "--builtin", "dynkin A3", "-k", "2")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: flat solve at k=2 on ")
        assert "GiB" in err
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need)
    code, _, _ = run(capsys, "relcomm", "--builtin", "dynkin A3", "-k", "2")
    assert code == 0


def test_oversized_flat_solve_stops_before_allocating():
    # D5 at k=12 has 2704 paths: its half-ladder blocks take 0.6 GiB, but its
    # reach stacks, Gram and constraint chunks would take 23795.4 GiB.  The
    # child runs under a 2 GiB address-space cap, so reaching any allocation
    # of that size would end in MemoryError (exit 1), not in exit 2.
    if stack_bytes(build_dynkin("D5"), 12) <= biunitary.nullspace.DENSE_BUDGET_BYTES:
        pytest.skip("this machine's memory budget admits the case")
    src = os.path.dirname(os.path.dirname(os.path.abspath(biunitary.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from biunitary.cli import main\n"
            "sys.exit(main(['relcomm', '--builtin', 'dynkin D5', '-k', '12']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: flat solve at k=12 on 2704 paths needs 23795.4 GiB "
                                  "for its reach stacks, constraints and Gram")
    assert 23795.35 * 2**30 <= stack_bytes(build_dynkin("D5"), 12) < 23795.45 * 2**30


@pytest.mark.parametrize("name,k,return_basis", [
    pytest.param(name, k, basis, id=f"{name}-{k}" + "-basis" * basis)
    for basis in (False, True)
    for name, k in [("dynkin:D5", 6), ("dynkin:E6", 5), ("cyclic:4", 5), ("trivial:3", 4),
                    ("dynkin:E6", 4), ("dynkin:A7", 5), ("cyclic:5", 3), ("cyclic:4", 3),
                    ("cyclic:3", 3)]])
def test_flat_preflight_bounds_the_traced_peak(systems, name, k, return_basis):
    # trivial 3 takes the exact shortcut; the others chunk their constraints
    wn = systems(name).wn
    tracemalloc.start()
    try:
        flat_fields(wn, k, return_basis=return_basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= half_ladder_bytes(wn, k) + stack_bytes(wn, k, return_basis)


@pytest.mark.parametrize("name,k", [("cyclic:5", 3), ("dynkin:D5", 6), ("trivial:3", 4),
                                    ("dynkin:E6", 5), ("cyclic:4", 5)])
def test_half_ladder_preflight_bounds_the_traced_sweep(systems, name, k):
    # the sweep alone: its blocks, their headers and its column products
    wn = systems(name).wn
    eng, pathset = LadderEngine(_constraint_blocks(wn)), PathSet(wn.top, k)
    tracemalloc.start()
    try:
        eng.half_ladder(pathset, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= half_ladder_bytes(wn, k)


def test_flat_preflight_counts_the_basis(capsys, monkeypatch):
    # the budget admits D5's solve at k=5, but not its basis as well
    need = stack_bytes(build_dynkin("D5"), 5)
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need)
    argv = ("relcomm", "--builtin", "dynkin D5", "-k", "5", "--format", "json")
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, "--basis")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=5 on ")
    assert "for its reach stacks, basis, constraints and Gram" in err


@pytest.mark.parametrize("command", ["relcomm", "verify-theorem"])
def test_flat_preflight_lists_no_path(capsys, command):
    # 170459392 paths of length 30: only their counts are ever formed
    code, out, err = run(capsys, command, "--builtin", "dynkin D5", "-k", "30")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=30 on 170459392 paths needs ")
    assert "for its half ladder" in err


def test_flat_transports_over_budget_stop_before_the_basis(capsys, monkeypatch):
    # D5 at k=8: a few MiB of ladder blocks, 1.3 GiB of reach stacks and the rest
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", 1 << 30)
    monkeypatch.setattr(biunitary.strings, "StringBasis", None)
    code, out, err = run(capsys, "relcomm", "--builtin", "dynkin D5", "-k", "8")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=8 on 232 paths needs 1.3 GiB "
                          "for its reach stacks, constraints and Gram")
    assert 1.25 * 2**30 <= stack_bytes(build_dynkin("D5"), 8) < 1.35 * 2**30


def test_exact_shortcut_checks_its_basis_only_when_asked(capsys, monkeypatch):
    # trivial 3 at k=5 is all flat: no transport is formed, and its identity
    # basis would be 59049 x 59049
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", 4 << 30)
    code, out, _ = run(capsys, "relcomm", "--builtin", "trivial 3", "-k", "5")
    assert code == 0
    assert "flat dimension         59049" in out
    # the table report prints no basis, so it forms none
    code, out, _ = run(capsys, "relcomm", "--builtin", "trivial 3", "-k", "5", "--basis")
    assert code == 0
    assert "flat dimension         59049" in out
    code, out, err = run(capsys, "relcomm", "--builtin", "trivial 3", "-k", "5", "--basis",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=5 on 243 paths needs 52.0 GiB for its basis")


def test_verify_theorem_solves_the_largest_k_first(capsys, monkeypatch):
    # D5 at k=8 needs 1.3 GiB of stacks: its solve runs before any other
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", 1 << 30)
    solved = []
    solve = biunitary.cli.flat_fields

    def counted(conn, k, **kwargs):
        solved.append(k)
        return solve(conn, k, **kwargs)

    monkeypatch.setattr(biunitary.cli, "flat_fields", counted)
    code, out, err = run(capsys, "verify-theorem", "--builtin", "dynkin D5", "-k", "8")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=8 on 232 paths needs 1.3 GiB")
    assert solved == [8]


# bytes per matrix entry of the check that refuses each JSON matrix report first;
# pmpo's formatted entries fit in the two dense arrays its pre-flight counts
MATRIX_REPORT_CHECKS = {
    "relcomm": (biunitary.cli.FORMATTED_ENTRY_BYTES, "its formatted JSON entries"),
    "pmpo": (32, "two dense dim B_k x dim B_k arrays"),
}


@pytest.mark.parametrize("command,flag", [("relcomm", "--basis"), ("pmpo", "--dump")])
def test_formatted_matrices_count_against_the_budget(capsys, monkeypatch, command, flag):
    # trivial 2 at k=3: a 64 x 64 matrix, whose half ladder takes less than its entries
    entry_bytes, purpose = MATRIX_REPORT_CHECKS[command]
    need = entry_bytes * 64 ** 2
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need - 1)
    argv = (command, "--builtin", "trivial 2", "-k", "3", flag, "--format", "json")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert f"for {purpose}" in err
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["dim"] == 64


def test_oversized_builtin_is_refused_before_its_cells(capsys, monkeypatch):
    # trivial 3 has 9 cells
    need = biunitary.cli._BUILTIN_CELL_BYTES * 9
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need - 1)
    code, out, err = run(capsys, "check", "--builtin", "trivial 3")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: builtin trivial 3 needs ")
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need)
    code, _, _ = run(capsys, "check", "--builtin", "trivial 3")
    assert code == 0
    # unpatched, in a child: 10^22 cells are refused at once, not filled in
    src = os.path.dirname(os.path.dirname(os.path.abspath(biunitary.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    prog = ("import sys\n"
            "from biunitary.cli import main\n"
            "sys.exit(main(['check', '--builtin', 'trivial 99999999999']))\n")
    proc = subprocess.run([sys.executable, "-c", prog], capture_output=True, text=True,
                          env=env, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: builtin trivial 99999999999 needs ")


def test_oversized_corner_block_is_refused_before_it_is_formed():
    # trivial 300 passes the cell budget (90000 cells), but its one corner
    # block is 90000 x 90000; under a 2 GiB address-space cap, forming it
    # would end in MemoryError, not in exit 2
    src = os.path.dirname(os.path.dirname(os.path.abspath(biunitary.cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    prog = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from biunitary.cli import main\n"
            "sys.exit(main(['check', '--builtin', 'trivial 300']))\n")
    proc = subprocess.run([sys.executable, "-c", prog], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: connection needs 482.8 GiB for the unitarity check "
                                  "of its 90000 x 90000 corner block")
    assert "Traceback" not in proc.stderr


def test_a_refused_report_writes_no_file(tmp_path, capsys, monkeypatch):
    need = biunitary.cli.FORMATTED_ENTRY_BYTES * 64 ** 2
    monkeypatch.setattr(biunitary.nullspace, "DENSE_BUDGET_BYTES", need - 1)
    path = tmp_path / "F"
    argv = ("relcomm", "--builtin", "trivial 2", "-k", "3", "--basis", "--out", str(path))
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not path.exists()
    # the table report prints no basis, so it formats none
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert "string space dimension 64" in path.read_text()
