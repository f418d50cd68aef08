"""Command-line interface: pipelines, exit codes, report determinism."""

import json
import os
import subprocess
import sys

import pytest

import biunitary.cli
import biunitary.strings
from biunitary import LadderEngine, build_dynkin
from biunitary.cli import main
from biunitary.decomp import DecompositionError
from biunitary.ladders import grid_counts
from biunitary.strings import _constraint_blocks


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


def test_invalid_tolerance_is_input_error(capsys):
    code, _, _ = run(capsys, "check", "--builtin", "dynkin A3", "--tol", "0.5")
    assert code == 2


def test_invalid_k_is_input_error(capsys):
    code, _, _ = run(capsys, "pmpo", "--builtin", "dynkin A3", "-k", "0")
    assert code == 2


def test_depth_cap_is_numeric_failure(capsys):
    code, _, err = run(capsys, "decompose", "--builtin", "dynkin A7",
                       "--max-depth", "1")
    assert code == 1
    assert "max_depth" in err or "depth" in err


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
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", 511)
    code, out, err = run(capsys, "pmpo", "--builtin", "dynkin A3", "-k", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: dense P^k at k=2 on dim B_k = 4 ")
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", 512)
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
    """The blocks of the flat solve's last two half-ladder states."""
    eng = LadderEngine(_constraint_blocks(conn))
    return 16 * sum(eng.block_entries(grid_counts(conn.top, j), j) for j in (k - 1, k))


def transport_bytes(conn, k):
    """The flat solve's largest transport and its reach matrices."""
    dims = {}
    for (x, _), n in grid_counts(conn.top, k).items():
        dims[x] = dims.get(x, 0) + n * n
    n0 = min(dims.values())
    pairs = {(s, r) for _, s, r in _constraint_blocks(conn).left.edges}
    return 16 * (max(dims[x] * dims[y] for x, y in pairs) + n0 * sum(dims.values()))


def test_flat_solve_over_memory_budget_is_input_error(capsys, monkeypatch):
    need = half_ladder_bytes(build_dynkin("A3"), 2)
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", need - 1)
    for command in ("relcomm", "verify-theorem"):
        code, out, err = run(capsys, command, "--builtin", "dynkin A3", "-k", "2")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: flat solve at k=2 on ")
        assert "GiB" in err
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", need)
    code, _, _ = run(capsys, "relcomm", "--builtin", "dynkin A3", "-k", "2")
    assert code == 0


def test_oversized_flat_solve_stops_before_allocating():
    # D5 at k=12 has 2704 paths: its half-ladder blocks take 0.6 GiB, but its
    # largest transport with the reach matrices would take 82073.8 GiB.  The
    # child runs under a 2 GiB address-space cap, so reaching any allocation
    # of that size would end in MemoryError (exit 1), not in exit 2.
    if transport_bytes(build_dynkin("D5"), 12) <= biunitary.strings.DENSE_BUDGET_BYTES:
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
    assert proc.stderr.startswith("error: flat solve at k=12 on 2704 paths needs 82073.8 GiB")


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
    # D5 at k=8: a few MiB of ladder blocks, 4.4 GiB of transports
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", 4 << 30)
    monkeypatch.setattr(biunitary.strings, "StringBasis", None)
    code, out, err = run(capsys, "relcomm", "--builtin", "dynkin D5", "-k", "8")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=8 on 232 paths needs 4.4 GiB "
                          "for its transports and reach matrices")


def test_exact_shortcut_checks_its_basis_only_when_asked(capsys, monkeypatch):
    # trivial 3 at k=5 is all flat: no transport is formed, and its identity
    # basis would be 59049 x 59049
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", 4 << 30)
    code, out, _ = run(capsys, "relcomm", "--builtin", "trivial 3", "-k", "5")
    assert code == 0
    assert "flat dimension         59049" in out
    code, out, err = run(capsys, "relcomm", "--builtin", "trivial 3", "-k", "5", "--basis")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: flat solve at k=5 on 243 paths needs 52.0 GiB for its basis")


def test_verify_theorem_solves_the_largest_k_first(capsys, monkeypatch):
    # D5 at k=8 needs 4.4 GiB of transports: its solve runs before any other
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", 4 << 30)
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
    assert err.startswith("error: flat solve at k=8 on 232 paths needs 4.4 GiB")
    assert solved == [8]


@pytest.mark.parametrize("command,flag", [("relcomm", "--basis"), ("pmpo", "--dump")])
def test_formatted_matrices_count_against_the_budget(capsys, monkeypatch, command, flag):
    # trivial 3 at k=2: an 81 x 81 matrix is 0.2 MiB as two complex arrays,
    # about 1.1 MiB once formatted into a JSON report
    monkeypatch.setattr(biunitary.strings, "DENSE_BUDGET_BYTES", 1 << 20)
    argv = (command, "--builtin", "trivial 3", "-k", "2", flag, "--format")
    code, out, err = run(capsys, *argv, "json")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "for its formatted JSON entries" in err
    code, out, _ = run(capsys, *argv, "table")
    assert code == 0
    assert "81" in out
