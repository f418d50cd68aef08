"""Self-tests of the benchmark (not part of the library's test suite).

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from biunitary import cli  # noqa: E402

import run  # noqa: E402
import worker  # noqa: E402
from cases import WORKLOADS, Case, check, load_references  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

REFS = load_references()


def _report(argv: list[str]) -> str:
    _, text, error = worker.run_case(cli, argv)
    assert error is None, error
    return text


def _power_multiplicities(builtin: str, n: int) -> dict[str, int]:
    doc = json.loads(_report(["decompose", "--builtin", builtin, "--powers", str(n),
                              "--format", "json"]))
    return {key: v for key, v in doc["power_multiplicities"].items()
            if key.endswith(f",{n}")}


def test_every_case_has_a_reference():
    for workload, cases in WORKLOADS.items():
        assert sorted(c.id for c in cases) == sorted(REFS[workload])


@pytest.mark.parametrize("case", WORKLOADS["theorem"], ids=lambda c: c.id)
def test_theorem_references_match_fusion_closed_form(case):
    """rank P^k = flat dimension = sum_a (L_a^{k/2})^2 for every even k."""
    rows = REFS["theorem"][case.id]["rows"]
    for k, rank, flat, _ in rows:
        assert rank == flat
        if k % 2 == 0:
            mult = _power_multiplicities(case.builtin, k // 2)
            assert rank == sum(m * m for m in mult.values()), k


def test_trivial_closed_form_example():
    rows = REFS["theorem"]["trivial3-k4"]["rows"]
    assert rows[-1] == [4, 6561, 6561, 6561]
    assert _power_multiplicities("trivial 3", 2) == {"a0,2": 81}


def test_basis_references_agree_with_theorem_and_closed_form():
    basis = REFS["basis"]
    theorem = {c.id: REFS["theorem"][c.id]["rows"] for c in WORKLOADS["theorem"]}
    assert basis["D5-k6"]["flat_dimension"] == theorem["D5-k6"][5][2]
    assert basis["E6-k5"]["flat_dimension"] == theorem["E6-k5"][4][2]
    assert basis["trivial3-k3"]["flat_dimension"] == theorem["trivial3-k4"][2][2]
    for ref in basis.values():
        assert ref["basis_shape"] == [ref["flat_dimension"], ref["dim"]]


def test_reports_identical_across_seeds_except_seed_field():
    """Acceptance criterion 11 from outside: the seed changes nothing else."""
    case = Case("E6-k3", "verify-theorem", "dynkin E6", 3)
    texts = [_report(case.argv(seed)) for seed in (11, 12)]
    stripped = [[line for line in t.splitlines() if not line.startswith(' "seed": ')]
                for t in texts]
    assert texts[0] != texts[1]
    assert stripped[0] == stripped[1]


def test_check_flags_a_wrong_integer():
    case = WORKLOADS["basis"][2]
    text = _report(case.argv(5))
    assert check(case, text, REFS["basis"][case.id]) == []
    doc = json.loads(text)
    doc["flat_dimension"] += 1
    assert check(case, json.dumps(doc), REFS["basis"][case.id])
    assert check(case, "not json", REFS["basis"][case.id])


def test_tracer_spans_and_metrics():
    case = Case("E6-k3", "verify-theorem", "dynkin E6", 3)
    with Tracer() as tracer:
        tracer.case = case.id
        _report(case.argv(0))
    assert tracer.missing == []
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "decomp.hom_space", "mpo.pmpo_P", "strings.flat_fields",
            "ladders.half_ladder", "bases.string_basis"} <= names
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    assert all(s[4] == case.id for s in tracer.spans)
    assert all(t >= -1e-6 for t in tracer.self_times())
    m = layer_metrics(tracer)
    assert m["strings.flat_fields_calls"] == 3
    assert m["mpo.dense_bytes_max"] == 16 * 53 ** 2
    assert m["bases.dim_B_sum"] == 2 * (5 + 15 + 53)   # theorem rows and flat solve
    assert 0 < m["decomp.hom_space_nonempty_ratio"] <= 1


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = set(layer_metrics(Tracer())) | {"trace.overhead_ratio"}
    assert names == set(per_layer)
    assert all(run._unit(name) == unit for name, unit in per_layer.items())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(run.END_TO_END_UNITS[m["name"]] == m["unit"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_memory_cap_turns_an_oversized_case_into_a_failure():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import worker\n"
        "worker.cap_memory(1024)\n"
        "from biunitary import cli\n"
        "seconds, text, error = worker.run_case(cli, ['verify-theorem', '--builtin',"
        " 'trivial 3', '-k', '4'])\n"
        "print(error)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), str(HERE.parent / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().startswith("MemoryError")


def test_run_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (bench / "references.json").write_bytes((HERE / "references.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "discover",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
