"""The library values the benchmark's traced pass reads.

``perfbench/tracer.py`` wraps library functions by name and notes
``bool(hom_space(...))``, ``flat_fields(...).exact`` and ``.basis.dim``,
``half_ladder(...).nbytes`` and ``pmpo_P(...).matrix``.  This runs the command
line under its :class:`Tracer` on the three benchmark commands and on ``pmpo``,
the dense route, and checks that every run succeeds and that those layers were
seen.
"""

from __future__ import annotations

import sys
from pathlib import Path

from biunitary import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer, layer_metrics  # noqa: E402

COMMANDS = [
    ["decompose"],
    ["verify-theorem", "-k", "2"],
    ["relcomm", "-k", "2", "--basis", "--format", "json"],
    ["pmpo", "-k", "2"],
]


def test_traced_commands_run_and_report_their_layers(capsys):
    with Tracer() as tracer:
        for argv in COMMANDS:
            assert cli.main([argv[0], "--builtin", "dynkin A3", *argv[1:]]) == 0, argv
    capsys.readouterr()
    m = layer_metrics(tracer)
    assert m["decomp.hom_space_calls"] > 0
    assert 0 < m["decomp.hom_space_nonempty_ratio"] <= 1
    assert m["ladders.half_ladder_calls"] > 0
    assert m["ladders.ladder_bytes"] > 0
    assert m["strings.flat_fields_calls"] > 0
    assert m["bases.dim_B_sum"] > 0
    assert m["mpo.dense_bytes_max"] > 0
    for point in ("biunitary.cli.pmpo_P", "biunitary.mpo.MPOOperator.idempotency_defect"):
        assert point not in tracer.missing


def test_only_the_known_wrap_points_are_missing():
    # a refactor that drops a traced name fails here instead of zeroing a metric
    with Tracer() as tracer:
        assert sorted(tracer.missing) == ["biunitary.decomp.decompose",
                                          "biunitary.strings.paired_string_operator",
                                          "biunitary.strings.transport_T"]
