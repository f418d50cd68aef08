"""Spans around the library's public functions, recorded from outside.

A :class:`Tracer` replaces each function named in :data:`WRAP_POINTS` at the
attribute where callers look it up (a module global or a class attribute),
records one span per call in memory, and restores the originals on exit.
Spans are ``(name, start, end, parent, case)`` rows plus optional size
notes; :func:`layer_metrics` reduces them to the per-layer metrics the
benchmark reports.  Nothing inside the library is edited.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


def _hom_space_note(result, args, kwargs):
    """Size of the hom system: variables per matching vertex pair, as in
    ``decomp._HomProblem``, from the public graph API only."""
    src = args[0] if args else kwargs["src"]
    dst = args[1] if len(args) > 1 else kwargs["dst"]
    n_var = 0
    for side, verts in (("left", set(src.x_vertices)), ("right", set(src.y_vertices))):
        gs, gd = getattr(src, side), getattr(dst, side)
        for u in verts:
            for v in verts:
                n_var += len(gd.edges_between(u, v)) * len(gs.edges_between(u, v))
    return {"n_var": n_var, "nonempty": bool(result)}


def _nbytes_note(result, args, kwargs):
    return {"bytes": int(result.nbytes)}


def _matrix_bytes_note(result, args, kwargs):
    return {"bytes": int(result.matrix.nbytes)}


def _string_basis_note(result, args, kwargs):
    return {"dim": int(args[0].dim)}


def _flat_note(result, args, kwargs):
    return {"exact": bool(result.exact), "n": int(result.basis.dim)}


# (module, attribute path, span name, note).  The span name's first part is
# the layer.  Several attributes may share a span name when the same function
# is imported into several modules.
WRAP_POINTS = (
    ("biunitary.cli", "main", "cli.main", None),
    ("biunitary.cli", "build_dynkin", "connection.build", None),
    ("biunitary.cli", "build_trivial", "connection.build", None),
    ("biunitary.cli", "build_cyclic_group", "connection.build", None),
    ("biunitary.cli", "connection_to_document", "connection.to_document", None),
    ("biunitary.cli", "check_biunitarity", "connection.check_biunitarity", None),
    ("biunitary.decomp", "check_biunitarity", "connection.check_biunitarity", None),
    ("biunitary.decomp", "vertical_product", "connection.vertical_product", None),
    ("biunitary.strings", "vertical_product", "connection.vertical_product", None),
    ("biunitary.decomp", "renormalize", "connection.renormalize", None),
    ("biunitary.strings", "renormalize", "connection.renormalize", None),
    ("biunitary.cli", "discover_irreducibles", "decomp.discover", None),
    ("biunitary.decomp", "decompose", "decomp.decompose", None),
    ("biunitary.decomp", "end_minimal_projections", "decomp.end_minimal_projections", None),
    ("biunitary.decomp", "compress", "decomp.compress", None),
    ("biunitary.decomp", "hom_space", "decomp.hom_space", _hom_space_note),
    ("biunitary.decomp", "FusionData.multiplicities", "decomp.multiplicities", None),
    ("biunitary.bases", "StringBasis.__init__", "bases.string_basis", _string_basis_note),
    ("biunitary.bases", "LoopBasis.__init__", "bases.loop_basis", None),
    ("biunitary.ladders", "LadderEngine.__init__", "ladders.engine", None),
    ("biunitary.ladders", "LadderEngine.half_ladder", "ladders.half_ladder", _nbytes_note),
    ("biunitary.mpo", "paired_string_operator", "ladders.paired_op", None),
    ("biunitary.strings", "paired_string_operator", "ladders.paired_op", None),
    ("biunitary.cli", "pmpo_P", "mpo.pmpo_P", _matrix_bytes_note),
    ("biunitary.mpo", "mpo_O", "mpo.mpo_O", None),
    ("biunitary.cli", "operator_rank", "mpo.operator_rank", None),
    ("biunitary.mpo", "MPOOperator.idempotency_defect", "mpo.idempotency", None),
    ("biunitary.cli", "flat_fields", "strings.flat_fields", _flat_note),
    ("biunitary.strings", "transport_T", "strings.transport_T", None),
)


class Tracer:
    """Records spans of wrapped calls while active (a context manager)."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent, case]
        self.notes: dict[int, dict] = {}   # span index -> size notes
        self.case: str | None = None
        self.missing: list[str] = []       # wrap points absent from the library
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module, path, name, note in WRAP_POINTS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, note))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.case]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                self.notes[idx] = note(result, args, kwargs)
            return result
        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children
        (calls are sequential, so children never overlap)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json, from one traced pass.

    ``*_s`` sums the durations of a span name, ``*_calls`` counts them, and
    ``*self_s`` sums self times.  ``trace.overhead_ratio`` is added by the
    caller, which knows the untraced pass time.
    """
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for (name, start, end, _, _), self_s in zip(tracer.spans, tracer.self_times()):
        total[name] += end - start
        calls[name] += 1
        own[name] += self_s
    notes = defaultdict(list)
    for idx, note in tracer.notes.items():
        notes[tracer.spans[idx][0]].append(note)

    hom = notes["decomp.hom_space"]
    flat = notes["strings.flat_fields"]
    return {
        "cli.self_s": own["cli.main"],
        "connection.vertical_product_calls": calls["connection.vertical_product"],
        "connection.vertical_product_s": total["connection.vertical_product"],
        "connection.check_biunitarity_s": total["connection.check_biunitarity"],
        "decomp.discover_s": total["decomp.discover"],
        "decomp.decompose_calls": calls["decomp.decompose"],
        "decomp.decompose_s": total["decomp.decompose"],
        "decomp.hom_space_calls": calls["decomp.hom_space"],
        "decomp.hom_space_s": total["decomp.hom_space"],
        "decomp.hom_space_nvar_max": max((n["n_var"] for n in hom), default=0),
        "decomp.hom_space_nonempty_ratio": _ratio(sum(n["nonempty"] for n in hom), len(hom)),
        "bases.basis_s": total["bases.string_basis"] + total["bases.loop_basis"],
        "bases.dim_B_sum": sum(n["dim"] for n in notes["bases.string_basis"]),
        "ladders.half_ladder_calls": calls["ladders.half_ladder"],
        "ladders.half_ladder_s": total["ladders.half_ladder"],
        "ladders.ladder_bytes": sum(n["bytes"] for n in notes["ladders.half_ladder"]),
        "ladders.paired_op_calls": calls["ladders.paired_op"],
        "ladders.paired_op_s": total["ladders.paired_op"],
        "mpo.pmpo_P_s": total["mpo.pmpo_P"],
        "mpo.mpo_O_calls": calls["mpo.mpo_O"],
        "mpo.operator_rank_s": total["mpo.operator_rank"],
        "mpo.idempotency_s": total["mpo.idempotency"],
        "mpo.dense_bytes_max": max((n["bytes"] for n in notes["mpo.pmpo_P"]), default=0),
        "strings.flat_fields_calls": calls["strings.flat_fields"],
        "strings.flat_fields_s": total["strings.flat_fields"],
        "strings.transport_T_calls": calls["strings.transport_T"],
        "strings.transport_T_s": total["strings.transport_T"],
        "strings.flat_self_s": own["strings.flat_fields"],
        "strings.flat_system_n_max": max((n["n"] for n in flat if not n["exact"]), default=0),
        "strings.flat_exact_ratio": _ratio(sum(n["exact"] for n in flat), len(flat)),
    }


def self_time_ranking(tracer: Tracer) -> list[tuple[str, float]]:
    """Summed self time per span name, largest first."""
    own = defaultdict(float)
    for (name, *_), self_s in zip(tracer.spans, tracer.self_times()):
        own[name] += self_s
    return sorted(own.items(), key=lambda kv: -kv[1])


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Summed self time per layer (the span name's first part)."""
    own = defaultdict(float)
    for name, self_s in self_time_ranking(tracer):
        own[name.split(".", 1)[0]] += self_s
    return dict(sorted(own.items(), key=lambda kv: -kv[1]))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
