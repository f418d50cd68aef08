"""Child process of the benchmark: set up, run the passes, check every report.

Started by ``run.py`` once per run (and a few more times with
``--setup-only`` to sample set-up time).  It caps its own address space,
imports ``biunitary`` from the checkout's ``src/``, builds the workload's
builtin connections, and prints ``READY`` on stdout; the parent times
process start to that line as set-up.  It then runs one untimed warm-up
case per command and timed passes over the workload's cases, calling
``biunitary.cli.main`` in-process.  Reports are checked against the stored
references after each pass, outside the timed region.  The last stdout line
is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mem-cap-mib", type=int, required=True, dest="mem_cap_mib")
    ap.add_argument("--setup-only", action="store_true", dest="setup_only")
    return ap.parse_args(argv)


def cap_memory(mib: int) -> None:
    """Cap this process's address space, so that an oversized case raises
    MemoryError (a counted failure) instead of being OOM-killed."""
    limit = mib * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def import_library():
    """Import ``biunitary`` from the checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import biunitary.cli
    if Path(biunitary.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"biunitary imported from {biunitary.cli.__file__}, not {SRC}")
    return biunitary.cli


def build_connections(cases) -> None:
    """Build every builtin connection the cases name (part of set-up)."""
    import biunitary
    builders = {"dynkin": biunitary.build_dynkin, "trivial": lambda d: biunitary.build_trivial(int(d)),
                "cyclic": lambda n: biunitary.build_cyclic_group(int(n))}
    for case in cases:
        kind, param = case.builtin.split()
        builders[kind](param)


def run_case(cli, argv: list[str]) -> tuple[float, str, str | None]:
    """Run one command in-process: (seconds, report text, error or None)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        error = None if code == 0 else f"exit status {code}"
    except MemoryError:
        error = "MemoryError (address-space cap reached)"
    except (Exception, SystemExit) as err:  # a failed case, not a failed run
        traceback.print_exc(file=sys.stderr)
        error = f"{type(err).__name__}: {err}"
    seconds = time.perf_counter() - start
    return seconds, buf.getvalue(), error


def run_pass(cli, cases, seed: int, references: dict, tracer=None) -> dict:
    """One pass over the cases: timed back to back, then checked."""
    from cases import check

    outputs = []
    gc.collect()
    start = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.case = case.id
        outputs.append(run_case(cli, case.argv(seed)))
    wall = time.perf_counter() - start
    records = []
    for case, (seconds, text, error) in zip(cases, outputs):
        problems = [error] if error else check(case, text, references[case.id])
        for p in problems:
            print(f"case {case.id}: {p}", file=sys.stderr)
        records.append({"case": case.id, "seconds": seconds, "problems": problems})
    return {"wall_s": wall, "cases": records}


def blas_info() -> dict:
    """OpenBLAS version and thread count as numpy's bundled library reports them."""
    import numpy as np
    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = blas.get("version")
    with contextlib.suppress(Exception):
        import ctypes
        with open("/proc/self/maps", encoding="utf-8") as f:
            lib = next(line.split()[-1] for line in f if "openblas" in line)
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = int(fn())
                break
    return info


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_memory(args.mem_cap_mib)
    cli = import_library()
    sys.path.insert(0, str(HERE))
    from cases import WARMUP, WORKLOADS, load_references

    cases = WORKLOADS[args.workload]
    build_connections(cases)
    proto = sys.stdout
    proto.write("READY\n")
    proto.flush()
    if args.setup_only:
        return 0

    references = load_references()[args.workload]
    for command in sorted({c.command for c in cases}):
        _, _, error = run_case(cli, WARMUP[command].argv(args.seed))
        if error:
            raise RuntimeError(f"warm-up {command} failed: {error}")

    result = {"passes": [], "traced_pass": None, "trace": None, "blas": blas_info()}
    if args.trace:
        from tracer import Tracer, layer_metrics, layer_self_times, self_time_ranking

        result["passes"].append(run_pass(cli, cases, args.seed, references))
        with Tracer() as tracer:
            traced = run_pass(cli, cases, args.seed, references, tracer)
        result["traced_pass"] = traced
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = traced["wall_s"] / result["passes"][0]["wall_s"]
        result["trace"] = {
            "metrics": metrics,
            "layer_self_s": layer_self_times(tracer),
            "self_s_by_span": dict(self_time_ranking(tracer)),
            "unwrapped": tracer.missing,
            "span_fields": ["name", "start", "end", "parent", "case"],
            "spans": tracer.spans,
            "notes": {str(i): n for i, n in sorted(tracer.notes.items())},
        }
    else:
        start = time.perf_counter()
        while True:
            result["passes"].append(run_pass(cli, cases, args.seed, references))
            # At least two passes; no pass that would end past --seconds.
            longest = max(p["wall_s"] for p in result["passes"])
            if len(result["passes"]) >= 2 and time.perf_counter() - start + longest > args.seconds:
                break
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    proto.write(json.dumps(result) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
