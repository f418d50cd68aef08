"""Benchmark of the ``biunitary`` CLI: end-to-end and per-layer metrics.

Usage, from the root of a checkout (no build step; the library is imported
from ``src/``):

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 36 --trace 0

Workloads (``cases.py``): ``theorem`` runs ``verify-theorem``, ``discover``
runs ``decompose`` and ``basis`` runs ``relcomm --basis``, each on fixed
builtin connections.  The seed is passed to every command as ``--seed`` and
nowhere else.  Each run is one closed-loop client in a child process
(``worker.py``) with the BLAS thread count set to the number of usable cores
and its address space capped at three quarters of MemTotal.

``--trace 0`` reports, with the median over the passes that fit in
``--seconds``:

* ``wall_s``: seconds for one pass over the workload's cases;
* ``setup_s``: median over several children of process start until the
  first case can run (interpreter, imports, building the connections);
* ``peak_rss_mib``: the child's peak resident memory;
* ``pass_ratio``: cases whose report matched its reference, over cases run.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``tracer.py``.  The last stdout line is the result
object; the line before it holds the machine and provenance block and the
per-case times.  Full results, and for traced runs the span dump, are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 9          # children whose set-up is timed, the main one included
RUN_TIMEOUT_S = 170.0      # a run must end within 180 s
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB", "pass_ratio": "ratio"}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("theorem", "discover", "basis"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def mem_total_kib() -> int:
    with open("/proc/meminfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    raise RuntimeError("MemTotal missing from /proc/meminfo")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git only."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Child:
    """One worker process, killed if it outlives the run's deadline."""

    def __init__(self, args, deadline: float, env: dict, cap_mib: int, extra=()):
        cmd = [sys.executable, str(WORKER), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--mem-cap-mib", str(cap_mib), *extra]
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 0.0), self.proc.kill)
        self.timer.start()

    def wait_ready(self) -> float:
        """Seconds from process start to its READY line."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            self.finish()
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.returncode})")
        return time.perf_counter() - self.start

    def finish(self) -> str:
        """Wait for the process; return the rest of its stdout."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.timer.cancel()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {self.proc.returncode}")
        return rest


def child_env(cores: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cores)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "biunitary" / "cli.py").is_file():
        print(f"error: no biunitary sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cores = usable_cores()
    mem_kib = mem_total_kib()
    cap_mib = int(mem_kib * 0.75 / 1024)
    env = child_env(cores)

    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                c = Child(args, deadline, env, cap_mib, extra=("--setup-only",))
                setup.append(c.wait_ready())
                c.finish()
        main_child = Child(args, deadline, env, cap_mib)
        setup.append(main_child.wait_ready())
        lines = main_child.finish().strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
    except (RuntimeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if result is None:
        print("error: worker printed no result", file=sys.stderr)
        return 1

    passes = result["passes"] + ([result["traced_pass"]] if result["traced_pass"] else [])
    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(1 for p in passes for c in p["cases"] if c["problems"])
    per_case = {}
    for p in result["passes"]:
        for c in p["cases"]:
            per_case.setdefault(c["case"], []).append(c["seconds"])

    if args.trace:
        metrics = {name: {"value": v, "unit": _unit(name)}
                   for name, v in result["trace"]["metrics"].items()}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in result["passes"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": result["peak_rss_mib"],
            "pass_ratio": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    detail = {
        "machine": {
            "nproc": os.cpu_count(), "usable_cores": cores, "mem_total_kib": mem_kib,
            "python": platform.python_version(), **result["blas"],
        },
        "provenance": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": git_commit(ROOT),
            "src_sha256": source_digest(ROOT), "mem_cap_mib": cap_mib,
            "blas_threads_requested": cores,
            "passes": len(result["passes"]), "traced_passes": int(bool(result["traced_pass"])),
        },
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "setup_samples_s": setup,
        "case_median_s": {k: statistics.median(v) for k, v in per_case.items()},
        "failures": [{"case": c["case"], "problems": c["problems"]}
                     for p in passes for c in p["cases"] if c["problems"]],
    }
    if args.trace:
        trace = result["trace"]
        detail["traced_pass_wall_s"] = result["traced_pass"]["wall_s"]
        detail["layer_self_s"] = trace["layer_self_s"]
        detail["self_s_by_span"] = trace["self_s_by_span"]
        detail["unwrapped"] = trace["unwrapped"]
        detail["traced_case_s"] = {c["case"]: c["seconds"]
                                   for c in result["traced_pass"]["cases"]}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as f:
        json.dump({"result": final, "detail": detail}, f, indent=1)
    if args.trace:
        with open(OUT / f"spans-{stem}.json", "w", encoding="utf-8") as f:
            json.dump({k: trace[k] for k in ("span_fields", "spans", "notes")}, f)
    print(json.dumps({"detail": detail}))
    print(json.dumps(final))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric.endswith("bytes_max"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
