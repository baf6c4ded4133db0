"""The workload process: set up one workload, run its solves, write the records.

Started by run.py, never by hand.  It prints ``ready`` on stdout once set-up
is done, so the parent can time set-up from process launch; with
``--setup-only`` it exits there.  Otherwise it runs solves one at a time (a
closed loop) until the next solve would end past ``--seconds``, and writes
a JSON file of per-solve records, the environment stamp and its peak RSS.
Before each solve after the first it prints ``pause`` and waits for a
``go`` line on stdin; time spent waiting is not solve time.
With ``--warm-up`` it exits right after its imports, having loaded (and
byte-compiled) every module a set-up needs.

With ``--trace 1`` the solves cycle through three kinds: untraced (the base
the tracing overhead is measured against), traced for time, and traced for
memory.  A cycle of three over inputs that alternate in pairs gives each
kind both inputs of ``floquet-drive`` in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_SOLVES = 3
# solve kinds of a traced run, by solve index modulo 3
TRACE_CYCLE = (None, "time", "memory")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def git_sha(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a
    repository (the benchmark also runs in exported checkouts)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "profile": args.profile,
        "seconds": args.seconds,
    }


def run_solves(workload, name: str, seconds: float, trace: bool) -> list[dict]:
    import workloads
    from tracer import Tracer

    # a traced run has two solves of each kind at least
    min_solves = 2 * len(TRACE_CYCLE) if trace else MIN_SOLVES
    records = []
    start, paused = time.perf_counter(), 0.0
    while True:
        elapsed = time.perf_counter() - start - paused
        if len(records) >= min_solves and elapsed + statistics.median(
                r["seconds"] for r in records) > seconds:
            break
        if records:
            p0 = time.perf_counter()
            print("pause", flush=True)
            if sys.stdin.readline().strip() != "go":
                raise RuntimeError("run.py went away")
            paused += time.perf_counter() - p0
        i = len(records)
        kind = TRACE_CYCLE[i % len(TRACE_CYCLE)] if trace else None
        rec = {"index": i, "trace": kind, "inputs": workload.inputs(i)}
        if kind:
            tracer = Tracer(memory=kind == "memory")
            tracer.install()
        t0 = time.perf_counter()
        try:
            rec["values"] = workload.solve(i)
            rec["ok"] = True
        except workloads.SolveFailure as exc:
            rec["ok"], rec["failure"] = False, str(exc)
        except Exception:  # a crashed solve is a failed solve; keep measuring
            rec["ok"], rec["failure"] = False, traceback.format_exc()
        finally:
            rec["seconds"] = time.perf_counter() - t0
            if kind:
                tracer.uninstall()
        if kind:
            rec["layers"] = tracer.snapshot()
            rec["tracer_own_s"] = tracer.own_s
            rec["attributed_s"] = tracer.attributed_s()
            missing = [op for op in workloads.EXPECTED_OPS[name]
                       if rec["layers"][op]["calls"] == 0]
            if missing:
                rec["ok"] = False
                rec.setdefault("failure", f"ops never called: {missing}")
        records.append(rec)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", default="full")
    ap.add_argument("--out")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--warm-up", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import dkpair
    if Path(dkpair.__file__).resolve().parent != ROOT / "src" / "dkpair":
        print(f"imported dkpair from {dkpair.__file__}", file=sys.stderr)
        return 2
    import workloads
    if args.warm_up:
        print("ready", flush=True)
        return 0

    workdir = ROOT / "bench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, workloads.PROFILES[args.profile], workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        records = run_solves(workload, args.workload, args.seconds, bool(args.trace))
        payload = {
            "stamp": environment_stamp(args),
            "solves": records,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        Path(args.out).write_text(json.dumps(payload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
