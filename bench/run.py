"""dkpair benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload z2-sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/``.  A first process only imports the program, so that byte-compiled
modules and the file cache are warm; its time is discarded.  The next
process sets the workload up and runs solves one at a time for
``--seconds`` seconds, checking each one against its seed reference.
Between solves it pauses while four more processes set the workload up
and exit, one at a time, so that the five set-up times sample the machine
across the whole run; the run reports their median.

The last line of stdout is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record
of the run (environment stamp, per-solve inputs, times and output values,
per-layer table) goes to ``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORKLOADS = ("z2-sweep", "km-torsion", "floquet-drive")
SETUPS = 5
# slack past --seconds for set-up, the last solve and shutdown; a run
# exceeding it is killed and reported as an error
GRACE_S = 60
# one BLAS/OpenMP thread: the solves barely use a second one, and a thread
# per core of a small shared VM makes every call wait for the slowest core
ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class RunError(Exception):
    pass


def launch(args, mode: list[str], stdin=subprocess.DEVNULL
           ) -> tuple[float, subprocess.Popen]:
    """Start a workload process and wait for its `ready` line; returns the
    seconds from launch to ready and the still-running process.  `mode` is
    the worker's `--warm-up`, `--setup-only` or `--out <file>`."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--profile", args.profile, *mode]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=stdin, stdout=subprocess.PIPE,
                            text=True, env={**os.environ, **ONE_THREAD})
    watchdog = threading.Timer(GRACE_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        watchdog.cancel()
        if line.strip() != "ready":
            raise RunError(f"workload process failed during set-up "
                           f"(exit {proc.wait(timeout=GRACE_S)})")
    except BaseException:
        watchdog.cancel()
        stop(proc)
        raise
    return setup_s, proc


def stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()
    if proc.stdin:
        proc.stdin.close()


def finish(proc: subprocess.Popen, timeout: float):
    try:
        proc.communicate(timeout=timeout)
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")


def setup_once(args) -> float:
    setup_s, proc = launch(args, ["--setup-only"])
    finish(proc, GRACE_S)
    return setup_s


def measure(args, out: Path) -> list[float]:
    """Run the timed phase; returns the set-up times.  The workload process
    prints `pause` before each solve after the first and waits for `go`; a
    set-up is sampled in the first pause past each fifth of `--seconds`."""
    setup_s, proc = launch(args, ["--out", str(out)], stdin=subprocess.PIPE)
    setups = [setup_s]
    watchdog = threading.Timer(args.seconds + 2 * GRACE_S, proc.kill)
    watchdog.start()
    try:
        t0, paused = time.perf_counter(), 0.0
        while line := proc.stdout.readline():
            if line.strip() != "pause":
                continue
            solving = time.perf_counter() - t0 - paused
            if len(setups) < SETUPS and solving >= args.seconds * len(setups) / SETUPS:
                p0 = time.perf_counter()
                setups.append(setup_once(args))
                paused += time.perf_counter() - p0
            proc.stdin.write("go\n")
            proc.stdin.flush()
        proc.wait()
    finally:
        watchdog.cancel()
        stop(proc)
    if proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")
    # a run too short for its pauses samples the rest afterwards
    while len(setups) < SETUPS:
        setups.append(setup_once(args))
    return setups


def end_to_end(solves, setups, peak_rss_mb) -> dict:
    times = [s["seconds"] for s in solves]
    ok = sum(s["ok"] for s in solves)
    return {
        "solve_s": {"value": statistics.median(times), "unit": "s"},
        "solves_per_s": {"value": ok / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }


UNITS = {"calls": "count", "self_s": "s", "flops": "flop", "bytes": "B",
         "peak_mb": "MB"}


def per_layer(solves) -> dict:
    """Median over a traced run's solves of each op's per-solve stats: calls,
    self times and computed costs over the time-traced solves, `peak_mb`
    over the memory-traced ones."""
    by_kind = {kind: [s for s in solves if s["trace"] == kind]
               for kind in (None, "time", "memory")}
    metrics = {}
    for kind in ("time", "memory"):
        traced = by_kind[kind]
        for op, row in traced[0]["layers"].items():
            for stat in row:
                if (stat == "peak_mb") == (kind == "memory"):
                    metrics[f"{op}.{stat}"] = {
                        "value": statistics.median(s["layers"][op][stat]
                                                   for s in traced),
                        "unit": UNITS[stat]}
    timed = by_kind["time"]
    metrics["trace.overhead"] = {
        "value": (statistics.median(s["seconds"] for s in timed)
                  / statistics.median(s["seconds"] for s in by_kind[None])),
        "unit": "ratio"}
    metrics["trace.unattributed"] = {
        "value": statistics.median(1 - s["attributed_s"] / s["seconds"]
                                   for s in timed),
        "unit": "share"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="problem sizes; 'tiny' is for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dkpair" / "__init__.py").is_file():
        print(f"no dkpair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    try:
        _, proc = launch(args, ["--warm-up"])
        finish(proc, GRACE_S)
        setups = measure(args, out)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    record = json.loads(out.read_text())
    solves = record["solves"]
    failed = sum(not s["ok"] for s in solves)
    if args.trace:
        metrics = per_layer(solves)
    else:
        metrics = end_to_end(solves, setups, record["peak_rss_mb"])
    record.update(setup_s=setups, fail_ratio=failed / len(solves), metrics=metrics)
    out.write_text(json.dumps(record, indent=1))
    for s in solves:
        if not s["ok"]:
            print(f"solve {s['index']} failed: {s['failure']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(solves),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
