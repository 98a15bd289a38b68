"""Benchmark launcher: one command for every workload and metric.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_rounds --seed 1 --seconds 10 --trace 0

Each measurement runs in a fresh interpreter (``child.py``) with the
BLAS and OpenMP thread pools pinned to one thread, so the parent and
its single farm worker fit two cores and CPU time equals busy wall
time.  With ``--trace 0`` the launcher makes a few set-up-only cold
starts plus one measured run and reports the median set-up time
beside the end-to-end metrics; with ``--trace 1`` it makes one traced
run and reports the per-layer metrics.  The last stdout line is the
result JSON; the line before it records the thread settings, ``nproc``,
the farm worker count and the seed.  When an output check fails the
result reads ``"correct": false`` with no metrics and the exit code is
1; when the program cannot be run at all, nothing is printed on stdout
and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Interpreters whose set-up time is measured per run (median reported).
SETUP_STARTS = 3
#: Wall-clock budget of one benchmark invocation, all interpreters together.
BUDGET_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def reap_group(pgid: int) -> None:
    """Wait until every process of the child's group has ended."""
    deadline = time.monotonic() + 10.0
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


def run_child(mode: str, args, env, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--out-dir", str(ROOT / ".perfbench"),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, env=env,
        cwd=ROOT, start_new_session=True, text=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} run overran the {BUDGET_S:.0f} s budget")
    finally:
        reap_group(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} run exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="CBMA receiver benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return fail(f"no program to measure: {src / 'repro'} is missing")
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), str(HERE), os.environ.get("PYTHONPATH", "")) if p
    )
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            result = run_child("trace", args, env, deadline)
            setups = []
        else:
            setups = [
                run_child("setup", args, env, deadline)["metrics"]["setup_s"]["value"]
                for _ in range(SETUP_STARTS - 1)
            ]
            result = run_child("measure", args, env, deadline)
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (RuntimeError, ValueError, KeyError) as exc:
        return fail(str(exc))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_PINS,
        "setup_starts_s": setups,
        **result["context"],
    }
    print(json.dumps(record))
    ok = result["ok"]
    print(json.dumps({
        "correct": ok,
        "attempted": result["attempted"],
        "failed": 0 if ok else result["attempted"],
        "metrics": result["metrics"] if ok else {},
    }))
    if not ok:
        return fail("output check failed: " + "; ".join(result["context"]["problems"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
