"""One benchmark interpreter: set up a workload, run its cycles, report.

Started by ``run.py`` with the BLAS/OpenMP pools already pinned; prints
one JSON object as its last stdout line.  Modes:

``setup``
    Cold start through the warm-up cycle; reports ``setup_s`` only.
``measure``
    Cold start, then the timed cycles with tracing off, then the output
    checks.  Reports the end-to-end metrics.
``trace``
    Runs the same inputs with and without timing wrappers around the
    program's public layer calls and reports the per-layer metrics.
    Farm and gateway workloads also run on the inline backend, where the
    worker-side layers run in this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import tracing
import workloads


def worker_cpu_s(pids: List[int]) -> float:
    """CPU seconds of every thread of the given processes (ns clock)."""
    total = 0
    for pid in pids:
        task_dir = f"/proc/{pid}/task"
        try:
            tids = os.listdir(task_dir)
        except FileNotFoundError:
            continue
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/schedstat") as fh:
                    total += int(fh.read().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                continue
    return total * 1e-9


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def run_cycles(ep, first: int, last: int, rec: Optional[tracing.Recorder] = None) -> Tuple[List[float], float, float]:
    """Time cycles ``first .. last-1``; returns (walls, cpu_s, airtime_s)."""
    pids = ep.worker_pids()
    walls: List[float] = []
    cpu = 0.0
    airtime = 0.0
    for i in range(first, last):
        if rec is not None:
            rec.cycle = i
        w0 = worker_cpu_s(pids)
        a0 = ep.fed_airtime_s()
        c0 = time.process_time()
        t0 = time.perf_counter()
        ep.cycle(i)
        walls.append(time.perf_counter() - t0)
        cpu += time.process_time() - c0
        airtime += ep.fed_airtime_s() - a0
        cpu += worker_cpu_s(pids) - w0
    if rec is not None:
        rec.cycle = -1
    return walls, cpu, airtime


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def measure(args, wl) -> Tuple[bool, int, Dict[str, object], Dict[str, object]]:
    ep = wl.episode("process")
    ep.cycle(0)  # warm-up: fills caches, counts as set-up
    setup_s = time.monotonic() - args.t0
    walls, cpu, airtime = run_cycles(ep, 1, wl.cycles)
    out = ep.finish()
    rss = peak_rss_mb()
    problems = list(out.problems)
    if not problems:
        problems += wl.check(out)
    loss = out.lost / out.offered if out.offered else 1.0
    if out.offered == 0:
        problems.append("no frames offered")
    elif loss > workloads.MAX_LOSS[wl.name]:
        problems.append(f"lost {out.lost} of {out.offered} frames (limit {workloads.MAX_LOSS[wl.name]})")
    if out.wrong > workloads.MAX_WRONG * out.delivered:
        problems.append(f"{out.wrong} of {out.delivered} delivered frames carry a payload never sent")
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "rtf_per_core": metric(airtime / cpu, "s/s"),
        "cycle_p50_ms": metric(np.percentile(walls, 50) * 1e3, "ms"),
        "cycle_p90_ms": metric(np.percentile(walls, 90) * 1e3, "ms"),
        "loss_frac": metric(loss, "fraction"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    context = {
        "timed_cycles": len(walls),
        "frames_offered": out.offered,
        "frames_lost": out.lost,
        "frames_delivered": out.delivered,
        "frames_wrong": out.wrong,
        "frames_extra": out.extra,
        "cpu_s": cpu,
        "wall_s": float(sum(walls)),
        "airtime_s": airtime,
        "problems": problems,
    }
    return not problems, wl.cycles, metrics, context


def setup_only(args, wl) -> Tuple[bool, int, Dict[str, object], Dict[str, object]]:
    ep = wl.episode("process")
    ep.cycle(0)  # warm-up: fills caches, counts as set-up
    setup_s = time.monotonic() - args.t0
    ep.abort()
    return True, 1, {"setup_s": metric(setup_s, "s")}, {}


#: Per-layer metric -> unit.  Times are self times (span time minus
#: the time child spans cover) per timed cycle; counts are per cycle,
#: except the gateway counts, which are totals over the run.
PER_LAYER_UNITS = {
    "codes.make_codes_s": "s",
    "sim.simulate_round_ms": "ms",
    "receiver.frame_sync_ms": "ms",
    "receiver.detect_ms": "ms",
    "utils.correlation_ms": "ms",
    "receiver.decode_ms": "ms",
    "receiver.decode_attempts": "count",
    "receiver.decode_success_ratio": "fraction",
    "utils.as_bit_array_ms": "ms",
    "utils.as_bit_array_calls": "count",
    "utils.crc_ms": "ms",
    "tag.framing_ms": "ms",
    "receiver.sic_self_ms": "ms",
    "receiver.sic_passes": "count",
    "receiver.gate_ms": "ms",
    "receiver.gate_live_ratio": "fraction",
    "receiver.session_ms": "ms",
    "farm.feed_ms": "ms",
    "farm.pump_wait_ms": "ms",
    "farm.worker_busy_frac": "fraction",
    "farm.ipc_overhead_frac": "fraction",
    "gateway.submit_us": "us",
    "gateway.step_self_ms": "ms",
    "gateway.admitted": "count",
    "gateway.refused": "count",
    "gateway.shed_chunks": "count",
    "gateway.rounds_shed": "count",
    "gateway.peak_queue_depth": "count",
    "trace.unattributed_frac": "fraction",
    "trace.overhead_frac": "fraction",
}

#: Self-time metrics (ms per cycle) -> the layer they total.
SELF_TIMES = {
    "sim.simulate_round_ms": "sim.simulate_round",
    "receiver.frame_sync_ms": "receiver.frame_sync",
    "receiver.detect_ms": "receiver.detect",
    "utils.correlation_ms": "utils.correlation",
    "receiver.decode_ms": "receiver.decode",
    "utils.as_bit_array_ms": "utils.as_bit_array",
    "utils.crc_ms": "utils.crc",
    "tag.framing_ms": "tag.framing",
    "receiver.sic_self_ms": "receiver.sic",
    "receiver.gate_ms": "receiver.gate",
    "receiver.session_ms": "receiver.session",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_phase(wl, backend: str, layers) -> Tuple[List[float], Optional[tracing.Recorder], object]:
    """One episode over the first ``wl.trace_cycles`` cycles.

    With *layers* (``None`` = untraced) the wrappers are installed
    after the episode forks its worker, so the worker runs untraced.
    """
    ep = wl.episode(backend)
    rec = inst = None
    if layers is not None:
        rec = tracing.Recorder()
        inst = tracing.install(rec, layers)
    try:
        ep.cycle(0)  # warm-up, recorded as set-up
        walls, _cpu, _air = run_cycles(ep, 1, wl.trace_cycles, rec)
    finally:
        if inst is not None:
            inst.uninstall()
    return walls, rec, ep.finish()


def trace(args, wl_factory) -> Tuple[bool, int, Dict[str, object], Dict[str, object]]:
    """Per-layer metrics from untraced/traced pairs of runs on one input.

    Round workloads: an untraced and a fully traced run.  Farm and
    gateway workloads: an untraced and a parent-side traced run on the
    process backend (the farm and gateway calls the parent makes), then
    an untraced and a fully traced run on the inline backend (the
    worker-side layers, bit-identical by the farm's oracle).
    """
    setup_rec = tracing.Recorder()
    inst = tracing.install(setup_rec)
    try:
        wl = wl_factory()
    finally:
        inst.uninstall()
    everything = frozenset(layer for _m, _p, layer in tracing.LAYERS)
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    problems: List[str] = []
    if wl.name not in workloads.ON_FARM:
        wl.trace_cycles = max(2, wl.cycles // 2)
        plain, _, _ = traced_phase(wl, "process", None)
        traced, rec, out = traced_phase(wl, "process", everything)
        problems += out.problems
    else:
        wl.trace_cycles = max(2, wl.cycles // 4)
        proc_plain, _, _ = traced_phase(wl, "process", None)
        proc_traced, prec, pout = traced_phase(wl, "process", tracing.PARENT_SIDE)
        plain, _, _ = traced_phase(wl, "inline", None)
        traced, rec, out = traced_phase(wl, "inline", everything)
        problems += pout.problems + out.problems
        if pout.frames != out.frames:
            problems.append("process and inline backends delivered different frames")
        n = len(proc_traced)
        values["farm.feed_ms"] = ratio(prec.total("farm.feed") * 1e3, n)
        values["farm.pump_wait_ms"] = ratio(prec.total("farm.pump") * 1e3, n)
        values["farm.worker_busy_frac"] = pout.worker_busy_frac
        values["farm.ipc_overhead_frac"] = 1.0 - sum(plain) / sum(proc_plain)
        if pout.counts:
            values["gateway.submit_us"] = ratio(prec.total("gateway.submit") * 1e6, n)
            values["gateway.step_self_ms"] = ratio(prec.total("gateway.step") * 1e3, n)
            for key, count in pout.counts.items():
                values[f"gateway.{key}"] = count
    n = len(traced)
    for name, layer in SELF_TIMES.items():
        values[name] = ratio(rec.total(layer) * 1e3, n)
    c = rec.counts
    values["receiver.decode_attempts"] = ratio(c["decode_attempts"], n)
    values["receiver.decode_success_ratio"] = ratio(c["decode_successes"], c["decode_attempts"])
    values["utils.as_bit_array_calls"] = ratio(rec.n_calls("utils.as_bit_array"), n)
    values["receiver.sic_passes"] = ratio(c["sic_passes"], n)
    values["receiver.gate_live_ratio"] = ratio(c["gate_live"], c["gate_windows"])
    values["codes.make_codes_s"] = setup_rec.total("codes.make_codes", timed=False)
    values["trace.unattributed_frac"] = 1.0 - rec.root_s / sum(traced)
    values["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rec.dump(out_dir / f"spans-{wl.name}-{args.seed}.tsv")
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    context = {"traced_cycles": n, "spans": len(rec.layer), "problems": problems}
    return not problems, wl.cycles, metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() when the launcher started this interpreter")
    parser.add_argument("--out-dir", default=".perfbench")
    args = parser.parse_args(argv)
    cycles = workloads.n_cycles(args.workload, args.seconds)

    def factory():
        return workloads.build(args.workload, args.seed, cycles)

    if args.mode == "trace":
        ok, attempted, metrics, context = trace(args, factory)
    else:
        wl = factory()
        run = measure if args.mode == "measure" else setup_only
        ok, attempted, metrics, context = run(args, wl)
    context["farm_workers"] = workloads.FARM_WORKERS if args.workload in workloads.ON_FARM else 0
    print(json.dumps({"ok": ok, "attempted": attempted, "metrics": metrics, "context": context}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
