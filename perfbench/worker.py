"""One benchmark process: set up a workload, play rounds, report.

Started by run.py, never by hand. It prints ``READY <scale> <extra_s>``
once the workload's inputs are built and its warm-up calls are done (run.py
times set-up up to that line; ``extra_s`` is the time spent in the reference
kernels, and ``scale`` turns the rest into reference seconds, see
reference.py), then one JSON line with what it measured. With ``--probe`` it
exits after ``READY``; run.py starts two probes to take the median
set-up time over three processes.

Untraced runs (``--trace 0``) play rounds until ``--seconds`` have passed,
timing the workload's reference kernels between rounds. Traced runs play a
fixed number of blocks of untraced and traced rounds in turn, so call
counts repeat exactly from run to run, and also trace the set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from reference import nominal_seconds, reference_seconds
from tracer import Tracer
from workloads import AVG_POWER, SNR_GRID_DB, WORKLOADS, Checks

MIN_ROUNDS = 3


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS")}


def timed_round(workload, index: int, checks: Checks) -> tuple[str, int, float]:
    t0 = time.perf_counter()
    kind, items = workload.play(index, checks)
    return kind, items, time.perf_counter() - t0


def cycle_rate(workload, seconds_per_item: dict) -> float:
    """Cycles per second from the median seconds per item of each kind."""
    return 1.0 / sum(n * statistics.median(seconds_per_item[kind])
                     for kind, n in workload.round_items.items())


def run_untraced(workload, seconds: float, checks: Checks) -> dict:
    """Rounds until ``seconds`` have passed, each timed in reference seconds.

    Per kind of round, the median over rounds of reference seconds per item;
    the throughput is cycles per reference second. Wall-clock figures are
    reported beside it.
    """
    kernels = workload.reference
    nominal = nominal_seconds(kernels)
    ref = {kind: [] for kind in workload.round_items}
    wall = {kind: [] for kind in workload.round_items}
    min_rounds = MIN_ROUNDS * len(workload.round_items)
    rounds = 0
    start = time.perf_counter()
    ref_before = reference_seconds(kernels)
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        kind, items, dt = timed_round(workload, rounds, checks)
        ref_after = reference_seconds(kernels)
        scale = 2.0 * nominal / (ref_before + ref_after)
        ref[kind].append(dt * scale / items)
        wall[kind].append(dt / items)
        ref_before = ref_after
        rounds += 1
    return {"rounds": rounds,
            "throughput_per_s": cycle_rate(workload, ref),
            "wall_throughput_per_s": cycle_rate(workload, wall),
            "rates": {kind: 1.0 / statistics.median(v) for kind, v in ref.items()}}


def run_traced(workload, tracer: Tracer, pairs: int, checks: Checks) -> dict:
    """Alternate blocks of untraced and traced rounds; return the per-layer
    metrics. A block plays every kind of round, ``trace_block`` rounds."""
    untraced = traced = 0.0
    messages = trials = 0
    size = workload.trace_block
    for i in range(pairs):
        untraced += sum(timed_round(workload, 2 * i * size + j, checks)[2]
                        for j in range(size))
        before = (getattr(workload, "messages", 0), getattr(workload, "trials", 0))
        tracer.install()
        try:
            traced += sum(timed_round(workload, (2 * i + 1) * size + j, checks)[2]
                          for j in range(size))
        finally:
            tracer.uninstall()
        messages += getattr(workload, "messages", 0) - before[0]
        trials += getattr(workload, "trials", 0) - before[1]

    summary = tracer.summary(AVG_POWER)
    metrics = {}  # name -> (value, unit)
    for name, value in summary["layers"].items():
        metrics[name] = (value, "count" if name.endswith(".calls") else "ms")
    k = workload.params.k if messages else 0
    for snr_db in SNR_GRID_DB:
        label = f"snr_{snr_db:g}"
        per_symbol = summary["demod"]["ms_per_symbol"].get(label, 0.0)
        metrics[f"modem.soft_demodulate.ms_per_msg.{label}"] = (per_symbol * k,
                                                                 "ms")
        metrics[f"modem.soft_demodulate.support_frac.{label}"] = (
            summary["demod"]["support_frac"].get(label, 0.0), "ratio")
    decrypts = summary["layers"]["lwe.decrypt.calls"]
    centered = summary["layers"]["lwe.centered.calls"]
    metrics["lwe.decrypt.calls_per_msg"] = (
        decrypts / messages if messages else 0.0, "1/msg")
    metrics["lwe.centered.calls_per_trial"] = (
        centered / trials if trials else 0.0, "1/trial")
    metrics["trace_overhead_frac"] = (traced / untraced - 1.0, "ratio")
    metrics["trace.missing_wrappers"] = (len(tracer.missing), "count")
    return {"rounds": 2 * pairs * size, "per_layer": metrics,
            "missing_wrappers": tracer.missing}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    # the first pass of the kernels pays for their page faults
    kernels = WORKLOADS[args.workload].reference
    extra_s = -time.perf_counter()
    reference_seconds(kernels)
    ref_start = reference_seconds(kernels)
    extra_s += time.perf_counter()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
    finally:
        if tracer:
            tracer.uninstall()
    workload.warm_up()
    ref_end = reference_seconds(kernels)
    extra_s += ref_end
    scale = 2.0 * nominal_seconds(kernels) / (ref_start + ref_end)
    print(f"READY {scale!r} {extra_s!r}", flush=True)
    if args.probe:
        return 0

    checks = Checks()
    if tracer:
        report = run_traced(workload, tracer, max(1, int(args.seconds) // 4),
                            checks)
    else:
        report = run_untraced(workload, args.seconds, checks)
    report["outcomes"] = workload.finish(checks)
    report.update(
        item=workload.item,
        attempted=checks.attempted, failures=checks.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        facts=machine_facts())
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
