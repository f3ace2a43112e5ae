#!/usr/bin/env python3
"""Benchmark of the securejscc library: one command, every metric.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the library is imported from its
``src/`` directory. Each run is one closed loop: a single process and a
single caller with one call in flight, BLAS on one thread. Times are
reference seconds (see reference.py and README.md). With ``--trace 0`` the
last line of standard output is a JSON object holding the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` it holds the per-layer
metrics. The lines before it name the same figures the way README.md does,
with wall-clock rates, the workload's own outcomes and the machine.

``--smoke`` runs every workload, untraced and traced, at tiny sizes and
asserts that each metric of BENCHMARK.json is printed with its unit.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # one thread: with two, OpenBLAS's threads on the small matrices of the
    # security harness made the attack ~2.5x slower and far noisier
    cap = "1"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, list[str]]:
    """Start worker.py; return its set-up time in reference seconds (until
    its READY line) and its output."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready_s = None
        lines = []
        for line in proc.stdout:
            if ready_s is None and line.startswith("READY "):
                wall_s = time.perf_counter() - t0
                scale, extra_s = map(float, line.split()[1:])
                ready_s = (wall_s - extra_s) * scale
            else:
                lines.append(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready_s is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, lines


def bench(workload: str, seed: int, seconds: float, trace: int,
          smoke: bool = False) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and the lines before it."""
    if not (SRC / "securejscc" / "__init__.py").is_file():
        raise BenchError(f"no securejscc package under {SRC}")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    flags = ["--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)]
    flags += ["--smoke"] if smoke else []
    # set-up is sampled before, by and after the measuring process, so that
    # a slow stretch of the machine does not hit every sample
    probe = flags + ["--probe"]
    setup = [] if trace else [run_worker(probe, deadline)[0]]
    ready_s, lines = run_worker(flags, deadline)
    setup.append(ready_s)
    if not trace:
        setup.append(run_worker(probe, deadline)[0])
    report = json.loads(lines[-1])

    failed = len(report["failures"])
    notes = [f"machine: {json.dumps(report['facts'])}",
             f"workload {workload}, seed {seed}, {report['rounds']} rounds"]
    notes += [f"{name} = {value:.6g} {unit}"
              for name, (value, unit) in report["outcomes"].items()]
    notes += [f"check failed: {name}" for name in report["failures"]]
    notes.append(f"error_rate = {failed / max(1, report['attempted']):.6g} "
                 f"({failed} of {report['attempted']} checks failed)")
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["per_layer"].items()}
        self_ms = {name[:-len(".self_ms")]: m["value"]
                   for name, m in metrics.items() if name.endswith(".self_ms")}
        share = self_ms["modem.soft_demodulate"] / sum(self_ms.values())
        notes.append(f"largest self time: {max(self_ms, key=self_ms.get)}; "
                     f"modem.soft_demodulate {share:.1%} of traced self time")
        notes += [f"wrapped name missing: {name}"
                  for name in report["missing_wrappers"]]
    else:
        rate = report["throughput_per_s"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "throughput_per_s": {"value": rate, "unit": "1/s"},
        }
        notes += [f"{name} = {value:.6g} 1/s (reference seconds)"
                  for name, value in report["rates"].items()]
        notes += [f"throughput_per_s = {rate:.6g} 1/s ({report['item']}s per "
                  f"reference second; {report['wall_throughput_per_s']:.6g} "
                  f"per wall-clock second)",
                  f"setup_s = {statistics.median(setup):.6g} s "
                  f"(reference seconds, median of {len(setup)} processes)",
                  f"peak_rss_mb = {report['peak_rss_mb']:.6g} MB"]
    result = {"correct": failed == 0, "attempted": report["attempted"],
              "failed": failed, "metrics": metrics}
    return result, notes


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, _ = bench(w["name"], 1, 1, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                print(f"smoke: {w['name']} trace={trace}: metrics differ: "
                      f"missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}, units "
                      f"{sorted(n for n in want if got.get(n, want[n]) != want[n])}",
                      file=sys.stderr)
                return 1
            print(f"smoke: {w['name']} trace={trace}: {len(got)} metrics, "
                  f"correct={result['correct']}")
    print("smoke: ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        result, notes = bench(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(notes))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
