#!/usr/bin/env python3
"""Benchmark of the batch-dynamic maximal matching service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload churn-bulk --seed 1 --seconds 20 --trace 0

It repeats whole rounds of the workload (fresh set-up, the fixed stream
of batches with reads after each, recovery where the workload is
durable) until ``--seconds`` have passed, checks every output against
its own edge map, prints a host record and each metric by name and unit,
and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the
traced ones, plus the tracing overhead against the untraced ones.
``--smoke`` runs the workload at toy sizes with every check on.

The program is imported from ``src/`` next to this directory; without
it the command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: durable service directories (removed
#: at the end of each round) and the traced runs' span files (kept).
RUN_DIR = ROOT / ".perfbench_run"
WORKLOAD_NAMES = ("churn-bulk", "drain-rank4", "serve-observed", "sharded-churn")
#: Rounds a full-size run makes at least, so set-up has a median.
MIN_ROUNDS = 3
#: With fewer batches in the stream the tail is no tail: report the median.
MIN_TAIL_SAMPLES = 40
#: Median seconds of harness.calibrate() on the reference host (2 cores,
#: Python 3.11) in its usual state.  Timings are reported at that speed.
CALIBRATION_REFERENCE_S = 0.0016

END_TO_END_UNITS = {
    "updates_per_s": "1/s",
    "ack_ms_p50": "ms",
    "ack_ms_tail": "ms",
    "fresh_read_ms_p50": "ms",
    "reads_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_update": "work",
    "depth_max": "depth",
}


def _steal_seconds() -> float:
    """CPU time the hypervisor has taken from this machine so far (all CPUs)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def host_record() -> dict:
    import numpy
    from repro import native

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "native_backend": native.BACKEND,
        "loadavg": os.getloadavg(),
    }


def tail(samples):
    """(value, percentile) of the highest whole percentile that has at
    least ten samples beyond it; the median below MIN_TAIL_SAMPLES."""
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return statistics.median(samples), 50
    p = math.floor(100 * (1 - 10 / n))
    ordered = sorted(samples)
    pos = (n - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), p


def median_by_kind(samples) -> float:
    """The mean over batch kinds of each kind's median.

    Churn workloads alternate insert and delete batches of different
    cost, half and half: the plain median of the pooled samples then
    falls in the gap between the two modes and jumps from run to run,
    while each kind's median is steady."""
    by_kind: dict = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def slowness(rounds) -> float:
    """How much slower than the reference the host ran during ``rounds``."""
    return statistics.median(c for r in rounds for c in r.calib_s) / CALIBRATION_REFERENCE_S


def per_batch(rounds, attr: str):
    """(kind, seconds) per batch of the stream: its median over the
    rounds, scaled to the reference host speed."""
    f = slowness(rounds)
    columns = zip(*(getattr(r, attr) for r in rounds))
    return [(col[0][0], statistics.median(s for _, s in col) / f) for col in columns]


def updates_per_s(rounds) -> float:
    return rounds[0].updates / sum(s for _, s in per_batch(rounds, "ack_s"))


def end_to_end(rounds) -> dict:
    """The end-to-end metrics of the untraced rounds.

    Every round replays the same batches, so each batch's time is its
    median over the rounds, and the percentiles are taken over the
    stream's distinct batches.  Host speed on a shared machine moves by
    tens of percent from one minute to the next, in every timing alike,
    so timings are scaled to the reference host speed by the median of
    the calibration samples taken between the batches.  The uncorrected
    figures are printed too."""
    acks = per_batch(rounds, "ack_s")
    tail_s, p = tail([s for _, s in acks])
    print(f"ack_ms_tail is p{p} of {len(acks)} batches")
    f = slowness(rounds)
    raw = sum(r.updates for r in rounds) / sum(s for r in rounds for _, s in r.ack_s)
    print(f"host slowness {f:.4f}; uncorrected: updates_per_s = {raw:.6g}, "
          f"setup_s = {statistics.median(r.setup_s for r in rounds):.6g}")
    first = rounds[0]
    return {
        "updates_per_s": updates_per_s(rounds),
        "ack_ms_p50": 1e3 * median_by_kind(acks),
        "ack_ms_tail": 1e3 * tail_s,
        "fresh_read_ms_p50": 1e3 * median_by_kind(per_batch(rounds, "fresh_s")),
        "reads_per_s": first.reads * f / statistics.median(r.read_s for r in rounds),
        "setup_s": statistics.median(r.setup_s for r in rounds) / f,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_update": first.work_per_update,
        "depth_max": first.depth_max,
    }


def repeat_problems(rounds) -> list:
    """Every round replays the same seed: its ledger totals and dispatch
    counts must equal the first round's exactly (traced rounds included)."""
    first = rounds[0]
    problems = []
    for k, r in enumerate(rounds[1:], start=1):
        for key in ("work_per_update", "depth_max", "vec_stats"):
            if getattr(r, key) != getattr(first, key):
                problems.append(f"round {k}: {key} {getattr(r, key)} != "
                                f"round 0's {getattr(first, key)}")
    return problems


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes, one round (two with --trace 1)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    from harness import run_round
    from tracing import LayerTrace, per_layer_catalogue
    from workloads import WORKLOADS, make_inputs, smoke

    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    workdir = RUN_DIR / f"{w.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(w, args.seed)
        # Warm-up: imports, lazy tables and caches, at toy size; not counted.
        little = smoke(w)
        warm = run_round(little, make_inputs(little, args.seed), args.seed, str(workdir))
        problems = [f"warm-up: {p}" for p in warm.problems]

        host = host_record()
        steal0 = _steal_seconds()
        print("host:", json.dumps(host))
        print(f"workload {w.name}: {len(inputs.stream)} batches, "
              f"{inputs.updates} updates per round")
        tracer = LayerTrace() if args.trace else None
        min_rounds = (2 if args.trace else 1) if args.smoke else MIN_ROUNDS
        rounds, traced = [], []
        start = time.perf_counter()
        while len(rounds) + len(traced) < min_rounds or \
                time.perf_counter() - start < args.seconds:
            on = tracer is not None and len(rounds) > len(traced)
            r = run_round(w, inputs, args.seed, str(workdir), tracer if on else None)
            if on and r.recover_s is not None:
                tracer.on_recovered(r.recover_s)
            (traced if on else rounds).append(r)
        every = rounds + traced
        problems += [p for r in every for p in r.problems] + repeat_problems(every)
        batches = sum(r.batches for r in every)
        batch_failures = batches - sum(r.acked for r in every)
        print(f"batches attempted {batches}, failed {batch_failures}; reads attempted "
              f"{sum(r.attempted for r in every) - batches}, failed "
              f"{sum(r.failed for r in every) - batch_failures}")
        print(f"rounds: {len(rounds)} untraced, {len(traced)} traced; "
              f"steal during run: {_steal_seconds() - steal0:.2f} s; "
              f"loadavg at end: {os.getloadavg()}")

        metrics = end_to_end(rounds)
        units = dict(END_TO_END_UNITS)
        if tracer is not None:
            metrics = tracer.metrics(metrics["updates_per_s"], updates_per_s(traced),
                                     rounds[0].vec_stats)
            units = {name: unit for name, unit, _ in per_layer_catalogue()}
            trace_path = RUN_DIR / f"trace-{w.name}-seed{args.seed}.jsonl"
            tracer.write(str(trace_path))
            print(f"spans written to {trace_path}")
        for p in problems[:20]:
            print("PROBLEM:", p)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        result = {
            "correct": not problems,
            "attempted": sum(r.attempted for r in every),
            "failed": sum(r.failed for r in every),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
