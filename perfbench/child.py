"""One round of a workload in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED ROUND TRACE WORK_DIR

run.py starts this with PYTHONPATH pointing at the checkout's src, so the
library's lru_caches start cold as they do for a CLI user.  It prints one
JSON object: the monotonic time at which the round was ready for its first
item, per-item latencies (raw and scaled to host speed) and results, the
measured phase's wall and CPU time, peak RSS and, with TRACE = 1, the
tracer's per-layer aggregates.
"""

from __future__ import annotations

import gc
import json
import resource
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads


# Host speed calibration.  The benchmark host shares its cores with other
# tenants, and its effective speed for this pure-Python work drifts by up to
# 1.5x within minutes (cpu time tracks wall time, so it is not steal).  A
# fixed Fraction kernel, untouched by the library and run with the garbage
# collector off, is timed in a short slice before the first item and after
# every item.  An item's time is scaled by REFERENCE_SLICE_S over the mean
# of the two slices around it; set-up by REFERENCE_SLICE_S over the mean of
# all slices of the round.  Slices are not part of any timing.
CALIBRATION_STEPS = 700
REFERENCE_SLICE_S = 0.010


def calibration_slice() -> float:
    clock = time.perf_counter
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        a = Fraction(1)
        for i in range(1, CALIBRATION_STEPS):
            a = (a * 3 + Fraction(1, i)) / 2
            a = Fraction(a.numerator % 10**30, a.denominator % 10**30 + 1)
        return clock() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


def run_round(workload: str, round_items: list, work_dir: Path, expected: dict, tracer=None) -> dict:
    """Set up and execute one round in this interpreter.  An item that
    raises or gives a wrong result counts as failed and the round goes on."""
    argv = workloads.setup(workload, round_items, work_dir)
    ready = time.monotonic()
    clock = time.perf_counter
    results = []
    slices = [calibration_slice()]
    out_bytes = 0
    run_s = scaled_run_s = cpu_s = 0.0
    for item in round_items:
        t0, c0 = clock(), time.process_time()
        try:
            facts, written = workloads.run_item(workload, item, argv)
        except Exception as exc:  # a failed item is a measurement, not a crash
            result = {"name": item.name, "ms": (clock() - t0) * 1e3, "ok": False,
                      "error": repr(exc)}
        else:
            ms = (clock() - t0) * 1e3
            out_bytes += written
            ok = workloads.check(workload, item, facts, expected)
            result = {"name": item.name, "ms": ms, "ok": ok, "facts": facts}
        elapsed = clock() - t0
        cpu_s += time.process_time() - c0
        slices.append(calibration_slice())
        factor = 2 * REFERENCE_SLICE_S / (slices[-2] + slices[-1])
        result["scaled_ms"] = result["ms"] * factor
        results.append(result)
        run_s += elapsed
        scaled_run_s += elapsed * factor
    record = {
        "ready": ready,
        "run_s": run_s,
        "scaled_run_s": scaled_run_s,
        "cpu_s": cpu_s,
        "speed_factor": REFERENCE_SLICE_S * len(slices) / sum(slices),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out_bytes": out_bytes,
        "items": results,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
    return record


def main(argv: list[str]) -> int:
    workload, seed, round_index, trace, work_dir = argv
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    work = Path(work_dir)
    try:
        round_items = workloads.items(workload, int(seed), int(round_index))
        record = run_round(workload, round_items, work, workloads.load_expected(), tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
