"""Benchmark harness for eulerian_lab.

    python3 perfbench/run.py [--workload conjecture|theorem1|verify|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A run repeats rounds of one workload for
about S seconds.  Every round is a fresh interpreter (child.py) with a
fixed PYTHONHASHSEED and without EULERIAN_LAB_BUDGET, executing the
workload's whole item list once and checking every result; rounds run one
at a time.  With --trace 0 the run reports the end-to-end metrics: medians
over rounds, and item latency percentiles pooled over rounds.  With
--trace 1 it alternates an untraced and a traced round on the same inputs
and reports the per-layer metrics of the traced rounds, averaged per round,
with the traced-to-untraced time ratio.  Traced rounds never feed an
end-to-end metric.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the
interpreter, core count, commit, seed and every per-round value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench-work"
# as in workloads.py, which this process does not import: the harness never
# loads the library, so it can refuse a checkout that lacks it
WORKLOADS = ("conjecture", "theorem1", "verify")

END_TO_END = (
    ("run_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics in report order; those read as ratios or medians are
# not averaged over rounds but taken as the median of the rounds' values
PER_LAYER = (
    ("poly.self_s", "s"),
    ("poly.calls", "count"),
    ("poly.evaluate.calls", "count"),
    ("poly.divmod.calls", "count"),
    ("poly.mul.calls", "count"),
    ("poly.gcd.calls", "count"),
    ("poly.divmod.coeff_bits_p50", "bits"),
    ("roots.incl_s", "s"),
    ("roots.self_s", "s"),
    ("roots.interlaces.calls", "count"),
    ("roots.interlaces.incl_s", "s"),
    ("roots.is_real_rooted.calls", "count"),
    ("roots.is_real_rooted.hit_ratio", "1"),
    ("roots.sturm_distinct_real_roots.calls", "count"),
    ("transforms.incl_s", "s"),
    ("transforms.self_s", "s"),
    ("transforms.calls", "count"),
    ("transforms.cache_hit_ratio", "1"),
    ("permutations.incl_s", "s"),
    ("permutations.self_s", "s"),
    ("permutations.sweeps", "count"),
    ("permutations.group_elements", "count"),
    ("simplicial.incl_s", "s"),
    ("simplicial.self_s", "s"),
    ("simplicial.calls", "count"),
    ("simplicial.faces_built", "count"),
    ("suites.self_s", "s"),
    ("suites.cases", "count"),
    ("suites.cases_failed", "count"),
    ("cli.incl_s", "s"),
    ("cli.self_s", "s"),
    ("cli.out_bytes", "bytes"),
    ("budget.calls", "count"),
    ("process.cpu_s", "s"),
    ("trace.overhead_ratio", "1"),
)
MEDIAN_LAYER_METRICS = {
    "poly.divmod.coeff_bits_p50",
    "roots.is_real_rooted.hit_ratio",
    "transforms.cache_hit_ratio",
}

# every workload's rounds end within this many seconds, so that a run of one
# workload exits within 180 s even when a round hangs
RUN_DEADLINE_S = 170


class RoundFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "EULERIAN_LAB_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # every round compiles the sources, so set-up time does not depend on
    # bytecode left behind by an earlier round or checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_round(workload: str, seed: int, round_index: int, trace: int, deadline: float) -> dict:
    """Spawn one fresh interpreter for one round and return its record,
    with setup_s measured from the spawn."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}-{round_index}-{trace}"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        workload,
        str(seed),
        str(round_index),
        str(trace),
        str(work),
    ]
    timeout = max(5.0, deadline - time.monotonic())
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{workload} round {round_index} exceeded {timeout:.0f}s") from None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = time.monotonic() - spawned
    if proc.returncode != 0:
        raise RoundFailed(
            f"{workload} round {round_index} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - spawned
    record["wall_s"] = wall
    return record


def run_rounds(workload: str, seed: int, seconds: float, trace: int) -> tuple[list, list]:
    """Rounds until the next one would end after `seconds`; at least one.
    Returns (untraced rounds, traced rounds); with trace each untraced
    round is paired with a traced round on the same inputs."""
    start = time.monotonic()
    hard_deadline = start + RUN_DEADLINE_S
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    r = 0
    while True:
        t0 = time.monotonic()
        plain.append(run_round(workload, seed, r, 0, hard_deadline))
        if trace:
            traced.append(run_round(workload, seed, r, 1, hard_deadline))
        walls.append(time.monotonic() - t0)
        r += 1
        if time.monotonic() + statistics.median(walls) > start + seconds:
            return plain, traced


def percentile(values: list[float], q: int) -> float:
    """q-th percentile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scaled_latencies(rounds: list[dict]) -> list[float]:
    return [item["scaled_ms"] for r in rounds for item in r["items"]]


def end_to_end(plain: list[dict]) -> dict[str, float]:
    latencies = scaled_latencies(plain)
    return {
        "run_s": statistics.median(r["scaled_run_s"] for r in plain),
        "item_ms_p50": percentile(latencies, 50),
        "item_ms_p90": percentile(latencies, 90),
        "setup_s": statistics.median(r["setup_s"] * r["speed_factor"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, _ in PER_LAYER:
        values = [r["layers"][name] for r in traced if name in r.get("layers", {})]
        if not values:
            continue
        if name in MEDIAN_LAYER_METRICS:
            out[name] = statistics.median(values)
        else:
            out[name] = sum(values) / len(values)
    out["cli.out_bytes"] = sum(r["out_bytes"] for r in traced) / len(traced)
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
    out["trace.overhead_ratio"] = sum(r["scaled_run_s"] for r in traced) / sum(
        r["scaled_run_s"] for r in plain
    )
    return {name: out[name] for name, _ in PER_LAYER}


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def round_summary(rnd: dict) -> dict:
    return {
        "speed_factor": rnd["speed_factor"],
        "scaled_run_s": rnd["scaled_run_s"],
        "run_s": rnd["run_s"],
        "setup_s": rnd["setup_s"],
        "wall_s": rnd["wall_s"],
        "cpu_s": rnd["cpu_s"],
        "peak_rss_mb": rnd["peak_rss_mb"],
        "failed": sum(not item["ok"] for item in rnd["items"]),
        "item_ms": {item["name"]: item["ms"] for item in rnd["items"]},
        "scaled_item_ms": {item["name"]: item["scaled_ms"] for item in rnd["items"]},
        "errors": [item["error"] for item in rnd["items"] if "error" in item],
    }


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    plain, traced = run_rounds(workload, seed, seconds, trace)
    rounds = plain + traced
    attempted = sum(len(r["items"]) for r in rounds)
    failed = sum(not item["ok"] for r in rounds for item in r["items"])
    if trace:
        metrics = per_layer(plain, traced)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(plain)
        units = dict(END_TO_END)
    latencies = scaled_latencies(plain)
    beyond_p90 = sum(ms > percentile(latencies, 90) for ms in latencies)
    print(
        f"workload {workload}  seed {seed}  trace {trace}  rounds {len(plain)}"
        f"{f' + {len(traced)} traced' if traced else ''}  items {len(latencies)}"
        f"  beyond p90 {beyond_p90}"
    )
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    print(f"  {'fail_ratio':<40} {failed / attempted:>14.6g} 1")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "fail_ratio": failed / attempted,
        "rounds": [round_summary(r) for r in plain],
        "traced_rounds": [
            {**round_summary(r), "layers": r["layers"]} for r in traced
        ],
    }
    return {
        "record": record,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "eulerian_lab" / "__init__.py").is_file():
        print(f"error: no eulerian_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {
            f"{w}.{m}": v for w, res in results.items() for m, v in res["metrics"].items()
        }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps([r["record"] for r in results.values()]))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
