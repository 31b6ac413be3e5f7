"""Tests of the benchmark itself, on small slices of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench

Slices that install the tracer run in a subprocess, because the tracer
patches the library for the life of its interpreter.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench-work"

SLICES = {
    "conjecture": ["ft-barycentric-3", "ft-colored-2-r2", "generic-binomial-2", "generic-binomial-3"],
    "theorem1": None,  # the first sample of seed 0
    "verify": ["golden-tables", "geometry-trivial-3", "geometry-barycentric-3", "geometry-colored-3-r2"],
}

@pytest.fixture(autouse=True, scope="module")
def remove_empty_work_root():
    yield
    try:
        WORK.rmdir()
    except OSError:
        pass


SLICE_SCRIPT = """
import inspect, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import child, workloads
from eulerian_lab import roots
from tracer import Tracer

workload, trace, work, names = sys.argv[2], sys.argv[3] == "1", sys.argv[4], json.loads(sys.argv[5])
round_items = workloads.items(workload, 0, 0)
round_items = round_items[:1] if names is None else [i for i in round_items if i.name in names]
tracer = spied = None
if trace:
    code = inspect.unwrap(roots.interlaces).__code__
    spied = [0]

    def spy(frame, event, arg):
        if event == "call" and frame.f_code is code:
            spied[0] += 1

    tracer = Tracer()
    tracer.install()
    sys.setprofile(spy)
record = child.run_round(workload, round_items, Path(work), workloads.load_expected(), tracer)
sys.setprofile(None)
record["spied_interlaces"] = spied[0] if spied else None
print(json.dumps(record))
"""


def run_slice(workload: str, trace: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EULERIAN_LAB_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    work = WORK / f"test-{workload}-{int(trace)}"
    try:
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                SLICE_SCRIPT,
                str(HERE),
                workload,
                "1" if trace else "0",
                str(work),
                json.dumps(SLICES[workload]),
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_slices_agree(workload):
    plain = run_slice(workload, trace=False)
    traced = run_slice(workload, trace=True)
    assert [(i["name"], i["ok"], i["facts"]) for i in plain["items"]] == [
        (i["name"], i["ok"], i["facts"]) for i in traced["items"]
    ]
    assert all(i["ok"] for i in plain["items"])
    calls = traced["layers"]["roots.interlaces.calls"]
    assert calls == traced["spied_interlaces"]
    if workload == "verify":
        assert calls == 0
    else:
        assert calls > 0


def test_corrupted_expected_value_fails_the_item():
    expected = workloads.load_expected()
    item = next(i for i in workloads.items("conjecture", 0, 0) if i.name == "ft-barycentric-2")
    work = WORK / "test-corrupt"
    try:
        good = child.run_round("conjecture", [item], work, expected)
        expected["conjecture"][item.name]["part_a"]["real_rooted"][0] = False
        bad = child.run_round("conjecture", [item], work, expected)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    assert [i["ok"] for i in good["items"]] == [True]
    assert [i["ok"] for i in bad["items"]] == [False]


def test_seed_changes_only_theorem1_inputs():
    for workload in workloads.WORKLOADS:
        for round_index in range(3):
            a = workloads.items(workload, 1, round_index)
            b = workloads.items(workload, 2, round_index)
            assert (a != b) == (workload == "theorem1"), workload
    assert workloads.items("theorem1", 1, 0) == workloads.items("theorem1", 1, 0)
    assert workloads.items("theorem1", 1, 0) != workloads.items("theorem1", 1, 1)


def test_output_names_every_metric_of_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "verify", "--seed", "0",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_a_directory_without_the_library():
    bare = WORK / "test-bare"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "conjecture", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
