"""Regenerate expected.json, the pinned result of every conjecture and
verify item, from the library in this checkout.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only at a commit whose results are trusted: the benchmark counts
every later disagreement with these values as a failed item.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import workloads

WORK = Path(__file__).resolve().parent.parent / ".perfbench-work" / "pin"


def main() -> None:
    pinned = {}
    try:
        for workload in ("conjecture", "verify"):
            round_items = workloads.items(workload, 0, 0)
            argv = workloads.setup(workload, round_items, WORK)
            pinned[workload] = {
                item.name: workloads.run_item(workload, item, argv)[0] for item in round_items
            }
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    main()
