"""The three benchmark workloads: their item lists, set-up, execution and
result checks.

A workload is a fixed list of items.  ``conjecture`` and ``verify`` run the
same list in every round whatever the seed; only ``theorem1`` draws its
sample seeds from the benchmark seed, so the library sees the seed only
through generated inputs.

Library calls go through module attributes (``suites.geometry_cases``, not
a name imported from it), so a tracer that rebinds module globals sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from eulerian_lab import cli, simplicial, suites

WORKLOADS = ("conjecture", "theorem1", "verify")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# conjecture: f-triangle files of uniform triangulations plus the
# generic-binomial counterexample path.  Fifteen items (a count ending in 5)
# put both the pooled median and the pooled 90th percentile in the middle of
# one item's cluster of repeats, not on the edge between two items.
BARYCENTRIC_SIZES = range(1, 8)
COLORED_SIZES = range(1, 5)  # r = 2; n = 5 would add about 2 s of set-up
BINOMIAL_SIZES = range(2, 6)

# theorem1: samples per round; one sample takes 0.6-0.8 s at n = 8
THEOREM1_N = 8
THEOREM1_PER_ROUND = 6

# verify: the suites behind `verify-identities --part all`, at sizes past
# the CLI caps where that keeps a round near 5 s.  Geometry below m = 3 is
# left out: those items take a few milliseconds, so timer and allocator
# noise would decide the latency percentiles.  counterexample_cases is left
# out because it decides interlacing, and this is the workload that builds
# no Sturm chain; the conjecture workload checks the same counterexample as
# generic-binomial-2.  Fifteen items, for the same reason as conjecture.
IDENTITY_N = 8
EQUIVALENCE_SIZES = (5, 6)
GEOMETRY_R = 2
GEOMETRY_SIZES = (
    ("trivial", range(3, 6)),
    ("barycentric", range(3, 6)),
    ("esd", range(3, 6)),
    ("colored", range(3, 5)),
)


@dataclass(frozen=True)
class Item:
    name: str
    kind: str
    args: tuple


def items(workload: str, seed: int, round_index: int) -> list[Item]:
    """The items of one round.  Only theorem1 depends on seed and round."""
    if workload == "conjecture":
        out = [Item(f"ft-barycentric-{n}", "ft", ("barycentric", n)) for n in BARYCENTRIC_SIZES]
        out += [Item(f"ft-colored-{n}-r2", "ft", ("colored", n)) for n in COLORED_SIZES]
        out += [
            Item(f"generic-binomial-{n}", "family", ("generic-binomial", n))
            for n in BINOMIAL_SIZES
        ]
        return out
    if workload == "theorem1":
        return [
            Item(f"sample-{s}", "sample", (THEOREM1_N, s))
            for s in theorem1_seeds(seed, round_index)
        ]
    if workload == "verify":
        out = [
            Item("golden-tables", "golden", ()),
            Item(f"identities-{IDENTITY_N}", "identities", (IDENTITY_N,)),
        ]
        out += [Item(f"equivalence-{n}", "equivalence", (n,)) for n in EQUIVALENCE_SIZES]
        for family, sizes in GEOMETRY_SIZES:
            suffix = "-r2" if family in ("esd", "colored") else ""
            out += [
                Item(f"geometry-{family}-{m}{suffix}", "geometry", (family, m, GEOMETRY_R))
                for m in sizes
            ]
        return out
    raise ValueError(f"unknown workload {workload!r}")


def theorem1_seeds(seed: int, round_index: int) -> list[int]:
    """Sample seeds of one round: a slice of one stream drawn from seed, so
    successive rounds certify fresh samples."""
    rng = random.Random(seed)
    stream = [rng.getrandbits(32) for _ in range((round_index + 1) * THEOREM1_PER_ROUND)]
    return stream[round_index * THEOREM1_PER_ROUND :]


def setup(workload: str, round_items: list[Item], work_dir: Path) -> dict[str, list[str]]:
    """Generate the inputs of a round; returns each item's CLI arguments."""
    argv: dict[str, list[str]] = {}
    if workload != "conjecture":
        return argv
    work_dir.mkdir(parents=True, exist_ok=True)
    for item in round_items:
        family, n = item.args
        if item.kind == "family":
            argv[item.name] = ["check-conjecture", "--family", family, "--n", str(n)]
            continue
        if family == "barycentric":
            triangle = simplicial.barycentric_f_triangle(n)
        else:
            triangle = simplicial.f_triangle(simplicial.colored_barycentric(n, 2))
        path = work_dir / f"{item.name}.json"
        path.write_text(triangle.to_json(), encoding="utf-8")
        argv[item.name] = ["check-conjecture", "--ft-file", str(path)]
    for args in argv.values():
        args += ["--format", "json"]
    return argv


def run_item(workload: str, item: Item, argv: dict[str, list[str]]) -> tuple[object, int]:
    """Execute one item; returns its checkable facts and the bytes it wrote
    to stdout."""
    if workload == "conjecture":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv[item.name])
        text = out.getvalue()
        summary = json.loads(text)["summary"]
        return {"exit": code, **summary}, len(text.encode("utf-8"))
    if item.kind == "sample":
        n, s = item.args
        cases = suites.theorem1_sample_cases(n, 1, s) + suites.derangement_sample_cases(n, 1, s)
        return [[c.name, c.status] for c in cases], 0
    if item.kind == "golden":
        cases = suites.golden_table_cases()
    elif item.kind == "identities":
        cases = suites.identity_cases(*item.args)
    elif item.kind == "equivalence":
        cases = suites.equivalence_cases(*item.args)
    else:
        cases = suites.geometry_cases(*item.args)
    return case_digest(cases), 0


def case_digest(cases) -> dict:
    """Names and statuses of a suite's cases, pinned by count, failures and
    a hash; free-text details are left out."""
    lines = "\n".join(f"{c.name}\t{c.status}" for c in cases)
    return {
        "cases": len(cases),
        "failed": sorted(c.name for c in cases if c.status != "pass"),
        "sha256": hashlib.sha256(lines.encode("utf-8")).hexdigest(),
    }


def check(workload: str, item: Item, facts: object, expected: dict) -> bool:
    """Whether an item's mathematical result matches the pinned one."""
    if workload == "theorem1":
        n, _ = item.args
        names = [f"theorem1-sample-{n}-0", f"derangement-sample-{n}-0"]
        return facts == [[name, "pass"] for name in names]
    return facts == expected[workload].get(item.name)


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
