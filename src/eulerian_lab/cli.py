"""Command line front end.

Subcommands cover the family tables, the identity and enumeration suites,
sampled certification of the two transform theorems, the interlacing
conjecture on uniform triangulations, complex dumps and f-triangle export.
Reports are deterministic for a fixed seed and flag set; wall-clock timing
goes to stderr only.  Exit codes: 0 all checks passed, 1 a mathematical
verdict failed (a finding, such as a conjecture counterexample), 2 usage,
input or budget errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from typing import Sequence

from .budget import face_limit, group_limit
from .errors import BudgetExceeded, CertificationError
from .poly import Poly, is_gamma_positive, is_symmetric, is_unimodal
from .roots import is_real_rooted
from .simplicial import (
    GEOMETRY_FAMILIES,
    FTriangle,
    antiprism_sphere,
    barycentric_subdivision,
    build_geometry_family,
    faces_as_index_lines,
    family_f_triangle,
)
from .suites import (
    GOLDEN_DNK,
    GOLDEN_QNK,
    CaseResult,
    conjecture_cases,
    counterexample_cases,
    d_interlacing_cases,
    derangement_sample_cases,
    equivalence_cases,
    generic_conjecture_cases,
    geometry_cases,
    golden_table_cases,
    identity_cases,
    q_interlacing_cases,
    theorem1_sample_cases,
)
from .transforms import TABLE_FAMILIES, binomial_base


def _poly_flags(p: Poly) -> str:
    window = max(p.deg(), 0)
    parts = []
    if all(c >= 0 for c in p.coeffs):
        parts.append("nonnegative")
    if is_unimodal(p) is not None:
        parts.append("unimodal")
    if is_symmetric(p, window):
        parts.append("palindromic")
        if is_gamma_positive(p, window):
            parts.append("gamma-positive")
    return ";".join(parts) if parts else "-"


def _table_rows(family: str, n: int) -> list[dict]:
    if family not in TABLE_FAMILIES:
        raise ValueError(f"unknown table family {family!r}")
    return [
        {
            "n": m,
            "k": k,
            "j": j,
            "polynomial": poly.to_text(),
            "real_rooted": is_real_rooted(poly),
            "flags": _poly_flags(poly),
        }
        for m, k, j, poly in TABLE_FAMILIES[family](n)
    ]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _render_table(command: str, params: dict, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return (
            json.dumps(
                {"command": command, "params": params, "rows": rows},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "k", "polynomial", "real_rooted", "flags"])
        for row in rows:
            k = row["k"]
            if row["j"] is not None:
                k = f"{row['k']}:{row['j']}"
            writer.writerow(
                [
                    row["n"],
                    "" if k is None else k,
                    row["polynomial"],
                    str(row["real_rooted"]).lower(),
                    row["flags"],
                ]
            )
        return buf.getvalue()
    lines = [f"# {command}"]
    for row in rows:
        key = f"n={row['n']}"
        if row["k"] is not None:
            key += f" k={row['k']}"
        if row["j"] is not None:
            key += f" j={row['j']}"
        marker = "R" if row["real_rooted"] else " "
        lines.append(f"{key:<16} [{marker}] {row['polynomial']}  ({row['flags']})")
    return "\n".join(lines) + "\n"


def _render_cases(
    command: str, params: dict, cases: list[CaseResult], summary: dict, fmt: str
) -> str:
    if fmt == "json":
        return (
            json.dumps(
                {
                    "command": command,
                    "params": params,
                    "cases": [
                        {"name": c.name, "status": c.status, "detail": c.detail}
                        for c in cases
                    ],
                    "summary": summary,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "status", "detail"])
        for c in cases:
            writer.writerow([c.name, c.status, c.detail])
        return buf.getvalue()
    lines = [f"# {command}"]
    for c in cases:
        tag = "PASS" if c.ok else "FAIL"
        suffix = f": {c.detail}" if (not c.ok and c.detail) else ""
        lines.append(f"{tag} {c.name}{suffix}")
    passed = sum(1 for c in cases if c.ok)
    lines.append(f"passed {passed}/{len(cases)}")
    for key in sorted(summary):
        lines.append(f"{key}: {json.dumps(summary[key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _cases_exit(cases: list[CaseResult]) -> int:
    return 0 if all(c.ok for c in cases) else 1


def _cmd_table(args: argparse.Namespace) -> int:
    rows = _table_rows(args.family, args.n)
    # the q and d triangles carry frozen reference data up to n = 4; a
    # mismatch there is a mathematical failure, not a formatting issue
    golden = {"q": GOLDEN_QNK, "qnk": GOLDEN_QNK, "dnk": GOLDEN_DNK}.get(args.family)
    if golden is not None:
        for row in rows:
            key = (row["n"], row["k"])
            want = golden.get(key)
            if want is not None and Poly.from_text(row["polynomial"]) != Poly.from_text(want):
                raise CertificationError(
                    f"table {args.family} at n={key[0]} k={key[1]} disagrees "
                    f"with the frozen reference value {want}"
                )
    params = {"family": args.family, "n": args.n}
    _emit(_render_table("table", params, rows, args.format), args.out)
    return 0


def _cmd_verify_identities(args: argparse.Namespace) -> int:
    cases: list[CaseResult] = []
    if args.part in ("families", "all"):
        cases.extend(golden_table_cases())
        cases.extend(identity_cases(min(args.n, 8)))
        cases.extend(equivalence_cases(min(args.n, 6)))
        cases.extend(counterexample_cases())
    if args.part in ("geometry", "all"):
        for m in range(min(args.n, 5) + 1):
            cases.extend(geometry_cases("trivial", m))
            cases.extend(geometry_cases("barycentric", m))
        for m in range(min(args.n, 4) + 1):
            cases.extend(geometry_cases("esd", m, args.r))
            cases.extend(geometry_cases("colored", m, args.r))
    params = {"n": args.n, "part": args.part, "r": args.r}
    failures = sorted({c.name for c in cases if not c.ok})
    summary = {"failures": failures, "total": len(cases)}
    _emit(_render_cases("verify-identities", params, cases, summary, args.format), args.out)
    return _cases_exit(cases)


def _cmd_sample_theorem1(args: argparse.Namespace) -> int:
    cases = theorem1_sample_cases(args.n, args.samples, args.seed)
    cases.extend(derangement_sample_cases(args.n, args.samples, args.seed))
    cases.extend(q_interlacing_cases(args.n))
    cases.extend(d_interlacing_cases(args.n))
    params = {"n": args.n, "samples": args.samples, "seed": args.seed}
    failures = sorted({c.name for c in cases if not c.ok})
    summary = {"failures": failures, "total": len(cases)}
    _emit(_render_cases("sample-theorem1", params, cases, summary, args.format), args.out)
    return _cases_exit(cases)


def _load_triangle(args: argparse.Namespace) -> FTriangle:
    if args.ft_file is not None:
        with open(args.ft_file, "r", encoding="utf-8") as fh:
            return FTriangle.from_json(fh.read())
    return family_f_triangle(args.family, args.n, args.r)


def _cmd_check_conjecture(args: argparse.Namespace) -> int:
    if args.ft_file is None and args.family is None:
        raise ValueError("provide --family or --ft-file")
    if args.ft_file is not None and args.family is not None:
        raise ValueError("provide --family or --ft-file, not both")
    if args.family == "generic-binomial":
        cases, summary = generic_conjecture_cases(
            binomial_base(args.n), args.n, args.part
        )
        params = {"family": args.family, "n": args.n, "part": args.part}
    else:
        triangle = _load_triangle(args)
        cases, summary = conjecture_cases(triangle, args.part)
        params = {
            "family": args.family,
            "ft_file": args.ft_file,
            "n": triangle.n,
            "r": args.r,
            "part": args.part,
        }
    hyp_ok = summary["hypothesis"]
    concl_ok = all(c.ok for c in cases if not c.name.startswith("hypothesis"))
    if hyp_ok and concl_ok:
        summary["verdict"] = "both-hold"
    elif hyp_ok:
        summary["verdict"] = "conclusion-fails"
    elif concl_ok:
        summary["verdict"] = "hypothesis-fails"
    else:
        summary["verdict"] = "hypothesis-and-conclusion-fail"
    _emit(_render_cases("check-conjecture", params, cases, summary, args.format), args.out)
    # only a genuine counterexample (premise holds, conclusion fails) is a
    # mathematical finding; families outside the hypothesis exit cleanly
    return 1 if (hyp_ok and not concl_ok) else 0


def _cmd_dump_complex(args: argparse.Namespace) -> int:
    if args.family == "antiprism":
        complex = antiprism_sphere(barycentric_subdivision(args.n)).complex
    else:
        complex = build_geometry_family(args.family, args.n, args.r).complex
    lines = faces_as_index_lines(complex)
    if args.format == "json":
        faces = [[int(i) for i in line.split()] for line in lines]
        text = (
            json.dumps(
                {
                    "command": "dump-complex",
                    "params": {"family": args.family, "n": args.n, "r": args.r},
                    "vertices": len(complex.vertex_order),
                    "faces": faces,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    elif args.format == "csv":
        text = "\n".join(line.replace(" ", ",") for line in lines) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_ft_from_family(args: argparse.Namespace) -> int:
    triangle = family_f_triangle(args.family, args.n, args.r)
    _emit(triangle.to_json() + "\n", args.out)
    return 0


def _size(text: str) -> int:
    """argparse type for --n, --r and --samples: a nonnegative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="text"
    )
    parser.add_argument("--out", default=None, help="write the report to a file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerian-lab",
        description="Exact verification of Eulerian-type polynomial families, "
        "their transforms, and uniform triangulation identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print one polynomial family")
    p.add_argument(
        "--family",
        required=True,
        choices=list(TABLE_FAMILIES),
    )
    p.add_argument("--n", type=_size, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser(
        "verify-identities", help="run the identity and enumeration suites"
    )
    p.add_argument("--n", type=_size, default=6)
    p.add_argument("--r", type=_size, default=2)
    p.add_argument("--part", choices=("families", "geometry", "all"), default="all")
    _add_common(p)
    p.set_defaults(fn=_cmd_verify_identities)

    p = sub.add_parser(
        "sample-theorem1",
        help="sampled certification of the transform theorems",
    )
    p.add_argument("--n", type=_size, default=8)
    p.add_argument("--samples", type=_size, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_sample_theorem1)

    p = sub.add_parser(
        "check-conjecture",
        help="check the interlacing conjecture on one triangulation family",
    )
    p.add_argument(
        "--family",
        # the order of the choices is part of the --help text
        choices=["barycentric", "trivial", "colored", "esd", "generic-binomial"],
        default=None,
    )
    p.add_argument("--ft-file", default=None, help="load an f-triangle JSON file")
    p.add_argument("--n", type=_size, default=6)
    p.add_argument("--r", type=_size, default=2)
    p.add_argument("--part", choices=("a", "b", "both"), default="both")
    _add_common(p)
    p.set_defaults(fn=_cmd_check_conjecture)

    p = sub.add_parser("dump-complex", help="print a complex, one face per line")
    p.add_argument(
        "--family",
        required=True,
        choices=[*GEOMETRY_FAMILIES, "antiprism"],
    )
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--r", type=_size, default=2)
    _add_common(p)
    p.set_defaults(fn=_cmd_dump_complex)

    p = sub.add_parser(
        "ft-from-family", help="export a family's f-triangle as JSON"
    )
    p.add_argument(
        "--family",
        required=True,
        choices=list(GEOMETRY_FAMILIES),
    )
    p.add_argument("--n", type=_size, required=True)
    p.add_argument("--r", type=_size, default=2)
    # the export is JSON only, so it takes no --format
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(fn=_cmd_ft_from_family)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main reads with, built once per process: building all
    six subcommands costs about a millisecond, which in-process callers
    of main would otherwise pay on every call."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    started = time.perf_counter()
    try:
        group_limit()
        face_limit()
        code = args.fn(args)
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 1
    except (BudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        elapsed = time.perf_counter() - started
        print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
