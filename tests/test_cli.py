"""Command line behavior: formats, determinism and exit codes."""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eulerian_lab.cli as cli_mod
from eulerian_lab.cli import build_parser, main
from eulerian_lab.simplicial import (
    FTriangle,
    barycentric_subdivision,
    colored_barycentric,
    edgewise_subdivision,
    f_triangle,
    faces_as_index_lines,
    family_f_triangle,
    trivial_triangulation,
)
from eulerian_lab.suites import GEOMETRY_FAMILIES, build_geometry_family


DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_csv_header_and_golden_row(self, capsys):
        code, out, err = run(capsys, "table", "--family", "q", "--n", "4",
                             "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,k,polynomial,real_rooted,flags"
        assert any(l.startswith("4,2,1 + 13x + 20x^2 + 4x^3,true") for l in lines)

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "A", "--n", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "table"
        assert doc["rows"][-1]["polynomial"] == "1 + 4x + x^2"
        assert doc["rows"][-1]["real_rooted"] is True

    def test_frozen_reference_guard(self, capsys, monkeypatch):
        import eulerian_lab.cli as cli_mod

        corrupted = dict(cli_mod.GOLDEN_QNK)
        corrupted[(4, 2)] = "1 + 13x + 20x^2 + 5x^3"
        monkeypatch.setattr(cli_mod, "GOLDEN_QNK", corrupted)
        code, _, err = run(capsys, "table", "--family", "q", "--n", "4")
        assert code == 1
        assert "disagrees" in err

    def test_every_family_runs(self, capsys):
        for fam in ("A", "Atilde", "p", "q", "qstar", "d", "dnk", "B", "DB",
                    "generic-h", "generic-l"):
            code, out, _ = run(capsys, "table", "--family", fam, "--n", "3")
            assert code == 0 and out


class TestDeterminism:
    def test_reports_byte_identical(self, capsys):
        argv = ("sample-theorem1", "--n", "5", "--samples", "10",
                "--seed", "7", "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_timing_only_on_stderr(self, capsys):
        _, out, err = run(capsys, "table", "--family", "A", "--n", "2")
        assert "elapsed" in err
        assert "elapsed" not in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "table", "--family", "d", "--n", "3",
                           "--format", "json", "--out", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["params"]["family"] == "d"


class TestVerifyIdentities:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--n", "3",
                           "--part", "families", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["failures"] == []
        assert all(c["status"] == "pass" for c in doc["cases"])

    def test_geometry_part(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--n", "2",
                           "--part", "geometry", "--format", "text")
        assert code == 0
        assert "passed" in out


class TestCheckConjecture:
    def test_counterexample_exits_one(self, capsys):
        code, out, _ = run(capsys, "check-conjecture", "--family",
                           "generic-binomial", "--n", "2", "--format", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["summary"]["verdict"] == "conclusion-fails"
        assert doc["summary"]["part_a"]["interlacing_pairs_failed"] == [[0, 2]]

    def test_barycentric_passes(self, capsys):
        code, out, _ = run(capsys, "check-conjecture", "--family",
                           "barycentric", "--n", "6", "--format", "json")
        assert code == 0
        assert json.loads(out)["summary"]["verdict"] == "both-hold"

    def test_trivial_out_of_scope_exits_zero(self, capsys):
        # theta of the trivial family is negative, so the premise fails and
        # nothing here contradicts the implication, even though the family
        # also misses the conclusion on degree gaps
        code, out, _ = run(capsys, "check-conjecture", "--family", "trivial",
                           "--n", "4", "--format", "json")
        assert code == 0
        verdict = json.loads(out)["summary"]["verdict"]
        assert verdict == "hypothesis-and-conclusion-fail"

    def test_part_selection(self, capsys):
        code, out, _ = run(capsys, "check-conjecture", "--family",
                           "barycentric", "--n", "4", "--part", "a",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert "part_a" in doc["summary"] and "part_b" not in doc["summary"]

    def test_requires_family_or_file(self, capsys):
        code, _, err = run(capsys, "check-conjecture")
        assert code == 2
        assert "family" in err

    @pytest.mark.parametrize(
        "golden, argv",
        [
            # the alternating row ends in 0, which the chain lemma must not
            # certify: its failing pairs (0, 3) and (0, 4) are reported
            ("check-conjecture-esd-r2-n5.json", ["--family", "esd", "--r", "2", "--n", "5"]),
            # the additive row starts with the constant 1 and its outer pair
            # fails, so its failing pairs come from the all-pairs fallback
            ("check-conjecture-trivial-n3.json", ["--family", "trivial", "--n", "3"]),
        ],
    )
    def test_failing_pairs_pinned(self, capsys, golden, argv):
        code, out, _ = run(capsys, "check-conjecture", *argv, "--format", "json")
        assert code == 0
        assert out == (DATA / golden).read_text()


class TestFTriangleRoundTrip:
    def test_colored_past_the_build_budget(self, capsys):
        # building colored n = 7, r = 2 needs more than 10^6 faces; the
        # closed form does not build it
        code, out, _ = run(capsys, "ft-from-family", "--family", "colored",
                           "--n", "7", "--r", "2")
        assert code == 0
        assert FTriangle.from_json(out) == family_f_triangle("colored", 7, 2)

    @pytest.mark.parametrize("family", ["esd", "colored"])
    def test_zero_r_exits_two(self, capsys, family):
        code, out, err = run(capsys, "ft-from-family", "--family", family,
                             "--n", "3", "--r", "0")
        assert code == 2 and not out and "r must be positive" in err

    def test_export_then_check(self, tmp_path, capsys):
        path = tmp_path / "esd.json"
        code, _, _ = run(capsys, "ft-from-family", "--family", "esd",
                         "--n", "4", "--r", "2", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "check-conjecture", "--ft-file", str(path),
                           "--format", "json")
        assert code == 0  # hypothesis fails for this family: out of scope
        doc = json.loads(out)
        assert doc["params"]["n"] == 4
        assert doc["summary"]["hypothesis"] is False

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2}',
            '{"n": 1, "f": [[1], [1, 1.5]]}',
            '{"n": 1, "f": [[1], ["1", "2"]]}',
            '{"n": true, "f": [[1], [1, 1]]}',
            '{"n": 1, "f": [[1], [1, 1e400]]}',
        ],
        ids=["missing-f", "fraction", "string", "bool-n", "overflow"],
    )
    def test_malformed_file_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "check-conjecture", "--ft-file", str(path))
        assert code == 2 and err and not out

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "check-conjecture", "--ft-file",
                         "/nonexistent/x.json")
        assert code == 2


class TestGeometryRegistry:
    # each family's constructor at r = 2, written out apart from the registry
    CONSTRUCTORS = {
        "trivial": trivial_triangulation,
        "barycentric": barycentric_subdivision,
        "esd": lambda n: edgewise_subdivision(n, 2),
        "colored": lambda n: colored_barycentric(n, 2),
    }

    def test_family_choices(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )

        def choices(command):
            actions = sub.choices[command]._actions
            return list(next(a.choices for a in actions if a.dest == "family"))

        assert choices("check-conjecture") == [
            "barycentric", "trivial", "colored", "esd", "generic-binomial"
        ]
        assert choices("dump-complex") == [
            "trivial", "barycentric", "esd", "colored", "antiprism"
        ]
        assert choices("ft-from-family") == list(self.CONSTRUCTORS)

    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("family", list(GEOMETRY_FAMILIES))
    def test_family_wiring(self, capsys, monkeypatch, family, n):
        built = build_geometry_family(family, n)
        want = self.CONSTRUCTORS[family](n)
        assert faces_as_index_lines(built.complex) == faces_as_index_lines(want.complex)
        counted = f_triangle(built)

        code, out, _ = run(capsys, "ft-from-family", "--family", family, "--n", str(n))
        assert code == 0
        assert FTriangle.from_json(out) == counted

        seen = []
        real = cli_mod.conjecture_cases

        def spy(triangle, part):
            seen.append(triangle)
            return real(triangle, part)

        monkeypatch.setattr(cli_mod, "conjecture_cases", spy)
        run(capsys, "check-conjecture", "--family", family, "--n", str(n))
        assert seen == [counted]


class TestDumpComplex:
    def test_text_faces(self, capsys):
        code, out, _ = run(capsys, "dump-complex", "--family", "barycentric",
                           "--n", "2")
        assert code == 0
        assert out.splitlines() == ["0", "1", "2", "0 2", "1 2"]

    def test_json_faces(self, capsys):
        code, out, _ = run(capsys, "dump-complex", "--family", "trivial",
                           "--n", "3", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["vertices"] == 3
        assert [0, 1, 2] in doc["faces"]

    def test_antiprism(self, capsys):
        code, out, _ = run(capsys, "dump-complex", "--family", "antiprism",
                           "--n", "2")
        assert code == 0
        # over the subdivided segment this sphere is a 5-cycle
        assert len(out.splitlines()) == 10


class TestBudgetAndErrors:
    def test_invalid_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "not-a-number")
        code, _, err = run(capsys, "table", "--family", "A", "--n", "2")
        assert code == 2 and "EULERIAN_LAB_BUDGET" in err

    def test_negative_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "-5")
        code, _, err = run(capsys, "table", "--family", "A", "--n", "2")
        assert code == 2 and "EULERIAN_LAB_BUDGET" in err

    def test_budget_exhaustion(self, capsys, monkeypatch):
        monkeypatch.setenv("EULERIAN_LAB_BUDGET", "5")
        code, _, err = run(capsys, "verify-identities", "--n", "6",
                           "--part", "families")
        assert code == 2 and "budget" in err.lower()

    @pytest.mark.parametrize("family", ["trivial", "antiprism"])
    def test_oversized_complex_refused_at_once(self, capsys, family):
        # one 40-vertex facet has 2^40 faces: refused before any is built
        started = time.perf_counter()
        code, out, err = run(capsys, "dump-complex", "--family", family, "--n", "40")
        assert code == 2 and not out and "budget" in err
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize(
        "argv, faces",
        [
            (["--family", "barycentric", "--n", "8"], 1091670),
            (["--family", "esd", "--n", "12", "--r", "2"], 1254464),
            (["--family", "colored", "--n", "7", "--r", "2"], 5014886),
        ],
    )
    def test_oversized_subdivision_refused_before_building(self, capsys, argv, faces):
        # the face count comes from the f-triangle, before any face is made
        started = time.perf_counter()
        code, out, err = run(capsys, "dump-complex", *argv)
        assert code == 2 and not out and "budget" in err
        assert f"needs {faces} faces" in err
        assert time.perf_counter() - started < 5

    def test_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "A"])  # missing --n
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--family", "B", "--n", "-1"),
            ("verify-identities", "--r", "-1"),
            ("sample-theorem1", "--samples", "-1"),
            ("check-conjecture", "--family", "barycentric", "--n", "-1"),
            ("dump-complex", "--family", "esd", "--n", "2", "--r", "-1"),
            ("ft-from-family", "--family", "trivial", "--n", "-1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_size_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "must be nonnegative" in capsys.readouterr().err

    def test_negative_seed_accepted(self, capsys):
        code, out, _ = run(capsys, "sample-theorem1", "--n", "3", "--samples",
                           "1", "--seed", "-1")
        assert code == 0 and out


class TestConsoleScript:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulerian_lab.cli", "table", "--family",
             "A", "--n", "2", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,k,polynomial")
        assert "elapsed" in proc.stderr
