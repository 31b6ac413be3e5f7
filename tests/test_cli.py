"""Command line behavior: formats, determinism and exit codes."""

import argparse
import hashlib
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
    ft_lnk,
    ft_qnk,
    trivial_triangulation,
)
from eulerian_lab.suites import GEOMETRY_FAMILIES, build_geometry_family
from eulerian_lab.transforms import TABLE_FAMILIES


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


class TestPinnedOutputs:
    # sha256 of stdout, recorded before the closed forms were routed through
    # generic_hnk and generic_lnk; the verify-identities report is 471 KB
    TABLE_N6_JSON = {
        "A": "e7d493954832085c070de6bb6ff28998952406ef2c120fbe87636bdd53395a57",
        "Atilde": "ddc2c0195dc7106c3a27f6ef25b2dc754fb360b557b1a82d4e96b426fb666889",
        "B": "f68e92ef125bb49eda07578563e223a8c9196f0853dbf13345ccc8e9da892ffe",
        "DB": "87fb82884b566d0081122d27326079210d2888c616e86bd5cae5eee028054d08",
        "d": "14bb10c3a8bb3312956838b52766d5af93c057393dbc2a8c05e948cfd25d52a7",
        "dnk": "3e29913f7b01a838093dd0b4cd23827608b8fe38333eb993610a54ecea674b58",
        "p": "83c238f589f6d111e59e5e3f23f8537f79dc889bcd6813454bbe66ad368b2811",
        "q": "b0f752edf8ea0dbe52f1ddbbb8dd535756b397c660626b92990d4fcfab63d8d9",
        "qnk": "c5c80faae4b4e23089dfaedb641b3557c5c27251610b3a010876a675ace4d173",
        "qstar": "57f0dd37e858cf4249ad7c41150d2387b5a1068bc12700761a8a67fb80ea2fa1",
        "generic-h": "478dc8e548fbb96657f31dab17d4085f35de9c62004125ecef565afe69aa52ee",
        "generic-l": "eeaebc7c2262f3e1c66a427636458c82a7b6591dc50f11d93658558ea6ecc920",
    }
    VERIFY_N6_JSON = "13fd18162daf21757eb78148f7edd689a6376d936cc2aa820e2e4fd1c9ea2404"
    # recorded before A, p and B and the f-triangle h-rows were read off one
    # series route; n = 12 is past the enumeration checks (n <= 6)
    TABLE_N12_JSON = {
        "A": "2854168b6aa9f7c5ccd5ebb915cf6d3c32615c01f691d91e94b136d00964a3bf",
        "p": "7e4916397e4f950779f5f3664c9ec843c488f2d54340af6c45892d18c3d12bd0",
        "q": "b30b2196933dd2d41b7cfa0247599a3e97f72b4856a5a02a10b7c9c9264f38e8",
        "dnk": "164cecf30fca64cdf3ce3b2f2b780ae29dc4f0f27fa28aa851ea87058a3e1204",
        "B": "557eb17b46ecf4a096b138cc4f02001c649200864fdd71b24b106cc6b16fe28a",
        "DB": "54618ec2542339db451ec7a1bbeac0e29dbf57767a518fac2aeb0169c5ffc84e",
        "qstar": "93237d9212bbbcd8a051fe2a72d21b8c09c450ada425f8266fea95ad05a58fe2",
    }
    FT_N12 = {
        ("esd", "2"): "de97ab674f8952736aa25cfd0d440e4c014467ee9fffb90cf9dffe35552b545a",
        ("colored", "3"): "b49e22cb672e97d2270aa065d0b75081ab88c357a08804d03d424498d6e6b364",
    }

    @pytest.mark.parametrize("family", list(TABLE_FAMILIES))
    def test_table_json_pinned(self, capsys, family):
        code, out, _ = run(capsys, "table", "--family", family, "--n", "6",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE_N6_JSON[family]

    @pytest.mark.parametrize("family", list(TABLE_N12_JSON))
    def test_table_n12_json_pinned(self, capsys, family):
        code, out, _ = run(capsys, "table", "--family", family, "--n", "12",
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.TABLE_N12_JSON[family]

    @pytest.mark.parametrize("family,r", list(FT_N12))
    def test_ft_from_family_n12_pinned(self, capsys, family, r):
        code, out, _ = run(capsys, "ft-from-family", "--family", family, "--n", "12",
                           "--r", r)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.FT_N12[family, r]

    def test_verify_identities_json_pinned(self, capsys):
        code, out, _ = run(capsys, "verify-identities", "--n", "6", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.VERIFY_N6_JSON


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

    @pytest.mark.parametrize("r", range(2, 8))
    def test_esd_at_n_r_plus_one_fails_the_conclusion(self, capsys, r):
        # The hypothesis holds (it is checked for 2 <= m < n only) and the
        # outer pair fails: part a on the degree window, since the k = 0
        # member has degree n - 2 and the k = n member degree n; part b,
        # whose members all have degree n - 2, for r >= 3 (at r = 2 its
        # k = n member is 0).  Pinned as found, with exit 1 as for a
        # counterexample, until the statement in the paper decides between
        # a missing hypothesis, another interlacing convention and a
        # genuine counterexample.
        n = r + 1
        code, out, _ = run(capsys, "check-conjecture", "--family", "esd",
                           "--n", str(n), "--r", str(r), "--format", "json")
        assert code == 1
        summary = json.loads(out)["summary"]
        assert summary["hypothesis"] is True
        assert summary["verdict"] == "conclusion-fails"
        assert summary["part_a"]["interlacing_pairs_failed"] == [[0, n]]
        assert summary["part_b"]["interlacing_pairs_failed"] == ([] if r == 2 else [[0, n]])
        for part in ("part_a", "part_b"):
            assert summary[part]["real_rooted"] == [True] * (n + 1)
        triangle = family_f_triangle("esd", n, r)
        assert [ft_qnk(triangle, n, k).deg() for k in range(n + 1)] == (
            [n - 2] + [n - 1] * (n - 1) + [n]
        )
        assert [ft_lnk(triangle, n, k).deg() for k in range(n + 1)] == (
            [n - 2] * n + [n - 2 if r >= 3 else -1]
        )

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

    def test_theorem1_samples_pinned(self, capsys):
        # the detail of every Theorem 1 and derangement sample and of the q
        # and d rows, byte for byte
        code, out, _ = run(capsys, "sample-theorem1", "--n", "8", "--samples", "20",
                           "--format", "json")
        assert code == 0
        assert out == (DATA / "sample-theorem1-n8-s20.json").read_text()


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
            # well-formed, but no triangulation has these face counts: a
            # segment with 3 vertices and 3 edges, and a point with 5 vertices
            '{"n": 2, "f": [[1], [1, 1], [1, 3, 3]]}',
            '{"n": 1, "f": [[1], [1, 5]]}',
            # nested past the decoder's recursion limit
            "[" * 200_000,
            '{"n": 1, "f": ' + "[" * 200_000 + "]" * 200_000 + "}",
        ],
        ids=["missing-f", "fraction", "string", "bool-n", "overflow",
             "three-edge-segment", "five-vertex-point", "deep-array",
             "deep-f"],
    )
    def test_malformed_file_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "check-conjecture", "--ft-file", str(path))
        assert code == 2 and err and not out

    def test_family_and_file_together_exit_two(self, tmp_path, capsys):
        path = tmp_path / "b4.json"
        path.write_text(family_f_triangle("barycentric", 4).to_json())
        for family in ("esd", "generic-binomial"):
            code, out, err = run(capsys, "check-conjecture", "--family", family,
                                 "--ft-file", str(path))
            assert code == 2 and not out and "not both" in err

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

    @staticmethod
    def family_choices(command: str) -> list[str]:
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        actions = sub.choices[command]._actions
        return list(next(a.choices for a in actions if a.dest == "family"))

    def test_family_choices(self):
        choices = self.family_choices
        assert choices("check-conjecture") == [
            "barycentric", "trivial", "colored", "esd", "generic-binomial"
        ]
        assert choices("dump-complex") == [
            "trivial", "barycentric", "esd", "colored", "antiprism"
        ]
        assert choices("ft-from-family") == list(self.CONSTRUCTORS)

    def test_every_registered_family_is_a_conjecture_choice(self):
        # check-conjecture lists its choices by hand to fix the --help order,
        # so a family added only to the registry would be missing there
        choices = self.family_choices("check-conjecture")
        assert [family for family in GEOMETRY_FAMILIES if family not in choices] == []

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
