"""Case details built on first read.

A passing suite run renders no polynomial, and every detail read after the
suite has returned is the text an eager build gives: the one the case had
when details were built with their cases (the oracles in ``oracles``).
A failing per-mask local-h case of the geometry suite shows the local h
written out from its definition."""

import pytest

from eulerian_lab import suites
from eulerian_lab.cli import main
from eulerian_lab.errors import BudgetExceeded
from eulerian_lab.poly import ONE, Poly
from eulerian_lab.suites import CaseResult, build_geometry_family
from eulerian_lab.transforms import dnk
from oracles import (
    alternating_restriction_sum,
    eager_case_result,
    oracle_eq_case,
    oracle_sample_case,
    oracle_worpitzky_cases,
)

# The suites are looked up on the module at call time, so the monkeypatched
# helpers below are the ones they run.
RUNS = {
    "theorem1": lambda: suites.theorem1_sample_cases(8, 10, 0),
    "derangement": lambda: suites.derangement_sample_cases(8, 10, 0),
    "identities": lambda: suites.identity_cases(4),
    "equivalence": lambda: suites.equivalence_cases(4),
    "geometry-colored": lambda: suites.geometry_cases("colored", 3, 2),
}


def _build_eagerly(monkeypatch) -> None:
    """Every case renders its detail as it is made, and the helpers that
    render polynomials are the eager ones the library had."""
    monkeypatch.setattr(suites, "CaseResult", eager_case_result)
    monkeypatch.setattr(suites, "_eq_case", oracle_eq_case)
    monkeypatch.setattr(suites, "_sample_case", oracle_sample_case)
    monkeypatch.setattr(suites, "worpitzky_cases", oracle_worpitzky_cases)


def _triples(cases) -> list[tuple[str, str, str]]:
    return [(c.name, c.status, c.detail) for c in cases]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_passing_run_renders_no_polynomial(monkeypatch, run):
    rendered = []
    to_text = Poly.to_text

    def counted(self):
        rendered.append(self)
        return to_text(self)

    # repr goes through to_text as well
    monkeypatch.setattr(Poly, "to_text", counted)
    cases = RUNS[run]()
    assert cases and all(c.ok for c in cases)
    assert rendered == []
    for c in cases:
        c.detail
    assert rendered


@pytest.mark.parametrize("broken", [False, True], ids=["passing", "failing"])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_details_read_late_are_the_eager_text(request, monkeypatch, run, broken):
    if broken:
        request.getfixturevalue("broken_closed_forms")
    got = RUNS[run]()
    # read only now, after the suite has returned and its loops moved on
    lazy = _triples(got)
    with monkeypatch.context() as m:
        _build_eagerly(m)
        want = _triples(RUNS[run]())
    assert lazy == want
    assert any(status == "fail" for _, status, _ in lazy) == broken


class TestCaseResult:
    def test_string_detail_as_third_positional_argument(self):
        case = CaseResult("name", "fail", "text")
        assert (case.name, case.status, case.detail, case.ok) == ("name", "fail", "text", False)
        assert CaseResult("name", "pass").detail == ""

    def test_renderer_runs_once_on_first_read(self):
        calls = []

        def render():
            calls.append(1)
            return "text"

        case = CaseResult("name", "pass", render)
        assert calls == []
        assert case.ok
        assert case.detail == "text" and case.detail == "text"
        assert calls == [1]

    def test_equality_and_hash_compare_the_rendered_detail(self):
        text = CaseResult("name", "pass", "text")
        lazy = CaseResult("name", "pass", lambda: "text")
        assert lazy == text and hash(lazy) == hash(text)
        assert lazy != CaseResult("name", "pass", lambda: "other")
        assert lazy != CaseResult("name", "fail", "text")
        assert repr(lazy) == "CaseResult(name='name', status='pass', detail='text')"

    def test_immutable(self):
        case = CaseResult("name", "pass", "text")
        with pytest.raises(AttributeError):
            case.status = "fail"


# Whether equivalence_cases(6) is refused under each group budget.  Every
# count is metered by the number of words in its group, although no route
# makes a word: the largest groups are S_7 (5,040 words) and the signed
# permutations of size 6 (46,080).
REFUSED_AT_N6 = {
    0: True, 5: True, 23: True, 24: True, 30: True, 719: True, 720: True,
    5039: True, 5040: True, 46079: True, 46080: False,
}


@pytest.mark.parametrize("budget", sorted(REFUSED_AT_N6))
def test_budget_refusals_of_the_enumeration_suite(monkeypatch, capsys, budget):
    monkeypatch.setenv("EULERIAN_LAB_BUDGET", str(budget))
    try:
        suites.equivalence_cases(6)
        refused = False
    except BudgetExceeded:
        refused = True
    assert refused == REFUSED_AT_N6[budget]
    code = main(["verify-identities", "--n", "6", "--part", "families"])
    capsys.readouterr()
    assert (code == 2) == REFUSED_AT_N6[budget]


class TestLocalHCasesAgainstAWrongClosedForm:
    """geometry_cases with the closed form of L(E, full) off by one: every
    per-mask local-h case fails, its detail shows the local h written out
    from its definition against the wrong form, and every other case is
    the case of a passing run."""

    def check(self, family, n, name, closed, passing):
        t = build_geometry_family(family, n, 2)
        full = (1 << n) - 1
        got = _triples(suites.geometry_cases(family, n, 2))
        assert [case[0] for case in got] == [case[0] for case in passing]
        failed = 0
        for case, before in zip(got, passing):
            if f"-local-h-{name}-" not in case[0]:
                assert case == before
                continue
            emask = int(case[0].rsplit("-", 1)[1])
            local = alternating_restriction_sum(t, emask, full)
            wrong = closed(emask.bit_count()) + ONE
            assert case[1:] == ("fail", f"got {local.to_text()}, want {wrong.to_text()}")
            failed += 1
        assert failed == 1 << n

    def test_colored_flag_excedance(self, monkeypatch):
        passing = _triples(suites.geometry_cases("colored", 3, 2))
        rows = suites.flag_excedance_rows
        monkeypatch.setattr(
            suites, "flag_excedance_rows", lambda n, r: [row + ONE for row in rows(n, r)]
        )
        self.check("colored", 3, "flag-excedance", lambda e: rows(3, 2)[e], passing)

    def test_barycentric_derangement(self, monkeypatch):
        passing = _triples(suites.geometry_cases("barycentric", 4))
        # suites.dnk also gives the d(a, c) values of the identity suite, so
        # it turns wrong only once geometry_cases has read the f-triangle:
        # after the identity suite, and before the per-mask cases
        read, wrong = suites.f_triangle, []
        monkeypatch.setattr(suites, "f_triangle", lambda t: wrong.append(t) or read(t))
        monkeypatch.setattr(suites, "dnk", lambda n, k: dnk(n, k) + (1 if wrong else 0))
        self.check("barycentric", 4, "derangement", lambda e: dnk(4, 4 - e), passing)
