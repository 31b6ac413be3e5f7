"""Fixtures that several test files share."""

import dataclasses

import pytest

from eulerian_lab import suites
from eulerian_lab.poly import ONE, X
from eulerian_lab.transforms import derangement, eulerian, pnk, typeB_eulerian


@pytest.fixture
def broken_closed_forms(monkeypatch):
    """Wrong closed forms, a symmetry test that always fails and every
    split reported negative, as the suites see them: every kind of case
    detail then belongs to a failing case."""
    monkeypatch.setattr(suites, "pnk", lambda n, k: pnk(n, k) + ONE)
    monkeypatch.setattr(suites, "typeB_eulerian", lambda n: typeB_eulerian(n) + X)
    monkeypatch.setattr(suites, "derangement", lambda n: derangement(n) * 2)
    monkeypatch.setattr(suites, "eulerian", lambda n: eulerian(n) + X ** (n + 1))
    monkeypatch.setattr(suites, "is_symmetric", lambda p, n: False)
    decide = suites.interlacing_symmetric_decomposition
    monkeypatch.setattr(
        suites,
        "interlacing_symmetric_decomposition",
        lambda p, n: dataclasses.replace(decide(p, n), nonnegative=False),
    )
