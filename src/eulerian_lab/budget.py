"""Enumeration budget guards.

Brute-force verification walks entire permutation groups and face lattices;
the guards below refuse anything whose raw count exceeds a configurable
ceiling so a mistyped CLI argument fails fast instead of spinning.  The
environment variable EULERIAN_LAB_BUDGET (a single nonnegative integer)
replaces both built-in ceilings when set.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded

# S_11 (39 916 800 elements) is the largest symmetric group allowed through
# by default; 10-vertex face lattices stay comfortably under the face cap.
DEFAULT_GROUP_BUDGET = 40_000_000
DEFAULT_FACE_BUDGET = 1_000_000

_ENV_VAR = "EULERIAN_LAB_BUDGET"


def _limit(default: int) -> int:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{_ENV_VAR} must be nonnegative, got {value}")
    return value


def group_limit() -> int:
    return _limit(DEFAULT_GROUP_BUDGET)


def face_limit() -> int:
    return _limit(DEFAULT_FACE_BUDGET)


def check_group_budget(count: int, what: str) -> None:
    limit = _limit(DEFAULT_GROUP_BUDGET)
    if count > limit:
        raise BudgetExceeded(
            f"{what} needs {count} group elements, above the budget of {limit}"
        )


def check_face_budget(count: int, what: str) -> None:
    limit = _limit(DEFAULT_FACE_BUDGET)
    if count > limit:
        raise BudgetExceeded(f"{what} needs {count} faces, above the budget of {limit}")
