"""The case record every verification suite returns: suites builds its
cases here, and so does simplicial.identity_suite, which suites imports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CaseResult:
    name: str
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def case(name: str, ok: bool, detail: str = "") -> CaseResult:
    return CaseResult(name=name, status="pass" if ok else "fail", detail=detail)
