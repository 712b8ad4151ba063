"""Shared gate plumbing for the ``bench_*`` scripts.

Every benchmark that enforces acceptance criteria expresses them as
:class:`Check` rows — ``(name, value, op, threshold)`` — and finishes
through :func:`finish`.  That buys three things at once:

* a uniform CLI contract (``--out PATH``, ``--gate on|off``, nonzero
  exit on any failed check) so CI can drive every benchmark the same
  way;
* a machine-readable ``gates`` section embedded in each ``BENCH_*.json``
  payload — ``{"passed": bool, "checks": [{name, value, op, threshold,
  passed, track}, ...]}`` — which is what ``check_regression.py`` diffs
  against the committed baselines;
* one implementation of the comparison/exit logic instead of five
  hand-rolled ``SystemExit("FAIL: ...")`` variants.

``op`` semantics: ``">="`` / ``"<="`` compare ``value`` to
``threshold``; ``"bool"`` requires ``value`` to be truthy (threshold
ignored); ``"info"`` records ``value`` with no pass/fail at all (a
number the tracker's table should carry and must not lose, such as a
ratio of two wall-clock timings).  ``track=False`` marks a check whose *value* is not suitable
for run-over-run relative tracking (e.g. a max-abs-error that legally
jumps with any change to kernel arithmetic order) — the regression
tracker still verifies it passes, but skips the 10% drift comparison.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Check", "check", "evaluate", "attach", "finish",
           "bench_arg_parser"]


@dataclass(frozen=True)
class Check:
    """One gate criterion with its measured value."""

    name: str
    value: float | bool
    op: str                      # ">=", "<=", "bool" or "info"
    threshold: float | None = None
    track: bool = True           # eligible for relative regression tracking

    def __post_init__(self) -> None:
        if self.op not in (">=", "<=", "bool", "info"):
            raise ValueError(f"unknown gate op {self.op!r}")
        if self.op in (">=", "<=") and self.threshold is None:
            raise ValueError(f"gate {self.name!r} needs a threshold")

    @property
    def passed(self) -> bool:
        if self.op == "info":
            return True
        if self.op == "bool":
            return bool(self.value)
        if self.op == ">=":
            return float(self.value) >= float(self.threshold)
        return float(self.value) <= float(self.threshold)

    def failure_message(self) -> str:
        if self.op == "bool":
            return f"{self.name} is false"
        return (f"{self.name} = {float(self.value):.4g} violates "
                f"{self.op} {float(self.threshold):.4g}")

    def to_json(self) -> dict:
        row = asdict(self)
        if isinstance(row["value"], bool):
            row["value"] = bool(row["value"])
        else:
            row["value"] = float(row["value"])
        row["passed"] = self.passed
        return row


def check(name: str, value, op: str, threshold: float | None = None,
          track: bool = True) -> Check:
    """Terse constructor so benchmark code reads as a criteria list."""
    return Check(name=name, value=value, op=op, threshold=threshold,
                 track=track)


def evaluate(checks: list[Check]) -> list[str]:
    """Failure messages for every violated check (empty = all pass)."""
    return [c.failure_message() for c in checks if not c.passed]


def attach(payload: dict, checks: list[Check]) -> dict:
    """Embed the machine-readable gates section into ``payload``."""
    payload["gates"] = {
        "passed": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
    }
    return payload


def finish(payload: dict, checks: list[Check], out: Path | None,
           enforce: bool = True) -> dict:
    """Standard benchmark epilogue: attach gates, write JSON, exit nonzero.

    Prints each failure as ``FAIL: ...`` and raises ``SystemExit(1)``
    when ``enforce`` and any check failed.  The payload is written
    *before* enforcement so a failing run still leaves its evidence.
    """
    attach(payload, checks)
    if out is not None:
        Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    failures = evaluate(checks)
    for failure in failures:
        print(f"FAIL: {failure}")
    if enforce and failures:
        raise SystemExit(1)
    return payload


def bench_arg_parser(doc: str, default_out: str) -> argparse.ArgumentParser:
    """Parser pre-loaded with the uniform ``--out`` / ``--gate`` options."""
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument("--out", type=Path, default=Path(default_out),
                        help="payload output path")
    parser.add_argument("--gate", choices=("on", "off"), default="on",
                        help="off records the payload without enforcing "
                        "(exploratory runs)")
    return parser
