"""Append-only JSONL trial journal: experiment checkpoint/resume.

Every finished trial (successful or quarantined) is appended as one JSON
line and flushed to disk, so a sweep killed at trial k has lost nothing —
``load()`` rebuilds the trial DB and ``Experiment.resume`` continues from
it, at any ``workers``: records are appended in proposal order, so the
line order does not depend on which worker finished first.  The format
is self-describing (one ``TrialRecord`` per line) and append-only: a
resume appends to the same file, never rewrites it.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..durable import append_jsonl, load_jsonl_repaired
from .experiment import TrialRecord

__all__ = ["TrialJournal"]


class TrialJournal:
    """Crash-safe JSONL log of trial records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def append(self, record: TrialRecord) -> None:
        """Write one record and force it to disk before returning.

        Open/append/fsync/close per trial: trials run for seconds to
        minutes, so durability beats the syscall cost, and there is no
        long-lived handle to leak when the process is killed.
        """
        append_jsonl(self.path, [self.to_json(record)])

    def load(self) -> list[TrialRecord]:
        """All journaled records, in trial order.

        The append a kill interrupted (a torn last line) is dropped and
        truncated from the file, so the sweep resumes and re-runs that
        one trial (:func:`repro.durable.load_jsonl_repaired`).
        """
        return [self.from_json(payload)
                for payload in load_jsonl_repaired(self.path)]

    @staticmethod
    def to_json(record: TrialRecord) -> dict:
        value = record.value
        return {
            "trial_id": record.trial_id,
            "sample": dict(record.sample),
            "value": None if math.isnan(value) else value,
            "metrics": dict(record.metrics),
            "duration_s": record.duration_s,
            "status": record.status,
            "error": record.error,
            "attempts": record.attempts,
        }

    @staticmethod
    def from_json(payload: dict) -> TrialRecord:
        value = payload["value"]
        return TrialRecord(
            trial_id=int(payload["trial_id"]),
            sample=dict(payload["sample"]),
            value=float("nan") if value is None else float(value),
            metrics=dict(payload.get("metrics", {})),
            duration_s=float(payload.get("duration_s", 0.0)),
            status=payload.get("status", "ok"),
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 1)),
        )
