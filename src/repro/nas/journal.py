"""Append-only JSONL trial journal: experiment checkpoint/resume.

Every finished trial (successful or quarantined) is appended as one JSON
line and flushed to disk, so a sweep killed at trial k has lost nothing:
``Experiment.resume`` rebuilds the trial DB from it and continues, at any
``workers`` (records are appended in proposal order).  Line 1 names the
sweep: the search space, the strategy and the seed.  Resuming into
another sweep raises instead of replaying foreign trials; the trial
budget, ``workers`` and the retry policy may change across a resume.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict
from pathlib import Path

from ..durable import Log
from .experiment import TrialRecord

__all__ = ["TrialJournal"]

_KIND = "trial_journal"
_VERSION = 1


class TrialJournal:
    """Crash-safe JSONL log of trial records."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = Log(self.path, {"kind": _KIND}, error=RuntimeError)
        self._sweep = None            # the (space, strategy, seed) opened

    def open(self, space, strategy, seed) -> list[TrialRecord]:
        """Bind the journal to a sweep and return its trials.

        A new file gets the sweep's header; one another sweep wrote
        raises ``RuntimeError`` naming the file and each differing key.
        A journal written before trial headers opens with one
        ``RuntimeWarning``; opening again for the same sweep does not
        check or warn twice.
        """
        if self._sweep != (space, strategy, seed):
            log = self._sweep_log(space, strategy, seed)
            if "trial_id" in log.replay()[0]:
                warnings.warn(
                    f"{self.path}: trial journal has no header, so the "
                    "search space, strategy and seed it was written with "
                    "could not be checked", RuntimeWarning, stacklevel=4)
            else:
                log.open()
            self._log, self._sweep = log, (space, strategy, seed)
        return self.load()

    def start(self, space, strategy, seed) -> None:
        """Begin a fresh journal for a sweep (truncates any previous
        file to the sweep's header)."""
        log = self._sweep_log(space, strategy, seed)
        log.start()
        self._log, self._sweep = log, (space, strategy, seed)

    def _sweep_log(self, space, strategy, seed) -> Log:
        return Log(self.path, {
            "kind": _KIND, "version": _VERSION,
            "space": [[c.name, list(c.candidates)] for c in space.choices],
            "strategy": strategy.name, "seed": seed}, error=RuntimeError)

    def append(self, record: TrialRecord) -> None:
        """Write one record, on disk (one fsync) before it returns."""
        self._log.append([self.to_json(record)])

    def load(self) -> list[TrialRecord]:
        """All journaled records, in trial order, header unchecked.

        The append a kill interrupted (a torn last line) is dropped and
        truncated from the file, so the sweep resumes and re-runs that
        one trial (:func:`repro.durable.load_jsonl_repaired`); a corrupt
        line mid-file raises ``RuntimeError``.
        """
        first, lines = self._log.replay()
        if "trial_id" in first:      # a header-less journal
            lines.insert(0, first)
        return [self.from_json(payload) for payload in lines]

    @staticmethod
    def to_json(record: TrialRecord) -> dict:
        payload = asdict(record)
        payload["value"] = None if math.isnan(record.value) else record.value
        return payload

    @staticmethod
    def from_json(payload: dict) -> TrialRecord:
        value = payload["value"]
        return TrialRecord(**{**payload, "value": float(
            "nan" if value is None else value)})
