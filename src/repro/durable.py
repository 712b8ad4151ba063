"""The file layer under every durable JSONL log in the repo.

The NAS trial journal (:mod:`repro.nas.journal`), the scan journal
(:mod:`repro.robust.journal`) and the fleet job queue
(:mod:`repro.fleet.jobs`) are each a :class:`Log`: a header line, then
one JSON record per line.  They share one crash contract, and this
module is it: an append is on disk before the call returns, a load
repairs the one artifact a kill mid-append can leave, a torn last line,
and a file whose header is not this run's is refused.  Every write,
fsync and truncate of those files happens here.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["Log", "load_jsonl_repaired"]


class Log:
    """One durable JSONL log: ``header`` on line 1, then the records.

    ``header`` is what this run's file must say (its ``kind`` names the
    log); ``error`` is the caller's exception class for a corrupt line
    or a foreign header.
    """

    def __init__(self, path: str | Path, header: dict, *,
                 error: type[Exception]) -> None:
        self.path = Path(path)
        self.header = json.loads(json.dumps(header))   # as it reads back
        self.error = error

    def start(self) -> None:
        """Truncate the file to the header line."""
        self._write([self.header], "w")

    def append(self, records) -> None:
        """Append ``records``: on disk, with one fsync, on return."""
        self._write(records, "a")

    def _write(self, objects, mode: str) -> None:
        # one open / write / fsync / close: no handle to leak on a kill
        text = "".join(json.dumps(obj, allow_nan=False) + "\n"
                       for obj in objects)
        with open(self.path, mode, encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())

    def replay(self) -> tuple[dict, list[dict]]:
        """``(first line, the records after it)``, header unchecked;
        ``({}, [])`` when the file holds no intact line."""
        lines = load_jsonl_repaired(self.path, error=self.error)
        return (lines[0], lines[1:]) if lines else ({}, [])

    def open(self) -> list[dict]:
        """This run's records.  A file with no intact line is started;
        a header unlike this run's raises ``error`` naming each
        differing key."""
        found, records = self.replay()
        if not found:
            self.start()
            return []
        diff = [k for k in {**found, **self.header}
                if found.get(k) != self.header.get(k)]
        if diff:
            lead = (f"not a {self.header['kind'].replace('_', ' ')} file"
                    if "kind" in diff else "written by a different run")
            raise self.error(f"{self.path}: {lead} (" + ", ".join(
                f"{k}: file {found.get(k)!r}, this run {self.header.get(k)!r}"
                for k in diff) + ")")
        return records


def load_jsonl_repaired(path: str | Path, *,
                        error: type[Exception]) -> list[dict]:
    """Parse a JSONL file, tolerating — and repairing — a torn final write.

    A process killed mid-append leaves one of two crash artifacts at the
    end of the file: a partial line that is not valid JSON, or a valid
    line missing its terminating newline.  Both are repaired in place:
    the torn partial line is truncated away, the unterminated valid line
    gets its newline — so a later append can never concatenate onto
    damaged bytes and turn a recoverable crash artifact into mid-file
    corruption.  A malformed line *followed by more data* is genuine
    corruption (no crash produces it) and raises ``error``, the class
    the calling log reports its corruption as.
    """
    path = Path(path)
    if not path.exists():
        return []
    raw = path.read_bytes()
    records: list[dict] = []
    good_end = 0              # bytes known to hold intact, terminated lines
    tail_valid_unterminated = False
    pos = 0
    line_no = 0
    n = len(raw)
    while pos < n:
        line_no += 1
        nl = raw.find(b"\n", pos)
        end = n if nl < 0 else nl
        terminated = nl >= 0
        chunk = raw[pos:end].strip()
        if chunk:
            try:
                record = json.loads(chunk.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                if terminated:
                    raise error(f"{path}: corrupt line {line_no}") from None
                break  # torn trailing write from a crash — recoverable
            records.append(record)
            if terminated:
                good_end = nl + 1
            else:
                tail_valid_unterminated = True
        elif terminated:      # blank line: harmless, keep it as intact bytes
            good_end = nl + 1
        pos = end + 1
    if tail_valid_unterminated:
        with open(path, "ab") as fh:
            fh.write(b"\n")
            fh.flush()
            os.fsync(fh.fileno())
    elif good_end < n:
        with open(path, "r+b") as fh:
            fh.truncate(good_end)
            fh.flush()
            os.fsync(fh.fileno())
    return records
