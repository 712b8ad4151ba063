"""The file layer under every durable JSONL log in the repo.

The NAS trial journal (:mod:`repro.nas.journal`), the scan journal
(:mod:`repro.robust.journal`) and the fleet job queue
(:mod:`repro.fleet.jobs`) are append-only files of one JSON object per
line.  They share one crash contract, and these two functions are it:
an append is on disk before the call returns, and a load repairs the
one artifact a kill mid-append can leave, a torn last line.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["append_jsonl", "load_jsonl_repaired"]


def append_jsonl(path: str | Path, objects, *, truncate: bool = False) -> None:
    """Write ``objects`` as JSON lines and force them to disk: one
    open / write / flush / fsync / close per call, so there is no
    long-lived handle to leak when the process is killed and a kill
    between calls loses nothing.  ``truncate=True`` begins the file
    afresh instead of appending."""
    text = "".join(json.dumps(obj, allow_nan=False) + "\n" for obj in objects)
    with open(path, "w" if truncate else "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def load_jsonl_repaired(path: str | Path, *, repair: bool = True) -> list[dict]:
    """Parse a JSONL file, tolerating — and repairing — a torn final write.

    A process killed mid-append leaves one of two crash artifacts at the
    end of the file: a partial line that is not valid JSON, or a valid
    line missing its terminating newline.  Both are repaired in place
    (``repair=True``): the torn partial line is truncated away, the
    unterminated valid line gets its newline — so a later append can
    never concatenate onto damaged bytes and turn a recoverable crash
    artifact into mid-file corruption.  A malformed line *followed by
    more data* is genuine corruption (no crash produces it) and raises
    :class:`~repro.robust.journal.ScanJournalError`.
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
                    # every log reports corruption as the scan journal's
                    # error; imported here because that module sits above
                    # this one
                    from .robust.journal import ScanJournalError

                    raise ScanJournalError(
                        f"{path}: corrupt journal line {line_no}"
                    ) from None
                break  # torn trailing write from a crash — recoverable
            records.append(record)
            if terminated:
                good_end = nl + 1
            else:
                tail_valid_unterminated = True
        elif terminated:      # blank line: harmless, keep it as intact bytes
            good_end = nl + 1
        pos = end + 1
    if repair:
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
