"""Append-only JSONL scan journal: per-tile checkpoint/resume for
full-scene scans.

Same pattern as :mod:`repro.nas.journal`, one level lower: every scanned
*tile* (clean, repaired, or quarantined) is one JSON line, committed a
micro-batch at a time (:meth:`ScanJournal.extend`: one fsync for
``batch_size`` finished tiles), so a scan killed at tile k has lost at
most the ``batch_size - 1`` tiles waiting for their commit — a resumed
scan replays the journaled tiles verbatim and only runs the model on
the remainder.  Line 1 is a header describing the scan (window, stride,
threshold, scene size, backend); resuming against a journal whose header
disagrees with the requested scan raises instead of silently mixing two
different scans' detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..durable import append_jsonl, load_jsonl_repaired

__all__ = ["TileRecord", "ScanJournal", "ScanJournalError",
           "load_jsonl_repaired"]

_HEADER_KIND = "scan_header"
_TILE_KIND = "tile"


class ScanJournalError(RuntimeError):
    """Corrupt journal, or a resume against a mismatched scan."""


@dataclass(frozen=True)
class TileRecord:
    """One tile's outcome.

    detections holds post-threshold, pre-NMS detections in *scene*
    coordinates as (row, col, height, width, confidence) tuples — enough
    to rebuild the exact NMS input without re-running the model.
    """

    index: int
    origin: tuple[int, int]
    status: str                   # "ok" | "repaired" | "quarantined"
    reason: str | None = None
    detections: tuple[tuple[float, float, float, float, float], ...] = field(
        default=())

    def to_json(self) -> dict:
        return {
            "kind": _TILE_KIND,
            "index": self.index,
            "origin": list(self.origin),
            "status": self.status,
            "reason": self.reason,
            "detections": [list(d) for d in self.detections],
        }

    @staticmethod
    def from_json(payload: dict) -> "TileRecord":
        return TileRecord(
            index=int(payload["index"]),
            origin=(int(payload["origin"][0]), int(payload["origin"][1])),
            status=str(payload["status"]),
            reason=payload.get("reason"),
            detections=tuple(tuple(float(v) for v in d)
                             for d in payload.get("detections", ())),
        )


class ScanJournal:
    """Crash-safe JSONL log of per-tile scan outcomes."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def exists(self) -> bool:
        return self.path.exists()

    def start(self, meta: dict) -> None:
        """Begin a fresh journal (truncates any previous file)."""
        append_jsonl(self.path, [{"kind": _HEADER_KIND, **meta}],
                     truncate=True)

    def append(self, record: TileRecord) -> None:
        """Write one tile record and force it to disk before returning:
        open/append/fsync/close, like the trial journal, so a kill after
        it returns cannot lose the record.

        ``scan_scene`` does not pay this per tile: its robust stage
        commits finished records ``batch_size`` at a time through
        :meth:`extend` (and flushes the remainder when a deadline or an
        exception ends the scan early), so a hard kill loses at most
        ``batch_size - 1`` finished tiles, which a resume re-runs.
        """
        append_jsonl(self.path, [record.to_json()])

    def extend(self, records: list[TileRecord]) -> None:
        """Append many records with one open/fsync, all on disk before
        it returns.

        The bulk form of :meth:`append`: a scan's group commit (one per
        micro-batch of finished tiles), and shard merges, whose records
        already survived a crash once in a shard journal.
        """
        if records:
            append_jsonl(self.path, [rec.to_json() for rec in records])

    # -- sharded scans ---------------------------------------------------
    def shard_path(self, index: int) -> Path:
        """Path of worker ``index``'s shard journal (zero-padded so the
        lexical order of :meth:`shard_paths` is the shard order)."""
        return self.path.with_name(f"{self.path.name}.shard{index:03d}")

    def shard_paths(self) -> list[Path]:
        """Existing shard journals next to this one, in shard order."""
        return sorted(self.path.parent.glob(f"{self.path.name}.shard*"))

    def absorb_shards(self, meta: dict) -> int:
        """Merge per-shard journals into this one and delete them.

        A parallel scan's workers each journal their shard separately;
        this folds every shard record whose tile index is not already
        here into the main journal (one durable append per shard, in
        shard order), then unlinks the shard file.  Called after a
        completed parallel scan — and before any resume, so tiles a
        *crashed* parallel scan finished are never re-run.  Returns the
        number of records absorbed.  A shard journal whose header
        disagrees with ``meta`` raises rather than mixing scans.
        """
        shards = self.shard_paths()
        if not shards:
            return 0
        _, existing = self.load()
        seen = {rec.index for rec in existing}
        absorbed = 0
        for path in shards:
            shard_meta, records = ScanJournal(path).load()
            if shard_meta and shard_meta != meta:
                raise ScanJournalError(
                    f"{path}: shard journal belongs to a different scan"
                )
            fresh = [rec for rec in records if rec.index not in seen]
            self.extend(fresh)
            seen.update(rec.index for rec in fresh)
            absorbed += len(fresh)
            path.unlink()
        return absorbed

    def load(self) -> tuple[dict, list[TileRecord]]:
        """(header meta, tile records in completion order).

        A trailing torn line (the write the crash interrupted) is
        dropped *and truncated from the file* — leaving it in place
        would let the next append concatenate onto the damaged bytes
        and turn a recoverable crash artifact into mid-file corruption
        (see :func:`load_jsonl_repaired`).  A journal reduced to a torn
        header alone loads as empty (``({}, [])``), which the resume
        paths treat as a fresh scan; a torn line anywhere else is
        corruption and raises.
        """
        parsed = load_jsonl_repaired(self.path, error=ScanJournalError)
        if not parsed:
            return {}, []
        if parsed[0].get("kind") != _HEADER_KIND:
            raise ScanJournalError(f"{self.path}: missing scan header")
        meta = {k: v for k, v in parsed[0].items() if k != "kind"}
        records = [TileRecord.from_json(p) for p in parsed[1:]
                   if p.get("kind") == _TILE_KIND]
        return meta, records

    def resume_or_start(self, meta: dict) -> "dict[int, TileRecord]":
        """Resume this journal against ``meta``, or begin it fresh.

        Returns the already-journaled tile records keyed by index.  A
        journal that does not exist — or whose header write itself was
        torn by a crash (it loads as empty) — starts fresh.  Per-shard
        journals a crashed parallel scan left behind are absorbed first,
        so no finished tile ever re-runs; a header that disagrees with
        ``meta`` still raises.  One shared entry point for the
        sequential, parallel, and fleet resume paths.
        """
        if self.exists():
            header, _ = self.load()
            if header:
                self.check_meta(meta)
                self.absorb_shards(meta)
                _, replayed = self.load()
                return {rec.index: rec for rec in replayed}
        self.start(meta)
        return {}

    def check_meta(self, meta: dict) -> None:
        """Raise unless the journal's header matches ``meta`` exactly."""
        existing, _ = self.load()
        if existing != meta:
            diffs = sorted(set(existing) | set(meta))
            detail = ", ".join(
                f"{k}: journal={existing.get(k)!r} scan={meta.get(k)!r}"
                for k in diffs if existing.get(k) != meta.get(k)
            )
            raise ScanJournalError(
                f"{self.path}: journal belongs to a different scan ({detail})"
            )
