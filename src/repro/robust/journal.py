"""Append-only JSONL scan journal: per-tile checkpoint/resume for
full-scene scans.

Same pattern as :mod:`repro.nas.journal`, one level lower: every scanned
*tile* (clean, repaired, or quarantined) is one JSON line, committed a
micro-batch at a time (:meth:`ScanJournal.extend`: one fsync for
``batch_size`` finished tiles), so a scan killed at tile k has lost at
most the ``batch_size - 1`` tiles waiting for their commit — a resumed
scan replays the journaled tiles verbatim and only runs the model on
the remainder.  Line 1 is a header describing the scan (window, stride,
threshold, scene size, backend), written and checked by
:class:`~repro.durable.Log`; resuming against a journal whose header
disagrees with the requested scan raises instead of silently mixing two
different scans' detections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..durable import Log
from ..retry import Permanent

__all__ = ["TileRecord", "ScanJournal", "ScanJournalError"]

_HEADER_KIND = "scan_header"
_TILE_KIND = "tile"


class ScanJournalError(RuntimeError, Permanent):
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
        # built field by field: ``asdict`` deep-copies every detection
        return {"kind": _TILE_KIND, "index": self.index,
                "origin": self.origin, "status": self.status,
                "reason": self.reason, "detections": self.detections}

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
    """Crash-safe JSONL log of per-tile scan outcomes: a
    :class:`~repro.durable.Log` whose header is the scan's meta."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = _log(self.path, {})   # appends and unchecked reads

    def start(self, meta: dict) -> None:
        """Begin a fresh journal (truncates any previous file)."""
        _log(self.path, meta).start()

    def append(self, record: TileRecord) -> None:
        """Write one tile record, on disk when it returns.  ``scan_scene``
        commits ``batch_size`` records at a time through :meth:`extend`
        instead, so a hard kill loses at most ``batch_size - 1`` finished
        tiles, which a resume re-runs."""
        self.extend([record])

    def extend(self, records: list[TileRecord]) -> None:
        """Append many records with one fsync, all on disk before it
        returns: a scan's group commit (one per micro-batch of finished
        tiles), and shard merges."""
        if records:
            self._file.append([rec.to_json() for rec in records])

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
        shard order), then unlinks the shard file, and returns the
        number of records absorbed.  A shard journal whose header
        disagrees with ``meta`` raises rather than mixing scans.
        """
        shards = self.shard_paths()
        return len(self._absorb(meta, shards, self.load()[1])) if shards else 0

    def _absorb(self, meta: dict, shards: list[Path],
                existing: list[TileRecord]) -> list[TileRecord]:
        seen = {rec.index for rec in existing}
        absorbed: list[TileRecord] = []
        for path in shards:
            fresh = [rec for rec in _tiles(_log(path, meta).open())
                     if rec.index not in seen]
            self.extend(fresh)
            seen.update(rec.index for rec in fresh)
            absorbed += fresh
            path.unlink()
        return absorbed

    def load(self) -> tuple[dict, list[TileRecord]]:
        """(header meta as the file has it, tile records in completion
        order).  A torn last line is dropped and truncated from the file
        (:func:`~repro.durable.load_jsonl_repaired`), so a journal
        reduced to a torn header loads as ``({}, [])``; a corrupt line
        anywhere else raises."""
        header, lines = self._file.replay()
        return {k: v for k, v in header.items() if k != "kind"}, _tiles(lines)

    def resume_or_start(self, meta: dict) -> "dict[int, TileRecord]":
        """Resume this journal against ``meta``, or begin it fresh.

        Returns the journaled tile records keyed by index, from one read
        of the file.  A missing journal, or one whose header write a
        crash tore, starts fresh; a header that disagrees with ``meta``
        raises.  Shard journals a crashed parallel scan left behind are
        absorbed, so no finished tile re-runs.  The one entry point of
        the sequential, parallel and fleet resume paths.
        """
        records = _tiles(_log(self.path, meta).open())
        records += self._absorb(meta, self.shard_paths(), records)
        return {rec.index: rec for rec in records}


def _log(path: Path, meta: dict) -> Log:
    return Log(path, {"kind": _HEADER_KIND, **meta}, error=ScanJournalError)


def _tiles(lines: list[dict]) -> list[TileRecord]:
    return [TileRecord.from_json(p) for p in lines
            if p.get("kind") == _TILE_KIND]
