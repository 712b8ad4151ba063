"""repro.robust — degraded-input robustness layer.

Production NAIP tiles arrive with NaN pixels, nodata holes, dropped
bands, sensor saturation, and truncated edges.  This package keeps the
inference path standing on such inputs:

* :mod:`~repro.robust.sanitize` — detect/repair/quarantine damaged
  chips and scene rasters under a :class:`SanitizePolicy`;
* :mod:`~repro.robust.journal` — append-only JSONL scan journal backing
  ``scan_scene``'s per-tile quarantine and crash-resume;
* :mod:`~repro.robust.guard` — :class:`GuardedEngine`, the validated
  engine→eager fallback every served batch and every robust scan tile
  runs through.

See ``docs/robustness.md``.
"""

from .guard import (
    FALLBACK_BREAKER_OPEN,
    FALLBACK_ENGINE_ERROR,
    FALLBACK_NON_FINITE,
    FALLBACK_SHAPE,
    GuardedEngine,
)
from .journal import ScanJournal, ScanJournalError, TileRecord, load_jsonl_repaired
from .sanitize import (
    ChipIssue,
    ChipReport,
    SanitizePolicy,
    SanitizeResult,
    sanitize_chip,
    sanitize_scene,
    validate_chip,
)

__all__ = [
    "SanitizePolicy",
    "ChipIssue",
    "ChipReport",
    "SanitizeResult",
    "validate_chip",
    "sanitize_chip",
    "sanitize_scene",
    "ScanJournal",
    "ScanJournalError",
    "TileRecord",
    "load_jsonl_repaired",
    "GuardedEngine",
    "FALLBACK_NON_FINITE",
    "FALLBACK_SHAPE",
    "FALLBACK_ENGINE_ERROR",
    "FALLBACK_BREAKER_OPEN",
]
