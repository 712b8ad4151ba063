"""repro.robust — degraded-input robustness layer.

Production NAIP tiles arrive with NaN pixels, nodata holes, dropped
bands, sensor saturation, and truncated edges.  This package keeps the
inference path standing on such inputs:

* :mod:`~repro.robust.sanitize` — detect/repair/quarantine damaged
  chips and scene rasters under a :class:`SanitizePolicy`;
* :mod:`~repro.robust.journal` — append-only JSONL scan journal backing
  ``scan_scene``'s per-tile quarantine and crash-resume;
* :mod:`~repro.robust.guard` — :class:`GuardedEngine`, the output
  check every served batch and every robust scan tile runs through: a
  faulty engine answer raises :class:`EngineError`.

See ``docs/robustness.md``.
"""

from .guard import (
    FAULT_ENGINE_ERROR,
    FAULT_NON_FINITE,
    FAULT_SHAPE,
    EngineError,
    GuardedEngine,
)
from .journal import ScanJournal, ScanJournalError, TileRecord
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
    "GuardedEngine",
    "EngineError",
    "FAULT_NON_FINITE",
    "FAULT_SHAPE",
    "FAULT_ENGINE_ERROR",
]
