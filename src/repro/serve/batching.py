"""Dynamic micro-batching policy.

A free worker opens a micro-batch with the oldest queued request and
keeps it open while the engine's conv trunks run, admitting queued
requests of the same chip shape until none waits or ``max_batch`` are
in (see :mod:`repro.serve.service`).  ``max_batch`` is the knee of the
paper's Figure 6 batch-efficiency curve (per-image latency falls steeply
then flattens; §6.4 picks the last batch size that still improves
efficiency by >= 10%), so :func:`policy_from_fig6` tunes the batcher
straight from the regenerated ``results/fig6.json`` artifact.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

__all__ = ["BatchPolicy", "policy_from_fig6"]

_FIG6_PATH = Path(__file__).resolve().parents[3] / "results" / "fig6.json"


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic batcher.

    max_batch : the most chips one open micro-batch admits before it
                closes and its head runs
    """

    max_batch: int = 16

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


def policy_from_fig6(path: str | Path | None = None) -> BatchPolicy:
    """Derive a :class:`BatchPolicy` from a Figure 6 results artifact.

    Reads the optimized us/image column, applies the paper's §6.4
    diminishing-gains rule (:func:`repro.experiments.select_optimal_batch`),
    and uses the selected batch size as ``max_batch``.

    A missing or malformed artifact (fresh clone before
    ``python -m repro.experiments fig6`` regenerated it) falls back to the
    default :class:`BatchPolicy` with a warning instead of raising, so the
    service always starts.
    """
    from ..experiments import select_optimal_batch

    artifact = Path(path) if path is not None else _FIG6_PATH
    try:
        payload = json.loads(artifact.read_text())
        efficiencies = {int(row[0]): float(row[2]) for row in payload["rows"]}
        if not efficiencies:
            raise ValueError(f"no batch-efficiency rows in {artifact}")
        return BatchPolicy(max_batch=select_optimal_batch(efficiencies))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        # OSError covers the missing file; the rest cover a malformed one
        # (bad JSON raises json.JSONDecodeError, a ValueError subclass).
        warnings.warn(
            f"could not derive BatchPolicy from {artifact} "
            f"({type(exc).__name__}: {exc}); falling back to the default "
            f"policy — regenerate with 'python -m repro.experiments fig6'",
            RuntimeWarning,
            stacklevel=2,
        )
        return BatchPolicy()
