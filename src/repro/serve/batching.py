"""Dynamic micro-batching policy.

A free worker coalesces queued requests into a micro-batch of at most
``max_batch`` chips.  A backend that runs a batch as one stacked call
(eager, ``predict_fn``) waits for ``max_batch`` chips or until the
oldest has aged ``max_wait_ms``, whichever comes first; the engine
backend starts the oldest request at once and keeps the batch open
while its conv trunks run (see :mod:`repro.serve.service`).
``max_batch`` is the knee of the paper's Figure 6 batch-efficiency curve
(per-image latency falls steeply then flattens; §6.4 picks the last
batch size that still improves efficiency by >= 10%), so
:func:`policy_from_fig6` tunes the batcher straight from the regenerated
``results/fig6.json`` artifact.
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

    max_batch     : the most chips one micro-batch holds; a stacked
                    batch is cut as soon as this many same-shaped
                    requests are waiting, an open engine batch closes
                    once it has admitted this many
    max_wait_ms   : cut a partial stacked batch once the oldest waiting
                    request has aged this long (latency ceiling under
                    light traffic).  It never delays an engine batch's
                    opening: that backend has a per-sample trunk to
                    start on, so a lone request runs at once and later
                    arrivals join while it does
    inline_single : only meaningful at ``max_batch=1``, where batching
                    cannot coalesce anything and the queue → worker
                    thread round-trip is pure overhead.  When True, an
                    idle service runs the request synchronously on the
                    caller's thread (the returned future is already
                    resolved); ``submit`` may then block for one model
                    call, so leave this off when callers rely on
                    non-blocking submission.
    """

    max_batch: int = 16
    max_wait_ms: float = 2.0
    inline_single: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.inline_single and self.max_batch != 1:
            raise ValueError("inline_single requires max_batch=1")

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1e3


def policy_from_fig6(path: str | Path | None = None,
                     max_wait_ms: float = 2.0) -> BatchPolicy:
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
        return BatchPolicy(max_batch=select_optimal_batch(efficiencies),
                           max_wait_ms=max_wait_ms)
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
        return BatchPolicy(max_wait_ms=max_wait_ms)
