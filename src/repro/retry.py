"""Retry: which errors a retry can change, and how long to back off.

Every retry loop asks :func:`retryable` before it spends another
attempt, so an error that fails the same way every time fails once
(docs/resilience.md, "Which errors are retried").  This module imports
nothing from ``repro``, so any error class can mark itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Permanent", "RetryPolicy", "retryable"]


class Permanent:
    """Marker base of an error no retry can change; ``ValueError`` and
    ``TypeError`` are permanent without it."""


def retryable(exc: BaseException) -> bool:
    """Whether running the same work again may succeed: ``exc`` is an
    ``Exception`` but not a ``ValueError``, ``TypeError`` or
    :class:`Permanent`."""
    return (isinstance(exc, Exception)
            and not isinstance(exc, (ValueError, TypeError, Permanent)))


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of a backing-off retry loop (the job queue, the trial loop).

    max_attempts : total tries per unit of work (1 = no retries).
    backoff_s    : delay before the first retry.
    multiplier   : backoff growth factor per further retry.
    jitter       : uniform jitter fraction added to each delay
                   (``delay * U[0, jitter]``); 0 disables it.
    max_backoff_s: ceiling on any single delay.
    """

    max_attempts: int = 3
    backoff_s: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.25
    max_backoff_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter:
            raise ValueError("jitter must be >= 0")

    def delay(self, attempt: int, rng: np.random.Generator | None = None) -> float:
        """Backoff before retrying after ``attempt`` failures (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = self.backoff_s * self.multiplier ** (attempt - 1)
        if self.jitter and rng is not None:
            base *= 1.0 + float(rng.uniform(0.0, self.jitter))
        return min(base, self.max_backoff_s)
