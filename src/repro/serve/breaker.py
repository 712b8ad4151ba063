"""Circuit breaker for the inference-service model thread.

Classic three-state breaker (Nygard's *Release It!* pattern):

* **closed** — traffic flows; consecutive worker failures are counted.
* **open** — after ``failure_threshold`` consecutive failures the breaker
  trips: model execution is refused outright and the service degrades to
  cache-only answers until ``reset_timeout_s`` elapses.
* **half-open** — after the timeout one probe batch is let through; its
  success closes the breaker, its failure re-opens it (timer restarts).

The breaker never raises by itself — callers ask :meth:`allow` before
touching the workers and report outcomes via :meth:`record_success` /
:meth:`record_failure`.  All transitions are published to an optional
``on_transition(old, new)`` callback (the service feeds them into
``ServiceMetrics``).  ``clock`` is injectable so tests can step time
instead of sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["BreakerPolicy", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy:
    """Breaker knobs.

    failure_threshold : consecutive worker failures that trip the breaker.
    reset_timeout_s   : how long the breaker stays open before probing.
    half_open_probes  : successful probes required to close again.
    """

    failure_threshold: int = 5
    reset_timeout_s: float = 30.0
    half_open_probes: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        if self.half_open_probes < 1:
            raise ValueError("half_open_probes must be >= 1")


class CircuitBreaker:
    """Thread-safe consecutive-failure circuit breaker."""

    def __init__(self, policy: BreakerPolicy | None = None,
                 on_transition: Callable[[str, str], None] | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self._on_transition = on_transition
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def allow(self) -> bool:
        """May a batch run right now?  Half-open admits only the probes."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            # half-open: admit up to half_open_probes concurrent probes
            if self._probes_in_flight < self.policy.half_open_probes:
                self._probes_in_flight += 1
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.policy.half_open_probes:
                    self._transition_locked(CLOSED)
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._trip_locked()
                return
            self._consecutive_failures += 1
            if (self._state == CLOSED
                    and self._consecutive_failures >= self.policy.failure_threshold):
                self._trip_locked()

    # -- internals ------------------------------------------------------
    def _trip_locked(self) -> None:
        self._opened_at = self._clock()
        self._consecutive_failures = 0
        self._transition_locked(OPEN)

    def _maybe_half_open_locked(self) -> None:
        if (self._state == OPEN
                and self._clock() - self._opened_at >= self.policy.reset_timeout_s):
            self._probes_in_flight = 0
            self._probe_successes = 0
            self._transition_locked(HALF_OPEN)

    def _transition_locked(self, new: str) -> None:
        old, self._state = self._state, new
        if old != new and self._on_transition is not None:
            self._on_transition(old, new)
