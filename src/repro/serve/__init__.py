"""repro.serve — dynamic-batching inference service for crossing detection.

Production front-end over the trained detector, served through its
guarded compiled engine: open micro-batches sized by the Figure 6
batch-efficiency curve, content-hash LRU caching, bounded
queueing with backpressure, per-request deadlines, graceful draining
shutdown, retries that end in the engine's own error, and a metrics
registry rendered in the ``repro.profiling`` report style.
See ``docs/serving.md`` and ``docs/resilience.md``.
"""

from .batching import BatchPolicy, policy_from_fig6
from .cache import LRUCache, chip_key
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    ServiceMetrics,
    format_service_report,
)
from .service import (
    DetectionResult,
    InferenceService,
    InvalidInputError,
    QueueFullError,
    RequestTimeoutError,
    ServeError,
    ServiceStoppedError,
)

__all__ = [
    "BatchPolicy",
    "policy_from_fig6",
    "LRUCache",
    "chip_key",
    "Counter",
    "Gauge",
    "Histogram",
    "ServiceMetrics",
    "format_service_report",
    "DetectionResult",
    "InferenceService",
    "ServeError",
    "QueueFullError",
    "RequestTimeoutError",
    "ServiceStoppedError",
    "InvalidInputError",
]
