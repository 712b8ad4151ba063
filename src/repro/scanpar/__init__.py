"""repro.scanpar — parallel sharded scene scanning.

Watershed-scale deployment scans whole NAIP scenes; this package makes
that scan both memory-bounded and multi-core:

* :class:`TileSource` — ``sliding_window_view`` micro-batch tiling:
  peak tile memory is one batch, not the whole scene's windows;
* :func:`partition_origins` — contiguous, micro-batch-aligned row-band
  shards (the alignment is what makes parallel results byte-identical);
* :class:`SharedArray` — the scene raster (and the per-shard result
  slabs) in shared memory, read and written zero-copy by every worker;
* :class:`WorkerPool` — persistent warm worker processes reused across
  scans, caching deserialized models (and their warmed compiled-engine
  programs) by content hash, with the one dispatch loop over their
  pipes: one shard in flight per worker, run trusting
  (:meth:`WorkerPool.run`) or under a supervision policy
  (``repro.fleet.ShardSupervisor``);
* :func:`run_shards` — the dispatch ``repro.detect.scan_scene`` hands
  two or more shards to: engine-warm pooled workers each running the
  scan's one tile pipeline on their span, shared-memory result return;
  :func:`resolve_n_workers` is the adaptive ``n_workers="auto"``
  policy.

See ``docs/scanning.md`` for the sharding model, the determinism
contract, the pool lifecycle, and the adaptive worker policy.
"""

from .parallel import (
    cpu_affinity_count,
    default_start_method,
    resolve_n_workers,
    run_shards,
    spawn_cost_ms,
)
from .pool import (
    WorkerError,
    WorkerPool,
    get_pool,
    serialized_model,
    shutdown_pools,
    warm_pool,
)
from .sharding import Shard, describe_shard, partition_origins
from .shm import SharedArray, attach_array
from .tiling import TileSource
from .worker import ShardTask, run_shard

__all__ = [
    "TileSource",
    "Shard",
    "partition_origins",
    "describe_shard",
    "SharedArray",
    "attach_array",
    "ShardTask",
    "run_shard",
    "WorkerPool",
    "WorkerError",
    "get_pool",
    "warm_pool",
    "shutdown_pools",
    "serialized_model",
    "run_shards",
    "default_start_method",
    "resolve_n_workers",
    "cpu_affinity_count",
    "spawn_cost_ms",
]
