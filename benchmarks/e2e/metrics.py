"""Which metric is emitted on which workload, with its unit and bound.

``BENCHMARK.json`` is the contract the driver reads.  Its format gives
one ``end_to_end`` and one ``per_layer`` list for all workloads -- every
run must emit every name of its list -- and an entry may carry no key
beyond name, unit, better and bound.  So that file lists exactly the
metrics ISSUE 14's tables mark "on: all".  A metric of layers only some
workloads touch is listed in :data:`SCOPED` with the workloads it is on,
and is emitted, printed and stored by those workloads and no other.
Between them the two hold every name once; nothing else in the
benchmark knows a unit or a bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .harness import ROOT

__all__ = ["Scoped", "SCOPED", "contract", "expected", "bounds", "split"]

SCANS = ("scan_seq", "scan_pool", "scan_robust")
POOL = ("scan_pool",)
SERVE = ("chip_serve",)
BATCH1 = ("scan_robust", "chip_serve")    # the per-tile, batch-1 paths


@dataclass(frozen=True)
class Scoped:
    unit: str
    on: tuple[str, ...]          # the workloads whose runs emit it
    trace: int = 1               # 0: untraced (end-to-end) run, 1: traced
    #: end-to-end ones only, all lower-is-better; `run.py agree` applies it
    bound: float | None = None


SCOPED: dict[str, Scoped] = {
    # -- end to end: a scan has no request, so these two cannot sit in the
    # contract's all-workload list; `run.py agree` bounds them from here
    "request_ms_p50": Scoped("ms", SERVE, trace=0, bound=0.10),
    "request_ms_p99": Scoped("ms", SERVE, trace=0, bound=0.15),
    # -- engine
    "engine.autotune.nondefault_layers": Scoped("count", ("scan_seq",)),
    "engine.b20.ms_per_tile": Scoped("ms", ("scan_seq", "scan_pool")),
    "engine.b1.ms_per_tile": Scoped("ms", BATCH1),
    "engine.b20.share.conv": Scoped("ratio", ("scan_seq",)),
    "engine.b20.share.memops": Scoped("ratio", ("scan_seq",)),
    "engine.b20.share.pooling": Scoped("ratio", ("scan_seq",)),
    "engine.b20.share.other": Scoped("ratio", ("scan_seq",)),
    # binding a batch-20 program where none runs would add its autotune
    # probes and arena to that workload: only where scans run batch 20
    "engine.b20.planned_peak_mb": Scoped("MB", ("scan_seq", "scan_pool")),
    # -- scanpar.tiling, detect.scan
    "scanpar.tiling.gather_ms_per_tile": Scoped("ms", ("scan_seq",)),
    "scanpar.tiling.tile_ms_per_tile": Scoped("ms", BATCH1),
    "scanpar.tiling.buffer_mb": Scoped("MB", SCANS),
    "detect.scan.nms_ms_per_scene": Scoped("ms", SCANS),
    "detect.scan.post_ms_per_scene": Scoped("ms", ("scan_seq",)),
    "detect.scan.detections": Scoped("count", SCANS),
    # -- robust
    "robust.sanitize.ms_per_tile": Scoped("ms", ("scan_robust",)),
    "robust.sanitize.repaired": Scoped("count", ("scan_robust",)),
    "robust.sanitize.quarantined": Scoped("count", ("scan_robust",)),
    "robust.journal.append_ms_per_tile": Scoped("ms", ("scan_robust",)),
    "robust.guard.overhead_ms_per_tile": Scoped("ms", BATCH1),
    "robust.guard.fallbacks": Scoped("count", BATCH1),
    # -- scanpar pool
    "scanpar.pool.spawn_s": Scoped("s", POOL),
    "scanpar.pool.ensure_model_s": Scoped("s", POOL),
    "scanpar.shm.share_ms_per_scene": Scoped("ms", POOL),
    "scanpar.sharding.partition_ms": Scoped("ms", POOL),
    "scanpar.pool.run_ms_per_scene": Scoped("ms", POOL),
    "scanpar.pool.roundtrip_ms": Scoped("ms", POOL),
    "scanpar.pool.shard_skew": Scoped("ratio", POOL),
    "scanpar.parallel.overhead_ms_per_scene": Scoped("ms", POOL),
    "scanpar.parallel.efficiency": Scoped("ratio", POOL),
    "scanpar.workers.rss_mb": Scoped("MB", POOL),
    "scanpar.workers.cpu_s_per_scene": Scoped("s", POOL),
    "scanpar.auto_workers": Scoped("count", POOL),
    # -- serve
    "serve.submit_ms": Scoped("ms", SERVE),
    "serve.chip_key_ms": Scoped("ms", SERVE),
    "serve.cache_hit_rate": Scoped("ratio", SERVE),
    "serve.mean_batch_size": Scoped("count", SERVE),
    "serve.queue_depth_peak": Scoped("count", SERVE),
    "serve.direct_ms_per_tile": Scoped("ms", SERVE),
}


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected(workload: str, trace: int, spec: dict | None = None) -> dict:
    """``{name: unit}`` of every metric a run of ``workload`` emits: the
    contract's list for that kind of run, then the scoped ones on it."""
    spec = spec if spec is not None else contract()
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    names = {e["name"]: e["unit"] for e in listed}
    names.update({name: s.unit for name, s in SCOPED.items()
                  if s.trace == trace and workload in s.on})
    return names


def bounds(spec: dict | None = None) -> dict[str, tuple[str, float]]:
    """``{name: (better, bound)}`` of every bounded (end-to-end) metric."""
    spec = spec if spec is not None else contract()
    out = {e["name"]: (e["better"], e["bound"]) for e in spec["end_to_end"]}
    out.update({name: ("lower", s.bound) for name, s in SCOPED.items()
                if s.bound is not None})
    return out


def split(measured: dict[str, float], workload: str, trace: int,
          withheld=(), spec: dict | None = None) -> tuple[dict, dict]:
    """``(contract metrics, scoped metrics)`` of one run, each ``{name:
    {"value", "unit"}}``.  Raises unless the run measured exactly what
    :func:`expected` names (less ``withheld``: scoped metrics the run
    refused to publish, with the reason): a metric nobody listed is a
    metric nobody will compare."""
    spec = spec if spec is not None else contract()
    want = expected(workload, trace, spec)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    in_contract = {e["name"] for e in listed}
    missing = sorted(set(want) - set(measured) - (set(withheld) - in_contract))
    unlisted = sorted(set(measured) - set(want))
    if missing or unlisted:
        raise KeyError(f"{workload} trace={trace}: did not measure {missing}, "
                       f"measured unlisted {unlisted}")
    entries = {name: {"value": measured[name], "unit": want[name]}
               for name in want if name in measured}
    return ({n: e for n, e in entries.items() if n in in_contract},
            {n: e for n, e in entries.items() if n not in in_contract})
