"""IOS-scheduled execution of compiled programs.

The compiled engine historically replayed its fused step list strictly
sequentially, leaving the SPP pyramid's independent branches (three
``adaptive_pool_flatten`` steps feeding one concat) unexploited.  This
module closes the ROADMAP's "IOS-scheduled engine execution" loop for
the one-sample trunk every batch is looped through (the fully-connected
head is a chain and runs flat):

1. the trunk's step list is converted into the :mod:`repro.graph` IR
   (:func:`steps_to_graph`);
2. every step is timed on its *real bound kernel*
   (``_Program.step_costs``) — measured costs, not the analytic
   ``op_cost`` roofline — and wrapped in
   :class:`repro.ios.cost.MeasuredCosts` with honest thread dispatch /
   barrier overheads;
3. the IOS dynamic program (:class:`repro.ios.dp.DPScheduler`) solves
   the latency-optimal stage/group partition against those costs;
4. the compiled program re-plans its arena with stage-barrier
   interference (see :func:`repro.engine.plan.plan_memory`) and executes
   parallel groups concurrently on a small persistent thread pool —
   NumPy GEMMs release the GIL, so threads suffice.

Schedules are sticky per :class:`ScheduleKey` — (program structure,
batch, shape, dtype, quant mode, worker budget) — for the process
lifetime, and since trunks are bound at one sample that is one solve
per input shape, whatever batch sizes run: the first solve wins, and :func:`snapshot` / :func:`seed`
ship solved schedules (as ``Schedule.to_json`` payloads, hash-verified
on adoption) to scan pool workers so they never re-measure or re-solve.

Safety properties:

* concurrent groups are data-independent by IOS construction and write
  disjoint arena slots by planner construction, so scheduled output is
  **byte-identical** to sequential output regardless of interleaving;
* when the DP finds no parallel stage worth its overheads (always the
  case on a 1-core host — the cost model prices parallelism at its LPT
  makespan over the worker budget), the program stays on the
  sequential path;
* a solve that *fails* also lands on the sequential path, but loudly:
  it is counted in ``stats()["fallbacks"]`` and warned with its reason
  (:func:`note_fallback`);
* ``REPRO_IOS_SCHEDULE=off`` disables scheduling globally, and
  ``CompiledModel(..., schedule=False)`` per model.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..graph.ir import Graph, Operator, OpType
from ..ios.baselines import sequential_schedule
from ..ios.cost import MeasuredCosts
from ..ios.dp import DPScheduler
from ..ios.schedule import Schedule
from .fusion import Step

__all__ = [
    "ENV_SCHEDULE",
    "ENV_WORKERS",
    "DISPATCH_US",
    "SYNC_US",
    "ScheduleKey",
    "scheduling_enabled",
    "schedule_workers",
    "steps_to_graph",
    "schedule_key",
    "cached_schedule",
    "solve_schedule",
    "snapshot",
    "seed",
    "clear_cache",
    "stats",
    "note_fallback",
    "group_executor",
]

#: Environment escape hatch: ``off``/``0``/``false`` disables scheduling.
ENV_SCHEDULE = "REPRO_IOS_SCHEDULE"

#: Override the concurrency budget the DP prices stages against
#: (defaults to ``os.cpu_count()``).
ENV_WORKERS = "REPRO_IOS_WORKERS"

#: Cost charged per extra concurrent group (thread-pool submit +
#: wakeup) and per parallel-stage barrier (join).  Deliberately
#: conservative: the DP only parallelizes when the measured branch
#: overlap clears these by a margin, which is what keeps the scheduled
#: engine never-slower than sequential on small programs.
DISPATCH_US = 60.0
SYNC_US = 25.0

_OFF_VALUES = ("off", "0", "false", "no")

#: Step kind -> IR operator type for the scheduling graph.  Fused steps
#: map to their dominant operator (the DP only needs dependency
#: structure; costs are measured, not modeled from the type).
_STEP_OPTYPE = {
    "input": OpType.INPUT,
    "conv": OpType.CONV2D,
    "conv_pool": OpType.CONV2D,
    "linear": OpType.LINEAR,
    "maxpool": OpType.MAXPOOL,
    "maxpool_flatten": OpType.MAXPOOL,
    "adaptive_pool": OpType.ADAPTIVE_MAXPOOL,
    "adaptive_pool_flatten": OpType.ADAPTIVE_MAXPOOL,
    "relu": OpType.RELU,
    "sigmoid": OpType.SIGMOID,
    "softmax": OpType.SOFTMAX,
    "flatten": OpType.FLATTEN,
    "concat": OpType.CONCAT,
    "identity": OpType.IDENTITY,
}


def scheduling_enabled() -> bool:
    """Whether IOS scheduling is on for this process (the escape hatch)."""
    return os.environ.get(ENV_SCHEDULE, "").strip().lower() not in _OFF_VALUES


def schedule_workers() -> int:
    """Concurrency budget the DP prices parallel stages against."""
    forced = os.environ.get(ENV_WORKERS, "").strip()
    if forced:
        workers = int(forced)
        if workers < 1:
            raise ValueError(f"{ENV_WORKERS} must be >= 1, got {workers}")
        return workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class ScheduleKey:
    """Everything a schedule choice may legally depend on.

    ``program`` is a structural fingerprint of the scheduled step list
    (kinds, names, edges, shapes), so two models with the same fused
    trunk share one solved schedule — and a model change can never
    adopt a stale plan.  ``batch`` is the batch the steps were bound
    and measured at: 1 for every trunk the engine binds.
    """

    program: str
    batch: int
    shape: tuple[int, ...]
    dtype: str
    mode: str
    workers: int


_lock = threading.Lock()
_cache: dict[ScheduleKey, Schedule] = {}
_stats = {"solves": 0, "solve_ms": 0.0, "hits": 0, "seeded": 0,
          "fallbacks": 0}


def steps_to_graph(steps: list[Step], name: str = "program") -> Graph:
    """Lower a fused step list into the IR DAG the IOS DP schedules.

    One operator per step, edges from ``Step.inputs`` — the *fused*
    graph, so a ``conv_pool`` step is a single schedulable unit exactly
    as it is a single kernel at runtime.
    """
    graph = Graph(name=name)
    for step in steps:
        op_type = _STEP_OPTYPE.get(step.kind)
        if op_type is None:
            raise ValueError(f"no IR mapping for step kind {step.kind!r}")
        graph.add(Operator(step.name, op_type, tuple(step.inputs),
                           tuple(step.out_shape), dict(step.attrs)))
    graph.validate()
    return graph


def _program_fingerprint(steps: list[Step]) -> str:
    payload = repr([(s.kind, s.name, s.inputs, s.out_shape) for s in steps])
    return hashlib.sha1(payload.encode()).hexdigest()


def schedule_key(steps: list[Step], batch: int, shape: tuple[int, ...],
                 dtype, mode: str, workers: int | None = None) -> ScheduleKey:
    """The sticky-cache key for one (program, batch, shape, quant) plan."""
    return ScheduleKey(
        program=_program_fingerprint(steps),
        batch=int(batch),
        shape=tuple(int(d) for d in shape),
        dtype=str(dtype),
        mode=str(mode),
        workers=int(workers if workers is not None else schedule_workers()),
    )


def cached_schedule(key: ScheduleKey) -> Schedule | None:
    """The already-solved (or seeded) schedule for ``key``, if any."""
    with _lock:
        schedule = _cache.get(key)
        if schedule is not None:
            _stats["hits"] += 1
        return schedule


def solve_schedule(key: ScheduleKey, steps: list[Step],
                   costs_s: dict[str, float],
                   graph_name: str = "program") -> Schedule:
    """Solve (and memoize) the IOS DP for one program under measured costs.

    ``costs_s`` maps step name -> measured seconds (``_Program.
    step_costs`` output).  On any DP failure the sequential schedule is
    cached instead (and :func:`note_fallback` reports it) — the guard
    that keeps a malformed program executing correctly rather than not
    at all.  First writer wins, so concurrent builders (and pool
    workers that raced a seed) agree forever after.
    """
    with _lock:
        cached = _cache.get(key)
        if cached is not None:
            _stats["hits"] += 1
            return cached
    graph = steps_to_graph(steps, name=graph_name)
    costs_us = {name: max(s * 1e6, 1e-3) for name, s in costs_s.items()}
    source = MeasuredCosts(costs_us, workers=key.workers,
                           dispatch_us=DISPATCH_US, sync_us=SYNC_US)
    start = time.perf_counter()
    try:
        schedule = DPScheduler(graph, key.batch, cost_source=source).solve()
    except Exception as exc:
        note_fallback(exc)
        schedule = sequential_schedule(graph, key.batch)
    solve_ms = (time.perf_counter() - start) * 1e3
    with _lock:
        schedule = _cache.setdefault(key, schedule)
        _stats["solves"] += 1
        _stats["solve_ms"] += solve_ms
    return schedule


def snapshot() -> dict[ScheduleKey, str]:
    """Picklable copy of every solved schedule, serialized via
    ``Schedule.to_json`` (the same payload ``Schedule.save`` persists).

    What the scan worker pool ships alongside a model: a worker that
    adopted the parent's schedules never re-measures step costs or
    re-runs the DP — and the whole pool provably executes one plan (the
    JSON carries ``schedule_hash``, verified on adoption).
    """
    with _lock:
        return {key: schedule.to_json() for key, schedule in _cache.items()}


def seed(decided: dict[ScheduleKey, str]) -> int:
    """Adopt schedules solved in another process; returns how many stuck.

    Payloads are ``Schedule.to_json`` text (hash-verified by
    ``Schedule.from_json`` — a corrupted plan raises instead of silently
    executing a wrong stage structure).  Entries land through
    ``setdefault``: a key this process already solved keeps its sticky
    plan, preserving first-writer-wins determinism.
    """
    parsed = {key: Schedule.from_json(text) for key, text in decided.items()}
    adopted = 0
    with _lock:
        for key, schedule in parsed.items():
            if _cache.setdefault(key, schedule) is schedule:
                adopted += 1
        _stats["seeded"] += adopted
    return adopted


def clear_cache() -> None:
    with _lock:
        _cache.clear()
        for name in _stats:
            _stats[name] = type(_stats[name])()


def stats() -> dict:
    """Copy of the solver counters (DP solves, cumulative solve ms,
    cache hits, seeded adoptions, fallbacks to sequential) — what
    ``bench_ios_sched`` uses to prove the second run pays zero DP-solve
    time."""
    with _lock:
        return dict(_stats)


def note_fallback(exc: BaseException) -> None:
    """Count and report a scheduling failure that degraded a program to
    sequential execution.  The default warning filter prints each
    distinct reason once per call site."""
    with _lock:
        _stats["fallbacks"] += 1
    warnings.warn(
        f"IOS scheduling failed, program runs sequentially: {exc!r}",
        RuntimeWarning, stacklevel=2)


# ---------------------------------------------------------------------------
# the persistent group executor
# ---------------------------------------------------------------------------

_executor: ThreadPoolExecutor | None = None
_executor_lock = threading.Lock()


def group_executor() -> ThreadPoolExecutor:
    """The process-wide thread pool that runs parallel groups.

    Sized to the host (capped small — groups are coarse units and the
    calling thread always runs one itself).  Created lazily so programs
    that never schedule a parallel stage cost no threads.
    """
    global _executor
    with _executor_lock:
        if _executor is None:
            workers = max(1, min((os.cpu_count() or 1), 8) - 1)
            _executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-ios-group")
        return _executor


def _reset_executor_after_fork() -> None:
    # A forked child inherits the parent's executor object but none of
    # its threads; submitting to it would hang forever.  Drop it so the
    # child lazily builds its own.
    global _executor
    _executor = None


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_reset_executor_after_fork)
