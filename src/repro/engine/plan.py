"""Liveness-based memory planning for compiled programs.

Every step output (and every step-local scratch buffer, e.g. an im2col
column matrix) is assigned to a *slot* in a shared arena.  Slots are
recycled greedily: when a tensor dies — its last consumer has executed —
its slot returns to a free list, and later allocations pick the
best-fitting free slot (growing it if necessary) before opening a new
one.  Graph outputs are pinned alive to the end of the program.

The resulting ``peak_bytes`` (the arena size) is what a deployment
actually holds in activation memory, as opposed to the no-reuse
``naive_bytes`` upper bound that
:func:`repro.graph.analysis.activation_bytes` reports — the planner is
the precise counterpart of that conservative estimate, and its numbers
can be fed to :mod:`repro.gpusim`'s memory checks directly.

Allocation ordering guarantees correctness for in-place-free execution:
a step's output slot (and scratch) is reserved *before* its input slots
are released, so a kernel never reads and writes the same memory.

One exception, the *late write*: a ``linear`` step's GEMM reads all of
its input and writes only the step's stage (its scratch); the output is
written afterwards, from the stage (:func:`.kernels.linear`).  So its
output may take the slot of an input that dies at that step: the stage
is reserved first, then the dying inputs are released, then the output
slot is taken.

The invariant is checked, not just intended: :meth:`MemoryPlan.check`
re-derives it from the finished plan, and every bound program asserts
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from .fusion import Step

__all__ = ["Lifetime", "MemoryPlan", "plan_memory"]


@dataclass(frozen=True)
class Lifetime:
    """Arena residency of one tensor (or scratch buffer).

    birth : index of the step that writes it.
    death : index of the last step that reads it (== birth for scratch;
            ``len(steps) - 1`` for pinned program outputs).
    nbytes: allocation size at the planned batch.
    slot  : arena slot index the tensor was assigned.
    """

    name: str
    birth: int
    death: int
    nbytes: int
    slot: int


@dataclass(frozen=True)
class MemoryPlan:
    """Slot assignment for every tensor a program touches.

    slot_sizes  : final byte size of each arena slot.
    peak_bytes  : arena footprint = ``sum(slot_sizes)``.
    naive_bytes : footprint with no reuse (every tensor held at once).
    late_writes : output of each late-write step -> the inputs it reads
                  before writing (the one sharing :meth:`check` allows).
    """

    batch: int
    itemsize: int
    lifetimes: dict[str, Lifetime]
    slot_sizes: tuple[int, ...]
    peak_bytes: int
    naive_bytes: int
    late_writes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def reuse_factor(self) -> float:
        """How many times over the arena is recycled (>= 1.0)."""
        return self.naive_bytes / self.peak_bytes if self.peak_bytes else 1.0

    def check(self) -> bool:
        """The arena invariant, verified instead of trusted.

        Every lifetime fits its slot and no two lifetimes that overlap
        in time share a slot, except a late write: a ``linear`` output
        that starts in the slot of one of its inputs that dies at that
        very step.  Raises
        ``AssertionError`` naming the offenders and returns ``True``, so
        callers write ``assert plan.check()`` and pay nothing under
        ``-O``.
        """
        by_slot: dict[int, list[Lifetime]] = {}
        for lt in self.lifetimes.values():
            if lt.nbytes > self.slot_sizes[lt.slot]:
                raise AssertionError(
                    f"{lt.name} needs {lt.nbytes} B, slot {lt.slot} holds "
                    f"{self.slot_sizes[lt.slot]}")
            by_slot.setdefault(lt.slot, []).append(lt)
        for slot, lts in by_slot.items():
            lts.sort(key=lambda lt: lt.birth)
            for a, b in zip(lts, lts[1:]):
                late = (a.death == b.birth
                        and a.name in self.late_writes.get(b.name, ()))
                if a.death >= b.birth and not late:
                    raise AssertionError(
                        f"slot {slot}: {a.name} [{a.birth},{a.death}] "
                        f"overlaps {b.name} [{b.birth},{b.death}]")
        return True

    def followed_by(self, other: "MemoryPlan") -> "MemoryPlan":
        """This plan and ``other`` as one: what a process holds when a
        second program, in its own arena, consumes the first one's
        results.  ``other``'s slots and step indices are renumbered
        after this plan's; a tensor named in both (handed from one
        arena to the other) keeps its name here and becomes
        ``<name>:gathered`` there.  ``batch`` is ``other``'s.
        """
        steps = 1 + max(lt.death for lt in self.lifetimes.values())
        slots = len(self.slot_sizes)

        def key(name: str) -> str:
            return f"{name}:gathered" if name in self.lifetimes else name

        lifetimes = dict(self.lifetimes)
        for name, lt in other.lifetimes.items():
            lifetimes[key(name)] = replace(
                lt, name=key(name), birth=lt.birth + steps,
                death=lt.death + steps, slot=lt.slot + slots)
        late_writes = dict(self.late_writes)
        for name, inputs in other.late_writes.items():
            late_writes[key(name)] = tuple(map(key, inputs))
        return MemoryPlan(
            batch=other.batch,
            itemsize=self.itemsize,
            lifetimes=lifetimes,
            slot_sizes=self.slot_sizes + other.slot_sizes,
            peak_bytes=self.peak_bytes + other.peak_bytes,
            naive_bytes=self.naive_bytes + other.naive_bytes,
            late_writes=late_writes,
        )


class _Arena:
    def __init__(self) -> None:
        self.sizes: list[int] = []
        self.free: list[int] = []

    def acquire(self, nbytes: int) -> int:
        # Best fit: smallest free slot that already holds nbytes.  If none
        # fits, grow the largest free slot (cheapest total growth).  Only
        # open a fresh slot when nothing is free.
        fitting = [s for s in self.free if self.sizes[s] >= nbytes]
        if fitting:
            slot = min(fitting, key=lambda s: self.sizes[s])
        elif self.free:
            slot = max(self.free, key=lambda s: self.sizes[s])
            self.sizes[slot] = nbytes
        else:
            slot = len(self.sizes)
            self.sizes.append(nbytes)
            self.free.append(slot)
        self.free.remove(slot)
        return slot

    def release(self, slot: int) -> None:
        self.free.append(slot)


def plan_memory(steps: list[Step], outputs: tuple[str, ...], batch: int,
                itemsize: int = 4) -> MemoryPlan:
    """Assign every step output and scratch buffer to an arena slot."""
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    last = len(steps) - 1
    death: dict[str, int] = {}
    for i, step in enumerate(steps):
        death[step.name] = i  # a value never read still occupies its slot
        for name in step.inputs:
            death[name] = i
    for name in outputs:
        death[name] = last

    arena = _Arena()
    lifetimes: dict[str, Lifetime] = {}
    slot_of: dict[str, int] = {}
    late_writes: dict[str, tuple[str, ...]] = {}
    naive = 0

    def release_dying_inputs(i: int, step: Step) -> None:
        for name in step.inputs:
            if death[name] == i:
                arena.release(slot_of[name])

    for i, step in enumerate(steps):
        out_bytes = batch * step.out_elems * itemsize
        s_bytes = batch * step.scratch_elems * itemsize
        naive += out_bytes + s_bytes  # eager allocates scratch per op
        # a late write reserves its stage before its inputs go
        late = step.kind == "linear" and s_bytes > 0
        if late:
            late_writes[step.name] = step.inputs
            s_slot = arena.acquire(s_bytes)
            release_dying_inputs(i, step)
        slot = arena.acquire(out_bytes)
        slot_of[step.name] = slot
        lifetimes[step.name] = Lifetime(step.name, i, death[step.name],
                                        out_bytes, slot)
        if s_bytes:
            if not late:
                s_slot = arena.acquire(s_bytes)
            lifetimes[f"{step.name}:scratch"] = Lifetime(
                f"{step.name}:scratch", i, i, s_bytes, s_slot)
            arena.release(s_slot)
        if not late:
            release_dying_inputs(i, step)
        if death[step.name] == i and step.name not in outputs:
            arena.release(slot)

    return MemoryPlan(
        batch=batch,
        itemsize=itemsize,
        lifetimes=lifetimes,
        slot_sizes=tuple(arena.sizes),
        peak_bytes=sum(arena.sizes),
        naive_bytes=naive,
        late_writes=late_writes,
    )

