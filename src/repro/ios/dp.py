"""The IOS dynamic program: optimal stage/group partitioning of a DAG.

Following Ding et al. (MLSys 2021), the scheduler minimizes total stage
latency over all feasible partitions of the computation graph into stages
of parallel groups.  State = the set of still-unscheduled operators
(always an *up-set* of the DAG); transition = choosing the next stage,
which must be a *down-set* of the remaining operators (all external
dependencies already completed).  The parallel groups of a candidate
stage are its weakly-connected dependency components, and the stage cost
comes from the same :func:`repro.gpusim.executor.plan_stage` model the
executor uses to run the plan — so "optimal" here is optimal with respect
to the measured simulator, which tests verify by exhaustive comparison on
small random DAGs.

Sets are bitmasks over the compute nodes, and candidate down-sets are
enumerated with topological include/exclude pruning (excluding a node
prunes all of its successors), which keeps enumeration linear in the
number of *valid* down-sets rather than 2^n.
"""

from __future__ import annotations

from functools import lru_cache
from ..gpusim.device import DeviceSpec
from ..gpusim.executor import plan_stage
from ..gpusim.kernels import KernelCostModel, KernelSpec
from ..graph.ir import Graph
from .schedule import Group, Schedule, Stage, groups_from_ops

__all__ = ["DPScheduler", "dp_schedule", "count_downsets"]


class DPScheduler:
    """Latency-optimal IOS scheduling of one graph at one batch size."""

    def __init__(
        self,
        graph: Graph,
        batch: int,
        device: DeviceSpec | None = None,
        max_stage_ops: int | None = None,
        max_groups: int | None = None,
    ) -> None:
        graph.validate()
        self.graph = graph
        self.batch = batch
        self.device = device if device is not None else DeviceSpec()
        self.max_stage_ops = max_stage_ops
        self.max_groups = max_groups
        self._names = [op.name for op in graph.compute_nodes()]
        self._index = {name: i for i, name in enumerate(self._names)}
        self._n = len(self._names)
        # Predecessor bitmasks restricted to compute nodes (INPUTs are free).
        self._pred_mask = [0] * self._n
        for name in self._names:
            i = self._index[name]
            for dep in graph[name].inputs:
                j = self._index.get(dep)
                if j is not None:
                    self._pred_mask[i] |= 1 << j
        model = KernelCostModel(self.device)
        self._specs: dict[str, KernelSpec] = model.specs(graph, batch)
        self._stage_cost_cache: dict[int, float] = {}
        self._stage_cost_calls = 0

    # -- candidate enumeration ------------------------------------------
    def _downsets(self, remaining: int) -> list[int]:
        """All non-empty down-sets of the ``remaining`` node set."""
        members = [i for i in range(self._n) if remaining >> i & 1]
        results: list[int] = []
        cap = self.max_stage_ops

        def rec(pos: int, current: int, size: int) -> None:
            if pos == len(members):
                if current:
                    results.append(current)
                return
            i = members[pos]
            # Include i only if all its remaining predecessors are included.
            if (self._pred_mask[i] & remaining & ~current) == 0 and (cap is None or size < cap):
                rec(pos + 1, current | (1 << i), size + 1)
            rec(pos + 1, current, size)

        rec(0, 0, 0)
        return results

    # -- costing ---------------------------------------------------------
    def _mask_names(self, mask: int) -> frozenset[str]:
        return frozenset(self._names[i] for i in range(self._n) if mask >> i & 1)

    def _stage_groups(self, mask: int) -> tuple[Group, ...]:
        return groups_from_ops(self.graph, self._mask_names(mask))

    def stage_cost(self, mask: int) -> float:
        """Latency of a candidate stage (memoized plan_stage evaluation)."""
        cached = self._stage_cost_cache.get(mask)
        if cached is not None:
            return cached
        groups = self._stage_groups(mask)
        if self.max_groups is not None and len(groups) > self.max_groups:
            cost = float("inf")
        else:
            plan = plan_stage([g.ops for g in groups], self._specs, self.device)
            cost = plan.latency_us
        self._stage_cost_cache[mask] = cost
        self._stage_cost_calls += 1
        return cost

    # -- dynamic program ----------------------------------------------------
    def solve(self) -> Schedule:
        """Run the DP and return the latency-optimal schedule."""
        if self._n == 0:
            raise ValueError("graph has no compute nodes to schedule")
        full = (1 << self._n) - 1
        best_cost: dict[int, float] = {0: 0.0}
        best_stage: dict[int, int] = {}

        @lru_cache(maxsize=None)
        def downsets_of(remaining: int) -> tuple[int, ...]:
            return tuple(self._downsets(remaining))

        def f(remaining: int) -> float:
            known = best_cost.get(remaining)
            if known is not None:
                return known
            best = float("inf")
            choice = 0
            for stage_mask in downsets_of(remaining):
                cost = self.stage_cost(stage_mask)
                if cost >= best:
                    continue
                tail = f(remaining & ~stage_mask)
                total = cost + tail
                if total < best:
                    best = total
                    choice = stage_mask
            best_cost[remaining] = best
            best_stage[remaining] = choice
            return best

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10 * self._n + 1000))
        try:
            total = f(full)
        finally:
            sys.setrecursionlimit(old_limit)

        stages: list[Stage] = []
        remaining = full
        while remaining:
            mask = best_stage[remaining]
            stages.append(Stage(self._stage_groups(mask)))
            remaining &= ~mask
        return Schedule(
            graph_name=self.graph.name,
            batch=self.batch,
            stages=tuple(stages),
            latency_us=total,
            strategy="ios-dp",
        )


def dp_schedule(
    graph: Graph,
    batch: int,
    device: DeviceSpec | None = None,
    max_stage_ops: int | None = None,
    max_groups: int | None = None,
) -> Schedule:
    """Convenience wrapper: build a :class:`DPScheduler` and solve."""
    return DPScheduler(graph, batch, device, max_stage_ops, max_groups).solve()


def count_downsets(graph: Graph) -> int:
    """Number of down-sets of the compute DAG (DP search-space diagnostic)."""
    scheduler = DPScheduler(graph, batch=1)
    full = (1 << scheduler._n) - 1
    return len(scheduler._downsets(full)) + 1  # + empty set
