"""Stage/Group/Schedule data structures for the Inter-Operator Scheduler.

IOS (Ding et al., MLSys 2021) describes an execution plan as a sequence of
*stages*; each stage holds *groups* that run concurrently on separate CUDA
streams; operators inside a group run sequentially.  Stages are separated
by synchronization barriers.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..graph.ir import Graph

__all__ = ["Group", "Stage", "Schedule", "groups_from_ops"]


@dataclass(frozen=True)
class Group:
    """Operators executed sequentially on one stream."""

    ops: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.ops:
            raise ValueError("empty group")

    def __len__(self) -> int:
        return len(self.ops)


@dataclass(frozen=True)
class Stage:
    """Concurrent groups bounded by a synchronization barrier."""

    groups: tuple[Group, ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ValueError("empty stage")

    @property
    def num_ops(self) -> int:
        return sum(len(g) for g in self.groups)

    @property
    def parallelism(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class Schedule:
    """A complete execution plan for one graph at one batch size."""

    graph_name: str
    batch: int
    stages: tuple[Stage, ...]
    latency_us: float | None = None
    strategy: str = ""

    def stage_groups(self) -> list[list[list[str]]]:
        """Nested-list form consumed by :class:`repro.gpusim.GraphExecutor`."""
        return [[list(g.ops) for g in stage.groups] for stage in self.stages]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_ops(self) -> int:
        return sum(stage.num_ops for stage in self.stages)

    @property
    def max_parallelism(self) -> int:
        return max(stage.parallelism for stage in self.stages)

    def with_latency(self, latency_us: float) -> "Schedule":
        return Schedule(self.graph_name, self.batch, self.stages, latency_us, self.strategy)

    @property
    def schedule_hash(self) -> str:
        """Content hash of the *plan* (graph, batch, stage structure).

        Annotations — measured latency, strategy label — are excluded,
        so a schedule keeps its hash when re-annotated.  ``from_json``
        checks it when the serialized form carries one, so a corrupted
        or hand-edited saved schedule raises instead of loading.
        """
        canon = json.dumps(
            {"graph": self.graph_name, "batch": self.batch,
             "stages": self.stage_groups()},
            separators=(",", ":"),
        )
        return hashlib.sha1(canon.encode()).hexdigest()

    # -- serialization (deploy a found schedule without re-searching) ----
    def to_json(self) -> str:
        return json.dumps({
            "graph_name": self.graph_name,
            "batch": self.batch,
            "strategy": self.strategy,
            "latency_us": self.latency_us,
            "schedule_hash": self.schedule_hash,
            "stages": self.stage_groups(),
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Schedule":
        data = json.loads(text)
        stages = tuple(
            Stage(tuple(Group(tuple(group)) for group in stage))
            for stage in data["stages"]
        )
        schedule = cls(
            graph_name=data["graph_name"],
            batch=int(data["batch"]),
            stages=stages,
            latency_us=data.get("latency_us"),
            strategy=data.get("strategy", ""),
        )
        expected = data.get("schedule_hash")
        if expected is not None and expected != schedule.schedule_hash:
            raise ValueError(
                f"schedule hash mismatch: payload says {expected}, "
                f"reconstructed plan hashes to {schedule.schedule_hash} "
                "(corrupted or hand-edited schedule)"
            )
        return schedule

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "Schedule":
        return cls.from_json(Path(path).read_text())

    def describe(self) -> str:
        """Human-readable plan, one stage per line."""
        lines = [
            f"Schedule[{self.strategy}] for {self.graph_name} @ batch {self.batch} "
            f"({self.num_stages} stages"
            + (f", {self.latency_us:.1f} us)" if self.latency_us is not None else ")")
        ]
        for i, stage in enumerate(self.stages):
            rendered = "  |  ".join(" -> ".join(g.ops) for g in stage.groups)
            lines.append(f"  stage {i}: {rendered}")
        return "\n".join(lines)


def groups_from_ops(graph: Graph, ops: frozenset[str] | set[str]) -> tuple[Group, ...]:
    """Partition a stage's operator set into its parallel groups.

    Groups are the weakly-connected components of the dependency subgraph
    induced by ``ops``; each is ordered topologically (graph insertion
    order restricted to the component), making it a valid sequential
    stream program.  Components are emitted in topological order of their
    first operator so output is deterministic.
    """
    ops = set(ops)
    parent: dict[str, str] = {name: name for name in ops}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for name in ops:
        for dep in graph[name].inputs:
            if dep in ops:
                union(name, dep)

    ordered = [name for name in graph.names() if name in ops]
    components: dict[str, list[str]] = {}
    for name in ordered:
        components.setdefault(find(name), []).append(name)
    return tuple(Group(tuple(members)) for members in components.values())
