"""Task specifications, online detection, and temporal-relation checking."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .workspace import GridMap, Position, los_obstacle_length


class RelationKind(str, Enum):
    PRECEDENCE = "precedence"
    MUTEX = "mutex"
    CONCURRENCY = "concurrency"


@dataclass(frozen=True)
class Task:
    id: int
    region_center: Position
    region_radius: float
    duration: float
    requirements: tuple[tuple[int, str], ...]  # (agent count, action id)
    release_time: float = 0.0

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError(f"task {self.id}: duration must be > 0")
        if self.region_radius < 0:
            raise ValueError(f"task {self.id}: region_radius must be >= 0")
        object.__setattr__(self, "requirements", tuple((int(n), str(a)) for n, a in self.requirements))
        if not self.requirements:
            raise ValueError(f"task {self.id}: at least one requirement needed")
        for n, a in self.requirements:
            if n < 1:
                raise ValueError(f"task {self.id}: requirement count must be >= 1")

    @property
    def agents_required(self) -> int:
        return sum(n for n, _ in self.requirements)


@dataclass(frozen=True)
class TemporalRelation:
    first: int
    second: int
    kind: RelationKind

    def __post_init__(self):
        if self.first == self.second:
            raise ValueError("relation endpoints must differ")
        object.__setattr__(self, "kind", RelationKind(self.kind))


@dataclass(frozen=True)
class ExecutionInterval:
    task_id: int
    start: float
    finish: float

    def __post_init__(self):
        if self.finish < self.start:
            raise ValueError(f"task {self.task_id}: finish before start")


def detect_tasks(agent_pos: Position, sensor_range: float, released: Iterable[Task],
                 grid: GridMap) -> list[int]:
    """Ids of the tasks in `released` that the agent can currently see.

    A task is seen when its region center is within sensor range and the
    line of sight to the center crosses no obstacle. The caller passes only
    tasks already released: no release time is tested here.
    """
    found = []
    for task in released:
        if agent_pos.dist(task.region_center) > sensor_range:
            continue
        if los_obstacle_length(agent_pos, task.region_center, grid) > 0.0:
            continue
        found.append(task.id)
    return found


def check_schedule(intervals: Iterable[ExecutionInterval],
                   relations: Iterable[TemporalRelation]) -> tuple[bool, list[TemporalRelation]]:
    """Validate execution intervals against the temporal relations.

    Intervals are closed. Precedence holds iff first finishes no later than
    second starts; mutex requires strictly disjoint intervals (a shared
    endpoint violates); concurrency requires a nonempty intersection.
    Relations with an unscheduled endpoint are vacuously satisfied for
    precedence and mutex but violated for concurrency.
    """
    by_id: dict[int, ExecutionInterval] = {}
    for iv in intervals:
        if iv.task_id in by_id:
            raise ValueError(f"duplicate interval for task {iv.task_id}")
        by_id[iv.task_id] = iv

    violated = []
    for rel in relations:
        a = by_id.get(rel.first)
        b = by_id.get(rel.second)
        if rel.kind is RelationKind.PRECEDENCE:
            if a is not None and b is not None and not a.finish <= b.start:
                violated.append(rel)
        elif rel.kind is RelationKind.MUTEX:
            if a is not None and b is not None and not (a.finish < b.start or b.finish < a.start):
                violated.append(rel)
        else:  # concurrency: both must be scheduled and overlap
            if a is None or b is None or not max(a.start, b.start) <= min(a.finish, b.finish):
                violated.append(rel)
    return (len(violated) == 0, violated)


class RelationIndex:
    """Per-task views of the temporal relations, built once.

    `preds[t]` holds the tasks that must finish before t starts (`succs` is its
    inverse), `mutex[t]` the tasks whose intervals must be disjoint from t's,
    and `conc[t]` the tasks whose intervals must intersect t's. `cluster[t]` is
    t's connected component under `conc`, t included: the tasks that can only be
    planned or claimed together. Each value is a sorted tuple; a task with no
    relation of a kind has no entry in that view.
    """

    def __init__(self, relations: Iterable[TemporalRelation]):
        views: dict[RelationKind, dict[int, set[int]]] = {kind: {} for kind in RelationKind}
        succs: dict[int, set[int]] = {}
        for rel in relations:
            view = views[rel.kind]
            view.setdefault(rel.second, set()).add(rel.first)
            (succs if rel.kind is RelationKind.PRECEDENCE else view).setdefault(
                rel.first, set()).add(rel.second)
        self.preds, self.succs, self.mutex, self.conc = (
            {t: tuple(sorted(others)) for t, others in view.items()}
            for view in (views[RelationKind.PRECEDENCE], succs, views[RelationKind.MUTEX],
                         views[RelationKind.CONCURRENCY]))
        # Concurrency-linked tasks must execute with overlapping intervals, so
        # plans admit them only jointly: each task's concurrency component is
        # the unit of insertion.
        self.cluster = {t: (t,) for t in self.conc}
        for t in sorted(self.conc):
            for p in self.conc[t]:
                if p not in self.cluster[t]:
                    merged = tuple(sorted(self.cluster[t] + self.cluster[p]))
                    self.cluster.update(dict.fromkeys(merged, merged))
