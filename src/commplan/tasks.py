"""Task specifications, online detection, and temporal-relation checking."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .workspace import GridMap, Position, los_obstacle_length


class RelationKind(str, Enum):
    PRECEDENCE = "precedence"
    MUTEX = "mutex"
    CONCURRENCY = "concurrency"


@dataclass
class Task:
    id: int
    region_center: Position
    region_radius: float
    duration: float
    requirements: tuple[tuple[int, str], ...]  # (agent count, action id)
    release_time: float = 0.0
    detected_at: Optional[float] = None

    def __post_init__(self):
        if not self.duration > 0:
            raise ValueError(f"task {self.id}: duration must be > 0")
        if self.region_radius < 0:
            raise ValueError(f"task {self.id}: region_radius must be >= 0")
        self.requirements = tuple((int(n), str(a)) for n, a in self.requirements)
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


def detect_tasks(agent_pos: Position, sensor_range: float, undetected: Iterable[Task],
                 now: float, grid: GridMap) -> list[int]:
    """Mark and return tasks the agent can currently see.

    A task is detected when it has been released, its region center is within
    sensor range, and the line of sight to the center crosses no obstacle.
    Detection is permanent: detected_at is stamped with `now`.
    """
    if now < 0:
        raise ValueError("now must be >= 0")
    found = []
    for task in undetected:
        if task.detected_at is not None:
            continue
        if task.release_time > now:
            continue
        if agent_pos.dist(task.region_center) > sensor_range:
            continue
        if los_obstacle_length(agent_pos, task.region_center, grid) > 0.0:
            continue
        task.detected_at = now
        found.append(task.id)
    return found


def check_schedule(intervals: Iterable[ExecutionInterval],
                   relations: Iterable[TemporalRelation],
                   known_tasks: Optional[set[int]] = None) -> tuple[bool, list[TemporalRelation]]:
    """Validate execution intervals against the temporal relations.

    Intervals are closed. Precedence holds iff first finishes no later than
    second starts; mutex requires strictly disjoint intervals (a shared
    endpoint violates); concurrency requires a nonempty intersection.
    Relations with an unscheduled endpoint are vacuously satisfied for
    precedence and mutex but violated for concurrency.
    """
    by_id: dict[int, ExecutionInterval] = {}
    for iv in intervals:
        if known_tasks is not None and iv.task_id not in known_tasks:
            raise ValueError(f"interval references unknown task {iv.task_id}")
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

    `preds[t]` holds the tasks that must finish before t starts, `mutex[t]`
    the tasks whose intervals must be disjoint from t's, and `conc[t]` the
    tasks whose intervals must intersect t's. Each value is a sorted tuple;
    a task with no relation of a kind has no entry in that view.
    """

    def __init__(self, relations: Iterable[TemporalRelation]):
        views: dict[RelationKind, dict[int, set[int]]] = {kind: {} for kind in RelationKind}
        for rel in relations:
            view = views[rel.kind]
            view.setdefault(rel.second, set()).add(rel.first)
            if rel.kind is not RelationKind.PRECEDENCE:
                view.setdefault(rel.first, set()).add(rel.second)
        self.preds, self.mutex, self.conc = (
            {t: tuple(sorted(others)) for t, others in views[kind].items()}
            for kind in (RelationKind.PRECEDENCE, RelationKind.MUTEX, RelationKind.CONCURRENCY))
