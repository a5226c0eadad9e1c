"""Deterministic fixed-timestep simulation of execute/communicate/replan cycles.

Motion integrates along grid paths at v_max with a 0.1 s default timestep;
detection runs every tick, where an agent that has not moved looks only at
newly released tasks; execution starts are gated at runtime so that
completed intervals always satisfy the temporal relations (predecessors must
have finished, mutex partners finished strictly earlier, concurrency
clusters start together). Planning happens "at" communication events and
costs no simulated time. Identical scenario and seed reproduce the event
log byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Protocol, Sequence

from .radio import CommParams, comm_graph, is_connected
from .schedule import AgentContext, groups_of
from .tasks import ExecutionInterval, RelationIndex, Task, TemporalRelation, detect_tasks
from .workspace import GridMap, Position, astar_path, astar_travel_time

DEFAULT_DT = 0.1
DEPART_MARGIN_TICKS = 2


class SimulationError(RuntimeError):
    """An invariant the engine guarantees was violated at runtime."""


@dataclass
class Leg:
    waypoints: list[Position]
    target_task: Optional[int]  # None: the leg ends at the agent's rendezvous
    progress: float = field(default=0.0, init=False)
    lengths: list[float] = field(init=False)
    total: float = field(init=False)

    def __post_init__(self):
        self.lengths = []
        prev = self.waypoints[0]
        for wp in self.waypoints[1:]:
            self.lengths.append(prev.dist(wp))
            prev = wp
        self.total = sum(self.lengths)

    def advance(self, dist: float) -> Position:
        self.progress = min(self.progress + dist, self.total)
        remaining = self.progress
        prev = self.waypoints[0]
        for wp, seg in zip(self.waypoints[1:], self.lengths):
            if remaining <= seg or seg == 0.0:
                if seg == 0.0:
                    prev = wp
                    continue
                frac = remaining / seg
                return Position(prev.x + (wp.x - prev.x) * frac, prev.y + (wp.y - prev.y) * frac)
            remaining -= seg
            prev = wp
        return self.waypoints[-1]

    @property
    def done(self) -> bool:
        return self.progress >= self.total - 1e-12


@dataclass
class AgentState:
    id: int
    position: Position
    v_max: float
    sensor_range: float
    capabilities: frozenset[str]
    status: str = "idle"
    queue: list[int] = field(default_factory=list)
    leg: Optional[Leg] = None
    comm_target: Optional[Position] = None
    comm_time: Optional[float] = None
    depart_time: Optional[float] = None
    arrived_comm_at: Optional[float] = None
    known: set[int] = field(default_factory=set)

    def context(self, ready_time: float) -> AgentContext:
        return AgentContext(self.id, self.position, ready_time, self.v_max, self.capabilities)

    def set_meeting(self, target: Optional[Position], time: Optional[float]) -> None:
        """Idle, bound for rendezvous `target` at `time` (None: no meeting set)."""
        self.status = "idle"
        self.leg = None
        self.comm_target, self.comm_time = target, time
        self.depart_time = self.arrived_comm_at = None


@dataclass(frozen=True)
class SimEvent:
    timestamp: float
    kind: str
    payload: tuple

    def line(self) -> str:
        parts = " ".join(str(p) for p in self.payload)
        return f"{self.timestamp:.6f} {self.kind} {parts}".rstrip()


@dataclass
class MetricsRecord:
    finished_tasks: int = 0
    comm_count: int = 0
    comm_intervals: list[float] = field(default_factory=list)
    idle_gaps: list[float] = field(default_factory=list)
    completion_times: dict[int, float] = field(default_factory=dict)


@dataclass
class CycleRecord:
    start: float
    participants: tuple[int, ...]
    assigned: tuple[int, ...]
    planned_event: Optional[float]
    actual_event: Optional[float] = None


class Controller(Protocol):
    scheduled_events: bool

    def on_start(self, sim: "Simulator") -> None: ...

    def on_tick(self, sim: "Simulator", t: float) -> None: ...


class Simulator:
    """Engine owning agent motion, detection, and gated task execution.

    A strategy controller drives communication events and (re)planning
    through the public helpers; the engine itself never plans.
    """

    def __init__(self, grid: GridMap, agents: Sequence[AgentState], params: CommParams,
                 tasks: dict[int, Task], relations: Sequence[TemporalRelation],
                 horizon: float, dt: float = DEFAULT_DT,
                 recheck_interval: float = 5.0):
        self.grid = grid
        # In id order: each tick moves and detects the agents in this order.
        self.agents = {a.id: a for a in sorted(agents, key=lambda a: a.id)}
        self.params = params
        self.tasks = tasks
        self.undetected = [tasks[t] for t in sorted(tasks)]
        self.horizon = horizon
        self.dt = dt
        self.recheck_interval = recheck_interval

        self.now = 0.0
        self.events: list[SimEvent] = []
        self.groups: dict[int, tuple[int, ...]] = {}
        self.task_state: dict[int, str] = {t: "pending" for t in tasks}
        # The ids in task_state that are claimed, that are executing and that are done.
        self.claimed: set[int] = set()
        self.executing: set[int] = set()
        self.done: set[int] = set()
        self.task_start: dict[int, float] = {}
        self.task_finish: dict[int, float] = {}
        self.planned_start: dict[int, float] = {}
        self.cycle_records: list[CycleRecord] = []
        self.index = RelationIndex(relations)
        # A running total of the agents' known-set sizes.
        self.known_count = sum(len(a.known) for a in self.agents.values())
        self.moved: list[int] = []  # ascending ids whose position this tick's _move changed
        self.looked_at = float("-inf")  # the time of the last detection pass

    # -- logging helpers -------------------------------------------------

    def log(self, timestamp: float, kind: str, *payload) -> None:
        if self.events and timestamp < self.events[-1].timestamp - 1e-9:
            timestamp = self.events[-1].timestamp
        self.events.append(SimEvent(timestamp, kind, tuple(payload)))

    # -- controller-facing helpers ---------------------------------------

    def known_tasks(self, agent_ids: Sequence[int]) -> dict[int, Task]:
        known: set[int] = set()
        for a in agent_ids:
            known |= self.agents[a].known
        return {t: self.tasks[t] for t in sorted(known)}

    def merge_knowledge(self, agent_ids: Sequence[int]) -> None:
        union: set[int] = set()
        for a in agent_ids:
            union |= self.agents[a].known
        for a in agent_ids:
            self.known_count += len(union) - len(self.agents[a].known)
            self.agents[a].known = set(union)

    def _claim(self, tid: int, group: Sequence[int]) -> None:
        if self.task_state[tid] != "pending":
            raise SimulationError(f"task {tid} claimed while {self.task_state[tid]}")
        self.groups[tid] = tuple(sorted(group))
        self.task_state[tid] = "claimed"
        self.claimed.add(tid)

    def assign(self, task_id: int, group: tuple[int, ...]) -> None:
        self._claim(task_id, group)
        for a in group:
            self.agents[a].queue.append(task_id)

    def apply_team_plan(self, agent_ids: Sequence[int],
                        plan_sequences: dict[int, tuple[int, ...]],
                        planned: Mapping[int, ExecutionInterval],
                        event_time: Optional[float] = None,
                        event_positions: Optional[dict[int, Position]] = None) -> None:
        """Claim each plan task for the agents holding it and give each of
        `agent_ids`, and no other agent, its queue and its place at the next event."""
        for tid, group in sorted(groups_of(plan_sequences).items()):
            self._claim(tid, group)
            self.planned_start[tid] = planned[tid].start
        for aid in agent_ids:
            ag = self.agents[aid]
            ag.queue = list(plan_sequences.get(aid, ()))
            ag.set_meeting(event_positions.get(aid) if event_positions else None, event_time)

    def has_future_work(self) -> bool:
        return len(self.done) < len(self.tasks)

    def comm_ready(self, agent_ids: Sequence[int], planned: float, t: float) -> Optional[float]:
        """Actual event time if every participant is in place, else None."""
        if t < planned - 1e-9:
            return None
        worst = planned
        for a in agent_ids:
            ag = self.agents[a]
            if ag.status != "waiting_at_comm":
                return None
            worst = max(worst, ag.arrived_comm_at)
        return worst

    def fire_comm_event(self, agent_ids: Sequence[int], actual: float) -> None:
        positions = {a: self.agents[a].position for a in agent_ids}
        if not is_connected(comm_graph(positions, self.grid, self.params)):
            raise SimulationError(f"communication event at {actual} is not connected")
        self.log(actual, "comm_event", *sorted(agent_ids))
        self.merge_knowledge(agent_ids)
        for a in agent_ids:
            self.agents[a].set_meeting(None, None)

    # -- engine ------------------------------------------------------------

    def run(self, controller: Controller):
        controller.on_start(self)
        ticks = int(round(self.horizon / self.dt))
        for k in range(ticks + 1):
            t = k * self.dt
            self.now = t
            self._complete_executions(t)
            self._plan_legs(t)
            self._move(t)
            self._detect(t)
            self._start_tasks(t)
            controller.on_tick(self, t)
        return self.events, self._metrics(controller)

    def _complete_executions(self, t: float) -> None:
        due = [(self.task_finish[tid], tid) for tid in self.executing if self.task_finish[tid] <= t]
        for finish, tid in sorted(due):
            self.task_state[tid] = "done"
            self.executing.remove(tid)
            self.done.add(tid)
            self.log(finish, "execution_end", tid)
            for a in self.groups[tid]:
                ag = self.agents[a]
                if ag.queue and ag.queue[0] == tid:
                    ag.queue.pop(0)
                ag.status = "idle"

    def _plan_legs(self, t: float) -> None:
        for ag in self.agents.values():
            if ag.status != "idle":
                continue
            if ag.queue:
                target = self.tasks[ag.queue[0]].region_center
                ag.leg = Leg(self._waypoints(ag.position, target), ag.queue[0])
                ag.status = "traveling"
            elif ag.comm_target is not None:
                if ag.depart_time is None:
                    travel = astar_travel_time(ag.position, ag.comm_target, self.grid, ag.v_max)
                    margin = DEPART_MARGIN_TICKS * self.dt
                    ag.depart_time = max(t, (ag.comm_time or t) - travel - margin)
                if t >= ag.depart_time - 1e-9:
                    ag.leg = Leg(self._waypoints(ag.position, ag.comm_target), None)
                    ag.status = "traveling"

    def _waypoints(self, start: Position, goal: Position) -> list[Position]:
        path = astar_path(start, goal, self.grid)
        return [start, *path[1:]]

    def _move(self, t: float) -> None:
        self.moved = []
        for aid, ag in self.agents.items():
            if ag.status != "traveling" or ag.leg is None:
                continue
            start = ag.position
            ag.position = ag.leg.advance(ag.v_max * self.dt)
            if ag.leg.done:
                ag.position = ag.leg.waypoints[-1]
                if ag.leg.target_task is not None:
                    ag.status = "waiting_at_task"
                    self.log(t, "arrival", aid, "task", ag.leg.target_task)
                else:
                    ag.status = "waiting_at_comm"
                    ag.arrived_comm_at = t
                    self.log(t, "arrival", aid, "comm")
                ag.leg = None
            if ag.position is not start:  # a zero-length leg keeps its position
                self.moved.append(aid)

    def _detect(self, t: float) -> None:
        # Each task is detected once, by the lowest agent id that sees it. An
        # agent not in `moved` stands where it looked on the last tick, so it
        # looks only at the tasks released since (map and range are fixed); on
        # the first tick every released task is new.
        released = [task for task in self.undetected if task.release_time <= t]
        fresh = [task for task in released if task.release_time > self.looked_at]
        moved = set(self.moved)
        for aid, ag in self.agents.items():
            candidates = released if aid in moved else fresh
            if not candidates:
                continue
            found = detect_tasks(ag.position, ag.sensor_range, candidates, t, self.grid)
            for tid in found:
                ag.known.add(tid)
                self.known_count += 1  # a detected task was unknown to everyone
                self.log(t, "detection", aid, tid)
            if found:
                released = [task for task in released if task.id not in found]
                fresh = [task for task in fresh if task.id not in found]
                self.undetected = [task for task in self.undetected if task.id not in found]
        self.looked_at = t

    def _gates_pass(self, tid: int, t: float) -> bool:
        # A done task finished by t: _complete_executions marks no other.
        if any(self.task_state.get(p, "done") != "done" for p in self.index.preds.get(tid, ())):
            return False
        for m in self.index.mutex.get(tid, ()):
            st = self.task_state.get(m)
            if st == "executing" or (st == "done" and self.task_finish[m] >= t):
                return False
        return True

    def _group_present(self, tid: int) -> bool:
        return all(self.agents[a].status == "waiting_at_task" and self.agents[a].queue
                   and self.agents[a].queue[0] == tid for a in self.groups[tid])

    def _start_tasks(self, t: float) -> None:
        """Start every task whose gates pass, honoring concurrency windows.

        A task may start while each concurrency partner is executing, just
        finished at exactly t (touching intervals still intersect), started
        this same tick, or planned to start strictly later. Partners with an
        equal or unknown planned order must start simultaneously, so their
        tie group is started as a unit once every member is ready.
        """
        ready = {tid for tid in self.claimed
                 if self._group_present(tid) and self._gates_pass(tid, t)}
        started: set[int] = set()
        order = sorted(ready, key=lambda m: (self.planned_start.get(m, 0.0), m))
        for tid in order:
            if tid in started:
                continue
            tie_group = {tid}
            stack = [tid]
            feasible = True
            while stack and feasible:
                m = stack.pop()
                for p in self.index.conc.get(m, ()):
                    st = self.task_state.get(p)
                    if st == "done" and t > self.task_finish[p] + 1e-9:
                        raise SimulationError(
                            f"task {m}: concurrency window with {p} was missed at t={t}")
                    mp, pp = self.planned_start.get(m), self.planned_start.get(p)
                    # A partner not yet started, and not planned strictly later
                    # (when it would overlap us anyway), must start together.
                    if st not in ("pending", "claimed") or (
                            mp is not None and pp is not None and pp > mp + 1e-9):
                        continue
                    if p not in ready:
                        feasible = False
                        break
                    if p not in tie_group:
                        tie_group.add(p)
                        stack.append(p)
            if not feasible:
                continue
            # Every member passed _gates_pass, so only a task started this tick conflicts.
            if any(other in started for m in tie_group for other in self.index.mutex.get(m, ())):
                continue
            for m in sorted(tie_group):
                self.task_state[m] = "executing"
                self.claimed.remove(m)
                self.executing.add(m)
                self.task_start[m] = t
                self.task_finish[m] = t + self.tasks[m].duration
                self.log(t, "execution_start", m, *self.groups[m])
                for a in self.groups[m]:
                    self.agents[a].status = "executing"
                started.add(m)

    # -- metrics -----------------------------------------------------------

    def _metrics(self, controller: Controller) -> MetricsRecord:
        rec = MetricsRecord()
        comm_times = [e.timestamp for e in self.events if e.kind == "comm_event"]
        finishes = sorted((e.timestamp, e.payload[0]) for e in self.events if e.kind == "execution_end")
        rec.finished_tasks = len(finishes)
        rec.comm_count = len(comm_times)
        rec.completion_times = {tid: ts for ts, tid in finishes}
        if controller.scheduled_events:
            prev = 0.0
            for ct in comm_times:
                rec.comm_intervals.append(ct - prev)
                window = [ts for ts, _ in finishes if prev < ts <= ct]
                if window:
                    rec.idle_gaps.append(ct - max(window))
                prev = ct
        return rec
