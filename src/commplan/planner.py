"""Joint optimization of task assignment and the next communication event.

Best-first branch and bound over partial collective plans. Each node fixes a
set of assigned tasks with per-agent orders; its lower bound is the rate of
the best full plan reachable by greedily appending tasks (scheduling each
candidate and optimizing its communication event), and its upper bound is a
zero-travel relaxation that dominates every descendant's achievable rate.
The search is anytime: the incumbent is always a feasible full plan.

Every node, the root included, goes through one step that bounds it, keeps
a better incumbent and pushes the node while it can still win. Each distinct
node's sequences are bounded once per search, and the lower bound is skipped
when the upper bound shows the node cannot beat the incumbent. Bounds compare
rates only: each distinct candidate is scored once per cycle, a candidate
that appends one task to a scored one extends that timetable when
`append_to_timetable` allows, and the incumbent's full plan is built once,
when the search returns.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .meeting import AgentFinish, CommEvent, LastTaskState, com_opt, com_opt_fast
from .radio import CommParams, comm_graph, is_connected
from .schedule import (AgentContext, InfeasibleSchedule, Timetable, append_to_timetable,
                       eligible_groups, groups_of, schedule_min_makespan)
from .tasks import RelationIndex, Task, TemporalRelation
from .workspace import GridMap, astar_travel_time

IMPROVEMENT_EPS = 1e-9

SequencesKey = tuple[tuple[int, ...], ...]  # per-agent sequences in team order


@dataclass
class CollectivePlan:
    sequences: dict[int, tuple[int, ...]]   # agent -> ordered task ids
    timetable: Timetable
    event: CommEvent
    rate: float

    @property
    def groups(self) -> dict[int, tuple[int, ...]]:
        """Task -> the agents whose sequences hold it."""
        return groups_of(self.sequences)

    def task_count(self) -> int:
        return len(self.timetable.intervals)


@dataclass
class PlanNode:
    node_id: int
    depth: int
    sequences: dict[int, tuple[int, ...]]
    lb: float = -math.inf
    ub: float = math.inf

    def assigned(self) -> frozenset[int]:
        return frozenset().union(*self.sequences.values())


@dataclass
class PlannerProblem:
    """Inputs shared by every bound evaluation of one planning cycle."""
    team: dict[int, AgentContext]
    tasks: dict[int, Task]                  # detected; those in `completed` are dropped
    relations: Sequence[TemporalRelation]
    grid: GridMap
    params: CommParams
    now: float
    completed: frozenset[int] = frozenset()
    event_optimizer: Optional[Callable[[LastTaskState], Optional[CommEvent]]] = None
    gap: float = 0.5
    index: RelationIndex = field(init=False, repr=False)
    groups: dict[int, list[tuple[int, ...]]] = field(init=False, repr=False)  # eligible, per task
    clusters: dict[int, tuple[int, ...]] = field(init=False, repr=False)
    # Scored candidates: None when infeasible, else the rate and the starts of
    # the timetable's tasks in task-id order.
    _rates: dict[SequencesKey, Optional[tuple[float, tuple[float, ...]]]] = field(
        default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.team:
            raise ValueError("team must be nonempty")
        self.tasks = {t: task for t, task in self.tasks.items() if t not in self.completed}
        self.index = RelationIndex(self.relations)
        self.groups = {t: eligible_groups(task, self.team) for t, task in self.tasks.items()}
        # Concurrency-linked tasks must execute with overlapping intervals, so
        # plans admit them only jointly: each task's concurrency component over
        # the known task set is the unit of insertion.
        self.clusters = {t: (t,) for t in self.tasks}
        for t in sorted(self.tasks):
            for p in self.index.conc.get(t, ()):
                if p in self.tasks and p not in self.clusters[t]:
                    merged = tuple(sorted(self.clusters[t] + self.clusters[p]))
                    self.clusters.update(dict.fromkeys(merged, merged))

    def _default_event(self, last: LastTaskState) -> CommEvent:
        at_start = all(fin.time == self.team[a].ready_time and fin.position == self.team[a].position
                       for a, fin in last.finishes.items())
        if at_start:
            positions = {a: fin.position for a, fin in last.finishes.items()}
            if is_connected(comm_graph(positions, self.grid, self.params)):
                return CommEvent(self.now, positions)
        return com_opt_fast(last, self.grid, self.params)

    def key(self, sequences: Mapping[int, Sequence[int]]) -> SequencesKey:
        return tuple(tuple(sequences.get(a, ())) for a in self.team)

    def remember(self, key: SequencesKey, plan: Optional[CollectivePlan]) -> None:
        self._rates[key] = None if plan is None else (
            plan.rate, tuple(iv.start for iv in plan.timetable.intervals.values()))

    def rate_for(self, sequences: Mapping[int, Sequence[int]]) -> Optional[float]:
        """Rate of `build_plan(sequences, self)`, None when that is None.

        Each candidate is built once per cycle, keyed by `key(sequences)`.
        """
        key = self.key(sequences)
        if key not in self._rates:
            self.remember(key, build_plan(sequences, self))
        entry = self._rates[key]
        return None if entry is None else entry[0]

    def timetable_for(self, sequences: Mapping[int, Sequence[int]]) -> Timetable:
        """`schedule_min_makespan(sequences, ...)`, extended instead from a
        scored base (the same sequences less one tail task) when exact."""
        key = self.key(sequences)
        for tid in sorted({seq[-1] for seq in key if seq}):
            base = tuple(seq[:-1] if seq and seq[-1] == tid else seq for seq in key)
            entry = self._rates.get(base)
            if entry is None:
                continue
            base_starts = dict(zip(sorted(set().union(*base)), entry[1]))
            timetable = append_to_timetable(sequences, tid, base_starts, self.tasks, self.index,
                                            self.grid, self.team)
            if timetable is not None:
                return timetable
        return schedule_min_makespan(sequences, self.tasks, self.index, self.grid, self.team)


def get_feasible_tasks(assigned: frozenset[int], problem: PlannerProblem) -> list[int]:
    """Representative tasks whose concurrency cluster can be added next.

    A cluster is addable when every member is detected, unassigned, not
    completed, coverable by the team, and has all precedence predecessors
    already assigned or completed. Only the lowest member id is returned for
    each cluster; expansion inserts the whole cluster jointly.
    """
    preds = problem.index.preds
    done = assigned | problem.completed

    def member_ok(t: int, cluster: set[int]) -> bool:
        # Members are known, unassigned and not completed by construction.
        if not problem.groups[t]:
            return False
        # Predecessors must be assigned, completed, or co-added in the same
        # cluster insertion.
        if not all(p in done or p in cluster for p in preds.get(t, ())):
            return False
        # A concurrency partner outside the known set (undetected, or already
        # completed in an earlier cycle) makes the required overlap impossible
        # for now, so the whole cluster stays out.
        return all(p in problem.tasks for p in problem.index.conc.get(t, ()))

    out = []
    seen: set[int] = set()
    for t in sorted(problem.tasks):
        if t in assigned or t in seen:
            continue
        cluster = [m for m in problem.clusters[t] if m not in assigned]
        seen.update(cluster)
        cset = set(cluster)
        if all(member_ok(m, cset) for m in cluster):
            out.append(min(cluster))
    return out


def _related_to_assigned(cluster: Sequence[int], assigned: frozenset[int],
                         index: RelationIndex) -> bool:
    """True if a relation of any kind joins a cluster member to an assigned task."""
    views = (index.preds, index.mutex, index.conc)
    return (any(o in assigned for t in cluster for view in views for o in view.get(t, ()))
            or any(t in index.preds.get(a, ()) for a in assigned for t in cluster))


def expand_node(node: PlanNode, task_id: int, problem: PlannerProblem,
                next_id: Callable[[], int]) -> list[PlanNode]:
    """Children assigning the task's cluster to every eligible group choice.

    Tasks unrelated to the already-assigned set are appended at sequence
    tails only; related tasks are additionally tried at every interior
    insertion position, since only relations can make interiors matter.
    Multi-task clusters always use interior insertion so every relative
    placement of the jointly added members stays reachable.
    """
    assigned = node.assigned()
    cluster = sorted(m for m in problem.clusters[task_id] if m not in assigned)
    interior = len(cluster) > 1 or _related_to_assigned(cluster, assigned, problem.index)
    children: list[PlanNode] = []

    def place(idx: int, seqs: dict[int, list[int]]):
        if idx == len(cluster):
            children.append(PlanNode(node_id=next_id(), depth=node.depth + 1,
                                     sequences={a: tuple(s) for a, s in seqs.items()}))
            return
        t = cluster[idx]
        for group in problem.groups[t]:
            slots = [range(len(seqs[a]) + 1) if interior else (len(seqs[a]),) for a in group]
            for combo in itertools.product(*slots):
                new_seqs = {a: list(s) for a, s in seqs.items()}
                for a, pos in zip(group, combo):
                    new_seqs[a].insert(pos, t)
                place(idx + 1, new_seqs)

    place(0, {a: list(s) for a, s in node.sequences.items()})
    return children


def last_state(sequences: Mapping[int, Sequence[int]], timetable: Timetable,
               team: Mapping[int, AgentContext], tasks: Mapping[int, Task]) -> LastTaskState:
    """Per-agent finish time and position implied by scheduled task sequences."""
    finishes = {}
    for a, ctx in team.items():
        seq = sequences.get(a, ())
        if seq:
            last = seq[-1]
            finishes[a] = AgentFinish(a, timetable.intervals[last].finish,
                                      tasks[last].region_center, ctx.v_max)
        else:
            finishes[a] = AgentFinish(a, ctx.ready_time, ctx.position, ctx.v_max)
    return LastTaskState(finishes)


def build_plan(sequences: Mapping[int, Sequence[int]],
               problem: PlannerProblem) -> Optional[CollectivePlan]:
    """Schedule + event-optimize a candidate assignment; None when infeasible."""
    try:
        timetable = problem.timetable_for(sequences)
    except InfeasibleSchedule:
        return None
    # Not stored on the problem: a bound method there would make it a reference
    # cycle, and its memo would outlive the cycle until the collector runs.
    optimizer = problem.event_optimizer or problem._default_event
    event = optimizer(last_state(sequences, timetable, problem.team, problem.tasks))
    if event is None:
        return None
    count = len(timetable.intervals)
    rate = count / (event.time - problem.now) if count and event.time > problem.now else 0.0
    return CollectivePlan({a: tuple(sequences.get(a, ())) for a in problem.team},
                          timetable, event, rate)


class Bound(NamedTuple):
    """A node's lower bound: the rate of its best greedy completion, whose
    full plan is `build_plan(sequences, problem)`."""
    rate: float
    sequences: dict[int, tuple[int, ...]]   # every team agent, in team order


def low_bound(node: PlanNode, problem: PlannerProblem) -> Optional[Bound]:
    """Best rate from greedy completion of the node's partial plan.

    Iteratively appends the feasible cluster whose cheapest eligible group
    minimizes the worst member travel time, re-schedules, re-optimizes the
    event, and keeps going while the completion rate strictly improves.
    Returns the best candidate seen (the node's own plan counts), or None
    when no candidate schedules.
    """
    seqs = {a: tuple(node.sequences.get(a, ())) for a in problem.team}
    assigned = node.assigned()
    best = problem.rate_for(seqs)
    end_pos = {}
    for a, ctx in problem.team.items():
        seq = seqs[a]
        end_pos[a] = problem.tasks[seq[-1]].region_center if seq else ctx.position

    skipped: set[int] = set()
    while True:
        feas = [t for t in get_feasible_tasks(assigned, problem) if t not in skipped]
        if not feas:
            break
        scored = []
        for rep in feas:
            cluster = sorted(m for m in problem.clusters[rep] if m not in assigned)
            chosen: dict[int, tuple[int, ...]] = {}
            cost = 0.0
            for t in cluster:
                target = problem.tasks[t].region_center
                best_group, best_cost = None, math.inf
                travel: dict[int, float] = {}  # one lookup per agent, shared by its groups
                for group in problem.groups[t]:
                    for a in group:
                        if a not in travel:
                            travel[a] = astar_travel_time(end_pos[a], target, problem.grid,
                                                          problem.team[a].v_max)
                    c = max(travel[a] for a in group)
                    if c < best_cost:
                        best_group, best_cost = group, c
                chosen[t] = best_group
                cost = max(cost, best_cost)
            scored.append((cost, rep, cluster, chosen))
        scored.sort(key=lambda s: (s[0], s[1]))

        progressed = False
        for cost, rep, cluster, chosen in scored:
            new_seqs = dict(seqs)
            for t in cluster:
                for a in chosen[t]:
                    new_seqs[a] += (t,)
            rate = problem.rate_for(new_seqs)
            if rate is None:
                skipped.add(rep)
                continue
            if best is None or rate > best + IMPROVEMENT_EPS:
                seqs = new_seqs
                assigned = assigned.union(cluster)
                for t in cluster:
                    for a in chosen[t]:
                        end_pos[a] = problem.tasks[t].region_center
                best = rate
                progressed = True
            break
        if not progressed:
            break
    # Every accepted candidate replaces seqs, so it holds the best one.
    return None if best is None else Bound(best, seqs)


def up_bound(node: PlanNode, problem: PlannerProblem) -> float:
    """Rate bound under instantaneous travel, sound for the whole subtree.

    Descendants only insert tasks, so their event can never precede the
    zero-travel makespan of this node's plan; adding j tasks also costs at
    least the j-th smallest remaining duration and the matching agent-seconds
    of capacity. The best count/time quotient over j dominates every
    descendant's achievable rate.
    """
    try:
        tt0 = schedule_min_makespan(node.sequences, problem.tasks, problem.index,
                                    problem.grid, problem.team, relaxed=True)
    except InfeasibleSchedule:
        return -math.inf  # constraint cycle: no descendant can schedule either
    assigned = tt0.intervals
    count0 = len(assigned)
    floor0 = max(tt0.makespan - problem.now, 0.0)
    rates = [count0 / floor0 if count0 and floor0 > 0 else 0.0]

    addable = [problem.tasks[t] for t in sorted(problem.tasks)
               if t not in assigned and problem.groups[t]]
    durs = sorted(t.duration for t in addable)
    works = sorted(t.duration * t.agents_required for t in addable)
    w_assigned = sum(problem.tasks[t].duration * problem.tasks[t].agents_required
                     for t in assigned)
    n_team = len(problem.team)
    w_prefix = 0.0
    for j in range(1, len(addable) + 1):
        w_prefix += works[j - 1]
        t_floor = max(floor0, durs[j - 1], (w_assigned + w_prefix) / n_team)
        rates.append((count0 + j) / t_floor)
    return max(rates)


@dataclass
class SearchStats:
    nodes_generated: int = 0
    nodes_expanded: int = 0
    nodes_pruned: int = 0
    extraction_trace: list[tuple[float, Optional[float]]] = field(default_factory=list)
    incumbent_trace: list[float] = field(default_factory=list)
    keep_nodes: bool = False  # record nodes and both traces; off, they stay empty
    nodes: list[PlanNode] = field(default_factory=list)


def zero_task_plan(problem: PlannerProblem) -> CollectivePlan:
    """Fallback plan assigning nothing; rendezvous at the current positions
    when they are already connected, otherwise a gathered event."""
    empty_seqs = {a: () for a in problem.team}
    plan = build_plan(empty_seqs, problem)
    if plan is not None:
        problem.remember(problem.key(empty_seqs), plan)  # the root's first candidate
        return plan
    # Custom event optimizers may refuse even the empty plan; gather instead.
    last = LastTaskState({a: AgentFinish(a, ctx.ready_time, ctx.position, ctx.v_max)
                          for a, ctx in problem.team.items()})
    event = com_opt(last, problem.grid, problem.params, gap=problem.gap)
    return CollectivePlan(empty_seqs, Timetable({}, 0.0), event, 0.0)


def cocoplan(team: Mapping[int, AgentContext], tasks: Mapping[int, Task],
             relations: Sequence[TemporalRelation], grid: GridMap, params: CommParams,
             budget: Optional[float] = None, *, now: float = 0.0,
             completed: frozenset[int] = frozenset(),
             event_optimizer: Optional[Callable[[LastTaskState], Optional[CommEvent]]] = None,
             gap: float = 0.5, node_limit: Optional[int] = None,
             generated_limit: Optional[int] = None,
             stats: Optional[SearchStats] = None) -> CollectivePlan:
    """Best collective plan for the current cycle, found by branch and bound.

    Anytime: with a wall-clock budget or node limit the incumbent found so
    far is returned; with neither, the search is exhaustive and exact. The
    returned plan always has a connected communication event and a timetable
    satisfying every temporal relation among its tasks.
    """
    problem = PlannerProblem(team=dict(team), tasks=dict(tasks), relations=list(relations),
                             grid=grid, params=params, now=now, completed=completed,
                             event_optimizer=event_optimizer, gap=gap)
    if stats is None:
        stats = SearchStats()
    t_start = _time.monotonic()

    def time_left() -> bool:
        if generated_limit is not None and stats.nodes_generated >= generated_limit:
            return False
        return budget is None or (_time.monotonic() - t_start) < budget

    fallback = zero_task_plan(problem)
    lb_star = fallback.rate
    best: Optional[Bound] = None  # the incumbent, once a bound beats the fallback
    # node_id is unique, so heap entries never compare their nodes.
    heap: list[tuple[float, int, int, PlanNode]] = []
    bounded: dict[SequencesKey, tuple[float, float]] = {}  # (lb, ub) of every node seen

    def evaluate(node: PlanNode) -> bool:
        """Bound the node, keep a better incumbent; True if the node is pushed."""
        nonlocal best, lb_star
        key = problem.key(node.sequences)
        if key in bounded:
            # lb_star never falls, so a repeat can neither set the incumbent
            # nor reach a low_bound its first visit skipped.
            node.lb, node.ub = bounded[key]
        else:
            node.ub = up_bound(node, problem)
            # lb <= ub + 1e-9 (criterion 3), so below this lb cannot beat lb_star.
            if node.ub + IMPROVEMENT_EPS > lb_star:
                bound = low_bound(node, problem)
                if bound is not None:
                    node.lb = bound.rate
                    if node.lb > lb_star:
                        best, lb_star = bound, node.lb
            bounded[key] = (node.lb, node.ub)
        stats.nodes_generated += 1
        if stats.keep_nodes:
            stats.nodes.append(node)
        if node.ub > lb_star:
            heapq.heappush(heap, (-node.ub, -node.depth, node.node_id, node))
            return True
        return False

    next_node_id = itertools.count()
    # Only children count in nodes_pruned; a root that is not pushed does not.
    evaluate(PlanNode(node_id=next(next_node_id), depth=0,
                      sequences={a: () for a in problem.team}))
    while heap and time_left():
        if node_limit is not None and stats.nodes_expanded >= node_limit:
            break
        node = heapq.heappop(heap)[3]
        if stats.keep_nodes:
            stats.extraction_trace.append((node.ub, -heap[0][0] if heap else None))
            stats.incumbent_trace.append(lb_star)
        if not node.ub > lb_star:
            stats.nodes_pruned += 1
            continue
        stats.nodes_expanded += 1
        for rep in get_feasible_tasks(node.assigned(), problem):
            if not time_left():
                break
            for child in expand_node(node, rep, problem, lambda: next(next_node_id)):
                if not time_left():
                    break
                if not evaluate(child):
                    stats.nodes_pruned += 1
    return fallback if best is None else build_plan(best.sequences, problem)
