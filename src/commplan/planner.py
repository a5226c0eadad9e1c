"""Joint optimization of task assignment and the next communication event.

Best-first branch and bound over partial collective plans. Each node fixes a
set of assigned tasks with per-agent orders; its lower bound is the rate of
the best full plan reachable by greedily appending tasks (scheduling each
candidate and optimizing its communication event), and its upper bound is a
zero-travel relaxation that dominates every descendant's achievable rate.
The search is anytime: the incumbent is always a feasible full plan. One
`Search` holds a cycle's heap, incumbent and counts, and `stopped()` is its one
test of the generated limit and the budget; nothing in it refers back to itself,
so the cycle's problem and memo are freed as soon as `cocoplan` returns.

Every node, the root included, goes through one step that bounds it, keeps
a better incumbent and pushes the node while it can still win. Each distinct
node key is bounded once per search, and the lower bound is skipped
when the upper bound, or the same bound floored at the time the node's own
timetable frees its last agent (`greedy_cap`), shows that it cannot beat the
incumbent. The lower bound is read only to raise the incumbent, so the skip
moves no push, prune or incumbent. The cap holds because every greedy
candidate extends the node at its tails: that only adds timetable edges, so
no node task starts earlier, no agent is free earlier, and the default event
optimizer never meets before the last one is. Where an extension may reorient
a mutex pair the node could not (more than EXHAUSTIVE_MUTEX_LIMIT pairs, or
mutex and concurrency pairs in one cycle) or an event optimizer is custom,
there is no cap. Bounds compare
rates only, from one memo per cycle of each candidate's timetable, zero-travel
timetable and rate; a child's timetables append to its parent's when exact, the
greedy completion stops at a candidate that is free too late to win without
optimizing its event and reads the node's own rate only when its cap cannot
tell, and full plans are built for the fallback and incumbent. Each assigned
set has one entry per cycle holding its addable clusters and the duration
and capacity floors of `_rate_bound`. A candidate is held one way, as
its key (per-agent sequences in team order); a node is its key and its assigned
set, both worked out once, when the node is built, and a key becomes a dict only
for the scheduler, the event optimizer and the returned plan.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .meeting import DEFAULT_GAP, CommEvent, com_opt, com_opt_fast
from .radio import CommParams, comm_graph, is_connected
from .schedule import (EXHAUSTIVE_MUTEX_LIMIT, AgentContext, InfeasibleSchedule, Timetable,
                       append_to_timetable, eligible_groups, groups_of, schedule_min_makespan)
from .tasks import RelationIndex, Task
from .workspace import GridMap, astar_travel_time

IMPROVEMENT_EPS = 1e-9

SequencesKey = tuple[tuple[int, ...], ...]  # per-agent sequences in team order
_UNSET = object()  # a memo slot not computed yet; None means infeasible


@dataclass
class CollectivePlan:
    sequences: dict[int, tuple[int, ...]]   # agent -> ordered task ids
    timetable: Timetable                    # flat: `start` maps each task to its start
    event: CommEvent
    rate: float

    @property
    def groups(self) -> dict[int, tuple[int, ...]]:
        """Task -> the agents whose sequences hold it."""
        return groups_of(self.sequences)

    def task_count(self) -> int:
        return len(self.timetable.start)


@dataclass(slots=True)
class PlanNode:
    depth: int
    key: SequencesKey
    assigned: frozenset[int]                # the tasks of `key`
    ub: float = math.inf


@dataclass
class PlannerProblem:
    """Inputs shared by every bound evaluation of one planning cycle."""
    team: dict[int, AgentContext]
    tasks: dict[int, Task]                  # detected; those in `completed` are dropped
    index: RelationIndex                    # the caller's; the simulator holds one per run
    grid: GridMap
    params: CommParams
    now: float
    completed: frozenset[int] = frozenset()
    event_optimizer: Optional[Callable[[Mapping[int, AgentContext]], Optional[CommEvent]]] = None
    gap: float = DEFAULT_GAP
    groups: dict[int, list[tuple[int, ...]]] = field(init=False, repr=False)  # eligible, per task
    slot: dict[int, int] = field(init=False, repr=False)  # agent -> its place in a key
    # Whether a tail extension never starts a task of its base earlier (see greedy_cap).
    extensions_monotone: bool = field(init=False, repr=False)
    # Per candidate key: [timetable, zero-travel timetable, rate, event].
    _memo: dict[SequencesKey, list] = field(default_factory=dict, repr=False)
    # Per assigned set: [addable clusters, _rate_bound's floors].
    _by_assigned: dict[frozenset[int], list] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.team:
            raise ValueError("team must be nonempty")
        self.tasks = {t: task for t, task in self.tasks.items() if t not in self.completed}
        self.groups = {t: eligible_groups(task, self.team) for t, task in self.tasks.items()}
        self.slot = {a: i for i, a in enumerate(self.team)}
        mutex = sum(m > t and m in self.tasks for t in self.tasks for m in self.index.mutex.get(t, ()))
        conc = any(c in self.tasks for t in self.tasks for c in self.index.conc.get(t, ()))
        self.extensions_monotone = mutex <= EXHAUSTIVE_MUTEX_LIMIT and not (mutex and conc)

    def _default_event(self, last: Mapping[int, AgentContext]) -> CommEvent:
        if last == self.team:  # no agent holds a task: meet now where the team stands, if linked
            positions = {a: ctx.position for a, ctx in last.items()}
            if is_connected(comm_graph(positions, self.grid, self.params)):
                return CommEvent(self.now, positions)
        return com_opt_fast(last, self.grid, self.params)

    def floors(self, assigned: frozenset[int]) -> list[float]:
        """For j = 1, 2, ... addable tasks, the least time after now that a plan of
        `assigned` plus j of them takes: the larger of the j-th smallest addable
        duration and the work of `assigned` plus the j smallest addable works spread
        over the team. Worked out once per assigned set and cycle."""
        entry = self._by_assigned.setdefault(assigned, [_UNSET, _UNSET])
        if entry[1] is _UNSET:
            addable = [self.tasks[t] for t in sorted(self.tasks)
                       if t not in assigned and self.groups[t]]
            durs = sorted(t.duration for t in addable)
            works = sorted(t.duration * t.agents_required for t in addable)
            w_assigned = sum(self.tasks[t].duration * self.tasks[t].agents_required
                             for t in sorted(assigned))
            n_team = len(self.team)
            w_prefix = 0.0
            floors = []
            for dur, work in zip(durs, works):
                w_prefix += work
                floors.append(max(dur, (w_assigned + w_prefix) / n_team))
            entry[1] = floors
        return entry[1]

    def record(self, key: SequencesKey, relaxed: bool = False) -> Optional[Timetable]:
        """`schedule_min_makespan(key's sequences, ..., relaxed=relaxed)`, None when
        infeasible; appended to a memoized base (less one tail task) if exact."""
        entry = self._memo.setdefault(key, [_UNSET] * 4)
        if entry[relaxed] is _UNSET:
            entry[relaxed] = self._schedule(key, relaxed)
        return entry[relaxed]

    def _schedule(self, key: SequencesKey, relaxed: bool) -> Optional[Timetable]:
        sequences = dict(zip(self.team, key))
        for tid in sorted({seq[-1] for seq in key if seq}):
            base = self._memo.get(tuple([seq[:-1] if seq and seq[-1] == tid else seq
                                         for seq in key]))
            if base is not None and isinstance(base[relaxed], Timetable):
                record = append_to_timetable(sequences, tid, base[relaxed], self.tasks,
                                             self.index, self.grid, self.team, relaxed=relaxed)
                if record is not None:
                    return record
        try:
            return schedule_min_makespan(sequences, self.tasks, self.index, self.grid,
                                         self.team, relaxed=relaxed)
        except InfeasibleSchedule:
            return None

    def top(self, key: SequencesKey, record: Timetable) -> float:
        """When the last agent is free: its last task ends, or it is ready holding none."""
        return max(record.start_of(s[-1]) + self.tasks[s[-1]].duration if s else ctx.ready_time
                   for s, ctx in zip(key, self.team.values()))

    def rate_cap(self, key: SequencesKey, record: Timetable) -> float:
        """At least `rate(key)` with the default optimizer: it never meets before `top`."""
        top = self.top(key, record)
        return len(set().union(*key)) / (top - self.now) if top > self.now else math.inf

    def rate(self, key: SequencesKey) -> Optional[float]:
        """Rate of `build_plan(key, self)`, None when that is None; each
        candidate's event is optimized once per cycle and kept beside its rate."""
        entry = self._memo.setdefault(key, [_UNSET] * 4)
        if entry[2] is _UNSET:
            record, event = self.record(key), None
            if record is not None:
                # Not stored on the problem: a bound method there would make it a reference
                # cycle, and its memo would outlive the cycle until the collector runs.
                optimizer = self.event_optimizer or self._default_event
                event = optimizer(last_state(dict(zip(self.team, key)), record, self.team,
                                             self.tasks))
            count = len(set().union(*key))
            entry[2] = None if event is None else (
                count / (event.time - self.now) if count and event.time > self.now else 0.0)
            entry[3] = event
        return entry[2]

    def _known_or_cap(self, key: SequencesKey) -> Optional[float]:
        """The memo's rate of `key`, else its rate cap (default optimizer with a
        schedule), else its rate, optimizing its event."""
        if self.event_optimizer is None and self._memo.get(key, (_UNSET,) * 4)[2] is _UNSET:
            record = self.record(key)
            if record is not None:
                return self.rate_cap(key, record)
        return self.rate(key)

    def beats(self, key: SequencesKey, best: SequencesKey) -> Optional[bool]:
        """Whether `key`'s rate exceeds `best`'s by more than IMPROVEMENT_EPS, None
        when `key` has no plan; a `best` without one loses to every key with one.

        A rate never exceeds its cap, so a side's event is optimized only when the
        other side's cap or rate cannot decide without it."""
        best_hi = self._known_or_cap(best)
        hi = self._known_or_cap(key)
        if hi is None:
            return None
        if (best_hi is not None and hi <= best_hi + IMPROVEMENT_EPS
                and hi <= self.rate(best) + IMPROVEMENT_EPS):
            return False
        rate = self.rate(key)
        return (best_hi is None or rate > best_hi + IMPROVEMENT_EPS
                or rate > self.rate(best) + IMPROVEMENT_EPS)


def get_feasible_tasks(assigned: frozenset[int], problem: PlannerProblem) -> list[tuple[int, ...]]:
    """The concurrency clusters that can be added next, each as its unassigned
    members in id order; expansion inserts a cluster's members jointly.

    A cluster (`RelationIndex.cluster`) is addable when every unassigned member
    is detected, not completed, coverable by the team, and has all precedence
    predecessors already assigned or completed.
    """
    entry = problem._by_assigned.setdefault(assigned, [_UNSET, _UNSET])
    if entry[0] is not _UNSET:
        return list(entry[0])
    preds = problem.index.preds
    done = assigned | problem.completed

    def member_ok(t: int, cluster: tuple[int, ...]) -> bool:
        # A member outside the known set (undetected, completed in an earlier
        # cycle, or an id that never becomes a task) makes the required overlap
        # impossible for now, so the whole cluster stays out. Members are
        # unassigned by construction.
        if t not in problem.tasks or not problem.groups[t]:
            return False
        # Predecessors must be assigned, completed, or co-added in the same
        # cluster insertion.
        return all(p in done or p in cluster for p in preds.get(t, ()))

    out = []
    seen: set[int] = set()
    for t in sorted(problem.tasks):
        if t in assigned or t in seen:
            continue
        cluster = tuple(m for m in problem.index.cluster.get(t, (t,)) if m not in assigned)
        seen.update(cluster)
        if all(member_ok(m, cluster) for m in cluster):
            out.append(cluster)
    entry[0] = out
    return list(out)


def _related_to_assigned(cluster: Sequence[int], assigned: frozenset[int],
                         index: RelationIndex) -> bool:
    """True if a relation of any kind joins a cluster member to an assigned task."""
    views = (index.preds, index.succs, index.mutex, index.conc)
    return any(o in assigned for t in cluster for view in views for o in view.get(t, ()))


def expand_node(node: PlanNode, cluster: Sequence[int], problem: PlannerProblem) -> list[PlanNode]:
    """Children assigning an addable cluster to every eligible group choice.

    Tasks unrelated to the already-assigned set are appended at sequence
    tails only; related tasks are additionally tried at every interior
    insertion position, since only relations can make interiors matter.
    Multi-task clusters always use interior insertion so every relative
    placement of the jointly added members stays reachable.
    """
    interior = len(cluster) > 1 or _related_to_assigned(cluster, node.assigned, problem.index)
    placements = [node.key]
    for t in cluster:  # extend each placement so far by each of t's, in depth-first order
        extended = []
        for key in placements:
            for group in problem.groups[t]:
                slots = [problem.slot[a] for a in group]
                spots = [range(len(key[s]) + 1) if interior else (len(key[s]),) for s in slots]
                for combo in itertools.product(*spots):
                    seqs = list(key)  # agents outside the group share their tuples
                    for s, pos in zip(slots, combo):
                        seqs[s] = key[s][:pos] + (t,) + key[s][pos:]
                    extended.append(tuple(seqs))
        placements = extended
    assigned = node.assigned.union(cluster)  # shared by the children
    return [PlanNode(node.depth + 1, key, assigned) for key in placements]


def last_state(sequences: Mapping[int, Sequence[int]], timetable: Timetable,
               team: Mapping[int, AgentContext],
               tasks: Mapping[int, Task]) -> dict[int, AgentContext]:
    """Each agent's context once its sequence is done: free at its last task's
    center when the timetable finishes it, or its own context when it holds none."""
    last = dict(team)
    for a, ctx in team.items():
        seq = sequences.get(a)
        if seq:
            last[a] = AgentContext(a, tasks[seq[-1]].region_center,
                                   timetable.start_of(seq[-1]) + tasks[seq[-1]].duration,
                                   ctx.v_max, ctx.capabilities)
    return last


def build_plan(key: SequencesKey, problem: PlannerProblem) -> Optional[CollectivePlan]:
    """Schedule + event-optimize a candidate assignment; None when infeasible."""
    if problem.rate(key) is None:
        return None
    record, _, rate, event = problem._memo[key]
    return CollectivePlan(dict(zip(problem.team, key)), record.flat(), event, rate)


def low_bound(node: PlanNode, problem: PlannerProblem) -> Optional[SequencesKey]:
    """The key of the best greedy completion of the node's partial plan; its
    rate, `problem.rate(key)`, is the node's lower bound.

    Iteratively appends the feasible cluster whose cheapest eligible group
    minimizes the worst member travel time, schedules it, and keeps going
    while the completion rate strictly improves. Returns the best candidate
    seen (the node's own plan counts), or None when no candidate schedules.
    Candidates are compared by `PlannerProblem.beats`, which optimizes an event
    only when the rate caps cannot decide.
    """
    assigned = node.assigned
    best = node.key
    skipped: set[tuple[int, ...]] = set()
    improved = True
    while improved:
        improved = False
        ends = {a: problem.tasks[s[-1]].region_center if s else problem.team[a].position
                for a, s in zip(problem.team, best)}
        scored = []
        for cluster in get_feasible_tasks(assigned, problem):
            if cluster in skipped:
                continue
            chosen: dict[int, tuple[int, ...]] = {}
            cost = 0.0
            for t in cluster:
                target = problem.tasks[t].region_center
                travel = {a: astar_travel_time(ends[a], target, problem.grid, problem.team[a].v_max)
                          for a in set().union(*problem.groups[t])}  # shared by a's groups
                worst, chosen[t] = min((max(map(travel.__getitem__, g)), g)
                                       for g in problem.groups[t])
                cost = max(cost, worst)
            scored.append((cost, cluster, chosen))

        for cost, cluster, chosen in sorted(scored):  # disjoint clusters never tie
            seqs = list(best)
            for t in cluster:
                for a in chosen[t]:
                    seqs[problem.slot[a]] += (t,)
            key = tuple(seqs)
            better = problem.beats(key, best)
            if better is None:
                skipped.add(cluster)
                continue
            if better:
                assigned, best, improved = assigned.union(cluster), key, True
            break
    return None if problem.rate(best) is None else best


def _rate_bound(assigned: frozenset[int], problem: PlannerProblem, floor0: float) -> float:
    """Best count/time quotient over adding j of the addable tasks, for a plan of
    the `assigned` tasks whose every completion meets at least `floor0` after now.

    Adding j tasks also costs at least the j-th of `problem.floors(assigned)`.
    """
    count0 = len(assigned)
    return max([count0 / floor0 if count0 and floor0 > 0 else 0.0]
               + [(count0 + j) / max(floor0, floor)
                  for j, floor in enumerate(problem.floors(assigned), 1)])


def up_bound(node: PlanNode, problem: PlannerProblem) -> float:
    """Rate bound under instantaneous travel, sound for the whole subtree.

    Descendants only insert tasks, so their event can never precede the
    zero-travel makespan of this node's plan; with `_rate_bound`'s duration
    and capacity floors, the best count/time quotient over j dominates every
    descendant's achievable rate.
    """
    record = problem.record(node.key, relaxed=True)
    if record is None:
        return -math.inf  # constraint cycle: no descendant can schedule either
    return _rate_bound(node.assigned, problem, max(record.makespan - problem.now, 0.0))


def greedy_cap(node: PlanNode, problem: PlannerProblem) -> float:
    """At least the rate of `low_bound(node, problem)`; math.inf when that cannot be told.

    `up_bound`'s formula with the node's own `top` (travel included) as the
    floor. Every candidate low_bound scores is the node or a tail extension of
    it. An extension only adds edges, so no node task starts earlier under the
    same mutex orientation, and its best orientation restricted to the node's
    tasks is one the node's solve also tried: its `top` is at least the node's,
    and the default optimizer never meets before `top` (`rate_cap`). That takes
    an exhaustive orientation search (at most EXHAUSTIVE_MUTEX_LIMIT mutex pairs
    among the cycle's tasks) and no concurrency check that refused the node an
    orientation an extension keeps (no cycle with both a mutex and a
    concurrency pair); a custom event optimizer or a node that does not
    schedule gets math.inf.
    """
    if problem.event_optimizer is not None or not problem.extensions_monotone:
        return math.inf
    record = problem.record(node.key)
    if record is None:
        return math.inf
    top = problem.top(node.key, record)
    return _rate_bound(node.assigned, problem, top - problem.now) if top > problem.now else math.inf


@dataclass
class SearchStats:
    nodes_generated: int = 0
    nodes_expanded: int = 0
    nodes_pruned: int = 0


def zero_task_plan(problem: PlannerProblem) -> CollectivePlan:
    """Fallback plan assigning nothing; its event is the event optimizer's for
    the team as it stands (by default, now where it stands when it is linked)."""
    plan = build_plan(((),) * len(problem.team), problem)  # memoizes the root's first candidate
    if plan is not None:
        return plan
    # Custom event optimizers may refuse even the empty plan; meet at com_opt's event instead.
    event = com_opt(problem.team, problem.grid, problem.params, gap=problem.gap)
    return CollectivePlan(dict.fromkeys(problem.team, ()), Timetable({}, 0.0, True), event, 0.0)


class Search:
    """One cycle's branch and bound; a plain class, as dataclass methods enlarge each import."""

    def __init__(self, problem: PlannerProblem, budget: Optional[float],
                 node_limit: Optional[int], generated_limit: Optional[int], stats: SearchStats):
        self.problem = problem
        self.stats = stats
        self.deadline = math.inf if budget is None else _time.monotonic() + budget
        self.node_limit = math.inf if node_limit is None else node_limit
        self.generated_limit = math.inf if generated_limit is None else generated_limit
        self.fallback = zero_task_plan(problem)
        self.lb_star = self.fallback.rate
        self.best: Optional[SequencesKey] = None  # the incumbent, once a bound beats the fallback
        # Ties break by push order, so heap entries never compare their nodes.
        self.heap: list[tuple[float, int, int, PlanNode]] = []
        self.pushes = itertools.count()
        self.bounded: dict[SequencesKey, float] = {}  # the ub of every node seen

    def stopped(self) -> bool:
        """True once the generated limit is reached or the budget is spent."""
        return (self.stats.nodes_generated >= self.generated_limit
                or _time.monotonic() >= self.deadline)

    def evaluate(self, node: PlanNode) -> bool:
        """Bound the node, keep a better incumbent; True if the node is pushed."""
        if node.key in self.bounded:
            # lb_star never falls, so a repeat can neither set the incumbent
            # nor reach a low_bound its first visit skipped.
            node.ub = self.bounded[node.key]
        else:
            node.ub = up_bound(node, self.problem)
            # lb <= ub + 1e-9 (criterion 3) and lb <= greedy_cap, so below either
            # cap lb cannot beat lb_star; the cap only skips low_bound.
            if (node.ub + IMPROVEMENT_EPS > self.lb_star
                    and greedy_cap(node, self.problem) + IMPROVEMENT_EPS > self.lb_star):
                best = low_bound(node, self.problem)
                if best is not None and (rate := self.problem.rate(best)) > self.lb_star:
                    self.best, self.lb_star = best, rate
            self.bounded[node.key] = node.ub
        self.stats.nodes_generated += 1
        if node.ub > self.lb_star:
            heapq.heappush(self.heap, (-node.ub, -node.depth, next(self.pushes), node))
            return True
        return False

    def run(self) -> CollectivePlan:
        """Expand the best node until none is left, node_limit nodes are expanded
        or the search is stopped; the incumbent's plan, else the fallback."""
        problem, stats = self.problem, self.stats
        # Only children count in nodes_pruned; a root that is not pushed does not.
        self.evaluate(PlanNode(0, ((),) * len(problem.team), frozenset()))
        while self.heap and stats.nodes_expanded < self.node_limit and not self.stopped():
            node = heapq.heappop(self.heap)[3]
            if not node.ub > self.lb_star:
                stats.nodes_pruned += 1
                continue
            stats.nodes_expanded += 1
            for child in (child for cluster in get_feasible_tasks(node.assigned, problem)
                          for child in expand_node(node, cluster, problem)):
                if self.stopped():
                    break  # and expand no further cluster
                if not self.evaluate(child):
                    stats.nodes_pruned += 1
        return self.fallback if self.best is None else build_plan(self.best, problem)


def cocoplan(team: Mapping[int, AgentContext], tasks: Mapping[int, Task],
             index: RelationIndex, grid: GridMap, params: CommParams,
             budget: Optional[float] = None, *, now: float = 0.0,
             completed: frozenset[int] = frozenset(),
             event_optimizer: Optional[Callable[[Mapping[int, AgentContext]],
                                              Optional[CommEvent]]] = None,
             gap: float = DEFAULT_GAP, node_limit: Optional[int] = None,
             generated_limit: Optional[int] = None,
             stats: Optional[SearchStats] = None) -> CollectivePlan:
    """Best collective plan for the current cycle, found by branch and bound.

    Anytime: with a wall-clock budget or node limit the incumbent found so
    far is returned; with neither, the search is exhaustive and exact. The
    returned plan always has a connected communication event and a timetable
    satisfying every temporal relation among its tasks.
    """
    problem = PlannerProblem(team=dict(team), tasks=dict(tasks), index=index, grid=grid,
                             params=params, now=now, completed=completed,
                             event_optimizer=event_optimizer, gap=gap)
    return Search(problem, budget, node_limit, generated_limit,
                  SearchStats() if stats is None else stats).run()
