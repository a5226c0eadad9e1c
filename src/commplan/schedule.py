"""Min-makespan timetabling for fixed assignments and per-agent task orders.

Start times are earliest-start solutions of a difference-constraint graph
(longest path from a virtual source). Edges encode per-agent travel chains,
synchronized multi-agent starts, precedence, and oriented mutex pairs.
Earliest starts minimize every start simultaneously, hence the makespan, for
a fixed mutex orientation; orientations are enumerated exhaustively while
their count is small and oriented greedily from the unconstrained schedule
otherwise. Concurrency relations are checked on the resulting intervals and
the schedule is rejected if they fail.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Mapping, Optional, Sequence

from .tasks import RelationIndex, Task
from .workspace import GridMap, Position, astar_travel_time

MUTEX_GAP = 1e-6  # strict separation between mutex intervals, seconds
CONC_MARGIN = 0.5  # required overlap width for concurrency pairs, seconds
EXHAUSTIVE_MUTEX_LIMIT = 12


class InfeasibleSchedule(Exception):
    """No start times satisfy the constraint graph."""


class CapabilityError(ValueError):
    """An assigned group cannot cover a task's requirements."""


@dataclass(frozen=True)
class AgentContext:
    """An agent's state at the start of a planning cycle."""
    id: int
    position: Position
    ready_time: float
    v_max: float
    capabilities: frozenset[str]


@dataclass(slots=True)
class Timetable:
    """Start times kept compactly: a full solve's starts, or one task appended to
    a base timetable. `mutex_free` says that no two of its tasks are mutex partners."""
    start: Any                            # a full solve's starts by task id, or tid's start
    makespan: float
    mutex_free: bool
    base: Optional[Timetable] = None      # None for a full solve
    tid: int = -1                         # the appended task; -1 for a full solve

    def start_of(self, tid: int) -> Optional[float]:
        """tid's start, or None when the timetable does not hold tid."""
        tt = self
        while tt.base is not None and tt.tid != tid:
            tt = tt.base
        return tt.start if tt.base is not None else tt.start.get(tid)

    def flat(self) -> Timetable:
        """The same timetable as a full solve's: every start in one dict, in id order."""
        tt, starts = self, {}
        while tt.base is not None:
            starts[tt.tid] = tt.start
            tt = tt.base
        starts.update(tt.start)
        return Timetable(dict(sorted(starts.items())), self.makespan, self.mutex_free)


def group_covers(task: Task, agent_ids: Sequence[int], team: Mapping[int, AgentContext]) -> bool:
    """True if the agents can be partitioned onto the task's requirement slots."""
    if len(task.requirements) == 1:
        n, action = task.requirements[0]
        return (len(agent_ids) == n and len(set(agent_ids)) == n
                and all(action in team[a].capabilities for a in agent_ids))
    slots: list[str] = []
    for n, action in task.requirements:
        slots.extend([action] * n)
    if len(agent_ids) != len(slots):
        return False

    def match(i: int, used: set[int]) -> bool:
        if i == len(slots):
            return True
        for a in agent_ids:
            if a in used or slots[i] not in team[a].capabilities:
                continue
            used.add(a)
            if match(i + 1, used):
                return True
            used.remove(a)
        return False

    return match(0, set())


def eligible_groups(task: Task, team: Mapping[int, AgentContext]) -> list[tuple[int, ...]]:
    """All minimal agent groups able to cover the task, as sorted id tuples."""
    out: set[tuple[int, ...]] = set()
    per_req: list[list[tuple[int, ...]]] = []
    for n, action in task.requirements:
        capable = [a for a in sorted(team) if action in team[a].capabilities]
        per_req.append([c for c in itertools.combinations(capable, n)])
    for combo in itertools.product(*per_req):
        flat = [a for part in combo for a in part]
        if len(set(flat)) == len(flat):
            out.add(tuple(sorted(flat)))
    return sorted(out)


def _longest_path(task_ids: list[int], source_bound: dict[int, float],
                  edges: list[tuple[int, int, float]]) -> Optional[dict[int, float]]:
    """Earliest start times via Kahn propagation; None when the graph cycles.

    A start is final once its last predecessor pops, so ready tasks pop in any order."""
    succ: dict[int, list[tuple[int, float]]] = {t: [] for t in task_ids}
    indeg: dict[int, int] = {t: 0 for t in task_ids}
    for u, v, w in edges:
        succ[u].append((v, w))
        indeg[v] += 1
    start = {t: source_bound.get(t, 0.0) for t in task_ids}
    ready = [t for t in task_ids if indeg[t] == 0]
    done = 0
    while ready:
        u = ready.pop()
        done += 1
        for v, w in succ[u]:
            if start[u] + w > start[v]:
                start[v] = start[u] + w
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if done != len(task_ids):
        return None
    return start


def groups_of(sequences: Mapping[int, Sequence[int]]) -> dict[int, tuple[int, ...]]:
    """Each task's group: the sorted ids of the agents whose sequences hold it."""
    groups: dict[int, tuple[int, ...]] = {}
    for agent_id in sorted(sequences):
        for tid in sequences[agent_id]:
            groups[tid] = groups.get(tid, ()) + (agent_id,)
    return groups


def schedule_min_makespan(sequences: Mapping[int, Sequence[int]], tasks: Mapping[int, Task],
                          index: RelationIndex, grid: GridMap,
                          team: Mapping[int, AgentContext], *,
                          relaxed: bool = False) -> Timetable:
    """Timetable with minimal makespan for the given per-agent task orders.

    `sequences` maps agent -> ordered task ids; `groups_of` gives each task's group.
    `relaxed` drops travel and concurrency, for the planner's upper bound.

    Raises CapabilityError when a group cannot cover its task and
    InfeasibleSchedule when constraints are cyclic or a concurrency relation
    cannot hold under earliest starts.
    """
    for agent_id, seq in sequences.items():
        if len(seq) != len(set(seq)):
            raise ValueError(f"agent {agent_id}: a task appears twice in its sequence")
    groups = groups_of(sequences)
    for tid, group in groups.items():
        if not group_covers(tasks[tid], group, team):
            raise CapabilityError(f"task {tid}: group {group} cannot cover requirements")

    assigned = groups.keys()
    task_ids = sorted(assigned)
    if not task_ids:
        return Timetable({}, 0.0, True)

    # Chain and source constraints from each agent's sequence.
    source_bound: dict[int, float] = {}
    chain_edges: list[tuple[int, int, float]] = []
    for agent_id in sorted(sequences):
        ctx = team[agent_id]
        pos = ctx.position
        prev: Optional[int] = None
        for tid in sequences[agent_id]:
            target = tasks[tid].region_center
            travel = 0.0 if relaxed else astar_travel_time(pos, target, grid, ctx.v_max)
            if prev is None:
                bound = ctx.ready_time + travel
                source_bound[tid] = max(source_bound.get(tid, 0.0), bound)
            else:
                chain_edges.append((prev, tid, tasks[prev].duration + travel))
            prev = tid
            pos = target

    # Mutex pairs are sorted, so a makespan tie among their orientations does
    # not depend on the order in which the relations were listed.
    rel_edges = [(p, t, tasks[p].duration) for t, ps in index.preds.items() if t in assigned
                 for p in ps if p in assigned]
    mutex_pairs = sorted((t, m) for t, ms in index.mutex.items() if t in assigned
                         for m in ms if t < m and m in assigned)
    conc_pairs = [(t, c) for t, cs in index.conc.items() if t in assigned
                  for c in cs if t < c and c in assigned]

    fixed_edges = chain_edges + rel_edges

    def solve(oriented: list[tuple[int, int]]) -> Optional[dict[int, float]]:
        edges = list(fixed_edges)
        for u, v in oriented:
            edges.append((u, v, tasks[u].duration + MUTEX_GAP))
        return _longest_path(task_ids, source_bound, edges)

    def conc_ok(starts: dict[int, float]) -> bool:
        if relaxed:
            return True
        # Overlap must leave a margin so tick-quantized execution cannot
        # squeeze the intersection shut at runtime.
        for a, b in conc_pairs:
            sa, fa = starts[a], starts[a] + tasks[a].duration
            sb, fb = starts[b], starts[b] + tasks[b].duration
            if not max(sa, sb) + CONC_MARGIN <= min(fa, fb):
                return False
        return True

    best: Optional[dict[int, float]] = None
    best_mk = float("inf")
    if len(mutex_pairs) <= EXHAUSTIVE_MUTEX_LIMIT:
        for bits in range(1 << len(mutex_pairs)):
            oriented = [(p if not (bits >> k) & 1 else (p[1], p[0]))
                        for k, p in enumerate(mutex_pairs)]
            starts = solve(oriented)
            if starts is None or not conc_ok(starts):
                continue
            mk = max(starts[t] + tasks[t].duration for t in task_ids)
            if mk < best_mk:
                best_mk = mk
                best = starts
    else:
        # Orient every pair along one total order taken from the mutex-free
        # schedule; a single consistent order can never create a cycle.
        base = solve([])
        if base is not None:
            order = sorted(task_ids, key=lambda t: (base[t], t))
            rank = {t: i for i, t in enumerate(order)}
            oriented = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in mutex_pairs]
            starts = solve(oriented)
            if starts is not None and conc_ok(starts):
                best = starts
                best_mk = max(starts[t] + tasks[t].duration for t in task_ids)

    if best is None:
        raise InfeasibleSchedule("no feasible orientation of the constraint graph")

    return Timetable(best, best_mk, not mutex_pairs)


def append_to_timetable(sequences: Mapping[int, Sequence[int]], tid: int, base: Timetable,
                        tasks: Mapping[int, Task], index: RelationIndex, grid: GridMap,
                        team: Mapping[int, AgentContext], *,
                        relaxed: bool = False) -> Optional[Timetable]:
    """`schedule_min_makespan(sequences, ..., relaxed=relaxed)`, from the
    timetable of its base (`sequences` less task `tid` at the tails that
    end in it) and the start of tid alone.

    Exact when tid has no mutex or concurrency partner and no successor in the
    base, and the base holds no mutex pair: tid then only adds edges into
    itself, so every base start, the empty mutex orientation and the base's
    concurrency checks stand. Otherwise returns None for the full solve.
    Raises ValueError and CapabilityError as the full solve does.
    """
    holders = tuple([a for a in sorted(sequences) if sequences[a] and sequences[a][-1] == tid])
    for agent_id in holders:
        if sequences[agent_id].count(tid) > 1:
            raise ValueError(f"agent {agent_id}: a task appears twice in its sequence")
    if not holders or any(tid in seq for a, seq in sequences.items() if a not in holders):
        return None
    task = tasks[tid]
    if not group_covers(task, holders, team):
        raise CapabilityError(f"task {tid}: group {holders} cannot cover requirements")
    if (not base.mutex_free
            or any(base.start_of(o) is not None
                   for view in (index.mutex, index.conc, index.succs) for o in view.get(tid, ()))):
        return None

    # The same float expressions as the full solve's source bounds and edges.
    start = 0.0
    for agent_id in holders:
        seq, ctx = sequences[agent_id], team[agent_id]
        prev = tasks[seq[-2]] if len(seq) > 1 else None
        pos = ctx.position if prev is None else prev.region_center
        travel = 0.0 if relaxed else astar_travel_time(pos, task.region_center, grid, ctx.v_max)
        start = max(start, ctx.ready_time + travel if prev is None
                    else base.start_of(seq[-2]) + (prev.duration + travel))
    for p in index.preds.get(tid, ()):
        if (p_start := base.start_of(p)) is not None:
            start = max(start, p_start + tasks[p].duration)
    return Timetable(start, max(base.makespan, start + task.duration), True, base, tid)
