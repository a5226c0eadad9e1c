"""Shared fixtures, random-instance builders, and independent oracles."""

from __future__ import annotations

import contextlib
import itertools
import math
import random
from pathlib import Path

import pytest

from commplan import planner
from commplan.planner import (IMPROVEMENT_EPS, PlanNode, PlannerProblem, _related_to_assigned,
                              build_plan, get_feasible_tasks)
from commplan.radio import CommParams
from commplan.schedule import AgentContext, eligible_groups
from commplan.tasks import RelationKind, Task, TemporalRelation
from commplan.workspace import GridMap, Position, astar_travel_time, parse_grid


def empty_grid(width=12, height=12, resolution=1.0) -> GridMap:
    res = str(int(resolution)) if float(resolution).is_integer() else repr(resolution)
    return parse_grid(f"{width} {height} {res}\n" + "\n".join(["." * width] * height))


def grid_from_rows(rows, resolution=1.0) -> GridMap:
    res = str(int(resolution)) if float(resolution).is_integer() else repr(resolution)
    return parse_grid(f"{len(rows[0])} {len(rows)} {res}\n" + "\n".join(rows))


def random_connected_grid(rng: random.Random, width=10, height=10, density=0.12) -> GridMap:
    """Random map whose free cells form one 4-connected component."""
    while True:
        rows = ["".join("#" if rng.random() < density else "." for _ in range(width))
                for _ in range(height)]
        grid = grid_from_rows(rows)
        free = grid.free_cells()
        if not free:
            continue
        seen = {free[0]}
        frontier = [free[0]]
        fset = set(free)
        while frontier:
            nxt = []
            for (x, y) in frontier:
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    c = (x + dx, y + dy)
                    if c in fset and c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        if len(seen) == len(fset):
            return grid


def criterion7_instance():
    """Acceptance criterion 7's planning input: 10 agents and 18 tasks on subt.map."""
    grid = parse_grid((Path(__file__).parent / "data" / "subt.map").read_text())
    rng = random.Random(4242)
    free = grid.free_cells()
    team = {}
    cells = rng.sample([c for c in free if c[1] < 12], 10)
    caps = [frozenset({"work"}), frozenset({"work", "aux"})]
    for i, c in enumerate(cells):
        team[i] = AgentContext(i, grid.center(c), 0.0, 2.0, caps[i % 2])
    tasks = {}
    for t in range(18):
        c = grid.center(rng.choice(free))
        req = ((1, "work"),) if t % 4 else ((2, "work"),)
        tasks[t] = Task(t, c, 1.0, rng.uniform(5.0, 20.0), req)
    rels = [TemporalRelation(0, 1, RelationKind.PRECEDENCE),
            TemporalRelation(4, 7, RelationKind.PRECEDENCE),
            TemporalRelation(9, 12, RelationKind.MUTEX)]
    return grid, team, tasks, rels


def random_planner_instance(rng: random.Random, max_agents=3, max_tasks=5):
    """Small random instance: connected 10x10 map, 2-3 agents, 2-5 tasks."""
    grid = random_connected_grid(rng)
    free = grid.free_cells()
    n_agents = rng.randint(2, max_agents)
    actions = ["a", "b"]
    team = {}
    cells = rng.sample(free, n_agents)
    for i in range(n_agents):
        team[i] = AgentContext(i, grid.center(cells[i]), 0.0, 2.0,
                               frozenset(rng.sample(actions, rng.randint(1, 2))))
    n_tasks = rng.randint(2, max_tasks)
    tasks = {}
    for t in range(n_tasks):
        cell = free[rng.randrange(len(free))]
        count = 1 if rng.random() < 0.8 else 2
        tasks[t] = Task(t, grid.center(cell), 0.5, rng.uniform(1.0, 10.0),
                        ((count, rng.choice(actions)),))
    tasks = {t: task for t, task in tasks.items() if eligible_groups(task, team)}
    relations = []
    ids = sorted(tasks)
    if len(ids) >= 2 and rng.random() < 0.7:
        pairs = list(itertools.combinations(ids, 2))
        rng.shuffle(pairs)
        for (p, q) in pairs[:rng.randint(1, 2)]:
            relations.append(TemporalRelation(p, q, rng.choice(list(RelationKind))))
    return grid, team, tasks, relations


def relations_between(relations, ids) -> list[TemporalRelation]:
    """Relations whose endpoints both lie in `ids`."""
    return [r for r in relations if r.first in ids and r.second in ids]


def plan_key(team, sequences) -> tuple[tuple[int, ...], ...]:
    """The planner's key for `sequences`: per-agent tuples in team order."""
    return tuple(tuple(sequences.get(a, ())) for a in team)


def plan_node(team, sequences, depth=0) -> PlanNode:
    """A search node over `team` holding `sequences`, with the key and assigned
    set the search gives a node, worked out here from the sequences alone."""
    return PlanNode(depth, plan_key(team, sequences), frozenset().union(*sequences.values()))


# -- independent oracles ------------------------------------------------------

def los_oracle(a: Position, b: Position, grid: GridMap) -> float:
    """Liang-Barsky clipping of the segment against every occupied cell."""
    total = 0.0
    dx, dy = b.x - a.x, b.y - a.y
    seg = math.hypot(dx, dy)
    if seg == 0:
        return 0.0
    res = grid.resolution
    for cy in range(grid.height_cells):
        for cx in range(grid.width_cells):
            if not grid.occupancy[cy, cx]:
                continue
            x0, x1 = cx * res, (cx + 1) * res
            y0, y1 = cy * res, (cy + 1) * res
            t0, t1 = 0.0, 1.0
            ok = True
            for p, q in ((-dx, a.x - x0), (dx, x1 - a.x), (-dy, a.y - y0), (dy, y1 - a.y)):
                if p == 0:
                    if q < 0:
                        ok = False
                        break
                else:
                    r = q / p
                    if p < 0:
                        t0 = max(t0, r)
                    else:
                        t1 = min(t1, r)
            if ok and t0 < t1:
                total += (t1 - t0) * seg
    return total


def reference_los(a: Position, b: Position, grid: GridMap) -> float:
    """`workspace.los_obstacle_length` as it was before its free-box test and
    flat mask: the same cell walk, reading `grid.occupancy` at every step."""
    grid.require_inside(a)
    grid.require_inside(b)
    if (b.x, b.y) < (a.x, a.y):
        a, b = b, a
    dx = b.x - a.x
    dy = b.y - a.y
    seg_len = math.hypot(dx, dy)
    if seg_len == 0.0:
        return 0.0
    res = grid.resolution
    cx = min(int(a.x / res), grid.width_cells - 1)
    cy = min(int(a.y / res), grid.height_cells - 1)
    end_cx = min(int(b.x / res), grid.width_cells - 1)
    end_cy = min(int(b.y / res), grid.height_cells - 1)
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    if dx != 0:
        t_max_x = ((cx + (1 if dx > 0 else 0)) * res - a.x) / dx
        t_delta_x = res / abs(dx)
    else:
        t_max_x = t_delta_x = math.inf
    if dy != 0:
        t_max_y = ((cy + (1 if dy > 0 else 0)) * res - a.y) / dy
        t_delta_y = res / abs(dy)
    else:
        t_max_y = t_delta_y = math.inf
    total = 0.0
    t = 0.0
    while True:
        t_next = min(t_max_x, t_max_y, 1.0)
        if grid.occupancy[cy, cx]:
            total += (t_next - t) * seg_len
        if t_next >= 1.0 or (cx == end_cx and cy == end_cy):
            break
        t = t_next
        if t_max_x <= t_max_y:
            if t_max_x == t_max_y:
                cy += step_y
                t_max_y += t_delta_y
            cx += step_x
            t_max_x += t_delta_x
        else:
            cy += step_y
            t_max_y += t_delta_y
        if not (0 <= cx < grid.width_cells and 0 <= cy < grid.height_cells):
            break
    return max(total, 0.0)


def dijkstra_oracle(grid: GridMap, start, goal) -> float:
    """Plain Dijkstra over the same 8-connected no-corner-cut graph."""
    import heapq
    res = grid.resolution
    dist = {start: 0.0}
    heap = [(0.0, start)]
    visited = set()
    while heap:
        d, cur = heapq.heappop(heap)
        if cur in visited:
            continue
        if cur == goal:
            return d
        visited.add(cur)
        cx, cy = cur
        for ox, oy in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
            nx, ny = cx + ox, cy + oy
            if not grid.is_free_cell((nx, ny)):
                continue
            if ox != 0 and oy != 0 and (grid.occupancy[cy, nx] or grid.occupancy[ny, cx]):
                continue
            step = res * math.sqrt(2) if ox != 0 and oy != 0 else res
            nd = d + step
            if nd < dist.get((nx, ny), math.inf):
                dist[(nx, ny)] = nd
                heapq.heappush(heap, (nd, (nx, ny)))
    return math.inf


class UnionFind:
    def __init__(self, nodes):
        self.parent = {n: n for n in nodes}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def one_component(self):
        roots = {self.find(n) for n in self.parent}
        return len(roots) == 1


def enumerate_candidate_plans(problem: PlannerProblem, relations):
    """Every admissible (subset, order, group assignment) candidate, evaluated
    with the same scheduling and event optimization as any plan. Yields
    (rate, sequences, groups) for the feasible ones. Gating reads `relations`,
    the list the problem's index was built from, not the index."""
    tasks = problem.tasks
    ids = sorted(tasks)
    preds = {t: [r.first for r in relations
                 if r.kind is RelationKind.PRECEDENCE and r.second == t] for t in ids}
    conc = {t: {r.second if r.first == t else r.first for r in relations
                if r.kind is RelationKind.CONCURRENCY and t in (r.first, r.second)} & set(ids)
            for t in ids}
    for r in range(0, len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            sset = set(subset)
            if any(p not in sset for t in subset for p in preds[t]):
                continue
            if any((conc[t] - sset) for t in subset):
                continue
            seen = set()
            for order in itertools.permutations(subset):
                for combo in itertools.product(*[eligible_groups(tasks[t], problem.team)
                                                 for t in order]):
                    seqs = {a: [] for a in problem.team}
                    groups = {}
                    for t, grp in zip(order, combo):
                        groups[t] = grp
                        for a in grp:
                            seqs[a].append(t)
                    key = (tuple(tuple(seqs[a]) for a in sorted(seqs)),
                           tuple(sorted(groups.items())))
                    if key in seen:
                        continue
                    seen.add(key)
                    plan = build_plan(plan_key(problem.team, seqs), problem)
                    if plan is not None:
                        yield plan.rate, {a: tuple(s) for a, s in seqs.items()}, dict(groups)


def exhaustive_best_rate(problem: PlannerProblem, relations) -> float:
    """Brute-force optimum over (subset, order, group assignment)."""
    best_rate = 0.0
    for rate, _, _ in enumerate_candidate_plans(problem, relations):
        if rate > best_rate:
            best_rate = rate
    return best_rate


@contextlib.contextmanager
def recorded_nodes():
    """Every `PlanNode` the planner builds inside the block, in build order;
    the search sets each one's bounds as it evaluates it."""
    nodes = []
    build = planner.PlanNode

    def record(*args, **kwargs):
        nodes.append(build(*args, **kwargs))
        return nodes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(planner, "PlanNode", record)
        yield nodes


def reference_feasible_tasks(assigned: frozenset[int], problem: PlannerProblem) -> list[int]:
    """`planner.get_feasible_tasks` as it was before clusters were worked out once
    per run: each cycle merges the concurrency components over its known tasks,
    and a cluster stays out while a member has a partner outside them."""
    clusters = {t: (t,) for t in problem.tasks}
    for t in sorted(problem.tasks):
        for p in problem.index.conc.get(t, ()):
            if p in problem.tasks and p not in clusters[t]:
                merged = tuple(sorted(clusters[t] + clusters[p]))
                clusters.update(dict.fromkeys(merged, merged))
    done = assigned | problem.completed

    def member_ok(t, cluster):
        return (bool(problem.groups[t])
                and all(p in done or p in cluster for p in problem.index.preds.get(t, ()))
                and all(p in problem.tasks for p in problem.index.conc.get(t, ())))

    out, seen = [], set()
    for t in sorted(problem.tasks):
        if t in assigned or t in seen:
            continue
        cluster = [m for m in clusters[t] if m not in assigned]
        seen.update(cluster)
        if all(member_ok(m, set(cluster)) for m in cluster):
            out.append(min(cluster))
    return out


def reference_expand_node(node, task_id: int, problem: PlannerProblem):
    """`planner.expand_node` as it was when a node held a sequences dict: the
    children's (sequences, assigned set), in the order the search generates them."""
    cluster = [m for m in problem.index.cluster.get(task_id, (task_id,)) if m not in node.assigned]
    interior = len(cluster) > 1 or _related_to_assigned(cluster, node.assigned, problem.index)
    placements = [dict(zip(problem.team, node.key))]
    for t in cluster:
        extended = []
        for seqs in placements:
            for group in problem.groups[t]:
                slots = [range(len(seqs[a]) + 1) if interior else (len(seqs[a]),) for a in group]
                for combo in itertools.product(*slots):
                    new_seqs = dict(seqs)
                    for a, pos in zip(group, combo):
                        new_seqs[a] = seqs[a][:pos] + (t,) + seqs[a][pos:]
                    extended.append(new_seqs)
        placements = extended
    return [(seqs, node.assigned.union(cluster)) for seqs in placements]


def reference_low_bound(node, problem: PlannerProblem, scored: list):
    """`planner.low_bound` as a plain greedy that builds the full plan of every
    candidate it scores, appending (plan, the best rate before it) to `scored`;
    the key of its best candidate, or None."""
    seqs = dict(zip(problem.team, node.key))
    assigned = frozenset().union(*seqs.values())
    own = build_plan(node.key, problem)
    best = None if own is None else own.rate
    skipped: set[int] = set()

    def travel(a, t):
        end = problem.tasks[seqs[a][-1]].region_center if seqs[a] else problem.team[a].position
        return astar_travel_time(end, problem.tasks[t].region_center, problem.grid,
                                 problem.team[a].v_max)

    while True:
        options = []
        for rep in get_feasible_tasks(assigned, problem):
            if rep in skipped:
                continue
            cluster = [m for m in problem.index.cluster.get(rep, (rep,)) if m not in assigned]
            chosen, cost = {}, 0.0
            for t in cluster:
                costs = {g: max(travel(a, t) for a in g) for g in problem.groups[t]}
                chosen[t] = min(problem.groups[t], key=costs.__getitem__)
                cost = max(cost, costs[chosen[t]])
            options.append((cost, rep, cluster, chosen))
        progressed = False
        for cost, rep, cluster, chosen in sorted(options, key=lambda o: o[:2]):
            new_seqs = dict(seqs)
            for t in cluster:
                for a in chosen[t]:
                    new_seqs[a] += (t,)
            plan = build_plan(plan_key(problem.team, new_seqs), problem)
            if plan is None:
                skipped.add(rep)
                continue
            scored.append((plan, best))
            if best is None or plan.rate > best + IMPROVEMENT_EPS:
                seqs, assigned, best = new_seqs, assigned.union(cluster), plan.rate
                progressed = True
            break
        if not progressed:
            return None if best is None else plan_key(problem.team, seqs)


def reference_rate_bound(assigned: frozenset[int], problem: PlannerProblem,
                         floor0: float) -> float:
    """`planner._rate_bound` as it was before its floors were tabled per assigned
    set: every call sorts the addable durations and works and sums the assigned work."""
    count0 = len(assigned)
    rates = [count0 / floor0 if count0 and floor0 > 0 else 0.0]
    addable = [problem.tasks[t] for t in sorted(problem.tasks)
               if t not in assigned and problem.groups[t]]
    durs = sorted(t.duration for t in addable)
    works = sorted(t.duration * t.agents_required for t in addable)
    w_assigned = sum(problem.tasks[t].duration * problem.tasks[t].agents_required
                     for t in sorted(assigned))
    n_team = len(problem.team)
    w_prefix = 0.0
    for j in range(1, len(addable) + 1):
        w_prefix += works[j - 1]
        t_floor = max(floor0, durs[j - 1], (w_assigned + w_prefix) / n_team)
        rates.append((count0 + j) / t_floor)
    return max(rates)


@pytest.fixture
def comm_params():
    return CommParams()
