"""Shared fixtures, random-instance builders, and independent oracles."""

from __future__ import annotations

import itertools
import math
import random
from pathlib import Path

import pytest

from commplan.planner import PlannerProblem, build_plan
from commplan.radio import CommParams
from commplan.schedule import AgentContext, eligible_groups
from commplan.tasks import RelationKind, Task, TemporalRelation
from commplan.workspace import GridMap, Position, parse_grid


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


def enumerate_candidate_plans(problem: PlannerProblem):
    """Every admissible (subset, order, group assignment) candidate, evaluated
    with the same scheduling and event optimization as any plan. Yields
    (rate, sequences, groups) for the feasible ones."""
    tasks = problem.tasks
    ids = sorted(tasks)
    preds = {t: [r.first for r in problem.relations
                 if r.kind is RelationKind.PRECEDENCE and r.second == t] for t in ids}
    conc = {t: {r.second if r.first == t else r.first for r in problem.relations
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
                    plan = build_plan(seqs, problem)
                    if plan is not None:
                        yield plan.rate, {a: tuple(s) for a, s in seqs.items()}, dict(groups)


def exhaustive_best_rate(problem: PlannerProblem) -> float:
    """Brute-force optimum over (subset, order, group assignment)."""
    best_rate = 0.0
    for rate, _, _ in enumerate_candidate_plans(problem):
        if rate > best_rate:
            best_rate = rate
    return best_rate


@pytest.fixture
def comm_params():
    return CommParams()
