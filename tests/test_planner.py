import gc
import itertools
import math
import random
import weakref
from collections import Counter

import pytest

from commplan import planner
from commplan.planner import (PlanNode, PlannerProblem, SearchStats, build_plan,
                              cocoplan, expand_node, get_feasible_tasks, low_bound,
                              up_bound)
from commplan.radio import CommParams, comm_graph, is_connected
from commplan.schedule import AgentContext, eligible_groups, groups_of
from commplan.tasks import RelationIndex, RelationKind, Task, TemporalRelation, check_schedule
from commplan.workspace import Position, astar_travel_time

from conftest import (empty_grid, exhaustive_best_rate, random_planner_instance,
                      relations_between)


def ctx(aid, x, y, caps=("work",), v=2.0):
    return AgentContext(aid, Position(x, y), 0.0, v, frozenset(caps))


def task(tid, x, y, duration, reqs=((1, "work"),)):
    return Task(tid, Position(x, y), 0.5, duration, reqs)


def make_problem(team, tasks, relations=(), grid=None, now=0.0):
    return PlannerProblem(team=team, tasks=tasks, relations=list(relations),
                          grid=grid or empty_grid(20, 20), params=CommParams(), now=now)


def empty_node(problem):
    return PlanNode(0, 0, {a: () for a in problem.team})


def test_no_tasks_returns_zero_task_plan_at_current_positions():
    grid = empty_grid()
    team = {0: ctx(0, 2.5, 2.5), 1: ctx(1, 5.5, 2.5)}
    plan = cocoplan(team, {}, [], grid, CommParams())
    assert plan.task_count() == 0
    assert plan.rate == 0.0
    assert plan.event.time == 0.0
    assert plan.event.positions == {0: Position(2.5, 2.5), 1: Position(5.5, 2.5)}


def test_two_agents_two_tasks_matches_exhaustive():
    grid = empty_grid(20, 20)
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 10.5, 0.5)}
    tasks = {1: task(1, 3.5, 0.5, 5.0), 2: task(2, 13.5, 0.5, 4.0)}
    problem = make_problem(team, tasks, grid=grid)
    want = exhaustive_best_rate(problem)
    plan = cocoplan(team, tasks, [], grid, CommParams())
    assert plan.rate == pytest.approx(want, abs=1e-9)


def test_objective_rate_examples():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5, v=1.0)}
    tasks = {1: task(1, 3.5, 0.5, 10.0), 2: task(2, 6.5, 0.5, 10.0), 3: task(3, 9.5, 0.5, 10.0)}
    problem = make_problem(team, tasks, grid=grid)
    plan = build_plan({0: (1, 2, 3)}, problem)
    # single agent: event sits at the last task, rate = 3 / makespan
    assert plan.rate == pytest.approx(3.0 / plan.event.time)
    # the rate is the tasks finished by the event over the cycle span
    finished = sum(1 for iv in plan.timetable.intervals.values() if iv.finish <= plan.event.time)
    assert finished == 3
    assert finished / (plan.event.time - problem.now) == pytest.approx(plan.rate)


def test_get_feasible_tasks_gating():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5, caps=("a",)), 1: ctx(1, 2.5, 0.5, caps=("a",))}
    tasks = {
        1: task(1, 5.5, 0.5, 3.0, reqs=((1, "a"),)),
        2: task(2, 7.5, 0.5, 3.0, reqs=((1, "a"),)),
        3: task(3, 9.5, 0.5, 3.0, reqs=((3, "a"),)),   # needs 3 agents, team has 2
        4: task(4, 9.5, 2.5, 3.0, reqs=((1, "b"),)),   # no capable agent
    }
    rels = [TemporalRelation(1, 2, RelationKind.PRECEDENCE)]
    problem = make_problem(team, tasks, rels, grid=grid)
    feas = get_feasible_tasks(frozenset(), problem)
    assert feas == [1]  # 2 gated by precedence, 3 and 4 uncoverable
    feas = get_feasible_tasks(frozenset({1}), problem)
    assert feas == [2]
    # all assigned -> nothing left
    assert get_feasible_tasks(frozenset({1, 2}), problem) == []


def test_concurrency_cluster_gating_until_partner_known():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5)}
    tasks = {1: task(1, 5.5, 0.5, 3.0)}
    rels = [TemporalRelation(1, 2, RelationKind.CONCURRENCY)]
    problem = make_problem(team, tasks, rels, grid=grid)
    assert get_feasible_tasks(frozenset(), problem) == []  # partner 2 unknown
    tasks2 = dict(tasks)
    tasks2[2] = task(2, 7.5, 2.5, 3.0)
    problem2 = make_problem(team, tasks2, rels, grid=grid)
    assert get_feasible_tasks(frozenset(), problem2) == [1]


def test_completed_tasks_are_never_planned():
    grid = empty_grid(20, 6)
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5)}
    tasks = {t: task(t, 2.5 * t, 2.5, 3.0) for t in range(1, 5)}
    # 2 is done; 3 must overlap it, so it can never run; 4 only had to follow it.
    rels = [TemporalRelation(2, 3, RelationKind.CONCURRENCY),
            TemporalRelation(2, 4, RelationKind.PRECEDENCE)]
    done = frozenset({2})
    problem = PlannerProblem(team=team, tasks=tasks, relations=rels, grid=grid,
                             params=CommParams(), now=0.0, completed=done)
    assert sorted(problem.tasks) == [1, 3, 4]
    assert get_feasible_tasks(frozenset(), problem) == [1, 4]
    plan = cocoplan(team, tasks, rels, grid, CommParams(), completed=done)
    assert plan.task_count() > 0 and not {2, 3} & set(plan.groups)


def test_expand_node_group_enumeration():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5), 2: ctx(2, 4.5, 0.5)}
    tasks = {1: task(1, 6.5, 0.5, 3.0, reqs=((2, "work"),))}
    problem = make_problem(team, tasks, grid=grid)
    node = empty_node(problem)
    counter = iter(range(1, 100))
    children = expand_node(node, 1, problem, lambda: next(counter))
    assert len(children) == 3  # C(3,2) groups, tails only
    assert sorted(groups_of(c.sequences)[1] for c in children) == [(0, 1), (0, 2), (1, 2)]


def test_expand_node_single_child_for_singleton():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5)}
    tasks = {1: task(1, 6.5, 0.5, 3.0)}
    problem = make_problem(team, tasks, grid=grid)
    children = expand_node(empty_node(problem), 1, problem, iter(range(1, 10)).__next__)
    assert len(children) == 1
    assert children[0].sequences[0] == (1,)


def test_expand_child_count_within_factorial_bound():
    grid = empty_grid()
    team = {i: ctx(i, 0.5 + 2 * i, 0.5) for i in range(3)}
    tasks = {t: task(t, 6.5, 2.5 + t, 3.0) for t in range(1, 4)}
    rels = [TemporalRelation(1, 2, RelationKind.MUTEX)]
    problem = make_problem(team, tasks, rels, grid=grid)
    node = empty_node(problem)
    m = len(tasks)
    n = len(team)
    for rep in get_feasible_tasks(frozenset(), problem):
        kids = expand_node(node, rep, problem, iter(range(1, 10000)).__next__)
        assert len(kids) <= m * math.factorial(n)


def test_low_bound_picks_min_max_travel_group():
    grid = empty_grid(30, 6)
    # Two candidate agents; nearer one is the cheaper singleton group.
    team = {0: ctx(0, 0.5, 0.5, v=1.0), 1: ctx(1, 20.5, 0.5, v=1.0)}
    tasks = {1: task(1, 8.5, 0.5, 5.0)}
    problem = make_problem(team, tasks, grid=grid)
    plan = low_bound(empty_node(problem), problem)
    assert plan is not None
    assert groups_of(plan.sequences)[1] == (0,)


def test_low_bound_le_exhaustive_optimum():
    rng = random.Random(15)
    for _ in range(15):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=4)
        problem = PlannerProblem(team=team, tasks=tasks, relations=rels,
                                 grid=grid, params=CommParams(), now=0.0)
        plan = low_bound(empty_node(problem), problem)
        lb = plan.rate if plan is not None else 0.0
        assert lb <= exhaustive_best_rate(problem) + 1e-9


def test_up_bound_dominates_low_bound_on_random_nodes():
    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=4)
        problem = PlannerProblem(team=team, tasks=tasks, relations=rels,
                                 grid=grid, params=CommParams(), now=0.0)
        node = empty_node(problem)
        plan = low_bound(node, problem)
        if plan is None:
            continue
        ub = up_bound(node, problem)
        assert ub >= plan.rate - 1e-9
        checked += 1
    assert checked >= 40


def test_cocoplan_exact_on_small_instances():
    rng = random.Random(17)
    for _ in range(20):
        grid, team, tasks, rels = random_planner_instance(rng)
        problem = PlannerProblem(team=team, tasks=tasks, relations=rels,
                                 grid=grid, params=CommParams(), now=0.0)
        want = exhaustive_best_rate(problem)
        plan = cocoplan(team, tasks, rels, grid, CommParams())
        assert plan.rate == pytest.approx(want, abs=1e-9)


def test_returned_plan_is_feasible():
    rng = random.Random(18)
    for _ in range(15):
        grid, team, tasks, rels = random_planner_instance(rng)
        params = CommParams()
        plan = cocoplan(team, tasks, rels, grid, params)
        if plan.task_count() == 0:
            continue
        scoped = relations_between(rels, set(plan.groups))
        ok, bad = check_schedule(plan.timetable.intervals.values(), scoped)
        assert ok, bad
        for t, group in plan.groups.items():
            assert group in eligible_groups(tasks[t], team)
        assert is_connected(comm_graph(plan.event.positions, grid, params))
        # Every assigned task finishes before the event and every agent can
        # reach its meeting point in time.
        for iv in plan.timetable.intervals.values():
            assert iv.finish <= plan.event.time + 1e-9
        for aid, ctx_ in team.items():
            seq = plan.sequences[aid]
            pos = tasks[seq[-1]].region_center if seq else ctx_.position
            t_f = plan.timetable.intervals[seq[-1]].finish if seq else ctx_.ready_time
            arr = t_f + astar_travel_time(pos, plan.event.positions[aid], grid, ctx_.v_max)
            assert arr <= plan.event.time + 1e-9


def test_anytime_incumbent_monotone_and_heap_discipline():
    rng = random.Random(19)
    for _ in range(8):
        grid, team, tasks, rels = random_planner_instance(rng)
        stats = SearchStats(keep_nodes=True)
        cocoplan(team, tasks, rels, grid, CommParams(), stats=stats)
        trace = stats.incumbent_trace
        assert trace and stats.extraction_trace
        assert all(a <= b + 1e-12 for a, b in zip(trace, trace[1:]))
        for extracted_ub, next_ub in stats.extraction_trace:
            if next_ub is not None:
                assert extracted_ub >= next_ub - 1e-12


def test_determinism_same_inputs_same_plan():
    rng = random.Random(20)
    grid, team, tasks, rels = random_planner_instance(rng)
    p1 = cocoplan(team, tasks, rels, grid, CommParams())
    p2 = cocoplan(team, tasks, rels, grid, CommParams())
    assert p1.sequences == p2.sequences
    assert p1.groups == p2.groups
    assert p1.event.time == p2.event.time
    assert p1.rate == p2.rate


def test_node_limit_is_anytime():
    rng = random.Random(21)
    grid, team, tasks, rels = random_planner_instance(rng, max_tasks=5)
    plan = cocoplan(team, tasks, rels, grid, CommParams(), node_limit=1)
    assert plan is not None  # root bound alone already yields a feasible plan


def test_zero_task_fallback_gathers_disconnected_team():
    grid = empty_grid(40, 4)
    params = CommParams()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 35.5, 0.5)}  # far beyond comm range
    plan = cocoplan(team, {}, [], grid, params)
    assert plan.task_count() == 0
    assert is_connected(comm_graph(plan.event.positions, grid, params))


def test_low_bound_on_fully_assigned_node_returns_own_rate():
    grid = empty_grid(20, 6)
    team = {0: ctx(0, 0.5, 0.5, v=1.0)}
    tasks = {1: task(1, 4.5, 0.5, 6.0)}
    problem = make_problem(team, tasks, grid=grid)
    node = PlanNode(0, 1, {0: (1,)})
    plan = low_bound(node, problem)
    own = build_plan({0: (1,)}, problem)
    assert plan.rate == pytest.approx(own.rate)
    assert plan.sequences == own.sequences


def test_traces_are_recorded_only_with_keep_nodes():
    rng = random.Random(19)
    grid, team, tasks, rels = random_planner_instance(rng)
    stats = SearchStats()
    cocoplan(team, tasks, rels, grid, CommParams(), stats=stats)
    assert stats.nodes_expanded > 0
    assert stats.extraction_trace == [] and stats.incumbent_trace == [] and stats.nodes == []


def test_low_bound_rate_equals_a_fresh_build_of_its_plan():
    rng = random.Random(22)
    checked = 0
    for _ in range(15):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=4)
        problem = PlannerProblem(team=team, tasks=tasks, relations=rels,
                                 grid=grid, params=CommParams(), now=0.0)
        root = empty_node(problem)
        nodes = [root] + [child for rep in get_feasible_tasks(frozenset(), problem)
                          for child in expand_node(root, rep, problem, iter(range(1, 1000)).__next__)]
        for node in nodes:
            bound = low_bound(node, problem)
            if bound is None:
                continue
            fresh = PlannerProblem(team=team, tasks=tasks, relations=rels,
                                   grid=grid, params=CommParams(), now=0.0)
            plan = build_plan(bound.sequences, fresh)
            assert plan is not None
            assert bound.rate == plan.rate
            assert bound.sequences == plan.sequences
            assert groups_of(bound.sequences) == plan.groups
            checked += 1
    assert checked >= 40


def test_cocoplan_returns_a_fresh_build_of_its_plan():
    rng = random.Random(23)
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        plan = cocoplan(team, tasks, rels, grid, CommParams())
        problem = PlannerProblem(team=team, tasks=tasks, relations=rels,
                                 grid=grid, params=CommParams(), now=0.0)
        assert build_plan(plan.sequences, problem) == plan


def test_cocoplan_schedules_each_candidate_once(monkeypatch):
    """Only the returned plan's sequences may be scheduled twice: once when
    scored and once when built on return. A tail append counts as a schedule."""
    schedule, append = planner.schedule_min_makespan, planner.append_to_timetable
    scheduled: list[tuple] = []

    def key_of(sequences, team):
        return tuple(tuple(sequences.get(a, ())) for a in team)

    def counting_schedule(sequences, tasks, relations, grid, team, **kwargs):
        if not kwargs.get("relaxed"):
            scheduled.append(key_of(sequences, team))
        return schedule(sequences, tasks, relations, grid, team, **kwargs)

    def counting_append(sequences, tid, base_starts, tasks, relations, grid, team):
        timetable = append(sequences, tid, base_starts, tasks, relations, grid, team)
        if timetable is not None:
            scheduled.append(key_of(sequences, team))
        return timetable

    monkeypatch.setattr(planner, "schedule_min_makespan", counting_schedule)
    monkeypatch.setattr(planner, "append_to_timetable", counting_append)
    rng = random.Random(24)
    total = twice = 0
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        scheduled.clear()
        plan = cocoplan(team, tasks, rels, grid, CommParams())
        repeated = [k for k, n in Counter(scheduled).items() if n > 1]
        assert repeated in ([], [key_of(plan.sequences, team)])
        assert all(n <= 2 for n in Counter(scheduled).values())
        total += len(scheduled)
        twice += len(repeated)
    assert total >= 100 and twice > 0


def test_related_to_assigned_matches_relation_scan():
    rng = random.Random(31)
    ids = list(range(8))
    for _ in range(300):
        pairs = rng.sample(list(itertools.combinations(ids, 2)), rng.randint(0, 10))
        rels = [TemporalRelation(*((p, q) if rng.random() < 0.5 else (q, p)),
                                 rng.choice(list(RelationKind))) for p, q in pairs]
        members = rng.sample(ids, 6)
        cluster = sorted(members[:rng.randint(1, 2)])
        assigned = frozenset(members[2:2 + rng.randint(0, 4)])
        want = any((r.first in cluster and r.second in assigned)
                   or (r.second in cluster and r.first in assigned) for r in rels)
        assert planner._related_to_assigned(cluster, assigned, RelationIndex(rels)) == want


def test_duplicate_nodes_are_bounded_once(monkeypatch):
    """A node whose sequences repeat an earlier node's is generated, counted
    and pushed as before, but neither bound runs on its sequences again."""
    seen: dict[str, list[tuple]] = {"low_bound": [], "up_bound": []}

    def recording(name):
        inner = getattr(planner, name)

        def bound(node, problem):
            seen[name].append(tuple(node.sequences.get(a, ()) for a in problem.team))
            return inner(node, problem)
        return bound

    for name in seen:
        monkeypatch.setattr(planner, name, recording(name))
    rng = random.Random(25)
    duplicates = 0
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        for calls in seen.values():
            calls.clear()
        stats = SearchStats(keep_nodes=True)
        cocoplan(team, tasks, rels, grid, CommParams(), stats=stats)
        for name, calls in seen.items():
            assert len(calls) == len(set(calls)), name
        keys = [tuple(n.sequences[a] for a in team) for n in stats.nodes]
        assert set(seen["up_bound"]) == set(keys)
        duplicates += len(keys) - len(set(keys))
    assert duplicates >= 20


def test_a_problem_is_freed_without_the_cycle_collector():
    """Each cycle's candidate memo goes with its problem, not at the next
    collection."""
    rng = random.Random(26)
    grid, team, tasks, rels = random_planner_instance(rng)
    problem = make_problem(team, tasks, rels, grid=grid)
    low_bound(empty_node(problem), problem)
    assert problem._rates
    ref = weakref.ref(problem)
    gc.disable()
    try:
        del problem
        assert ref() is None
    finally:
        gc.enable()
