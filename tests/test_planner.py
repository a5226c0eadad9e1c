import gc
import heapq
import itertools
import math
import random
import weakref
from collections import Counter
from types import SimpleNamespace

import pytest

from commplan import planner
from commplan.planner import (IMPROVEMENT_EPS, PlannerProblem, SearchStats,
                              build_plan, cocoplan, expand_node, get_feasible_tasks,
                              greedy_cap, last_state, low_bound, up_bound)
from commplan.radio import CommParams, comm_graph, is_connected
from commplan.schedule import AgentContext, eligible_groups, groups_of
from commplan.tasks import RelationIndex, RelationKind, Task, TemporalRelation, check_schedule
from commplan.workspace import Position, astar_travel_time

from conftest import (empty_grid, exhaustive_best_rate, plan_key, plan_node,
                      random_planner_instance, recorded_nodes, reference_expand_node,
                      reference_low_bound, reference_rate_bound, relations_between)


def ctx(aid, x, y, caps=("work",), v=2.0):
    return AgentContext(aid, Position(x, y), 0.0, v, frozenset(caps))


def task(tid, x, y, duration, reqs=((1, "work"),)):
    return Task(tid, Position(x, y), 0.5, duration, reqs)


def make_problem(team, tasks, relations=(), grid=None, now=0.0):
    return PlannerProblem(team=team, tasks=tasks, index=RelationIndex(relations),
                          grid=grid or empty_grid(20, 20), params=CommParams(), now=now)


def empty_node(problem):
    return plan_node(problem.team, {a: () for a in problem.team})


def test_no_tasks_returns_zero_task_plan_at_current_positions():
    grid = empty_grid()
    team = {0: ctx(0, 2.5, 2.5), 1: ctx(1, 5.5, 2.5)}
    plan = cocoplan(team, {}, RelationIndex([]), grid, CommParams())
    assert plan.task_count() == 0
    assert plan.rate == 0.0
    assert plan.event.time == 0.0
    assert plan.event.positions == {0: Position(2.5, 2.5), 1: Position(5.5, 2.5)}


def test_two_agents_two_tasks_matches_exhaustive():
    grid = empty_grid(20, 20)
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 10.5, 0.5)}
    tasks = {1: task(1, 3.5, 0.5, 5.0), 2: task(2, 13.5, 0.5, 4.0)}
    problem = make_problem(team, tasks, grid=grid)
    want = exhaustive_best_rate(problem, [])
    plan = cocoplan(team, tasks, RelationIndex([]), grid, CommParams())
    assert plan.rate == pytest.approx(want, abs=1e-9)


def test_objective_rate_examples():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5, v=1.0)}
    tasks = {1: task(1, 3.5, 0.5, 10.0), 2: task(2, 6.5, 0.5, 10.0), 3: task(3, 9.5, 0.5, 10.0)}
    problem = make_problem(team, tasks, grid=grid)
    plan = build_plan(((1, 2, 3),), problem)
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
    problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels), grid=grid,
                             params=CommParams(), now=0.0, completed=done)
    assert sorted(problem.tasks) == [1, 3, 4]
    assert get_feasible_tasks(frozenset(), problem) == [1, 4]
    plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams(), completed=done)
    assert plan.task_count() > 0 and not {2, 3} & set(plan.groups)


def test_expand_node_group_enumeration():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5), 2: ctx(2, 4.5, 0.5)}
    tasks = {1: task(1, 6.5, 0.5, 3.0, reqs=((2, "work"),))}
    problem = make_problem(team, tasks, grid=grid)
    node = empty_node(problem)
    children = expand_node(node, 1, problem)
    assert len(children) == 3  # C(3,2) groups, tails only
    assert sorted(groups_of(dict(zip(team, c.key)))[1] for c in children) == [(0, 1), (0, 2), (1, 2)]


def test_expand_node_single_child_for_singleton():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5)}
    tasks = {1: task(1, 6.5, 0.5, 3.0)}
    problem = make_problem(team, tasks, grid=grid)
    children = expand_node(empty_node(problem), 1, problem)
    assert len(children) == 1
    assert children[0].key == ((1,),)


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
        kids = expand_node(node, rep, problem)
        assert len(kids) <= m * math.factorial(n)


def test_expand_node_matches_the_dict_based_expansion():
    """Inserting into key tuples through `problem.slot` yields the children the
    dict-based expansion yields, in the same order and with the same assigned
    sets: on every node of seeded searches, and on a two-member concurrency
    cluster, a two-agent group over a team not in id order, and a task related
    to an assigned one (interior insertion)."""
    def children(node, rep, problem):
        got = [(dict(zip(problem.team, c.key)), c.assigned) for c in expand_node(node, rep, problem)]
        assert got == reference_expand_node(node, rep, problem)
        return [seqs for seqs, _ in got]

    rng = random.Random(40)
    checked = 0
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        with recorded_nodes() as nodes:
            cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        problem = make_problem(team, tasks, rels, grid=grid)
        for node in nodes:
            for rep in get_feasible_tasks(node.assigned, problem):
                checked += len(children(node, rep, problem))
    assert checked > 500

    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5)}
    tasks = {t: task(t, 2.5 * t, 4.5, 3.0) for t in range(1, 4)}
    cluster = make_problem(team, tasks, [TemporalRelation(1, 2, RelationKind.CONCURRENCY)])
    # 1 and 2 go in jointly, at any place: each of 1's three places leaves four for 2.
    assert len(children(plan_node(team, {0: (3,), 1: ()}, 1), 1, cluster)) == 12

    team = {2: ctx(2, 4.5, 0.5), 0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5)}
    tasks = {1: task(1, 6.5, 0.5, 3.0, reqs=((2, "work"),)), 3: task(3, 8.5, 0.5, 3.0)}
    pair = make_problem(team, tasks)
    kids = children(plan_node(team, {2: (3,), 0: (), 1: ()}, 1), 1, pair)
    assert kids == [{2: (3,), 0: (1,), 1: (1,)}, {2: (3, 1), 0: (1,), 1: ()},
                    {2: (3, 1), 0: (), 1: (1,)}]

    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 2.5, 0.5)}
    tasks = {t: task(t, 2.5 * t, 4.5, 3.0) for t in range(1, 4)}
    related = make_problem(team, tasks, [TemporalRelation(1, 2, RelationKind.MUTEX)])
    kids = children(plan_node(team, {0: (1, 3), 1: ()}, 2), 2, related)
    assert kids == [{0: (2, 1, 3), 1: ()}, {0: (1, 2, 3), 1: ()}, {0: (1, 3, 2), 1: ()},
                    {0: (1, 3), 1: (2,)}]


def test_low_bound_picks_min_max_travel_group():
    grid = empty_grid(30, 6)
    # Two candidate agents; nearer one is the cheaper singleton group.
    team = {0: ctx(0, 0.5, 0.5, v=1.0), 1: ctx(1, 20.5, 0.5, v=1.0)}
    tasks = {1: task(1, 8.5, 0.5, 5.0)}
    problem = make_problem(team, tasks, grid=grid)
    key = low_bound(empty_node(problem), problem)
    assert key is not None
    assert groups_of(dict(zip(team, key)))[1] == (0,)


def test_low_bound_le_exhaustive_optimum():
    rng = random.Random(15)
    for _ in range(15):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=4)
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        key = low_bound(empty_node(problem), problem)
        lb = problem.rate(key) if key is not None else 0.0
        assert lb <= exhaustive_best_rate(problem, rels) + 1e-9


def test_up_bound_dominates_low_bound_on_random_nodes():
    rng = random.Random(16)
    checked = 0
    for _ in range(60):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=4)
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        node = empty_node(problem)
        key = low_bound(node, problem)
        if key is None:
            continue
        ub = up_bound(node, problem)
        assert ub >= problem.rate(key) - 1e-9
        checked += 1
    assert checked >= 40


def test_cocoplan_exact_on_small_instances():
    rng = random.Random(17)
    for _ in range(20):
        grid, team, tasks, rels = random_planner_instance(rng)
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        want = exhaustive_best_rate(problem, rels)
        plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        assert plan.rate == pytest.approx(want, abs=1e-9)


def test_returned_plan_is_feasible():
    rng = random.Random(18)
    for _ in range(15):
        grid, team, tasks, rels = random_planner_instance(rng)
        params = CommParams()
        plan = cocoplan(team, tasks, RelationIndex(rels), grid, params)
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


def test_heap_pops_nodes_in_upper_bound_order(monkeypatch):
    """No node left in the heap has a higher ub than the node just popped."""
    pops: list[tuple[float, float]] = []

    def heappop(heap):
        entry = heapq.heappop(heap)
        if heap:
            pops.append((entry[3].ub, -heap[0][0]))
        return entry

    monkeypatch.setattr(planner, "heapq",
                        SimpleNamespace(heappush=heapq.heappush, heappop=heappop))
    rng = random.Random(19)
    for _ in range(8):
        grid, team, tasks, rels = random_planner_instance(rng)
        pops.clear()
        cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        assert pops
        for popped_ub, next_ub in pops:
            assert popped_ub >= next_ub - 1e-12


def test_a_larger_generated_limit_never_lowers_the_rate():
    """Anytime from outside the search: allowing more generated nodes never
    returns a lower rate, and the exhaustive node count returns the optimum."""
    rng = random.Random(19)
    improved = 0
    for _ in range(20):
        grid, team, tasks, rels = random_planner_instance(rng)
        index, stats = RelationIndex(rels), SearchStats()
        optimum = cocoplan(team, tasks, index, grid, CommParams(), stats=stats).rate
        total = stats.nodes_generated
        rates = [cocoplan(team, tasks, index, grid, CommParams(), generated_limit=limit).rate
                 for limit in [2 ** k for k in range(8) if 2 ** k < total] + [total]]
        assert rates == sorted(rates), rates
        assert rates[-1] == optimum
        improved += rates[0] < optimum
    assert improved >= 5


def test_a_zero_limit_evaluates_only_the_root():
    """A spent budget, no expansions allowed, or a generated limit the root
    already meets: the root is bounded and nothing else, and each returns the
    root's plan."""
    rng = random.Random(27)
    limits = ({"budget": 0.0}, {"node_limit": 0}, {"generated_limit": 0}, {"generated_limit": 1})
    for _ in range(5):
        grid, team, tasks, rels = random_planner_instance(rng)
        index = RelationIndex(rels)
        plans = []
        for limit in limits:
            stats = SearchStats()
            plans.append(cocoplan(team, tasks, index, grid, CommParams(), **limit, stats=stats))
            assert stats == SearchStats(1, 0, 0), limit
        assert plans == [plans[0]] * len(limits)


def test_node_and_generated_limits_are_exact():
    """Below the exhaustive counts, node_limit=k expands exactly k nodes and
    generated_limit=k generates exactly k."""
    rng = random.Random(28)
    checked = 0
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        index, full = RelationIndex(rels), SearchStats()
        cocoplan(team, tasks, index, grid, CommParams(), stats=full)
        for k in (1, 2, 3, 5, 8):
            if full.nodes_expanded > k:
                stats = SearchStats()
                cocoplan(team, tasks, index, grid, CommParams(), node_limit=k, stats=stats)
                assert stats.nodes_expanded == k
                checked += 1
            if full.nodes_generated > k:
                stats = SearchStats()
                cocoplan(team, tasks, index, grid, CommParams(), generated_limit=k, stats=stats)
                assert stats.nodes_generated == k
                checked += 1
    assert checked >= 40


def test_determinism_same_inputs_same_plan():
    rng = random.Random(20)
    grid, team, tasks, rels = random_planner_instance(rng)
    p1 = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
    p2 = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
    assert p1.sequences == p2.sequences
    assert p1.groups == p2.groups
    assert p1.event.time == p2.event.time
    assert p1.rate == p2.rate


def test_node_limit_is_anytime():
    rng = random.Random(21)
    grid, team, tasks, rels = random_planner_instance(rng, max_tasks=5)
    plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams(), node_limit=1)
    assert plan is not None  # root bound alone already yields a feasible plan


def test_zero_task_fallback_gathers_disconnected_team():
    grid = empty_grid(40, 4)
    params = CommParams()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 35.5, 0.5)}  # far beyond comm range
    plan = cocoplan(team, {}, RelationIndex([]), grid, params)
    assert plan.task_count() == 0
    assert is_connected(comm_graph(plan.event.positions, grid, params))


def test_low_bound_on_fully_assigned_node_returns_own_rate():
    grid = empty_grid(20, 6)
    team = {0: ctx(0, 0.5, 0.5, v=1.0)}
    tasks = {1: task(1, 4.5, 0.5, 6.0)}
    problem = make_problem(team, tasks, grid=grid)
    node = plan_node(team, {0: (1,)}, depth=1)
    key = low_bound(node, problem)
    own = build_plan(((1,),), problem)
    assert problem.rate(key) == pytest.approx(own.rate)
    assert dict(zip(team, key)) == own.sequences


def test_low_bound_rate_equals_a_fresh_build_of_its_plan():
    rng = random.Random(22)
    checked = 0
    for _ in range(15):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=4)
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        root = empty_node(problem)
        nodes = [root] + [child for rep in get_feasible_tasks(frozenset(), problem)
                          for child in expand_node(root, rep, problem)]
        for node in nodes:
            key = low_bound(node, problem)
            if key is None:
                continue
            fresh = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                   grid=grid, params=CommParams(), now=0.0)
            plan = build_plan(key, fresh)
            assert plan is not None
            assert problem.rate(key) == plan.rate
            assert dict(zip(team, key)) == plan.sequences
            checked += 1
    assert checked >= 40


def test_low_bound_rate_cap_keeps_the_full_greedy(monkeypatch):
    """A scored candidate's rate is at most count / (top - now), where top is
    when its last agent is free; so low_bound, which stops at a candidate
    whose cap cannot beat the best rate and reads the node's own rate only
    when its cap cannot tell, returns what a greedy that scores every
    candidate in full returns, with at most as many optimized events."""
    default_event = PlannerProblem._default_event
    optimized = [0]

    def counting_event(self, last):
        optimized[0] += 1
        return default_event(self, last)

    monkeypatch.setattr(PlannerProblem, "_default_event", counting_event)
    rng = random.Random(33)
    checked = capped = fewer = 0
    for _ in range(12):
        grid, team, tasks, rels = random_planner_instance(rng)
        with recorded_nodes() as built:
            cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        problem = make_problem(team, tasks, rels, grid=grid)
        nodes = {n.key: n for n in built}
        for node in list(nodes.values())[:30]:
            scored: list = []
            start = optimized[0]
            want = reference_low_bound(node, make_problem(team, tasks, rels, grid=grid), scored)
            reference_calls, start = optimized[0] - start, optimized[0]
            assert low_bound(node, make_problem(team, tasks, rels, grid=grid)) == want
            calls = optimized[0] - start
            assert calls <= reference_calls
            fewer += calls < reference_calls
            assert low_bound(node, problem) == want
            for plan, best in scored:
                finish = {t: iv.finish for t, iv in plan.timetable.intervals.items()}
                top = max(c.ready_time for c in last_state(plan.sequences, finish, team,
                                                            tasks).values())
                cap = plan.task_count() / (top - problem.now)
                assert plan.rate <= cap
                capped += best is not None and cap <= best + IMPROVEMENT_EPS
            checked += 1
    assert checked >= 150 and capped >= 50 and fewer >= 100


def test_low_bound_defers_the_nodes_own_event():
    """The first candidate's rate is above the node's cap count / (top - now),
    so it beats the node's rate whatever that is: the node's event is never
    optimized, and the bound is the full greedy's."""
    grid = empty_grid(20, 6)
    team = {0: ctx(0, 0.5, 0.5, v=1.0), 1: ctx(1, 2.5, 2.5, v=1.0)}
    tasks = {1: task(1, 12.5, 0.5, 8.0), 2: task(2, 3.5, 2.5, 1.0)}
    problem = make_problem(team, tasks, grid=grid)
    node = plan_node(team, {0: (1,), 1: ()}, depth=1)
    key = node.key
    cap = problem.rate_cap(key, problem.record(key))
    bound = low_bound(node, problem)
    assert problem._memo[key][2] is planner._UNSET
    scored: list = []
    fresh = make_problem(team, tasks, grid=grid)
    assert bound == reference_low_bound(node, fresh, scored)
    assert scored[0][0].rate > cap + IMPROVEMENT_EPS >= fresh.rate(key) + IMPROVEMENT_EPS
    assert bound == ((1,), (2,))


def test_greedy_cap_is_inf_where_an_extension_may_start_a_node_task_earlier():
    """The cap holds only when no tail extension starts a node task earlier:
    an exhaustive mutex orientation search, and no cycle whose tasks hold both
    a mutex pair and a concurrency pair (the node's concurrency check may have
    refused the orientation an extension keeps). A custom event optimizer and
    a node that does not schedule get no cap either."""
    grid = empty_grid(20, 20)
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 10.5, 0.5)}
    tasks = {t: task(t, 1.5 + 2 * t, 3.5, 2.0 + t) for t in range(1, 7)}
    node = plan_node(team, {0: (1,), 1: ()}, depth=1)

    def cap(*relations, at=node, event_optimizer=None):
        rels = [TemporalRelation(p, q, RelationKind(kind)) for p, q, kind in relations]
        problem = make_problem(team, tasks, rels, grid=grid)
        problem.event_optimizer = event_optimizer
        return greedy_cap(at, problem)

    finite = cap()
    assert finite < math.inf
    assert cap((2, 3, "mutex")) == cap((3, 4, "concurrency")) == finite
    assert cap((2, 3, "mutex"), (4, 5, "concurrency")) == math.inf
    pairs = list(itertools.combinations(range(1, 7), 2))  # 15 pairs among six tasks
    assert cap(*[(p, q, "mutex") for p, q in pairs[:12]]) == finite
    assert cap(*[(p, q, "mutex") for p, q in pairs[:13]]) == math.inf
    assert cap(event_optimizer=lambda last: None) == math.inf
    # 1 must precede 2, but agent 0 runs 2 first
    looped = plan_node(team, {0: (2, 1), 1: ()}, depth=2)
    assert cap((1, 2, "precedence"), at=looped) == math.inf


def test_greedy_cap_changes_no_search_result(monkeypatch):
    """With the cap read only to skip low_bound, the search returns the same
    plan with the same node counts as a search that bounds every node, at
    every node budget, and calls low_bound less."""
    lb_calls = [0]
    inner = planner.low_bound

    def counting(node, problem):
        lb_calls[0] += 1
        return inner(node, problem)

    monkeypatch.setattr(planner, "low_bound", counting)
    rng = random.Random(34)
    calls = {"capped": 0, "uncapped": 0}
    for _ in range(30):
        grid, team, tasks, rels = random_planner_instance(rng)
        for limit in (None, 8, 40):
            runs = {}
            for mode in calls:
                with monkeypatch.context() as patch:
                    if mode == "uncapped":
                        patch.setattr(planner, "greedy_cap", lambda node, problem: math.inf)
                    stats = SearchStats()
                    start = lb_calls[0]
                    plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams(),
                                    generated_limit=limit, stats=stats)
                    calls[mode] += lb_calls[0] - start
                runs[mode] = (plan.sequences, plan.rate, plan.event, stats)
            assert runs["capped"] == runs["uncapped"]
    assert calls["capped"] < calls["uncapped"]


def test_cocoplan_returns_a_fresh_build_of_its_plan():
    rng = random.Random(23)
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        assert build_plan(plan_key(team, plan.sequences), problem) == plan


def test_cocoplan_schedules_each_candidate_once(monkeypatch):
    """No candidate's sequences are scheduled twice, the returned plan's
    included: it is built from its memoized timetable. A tail append counts
    as a schedule."""
    schedule, append = planner.schedule_min_makespan, planner.append_to_timetable
    scheduled: list[tuple] = []

    def key_of(sequences, team):
        return tuple(tuple(sequences.get(a, ())) for a in team)

    def counting_schedule(sequences, tasks, relations, grid, team, **kwargs):
        if not kwargs.get("relaxed"):
            scheduled.append(key_of(sequences, team))
        return schedule(sequences, tasks, relations, grid, team, **kwargs)

    def counting_append(sequences, tid, base, tasks, relations, grid, team, **kwargs):
        record = append(sequences, tid, base, tasks, relations, grid, team, **kwargs)
        if record is not None and not kwargs.get("relaxed"):
            scheduled.append(key_of(sequences, team))
        return record

    monkeypatch.setattr(planner, "schedule_min_makespan", counting_schedule)
    monkeypatch.setattr(planner, "append_to_timetable", counting_append)
    rng = random.Random(24)
    total = 0
    for _ in range(10):
        grid, team, tasks, rels = random_planner_instance(rng)
        scheduled.clear()
        cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        assert [k for k, n in Counter(scheduled).items() if n > 1] == []
        total += len(scheduled)
    assert total >= 100


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
    """A node whose key repeats an earlier node's is generated, counted and
    pushed as before, but neither bound runs on its key again."""
    seen: dict[str, list[tuple]] = {"low_bound": [], "up_bound": []}

    def recording(name):
        inner = getattr(planner, name)

        def bound(node, problem):
            seen[name].append(node.key)
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
        with recorded_nodes() as nodes:
            cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        for name, calls in seen.items():
            assert len(calls) == len(set(calls)), name
        keys = [n.key for n in nodes]
        assert set(seen["up_bound"]) == set(keys)
        duplicates += len(keys) - len(set(keys))
    assert duplicates >= 20


def test_a_problem_is_freed_without_the_cycle_collector(monkeypatch):
    """Each cycle's candidate memo goes with its problem, not at the next
    collection: after a bound, and as soon as a search that expands nodes
    returns."""
    refs: list[weakref.ref] = []
    build = planner.PlannerProblem

    def recording(*args, **kwargs):
        problem = build(*args, **kwargs)
        refs.append(weakref.ref(problem))
        return problem

    monkeypatch.setattr(planner, "PlannerProblem", recording)
    rng = random.Random(26)
    grid, team, tasks, rels = random_planner_instance(rng)
    problem = make_problem(team, tasks, rels, grid=grid)
    low_bound(empty_node(problem), problem)
    assert problem._memo
    ref = weakref.ref(problem)
    gc.disable()
    try:
        del problem
        assert ref() is None
        for _ in range(5):
            grid, team, tasks, rels = random_planner_instance(rng)
            stats = SearchStats()
            plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams(),
                            node_limit=3, stats=stats)
            assert stats.nodes_expanded > 0 and plan is not None
            assert refs[-1]() is None
    finally:
        gc.enable()


def test_tabled_rate_bound_equals_the_reference():
    """`_rate_bound` reads its floors from the problem's table for the assigned
    set and returns exactly the per-call computation's value, for every assigned
    subset and floor, with tied durations and tasks no group can take."""
    rng = random.Random(37)
    checked = 0
    for _ in range(25):
        grid, team, tasks, rels = random_planner_instance(rng, max_tasks=5)
        first = tasks[min(tasks)]
        tasks[10] = task(10, 2.5, 2.5, first.duration, ((1, first.requirements[0][1]),))
        tasks[11] = task(11, 3.5, 2.5, first.duration, ((2, "a"),))
        tasks[12] = task(12, 4.5, 2.5, rng.uniform(1.0, 10.0), ((1, "none"),))
        tasks[13] = task(13, 5.5, 2.5, rng.uniform(1.0, 10.0), ((len(team) + 1, "a"),))
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=rng.uniform(0.0, 50.0))
        assert not problem.groups[12] and not problem.groups[13]
        ids = sorted(tasks)
        for r in range(len(ids) + 1):
            for subset in itertools.combinations(ids, r):
                assigned = frozenset(subset)
                for floor0 in (0.0, rng.uniform(1e-3, 1.0), rng.uniform(1.0, 30.0), 1e6,
                               math.inf):
                    got = planner._rate_bound(assigned, problem, floor0)
                    assert got == reference_rate_bound(assigned, problem, floor0), (
                        subset, floor0)
                    checked += 1
    assert checked > 10_000


def test_up_bound_and_greedy_cap_equal_their_reference_forms():
    """On every node of exhaustive searches, both bounds equal their forms
    that compute the assigned set and floors from the node's key."""
    def reference_up_bound(node, problem):
        record = problem.record(node.key, relaxed=True)
        if record is None:
            return -math.inf
        return reference_rate_bound(frozenset().union(*node.key), problem,
                                    max(record.makespan - problem.now, 0.0))

    def reference_greedy_cap(node, problem):
        if problem.event_optimizer is not None or not problem.extensions_monotone:
            return math.inf
        record = problem.record(node.key)
        if record is None:
            return math.inf
        top = problem.top(node.key, record)
        return reference_rate_bound(frozenset().union(*node.key), problem,
                                    top - problem.now) if top > problem.now else math.inf

    rng = random.Random(38)
    checked = capped = 0
    for _ in range(8):
        grid, team, tasks, rels = random_planner_instance(rng)
        with recorded_nodes() as nodes:
            cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        for node in nodes:
            assert up_bound(node, problem) == reference_up_bound(node, problem)
            cap = greedy_cap(node, problem)
            assert cap == reference_greedy_cap(node, problem)
            capped += cap < math.inf
            checked += 1
    assert checked > 200 and capped > checked // 2


def test_every_bounded_node_carries_its_key_and_assigned_set(monkeypatch):
    """The search works out a node's key and assigned set once, the child's set
    as its parent's plus the inserted cluster: the key holds one tuple per team
    agent, and the set is the key's tasks."""
    evaluate = planner.Search.evaluate
    checked = []

    def checking(search, node):
        assert len(node.key) == len(search.problem.team)
        assert all(type(seq) is tuple for seq in node.key)
        assert node.assigned == frozenset().union(*node.key)
        checked.append(len(node.assigned))
        return evaluate(search, node)

    monkeypatch.setattr(planner.Search, "evaluate", checking)
    rng = random.Random(39)
    clusters = 0
    for _ in range(12):
        grid, team, tasks, rels = random_planner_instance(rng)
        if len(tasks) >= 2:
            rels = rels + [TemporalRelation(*sorted(rng.sample(sorted(tasks), 2)),
                                            RelationKind.CONCURRENCY)]
        cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        clusters += any(len(c) > 1 for c in make_problem(team, tasks, rels, grid).clusters.values())
    assert clusters >= 6 and len(checked) > 300 and max(checked) >= 3
