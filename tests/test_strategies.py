import itertools
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from commplan import radio
from commplan.meeting import all_gather_event, com_opt, latest, sel_com
from commplan.radio import CommParams, comm_graph, is_connected, linked
from commplan.scenario import build_simulator, load_scenario
from commplan.schedule import AgentContext, eligible_groups, group_covers
from commplan.simulator import AgentState, Simulator
from commplan.strategies import (GreedyController, PlannerOptions, StrategyConfig,
                                 TeamCycleController, make_controller)
from commplan.tasks import RelationKind, Task, TemporalRelation
from commplan.workspace import Position, astar_travel_time

from conftest import empty_grid, random_connected_grid

DATA = Path(__file__).parent / "data"


def agent(aid, x, y, v=2.0, sensor=50.0, caps=("work",)):
    return AgentState(aid, Position(x, y), v, sensor, frozenset(caps))


def task(tid, x, y, duration=4.0, reqs=((1, "work"),), release=0.0):
    return Task(tid, Position(x, y), 1.0, duration, reqs, release_time=release)


def ready(aid, t, position, v=2.0):
    """Agent `aid`'s state once its last task is done: free from t at position."""
    return AgentContext(aid, position, t, v, frozenset())


def run_sim(grid, agents, tasks, kind, horizon=120.0, rels=(), **kw):
    sim = Simulator(grid, agents, CommParams(), {t.id: t for t in tasks}, list(rels),
                    horizon=horizon)
    ctrl = make_controller(StrategyConfig(kind, **kw),
                           PlannerOptions(node_limit=30, generated_limit=200))
    events, metrics = sim.run(ctrl)
    return sim, events, metrics


def test_strategy_config_requires_fields():
    with pytest.raises(ValueError):
        StrategyConfig("fix")
    with pytest.raises(ValueError):
        StrategyConfig("fimr")
    with pytest.raises(ValueError):
        StrategyConfig("unknown")
    StrategyConfig("fix", threshold_n=3)


def test_fix_below_threshold_assigns_nothing():
    grid = empty_grid(16, 8)
    tasks = [task(1, 10.5, 2.5), task(2, 12.5, 2.5)]
    sim, events, metrics = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 4.5, 2.5)],
                                   tasks, "fix", threshold_n=3, horizon=40.0)
    assert metrics.finished_tasks == 0
    replans = [e for e in events if e.kind == "replanned"]
    assert all(len(e.payload) == 1 for e in replans)  # never any assigned ids


def test_fix_threshold_one_behaves_like_cocoplan():
    grid = empty_grid(16, 8)
    tasks = [task(1, 10.5, 2.5), task(2, 12.5, 4.5)]
    _, _, m_fix = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 4.5, 2.5)],
                          tasks, "fix", threshold_n=1, horizon=60.0)
    tasks2 = [task(1, 10.5, 2.5), task(2, 12.5, 4.5)]
    _, _, m_coco = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 4.5, 2.5)],
                           tasks2, "cocoplan", horizon=60.0)
    assert m_fix.finished_tasks == m_coco.finished_tasks == 2


def test_fix_burst_plan_matches_cocoplan_first_cycle():
    grid = empty_grid(20, 10)
    def mk_tasks():
        return [task(t, 2.5 + 1.5 * t, 6.5, duration=3.0) for t in range(10)]
    sim_f, ev_f, _ = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 6.5, 2.5)],
                             mk_tasks(), "fix", threshold_n=10, horizon=90.0)
    sim_c, ev_c, _ = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 6.5, 2.5)],
                             mk_tasks(), "cocoplan", horizon=90.0)
    assert sim_f.cycle_records[0].assigned == sim_c.cycle_records[0].assigned
    assert sim_f.cycle_records[0].planned_event == pytest.approx(
        sim_c.cycle_records[0].planned_event)


def test_fpmr_event_is_full_gather_at_fixed_point(comm_params):
    grid = empty_grid(30, 6)
    fixed = Position(15.5, 2.5)
    cfg = StrategyConfig("fpmr", fixed_point=fixed)
    ctrl = TeamCycleController(cfg, PlannerOptions())
    sim = Simulator(grid, [agent(0, 2.5, 2.5), agent(1, 27.5, 2.5)], comm_params, {}, [], 10.0)
    opt = ctrl._event_optimizer(sim)
    last = {0: ready(0, 4.0, Position(2.5, 2.5)), 1: ready(1, 9.0, Position(27.5, 2.5))}
    ev = opt(last)
    assert all(p == fixed for p in ev.positions.values())
    want = max(4.0 + astar_travel_time(Position(2.5, 2.5), fixed, grid, 2.0),
               9.0 + astar_travel_time(Position(27.5, 2.5), fixed, grid, 2.0))
    assert ev.time == pytest.approx(want)


def test_fpmr_at_latest_finisher_equals_all_gather(comm_params):
    grid = empty_grid(30, 6)
    last = {0: ready(0, 4.0, Position(2.5, 2.5)), 1: ready(1, 9.0, Position(27.5, 2.5))}
    gather = all_gather_event(last, grid)
    cfg = StrategyConfig("fpmr", fixed_point=latest(last).position)
    ctrl = TeamCycleController(cfg, PlannerOptions())
    sim = Simulator(grid, [agent(0, 2.5, 2.5), agent(1, 27.5, 2.5)], comm_params, {}, [], 10.0)
    ev = ctrl._event_optimizer(sim)(last)
    assert ev.time == pytest.approx(gather.time)


def test_fpmr_delay_never_beats_com_opt(comm_params):
    rng = random.Random(22)
    for _ in range(20):
        grid = random_connected_grid(rng, width=14, height=14)
        free = grid.free_cells()
        cells = rng.sample(free, 3)
        last = {i: ready(i, rng.uniform(0, 10), grid.center(c)) for i, c in enumerate(cells)}
        fixed = grid.center(rng.choice(free))
        t_fpmr = max(f.ready_time + astar_travel_time(f.position, fixed, grid, f.v_max)
                     for f in last.values())
        ev = com_opt(last, grid, comm_params)
        assert ev.time <= t_fpmr + 1e-9


def test_frdt_leader_stays_and_cluster_connects(comm_params):
    grid = empty_grid(40, 6)
    cfg = StrategyConfig("frdt", leader=0)
    ctrl = TeamCycleController(cfg, PlannerOptions())
    sim = Simulator(grid, [agent(0, 2.5, 2.5), agent(1, 8.5, 2.5), agent(2, 30.5, 2.5)],
                    comm_params, {}, [], 10.0)
    opt = ctrl._event_optimizer(sim)
    last = {0: ready(0, 5.0, Position(2.5, 2.5)), 1: ready(1, 1.0, Position(8.5, 2.5)),
            2: ready(2, 2.0, Position(30.5, 2.5))}
    ev = opt(last)
    assert ev.positions[0] == Position(2.5, 2.5)       # leader anchored
    assert ev.positions[1] == Position(8.5, 2.5)       # already in range: no movement
    assert is_connected(comm_graph(ev.positions, grid, comm_params))


def test_frdt_single_follower_uses_sel_com(comm_params):
    grid = empty_grid(40, 6)
    cfg = StrategyConfig("frdt", leader=0)
    ctrl = TeamCycleController(cfg, PlannerOptions())
    sim = Simulator(grid, [agent(0, 2.5, 2.5), agent(1, 30.5, 2.5)], comm_params, {}, [], 10.0)
    leader_pos = Position(2.5, 2.5)
    follower = Position(30.5, 2.5)
    ev = ctrl._event_optimizer(sim)(
        {0: ready(0, 0.0, leader_pos), 1: ready(1, 0.0, follower)})
    assert ev.positions[1] == sel_com(follower, leader_pos, grid, comm_params)


def test_frdt_cluster_connectivity_randomized(comm_params):
    rng = random.Random(23)
    for _ in range(500):
        grid = random_connected_grid(rng, width=14, height=14)
        free = grid.free_cells()
        n = rng.randint(2, 5)
        cells = rng.sample(free, n)
        last = {i: ready(i, rng.uniform(0, 10), grid.center(c)) for i, c in enumerate(cells)}
        cfg = StrategyConfig("frdt", leader=0)
        ctrl = TeamCycleController(cfg, PlannerOptions())
        sim = Simulator(grid, [AgentState(i, grid.center(c), 2.0, 8.0, frozenset({"work"}))
                               for i, c in enumerate(cells)], comm_params, {}, [], 10.0)
        ev = ctrl._event_optimizer(sim)(last)
        assert is_connected(comm_graph(ev.positions, grid, comm_params))


def test_fimr_fires_at_exact_multiples():
    grid = empty_grid(20, 10)
    tasks = [task(t, 3.5 + 2 * t, 6.5, duration=3.0, release=10.0 * t) for t in range(5)]
    sim, events, metrics = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 6.5, 2.5)],
                                   tasks, "fimr", interval=20.0, horizon=100.0)
    comm_times = [e.timestamp for e in events if e.kind == "comm_event"]
    assert comm_times == [20.0 * k for k in range(1, len(comm_times) + 1)]
    gaps = metrics.comm_intervals
    assert all(gap == 20.0 for gap in gaps)


def test_fimr_interval_equal_to_horizon_single_event():
    grid = empty_grid(16, 8)
    tasks = [task(1, 10.5, 2.5)]
    sim, events, metrics = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 4.5, 2.5)],
                                   tasks, "fimr", interval=60.0, horizon=60.0)
    assert metrics.comm_count == 1


def test_ring_two_agents_pairwise_rendezvous():
    grid = empty_grid(20, 8)
    tasks = [task(1, 10.5, 2.5), task(2, 14.5, 4.5, release=20.0)]
    sim, events, metrics = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 6.5, 2.5)],
                                   tasks, "ring", horizon=120.0)
    comm = [e for e in events if e.kind == "comm_event"]
    assert comm and all(tuple(e.payload) == (0, 1) for e in comm)
    assert metrics.finished_tasks == 2


def test_ring_information_hops_take_n_minus_1_meetings():
    grid = empty_grid(40, 40)
    # Task visible only to agent 0 at its start corner; others far away.
    tasks = [task(1, 2.5, 5.5, duration=3.0, reqs=((1, "spec"),))]
    agents = [AgentState(0, Position(2.5, 2.5), 2.0, 8.0, frozenset({"work"})),
              AgentState(1, Position(20.5, 2.5), 2.0, 8.0, frozenset({"work"})),
              AgentState(2, Position(20.5, 20.5), 2.0, 8.0, frozenset({"work"})),
              AgentState(3, Position(2.5, 20.5), 2.0, 8.0, frozenset({"spec"}))]
    sim = Simulator(grid, agents, CommParams(), {t.id: t for t in tasks}, [], horizon=400.0)
    ctrl = make_controller(StrategyConfig("ring", ring_order=(0, 1, 2, 3)),
                           PlannerOptions(node_limit=20, generated_limit=100))
    events, metrics = sim.run(ctrl)
    # find when agent 3 first knows task 1: count comm events before that
    known_at = None
    meetings = 0
    for e in events:
        if e.kind == "comm_event":
            meetings += 1
            if 3 in e.payload and 1 in sim.agents[3].known and known_at is None:
                known_at = meetings
    assert known_at is not None and known_at >= 3  # N-1 hops for N=4
    assert metrics.finished_tasks == 1  # only agent 3 can execute it


@pytest.mark.parametrize("order, edges", [
    ((0,), []),
    ((1, 0), [(1, 0)]),
    ((0, 1, 2), [(0, 1), (1, 2), (2, 0)]),
    ((2, 0, 3, 1), [(2, 0), (0, 3), (3, 1), (1, 2)]),
])
def test_ring_edges_follow_the_order_once(order, edges):
    """n agents meet over n edges; a pair over one edge, a lone agent over none."""
    ctrl = make_controller(StrategyConfig("ring", ring_order=order))
    ctrl.on_start(SimpleNamespace(agents=dict.fromkeys(order)))
    assert ctrl.edges == edges


def reference_claimable(sim, tid, agents):
    """The greedy claim rule before it went through `eligible_groups`: the
    nearest capable agent for a one-agent task, the pair itself if it covers a
    two-agent task."""
    task = sim.tasks[tid]
    if sim.task_state[tid] != "pending":
        return None
    if any(sim.task_state.get(p) != "done" for p in sim.index.preds.get(tid, ())):
        return None
    needed = task.agents_required
    if needed > len(agents):
        return None
    candidates = []
    if needed == 1:
        action = task.requirements[0][1]
        for a in agents:
            if action in sim.agents[a].capabilities:
                travel = astar_travel_time(sim.agents[a].position, task.region_center,
                                           sim.grid, sim.agents[a].v_max)
                candidates.append((travel, (a,)))
        if candidates:
            return min(candidates)[1]
        return None
    if needed == 2 and len(agents) == 2:
        team = {a: sim.agents[a].context(0.0) for a in agents}
        if group_covers(task, tuple(sorted(agents)), team):
            return tuple(sorted(agents))
    return None


def test_greedy_claim_rule_matches_the_reference(monkeypatch):
    """Solo and pair claims pick the same group as the reference rule, and a
    claim with a single eligible group looks up no travel."""
    lookups = []  # travel times the rule looked up in one call

    def counting_travel(*args):
        lookups.append(astar_travel_time(*args))
        return lookups[-1]

    monkeypatch.setattr("commplan.strategies.astar_travel_time", counting_travel)
    grid = empty_grid(16, 16)
    ctrl = make_controller(StrategyConfig("greedy"))
    reqs = [((1, "a"),), ((1, "b"),), ((2, "a"),), ((1, "a"), (1, "b")), ((3, "a"),)]
    states = ("pending",) * 4 + ("claimed", "executing", "done")
    outcomes = set()
    for seed in range(40):
        rng = random.Random(seed)
        spots = [(rng.randrange(16) + 0.5, rng.randrange(16) + 0.5) for _ in range(3)]
        agents = [agent(a, *rng.choice(spots), v=rng.choice((1.0, 2.0)),
                        caps=rng.sample(("a", "b"), rng.randint(1, 2))) for a in range(4)]
        tasks = [task(t, rng.randrange(16) + 0.5, rng.randrange(16) + 0.5, reqs=r)
                 for t, r in enumerate(reqs + [rng.choice(reqs)])]
        rels = [TemporalRelation(rng.randrange(t), t, RelationKind.PRECEDENCE)
                for t in range(1, len(tasks)) if rng.random() < 0.3]
        sim = Simulator(grid, agents, CommParams(), {t.id: t for t in tasks}, rels,
                        horizon=10.0)
        sim.task_state = {t.id: rng.choice(states) for t in tasks}
        for tid in sim.tasks:
            for group in itertools.chain(((a,) for a in sim.agents),
                                         itertools.combinations(sorted(sim.agents), 2)):
                lookups.clear()
                got = ctrl._claimable(sim, tid, group)
                assert got == reference_claimable(sim, tid, group), (seed, tid, group)
                groups = eligible_groups(sim.tasks[tid], {a: sim.agents[a].context(0.0)
                                                          for a in group})
                if len(groups) < 2:
                    assert lookups == []
                elif len(set(lookups)) == 1:
                    outcomes.add("tie")  # equal travel: the lowest id claims
                outcomes.add((len(group), sim.tasks[tid].agents_required, got is not None))
    # Solo and pair calls both claim and refuse one-agent tasks; pairs claim two-agent ones.
    assert {(1, 1, True), (1, 1, False), (2, 1, True), (2, 1, False),
            (2, 2, True), (2, 2, False), (2, 3, False), "tie"} <= outcomes


def test_greedy_claims_at_encounter():
    grid = empty_grid(30, 6)
    # Solo tasks pull the agents past each other; the pair task needs both and
    # can only be claimed while their paths cross within radio range.
    tasks = [task(1, 15.5, 2.5, duration=3.0, reqs=((2, "work"),)),
             task(2, 27.5, 2.5), task(3, 2.5, 2.5)]
    agents = [agent(0, 2.5, 2.5, sensor=50.0), agent(1, 27.5, 2.5, sensor=50.0)]
    sim, events, metrics = run_sim(grid, agents, tasks, "greedy", horizon=120.0)
    comm = [e for e in events if e.kind == "comm_event"]
    assert comm  # they met while crossing
    assert sim.task_state[1] == "done"
    assert metrics.finished_tasks == 3
    assert metrics.comm_intervals == []  # no interval metric for greedy


class AllPairsCheckedGreedy(GreedyController):
    """Greedy that asserts at the start and after every tick that its links
    equal all-pairs `linked` and that it checked exactly the pairs with an end
    that moved (every pair at the start)."""

    def __init__(self, cfg, options, calls):
        super().__init__(cfg, options)
        self.calls = calls  # appended to by the patched radio.linked
        self.ticks = 0

    def on_start(self, sim):
        self.seen_pos = {}
        self._check(sim, "start", lambda: GreedyController.on_start(self, sim))

    def on_tick(self, sim, t):
        self._check(sim, t, lambda: GreedyController.on_tick(self, sim, t))
        self.ticks += 1

    def _check(self, sim, when, step):
        pos = {a: ag.position for a, ag in sim.agents.items()}
        pairs = list(itertools.combinations(sorted(pos), 2))
        moved = {a for a in pos if self.seen_pos.get(a) is not pos[a]}
        self.calls.clear()
        step()
        assert len(self.calls) == sum(1 for a, b in pairs if a in moved or b in moved), when
        assert self.in_range == {(a, b) for a, b in pairs
                                 if linked(pos[a], pos[b], sim.grid, sim.params)}, when
        self.seen_pos = pos


@pytest.mark.parametrize("scenario, horizon", [("desk_scenario.json", 150.0),
                                               ("subt10_greedy.json", 200.0)])
def test_greedy_links_equal_all_pairs_every_tick(monkeypatch, scenario, horizon):
    calls = []

    def counting_linked(*args):
        calls.append(args)
        return linked(*args)

    monkeypatch.setattr(radio, "linked", counting_linked)
    cfg = load_scenario(DATA / scenario)
    cfg.horizon = horizon  # shortened for test speed
    sim, ctrl = build_simulator(cfg, strategy=StrategyConfig("greedy"))
    checked = AllPairsCheckedGreedy(ctrl.cfg, ctrl.options, calls)
    _, metrics = sim.run(checked)
    assert checked.ticks == round(horizon / cfg.dt) + 1
    assert metrics.comm_count > 0


class FullPathGreedy(GreedyController):
    """Greedy that forgets its skip memory before every tick, so every tick
    runs the solo claims and the pair loop in full."""

    def on_tick(self, sim, t):
        self.news = None
        super().on_tick(sim, t)


@pytest.mark.parametrize("scenario, horizon", [("desk_scenario.json", 150.0),
                                               ("subt10_greedy.json", 200.0)])
def test_greedy_skips_change_no_event(monkeypatch, scenario, horizon):
    solo_passes = []
    full_solo_claims = GreedyController._solo_claims

    def counting_solo_claims(self, sim):
        solo_passes.append(sim.now)
        full_solo_claims(self, sim)

    monkeypatch.setattr(GreedyController, "_solo_claims", counting_solo_claims)
    cfg = load_scenario(DATA / scenario)
    cfg.horizon = horizon  # shortened for test speed
    ticks = round(horizon / cfg.dt) + 1
    for seed in (cfg.seed, cfg.seed + 1, cfg.seed + 2):
        sim, stock = build_simulator(cfg, seed=seed, strategy=StrategyConfig("greedy"))
        solo_passes.clear()
        stock_events, _ = sim.run(stock)
        stock_passes = len(solo_passes)
        sim, _ = build_simulator(cfg, seed=seed, strategy=StrategyConfig("greedy"))
        solo_passes.clear()
        full_events, _ = sim.run(FullPathGreedy(stock.cfg, stock.options))
        assert len(solo_passes) == ticks
        assert [e.line() for e in stock_events] == [e.line() for e in full_events], seed
        assert any(e.kind == "comm_event" for e in stock_events)
        assert stock_passes < ticks / 10, (seed, stock_passes)


def test_greedy_out_of_range_only_solo_tasks():
    grid = empty_grid(60, 6)
    tasks = [task(1, 5.5, 2.5), task(2, 55.5, 2.5, reqs=((2, "work"),))]
    agents = [agent(0, 2.5, 2.5, sensor=8.0), agent(1, 57.5, 2.5, sensor=8.0)]
    sim, events, metrics = run_sim(grid, agents, tasks, "greedy", horizon=60.0)
    assert metrics.finished_tasks == 1
    assert sim.task_state[1] == "done"
    assert sim.task_state[2] == "pending"  # pair task needs an encounter that never happens
