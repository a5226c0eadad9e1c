import pytest

from commplan.radio import CommParams
from commplan.simulator import AgentState, Simulator
from commplan.strategies import PlannerOptions, StrategyConfig, make_controller
from commplan.tasks import ExecutionInterval, RelationKind, Task, TemporalRelation, check_schedule
from commplan.workspace import Position

from conftest import empty_grid, grid_from_rows, relations_between


def agent(aid, x, y, v=2.0, sensor=8.0, caps=("work",)):
    return AgentState(aid, Position(x, y), v, sensor, frozenset(caps))


def task(tid, x, y, duration=5.0, reqs=((1, "work"),), release=0.0):
    return Task(tid, Position(x, y), 1.0, duration, reqs, release_time=release)


def make_ctrl(kind="cocoplan", **kw):
    return make_controller(StrategyConfig(kind, **kw), PlannerOptions(node_limit=30,
                                                                      generated_limit=200))


def run_sim(grid, agents, tasks, rels=(), kind="cocoplan", horizon=60.0, ctrl=None, **kw):
    sim = Simulator(grid, agents, CommParams(), {t.id: t for t in tasks}, list(rels),
                    horizon=horizon)
    events, metrics = sim.run(ctrl or make_ctrl(kind, **kw))
    return sim, events, metrics


def test_kinematics_ten_ticks_for_two_meters():
    grid = empty_grid(20, 4)
    sim, events, metrics = run_sim(grid, [agent(0, 0.5, 0.5)],
                                   [task(1, 2.5, 0.5, duration=1.0)], horizon=20.0)
    arrivals = [e for e in events if e.kind == "arrival" and e.payload[1] == "task"]
    # leg starts after the bootstrap replan at t=0; 2 m at 2 m/s = 1 s = 10 ticks
    assert arrivals[0].timestamp == pytest.approx(1.1, abs=0.11)
    assert metrics.finished_tasks == 1


def test_single_visible_task_completion_time():
    grid = empty_grid(20, 4)
    sim, events, metrics = run_sim(grid, [agent(0, 0.5, 0.5)],
                                   [task(1, 6.5, 0.5, duration=5.0)], horizon=30.0)
    assert metrics.finished_tasks == 1
    end = metrics.completion_times[1]
    # travel 6 m at 2 m/s = 3 s, plus 5 s duration, within one tick of slack
    assert end == pytest.approx(8.0, abs=0.21)


def test_empty_stream_single_bootstrap_cycle():
    grid = empty_grid()
    sim, events, metrics = run_sim(grid, [agent(0, 2.5, 2.5), agent(1, 4.5, 2.5)],
                                   [], horizon=30.0)
    kinds = [e.kind for e in events]
    assert kinds.count("replanned") == 1
    assert kinds.count("comm_event") == 0
    assert metrics.finished_tasks == 0


def test_identical_timestamp_events_ordered_by_agent_id():
    grid = empty_grid(20, 6)
    # Two agents, two identical tasks at mirrored distances: arrivals coincide.
    sim, events, _ = run_sim(grid, [agent(0, 0.5, 0.5), agent(1, 0.5, 4.5)],
                             [task(1, 4.5, 0.5), task(2, 4.5, 4.5)], horizon=40.0)
    for ts in {e.timestamp for e in events}:
        arr = [e for e in events if e.timestamp == ts and e.kind == "arrival"]
        ids = [e.payload[0] for e in arr]
        assert ids == sorted(ids)


def test_replay_determinism_byte_identical():
    grid = grid_from_rows(["." * 16] * 12)
    agents_a = [agent(0, 1.5, 1.5), agent(1, 6.5, 1.5), agent(2, 11.5, 1.5)]
    tasks_a = [task(1, 13.5, 9.5), task(2, 2.5, 9.5, release=12.0),
               task(3, 8.5, 5.5, duration=3.0, release=25.0)]

    def run_once():
        sim, events, metrics = run_sim(grid_from_rows(["." * 16] * 12),
                                       [agent(0, 1.5, 1.5), agent(1, 6.5, 1.5), agent(2, 11.5, 1.5)],
                                       [task(1, 13.5, 9.5), task(2, 2.5, 9.5, release=12.0),
                                        task(3, 8.5, 5.5, duration=3.0, release=25.0)],
                                       horizon=80.0)
        return "\n".join(e.line() for e in events)

    assert run_once() == run_once()


class PositionRecorder:
    """Controller wrapper that records every agent's position after each tick."""

    def __init__(self, inner):
        self.inner = inner
        self.scheduled_events = inner.scheduled_events
        self.trace = []

    def on_start(self, sim):
        self.inner.on_start(sim)

    def on_tick(self, sim, t):
        self.inner.on_tick(sim, t)
        self.trace.append({a: sim.agents[a].position for a in sorted(sim.agents)})


def test_speed_bound_per_tick():
    grid = empty_grid(20, 20)
    recorder = PositionRecorder(make_ctrl())
    sim, events, _ = run_sim(grid, [agent(0, 0.5, 0.5), agent(1, 18.5, 0.5)],
                             [task(1, 18.5, 18.5), task(2, 0.5, 18.5)],
                             horizon=60.0, ctrl=recorder)
    trace = recorder.trace
    for prev, cur in zip(trace, trace[1:]):
        for aid in prev:
            moved = prev[aid].dist(cur[aid])
            assert moved <= 2.0 * sim.dt + grid.resolution + 1e-9


def test_comm_events_connected_and_cycles_close_before_events():
    rows = ["................",
            "......##........",
            "......##........",
            "................",
            "................",
            "................"]
    grid = grid_from_rows([r[:16] for r in rows])
    tasks_list = [task(1, 1.5, 4.5), task(2, 14.5, 4.5), task(3, 7.5, 4.5, release=15.0),
                  task(4, 12.5, 0.5, duration=3.0, release=30.0)]
    sim, events, metrics = run_sim(grid, [agent(0, 2.5, 0.5, sensor=20.0),
                                          agent(1, 5.5, 0.5, sensor=20.0)],
                                   tasks_list, horizon=90.0)
    assert metrics.finished_tasks == 4
    comm_times = [e.timestamp for e in events if e.kind == "comm_event"]
    assert comm_times
    for rec in sim.cycle_records:
        if rec.actual_event is None:
            continue
        for tid in rec.assigned:
            assert sim.task_finish[tid] <= rec.actual_event + 1e-9


def test_completed_intervals_pass_check_schedule():
    grid = empty_grid(16, 16)
    rels = [TemporalRelation(1, 2, RelationKind.PRECEDENCE),
            TemporalRelation(3, 4, RelationKind.MUTEX),
            TemporalRelation(5, 6, RelationKind.CONCURRENCY)]
    tasks_list = [task(1, 2.5, 2.5), task(2, 13.5, 2.5), task(3, 2.5, 13.5),
                  task(4, 13.5, 13.5), task(5, 8.5, 8.5), task(6, 5.5, 8.5)]
    sim, events, metrics = run_sim(grid, [agent(0, 7.5, 7.5), agent(1, 9.5, 7.5)],
                                   tasks_list, rels=rels, horizon=120.0)
    assert metrics.finished_tasks == 6
    done = {t for t, s in sim.task_state.items() if s == "done"}
    intervals = [ExecutionInterval(t, sim.task_start[t], sim.task_finish[t]) for t in sorted(done)]
    ok, bad = check_schedule(intervals, relations_between(rels, done))
    assert ok, bad


def test_mutex_runtime_gating_keeps_intervals_disjoint():
    grid = empty_grid(12, 6)
    rels = [TemporalRelation(1, 2, RelationKind.MUTEX)]
    # Same spot, two agents: both could run simultaneously without the gate.
    tasks_list = [task(1, 5.5, 2.5, duration=4.0), task(2, 6.5, 2.5, duration=4.0)]
    sim, events, metrics = run_sim(grid, [agent(0, 4.5, 2.5), agent(1, 7.5, 2.5)],
                                   tasks_list, rels=rels, horizon=60.0)
    assert metrics.finished_tasks == 2
    i1 = (sim.task_start[1], sim.task_finish[1])
    i2 = (sim.task_start[2], sim.task_finish[2])
    assert i1[1] < i2[0] or i2[1] < i1[0]


def test_concurrency_runtime_co_start():
    grid = empty_grid(12, 6)
    rels = [TemporalRelation(1, 2, RelationKind.CONCURRENCY)]
    tasks_list = [task(1, 3.5, 2.5, duration=4.0), task(2, 8.5, 2.5, duration=6.0)]
    sim, events, metrics = run_sim(grid, [agent(0, 4.5, 2.5), agent(1, 7.5, 2.5)],
                                   tasks_list, rels=rels, horizon=60.0)
    assert metrics.finished_tasks == 2
    lo = max(sim.task_start[1], sim.task_start[2])
    hi = min(sim.task_finish[1], sim.task_finish[2])
    assert lo <= hi  # overlapping closed intervals


def test_event_log_timestamps_non_decreasing():
    grid = empty_grid(16, 16)
    sim, events, _ = run_sim(grid, [agent(0, 1.5, 1.5), agent(1, 14.5, 14.5)],
                             [task(1, 14.5, 1.5), task(2, 1.5, 14.5, release=20.0)],
                             horizon=80.0)
    stamps = [e.timestamp for e in events]
    assert all(a <= b + 1e-9 for a, b in zip(stamps, stamps[1:]))


def test_travel_leg_duration_matches_path_length():
    from commplan.workspace import astar_length
    grid = empty_grid(20, 8)
    sim, events, metrics = run_sim(grid, [agent(0, 0.5, 0.5, sensor=20.0)],
                                   [task(1, 15.5, 6.5, duration=2.0)], horizon=30.0)
    departure = next(e.timestamp for e in events if e.kind == "replanned")
    arrival = next(e.timestamp for e in events if e.kind == "arrival")
    length = astar_length(Position(0.5, 0.5), Position(15.5, 6.5), grid)
    # one tick of start latency plus one tick of arrival quantization
    assert abs((arrival - departure) - length / 2.0) <= 2 * sim.dt + 1e-9


def test_subt_scale_run_reaches_horizon():
    import random as _random
    from pathlib import Path
    grid_text = (Path(__file__).parent / "data" / "subt.map").read_text()
    from commplan.workspace import parse_grid
    grid = parse_grid(grid_text)
    rng = _random.Random(321)
    free = grid.free_cells()
    starts = [c for c in free if c[1] < 10]
    agents_list = [AgentState(i, grid.center(c), 2.0, 8.0, frozenset({"work"}))
                   for i, c in enumerate(rng.sample(starts, 10))]
    tasks = {}
    for t in range(14):
        c = grid.center(rng.choice(free))
        tasks[t] = Task(t, c, 1.0, rng.uniform(4.0, 12.0),
                        ((1, "work"),) if t % 4 else ((2, "work"),),
                        release_time=rng.uniform(0.0, 80.0))
    sim = Simulator(grid, agents_list, CommParams(), tasks, [], horizon=150.0)
    ctrl = make_controller(StrategyConfig("cocoplan"),
                           PlannerOptions(node_limit=5, generated_limit=60))
    events, metrics = sim.run(ctrl)
    assert sim.now == pytest.approx(150.0)
    for rec in sim.cycle_records:
        if rec.actual_event is None:
            continue
        for tid in rec.assigned:
            assert sim.task_finish[tid] <= rec.actual_event + 1e-9


def test_concurrency_cluster_with_internal_precedence_executes():
    # 0 overlaps both 1 and 2, while 1 must finish before 2 starts: the
    # runtime must stagger the starts by the planned order, not co-start.
    grid = empty_grid(14, 6)
    rels = [TemporalRelation(0, 1, RelationKind.CONCURRENCY),
            TemporalRelation(0, 2, RelationKind.CONCURRENCY),
            TemporalRelation(1, 2, RelationKind.PRECEDENCE)]
    tasks_list = [task(0, 6.5, 2.5, duration=20.0), task(1, 4.5, 2.5, duration=4.0),
                  task(2, 8.5, 2.5, duration=4.0)]
    sim, events, metrics = run_sim(grid, [agent(0, 5.5, 2.5, sensor=20.0),
                                          agent(1, 7.5, 2.5, sensor=20.0)],
                                   tasks_list, rels=rels, horizon=90.0)
    assert metrics.finished_tasks == 3
    done = {t for t, s in sim.task_state.items() if s == "done"}
    intervals = [ExecutionInterval(t, sim.task_start[t], sim.task_finish[t]) for t in sorted(done)]
    ok, bad = check_schedule(intervals, relations_between(rels, done))
    assert ok, bad


def test_apply_team_plan_leaves_other_agents_untouched():
    grid = empty_grid(12, 4)
    tasks = [task(1, 6.5, 0.5), task(2, 9.5, 0.5)]
    sim = Simulator(grid, [agent(0, 0.5, 0.5), agent(1, 2.5, 0.5), agent(2, 4.5, 0.5)],
                    CommParams(), {t.id: t for t in tasks}, [], horizon=10.0)
    sim.assign(2, (2,))
    other = sim.agents[2]
    other.status = "traveling"
    other.comm_target, other.comm_time = Position(8.5, 0.5), 7.0
    other.depart_time, other.arrived_comm_at = 3.0, 2.0
    snapshot = dict(vars(other), queue=list(other.queue))

    meet = {0: Position(3.5, 0.5), 1: Position(3.5, 1.5)}
    sim.apply_team_plan((0, 1), {0: (1,), 1: ()}, {1: ExecutionInterval(1, 4.0, 9.0)},
                        12.0, meet)
    assert vars(other) == snapshot
    assert sim.agents[0].queue == [1] and sim.agents[1].queue == []
    assert [sim.agents[a].comm_target for a in (0, 1)] == [meet[0], meet[1]]
    assert sim.task_state[1] == "claimed" and sim.planned_start[1] == 4.0


def test_apply_team_plan_claims_each_task_for_the_agents_holding_it():
    grid = empty_grid(12, 4)
    tasks = [task(1, 6.5, 0.5, reqs=((2, "work"),)), task(2, 9.5, 0.5)]
    sim = Simulator(grid, [agent(0, 0.5, 0.5), agent(1, 2.5, 0.5), agent(2, 4.5, 0.5)],
                    CommParams(), {t.id: t for t in tasks}, [], horizon=10.0)
    sim.apply_team_plan((0, 1, 2), {1: (1,), 0: (1, 2), 2: ()},
                        {1: ExecutionInterval(1, 4.0, 9.0), 2: ExecutionInterval(2, 10.0, 15.0)})
    assert sim.groups == {1: (0, 1), 2: (0,)}
    assert sim.agents[0].queue == [1, 2] and sim.agents[1].queue == [1]
    assert sim.agents[2].queue == []
    assert all(sim.task_state[t] == "claimed" for t in (1, 2))
