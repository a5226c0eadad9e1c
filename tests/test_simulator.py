import math
from dataclasses import replace
from pathlib import Path

import pytest

from commplan import scenario, simulator
from commplan.radio import CommParams
from commplan.scenario import build_simulator, load_scenario
from commplan.simulator import AgentState, SimulationError, Simulator
from commplan.strategies import PlannerOptions, StrategyConfig, make_controller
from commplan.tasks import (ExecutionInterval, RelationKind, Task, TemporalRelation,
                            check_schedule, detect_tasks)
from commplan.workspace import Position, los_obstacle_length

from conftest import empty_grid, grid_from_rows, relations_between

DATA = Path(__file__).parent / "data"


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
    # Both runs share the same Task objects: a run keeps its detections to itself.
    tasks = [task(1, 13.5, 9.5), task(2, 2.5, 9.5, release=12.0),
             task(3, 8.5, 5.5, duration=3.0, release=25.0)]

    def run_once():
        sim, events, metrics = run_sim(grid_from_rows(["." * 16] * 12),
                                       [agent(0, 1.5, 1.5), agent(1, 6.5, 1.5), agent(2, 11.5, 1.5)],
                                       tasks, horizon=80.0)
        assert metrics.finished_tasks == 3
        return "\n".join(e.line() for e in events)

    first = run_once()
    assert "detection" in first
    assert run_once() == first


def test_task_seen_by_two_agents_is_detected_once_by_lower_id():
    grid = empty_grid()
    # Both agents see task 1 from its release at t = 5 until the horizon.
    sim, events, _ = run_sim(grid, [agent(1, 3.5, 2.5), agent(0, 1.5, 2.5)],
                             [task(1, 2.5, 2.5, release=5.0)], horizon=30.0)
    detections = [e for e in events if e.kind == "detection"]
    assert [(e.timestamp, e.payload) for e in detections] == [(5.0, (0, 1))]
    assert sim.undetected == []


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
    done = sim.done
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
    done = sim.done
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
    sim.apply_team_plan((0, 1), {0: (1,), 1: ()}, {1: 4.0}, 12.0, meet)
    assert vars(other) == snapshot
    assert sim.agents[0].queue == [1] and sim.agents[1].queue == []
    assert [sim.agents[a].comm_target for a in (0, 1)] == [meet[0], meet[1]]
    assert 1 in sim.claimed and sim.planned_start[1] == 4.0


def test_apply_team_plan_claims_each_task_for_the_agents_holding_it():
    grid = empty_grid(12, 4)
    tasks = [task(1, 6.5, 0.5, reqs=((2, "work"),)), task(2, 9.5, 0.5)]
    sim = Simulator(grid, [agent(0, 0.5, 0.5), agent(1, 2.5, 0.5), agent(2, 4.5, 0.5)],
                    CommParams(), {t.id: t for t in tasks}, [], horizon=10.0)
    sim.apply_team_plan((0, 1, 2), {1: (1,), 0: (1, 2), 2: ()}, {1: 4.0, 2: 10.0})
    assert sim.groups == {1: (0, 1), 2: (0,)} and sim.planned_start == {1: 4.0, 2: 10.0}
    assert sim.agents[0].queue == [1, 2] and sim.agents[1].queue == [1]
    assert sim.agents[2].queue == []
    assert sim.claimed == {1, 2} and not sim.pending


@pytest.mark.parametrize("state", ["claimed", "executing", "done"])
def test_only_a_pending_task_can_be_claimed(state):
    grid = empty_grid(12, 4)
    sim = Simulator(grid, [agent(0, 0.5, 0.5), agent(1, 2.5, 0.5)], CommParams(),
                    {1: task(1, 6.5, 0.5)}, [], horizon=10.0)
    sim.pending.remove(1)
    if state == "executing":
        sim.task_finish[1] = 5.0
        sim.finishing.append((5.0, 1))
    else:
        getattr(sim, state).add(1)
    records = (set(sim.pending), set(sim.claimed), list(sim.finishing), set(sim.done))
    with pytest.raises(SimulationError, match="task 1 claimed while not pending"):
        sim.assign(1, (0,))
    with pytest.raises(SimulationError, match="task 1 claimed while not pending"):
        sim.apply_team_plan((0, 1), {1: (1,)}, {1: 4.0})
    assert (sim.pending, sim.claimed, sim.finishing, sim.done) == records
    assert sim.agents[0].queue == []


def test_comm_event_clears_the_meeting_of_its_participants_only():
    grid = empty_grid(12, 4)
    sim = Simulator(grid, [agent(0, 2.5, 0.5), agent(1, 3.5, 0.5), agent(2, 9.5, 0.5)],
                    CommParams(), {}, [], horizon=10.0)
    meet = {a: sim.agents[a].position for a in (0, 1, 2)}
    sim.apply_team_plan((0, 1, 2), {}, {}, 2.0, meet)
    for ag in sim.agents.values():
        ag.status, ag.depart_time, ag.arrived_comm_at = "waiting_at_comm", 1.5, 1.8
    other = sim.agents[2]
    snapshot = dict(vars(other))

    sim.fire_comm_event((0, 1), 2.0)
    assert [e.line() for e in sim.events] == ["2.000000 comm_event 0 1"]
    for a in (0, 1):
        ag = sim.agents[a]
        assert ag.status == "idle" and ag.leg is None
        assert (ag.comm_target, ag.comm_time, ag.depart_time, ag.arrived_comm_at) == (None,) * 4
    assert vars(other) == snapshot


def record_detect_calls(monkeypatch):
    """Make the simulator's detect_tasks calls append (now, position, candidates)
    to the returned list, where now is the clock of the simulator detecting."""
    calls, detecting = [], []
    stock_detect = simulator.Simulator._detect

    def detect_pass(sim, t):
        detecting[:] = [sim]
        stock_detect(sim, t)

    def recording_detect(pos, sensor_range, candidates, grid):
        calls.append((detecting[0].now, pos, list(candidates)))
        return detect_tasks(pos, sensor_range, candidates, grid)

    monkeypatch.setattr(simulator.Simulator, "_detect", detect_pass)
    monkeypatch.setattr(simulator, "detect_tasks", recording_detect)
    return calls


class Scripted:
    """Controller that queues task `tid` for agent 0 at time `at`, and does nothing else."""

    scheduled_events = False

    def __init__(self, tid, at):
        self.tid, self.at = tid, at

    def on_start(self, sim):
        pass

    def on_tick(self, sim, t):
        if abs(t - self.at) < 1e-9:
            sim.assign(self.tid, (0,))


def test_a_standing_agent_looks_only_at_new_tasks_and_a_moving_one_at_all(monkeypatch):
    grid = grid_from_rows(["............",
                           "......#.....",
                           "......#.....",
                           "......#.....",
                           "............"])
    calls = record_detect_calls(monkeypatch)
    behind = task(1, 9.5, 2.5)  # in range of the start, but the wall is in the way
    tasks = [behind, task(2, 1.5, 2.5, release=5.0), task(3, 6.5, 0.5)]
    recorder = PositionRecorder(Scripted(3, at=10.0))
    sim, events, _ = run_sim(grid, [agent(0, 3.5, 2.5)], tasks, horizon=30.0, ctrl=recorder)
    start = recorder.trace[0][0]
    assert start.dist(behind.region_center) < 8.0
    assert los_obstacle_length(start, behind.region_center, grid) > 0.0
    # The first tick looks at every released task; standing still, the agent
    # looks again only when task 2 is released at t = 5, and then on the move.
    times = [now for now, _, _ in calls]
    assert times[:2] == [0.0, 5.0] and min(times[2:]) > 10.0
    seen = [k for k, pos in enumerate(recorder.trace)
            if los_obstacle_length(pos[0], behind.region_center, grid) == 0.0]
    detections = [(e.timestamp, e.payload) for e in events if e.kind == "detection"]
    assert detections == [(0.0, (0, 3)), (5.0, (0, 2)), (seen[0] * sim.dt, (0, 1))]
    assert seen[0] * sim.dt > 10.0


class FullLookSimulator(simulator.Simulator):
    """Simulator that lists every agent as moved before every detection pass,
    so every agent looks at every released, undetected task on every tick."""

    def _detect(self, t):
        self.moved = list(self.agents)
        super()._detect(t)


class WatchedSimulator(simulator.Simulator):
    """Simulator that checks the detect_tasks calls of each tick, which the
    test appends to `calls`: an agent at a spot that no agent moved to this
    tick is offered only the tasks released since the last tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen, self.seen_at = {}, float("-inf")

    def _detect(self, t):
        moved_to = [ag.position for a, ag in self.agents.items()
                    if self.seen.get(a) is not ag.position]
        first = len(self.calls)
        super()._detect(t)
        for _, pos, offered in self.calls[first:]:
            if not any(pos is p for p in moved_to):
                assert all(task.release_time > self.seen_at for task in offered), t
        self.seen = {a: ag.position for a, ag in self.agents.items()}
        self.seen_at = t


@pytest.mark.parametrize("on_ticks", [False, True])
@pytest.mark.parametrize("kind", ["greedy", "cocoplan"])
@pytest.mark.parametrize("name, horizon", [("desk_scenario.json", 150.0),
                                           ("subt10_greedy.json", 200.0)])
def test_detection_skip_changes_no_event(monkeypatch, name, horizon, kind, on_ticks):
    calls = record_detect_calls(monkeypatch)
    cfg = load_scenario(DATA / name)
    cfg.strategy = StrategyConfig(kind)
    cfg.horizon = horizon  # shortened for test speed
    if on_ticks:
        # A task released at exactly a tick's time is new at that tick only.
        def on_tick(tasks):
            return [replace(t, release_time=math.ceil(t.release_time / cfg.dt) * cfg.dt)
                    for t in tasks]

        generate = scenario.generate_tasks
        monkeypatch.setattr(scenario, "generate_tasks",
                            lambda *args, **kwargs: on_tick(generate(*args, **kwargs)))
        cfg.tasks = on_tick(cfg.tasks)
    seeds = (cfg.seed, cfg.seed + 1, cfg.seed + 2)
    stock_calls = 0
    for seed in seeds:
        lines = []
        for cls in (WatchedSimulator, FullLookSimulator):
            monkeypatch.setattr(scenario, "Simulator", cls)
            sim, ctrl = build_simulator(cfg, seed=seed)
            sim.calls = calls
            calls.clear()
            events, _ = sim.run(ctrl)
            lines.append([e.line() for e in events])
            if cls is WatchedSimulator:
                stock_calls += len(calls)
        assert lines[0] == lines[1], seed
        assert any(line.split()[1] == "detection" for line in lines[0])
    # Looking every tick would take one call per agent per tick.
    ticks = round(horizon / cfg.dt) + 1
    assert stock_calls < len(seeds) * ticks * len(cfg.agents) / 10, stock_calls


class FullTickSimulator(simulator.Simulator):
    """Simulator that defeats every early return of the engine's phases:
    before each phase it rebuilds the finish heap from the finish times of
    the tasks not done and the traveling set from the agents' legs, makes
    legs and starts due now and, for detection, counts every agent as moved."""

    def _complete_executions(self, t):
        self.finishing = sorted((f, m) for m, f in self.task_finish.items() if m not in self.done)
        super()._complete_executions(t)

    def _plan_legs(self, t):
        self.legs_due = float("-inf")
        super()._plan_legs(t)

    def _move(self, t):
        self.traveling = {a for a, ag in self.agents.items() if ag.leg is not None}
        super()._move(t)

    def _detect(self, t):
        moved, self.moved = self.moved, list(self.agents)
        super()._detect(t)
        self.moved = moved

    def _start_tasks(self, t):
        self.starts_due = True
        super()._start_tasks(t)


class ScanCount(dict):
    """The agents dict, counting the scans of it that a full phase pass makes."""

    scans = 0

    def items(self):
        self.scans += 1
        return super().items()

    def values(self):
        self.scans += 1
        return super().values()


class PassCountSimulator(simulator.Simulator):
    """Stock simulator that counts the ticks on which `_plan_legs` and
    `_detect` scan the agents, that is, run a full pass, and the ticks on
    which an agent moved or a task was released since the last tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.agents = ScanCount(self.agents)
        self.passes = {"_plan_legs": 0, "_detect": 0}
        self.news_ticks = 0

    def _counted(self, phase, t):
        before = self.agents.scans
        getattr(super(), phase)(t)
        self.passes[phase] += self.agents.scans > before

    def _plan_legs(self, t):
        self._counted("_plan_legs", t)

    def _detect(self, t):
        self.news_ticks += bool(self.moved) or any(
            self.looked_at < task.release_time <= t for task in self.tasks.values())
        self._counted("_detect", t)


@pytest.mark.parametrize("kind", ["greedy", "cocoplan"])
@pytest.mark.parametrize("name, horizon", [("desk_scenario.json", 150.0),
                                           ("subt10_greedy.json", 200.0)])
def test_engine_skips_change_no_event(monkeypatch, name, horizon, kind):
    cfg = load_scenario(DATA / name)
    cfg.strategy = StrategyConfig(kind)
    cfg.horizon = horizon  # shortened for test speed
    seeds = (cfg.seed, cfg.seed + 1, cfg.seed + 2)
    ticks = round(horizon / cfg.dt) + 1
    ends = 0
    for seed in seeds:
        lines = []
        for cls in (PassCountSimulator, FullTickSimulator):
            monkeypatch.setattr(scenario, "Simulator", cls)
            sim, ctrl = build_simulator(cfg, seed=seed)
            events, _ = sim.run(ctrl)
            lines.append([e.line() for e in events])
            if cls is PassCountSimulator:
                stock = sim
        assert lines[0] == lines[1], seed
        ends += sum(line.split()[1] == "execution_end" for line in lines[0])
        # Legs are planned after a completion or a controller's change only;
        # detection must look on every tick with news, and looks on no other.
        assert 0 < stock.passes["_plan_legs"] < ticks / 10, (seed, stock.passes)
        assert stock.passes["_detect"] == stock.news_ticks < ticks / 2, (seed, stock.passes)
    assert ends > 0


class StartsDueSimulator(simulator.Simulator):
    """Stock simulator whose `_start_tasks` makes a full pass on every tick."""

    def _start_tasks(self, t):
        self.starts_due = True
        super()._start_tasks(t)


class StartPassCountSimulator(simulator.Simulator):
    """Stock simulator that counts the ticks on which `_start_tasks` passes."""

    start_passes = 0

    def _start_tasks(self, t):
        self.start_passes += self.starts_due
        super()._start_tasks(t)


@pytest.mark.parametrize("name, kind", [("desk_scenario.json", "cocoplan"),
                                        ("desk_scenario.json", "greedy"),
                                        ("desk_scenario.json", "ring"),
                                        ("subt10_greedy.json", "greedy")])
def test_the_start_skip_changes_no_event(monkeypatch, name, kind):
    """Task starts looked for on every tick give the same log, byte for byte,
    as starts looked for only after an arrival at a task and while a group
    waits at its task, over whole runs of three seeds."""
    cfg = load_scenario(DATA / name)
    cfg.strategy = StrategyConfig(kind)
    ticks = round(cfg.horizon / cfg.dt) + 1
    for seed in (cfg.seed, cfg.seed + 1, cfg.seed + 2):
        lines = []
        for cls in (StartPassCountSimulator, StartsDueSimulator):
            monkeypatch.setattr(scenario, "Simulator", cls)
            sim, ctrl = build_simulator(cfg, seed=seed)
            events, _ = sim.run(ctrl)
            lines.append("\n".join(e.line() for e in events))
            if cls is StartPassCountSimulator:
                passes = sim.start_passes
        assert lines[0] == lines[1], seed
        assert "execution_start" in lines[0]
        assert 0 < passes < ticks / 10, (seed, passes, ticks)


def test_a_task_held_by_a_mutex_partner_ending_at_t_starts_on_the_next_tick():
    # Agents 0 and 1 wait at mutex tasks 1 and 2 from t = 0; task 1 goes first
    # and ends at exactly 2.5 s, a tick, where task 2's gate still holds it
    # back. Nothing happens at 2.6 s, but task 2 must start then.
    grid = empty_grid(12, 4)
    tasks = [task(1, 0.5, 0.5, duration=2.5), task(2, 4.5, 0.5)]

    class AssignAtStart:
        scheduled_events = False

        def on_start(self, sim):
            sim.assign(1, (0,))
            sim.assign(2, (1,))

        def on_tick(self, sim, t):
            pass

    sim, events, _ = run_sim(grid, [agent(0, 0.5, 0.5), agent(1, 4.5, 0.5)], tasks,
                             rels=[TemporalRelation(1, 2, RelationKind.MUTEX)], horizon=10.0,
                             ctrl=AssignAtStart())
    assert (sim.task_start[1], sim.task_finish[1]) == (0.0, 2.5) == (0.0, 25 * sim.dt)
    assert sim.task_start[2] == 26 * sim.dt
    assert [e.line() for e in events if e.kind.startswith("execution")] == [
        "0.000000 execution_start 1 0", "2.500000 execution_end 1",
        "2.600000 execution_start 2 1", "7.600000 execution_end 2"]


def test_a_predecessor_that_is_no_task_holds_its_task_back():
    # Relation 99 -> 1 names no task 99, so task 1 can never follow it: the
    # engine reads it as greedy and the planner do, which never claim task 1.
    grid = empty_grid(12, 4)

    class AssignAtStart:
        scheduled_events = False

        def on_start(self, sim):
            sim.assign(1, (0,))

        def on_tick(self, sim, t):
            pass

    sim, events, _ = run_sim(grid, [agent(0, 0.5, 0.5)], [task(1, 6.5, 0.5)],
                             rels=[TemporalRelation(99, 1, RelationKind.PRECEDENCE)],
                             horizon=30.0, ctrl=AssignAtStart())
    arrivals = [e.line() for e in events if e.kind == "arrival"]
    assert arrivals == ["2.900000 arrival 0 task 1"]
    assert 1 not in sim.task_start and sim.claimed == {1}
    assert not [e for e in events if e.kind.startswith("execution")]


def test_tasks_due_in_one_tick_finish_in_finish_then_id_order():
    # Tasks 3 and 5 finish at one instant and task 1 later, all between the
    # ticks at 2.9 and 3.0 s, so the completion pass at 3.0 s ends all three.
    grid = empty_grid(12, 4)
    tasks = [task(1, 0.5, 0.5, duration=2.98), task(3, 2.5, 0.5, duration=2.95),
             task(5, 4.5, 0.5, duration=2.95)]

    class AssignAtStart:
        scheduled_events = False

        def __init__(self):
            self.done = {}

        def on_start(self, sim):
            for aid, tid in enumerate((1, 3, 5)):
                sim.assign(tid, (aid,))

        def on_tick(self, sim, t):
            self.done[round(t / sim.dt)] = set(sim.done)

    ctrl = AssignAtStart()
    sim, events, _ = run_sim(grid, [agent(0, 0.5, 0.5), agent(1, 2.5, 0.5), agent(2, 4.5, 0.5)],
                             tasks, horizon=5.0, ctrl=ctrl)
    assert [sim.task_start[t] for t in (1, 3, 5)] == [0.0] * 3
    assert (ctrl.done[29], ctrl.done[30]) == (set(), {1, 3, 5})
    ends = [e.line() for e in events if e.kind == "execution_end"]
    assert ends == ["2.950000 execution_end 3", "2.950000 execution_end 5",
                    "2.980000 execution_end 1"]


def test_a_comm_event_sends_a_freed_agent_to_the_task_it_was_given():
    # Agent 0 is given task 1 while it waits at its meeting, so no leg can
    # start then; the event that frees it must send it to the task.
    grid = empty_grid(12, 4)

    class MeetThenWork:
        scheduled_events = False

        def on_start(self, sim):
            sim.apply_team_plan((0, 1), {}, {}, 1.0, {a: sim.agents[a].position for a in (0, 1)})

        def on_tick(self, sim, t):
            if abs(t - 1.5) < 1e-9:
                assert sim.agents[0].status == "waiting_at_comm"
                sim.assign(1, (0,))
            elif abs(t - 2.0) < 1e-9:
                sim.fire_comm_event((0, 1), t)

    sim, events, _ = run_sim(grid, [agent(0, 0.5, 0.5), agent(1, 1.5, 0.5)],
                             [task(1, 6.5, 0.5)], horizon=15.0, ctrl=MeetThenWork())
    arrivals = [e for e in events if e.kind == "arrival" and e.payload[1] == "task"]
    assert [e.payload for e in arrivals] == [(0, "task", 1)] and arrivals[0].timestamp > 2.0
    assert sim.done == {1}


class CounterCheck:
    """Controller wrapper that checks after each tick the simulator's running
    total and the agents that hold a leg against full scans, that every task
    id is in exactly one of the pending, claimed, executing (the finish heap)
    and done records, and that the heap holds each executing task's finish."""

    def __init__(self, inner):
        self.inner = inner
        self.scheduled_events = inner.scheduled_events
        self.merged = False

    def on_start(self, sim):
        self.inner.on_start(sim)

    def on_tick(self, sim, t):
        before = [len(ag.known) for ag in sim.agents.values()]
        self.inner.on_tick(sim, t)
        self.merged |= before != [len(ag.known) for ag in sim.agents.values()]
        assert sim.known_count == sum(len(ag.known) for ag in sim.agents.values()), t
        executing = [m for _, m in sim.finishing]
        records = [*sim.pending, *sim.claimed, *executing, *sim.done]
        assert sorted(records) == sorted(sim.tasks), t
        assert sim.has_future_work() == bool(sim.pending or sim.claimed or executing), t
        assert sorted(sim.finishing) == sorted((sim.task_finish[m], m) for m in executing), t
        assert set(sim.task_finish) == {*executing, *sim.done}, t
        assert sim.traveling == {a for a, ag in sim.agents.items() if ag.leg is not None}, t


@pytest.mark.parametrize("name, kind, horizon", [("desk_scenario.json", "greedy", 150.0),
                                                 ("desk_scenario.json", "cocoplan", 150.0),
                                                 ("subt10_greedy.json", "greedy", 200.0)])
def test_known_and_done_counts_stay_exact(name, kind, horizon):
    cfg = load_scenario(DATA / name)
    cfg.strategy = StrategyConfig(kind)
    cfg.horizon = horizon  # shortened for test speed
    sim, ctrl = build_simulator(cfg)
    check = CounterCheck(ctrl)
    _, metrics = sim.run(check)
    assert check.merged and metrics.finished_tasks > 0


class MovedCheck:
    """Controller wrapper that checks after each tick that `sim.moved` lists, in
    ascending order, the agents whose position object the tick replaced, and
    that an agent has a leg exactly when it is traveling."""

    def __init__(self, inner):
        self.inner = inner
        self.scheduled_events = inner.scheduled_events
        self.moving_ticks = 0

    def on_start(self, sim):
        self.inner.on_start(sim)
        self.seen = {a: ag.position for a, ag in sim.agents.items()}

    def on_tick(self, sim, t):
        self.inner.on_tick(sim, t)
        pos = {a: ag.position for a, ag in sim.agents.items()}
        assert sim.moved == [a for a in sorted(pos) if pos[a] is not self.seen[a]], t
        assert all((ag.status == "traveling") == (ag.leg is not None)
                   for ag in sim.agents.values()), t
        self.moving_ticks += bool(sim.moved)
        self.seen = pos


@pytest.mark.parametrize("name, kind, horizon", [("desk_scenario.json", "cocoplan", 150.0),
                                                 ("subt10_greedy.json", "greedy", 200.0)])
def test_moved_lists_the_agents_whose_position_changed(name, kind, horizon):
    # On desk, a chain's resident travels a zero-length leg to its own anchor:
    # it traveled, but its position object is kept, so it is not listed.
    cfg = load_scenario(DATA / name)
    cfg.strategy = StrategyConfig(kind)
    cfg.horizon = horizon  # shortened for test speed
    sim, ctrl = build_simulator(cfg)
    check = MovedCheck(ctrl)
    sim.run(check)
    assert 0 < check.moving_ticks < round(horizon / cfg.dt) + 1
