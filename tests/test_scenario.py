import json
import math
import random
import time
from pathlib import Path

import pytest

from commplan.experiment import run_trial
from commplan.scenario import (GeneratorSpec, Phase, ScenarioError, _poisson, generate_tasks,
                               load_scenario, scenario_from_dict, serialize_scenario)
from commplan.radio import CommParams
from commplan.strategies import StrategyConfig
from commplan.tasks import Task
from commplan.workspace import Position, load_grid

from conftest import empty_grid


DATA = Path(__file__).parent / "data"
MAP_TEXT = "12 10 1\n" + "\n".join(["." * 12] * 10) + "\n"


def write_scenario(tmp_path, raw):
    (tmp_path / "arena.map").write_text(MAP_TEXT)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    return path


def minimal_raw():
    return {
        "map": "arena.map",
        "agents": [{"id": 0, "start": [2.0, 2.0], "v_max": 2.0,
                    "sensor_range": 8.0, "capabilities": ["work"]}],
        "tasks": [],
        "relations": [],
        "strategy": {"kind": "cocoplan"},
        "horizon": 60.0,
    }


def test_minimal_scenario_loads(tmp_path):
    cfg = load_scenario(write_scenario(tmp_path, minimal_raw()))
    assert cfg.horizon == 60.0
    assert cfg.agents[0].start == Position(2.5, 2.5)  # snapped to the cell center
    assert cfg.strategy.kind == "cocoplan"


def test_agent_on_obstacle_is_named(tmp_path):
    (tmp_path / "arena.map").write_text("4 4 1\n#...\n....\n....\n....\n")
    raw = minimal_raw()
    raw["agents"][0]["start"] = [0.5, 0.5]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "agents[0].start" in str(err.value)
    assert "agent 0" in str(err.value)


def test_validation_collects_multiple_errors(tmp_path):
    raw = minimal_raw()
    raw["tasks"] = [{"id": 1, "center": [100.0, 2.0], "duration": 5.0,
                     "requirements": [[1, "work"]]}]
    raw["relations"] = [[1, 7, "precedence"]]
    raw["horizon"] = -3
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, raw))
    msg = str(err.value)
    assert "tasks[0].center" in msg
    assert "relations[0]" in msg and "7" in msg
    assert "horizon" in msg


@pytest.mark.parametrize("section,key,value,path", [
    (None, "dt", 0, "dt"),
    (None, "dt", -0.1, "dt"),
    (None, "dt", math.inf, "dt"),
    (None, "dt", "abc", "dt"),
    (None, "dt", "0.1", "dt"),
    (None, "dt", 10 ** 400, "dt"),
    ("agent", "v_max", 0, "agents[0].v_max"),
    ("agent", "v_max", -1.0, "agents[0].v_max"),
    ("agent", "v_max", math.nan, "agents[0].v_max"),
])
def test_nonpositive_timestep_and_speed_rejected(tmp_path, section, key, value, path):
    raw = minimal_raw()
    (raw["agents"][0] if section == "agent" else raw)[key] = value
    with pytest.raises(ScenarioError) as err:
        load_scenario(write_scenario(tmp_path, raw))
    assert str(err.value).startswith(f"{path}: ")


def test_json_syntax_error_reports_line(tmp_path):
    (tmp_path / "arena.map").write_text(MAP_TEXT)
    path = tmp_path / "bad.json"
    path.write_text('{\n "map": "arena.map",\n broken\n}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "line 3" in str(err.value)


def test_subt_scale_config_loads(tmp_path):
    (tmp_path / "subt.map").write_text("40 60 1\n" + "\n".join(["." * 40] * 60) + "\n")
    raw = {
        "map": "subt.map",
        "agents": [{"id": i, "start": [2.0 + 3 * i, 2.0], "v_max": 2.0,
                    "sensor_range": 8.0, "capabilities": ["work"]} for i in range(10)],
        "tasks": [],
        "relations": [],
        "strategy": {"kind": "cocoplan"},
        "horizon": 600.0,
    }
    path = tmp_path / "subt.json"
    path.write_text(json.dumps(raw))
    cfg = load_scenario(path)
    assert len(cfg.agents) == 10
    assert all(a.v_max == 2.0 and a.sensor_range == 8.0 for a in cfg.agents)
    assert cfg.grid.width_m == 40 and cfg.grid.height_m == 60


@pytest.mark.parametrize("shipped", [None] + sorted(p.name for p in DATA.glob("*.json")))
def test_round_trip_identity(tmp_path, shipped):
    if shipped is None:
        raw = minimal_raw()
        raw["tasks"] = [{"id": 1, "center": [5.0, 5.0], "radius": 1.0, "duration": 5.0,
                         "requirements": [[1, "work"]], "release_time": 3.0}]
        raw["relations"] = []
        raw["strategy"] = {"kind": "fimr", "interval": 35.0}
        raw["generator"] = {
            "phases": [{"start": 0.0, "end": 100.0, "spatial": "uniform", "temporal": "uniform"}],
            "rate": 0.05,
        }
        path = write_scenario(tmp_path, raw)
    else:
        path = DATA / shipped
    cfg = load_scenario(path)
    dumped = serialize_scenario(cfg)
    cfg2 = scenario_from_dict(dumped, path.parent)
    assert cfg == cfg2
    assert serialize_scenario(cfg2) == dumped
    assert {k: v for k, v in vars(cfg2).items() if k != "grid"} == \
           {k: v for k, v in vars(cfg).items() if k != "grid"}


def test_omitted_and_null_fields_load_the_defaults(tmp_path):
    raw = minimal_raw()
    raw["generator"] = {}
    raw["planner_budget"] = None  # null reads as the default where that is None
    raw["strategy"] = {"kind": "cocoplan", "leader": None, "ring_order": None}
    cfg = load_scenario(write_scenario(tmp_path, raw))
    assert cfg.params == CommParams()
    assert cfg.generator == GeneratorSpec(phases=[])
    assert cfg.strategy == StrategyConfig("cocoplan")
    assert cfg.planner_budget is None and cfg.node_limit == 200


def test_fpmr_fixed_point_on_obstacle_rejected(tmp_path):
    (tmp_path / "arena.map").write_text("4 4 1\n...#\n....\n....\n....\n")
    raw = minimal_raw()
    raw["strategy"] = {"kind": "fpmr", "fixed_point": [3.5, 0.5]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "fixed_point" in str(err.value)


@pytest.mark.parametrize("seed, ok", [(-1, False), (-2, False), (1.0, False), (0, True), (1, True)])
def test_seed_must_be_a_nonnegative_integer(tmp_path, seed, ok):
    """random.Random seeds with abs(), so a negative seed would replay its
    positive twin."""
    raw = {**minimal_raw(), "seed": seed}
    if ok:
        assert load_scenario(write_scenario(tmp_path, raw)).seed == seed
        return
    with pytest.raises(ScenarioError, match="seed: must be an integer >= 0"):
        load_scenario(write_scenario(tmp_path, raw))


def test_generator_zero_rate_empty_stream():
    grid = empty_grid()
    spec = GeneratorSpec(phases=[Phase(0, 100, "uniform", "uniform")], rate=0.0)
    assert generate_tasks(spec, 1, grid) == []


def test_generator_deterministic_per_seed():
    grid = empty_grid(20, 20)
    spec = GeneratorSpec(phases=[Phase(0, 300, "uniform", "spiky")], burst_rate=0.02)
    a = generate_tasks(spec, 9, grid)
    b = generate_tasks(spec, 9, grid)
    c = generate_tasks(spec, 10, grid)
    assert [(t.id, t.release_time, t.region_center) for t in a] == \
           [(t.id, t.release_time, t.region_center) for t in b]
    assert [(t.release_time, t.region_center) for t in a] != \
           [(t.release_time, t.region_center) for t in c]


def test_generator_phase_validation():
    with pytest.raises(ScenarioError):
        GeneratorSpec(phases=[Phase(0, 100, "weird", "uniform")])
    with pytest.raises(ScenarioError):
        GeneratorSpec(phases=[Phase(0, 100, "uniform", "uniform"),
                              Phase(50, 150, "uniform", "uniform")])


def test_generator_sparse_respects_min_distance():
    grid = empty_grid(40, 40)
    spec = GeneratorSpec(phases=[Phase(0, 200, "uniform", "uniform")], rate=0.02)
    spec.phases[0] = Phase(0, 200, "sparse", "uniform")
    spec.sparse_min_dist = 6.0
    tasks = generate_tasks(spec, 3, grid)
    pts = [t.region_center for t in tasks]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert pts[i].dist(pts[j]) >= 6.0 - 1e-9 or len(pts) > 30


def all_pairs_sparse_stream(spec, seed, grid):
    """generate_tasks for one sparse phase with uniform arrivals, testing each
    candidate against every task placed so far."""
    (ph,) = spec.phases
    rng = random.Random(seed)
    free = grid.free_cells()

    def uniform_pos():
        return grid.center(free[rng.randrange(len(free))])

    span = ph.end - ph.start
    times = sorted([ph.start + rng.random() * span for _ in range(_poisson(spec.rate * span, rng))])
    tasks, placed = [], []
    for t_release in times:
        pos = None
        for _ in range(200):
            cand = uniform_pos()
            if all(cand.dist(p) >= spec.sparse_min_dist for p in placed):
                pos = cand
                break
        if pos is None:
            pos = uniform_pos()
        placed.append(pos)
        duration = rng.uniform(*spec.duration_range)
        req = spec.requirement_options[rng.randrange(len(spec.requirement_options))]
        tasks.append(Task(len(tasks), pos, spec.radius, duration, tuple(req),
                          release_time=t_release))
    return tasks


@pytest.mark.parametrize("cells", [0.0, 0.5, 1.0, 2.5])
def test_generator_sparse_equals_the_all_pairs_rule(cells):
    """Sparse placement checks only nearby buckets, yet draws and places as the
    all-pairs rule does, for a minimum distance of 0, below, at and above a cell."""
    crowded = 0
    for seed, grid in enumerate([empty_grid(12, 12), empty_grid(20, 9, resolution=0.5),
                                 load_grid(DATA / "desk.map")]):
        spec = GeneratorSpec(phases=[Phase(0, 400, "sparse", "uniform")], rate=0.4,
                             sparse_min_dist=cells * grid.resolution,
                             requirement_options=(((1, "work"),), ((2, "work"),)))
        got = generate_tasks(spec, seed, grid)
        assert len(got) >= 120
        assert got == all_pairs_sparse_stream(spec, seed, grid), (cells, seed)
        pts = [t.region_center for t in got]
        crowded += any(p.dist(q) < spec.sparse_min_dist for i, p in enumerate(pts)
                       for q in pts[:i])
    # A phase that outgrows its spaced places falls back to unspaced ones.
    assert crowded == 0 if cells == 0.0 else crowded >= 1


def test_generator_sparse_phase_of_4000_tasks_takes_seconds():
    grid = load_grid(DATA / "subt.map")
    spec = GeneratorSpec(phases=[Phase(0, 4000, "sparse", "uniform")], rate=1.0,
                         sparse_min_dist=0.1)
    start = time.perf_counter()
    tasks = generate_tasks(spec, 5, grid)
    assert len(tasks) > 3900 and time.perf_counter() - start < 20.0


def test_generator_uniform_chi_squared():
    # 10,000 spatial samples over the free cells; chi-squared uniformity at
    # alpha = 0.01 with a Wilson-Hilferty critical value.
    grid = empty_grid(10, 10)
    spec = GeneratorSpec(phases=[Phase(0, 110000, "uniform", "uniform")], rate=0.1)
    tasks = generate_tasks(spec, 12345, grid)[:10000]
    assert len(tasks) == 10000
    counts = {}
    for t in tasks:
        cell = grid.cell_at(t.region_center)
        counts[cell] = counts.get(cell, 0) + 1
    n_cells = len(grid.free_cells())
    expected = len(tasks) / n_cells
    chi2 = sum((counts.get(c, 0) - expected) ** 2 / expected for c in grid.free_cells())
    df = n_cells - 1
    z = 2.3263478740408408  # 99th percentile of the standard normal
    crit = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
    assert chi2 < crit


def test_trials_share_scenario_tasks(tmp_path):
    raw = minimal_raw()
    raw["tasks"] = [{"id": 1, "center": [5.0, 5.0], "duration": 5.0,
                     "requirements": [[1, "work"]]}]
    cfg = load_scenario(write_scenario(tmp_path, raw))
    logs = []
    for _ in range(2):
        sim, events, metrics = run_trial(cfg, 0)
        assert sim.tasks[1] is cfg.tasks[0]
        assert metrics.finished_tasks == 1
        logs.append("\n".join(e.line() for e in events))
    assert "detection" in logs[0] and logs[1] == logs[0]
