import json
import math

import pytest

from commplan.scenario import (GeneratorSpec, Phase, ScenarioError, build_simulator,
                               generate_tasks, load_scenario, scenario_from_dict,
                               serialize_scenario)
from commplan.workspace import Position

from conftest import empty_grid


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


def test_round_trip_identity(tmp_path):
    raw = minimal_raw()
    raw["tasks"] = [{"id": 1, "center": [5.0, 5.0], "radius": 1.0, "duration": 5.0,
                     "requirements": [[1, "work"]], "release_time": 3.0}]
    raw["relations"] = []
    raw["strategy"] = {"kind": "fimr", "interval": 35.0}
    raw["generator"] = {
        "phases": [{"start": 0.0, "end": 100.0, "spatial": "uniform", "temporal": "uniform"}],
        "rate": 0.05,
    }
    cfg = load_scenario(write_scenario(tmp_path, raw))
    dumped = serialize_scenario(cfg)
    cfg2 = scenario_from_dict(dumped, tmp_path)
    assert cfg == cfg2
    assert serialize_scenario(cfg2) == dumped


def test_fpmr_fixed_point_on_obstacle_rejected(tmp_path):
    (tmp_path / "arena.map").write_text("4 4 1\n...#\n....\n....\n....\n")
    raw = minimal_raw()
    raw["strategy"] = {"kind": "fpmr", "fixed_point": [3.5, 0.5]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    assert "fixed_point" in str(err.value)


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


def test_build_simulator_fresh_tasks(tmp_path):
    raw = minimal_raw()
    raw["tasks"] = [{"id": 1, "center": [5.0, 5.0], "duration": 5.0,
                     "requirements": [[1, "work"]]}]
    cfg = load_scenario(write_scenario(tmp_path, raw))
    sim1, _ = build_simulator(cfg)
    sim1.tasks[1].detected_at = 3.0
    sim2, _ = build_simulator(cfg)
    assert sim2.tasks[1].detected_at is None
