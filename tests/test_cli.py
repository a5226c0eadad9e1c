import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commplan
from commplan import cli, scenario
from commplan.cli import main
from commplan.experiment import CSV_COLUMNS, run_experiment, run_trial, write_event_log
from commplan.scenario import MAX_ARRIVALS, MAX_HORIZON, MAX_TICKS, load_scenario

DATA = Path(__file__).parent / "data"


def small_raw(map_name="small.map"):
    return {
        "map": map_name,
        "agents": [
            {"id": 0, "start": [2.0, 2.0], "v_max": 2.0, "sensor_range": 20.0,
             "capabilities": ["work"]},
            {"id": 1, "start": [6.0, 2.0], "v_max": 2.0, "sensor_range": 20.0,
             "capabilities": ["work"]},
        ],
        "tasks": [
            {"id": 1, "center": [10.0, 3.0], "duration": 4.0, "requirements": [[1, "work"]]},
            {"id": 2, "center": [4.0, 8.0], "duration": 3.0, "requirements": [[1, "work"]],
             "release_time": 10.0},
        ],
        "relations": [],
        "strategy": {"kind": "cocoplan"},
        "horizon": 60.0,
        "seed": 5,
        "node_limit": 20,
    }


@pytest.fixture
def small_scenario(tmp_path):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_raw()))
    return path


def test_cli_validate_ok(small_scenario, capsys):
    assert main(["validate", str(small_scenario)]) == 0
    assert "ok:" in capsys.readouterr().out


def test_cli_validate_error_exit_code(tmp_path, capsys):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["agents"][0]["start"] = [50.0, 50.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_cli_run_writes_metrics_csv(small_scenario, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    code = main(["run", str(small_scenario), "--trials", "2", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert tuple(rows[0].keys()) == CSV_COLUMNS
    trials = [r["trial"] for r in rows]
    assert trials == ["0", "1", "mean", "std"]
    assert all(r["strategy"] == "cocoplan" for r in rows)


def test_cli_run_log_dir_matches_separate_trials(small_scenario, tmp_path):
    logs = tmp_path / "logs"
    assert main(["run", str(small_scenario), "--trials", "2", "--log-dir", str(logs)]) == 0
    assert sorted(p.name for p in logs.iterdir()) == ["trial_0.log", "trial_1.log"]
    cfg = load_scenario(small_scenario)
    for k in range(2):
        _, events, _ = run_trial(cfg, k)
        expected = tmp_path / f"expected_{k}.log"
        write_event_log(expected, events)
        assert (logs / f"trial_{k}.log").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command", ["run", "validate"])
@pytest.mark.parametrize("text", [None, "[1, 2]", "3", '"scenario"', "null"])
def test_cli_unreadable_scenario_exit_code(tmp_path, capsys, command, text):
    path = tmp_path / "scenario.json"
    if text is not None:  # None: the file does not exist
        path.write_text(text)
    assert main([command, str(path)]) == 2
    assert "validation error" in capsys.readouterr().err


def test_cli_run_strategy_override(small_scenario, tmp_path):
    out = tmp_path / "metrics.csv"
    assert main(["run", str(small_scenario), "--strategy", "greedy", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert all(r["strategy"] == "greedy" for r in rows)
    assert rows[0]["comm_int_mean"] == ""  # greedy reports no interval metric


@pytest.mark.parametrize("kind, field", [("fix", "threshold_n"), ("fimr", "interval"),
                                         ("fpmr", "fixed_point"), ("frdt", "leader")])
def test_cli_run_strategy_override_missing_field(small_scenario, capsys, kind, field):
    assert main(["run", str(small_scenario), "--strategy", kind]) == 2
    assert f"validation error: strategy '{kind}' requires {field}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("field, value", [
    ("seed", "x"), ("seed", 1.5), ("gap", -0.1), ("gap", math.inf), ("recheck_interval", 0),
    ("recheck_interval", "5"), ("node_limit", "abc"), ("node_limit", -1),
    ("planner_budget", "x"), ("planner_budget", math.nan), ("horizon", math.nan),
    ("horizon", "nan"), ("horizon", math.inf), ("horizon", 1e12), ("horizon", "60"),
    ("horizon", 10 ** 400), ("comm.threshold", "abc"), ("comm.tx_power", "20"),
    ("comm.threshold", math.nan), ("comm.tx_power", 10 ** 400),
    ("agents[0].start", ["2.0", 2.0]), ("agents[0].start", [2.0, 10 ** 400]),
    ("agents[0].start", [2.0]), ("agents[0].start", [math.nan, 2.0]),
    ("agents[0].v_max", "2.0"), ("agents[0].v_max", 10 ** 400), ("agents[1].v_max", math.inf),
    ("tasks[0].center", ["10", 3.0]), ("tasks[0].center", [10 ** 400, 3.0]),
    ("tasks[0].duration", "5"), ("tasks[0].duration", 10 ** 400), ("tasks[0].duration", 0),
    ("tasks[0].radius", "1"), ("tasks[0].radius", -1.0), ("tasks[0].radius", math.nan),
    ("tasks[1].release_time", math.nan), ("tasks[1].release_time", "10"),
    ("tasks[1].release_time", 10 ** 400),
    ("tasks[0].requirements", [[1.5, "work"]]), ("tasks[0].requirements", [[0, "work"]]),
    ("tasks[1].requirements", [[1, "work"], ["2", "work"]]),
    ("tasks[1].requirements", [[True, "work"]]),
    ("tasks[0].requirements", [[1, 5]]), ("tasks[1].requirements", [[1, ["x"]]]),
    ("tasks[0].requirements", [[1, None]]),
    ("strategy.fixed_point", ["10", 3.0]), ("strategy.fixed_point", [10 ** 400, 3.0]),
    ("agents[0].id", 1.5), ("agents[1].id", "1"), ("tasks[0].id", 2.7),
    ("tasks[1].id", True), ("seed", -1), ("strategy.ring_order", [0, 1.0]), ("node_limt", 5),
    ("agents[0].vmax", 2.0), ("tasks[0].duraton", 5.0), ("comm.thresh", -40.0)])
def test_cli_bad_numeric_field_exit_code(tmp_path, capsys, command, field, value):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    *outer, key = field.split(".")
    target = raw
    for part in outer:  # "comm" or "agents[0]"
        name, _, index = part.rstrip("]").partition("[")
        target = target.setdefault(name, {})
        if index:
            target = target[int(index)]
    target[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 2
    assert f"{field}:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("section, value, message", [
    ("relations", [[1.5, 2, "mutex"]], "relations[0]: task ids must be integers"),
    ("relations", [[1, "2", "precedence"]], "relations[0]: task ids must be integers"),
    ("relations", [[1, 2, "mutex"], [True, 2, "concurrency"]], "relations[1]: task ids"),
    ("relations", [{"first": 1, "second": 2, "kind": "mutex"}], "relations[0]:"),
    ("relations", [[2, 2, "precedence"]], "relations[0]:"),
    ("strategy", {"kind": "ring", "ring_order": [0, 1, 7]}, "strategy.ring_order:"),
    ("strategy", {"kind": "ring", "ring_order": [1]}, "strategy.ring_order:"),
    ("strategy", {"kind": "ring", "ring_order": [0, 0, 1]}, "strategy.ring_order:"),
    ("strategy", {"kind": "ring", "ring_order": "01"}, "strategy.ring_order:"),
    ("strategy", {"kind": "fimr", "interval": "x"}, "strategy.interval:"),
    ("strategy", {"kind": "fimr", "interval": -5}, "strategy.interval:"),
    ("strategy", {"kind": "fimr", "interval": math.nan}, "strategy.interval:"),
    ("strategy", {"kind": "fimr", "interval": 3.0}, "strategy.interval: 3.0 s is within"),
    ("strategy", {"kind": "fimr", "interval": 1.0}, "strategy.interval: 1.0 s is within"),
    ("strategy", {"kind": "fix", "threshold_n": "x"}, "strategy.threshold_n:"),
    ("strategy", {"kind": "fix", "threshold_n": 1.5}, "strategy.threshold_n:"),
    ("strategy", {"kind": "fix", "threshold_n": 0}, "strategy.threshold_n:"),
    ("strategy", {"kind": "frdt", "leader": True}, "strategy.leader:"),
    ("strategy", {"kind": "frdt", "leader": "0"}, "strategy.leader:"),
    ("agents", 5, "agents: must be a list"), ("agents", None, "agents: must be a list"),
    ("agents", {"0": {}}, "agents: must be a list"), ("tasks", 5, "tasks: must be a list"),
    ("tasks", "tasks", "tasks: must be a list"), ("relations", 5, "relations: must be a list"),
    ("relations", None, "relations: must be a list"),
    ("agents", [{"id": 0, "start": [2.0, 2.0], "sensor_range": 20.0, "capabilities": ["work"]}],
     "agents[0].v_max: required"),
    ("agents", [5], "agents[0]: must be an object"), ("tasks", [None], "tasks[0]: must be an object"),
    ("comm", [], "comm: must be an object"), ("comm", None, "comm: must be an object"),
    ("strategy", 5, "strategy: must be an object"),
    ("strategy", None, "strategy: must be an object"),
    ("generator", "x", "generator: must be an object"),
    ("generator", {"phases": [3]}, "generator.phases[0]: must be an object")])
def test_cli_bad_relation_or_ring_order_exit_code(tmp_path, capsys, command, section, value,
                                                  message):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw[section] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value", [-1.0, math.nan, "x", None, "20", 10 ** 400])
def test_cli_bad_sensor_range_exit_code(tmp_path, capsys, command, value):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["agents"][1]["sensor_range"] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 2
    assert "agents[1].sensor_range:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "generate"])
@pytest.mark.parametrize("field, value, message", [
    ("rate", "x", "generator.rate:"), ("radius", -1, "generator.radius:"),
    ("cluster_std", math.nan, "generator.cluster_std:"),
    ("burst_size", -2.0, "generator.burst_size:"),
    ("requirement_options", [], "generator.requirement_options:"),
    ("requirement_options", [[[0, "work"]]], "generator.requirement_options:"),
    ("requirement_options", [[[1.5, "work"]]], "generator.requirement_options: count 1.5"),
    ("requirement_options", [[[1, "work"]], [[1, "work"], ["2", "work"]]],
     "generator.requirement_options: count '2'"),
    ("requirement_options", [[[1, None]]], "generator.requirement_options: action None"),
    ("requirement_options", [[[1, "work"]], [[2, 7]]], "generator.requirement_options: action 7"),
    ("cluster_count", 0, "generator.cluster_count:"),
    ("duration_range", [5.0, 1.0], "generator.duration_range:"),
    ("duration_range", [0, 4.0], "generator.duration_range:"),
    ("rate", 1e9, "arrivals, at most"),
    ("phases", [{"start": 0.0, "end": "nan", "spatial": "uniform", "temporal": "uniform"}],
     "generator.phases[0].end:"),
    ("phases", [{"start": "0", "end": 50.0, "spatial": "uniform", "temporal": "uniform"}],
     "generator.phases[0].start:"),
    ("phases", [{"start": 0.0, "end": "50", "spatial": "uniform", "temporal": "uniform"}],
     "generator.phases[0].end:"),
    ("phases", [{"start": False, "end": 50.0, "spatial": "uniform", "temporal": "uniform"}],
     "generator.phases[0].start:"),
    ("phases", [{"start": 0.0, "end": True, "spatial": "uniform", "temporal": "uniform"}],
     "generator.phases[0].end:"),
    ("phases", [{"start": 0.0, "end": 50.0, "spatial": "uniform", "temporal": "uniform",
                 "strat": "uniform"}], "generator.phases[0].strat: unknown field"),
    ("phases", [{"start": 0.0, "end": 50.0, "spatial": "uniform"}],
     "generator.phases[0].temporal: required")])
def test_cli_bad_generator_field_exit_code(tmp_path, capsys, command, field, value, message):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["generator"] = {
        "phases": [{"start": 0.0, "end": 50.0, "spatial": "clustered", "temporal": "uniform"}],
        "rate": 0.05,
        "cluster_count": 2,
        field: value,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 2
    assert message in capsys.readouterr().err


def subt10_copy(path: Path, **changes) -> Path:
    """tests/data/subt10_greedy.json with `changes`, written to `path` with its
    map named by absolute path."""
    raw = json.loads((DATA / "subt10_greedy.json").read_text())
    raw["map"] = str((DATA / raw["map"]).resolve())
    for key, value in changes.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            value = {**raw[key], **value}
        raw[key] = value
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("command", ["validate", "run", "generate"])
def test_cli_absurd_cluster_count_is_refused_before_any_center_is_drawn(
        tmp_path, monkeypatch, capsys, command):
    """No task can arrive with both rates 0, yet each clustered phase would
    draw all its centers: more than MAX_ARRIVALS of them is refused at load."""
    draws = []
    for module in (scenario, cli):  # build_simulator's and `generate`'s
        monkeypatch.setattr(module, "generate_tasks", lambda *args, **kw: draws.append(args))
    generator = {"rate": 0.0, "burst_rate": 0.0, "cluster_count": 10 ** 9}
    path = tmp_path / "subt10.json"
    assert main([command, str(subt10_copy(path, generator=generator))]) == 2
    err = capsys.readouterr().err
    assert "generator.cluster_count:" in err and "Traceback" not in err
    assert "dangling" not in err  # subt10's relations name tasks the generator would make
    assert draws == []
    # subt10 has one clustered phase, so MAX_ARRIVALS centers are allowed.
    generator["cluster_count"] = MAX_ARRIVALS
    assert main(["validate", str(subt10_copy(path, generator=generator))]) == 0
    generator["cluster_count"] = MAX_ARRIVALS + 1
    assert main(["validate", str(subt10_copy(path, generator=generator))]) == 2


@pytest.mark.parametrize("flags, changes", [
    (["--seed", "7"], {"seed": 7}), (["--strategy", "ring"], {"strategy": {"kind": "ring"}})])
def test_cli_run_override_writes_the_log_of_the_scenario_that_sets_it(tmp_path, flags, changes):
    """`run --seed` and `run --strategy` set the loaded scenario's own field, so
    their log is trial 0's of a scenario file that names the same value."""
    logs = {}
    stock, changed = subt10_copy(tmp_path / "stock.json"), tmp_path / "changed.json"
    for name, path, extra in (("flag", stock, flags), ("file", subt10_copy(changed, **changes), []),
                              ("stock", stock, [])):
        assert main(["run", str(path), "--log-dir", str(tmp_path / name), *extra]) == 0
        logs[name] = (tmp_path / name / "trial_0.log").read_bytes()
    assert logs["flag"] == logs["file"] != logs["stock"]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value", ["work", ["work", 3], {"work": 1}])
def test_cli_capabilities_must_be_list_of_strings(tmp_path, capsys, command, value):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["agents"][0]["capabilities"] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path)]) == 2
    assert "agents[0].capabilities:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("map_name", ["small\x00.map", "binary.map", "wide.map", "inf.map",
                                      "huge.map"])
def test_cli_unreadable_map_exit_code(tmp_path, capsys, command, map_name):
    (tmp_path / "binary.map").write_bytes(b"12 10 1\n\xff\xfe\n")
    # 10^12 columns over one short row: refused before numpy is asked for 931 GiB.
    (tmp_path / "wide.map").write_text("1000000000000 1 1.0\n.\n")
    # A map whose extent is not finite in metres would put every position in cell 0.
    (tmp_path / "inf.map").write_text("3 1 inf\n...\n")
    (tmp_path / "huge.map").write_text("3 1 1e308\n...\n")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(small_raw(map_name)))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert "map:" in err and "Traceback" not in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_cli_run_trials_below_one_exit_code(small_scenario, capsys, trials):
    assert main(["run", str(small_scenario), "--trials", trials]) == 2
    assert "validation error: --trials must be >= 1" in capsys.readouterr().err


def test_horizon_tick_bound_message(tmp_path, capsys):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["horizon"] = MAX_TICKS * 0.1 + 1.0  # one step past the bound at dt 0.1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2
    assert f"more than the {MAX_TICKS}" in capsys.readouterr().err
    raw["horizon"] = MAX_TICKS * 0.1
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 0


def test_horizon_bound_message(tmp_path, capsys):
    """2e6 s at dt 10 s is 2e5 ticks, within the tick bound: only the horizon
    bound refuses it."""
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["horizon"], raw["dt"] = 2e6, 10.0
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "horizon: 2000000.0 s is more than the 1,000,000 s allowed" in err
        assert "ticks" not in err and "Traceback" not in err
    raw["horizon"] = MAX_HORIZON
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 0


def test_cli_unknown_leader_is_refused_for_every_kind(tmp_path, capsys):
    """A `leader` is checked whenever it is given, so `run --strategy frdt`
    never reaches the planner with a leader that is not an agent."""
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["strategy"] = {"kind": "cocoplan", "leader": 99}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    for argv in (["validate", str(path)], ["run", str(path), "--strategy", "frdt"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "strategy.leader: unknown agent id" in err and "Traceback" not in err


def test_cli_run_infeasible_exit_code(tmp_path, capsys):
    # Two agents in separate rooms: the planner cannot build any connected event.
    (tmp_path / "split.map").write_text("5 3 1\n..#..\n..#..\n..#..\n")
    raw = small_raw("split.map")
    raw["agents"][0]["start"] = [0.5, 0.5]
    raw["agents"][1]["start"] = [4.5, 0.5]
    raw["tasks"] = []
    raw["comm"] = {"threshold": -30.0}  # the wall kills the link, forcing a gather
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path)]) == 3
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize("kind, code", [("cocoplan", 3), ("ring", 3), ("greedy", 0)])
def test_cli_run_with_a_radio_that_never_links(tmp_path, capsys, kind, code):
    """At a 10 dB threshold not even two agents at one point link. `validate`
    says ok; the planned meetings of cocoplan and ring cannot connect, so `run`
    exits 3 naming the event, while greedy, which meets only agents in range, runs."""
    raw = json.loads((DATA / "desk_scenario.json").read_text())
    raw["map"] = str((DATA / raw["map"]).resolve())
    raw["comm"]["threshold"] = 10.0
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path), "--strategy", kind]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert "infeasible simulation: communication event at " in err
        assert err.rstrip().endswith("is not connected")
    else:
        assert err == ""


def test_cli_generate(tmp_path, capsys):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["generator"] = {
        "phases": [{"start": 0.0, "end": 200.0, "spatial": "clustered", "temporal": "uniform"}],
        "rate": 0.05,
        "cluster_count": 2,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "tasks.json"
    assert main(["generate", str(path), "--seed", "3", "--out", str(out)]) == 0
    stream = json.loads(out.read_text())
    assert stream and all("center" in t and "release_time" in t for t in stream)
    # ids continue after the explicit task list
    assert min(t["id"] for t in stream) == 3


@pytest.mark.parametrize("command", ["run", "generate"])
@pytest.mark.parametrize("seed", ["-1", "-2", "x"])
def test_cli_negative_seed_exit_code(small_scenario, capsys, command, seed):
    """--seed -n would replay seed n, since random.Random seeds with abs()."""
    with pytest.raises(SystemExit) as exc:
        main([command, str(small_scenario), "--seed", seed])
    assert exc.value.code == 2
    assert "argument --seed" in capsys.readouterr().err


def test_cli_generate_without_generator_fails(small_scenario, capsys):
    assert main(["generate", str(small_scenario)]) == 2


def test_fimr_interval_margin_scales_with_dt(tmp_path, capsys):
    """An interval must exceed fimr's 30-tick margin, whatever the strategy
    kind, so `run --strategy fimr` is refused before it simulates too."""
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["strategy"] = {"kind": "cocoplan", "interval": 2.0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--strategy", "fimr"]) == 2
    assert "strategy.interval: 2.0 s is within fimr's 30-tick margin (3 s at dt 0.1 s)" in (
        capsys.readouterr().err)
    raw["dt"] = 0.05  # a 1.5 s margin
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 0
    raw["strategy"]["interval"] = 1.5
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2


def _never_simulates(*args, **kwargs):
    raise AssertionError("run_experiment called")


@pytest.mark.parametrize("flag, target", [
    ("--out", "missing/x.csv"), ("--series", "missing/s.csv"), ("--out", "."),
    ("--series", "."), ("--log-dir", "scenario.json")])
def test_cli_run_unwritable_output_exit_code(small_scenario, monkeypatch, capsys, flag, target):
    monkeypatch.setattr(cli, "run_experiment", _never_simulates)
    path = small_scenario.parent / target
    assert main(["run", str(small_scenario), flag, str(path)]) == 2
    err = capsys.readouterr().err
    assert f"validation error: {flag}:" in err and "Traceback" not in err


def test_cli_run_write_failure_exit_code(small_scenario, monkeypatch, capsys):
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied", "m.csv")

    monkeypatch.setattr(cli, "run_experiment", denied)
    assert main(["run", str(small_scenario), "--out", "m.csv"]) == 2
    assert "validation error: [Errno 13] Permission denied: 'm.csv'" in capsys.readouterr().err


def test_cli_generate_unwritable_out_exit_code(tmp_path, capsys):
    (tmp_path / "small.map").write_text("12 10 1\n" + "\n".join(["." * 12] * 10) + "\n")
    raw = small_raw()
    raw["generator"] = {
        "phases": [{"start": 0.0, "end": 50.0, "spatial": "uniform", "temporal": "uniform"}],
        "rate": 0.05,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["generate", str(path), "--out", str(tmp_path / "missing" / "t.json")]) == 2
    assert "validation error:" in capsys.readouterr().err


# Drops every commplan module, imports them again and counts the classes of the
# first import that a full collection leaves alive. Benchmark set-ups re-import
# the package many times, so a class that survives keeps a whole module copy.
REIMPORT_PROBE = """
import gc, json, sys, weakref
import commplan.cli

def commplan_modules():
    return [n for n in sys.modules if n == "commplan" or n.startswith("commplan.")]

def class_refs():
    return [weakref.ref(v) for n in commplan_modules() for v in vars(sys.modules[n]).values()
            if isinstance(v, type) and v.__module__ == n]

refs = class_refs()
for name in commplan_modules():
    del sys.modules[name]
import commplan.cli
gc.collect()
print(json.dumps([len(refs), sorted(ref().__qualname__ for ref in refs if ref() is not None)]))
"""


def test_reimport_frees_every_class():
    env = {**os.environ, "PYTHONPATH": str(Path(commplan.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", REIMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    found, alive = json.loads(out)
    assert found > 20
    assert alive == []


def test_run_experiment_summary_cross_check(small_scenario, tmp_path):
    cfg = load_scenario(small_scenario)
    rows = run_experiment(cfg, trials=3, out_path=tmp_path / "m.csv")
    per_trial = rows[:3]
    mean_row = rows[3]
    std_row = rows[4]
    vals = [r["finished"] for r in per_trial]
    mean = sum(vals) / len(vals)
    std = math.sqrt(sum((v - mean) ** 2 for v in vals) / len(vals))
    assert mean_row["finished"] == pytest.approx(mean)
    assert std_row["finished"] == pytest.approx(std)


def test_event_log_export_round_trip(small_scenario, tmp_path):
    cfg = load_scenario(small_scenario)
    _, events, _ = run_trial(cfg, 0)
    out = tmp_path / "trial.log"
    write_event_log(out, events)
    lines = out.read_text().splitlines()
    assert len(lines) == len(events)
    first = lines[0].split()
    float(first[0])  # leading timestamp parses
    assert first[1] in {"replanned", "detection", "arrival", "comm_event",
                        "execution_start", "execution_end"}


def test_series_csv(small_scenario, tmp_path):
    cfg = load_scenario(small_scenario)
    run_experiment(cfg, trials=2, out_path=tmp_path / "m.csv",
                   series_path=tmp_path / "series.csv")
    rows = list(csv.DictReader((tmp_path / "series.csv").open()))
    assert list(rows[0].keys()) == ["time", "completed_mean", "completed_var",
                                    "slope_mean", "slope_std"]
    assert len(rows) == int(cfg.horizon // 10) + 1


def test_desk_scenario_asset_loads():
    cfg = load_scenario(DATA / "desk_scenario.json")
    assert len(cfg.agents) == 4
    assert cfg.grid.width_m == 20 and cfg.grid.height_m == 30
    assert len(cfg.tasks) == 30


def test_robustness_scenario_runs_with_series(tmp_path):
    cfg = load_scenario(DATA / "robustness_scenario.json")
    cfg.horizon = 150.0  # shortened for test speed; phases beyond are unused
    rows = run_experiment(cfg, trials=2, out_path=tmp_path / "m.csv",
                          series_path=tmp_path / "s.csv")
    assert rows[-2]["trial"] == "mean"
    series = (tmp_path / "s.csv").read_text().splitlines()
    assert len(series) == 1 + int(150.0 // 10) + 1
