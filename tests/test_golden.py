"""Behaviour pin: the desk scenario's trial-0 event log for every strategy,
greedy on the 10-agent subt scenario, and the criterion-7 plan.

The hash is the sha256 of the newline-joined `SimEvent.line()`s. A change to
a pinned value is a change in what the system computes and must be explained
when it is updated.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from commplan.experiment import run_trial
from commplan import meeting, planner, radio, strategies, workspace
from commplan.meeting import com_opt_fast
from commplan.planner import SearchStats, cocoplan
from commplan.radio import CommParams, linked
from commplan.scenario import load_scenario
from commplan.strategies import StrategyConfig
from commplan.tasks import RelationIndex
from commplan.workspace import Position

from conftest import criterion7_instance

DATA = Path(__file__).parent / "data"
DESK = DATA / "desk_scenario.json"
SUBT10_GREEDY = DATA / "subt10_greedy.json"
DESK_COCOPLAN_TRIAL0_SHA256 = "a61c8ca6ba2a0e32df5e8b900ef396529862c0eaaf885e3140c1fd99a2899369"
# The other strategies with the criterion-5 configs (fix3, fpmr, frdt, fimr35, ring, greedy).
DESK_TRIAL0_SHA256 = {
    "fix": (lambda cfg: StrategyConfig("fix", threshold_n=3),
            "ffb72a80177b1cfedf2837c4b5e64fe931362755ad00dfae6a15264ee279e35a"),
    "fpmr": (lambda cfg: StrategyConfig("fpmr", fixed_point=cfg.grid.snap(Position(10.0, 15.0))),
             "f74b5ba7fcd48aed6a3ee6a2a34f0edd57805bd21012da611ed97289da99d779"),
    "frdt": (lambda cfg: StrategyConfig("frdt", leader=0),
             "a08e88f37980eabe87c4d37c1bbe1c160b0dbfa968f96b7c892e767f0c9f3410"),
    "fimr": (lambda cfg: StrategyConfig("fimr", interval=35.0),
             "8487db83d7c22662b1c8da25fcb540943a91e9b7fffc44be6bb0fd874fffe306"),
    "ring": (lambda cfg: StrategyConfig("ring"),
             "534dfe7d6a70e52e5fdf325c81ddd36267d3ba8a4ec19d9a3e6d2ea48c6b0afc"),
    "greedy": (lambda cfg: StrategyConfig("greedy"),
               "6bcd968510eedb977d9e6b40babe62a572647b2244d824588b605dad243a24b9"),
}
# The same scenario as perfbench's subt10-greedy workload; 1,033 events.
SUBT10_GREEDY_TRIAL0_SHA256 = "5e82bed4d463f74b901e2d486d2725d60122dee422aa5378066cb8d039a35f87"
# The link checks (radio.linked calls) of the desk and subt10 greedy trial-0 runs: greedy
# checks every pair at the start and then only the pairs with an end that moved.
DESK_GREEDY_TRIAL0_LINKED_CALLS = 3587
SUBT10_GREEDY_TRIAL0_LINKED_CALLS = 15897
# Criterion 7's 10-agent instance searched until 300 nodes are generated.
CRITERION7_RATE = 0.1452596131931247
CRITERION7_GROUPS = {3: (5,), 4: (0, 4), 5: (0,), 7: (1,), 9: (4,), 15: (7,)}
CRITERION7_EXPANDED_PRUNED = (1, 0)
# Summed over the 72 cocoplan calls of the desk cocoplan trial at seed 42 (perfbench's
# first desk op): generated, expanded, pruned.
DESK_SEED42_SEARCH = (3724, 359, 578)
# The same trial's com_opt_fast calls (perfbench's meeting.com_opt_fast.calls): a change
# that optimizes more events must say why. low_bound runs only on nodes whose greedy_cap
# can beat the incumbent, and fewer low_bound calls optimize fewer events (2,588 before).
# build_plan reads the event kept beside its candidate's rate instead of optimizing it
# again (1,142 before).
DESK_SEED42_COM_OPT_FAST_CALLS = 1126
# The same trial's low_bound calls (perfbench's planner.low_bound.calls; 2,492 before
# greedy_cap) and A* searches, one per unordered cell pair (433 astar_cells lookups).
DESK_SEED42_LOW_BOUND_CALLS = 1131
DESK_SEED42_ASTAR_SEARCHES = 229
# The same trial's full solves and appends, relaxed ones included: a search that
# bounded its candidates in another order would schedule others.
DESK_SEED42_FULL_SOLVES = 505
DESK_SEED42_APPENDS = 6042


def _count_linked(monkeypatch) -> list:
    calls = []

    def counting(*args):
        calls.append(args)
        return linked(*args)

    monkeypatch.setattr(radio, "linked", counting)
    return calls


def _trial0_digest(cfg, strategy=None) -> str:
    _, events, _ = run_trial(cfg, 0, strategy=strategy)
    return hashlib.sha256("\n".join(e.line() for e in events).encode()).hexdigest()


def test_desk_cocoplan_trial0_log_hash():
    cfg = load_scenario(DESK)
    assert cfg.strategy.kind == "cocoplan"
    assert _trial0_digest(cfg) == DESK_COCOPLAN_TRIAL0_SHA256


@pytest.mark.parametrize("kind", DESK_TRIAL0_SHA256)
def test_desk_trial0_log_hash_per_strategy(monkeypatch, kind):
    cfg = load_scenario(DESK)
    make_strategy, want = DESK_TRIAL0_SHA256[kind]
    linked_calls = _count_linked(monkeypatch)
    assert _trial0_digest(cfg, make_strategy(cfg)) == want
    if kind == "greedy":
        assert len(linked_calls) == DESK_GREEDY_TRIAL0_LINKED_CALLS


def test_desk_cocoplan_seed42_search_counts(monkeypatch):
    calls: list[SearchStats] = []
    counts = dict.fromkeys(("com_opt_fast", "low_bound", "astar_search",
                            "schedule_min_makespan", "append_to_timetable"), 0)

    def counting(*args, **kwargs):
        calls.append(SearchStats())
        return cocoplan(*args, **kwargs, stats=calls[-1])

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(strategies, "cocoplan", counting)
    for module in (meeting, planner):
        monkeypatch.setattr(module, "com_opt_fast", counted("com_opt_fast", com_opt_fast))
    monkeypatch.setattr(planner, "low_bound", counted("low_bound", planner.low_bound))
    monkeypatch.setattr(workspace, "_astar_search",
                        counted("astar_search", workspace._astar_search))
    for name in ("schedule_min_makespan", "append_to_timetable"):
        monkeypatch.setattr(planner, name, counted(name, getattr(planner, name)))
    run_trial(dataclasses.replace(load_scenario(DESK), seed=42), 0)
    assert len(calls) == 72
    assert tuple(sum(getattr(stats, f"nodes_{kind}") for stats in calls)
                 for kind in ("generated", "expanded", "pruned")) == DESK_SEED42_SEARCH
    assert counts == {"com_opt_fast": DESK_SEED42_COM_OPT_FAST_CALLS,
                      "low_bound": DESK_SEED42_LOW_BOUND_CALLS,
                      "astar_search": DESK_SEED42_ASTAR_SEARCHES,
                      "schedule_min_makespan": DESK_SEED42_FULL_SOLVES,
                      "append_to_timetable": DESK_SEED42_APPENDS}


def test_subt10_greedy_trial0_log_hash(monkeypatch):
    cfg = load_scenario(SUBT10_GREEDY)
    assert cfg.strategy.kind == "greedy"
    linked_calls = _count_linked(monkeypatch)
    assert _trial0_digest(cfg) == SUBT10_GREEDY_TRIAL0_SHA256
    assert len(linked_calls) == SUBT10_GREEDY_TRIAL0_LINKED_CALLS


def test_criterion7_plan_at_300_generated_nodes():
    grid, team, tasks, rels = criterion7_instance()
    stats = SearchStats()
    plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams(), generated_limit=300,
                    stats=stats)
    assert plan.rate == CRITERION7_RATE
    assert plan.groups == CRITERION7_GROUPS
    assert stats.nodes_generated == 300
    assert (stats.nodes_expanded, stats.nodes_pruned) == CRITERION7_EXPANDED_PRUNED


@pytest.mark.parametrize("path, want", [(DESK, DESK_COCOPLAN_TRIAL0_SHA256),
                                        (SUBT10_GREEDY, SUBT10_GREEDY_TRIAL0_SHA256)],
                         ids=["desk-cocoplan", "subt10-greedy"])
def test_trial0_log_hash_does_not_depend_on_agent_order(path, want):
    # The simulator keeps its agents in id order, whatever order the scenario lists.
    cfg = load_scenario(path)
    reversed_cfg = dataclasses.replace(cfg, agents=cfg.agents[::-1])
    assert [a.id for a in reversed_cfg.agents] != [a.id for a in cfg.agents]
    assert _trial0_digest(reversed_cfg) == want
