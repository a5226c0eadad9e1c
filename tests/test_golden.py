"""Behaviour pin: the desk scenario's trial-0 event log for every strategy,
greedy on the 10-agent subt scenario, and the criterion-7 plan.

The hash is the sha256 of the newline-joined `SimEvent.line()`s. A change to
a pinned value is a change in what the system computes and must be explained
when it is updated.
"""

import hashlib
from pathlib import Path

import pytest

from commplan.experiment import run_trial
from commplan.planner import SearchStats, cocoplan
from commplan.radio import CommParams
from commplan.scenario import load_scenario
from commplan.strategies import StrategyConfig
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
# Criterion 7's 10-agent instance searched until 300 nodes are generated.
CRITERION7_RATE = 0.1452596131931247
CRITERION7_GROUPS = {3: (5,), 4: (0, 4), 5: (0,), 7: (1,), 9: (4,), 15: (7,)}
CRITERION7_EXPANDED_PRUNED = (1, 0)


def _trial0_digest(cfg, strategy=None) -> str:
    _, events, _ = run_trial(cfg, 0, strategy=strategy)
    return hashlib.sha256("\n".join(e.line() for e in events).encode()).hexdigest()


def test_desk_cocoplan_trial0_log_hash():
    cfg = load_scenario(DESK)
    assert cfg.strategy.kind == "cocoplan"
    assert _trial0_digest(cfg) == DESK_COCOPLAN_TRIAL0_SHA256


@pytest.mark.parametrize("kind", DESK_TRIAL0_SHA256)
def test_desk_trial0_log_hash_per_strategy(kind):
    cfg = load_scenario(DESK)
    make_strategy, want = DESK_TRIAL0_SHA256[kind]
    assert _trial0_digest(cfg, make_strategy(cfg)) == want


def test_subt10_greedy_trial0_log_hash():
    cfg = load_scenario(SUBT10_GREEDY)
    assert cfg.strategy.kind == "greedy"
    assert _trial0_digest(cfg) == SUBT10_GREEDY_TRIAL0_SHA256


def test_criterion7_plan_at_300_generated_nodes():
    grid, team, tasks, rels = criterion7_instance()
    stats = SearchStats()
    plan = cocoplan(team, tasks, rels, grid, CommParams(), generated_limit=300, stats=stats)
    assert plan.rate == CRITERION7_RATE
    assert plan.groups == CRITERION7_GROUPS
    assert stats.nodes_generated == 300
    assert (stats.nodes_expanded, stats.nodes_pruned) == CRITERION7_EXPANDED_PRUNED
