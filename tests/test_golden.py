"""Behaviour pin: the desk scenario's trial-0 cocoplan event log.

The hash is the sha256 of the newline-joined `SimEvent.line()`s. A change to
it is a change in what the system computes and must be explained when it is
updated.
"""

import hashlib
from pathlib import Path

from commplan.experiment import run_trial
from commplan.scenario import load_scenario

DESK_COCOPLAN_TRIAL0_SHA256 = "a61c8ca6ba2a0e32df5e8b900ef396529862c0eaaf885e3140c1fd99a2899369"


def test_desk_cocoplan_trial0_log_hash():
    cfg = load_scenario(Path(__file__).parent / "data" / "desk_scenario.json")
    assert cfg.strategy.kind == "cocoplan"
    _, events, _ = run_trial(cfg, 0)
    digest = hashlib.sha256("\n".join(e.line() for e in events).encode()).hexdigest()
    assert digest == DESK_COCOPLAN_TRIAL0_SHA256
