"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines; the whole suite is part of the default pytest run.
"""

import csv
import io
import math
import random
import time
from pathlib import Path

import pytest

from commplan.experiment import metrics_row, run_experiment, run_trial
from commplan.meeting import all_gather_event, com_opt
from commplan.planner import PlannerProblem, SearchStats, cocoplan, greedy_cap, low_bound
from commplan.radio import CommParams, comm_graph, is_connected, quality
from commplan.scenario import load_scenario
from commplan.schedule import AgentContext, groups_of
from commplan.simulator import AgentState, Simulator
from commplan.strategies import PlannerOptions, StrategyConfig, make_controller
from commplan.tasks import (ExecutionInterval, RelationIndex, RelationKind, Task, TemporalRelation,
                            check_schedule)
from commplan.workspace import Position, astar_travel_time, parse_grid

from conftest import (criterion7_instance, empty_grid, enumerate_candidate_plans,
                      exhaustive_best_rate, grid_from_rows, random_connected_grid,
                      random_planner_instance, recorded_nodes, relations_between)

DATA = Path(__file__).parent / "data"
DESK = DATA / "desk_scenario.json"


def _passline(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# -- criteria 1 and 3 share the search transcripts ---------------------------

@pytest.fixture(scope="module")
def search_transcripts():
    rng = random.Random(2024)
    records = []
    t0 = time.monotonic()
    for _ in range(200):
        grid, team, tasks, rels = random_planner_instance(rng)
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        candidates = list(enumerate_candidate_plans(problem, rels)) if len(tasks) <= 4 else None
        if candidates is not None:
            oracle = max((r for r, _, _ in candidates), default=0.0)
        else:
            oracle = exhaustive_best_rate(problem, rels)
        with recorded_nodes() as nodes:
            plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams())
        records.append({"oracle": oracle, "plan": plan, "nodes": nodes,
                        "candidates": candidates, "n_tasks": len(tasks),
                        "instance": (grid, team, tasks, rels)})
    elapsed = time.monotonic() - t0
    return records, elapsed


def test_criterion_1_exact_optimality(search_transcripts):
    records, elapsed = search_transcripts
    assert len(records) == 200
    for i, rec in enumerate(records):
        assert rec["plan"].rate == pytest.approx(rec["oracle"], abs=1e-9), f"instance {i}"
    assert elapsed < 600.0, f"criterion 1 took {elapsed:.0f}s"
    _passline(1, f"200/200 instances match the exhaustive optimum (1e-9); {elapsed:.0f}s total")


def _extends(node_seqs, node_groups, cand_seqs, cand_groups):
    """Whether the candidate plan completes the node holding `node_seqs`, whose
    groups_of is `node_groups`."""
    for tid, grp in node_groups.items():
        if cand_groups.get(tid) != grp:
            return False
    for aid, seq in node_seqs.items():
        cseq = cand_seqs.get(aid, ())
        it = iter(cseq)
        if not all(t in it for t in seq):
            return False
    return True


def test_criterion_3_bound_soundness(search_transcripts):
    records, _ = search_transcripts
    subtree_checked = 0
    for rec in records:
        if rec["candidates"] is None:
            continue
        team = rec["instance"][1]
        # The first extension in descending rate is the best one.
        ranked = sorted(rec["candidates"], key=lambda cand: cand[0], reverse=True)
        for node in rec["nodes"]:
            node_seqs = dict(zip(team, node.key))
            node_groups = groups_of(node_seqs)
            best_ext = next((rate for rate, seqs, groups in ranked
                             if _extends(node_seqs, node_groups, seqs, groups)), None)
            if best_ext is not None:  # nodes with no feasible descendant are dead
                assert node.ub >= best_ext - 1e-9, (node.key, node.ub, best_ext)
            subtree_checked += 1
    # Criterion 1 equality already implies pruning never lost the optimum.
    _passline(3, f"UB dominates the subtree optimum on {subtree_checked} nodes of the "
                 f"<=4-task instances")


def test_criterion_3_low_bound_on_every_kept_node(search_transcripts):
    """Criterion 3's LB <= UB: a node keeps no lb, and the search skips low_bound
    on a node whose ub or greedy_cap cannot beat the incumbent, so bound every
    kept node here, and check that the cap is at least the lb wherever it applies."""
    records, _ = search_transcripts
    nodes_checked = with_lb = capped = 0
    for rec in records:
        grid, team, tasks, rels = rec["instance"]
        problem = PlannerProblem(team=team, tasks=tasks, index=RelationIndex(rels),
                                 grid=grid, params=CommParams(), now=0.0)
        for node in rec["nodes"]:
            key = low_bound(node, problem)
            if key is not None:
                rate = problem.rate(key)
                assert rate <= node.ub + 1e-9, (node.key, rate, node.ub)
                with_lb += 1
                cap = greedy_cap(node, problem)
                if cap < math.inf:
                    assert cap >= rate - 1e-9, (node.key, rate, cap)
                    capped += 1
            nodes_checked += 1
    assert nodes_checked == sum(len(rec["nodes"]) for rec in records)
    # Every node that had a finite lb when the search bounded each node itself.
    assert with_lb == 114_864
    assert capped > with_lb // 2
    _passline(3, f"LB<=UB+1e-9 on all {with_lb} of {nodes_checked} kept nodes that have an LB, "
                 f"LB<=greedy_cap+1e-9 on the {capped} of them the cap applies to")


def test_criterion_2_lemma1_suite():
    rng = random.Random(77)
    params = CommParams()
    for k in range(1000):
        grid = random_connected_grid(rng, width=14, height=14, density=0.15)
        free = grid.free_cells()
        n = rng.randint(2, 10)
        cells = rng.sample(free, min(n, len(free)))
        last = {i: AgentContext(i, grid.center(c), rng.uniform(0.0, 40.0), rng.uniform(1.0, 2.0),
                                frozenset())
                for i, c in enumerate(cells)}
        ev = com_opt(last, grid, params)
        assert is_connected(comm_graph(ev.positions, grid, params)), f"instance {k}"
        gather = all_gather_event(last, grid)
        delay_ev = max(ev.time - f.ready_time for f in last.values())
        delay_gather = max(gather.time - f.ready_time for f in last.values())
        assert delay_ev <= delay_gather + 1e-9, f"instance {k}"
    _passline(2, "1000/1000 meeting events connected and never worse than the gather baseline")


def _mixed_runs():
    """50 deterministic simulator runs across strategies, maps, and seeds."""
    maps = {
        "open": ["." * 16] * 12,
        "walls": ["................",
                  "......##........",
                  "......##........",
                  "................",
                  "....##..........",
                  "................"] + ["." * 16] * 6,
    }
    strategies = [StrategyConfig("cocoplan"), StrategyConfig("fix", threshold_n=2),
                  StrategyConfig("fimr", interval=25.0), StrategyConfig("ring"),
                  StrategyConfig("greedy")]
    runs = []
    idx = 0
    for map_rows in maps.values():
        grid_text = f"16 {len(map_rows)} 1\n" + "\n".join(map_rows)
        for strat in strategies:
            for seed in range(5):
                runs.append((grid_text, strat, seed, idx))
                idx += 1
    return runs


def test_criterion_4_theorem1_feasibility():
    rng = random.Random(99)
    violations = 0
    total = 0
    for grid_text, strat, seed, idx in _mixed_runs():
        grid = parse_grid(grid_text)
        free = grid.free_cells()
        local = random.Random(1000 + seed * 17 + idx)
        agents = []
        cells = local.sample(free, 3)
        caps = [("work",), ("work", "aux"), ("work", "aux")]
        for i, c in enumerate(cells):
            agents.append(AgentState(i, grid.center(c), 2.0, 30.0, frozenset(caps[i])))
        tasks = {}
        for t in range(8):
            c = grid.center(local.choice(free))
            req = ((1, "work"),) if t % 3 else ((2, "work"),)
            tasks[t] = Task(t, c, 1.0, local.uniform(2.0, 6.0), req,
                            release_time=local.uniform(0.0, 60.0))
        rels = [TemporalRelation(0, 1, RelationKind.PRECEDENCE),
                TemporalRelation(2, 4, RelationKind.MUTEX)]
        sim = Simulator(grid, agents, CommParams(), tasks, rels, horizon=150.0)
        ctrl = make_controller(strat, PlannerOptions(node_limit=25, generated_limit=150))
        sim.run(ctrl)
        total += 1
        done = {t for t, s in sim.task_state.items() if s == "done"}
        intervals = [ExecutionInterval(t, sim.task_start[t], sim.task_finish[t])
                     for t in sorted(done)]
        ok, bad = check_schedule(intervals, relations_between(rels, done))
        if not ok:
            violations += 1
        # Tasks assigned in a cycle must finish before the next communication
        # event attended by any of their executing agents (for team-wide
        # strategies that is exactly the cycle's own event).
        records = sorted(sim.cycle_records, key=lambda r: r.start)
        for i, rec in enumerate(records):
            for tid in rec.assigned:
                owners = set(sim.groups[tid])
                deadline = math.inf
                for later in records[i + 1:]:
                    if owners & set(later.participants):
                        deadline = later.start
                        break
                if sim.task_finish.get(tid, math.inf) > deadline + 1e-9:
                    violations += 1
    assert total == 50
    assert violations == 0
    _passline(4, "50/50 mixed-strategy runs: schedules valid, all cycle tasks "
                 "finish before their event")


@pytest.fixture(scope="module")
def desk_results():
    cfg = load_scenario(DESK)
    t0 = time.monotonic()
    variants = {
        "cocoplan": StrategyConfig("cocoplan"),
        "fix3": StrategyConfig("fix", threshold_n=3),
        "fix10": StrategyConfig("fix", threshold_n=10),
        "fpmr": StrategyConfig("fpmr", fixed_point=cfg.grid.snap(Position(10.0, 15.0))),
        "frdt": StrategyConfig("frdt", leader=0),
        "fimr35": StrategyConfig("fimr", interval=35.0),
        "fimr80": StrategyConfig("fimr", interval=80.0),
        "ring": StrategyConfig("ring"),
        "greedy": StrategyConfig("greedy"),
    }
    results = {}
    for label, strat in variants.items():
        rows = run_experiment(cfg, trials=3, strategy=strat)
        results[label] = rows[3]  # mean row
    elapsed = time.monotonic() - t0
    return results, elapsed


def test_criterion_5_trend_reproduction(desk_results):
    results, elapsed = desk_results
    coco = results["cocoplan"]
    for label, row in results.items():
        assert coco["finished"] >= row["finished"] - 1e-9, (
            f"cocoplan {coco['finished']} < {label} {row['finished']}")
    assert coco["idle_gap_mean"] < results["fimr80"]["idle_gap_mean"]
    assert coco["idle_gap_mean"] < results["fpmr"]["idle_gap_mean"]
    assert results["greedy"]["comm_num"] >= 5.0 * coco["comm_num"]
    assert elapsed < 900.0, f"criterion 5 took {elapsed:.0f}s"
    _passline(5, f"finished: cocoplan {coco['finished']:.1f} tops all baselines; "
                 f"idle {coco['idle_gap_mean']:.2f} < fpmr {results['fpmr']['idle_gap_mean']:.2f} "
                 f"< fimr80 {results['fimr80']['idle_gap_mean']:.2f}; greedy comm "
                 f"{results['greedy']['comm_num']:.1f} >= 5x {coco['comm_num']:.1f}; {elapsed:.0f}s")


def test_criterion_6_fimr_interval_exactness():
    cfg = load_scenario(DESK)
    strat = StrategyConfig("fimr", interval=35.0)
    sim, events, metrics = run_trial(cfg, 0, strategy=strat)
    gaps = metrics.comm_intervals
    assert len(gaps) >= 10
    assert all(gap == 35.0 for gap in gaps), gaps
    mean = sum(gaps) / len(gaps)
    std = math.sqrt(sum((g - mean) ** 2 for g in gaps) / len(gaps))
    assert (mean, std) == (35.0, 0.0)
    _passline(6, f"{len(gaps)} FIMR gaps all exactly 35.0 s (std 0.0)")


def test_criterion_7_runtime_envelope():
    grid, team, tasks, rels = criterion7_instance()
    stats = SearchStats()
    t0 = time.monotonic()
    plan = cocoplan(team, tasks, RelationIndex(rels), grid, CommParams(), budget=15.0,
                    stats=stats)
    elapsed = time.monotonic() - t0
    assert elapsed < 16.0, f"planning took {elapsed:.1f}s"
    assert plan.task_count() >= 1
    assert stats.nodes_expanded >= 1
    _passline(7, f"10-agent planning: {elapsed:.1f}s (budget 15s), "
                 f"{stats.nodes_expanded} nodes expanded, {stats.nodes_generated} generated, "
                 f"{plan.task_count()} tasks planned")


def test_criterion_8_determinism():
    cfg = load_scenario(DESK)
    log_a = None
    rows_a = None
    for _ in range(2):
        sim, events, metrics = run_trial(cfg, 0)
        log = "\n".join(e.line() for e in events)
        buf = io.StringIO()
        writer = csv.writer(buf)
        row = metrics_row(cfg, "cocoplan", 0, metrics)
        writer.writerow([row[k] for k in sorted(row)])
        if log_a is None:
            log_a, rows_a = log, buf.getvalue()
        else:
            assert log == log_a
            assert buf.getvalue() == rows_a
    _passline(8, f"replay is byte-identical ({len(log_a.splitlines())} log lines)")


def test_criterion_9_numerics_suite():
    rng = random.Random(314)
    # A* admissibility on 10,000 random free-cell pairs.
    pairs = 0
    while pairs < 10000:
        grid = random_connected_grid(rng, width=12, height=12, density=0.18)
        free = grid.free_cells()
        for _ in range(500):
            ca, cb = rng.choice(free), rng.choice(free)
            a, b = grid.center(ca), grid.center(cb)
            v = rng.uniform(0.5, 3.0)
            assert astar_travel_time(a, b, grid, v) >= a.dist(b) / v - 1e-9
            pairs += 1
            if pairs == 10000:
                break

    # Quality monotone in distance and in obstacle length.
    params = CommParams()
    grid = empty_grid(60, 8)
    qs = [quality(Position(1, 1), Position(1 + d, 1), grid, params)
          for d in (0.5, 1, 2, 5, 10, 20, 40)]
    assert all(x > y for x, y in zip(qs, qs[1:]))
    for walls in range(0, 4):
        rows = ["." * 12 for _ in range(3)]
        mid = "".join("#" if 4 <= x < 4 + walls else "." for x in range(12))
        g2 = grid_from_rows([rows[0], mid, rows[2]])
        a, b = Position(0.5, 1.5), Position(11.5, 1.5)
        if walls == 0:
            base = quality(a, b, g2, params)
        else:
            assert quality(a, b, g2, params) < base
            base = quality(a, b, g2, params)

    # check_schedule against the closed-interval point-set oracle.
    kinds = list(RelationKind)
    for _ in range(10000):
        s1, s2 = rng.randint(0, 30), rng.randint(0, 30)
        f1, f2 = s1 + rng.randint(0, 10), s2 + rng.randint(0, 10)
        kind = rng.choice(kinds)
        ok, _ = check_schedule([ExecutionInterval(1, s1, f1), ExecutionInterval(2, s2, f2)],
                               [TemporalRelation(1, 2, kind)])
        p1 = set(range(s1, f1 + 1))
        p2 = set(range(s2, f2 + 1))
        if kind is RelationKind.PRECEDENCE:
            want = f1 <= s2
        elif kind is RelationKind.MUTEX:
            want = not (p1 & p2)
        else:
            want = bool(p1 & p2)
        assert ok == want
    _passline(9, "10,000 admissibility pairs, quality monotonicity, and "
                 "10,000 interval triples all agree with their oracles")
