import random

import pytest

from commplan.meeting import (AgentFinish, LastTaskState, MeetingInfeasible,
                              all_gather_event, com_opt, com_opt_fast, sel_com)
from commplan.radio import CommParams, comm_graph, is_connected, quality
from commplan.workspace import Position

from conftest import empty_grid, grid_from_rows, random_connected_grid


def fin(aid, t, x, y, v=2.0):
    return AgentFinish(aid, t, Position(x, y), v)


def state(*finishes):
    return LastTaskState({f.agent_id: f for f in finishes})


def test_single_agent_event_is_its_own_state(comm_params):
    grid = empty_grid()
    ev = com_opt(state(fin(3, 7.5, 4.5, 4.5)), grid, comm_params)
    assert ev.time == 7.5
    assert ev.positions == {3: Position(4.5, 4.5)}


def test_coincident_agents_zero_delay(comm_params):
    grid = empty_grid()
    s = state(fin(0, 3.0, 5.5, 5.5), fin(1, 9.0, 5.5, 5.5), fin(2, 4.0, 5.5, 5.5))
    ev = com_opt(s, grid, comm_params)
    assert ev.time == pytest.approx(9.0)
    assert all(p == Position(5.5, 5.5) for p in ev.positions.values())


def test_two_agents_thirty_meters_apart(comm_params):
    grid = empty_grid(40, 12)
    s = state(fin(0, 0.0, 3.5, 5.5), fin(1, 0.0, 33.5, 5.5))
    ev = com_opt(s, grid, comm_params)
    delay = max(ev.time - f.time for f in s.finishes.values())
    assert delay <= 7.5
    # Dense grid search over meeting points on the connecting segment.
    best = float("inf")
    xs = [3.5 + 0.5 * k for k in range(61)]
    for x1 in xs:
        for x2 in xs:
            if x2 < x1:
                continue
            p1, p2 = Position(x1, 5.5), Position(x2, 5.5)
            if quality(p1, p2, grid, comm_params) > comm_params.threshold:
                best = min(best, max(abs(x1 - 3.5) / 2.0, abs(33.5 - x2) / 2.0))
    assert delay <= 1.10 * best
    assert is_connected(comm_graph(ev.positions, grid, comm_params))


def test_delay_never_worse_than_all_gather(comm_params):
    rng = random.Random(12)
    for _ in range(60):
        grid = random_connected_grid(rng, width=15, height=15, density=0.15)
        free = grid.free_cells()
        n = rng.randint(2, 6)
        s = state(*[fin(i, rng.uniform(0, 20), grid.center(c).x, grid.center(c).y,
                        v=rng.uniform(1, 2)) for i, c in enumerate(rng.sample(free, n))])
        ev = com_opt(s, grid, comm_params)
        gather = all_gather_event(s, grid)
        assert ev.time <= gather.time + 1e-9
        assert is_connected(comm_graph(ev.positions, grid, comm_params))


def test_event_satisfies_travel_constraints(comm_params):
    from commplan.workspace import astar_length
    rng = random.Random(13)
    for _ in range(30):
        grid = random_connected_grid(rng, width=12, height=12)
        free = grid.free_cells()
        n = rng.randint(2, 5)
        s = state(*[fin(i, rng.uniform(0, 10), grid.center(c).x, grid.center(c).y)
                    for i, c in enumerate(rng.sample(free, n))])
        ev = com_opt(s, grid, comm_params)
        for aid, f in s.finishes.items():
            arrival = f.time + astar_length(f.position, ev.positions[aid], grid) / f.v_max
            assert arrival <= ev.time + 1e-9


def test_fast_variant_keeps_guarantees(comm_params):
    rng = random.Random(14)
    for _ in range(40):
        grid = random_connected_grid(rng, width=12, height=12)
        free = grid.free_cells()
        n = rng.randint(2, 5)
        s = state(*[fin(i, rng.uniform(0, 10), grid.center(c).x, grid.center(c).y)
                    for i, c in enumerate(rng.sample(free, n))])
        ev = com_opt_fast(s, grid, comm_params)
        gather = all_gather_event(s, grid)
        assert ev.time <= gather.time + 1e-9
        assert is_connected(comm_graph(ev.positions, grid, comm_params))


def test_determinism(comm_params):
    grid = empty_grid(30, 30)
    s = state(fin(0, 1.0, 2.5, 2.5), fin(1, 4.0, 25.5, 3.5), fin(2, 2.0, 4.5, 25.5))
    ev1 = com_opt(s, grid, comm_params)
    ev2 = com_opt(s, grid, comm_params)
    assert ev1.time == ev2.time
    assert ev1.positions == ev2.positions


def test_sel_com_already_in_range(comm_params):
    grid = empty_grid(30, 4)
    a, b = Position(3.5, 1.5), Position(8.5, 1.5)
    assert sel_com(a, b, grid, comm_params) == a


def test_sel_com_stops_at_range_boundary(comm_params):
    grid = empty_grid(30, 4)
    a, b = Position(1.5, 1.5), Position(26.5, 1.5)  # 25 m apart, range ~10 m
    p = sel_com(a, b, grid, comm_params)
    assert quality(p, b, grid, comm_params) > comm_params.threshold
    assert a.dist(p) == pytest.approx(15.0, abs=1.0)


def test_sel_com_behind_wall_has_adjusted_quality(comm_params):
    rows = ["..........",
            "....#.....",
            "....#.....",
            "....#.....",
            ".........."]
    grid = grid_from_rows(rows)
    a, b = Position(0.5, 2.5), Position(9.5, 2.5)
    p = sel_com(a, b, grid, comm_params)
    assert quality(p, b, grid, comm_params) > comm_params.threshold


def test_sel_com_adds_no_attribute_to_the_map(comm_params):
    grid = empty_grid(30, 4)
    before = set(vars(grid))
    a, b = Position(1.5, 1.5), Position(26.5, 1.5)
    assert sel_com(a, b, grid, comm_params) == sel_com.__wrapped__(a, b, grid, comm_params)
    assert sel_com(a, b, grid, comm_params) == sel_com.__wrapped__(a, b, grid, comm_params)
    assert set(vars(grid)) == before


def test_disconnected_workspace_raises(comm_params):
    rows = [".#.",
            ".#.",
            ".#."]
    grid = grid_from_rows(rows)
    s = state(fin(0, 0.0, 0.5, 1.5), fin(1, 0.0, 2.5, 1.5))
    with pytest.raises(MeetingInfeasible):
        com_opt(s, grid, comm_params)


def test_budget_zero_still_returns_valid_event(comm_params):
    grid = empty_grid(30, 6)
    s = state(fin(0, 0.0, 2.5, 2.5), fin(1, 5.0, 27.5, 2.5))
    ev = com_opt(s, grid, comm_params)
    assert is_connected(comm_graph(ev.positions, grid, comm_params))
    gather = all_gather_event(s, grid)
    assert ev.time <= gather.time + 1e-9
