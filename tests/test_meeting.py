import random
from pathlib import Path

import pytest

from commplan import meeting
from commplan.meeting import (CommEvent, MeetingInfeasible, all_gather_event, chain_event, com_opt,
                              com_opt_fast, latest, sel_com)
from commplan.radio import CommParams, comm_graph, is_connected, quality
from commplan.schedule import AgentContext
from commplan.workspace import Position, Unreachable, astar_length, load_grid

from conftest import empty_grid, grid_from_rows, random_connected_grid

DATA = Path(__file__).parent / "data"


def fin(aid, t, x, y, v=2.0):
    """Agent `aid`, free from time t at (x, y)."""
    return AgentContext(aid, Position(x, y), t, v, frozenset())


def state(*finishes):
    return {f.id: f for f in finishes}


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
    delay = max(ev.time - f.ready_time for f in s.values())
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
        for aid, f in s.items():
            arrival = f.ready_time + astar_length(f.position, ev.positions[aid], grid) / f.v_max
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


def plain_chain(last, anchor, grid, params, resident=None, deadline=None):
    """`chain_event` with every path length looked up where it is read."""
    def arrival(ctx, p):
        return ctx.ready_time + astar_length(ctx.position, p, grid) / ctx.v_max

    order = sorted(last, key=lambda a: (0 if a == resident else 1, arrival(last[a], anchor), a))
    positions = {}  # in placing order
    for a in order:
        ctx = last[a]
        cand = anchor
        if positions:
            target = min(positions.items(),
                         key=lambda it: (astar_length(ctx.position, it[1], grid), it[0]))[1]
            cand = sel_com(ctx.position, target, grid, params)
        if deadline is not None and arrival(ctx, cand) > deadline:
            cand = anchor
            if arrival(ctx, cand) > deadline:
                return None
        positions[a] = cand
    if deadline is not None:
        return CommEvent(deadline, positions)
    return CommEvent(max(arrival(last[a], p) for a, p in positions.items()), positions)


def random_team(rng, grid):
    """1-5 agents on free cells, some on one spot, some free at the same time."""
    free = grid.free_cells()
    team = {}
    for a in rng.sample(range(10), rng.randint(1, 5)):
        if team and rng.random() < 0.3:  # coincident with an earlier agent
            pos = rng.choice(list(team.values())).position
        else:
            c = grid.center(rng.choice(free))
            pos = Position(c.x + rng.uniform(-0.4, 0.4) * grid.resolution,
                           c.y + rng.uniform(-0.4, 0.4) * grid.resolution)
        ready = (rng.choice(list(team.values())).ready_time if team and rng.random() < 0.2
                 else rng.uniform(0.0, 30.0))
        team[a] = fin(a, ready, pos.x, pos.y, v=rng.uniform(1.0, 2.0))
    return team


@pytest.mark.parametrize("map_name", ["desk.map", "subt.map"])
def test_fast_event_equals_the_better_of_gather_and_resident_chain(map_name, comm_params):
    """com_opt_fast is the better of the all-gather event and the chain with the
    latest finisher resident on its position, and that chain is bit for bit the
    one a chain that looks every length up where it reads it gives."""
    grid = load_grid(DATA / map_name)
    rng = random.Random(41)
    sizes = set()
    for _ in range(150):
        last = random_team(rng, grid)
        anchor = latest(last)
        try:
            gather = all_gather_event(last, grid)
            chain = chain_event(last, anchor.position, grid, comm_params, resident=anchor.id)
        except Unreachable:
            with pytest.raises(MeetingInfeasible):
                com_opt_fast(last, grid, comm_params)
            continue
        plain = plain_chain(last, anchor.position, grid, comm_params, resident=anchor.id)
        assert (chain.time, chain.positions) == (plain.time, plain.positions)
        want = chain if chain.time < gather.time else gather
        ev = com_opt_fast(last, grid, comm_params)
        assert ev.time == want.time and ev.positions == want.positions
        sizes.add(len(last))
    assert sizes == {1, 2, 3, 4, 5}


@pytest.mark.parametrize("map_name", ["desk.map", "subt.map"])
def test_chain_with_a_deadline_equals_the_plain_chain(map_name, comm_params):
    """frdt's and fimr's chains (a deadline, no resident) and com_opt's
    anchor scan (neither) are unchanged by the shared anchor lengths."""
    grid = load_grid(DATA / map_name)
    rng = random.Random(42)
    outcomes = set()
    for _ in range(150):
        last = random_team(rng, grid)
        anchor = grid.center(rng.choice(grid.free_cells()))
        deadline = rng.choice([None, rng.uniform(10.0, 60.0)])
        try:
            want = plain_chain(last, anchor, grid, comm_params, deadline=deadline)
        except Unreachable:
            with pytest.raises(Unreachable):
                chain_event(last, anchor, grid, comm_params, deadline=deadline)
            continue
        got = chain_event(last, anchor, grid, comm_params, deadline=deadline)
        assert (got is None) == (want is None)
        if want is not None:
            assert got.time == want.time and got.positions == want.positions
        outcomes.add((deadline is None, want is None))
    assert outcomes == {(True, False), (False, False), (False, True)}


def counting(monkeypatch, module, name):
    """Count the calls to `module.name` in the returned list, one entry a call."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_an_event_at_the_floor_skips_the_anchor_scan(monkeypatch, comm_params):
    """Agent 1 is free last and agent 0, free earlier, already holds a link to
    it, so com_opt_fast's event meets at max(ready_time): no event can be
    earlier, and com_opt builds no chain beyond com_opt_fast's one."""
    grid = empty_grid(30, 6)
    s = state(fin(0, 2.0, 2.5, 2.5), fin(1, 6.0, 6.5, 2.5))
    fast = com_opt_fast(s, grid, comm_params)
    assert fast.time == max(f.ready_time for f in s.values())
    chains = counting(monkeypatch, meeting, "chain_event")
    ev = com_opt(s, grid, comm_params)
    assert len(chains) == 1
    assert (ev.time, ev.positions) == (fast.time, fast.positions)


@pytest.mark.parametrize("map_name", ["desk.map", "subt.map"])
def test_a_lone_agent_meets_where_it_stands_when_it_is_free(monkeypatch, map_name, comm_params):
    """One agent's event is at its position at its ready time: com_opt_fast
    returns that floor, so com_opt scans no anchor."""
    grid = load_grid(DATA / map_name)
    rng = random.Random(17)
    paths = counting(monkeypatch, meeting, "astar_path")
    for cell in rng.sample(grid.free_cells(), 20):
        at = grid.center(cell)
        ctx = fin(rng.randrange(10), rng.uniform(0.0, 100.0), at.x, at.y)
        ev = com_opt(state(ctx), grid, comm_params)
        assert (ev.time, ev.positions) == (ctx.ready_time, {ctx.id: at})
    assert paths == []


def test_an_event_above_the_floor_still_scans(monkeypatch, comm_params):
    grid = empty_grid(40, 6)
    s = state(fin(0, 0.0, 2.5, 2.5), fin(1, 0.0, 37.5, 2.5))
    assert com_opt_fast(s, grid, comm_params).time > 0.0
    chains = counting(monkeypatch, meeting, "chain_event")
    com_opt(s, grid, comm_params)
    assert len(chains) > 1


def test_the_floor_event_still_gets_the_connectivity_check(monkeypatch, comm_params):
    grid = empty_grid(30, 6)
    s = state(fin(0, 2.0, 2.5, 2.5), fin(1, 6.0, 6.5, 2.5))
    checks = []

    def refuse(g):
        checks.append(g)
        return False

    monkeypatch.setattr(meeting, "is_connected", refuse)
    ev = com_opt(s, grid, comm_params)
    gather = all_gather_event(s, grid)
    assert len(checks) == 1
    assert (ev.time, ev.positions) == (gather.time, gather.positions)


def scanning_com_opt(last, grid, params, gap=meeting.DEFAULT_GAP):
    """`com_opt` that scans the anchors even when the single pass is at the floor."""
    best = com_opt_fast(last, grid, params)
    if len(last) == 1:
        return best
    p0 = latest(last).position
    try:
        bottleneck = max(last.values(), key=lambda c: (
            c.ready_time + astar_length(c.position, p0, grid) / c.v_max, -c.id))
        path = meeting.astar_path(bottleneck.position, p0, grid)
        stride = max(1, len(path) // meeting.MAX_ANCHOR_CANDIDATES)
        for idx in range(0, len(path), stride):
            cand = chain_event(last, path[idx], grid, params)
            if cand is not None and cand.time < best.time:
                improvement = best.time - cand.time
                best = cand
                if improvement < gap:
                    break
    except Unreachable as exc:
        raise MeetingInfeasible(str(exc)) from exc
    if not is_connected(comm_graph(best.positions, grid, params)):
        best = all_gather_event(last, grid)
    return best


@pytest.mark.parametrize("map_name", ["desk.map", "subt.map"])
def test_the_floor_skip_changes_no_event(map_name, comm_params):
    grid = load_grid(DATA / map_name)
    rng = random.Random(15)
    at_floor = set()
    for _ in range(120):
        last = random_team(rng, grid)
        try:
            want = scanning_com_opt(last, grid, comm_params)
        except MeetingInfeasible:
            with pytest.raises(MeetingInfeasible):
                com_opt(last, grid, comm_params)
            continue
        got = com_opt(last, grid, comm_params)
        assert (got.time, got.positions) == (want.time, want.positions)
        if len(last) > 1:
            fast = com_opt_fast(last, grid, comm_params)
            at_floor.add(fast.time == max(f.ready_time for f in last.values()))
    assert at_floor == {True, False}
