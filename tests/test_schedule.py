import itertools
import random
from collections import Counter
from pathlib import Path

import pytest

from commplan.schedule import (EXHAUSTIVE_MUTEX_LIMIT, AgentContext, CapabilityError,
                               InfeasibleSchedule, Timetable, append_to_timetable,
                               eligible_groups, group_covers, groups_of, schedule_min_makespan)
from commplan.tasks import RelationIndex, RelationKind, Task, TemporalRelation, check_schedule
from commplan.workspace import Position, astar_travel_time, load_grid

from conftest import empty_grid, intervals_of, random_connected_grid

NO_RELATIONS = RelationIndex([])


def ctx(aid, x, y, caps=("work",), v=1.0):
    return AgentContext(aid, Position(x, y), 0.0, v, frozenset(caps))


def task(tid, x, y, duration, reqs=((1, "work"),)):
    return Task(tid, Position(x, y), 0.5, duration, reqs)


def test_single_chain_travel_then_duration():
    grid = empty_grid(20, 4)
    team = {0: ctx(0, 0.5, 0.5)}
    tasks = {1: task(1, 2.5, 0.5, 10.0)}
    tt = schedule_min_makespan({0: [1]}, tasks, NO_RELATIONS, grid, team)
    assert tt.start_of(1) == pytest.approx(2.0)
    assert tt.start_of(1) + tasks[1].duration == pytest.approx(12.0)


def test_two_task_chain_example():
    grid = empty_grid(20, 4)
    team = {0: ctx(0, 0.5, 0.5)}
    tasks = {1: task(1, 2.5, 0.5, 10.0), 2: task(2, 5.5, 0.5, 5.0)}
    tt = schedule_min_makespan({0: [1, 2]}, tasks, NO_RELATIONS, grid, team)
    assert tt.start_of(1) + tasks[1].duration == pytest.approx(12.0)
    assert tt.start_of(2) + tasks[2].duration == pytest.approx(20.0)
    assert tt.makespan == pytest.approx(20.0)


def test_synchronized_start_waits_for_all_agents():
    grid = empty_grid(20, 4)
    team = {0: ctx(0, 4.5, 0.5, v=1.0), 1: ctx(1, 9.5, 0.5, v=1.0)}
    tasks = {1: task(1, 0.5, 0.5, 3.0, reqs=((2, "work"),))}
    tt = schedule_min_makespan({0: [1], 1: [1]}, tasks, NO_RELATIONS, grid, team)
    assert tt.start_of(1) == pytest.approx(9.0)  # later arrival wins


def test_capability_violation_raises():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5, caps=("scan",))}
    tasks = {1: task(1, 2.5, 0.5, 5.0, reqs=((1, "lift"),))}
    with pytest.raises(CapabilityError):
        schedule_min_makespan({0: [1]}, tasks, NO_RELATIONS, grid, team)


def test_groups_come_from_the_sequences():
    assert groups_of({1: [3, 2], 0: [2], 2: []}) == {3: (1,), 2: (0, 1)}
    grid = empty_grid(20, 4)
    team = {0: ctx(0, 4.5, 0.5), 1: ctx(1, 9.5, 0.5)}
    tasks = {1: task(1, 0.5, 0.5, 3.0, reqs=((2, "work"),))}
    with pytest.raises(CapabilityError):  # one holder cannot cover two slots
        schedule_min_makespan({0: [1], 1: []}, tasks, NO_RELATIONS, grid, team)
    with pytest.raises(ValueError, match="twice"):
        schedule_min_makespan({0: [1, 1], 1: [1]}, tasks, NO_RELATIONS, grid, team)


def test_cyclic_precedence_infeasible():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 1.5, 0.5)}
    tasks = {1: task(1, 2.5, 0.5, 5.0), 2: task(2, 4.5, 0.5, 5.0)}
    rels = [TemporalRelation(1, 2, RelationKind.PRECEDENCE),
            TemporalRelation(2, 1, RelationKind.PRECEDENCE)]
    with pytest.raises(InfeasibleSchedule):
        schedule_min_makespan({0: [1], 1: [2]}, tasks, RelationIndex(rels), grid, team)


def test_group_cover_and_eligible_groups():
    team = {0: ctx(0, 0, 0, caps=("a",)), 1: ctx(1, 0, 0, caps=("a", "b")),
            2: ctx(2, 0, 0, caps=("b",))}
    t = task(1, 1.5, 1.5, 4.0, reqs=((1, "a"), (1, "b")))
    assert group_covers(t, (0, 1), team)
    assert group_covers(t, (0, 2), team)
    assert not group_covers(t, (0,), team)
    assert not group_covers(t, (0, 0), team)  # 0 cannot fill the "b" slot
    assert not group_covers(t, (1, 1), team)  # nor fill both slots alone
    groups = eligible_groups(t, team)
    assert groups == [(0, 1), (0, 2), (1, 2)]


def test_group_cover_refuses_repeated_ids_and_partial_cover():
    team = {0: ctx(0, 0, 0, caps=("a",)), 1: ctx(1, 0, 0, caps=("a", "b")),
            2: ctx(2, 0, 0, caps=("b",))}
    single = task(1, 1.5, 1.5, 4.0, reqs=((2, "a"),))
    assert group_covers(single, (0, 1), team)
    assert not group_covers(single, (0, 0), team)  # a repeated id fills one slot
    assert not group_covers(single, (1, 2), team)  # 2 cannot do "a"
    assert not group_covers(single, (0,), team)
    multi = task(2, 1.5, 1.5, 4.0, reqs=((2, "a"), (1, "b")))
    assert group_covers(multi, (0, 1, 2), team)
    assert not group_covers(multi, (0, 1, 1), team)
    assert not group_covers(multi, (0, 2, 2), team)  # covers "b" but only one "a"
    assert not group_covers(multi, (0, 1), team)


def _oracle_min_makespan(sequences, groups, tasks, relations, grid, team):
    """Enumerate every mutex orientation; longest path by repeated relaxation."""
    assigned = sorted(groups)
    prec = [(r.first, r.second) for r in relations
            if r.kind is RelationKind.PRECEDENCE and r.first in groups and r.second in groups]
    mutex = [(r.first, r.second) for r in relations
             if r.kind is RelationKind.MUTEX and r.first in groups and r.second in groups]
    conc = [(r.first, r.second) for r in relations
            if r.kind is RelationKind.CONCURRENCY and r.first in groups and r.second in groups]

    base_edges = []
    lower = {t: 0.0 for t in assigned}
    for aid, seq in sequences.items():
        pos = team[aid].position
        for i, t in enumerate(seq):
            travel = astar_travel_time(pos, tasks[t].region_center, grid, team[aid].v_max)
            if i == 0:
                lower[t] = max(lower[t], team[aid].ready_time + travel)
            else:
                base_edges.append((seq[i - 1], t, tasks[seq[i - 1]].duration + travel))
            pos = tasks[t].region_center
    for p, q in prec:
        base_edges.append((p, q, tasks[p].duration))

    best = None
    for bits in range(1 << len(mutex)):
        edges = list(base_edges)
        for k, (p, q) in enumerate(mutex):
            if (bits >> k) & 1:
                p, q = q, p
            edges.append((p, q, tasks[p].duration + 1e-6))
        start = dict(lower)
        changed = True
        rounds = 0
        feasible = True
        while changed:
            changed = False
            rounds += 1
            if rounds > len(assigned) + 1:
                feasible = False
                break
            for u, v, w in edges:
                if start[u] + w > start[v] + 1e-15:
                    start[v] = start[u] + w
                    changed = True
        if not feasible:
            continue
        ok = all(max(start[a], start[b]) + 0.5 <= min(start[a] + tasks[a].duration,
                                                      start[b] + tasks[b].duration)
                 for a, b in conc)
        if not ok:
            continue
        mk = max(start[t] + tasks[t].duration for t in assigned)
        if best is None or mk < best:
            best = mk
    return best


def test_makespan_matches_exhaustive_orientation_oracle():
    rng = random.Random(10)
    for _ in range(40):
        grid = random_connected_grid(rng)
        free = grid.free_cells()
        n_agents = rng.randint(1, 3)
        team = {i: AgentContext(i, grid.center(c), 0.0, 2.0, frozenset({"work"}))
                for i, c in enumerate(rng.sample(free, n_agents))}
        n_tasks = rng.randint(2, 6)
        tasks = {}
        for t in range(n_tasks):
            c = grid.center(rng.choice(free))
            tasks[t] = task(t, c.x, c.y, rng.uniform(1, 8))
        seqs = {a: [] for a in team}
        groups = {}
        for t in tasks:
            a = rng.choice(sorted(team))
            seqs[a].append(t)
            groups[t] = (a,)
        rels = []
        pairs = list(itertools.combinations(sorted(tasks), 2))
        rng.shuffle(pairs)
        for p, q in pairs[:rng.randint(0, 2)]:
            rels.append(TemporalRelation(p, q, rng.choice([RelationKind.PRECEDENCE,
                                                           RelationKind.MUTEX])))
        want = _oracle_min_makespan(seqs, groups, tasks, rels, grid, team)
        try:
            tt = schedule_min_makespan(seqs, tasks, RelationIndex(rels), grid, team)
            got = tt.makespan
        except InfeasibleSchedule:
            got = None
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-6)


def test_schedule_passes_check_schedule():
    rng = random.Random(11)
    for _ in range(25):
        grid = random_connected_grid(rng)
        free = grid.free_cells()
        team = {i: AgentContext(i, grid.center(c), 0.0, 2.0, frozenset({"work"}))
                for i, c in enumerate(rng.sample(free, 2))}
        tasks = {}
        for t in range(4):
            c = grid.center(rng.choice(free))
            tasks[t] = task(t, c.x, c.y, rng.uniform(1, 6))
        seqs = {0: [0, 1], 1: [2, 3]}
        rels = [TemporalRelation(0, 2, RelationKind.MUTEX),
                TemporalRelation(1, 3, RelationKind.PRECEDENCE)]
        try:
            tt = schedule_min_makespan(seqs, tasks, RelationIndex(rels), grid, team)
        except InfeasibleSchedule:
            continue
        ok, bad = check_schedule(intervals_of(tt, tasks), rels)
        assert ok, bad


def test_makespan_monotone_in_appended_tasks():
    grid = empty_grid(20, 4)
    team = {0: ctx(0, 0.5, 0.5)}
    tasks = {1: task(1, 2.5, 0.5, 4.0), 2: task(2, 6.5, 0.5, 3.0), 3: task(3, 9.5, 0.5, 2.0)}
    mk = []
    for upto in (1, 2, 3):
        seq = list(range(1, upto + 1))
        tt = schedule_min_makespan({0: seq}, tasks, NO_RELATIONS, grid, team)
        mk.append(tt.makespan)
    assert mk[0] <= mk[1] <= mk[2]


def test_empty_plan_schedules_to_zero():
    grid = empty_grid()
    team = {0: ctx(0, 0.5, 0.5)}
    tt = schedule_min_makespan({0: []}, {}, NO_RELATIONS, grid, team)
    assert tt == Timetable({}, 0.0, True)


def _mutex_instance(seed):
    """Open 10x10 map, 2 agents, 5 one-agent tasks, 4 mutex relations."""
    rng = random.Random(seed)
    grid = empty_grid(10, 10)
    free = grid.free_cells()
    team = {i: AgentContext(i, grid.center(c), 0.0, 1.0, frozenset({"work"}))
            for i, c in enumerate(rng.sample(free, 2))}
    tasks = {}
    for t in range(5):
        c = grid.center(rng.choice(free))
        tasks[t] = task(t, c.x, c.y, float(rng.randint(1, 6)))
    seqs = {a: [] for a in team}
    for t in tasks:
        seqs[rng.choice(sorted(team))].append(t)
    pairs = rng.sample(list(itertools.combinations(sorted(tasks), 2)), 4)
    rels = [TemporalRelation(*((p, q) if rng.random() < 0.5 else (q, p)), RelationKind.MUTEX)
            for p, q in pairs]
    return grid, team, tasks, seqs, rels, rng


def test_starts_do_not_depend_on_relation_order():
    # Seeds 23 and 192 break a makespan tie differently per list order when
    # mutex orientations follow the order the relations are listed in.
    def starts(rels):
        try:
            tt = schedule_min_makespan(seqs, tasks, RelationIndex(rels), grid, team)
        except InfeasibleSchedule:
            return None
        return tt.start

    for seed in range(200):
        grid, team, tasks, seqs, rels, rng = _mutex_instance(seed)
        want = starts(rels)
        for _ in range(6):
            rng.shuffle(rels)
            assert starts(rels) == want, seed


def test_more_mutex_pairs_than_the_exhaustive_limit_orient_along_one_order():
    """13 mutex pairs, one more than EXHAUSTIVE_MUTEX_LIMIT, take the single
    total-order orientation: it satisfies every relation, cannot beat the best
    of the 2^13 orientations, and does not depend on the relations' order."""
    assert EXHAUSTIVE_MUTEX_LIMIT == 12
    for seed in range(3):
        rng = random.Random(seed)
        grid = empty_grid(10, 10)
        free = grid.free_cells()
        team = {i: AgentContext(i, grid.center(c), 0.0, 1.0, frozenset({"work"}))
                for i, c in enumerate(rng.sample(free, 2))}
        tasks = {}
        for t in range(6):
            c = grid.center(rng.choice(free))
            tasks[t] = task(t, c.x, c.y, float(rng.randint(1, 6)))
        seqs = {a: [] for a in team}
        for t in tasks:
            seqs[rng.choice(sorted(team))].append(t)
        pairs = rng.sample(list(itertools.combinations(sorted(tasks), 2)), 13)
        rels = [TemporalRelation(*((p, q) if rng.random() < 0.5 else (q, p)), RelationKind.MUTEX)
                for p, q in pairs]
        tt = schedule_min_makespan(seqs, tasks, RelationIndex(rels), grid, team)
        ok, bad = check_schedule(intervals_of(tt, tasks), rels)
        assert ok, bad
        best = _oracle_min_makespan(seqs, {t: () for t in tasks}, tasks, rels, grid, team)
        assert tt.makespan >= best - 1e-9
        for _ in range(3):
            rng.shuffle(rels)
            again = schedule_min_makespan(seqs, tasks, RelationIndex(rels), grid, team)
            assert again == tt, seed


def _desk_append_instance(seed):
    """desk.map, 3 agents, 7 tasks (every third needs 2 agents), 3 relations of random kinds."""
    rng = random.Random(seed)
    grid = load_grid(Path(__file__).parent / "data" / "desk.map")
    free = grid.free_cells()
    team = {i: AgentContext(i, grid.center(c), rng.uniform(0.0, 5.0), rng.uniform(1.0, 2.0),
                            frozenset({"work"}))
            for i, c in enumerate(rng.sample(free, 3))}
    tasks = {}
    for t in range(7):
        c = grid.center(rng.choice(free))
        tasks[t] = task(t, c.x, c.y, rng.uniform(1.0, 8.0), reqs=((1 + (t % 3 == 0), "work"),))
    pairs = rng.sample(list(itertools.combinations(range(7), 2)), 3)
    rels = [TemporalRelation(*((p, q) if rng.random() < 0.5 else (q, p)),
                             rng.choice(list(RelationKind))) for p, q in pairs]
    return grid, team, tasks, rels, rng


def _falls_back(t, base, rels):
    """Why appending t to a base holding the tasks `base` is not exact, or None."""
    for r in rels:
        if r.kind is RelationKind.MUTEX and r.first in base and r.second in base:
            return "base mutex pair"
        if r.kind is not RelationKind.PRECEDENCE and t in (r.first, r.second) and (
                r.second if r.first == t else r.first) in base:
            return "partner in base"
        if r.kind is RelationKind.PRECEDENCE and r.first == t and r.second in base:
            return "base successor"
    return None


def _holds_no_mutex_pair(timetable, rels):
    """Whether no two tasks of the timetable are mutex partners."""
    return not any(r.kind is RelationKind.MUTEX and timetable.start_of(r.first) is not None
                   and timetable.start_of(r.second) is not None for r in rels)


@pytest.mark.parametrize("relaxed", [False, True])
def test_append_chains_equal_the_full_solve_bit_for_bit(relaxed):
    """Timetables appended one tail task at a time, on top of earlier appends,
    flatten to the full solve's; every case the append cannot extend exactly
    returns None. Each full solve's mutex_free says that it holds no mutex pair."""
    longest = appended = 0
    reasons: Counter = Counter()
    mutex_free = Counter()
    for seed in range(40):
        grid, team, tasks, rels, rng = _desk_append_instance(seed)
        index = RelationIndex(rels)
        seqs = {a: () for a in team}
        record = schedule_min_makespan(seqs, tasks, index, grid, team, relaxed=relaxed)
        run = 0
        for t in rng.sample(sorted(tasks), len(tasks)):
            base = set().union(*seqs.values())
            group = rng.choice(eligible_groups(tasks[t], team))
            seqs = {a: s + (t,) if a in group else s for a, s in seqs.items()}
            try:
                full = schedule_min_makespan(seqs, tasks, index, grid, team, relaxed=relaxed)
            except InfeasibleSchedule:
                full = None
            if full is not None:
                assert full.mutex_free == _holds_no_mutex_pair(full, rels), (seed, seqs)
                mutex_free[full.mutex_free] += 1
            got = append_to_timetable(seqs, t, record, tasks, index, grid, team, relaxed=relaxed)
            reason = _falls_back(t, base, rels)
            if reason is not None:
                assert got is None, (seed, seqs, reason)
                reasons[reason] += 1
                if full is None:
                    break
                record, run = full, 0
                continue
            assert got is not None and full is not None, (seed, seqs)
            assert repr(got.flat()) == repr(full), (seed, seqs)
            assert got.makespan == full.makespan
            assert all(got.start_of(u) == s for u, s in full.start.items())
            assert got.start_of(-1) is None and got.mutex_free
            record, run = got, run + 1
            appended += 1
            longest = max(longest, run)
    assert appended >= 100 and longest >= 5
    assert set(reasons) == {"base mutex pair", "partner in base", "base successor"}
    assert mutex_free[True] and mutex_free[False]


def test_succs_invert_preds():
    rng = random.Random(32)
    for _ in range(200):
        pairs = rng.sample(list(itertools.combinations(range(8), 2)), rng.randint(0, 12))
        rels = [TemporalRelation(*((p, q) if rng.random() < 0.5 else (q, p)),
                                 rng.choice(list(RelationKind))) for p, q in pairs]
        index = RelationIndex(rels)
        want: dict[int, set[int]] = {}
        for r in rels:
            if r.kind is RelationKind.PRECEDENCE:
                want.setdefault(r.first, set()).add(r.second)
        assert index.succs == {p: tuple(sorted(ts)) for p, ts in want.items()}
        assert ({(p, t) for t, ps in index.preds.items() for p in ps}
                == {(p, t) for p, ts in index.succs.items() for t in ts})


def test_append_leaves_relations_it_cannot_extend_to_the_full_solve():
    grid = empty_grid(20, 4)
    team = {0: ctx(0, 0.5, 0.5), 1: ctx(1, 0.5, 2.5)}
    tasks = {t: task(t, 2.5 + 3 * t, 0.5, 4.0) for t in range(1, 5)}
    seqs = {0: (1, 2), 1: (3, 4)}
    base_seqs = {0: (1, 2), 1: (3,)}

    def base_record(index):
        return schedule_min_makespan(base_seqs, tasks, index, grid, team)

    def append(*rels):
        index = RelationIndex(rels)
        return append_to_timetable(seqs, 4, base_record(index), tasks, index, grid, team)

    want = schedule_min_makespan(seqs, tasks, NO_RELATIONS, grid, team)
    assert repr(append().flat()) == repr(want)
    for kind in (RelationKind.MUTEX, RelationKind.CONCURRENCY):
        assert append(TemporalRelation(4, 1, kind)) is None  # 4 has a partner in the base
    assert append(TemporalRelation(4, 2, RelationKind.PRECEDENCE)) is None  # 2 must follow 4
    assert append(TemporalRelation(1, 3, RelationKind.MUTEX)) is None  # the base holds a pair
    # A mutex partner outside the base, and a base predecessor, still extend.
    rels = (TemporalRelation(4, 9, RelationKind.MUTEX),
            TemporalRelation(2, 4, RelationKind.PRECEDENCE))
    want = schedule_min_makespan(seqs, tasks, RelationIndex(rels), grid, team)
    assert repr(append(*rels).flat()) == repr(want)
    # Task 4 already held by a non-tail agent is in the base: not an append.
    assert append_to_timetable({0: (4, 1, 2), 1: (3, 4)}, 4, base_record(NO_RELATIONS), tasks,
                               NO_RELATIONS, grid, team) is None
    with pytest.raises(ValueError, match="twice"):
        append_to_timetable({0: (1, 2), 1: (4, 3, 4)}, 4, base_record(NO_RELATIONS), tasks,
                            NO_RELATIONS, grid, team)
    two = {**tasks, 4: task(4, 14.5, 0.5, 4.0, reqs=((2, "work"),))}
    with pytest.raises(CapabilityError):
        append_to_timetable(seqs, 4, base_record(NO_RELATIONS), two, NO_RELATIONS, grid, team)
