import random

import pytest

from commplan.tasks import (ExecutionInterval, RelationIndex, RelationKind, Task,
                            TemporalRelation, check_schedule, detect_tasks)
from commplan.workspace import Position

from conftest import empty_grid, grid_from_rows


def make_task(tid, x=5.0, y=5.0, release=0.0, duration=5.0):
    return Task(tid, Position(x, y), 1.0, duration, ((1, "work"),), release_time=release)


def test_task_validation():
    with pytest.raises(ValueError):
        make_task(1, duration=0.0)
    with pytest.raises(ValueError):
        Task(1, Position(1, 1), 1.0, 5.0, ())
    with pytest.raises(ValueError):
        Task(1, Position(1, 1), 1.0, 5.0, ((0, "work"),))
    with pytest.raises(ValueError):
        TemporalRelation(3, 3, RelationKind.MUTEX)


def test_detection_respects_sensor_range():
    grid = empty_grid(20, 20)
    task = make_task(9, x=10.5, y=1.5)
    # 9 m away with an 8 m sensor: not detected.
    found = detect_tasks(Position(1.5, 1.5), 8.0, [task], 0.0, grid)
    assert found == [] and task.detected_at is None
    found = detect_tasks(Position(3.5, 1.5), 8.0, [task], 2.0, grid)
    assert found == [9] and task.detected_at == 2.0


def test_detection_at_agent_position_and_release_gate():
    grid = empty_grid()
    task = make_task(1, x=2.5, y=2.5, release=10.0)
    assert detect_tasks(Position(2.5, 2.5), 8.0, [task], 5.0, grid) == []
    assert detect_tasks(Position(2.5, 2.5), 8.0, [task], 10.0, grid) == [1]


def test_detection_blocked_by_wall():
    rows = ["........",
            "...#....",
            "...#....",
            "........"]
    grid = grid_from_rows(rows)
    task = make_task(2, x=6.5, y=1.5)
    found = detect_tasks(Position(0.5, 1.5), 8.0, [task], 0.0, grid)
    assert found == []
    # A clear line of sight at the same distance detects.
    task2 = make_task(3, x=6.5, y=3.5)
    found = detect_tasks(Position(0.5, 3.5), 8.0, [task2], 0.0, grid)
    assert found == [3]


def test_detection_is_permanent():
    grid = empty_grid()
    task = make_task(1, x=2.5, y=2.5)
    detect_tasks(Position(2.5, 2.5), 8.0, [task], 1.0, grid)
    assert task.detected_at == 1.0
    detect_tasks(Position(2.5, 2.5), 8.0, [task], 9.0, grid)
    assert task.detected_at == 1.0


def iv(tid, s, f):
    return ExecutionInterval(tid, s, f)


def rel(a, b, kind):
    return TemporalRelation(a, b, kind)


def test_precedence_boundary_inclusive():
    ok, bad = check_schedule([iv(1, 0, 5), iv(2, 5, 9)], [rel(1, 2, RelationKind.PRECEDENCE)])
    assert ok and bad == []
    ok, bad = check_schedule([iv(1, 0, 5.1), iv(2, 5, 9)], [rel(1, 2, RelationKind.PRECEDENCE)])
    assert not ok and len(bad) == 1


def test_mutex_shared_endpoint_violates():
    ok, bad = check_schedule([iv(1, 0, 4), iv(2, 4, 8)], [rel(1, 2, RelationKind.MUTEX)])
    assert not ok
    ok, _ = check_schedule([iv(1, 0, 4), iv(2, 4.001, 8)], [rel(1, 2, RelationKind.MUTEX)])
    assert ok


def test_concurrency_requires_overlap():
    ok, bad = check_schedule([iv(1, 0, 2), iv(2, 5, 7)], [rel(1, 2, RelationKind.CONCURRENCY)])
    assert not ok
    ok, _ = check_schedule([iv(1, 0, 6), iv(2, 5, 7)], [rel(1, 2, RelationKind.CONCURRENCY)])
    assert ok
    # Touching endpoints intersect in one point, which counts as overlap.
    ok, _ = check_schedule([iv(1, 0, 5), iv(2, 5, 7)], [rel(1, 2, RelationKind.CONCURRENCY)])
    assert ok


def test_missing_endpoints():
    rels = [rel(1, 2, RelationKind.PRECEDENCE), rel(3, 4, RelationKind.MUTEX),
            rel(5, 6, RelationKind.CONCURRENCY)]
    ok, bad = check_schedule([iv(1, 0, 5), iv(3, 0, 5), iv(5, 0, 5)], rels)
    assert not ok
    assert bad == [rels[2]]


def test_unknown_and_duplicate_intervals_raise():
    with pytest.raises(ValueError):
        check_schedule([iv(1, 0, 5)], [], known_tasks={2, 3})
    with pytest.raises(ValueError):
        check_schedule([iv(1, 0, 5), iv(1, 2, 3)], [])


def test_order_independence():
    rng = random.Random(8)
    intervals = [iv(t, s, s + d) for t, (s, d) in
                 enumerate((rng.uniform(0, 20), rng.uniform(1, 5)) for _ in range(6))]
    rels = [rel(0, 1, RelationKind.PRECEDENCE), rel(2, 3, RelationKind.MUTEX),
            rel(4, 5, RelationKind.CONCURRENCY)]
    base = check_schedule(intervals, rels)
    for _ in range(10):
        shuffled_iv = intervals[:]
        shuffled_rel = rels[:]
        rng.shuffle(shuffled_iv)
        rng.shuffle(shuffled_rel)
        ok, bad = check_schedule(shuffled_iv, shuffled_rel)
        assert ok == base[0]
        assert set(bad) == set(base[1])


def test_check_schedule_against_integer_point_set_oracle():
    # Intervals on an integer grid so the closed-interval semantics equal
    # point-set intersection exactly.
    rng = random.Random(9)
    kinds = list(RelationKind)
    for _ in range(2000):
        s1, s2 = rng.randint(0, 20), rng.randint(0, 20)
        f1, f2 = s1 + rng.randint(0, 8), s2 + rng.randint(0, 8)
        kind = rng.choice(kinds)
        ok, _ = check_schedule([iv(1, s1, f1), iv(2, s2, f2)], [rel(1, 2, kind)])
        pts1 = set(range(s1, f1 + 1))
        pts2 = set(range(s2, f2 + 1))
        if kind is RelationKind.PRECEDENCE:
            want = f1 <= s2
        elif kind is RelationKind.MUTEX:
            want = not (pts1 & pts2)
        else:
            want = bool(pts1 & pts2)
        assert ok == want, (s1, f1, s2, f2, kind)


def test_relation_index_matches_a_scan_of_the_relations():
    rng = random.Random(11)
    for _ in range(50):
        pairs = rng.sample([(a, b) for a in range(8) for b in range(8) if a != b], 10)
        rels = [TemporalRelation(a, b, rng.choice(list(RelationKind))) for a, b in pairs]
        index = RelationIndex(rels)

        def view(kind, symmetric):
            out = {}
            for t in range(8):
                others = {r.first for r in rels if r.kind is kind and r.second == t}
                if symmetric:
                    others |= {r.second for r in rels if r.kind is kind and r.first == t}
                if others:
                    out[t] = tuple(sorted(others))
            return out

        assert index.preds == view(RelationKind.PRECEDENCE, False)
        assert index.mutex == view(RelationKind.MUTEX, True)
        assert index.conc == view(RelationKind.CONCURRENCY, True)
