import itertools
import math
import random
from pathlib import Path

import pytest

from commplan import radio
from commplan.radio import CommParams, comm_graph, is_connected, linked, quality, update_links
from commplan.workspace import MapError, Position, load_grid

from conftest import UnionFind, empty_grid, grid_from_rows


def test_quality_at_reference_distance():
    grid = empty_grid()
    p = CommParams(tx_power=20.0, pl_ref=40.0, ref_dist=1.0)
    assert quality(Position(1, 1), Position(2, 1), grid, p) == pytest.approx(-20.0)


def test_quality_free_space_ten_meters():
    grid = empty_grid(14, 6)
    p = CommParams(tx_power=20.0, pl_ref=40.0, ref_dist=1.0, path_exponent=2.0)
    assert quality(Position(1, 1), Position(11, 1), grid, p) == pytest.approx(-40.0)


def test_quality_obstacle_penalty():
    # 2 m of wall on the line of sight at 5 dB/m drops the -40 dB value to -50.
    rows = ["............"] * 2 + ["....##......"] + ["............"] * 3
    grid = grid_from_rows(rows)
    p = CommParams(attenuation=5.0)
    a, b = Position(1, 2.5), Position(11, 2.5)
    assert quality(a, b, grid, p) == pytest.approx(-50.0)


def test_quality_coincident_clamp():
    grid = empty_grid()
    p = CommParams()
    same = quality(Position(3, 3), Position(3, 3), grid, p)
    near = quality(Position(3, 3), Position(3.05, 3), grid, p)
    assert same == near  # both below the ref_dist/10 clamp
    assert same > p.threshold


def test_quality_monotone_in_distance():
    grid = empty_grid(40, 4)
    p = CommParams()
    prev = None
    for d in [0.5, 1, 2, 4, 8, 16, 32]:
        q = quality(Position(1, 1), Position(1 + d, 1), grid, p)
        if prev is not None and d > p.ref_dist / 10:
            assert q < prev
        prev = q


def test_params_validation():
    with pytest.raises(ValueError):
        CommParams(ref_dist=0.0)
    with pytest.raises(ValueError):
        CommParams(path_exponent=0.0)
    with pytest.raises(ValueError):
        CommParams(attenuation=-1.0)


def test_edge_rule_is_strict():
    grid = empty_grid(14, 6)
    p = CommParams()  # free-space quality at exactly 10 m is exactly the -40 threshold
    g = comm_graph(dict(enumerate([Position(1, 1), Position(11, 1)])), grid, p)
    assert g.edges == frozenset()
    g2 = comm_graph(dict(enumerate([Position(1, 1), Position(10.9, 1)])), grid, p)
    assert (0, 1) in g2.edges


def test_coincident_agents_form_complete_graph():
    grid = empty_grid()
    p = CommParams()
    g = comm_graph(dict(enumerate([Position(2, 2)] * 4)), grid, p)
    assert len(g.edges) == 6
    assert is_connected(g)


def test_line_of_agents_forms_path_graph():
    grid = empty_grid(40, 4)
    p = CommParams()
    positions = [Position(1 + 9 * k, 1) for k in range(4)]
    g = comm_graph(dict(enumerate(positions)), grid, p)
    want = set()
    for i, j in itertools.combinations(range(4), 2):
        if quality(positions[i], positions[j], grid, p) > p.threshold:
            want.add((i, j))
    assert g.edges == frozenset(want)
    assert want == {(0, 1), (1, 2), (2, 3)}


def test_permutation_equivariance():
    rng = random.Random(6)
    grid = empty_grid(30, 30)
    pts = [Position(rng.uniform(0, 29), rng.uniform(0, 29)) for _ in range(6)]
    p = CommParams()
    base = comm_graph(dict(enumerate(pts)), grid, p)
    perm = list(range(6))
    rng.shuffle(perm)
    permuted = comm_graph({perm[i]: pts[i] for i in range(6)}, grid, p)
    relabeled = {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in base.edges}
    assert permuted.edges == frozenset(relabeled)


def test_is_connected_matches_union_find_on_random_graphs():
    from commplan.radio import CommGraph
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(1, 9)
        nodes = tuple(range(n))
        edges = set()
        for i, j in itertools.combinations(nodes, 2):
            if rng.random() < 0.25:
                edges.add((i, j))
        g = CommGraph(nodes, frozenset(edges))
        uf = UnionFind(nodes)
        for i, j in edges:
            uf.union(i, j)
        assert is_connected(g) == uf.one_component()


def test_is_connected_trivial_cases():
    from commplan.radio import CommGraph
    assert is_connected(CommGraph((0,), frozenset()))
    assert not is_connected(CommGraph((0, 1), frozenset()))
    with pytest.raises(ValueError):
        is_connected(CommGraph((), frozenset()))


@pytest.mark.parametrize("map_name", ["desk.map", "subt.map"])
def test_linked_matches_quality_threshold(map_name):
    grid = load_grid(Path(__file__).parent / "data" / map_name)
    p = CommParams()
    rng = random.Random(11)

    def inside():
        return Position(rng.uniform(0, grid.width_m), rng.uniform(0, grid.height_m))

    # Free-space quality equals the threshold at 10 m with the default params.
    pairs = [(q, q) for q in (inside() for _ in range(50))]
    for _ in range(400):
        a = inside()
        r = 10.0 + rng.uniform(-3.0, 3.0)
        ang = rng.uniform(0, 2 * math.pi)
        b = Position(a.x + r * math.cos(ang), a.y + r * math.sin(ang))
        if grid.contains(b):
            pairs.append((a, b))
    pairs += [(inside(), inside()) for _ in range(400)]
    outcomes = set()
    for a, b in pairs:
        want = quality(a, b, grid, p) > p.threshold
        assert linked(a, b, grid, p) == want
        outcomes.add((want, a.dist(b) < 10.0))
    assert {(True, True), (False, False)} <= outcomes
    if grid.occupancy.any():
        # Walls refuse some pairs that free space alone would link.
        assert (False, True) in outcomes


def test_linked_rejects_points_outside_the_map():
    grid = empty_grid()
    p = CommParams()
    inside, near_out, far_out = Position(1, 1), Position(-0.5, 1), Position(100, 100)
    for a, b in ((inside, near_out), (near_out, inside), (inside, far_out), (far_out, inside)):
        with pytest.raises(MapError):
            linked(a, b, grid, p)


def test_update_links_rechecks_only_pairs_with_a_moved_end(monkeypatch):
    grid = empty_grid(30, 6)
    p = CommParams()  # free space: linked iff closer than 10 m
    checked = []

    def recording_linked(p_i, p_j, grid, params):
        checked.append((p_i, p_j))
        return linked(p_i, p_j, grid, params)

    monkeypatch.setattr(radio, "linked", recording_linked)

    def step(prev_links, prev_pos, pos):
        checked.clear()
        links = update_links(prev_links, prev_pos, pos, grid, p)
        assert links == {(a, b) for a, b in itertools.combinations(sorted(pos), 2)
                         if linked(pos[a], pos[b], grid, p)}
        return links

    # No stored positions: every pair is checked.
    pos0 = {0: Position(1, 1), 1: Position(5, 1), 2: Position(20, 1)}
    links0 = step(set(), {}, pos0)
    assert links0 == {(0, 1)}
    assert checked == [(pos0[0], pos0[1]), (pos0[0], pos0[2]), (pos0[1], pos0[2])]

    # Agent 2 moves into range of 1: the pair is added, (0, 1) is carried unchecked.
    pos1 = {**pos0, 2: Position(12, 1)}
    links1 = step(links0, pos0, pos1)
    assert links1 == {(0, 1), (1, 2)}
    assert checked == [(pos1[0], pos1[2]), (pos1[1], pos1[2])]

    # Agent 1 moves away from 0: the pair is dropped, (1, 2) is re-checked at the new place.
    pos2 = {**pos1, 1: Position(16, 1)}
    links2 = step(links1, pos1, pos2)
    assert links2 == {(1, 2)}
    assert checked == [(pos2[0], pos2[1]), (pos2[1], pos2[2])]

    # Nobody moves (equal, not identical, positions): no check at all.
    pos3 = {a: Position(q.x, q.y) for a, q in pos2.items()}
    assert step(links2, pos2, pos3) == links2
    assert checked == []


def test_update_links_rechecks_a_position_off_the_map():
    grid = empty_grid()
    p = CommParams()
    prev = {0: Position(1, 1), 1: Position(2, 1)}
    links = update_links(set(), {}, prev, grid, p)
    for bad in (Position(math.nan, 1), Position(100, 100), Position(-0.5, 1)):
        with pytest.raises(MapError):
            update_links(links, prev, {**prev, 1: bad}, grid, p)
