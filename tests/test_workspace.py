import heapq
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest

from commplan import workspace
from commplan.meeting import sel_com
from commplan.radio import CommParams
from commplan.workspace import (GridMap, MapError, Position, Unreachable, astar_cells,
                                astar_length, astar_path, astar_travel_time, los_obstacle_length,
                                parse_grid)

from conftest import (dijkstra_oracle, empty_grid, grid_from_rows, los_oracle,
                      random_connected_grid, reference_los)

DATA = Path(__file__).parent / "data"


def format_grid(grid: GridMap) -> str:
    """The map file text that `parse_grid` reads back as `grid`."""
    rows = ["".join("#" if grid.occupancy[r, c] else "." for c in range(grid.width_cells))
            for r in range(grid.height_cells)]
    res = grid.resolution
    res_text = str(int(res)) if float(res).is_integer() else repr(res)
    return "\n".join([f"{grid.width_cells} {grid.height_cells} {res_text}"] + rows) + "\n"


def test_parse_rejects_bad_headers():
    with pytest.raises(MapError):
        parse_grid("")
    with pytest.raises(MapError):
        parse_grid("3 3\n...\n...\n...")
    with pytest.raises(MapError):
        parse_grid("3 3 0\n...\n...\n...")
    with pytest.raises(MapError):
        parse_grid("3 2 1\n...\n..x")
    with pytest.raises(MapError):
        parse_grid("3 2 1\n...\n....")
    # 10^12 cells would be 931 GiB: the short row is refused before any allocation.
    with pytest.raises(MapError, match="line 2: expected 1000000000000 cells, got 1"):
        parse_grid("1000000000000 1 1.0\n.")


def test_parse_rejects_a_map_not_finite_in_metres():
    with pytest.raises(MapError, match="line 1: resolution inf is not finite"):
        parse_grid("3 1 inf\n...")
    # 3 * 1e308 overflows: the map's width would be inf and every x would lie in cell 0.
    with pytest.raises(MapError, match="not finite"):
        parse_grid("3 1 1e308\n...")
    with pytest.raises(MapError, match="not finite"):
        GridMap(np.zeros((1, 3), dtype=bool), math.inf)


def test_parse_trailing_whitespace_and_roundtrip():
    text = "4 3 0.5\n..#.   \n####\n....\n"
    grid = parse_grid(text)
    assert grid.width_cells == 4 and grid.height_cells == 3
    assert grid.resolution == 0.5
    assert not grid.is_free_cell((2, 0))
    assert grid.is_free_cell((0, 0))
    again = parse_grid(format_grid(grid))
    assert (again.occupancy == grid.occupancy).all()
    assert again.resolution == grid.resolution


def test_los_empty_map_is_zero():
    grid = empty_grid()
    assert los_obstacle_length(Position(1, 1), Position(9, 1), grid) == 0.0


def test_los_zero_length_segment():
    grid = empty_grid()
    assert los_obstacle_length(Position(3.3, 4.4), Position(3.3, 4.4), grid) == 0.0


def test_los_single_wall_cell():
    rows = ["..#........."] + ["." * 12] * 11
    grid = grid_from_rows(rows)
    got = los_obstacle_length(Position(0.5, 0.5), Position(5.5, 0.5), grid)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_los_out_of_bounds_raises():
    grid = empty_grid()
    with pytest.raises(MapError):
        los_obstacle_length(Position(-1, 0), Position(1, 1), grid)


def test_los_matches_clipping_oracle_on_random_segments():
    rng = random.Random(1)
    for _ in range(60):
        grid = random_connected_grid(rng, density=0.2)
        w, h = grid.width_m, grid.height_m
        a = Position(rng.uniform(0, w - 1e-6), rng.uniform(0, h - 1e-6))
        b = Position(rng.uniform(0, w - 1e-6), rng.uniform(0, h - 1e-6))
        got = los_obstacle_length(a, b, grid)
        want = los_oracle(a, b, grid)
        assert got == pytest.approx(want, abs=1e-6)


def lattice_coordinate(rng: random.Random, extent: float, res: float) -> float:
    """A coordinate in [0, extent): often on a quarter-cell lattice (grid lines
    included), one ulp beside a grid line, or in the last row or column."""
    kind = rng.randrange(5)
    if kind == 0:
        v = rng.randint(0, round(extent / res) * 4) * res / 4
    elif kind == 1:
        line = rng.randint(0, round(extent / res)) * res
        v = math.nextafter(line, rng.choice((-math.inf, math.inf)))
    elif kind == 2:
        v = rng.uniform(extent - res, extent)
    else:
        v = rng.uniform(0.0, extent)
    return min(max(v, 0.0), math.nextafter(extent, 0.0))


def los_test_grids(rng: random.Random) -> list[GridMap]:
    grids = [parse_grid((DATA / name).read_text()) for name in ("desk.map", "subt.map")]
    for res in (1.0, 0.1, 0.25, 0.3, 0.7):
        for density in (0.0, 0.05, 0.3):
            w, h = rng.randint(1, 12), rng.randint(1, 12)
            grids.append(grid_from_rows(["".join("#" if rng.random() < density else "."
                                                 for _ in range(w)) for _ in range(h)], res))
    return grids


def test_los_equals_the_reference_walk_bit_for_bit():
    """The free-box test and the flat mask change no float: every segment gives
    exactly the value of the cell walk that reads `occupancy` at every step."""
    rng = random.Random(29)
    grids = los_test_grids(rng)
    for _ in range(6000):
        grid = rng.choice(grids)
        res, w, h = grid.resolution, grid.width_m, grid.height_m
        a = Position(lattice_coordinate(rng, w, res), lattice_coordinate(rng, h, res))
        kind = rng.randrange(6)
        if kind == 0:
            b = a
        elif kind == 1:
            b = Position(a.x, lattice_coordinate(rng, h, res))
        elif kind == 2:
            b = Position(lattice_coordinate(rng, w, res), a.y)
        else:
            b = Position(lattice_coordinate(rng, w, res), lattice_coordinate(rng, h, res))
        got = los_obstacle_length(a, b, grid)
        want = reference_los(a, b, grid)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (a, b)


def test_los_through_exact_cell_corners_equals_the_reference_walk():
    """Segments at 45 degrees between cell centers cross grid corners exactly,
    where the walk steps both axes at once."""
    rng = random.Random(43)
    blocked = 0
    for res in (1.0, 0.5):
        rows = ["".join("#" if rng.random() < 0.3 else "." for _ in range(9)) for _ in range(7)]
        grid = grid_from_rows(rows, res)
        for cx, cy in itertools.product(range(9), range(7)):
            a = grid.center((cx, cy))
            for d, sign in itertools.product(range(1, 9 - cx), (1, -1)):
                if 0 <= cy + sign * d < 7:
                    b = grid.center((cx + d, cy + sign * d))
                    got = los_obstacle_length(a, b, grid)
                    assert got == reference_los(a, b, grid), (a, b)
                    blocked += got > 0.0
    assert blocked > 100


def test_los_counts_a_cell_one_past_the_end_cell():
    """From (6.8485..., 6.3) to (7.0, 3.5) at 0.7 m the walk ends in cell (9, 4),
    one row past the end cell (10, 5): rounding puts the crossing of y = 3.5
    before t = 1. That cell is only inside the box padded by one cell."""
    rows = ["." * 15 for _ in range(10)]
    rows[4] = "." * 9 + "#" + "." * 5
    grid = grid_from_rows(rows, 0.7)
    a, b = Position(7.0, 3.5), Position(6.848538917456285, 6.300000000000001)
    got = los_obstacle_length(a, b, grid)
    assert got == reference_los(a, b, grid) and got > 0.0


class RaisingMask:
    def __getitem__(self, index):
        raise AssertionError("the cell walk ran")


def test_los_across_open_floor_does_not_walk():
    rows = ["#" + "." * 10 + "#"] * 6
    grid = grid_from_rows(rows)
    grid._padded = RaisingMask()
    # Columns 1-10 are free; the padded box of cells 2..9 stays inside them.
    assert los_obstacle_length(Position(2.5, 0.5), Position(9.5, 5.5), grid) == 0.0
    with pytest.raises(AssertionError, match="the cell walk ran"):
        los_obstacle_length(Position(1.5, 0.5), Position(9.5, 5.5), grid)


@pytest.mark.parametrize("x, y, message", [
    (math.nan, 1.0, "position (nan, 1.0) is not finite"),
    (1.0, math.inf, "position (1.0, inf) is not finite"),
    (-math.inf, 1.0, "position (-inf, 1.0) is not finite"),
    (-0.5, 1.0, "position (-0.5, 1.0) outside map 12.0 x 10.0 m"),
    (1.0, -1e-300, "position (1.0, -1e-300) outside map 12.0 x 10.0 m"),
    (12.0, 1.0, "position (12.0, 1.0) outside map 12.0 x 10.0 m"),
    (1.0, 10.0, "position (1.0, 10.0) outside map 12.0 x 10.0 m"),
])
def test_require_inside_messages(x, y, message):
    grid = empty_grid(12, 10)
    with pytest.raises(MapError) as info:
        grid.require_inside(Position(x, y))
    assert str(info.value) == message
    grid.require_inside(Position(0.0, math.nextafter(10.0, 0.0)))


def test_los_symmetry_exact():
    rng = random.Random(2)
    grid = random_connected_grid(rng, density=0.25)
    for _ in range(200):
        a = Position(rng.uniform(0, 9.99), rng.uniform(0, 9.99))
        b = Position(rng.uniform(0, 9.99), rng.uniform(0, 9.99))
        assert los_obstacle_length(a, b, grid) == los_obstacle_length(b, a, grid)


def test_travel_time_identity_and_straight_line():
    grid = empty_grid(20, 4)
    p = Position(3.5, 1.5)
    assert astar_travel_time(p, p, grid, 2.0) == 0.0
    assert astar_travel_time(Position(0, 0), Position(10, 0), grid, 2.0) == pytest.approx(5.0)


def test_travel_requires_free_endpoints_and_positive_speed():
    rows = ["#..."] + ["...."] * 3
    grid = grid_from_rows(rows)
    with pytest.raises(MapError):
        astar_travel_time(Position(0.5, 0.5), Position(2.5, 2.5), grid, 1.0)
    with pytest.raises(ValueError):
        astar_travel_time(Position(1.5, 1.5), Position(2.5, 2.5), grid, 0.0)


def test_unreachable_raises():
    rows = [".#.",
            ".#.",
            ".#."]
    grid = grid_from_rows(rows)
    with pytest.raises(Unreachable):
        astar_travel_time(Position(0.5, 1.5), Position(2.5, 1.5), grid, 1.0)


def tuple_astar_search(grid, s, g):
    """`workspace._astar_search` as it was before its flat arrays: cells are
    tuples, g-scores and parents live in dicts, and the map is the occupancy
    array."""
    res = grid.resolution
    occ = grid.occupancy
    w, h = grid.width_cells, grid.height_cells
    step_of = {offset: k for k, offset in enumerate(workspace._NEIGHBORS)}
    g_score = {s: 0.0}
    parent = {}
    open_heap = [(workspace._octile(s, g, res), s)]
    closed = set()
    while open_heap:
        f, cur = heapq.heappop(open_heap)
        if cur in closed:
            continue
        if cur == g:
            steps = bytearray()
            while cur in parent:
                prev = parent[cur]
                steps.append(step_of[cur[0] - prev[0], cur[1] - prev[1]])
                cur = prev
            steps.reverse()
            return g_score[g], bytes(steps)
        closed.add(cur)
        cx, cy = cur
        base = g_score[cur]
        for ox, oy in workspace._NEIGHBORS:
            nx, ny = cx + ox, cy + oy
            if not (0 <= nx < w and 0 <= ny < h) or occ[ny, nx]:
                continue
            if ox != 0 and oy != 0 and (occ[cy, nx] or occ[ny, cx]):
                continue
            cost = base + (workspace.SQRT2 * res if ox != 0 and oy != 0 else res)
            nxt = (nx, ny)
            if cost < g_score.get(nxt, math.inf):
                g_score[nxt] = cost
                parent[nxt] = cur
                heapq.heappush(open_heap, (cost + workspace._octile(nxt, g, res), nxt))
    return None


def test_astar_search_equals_the_tuple_search():
    """The flat-array search gives the tuple search's length and steps, bit for
    bit, in both orders, on the shipped maps and on random ones that are often
    split (unreachable goals give None in both)."""
    rng = random.Random(31)
    grids = [parse_grid((DATA / name).read_text()) for name in ("desk.map", "subt.map")]
    for res in (1.0, 0.3, 0.7):
        for density in (0.1, 0.3, 0.45):
            w, h = rng.randint(1, 14), rng.randint(1, 14)
            grids.append(grid_from_rows(["".join("#" if rng.random() < density else "."
                                                 for _ in range(w)) for _ in range(h)], res))
    outcomes = set()
    for grid in grids:
        free = grid.free_cells()
        if not free:
            continue
        for _ in range(60):
            a, b = rng.choice(free), rng.choice(free)
            for s, g in ((a, b), (b, a)):
                want = tuple_astar_search(grid, s, g)
                assert workspace._astar_search(grid, s, g) == want, (s, g)
                outcomes.add(want is None)
    assert outcomes == {True, False}


def test_the_padded_grid_is_the_occupancy_x_major_with_a_wall_round_it():
    rows = ["..#.", "#...", "...#"]  # not square, so a transposed layout fails
    grid = grid_from_rows(rows, 0.5)
    w, h = len(rows[0]), len(rows)
    assert len(grid._padded) == (w + 2) * (h + 2)
    for x in range(-1, w + 1):
        for y in range(-1, h + 1):
            occupied = rows[y][x] == "#" if 0 <= x < w and 0 <= y < h else True
            assert grid._padded[(x + 1) * (h + 2) + y + 1] == occupied, (x, y)


def test_the_summed_area_table_counts_the_occupied_cells_below_and_left():
    rng = random.Random(29)
    for w, h in ((1, 1), (1, 6), (6, 1), (5, 9), (12, 4)):
        for density in (0.0, 0.3, 0.7, 1.0):
            rows = ["".join("#" if rng.random() < density else "." for _ in range(w))
                    for _ in range(h)]
            sat = grid_from_rows(rows)._sat
            assert len(sat) == (h + 1) * (w + 1) and all(type(n) is int for n in sat)
            for y in range(h + 1):
                for x in range(w + 1):
                    count = sum(row[:x].count("#") for row in rows[:y])
                    assert sat[y * (w + 1) + x] == count, (rows, x, y)


@pytest.mark.parametrize("name", ["desk.map", "subt.map"])
def test_is_free_cell_reads_the_occupancy_and_nothing_off_the_grid(name):
    grid = parse_grid((DATA / name).read_text())
    w, h = grid.width_cells, grid.height_cells
    for cx in range(w):
        for cy in range(h):
            assert grid.is_free_cell((cx, cy)) == (not grid.occupancy[cy, cx]), (cx, cy)
    off = [(-1, 0), (0, -1), (w, 0), (0, h), (-1, -1), (w, h), (-2, 3), (3, h + 5), (w + 7, 1)]
    assert not any(grid.is_free_cell(cell) for cell in off)


def test_u_shaped_detour_matches_dijkstra():
    rows = ["........",
            ".######.",
            ".#....#.",
            ".#.##.#.",
            ".#.##.#.",
            "...##...",
            "...##...",
            "........"]
    grid = grid_from_rows(rows)
    a, b = (2, 5), (5, 5)
    want = dijkstra_oracle(grid, a, b)
    got = astar_length(grid.center(a), grid.center(b), grid)
    assert got == pytest.approx(want, abs=1e-9)


def test_astar_matches_dijkstra_on_random_maps():
    rng = random.Random(3)
    for _ in range(40):
        grid = random_connected_grid(rng, density=0.25)
        free = grid.free_cells()
        a, b = rng.sample(free, 2)
        want = dijkstra_oracle(grid, a, b)
        got = astar_length(grid.center(a), grid.center(b), grid)
        assert got == pytest.approx(want, abs=1e-9)


def test_admissibility_and_symmetry():
    rng = random.Random(4)
    grid = random_connected_grid(rng, width=15, height=15, density=0.2)
    free = grid.free_cells()
    for _ in range(300):
        ca, cb = rng.choice(free), rng.choice(free)
        a = grid.center(ca)
        b = grid.center(cb)
        t_ab = astar_travel_time(a, b, grid, 2.0)
        t_ba = astar_travel_time(b, a, grid, 2.0)
        assert t_ab == t_ba
        assert t_ab >= a.dist(b) / 2.0 - 1e-12


def test_monotonicity_under_added_obstacles():
    rng = random.Random(5)
    for _ in range(25):
        grid = random_connected_grid(rng, density=0.1)
        free = grid.free_cells()
        a, b = rng.sample(free, 2)
        base_t = astar_length(grid.center(a), grid.center(b), grid)
        base_l = los_obstacle_length(grid.center(a), grid.center(b), grid)
        occ = grid.occupancy.copy()
        blocked = [c for c in free if c not in (a, b)]
        for c in rng.sample(blocked, min(6, len(blocked))):
            occ[c[1], c[0]] = True
        denser = GridMap(occ, grid.resolution)
        try:
            new_t = astar_length(denser.center(a), denser.center(b), denser)
        except Unreachable:
            new_t = math.inf
        new_l = los_obstacle_length(denser.center(a), denser.center(b), denser)
        assert new_t >= base_t - 1e-9
        assert new_l >= base_l - 1e-9


def test_astar_path_endpoints_are_cell_centers():
    grid = empty_grid()
    path = astar_path(Position(0.2, 0.7), Position(5.8, 3.1), grid)
    assert path[0] == grid.center((0, 0))
    assert path[-1] == grid.center((5, 3))
    for p, q in zip(path, path[1:]):
        assert p.dist(q) <= grid.resolution * math.sqrt(2) + 1e-9


def test_a_path_from_an_occupied_cell_is_refused_even_to_itself():
    grid = grid_from_rows(["...", ".#.", "..."])
    wall, free = Position(1.5, 1.5), Position(0.5, 0.5)
    for a, b in ((wall, wall), (wall, free), (free, wall)):
        for query in (astar_length, astar_path):
            with pytest.raises(MapError):
                query(a, b, grid)
    with pytest.raises(MapError):
        astar_cells(grid, (1, 1), (1, 1))
    assert astar_path(free, free, grid) == (free,) and astar_length(free, free, grid) == 0.0


def test_memoized_queries_match_the_plain_functions():
    rng = random.Random(6)
    grid = random_connected_grid(rng, density=0.2)
    free = grid.free_cells()
    for _ in range(60):
        a, b = (Position(cx + rng.random(), cy + rng.random()) for cx, cy in rng.sample(free, 2))
        for p, q in ((a, b), (b, a), (a, b)):  # the repeat is served from the memo
            assert astar_length(p, q, grid) == astar_length.__wrapped__(p, q, grid)


def test_astar_path_keeps_only_the_cell_search_in_the_memo():
    """astar_path stores nothing of its own: both orders of a position pair
    read the one astar_cells entry, and the reverse path is the forward one
    reversed."""
    grid = random_connected_grid(random.Random(8), density=0.2)
    (ax, ay), (bx, by) = grid.free_cells()[0], grid.free_cells()[-1]
    a, b = Position(ax + 0.3, ay + 0.6), Position(bx + 0.7, by + 0.2)
    forward = astar_path(a, b, grid)
    assert list(grid._memo) == [(astar_cells, (ax, ay), (bx, by))]
    assert astar_path(b, a, grid) == forward[::-1]
    assert astar_path(a, b, grid) == forward
    assert len(grid._memo) == 1


def test_los_leaves_the_memo_empty():
    rng = random.Random(6)
    grid = random_connected_grid(rng, density=0.2)
    free = grid.free_cells()
    for _ in range(60):
        a, b = (Position(cx + rng.random(), cy + rng.random()) for cx, cy in rng.sample(free, 2))
        los_obstacle_length(a, b, grid)
        los_obstacle_length(b, a, grid)
    assert grid._memo == {}


def test_astar_cells_searches_each_unordered_cell_pair_once(monkeypatch):
    """Both orders of a cell pair read one search, run from the smaller cell:
    the same length and the reversed cells, and a repeat in either order
    searches no more."""
    search = workspace._astar_search
    searched = []

    def counting(grid, s, g):
        searched.append((s, g))
        return search(grid, s, g)

    monkeypatch.setattr(workspace, "_astar_search", counting)
    rng = random.Random(8)
    grid = random_connected_grid(rng, density=0.2)
    free = grid.free_cells()
    pairs = set()
    for _ in range(40):
        a, b = rng.sample(free, 2)  # either cell may be the smaller
        first = workspace.astar_cells(grid, a, b)
        assert first[1][0] == a and first[1][-1] == b
        assert all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1
                   for p, q in zip(first[1], first[1][1:]))
        assert first[0] == pytest.approx(dijkstra_oracle(grid, a, b), abs=1e-9)
        for start, goal in ((b, a), (a, b)):
            length, cells = workspace.astar_cells(grid, start, goal)
            assert length == first[0]
            assert cells == (first[1] if start == a else first[1][::-1])
        pairs.add((min(a, b), max(a, b)))
    assert sorted(searched) == sorted(pairs)


def test_memo_serves_a_zero_result():
    grid = grid_from_rows(["..#........."] + ["." * 12] * 11)
    a, b = Position(0.5, 0.5), Position(5.5, 0.5)
    grid._memo[(astar_length.__wrapped__, a.x, a.y, b.x, b.y)] = 0.0
    assert astar_length(a, b, grid) == 0.0  # the detour round the wall is 5.83


def test_memo_stays_within_its_limit(monkeypatch):
    monkeypatch.setattr(workspace, "MEMO_LIMIT", 8)
    rng = random.Random(7)
    grid = random_connected_grid(rng, density=0.2)
    free = grid.free_cells()
    sizes = []
    for _ in range(40):
        a, b = (grid.center(c) for c in rng.sample(free, 2))
        astar_length(a, b, grid)
        sizes.append(len(grid._memo))
    assert max(sizes) == 8
    assert min(sizes[sizes.index(8):]) < 8  # cleared, then filled again


@pytest.mark.parametrize("limit", [1, 2, 5])
def test_a_full_memo_is_cleared_without_changing_an_answer(monkeypatch, limit):
    """With MEMO_LIMIT small, astar_cells and the memoized queries each clear
    the map's one memo when it is full: it never holds more than the limit,
    and astar_length and sel_com answer as on a map with an empty memo."""
    monkeypatch.setattr(workspace, "MEMO_LIMIT", limit)
    grid = random_connected_grid(random.Random(9), density=0.2)
    fresh = random_connected_grid(random.Random(9), density=0.2)
    params = CommParams()
    rng = random.Random(10)
    free = grid.free_cells()
    for _ in range(40):
        a, b = (Position(cx + rng.random(), cy + rng.random()) for cx, cy in rng.sample(free, 2))
        for query, rest in ((astar_length, ()), (sel_com, (params,))):
            got = query(a, b, grid, *rest)
            assert len(grid._memo) <= limit
            fresh._memo.clear()
            assert got == query(a, b, fresh, *rest)


def test_memo_does_not_store_exceptions():
    grid = empty_grid()
    with pytest.raises(MapError):
        astar_length(Position(-1, 0), Position(1, 1), grid)
    assert grid._memo == {}
