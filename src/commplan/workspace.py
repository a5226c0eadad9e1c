"""Occupancy-grid workspace: geometry queries and grid travel times.

The map is a 2D grid of square cells with a metric resolution. Row 0 of the
map file covers y in [0, resolution); column 0 covers x in [0, resolution).
All travel happens on an 8-connected cell graph with no corner cutting;
diagonal steps cost sqrt(2) * resolution.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

SQRT2 = math.sqrt(2.0)
MEMO_LIMIT = 1 << 16  # entries in one map's memo before it is cleared


class MapError(ValueError):
    """Raised for malformed map files or out-of-domain positions."""


class Unreachable(RuntimeError):
    """Raised when no grid path exists between two free cells."""


@dataclass(frozen=True)
class Position:
    x: float
    y: float

    def dist(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


class GridMap:
    """Immutable occupancy grid. `_memo` holds the results of the pure
    queries decorated with `memoized` (`astar_length` and `meeting.sel_com`)
    and the searches of `astar_cells`; it only changes by adding entries or
    by being cleared whole, so no read sees a stale value.
    `los_obstacle_length` is not memoized: its endpoints rarely repeat, and
    its summed-area box test answers most calls in O(1). Nor is `astar_path`:
    its search is kept as `astar_cells`' entry, so a repeated position pair
    would save only the cell-to-waypoint conversion.

    The per-cell kernels (A*, the line-of-sight walk and `is_free_cell`)
    read one byte layout, `_padded`: the grid with a border of occupied
    cells, x-major, 1 where a cell is occupied, cell (cx, cy) at
    `(cx + 1) * (height_cells + 2) + cy + 1`. The border makes every
    neighbor of a grid cell an index, so A* needs no bounds check, and
    x-major ids order as `(cx, cy)` tuples do, so heap ties break as they
    would on the tuples. `_sat` is the summed-area table of the occupancy:
    `(height_cells + 1) * (width_cells + 1)` counts, row-major with a zero
    first row and column, where entry `y * (width_cells + 1) + x` counts the
    occupied cells with `cx < x` and `cy < y`."""

    def __init__(self, occupancy: np.ndarray, resolution: float):
        occ = np.asarray(occupancy, dtype=bool)
        if occ.ndim != 2 or occ.shape[0] < 1 or occ.shape[1] < 1:
            raise MapError("occupancy must be a non-empty 2D array")
        if not (resolution > 0):
            raise MapError("resolution must be > 0")
        self._occ = occ
        self._occ.setflags(write=False)
        self.resolution = float(resolution)
        self.height_cells, self.width_cells = occ.shape
        self.width_m = self.width_cells * self.resolution
        self.height_m = self.height_cells * self.resolution
        if not (math.isfinite(self.width_m) and math.isfinite(self.height_m)):
            raise MapError(f"resolution {self.resolution} gives a map of "
                           f"{self.width_m} x {self.height_m} m, which is not finite")
        self._sat = np.pad(occ.cumsum(0).cumsum(1), ((1, 0), (1, 0))).ravel().tolist()
        self._padded = np.pad(occ.T, 1, constant_values=True).tobytes()
        self._memo: dict[tuple, object] = {}

    @property
    def occupancy(self) -> np.ndarray:
        return self._occ

    def contains(self, p: Position) -> bool:
        return 0.0 <= p.x < self.width_m and 0.0 <= p.y < self.height_m

    def require_inside(self, p: Position) -> None:
        # One comparison on the common path; it is False for NaN and +-inf too.
        if 0.0 <= p.x < self.width_m and 0.0 <= p.y < self.height_m:
            return
        if not (math.isfinite(p.x) and math.isfinite(p.y)):
            raise MapError(f"position ({p.x}, {p.y}) is not finite")
        raise MapError(f"position ({p.x}, {p.y}) outside map {self.width_m} x {self.height_m} m")

    def cell_at(self, p: Position) -> tuple[int, int]:
        self.require_inside(p)
        cx = min(int(p.x / self.resolution), self.width_cells - 1)
        cy = min(int(p.y / self.resolution), self.height_cells - 1)
        return cx, cy

    def center(self, cell: tuple[int, int]) -> Position:
        cx, cy = cell
        return Position((cx + 0.5) * self.resolution, (cy + 0.5) * self.resolution)

    def is_free_cell(self, cell: tuple[int, int]) -> bool:
        cx, cy = cell
        if not (0 <= cx < self.width_cells and 0 <= cy < self.height_cells):
            return False
        return not self._padded[(cx + 1) * (self.height_cells + 2) + cy + 1]

    def is_free(self, p: Position) -> bool:
        return self.is_free_cell(self.cell_at(p))

    def free_cells(self) -> list[tuple[int, int]]:
        ys, xs = np.nonzero(~self._occ)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]

    def snap(self, p: Position) -> Position:
        """Center of the cell containing p."""
        return self.center(self.cell_at(p))


def parse_grid(text: str) -> GridMap:
    """Parse the plain-text map format.

    First line: "width height resolution". Then `height` rows of '.' (free)
    and '#' (occupied). Trailing whitespace on any line is ignored.
    """
    lines = text.splitlines()
    if not lines:
        raise MapError("empty map file")
    header = lines[0].split()
    if len(header) != 3:
        raise MapError(f"line 1: expected 'width height resolution', got {lines[0]!r}")
    try:
        width, height = int(header[0]), int(header[1])
        resolution = float(header[2])
    except ValueError as exc:
        raise MapError(f"line 1: bad header values: {exc}") from exc
    if width < 1 or height < 1 or not resolution > 0:
        raise MapError("line 1: width/height must be >= 1 and resolution > 0")
    if not math.isfinite(resolution):
        raise MapError(f"line 1: resolution {resolution} is not finite")
    rows = [line.rstrip() for line in lines[1:] if line.rstrip() != ""]
    if len(rows) != height:
        raise MapError(f"expected {height} map rows, found {len(rows)}")
    for r, row in enumerate(rows):  # before allocating: the header may claim any size
        if len(row) != width:
            raise MapError(f"line {r + 2}: expected {width} cells, got {len(row)}")
        bad = next((ch for ch in row if ch not in ".#"), None)
        if bad is not None:
            raise MapError(f"line {r + 2}: invalid cell character {bad!r}")
    return GridMap(np.array([[ch == "#" for ch in row] for row in rows], dtype=bool), resolution)


def load_grid(path) -> GridMap:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_grid(fh.read())


def memoized(fn):
    """Memoize a pure query `fn(a, b, grid, *rest)` in `grid._memo`.

    Keys are `(fn, a.x, a.y, b.x, b.y, *rest)`, so one dict per map serves
    every decorated query (`astar_length` and `meeting.sel_com`). Float
    coordinates hash and compare as the `Position` pair does (`-0.0 == 0.0`
    included), without running the dataclass `__hash__` on every lookup. The dict is cleared when it reaches
    MEMO_LIMIT entries. Raised exceptions are not stored; results must never
    be None.
    """
    @functools.wraps(fn)
    def wrapper(a, b, grid, *rest):
        memo = grid._memo
        key = (fn, a.x, a.y, b.x, b.y, *rest)
        result = memo.get(key)
        if result is None:
            result = fn(a, b, grid, *rest)
            if len(memo) >= MEMO_LIMIT:
                memo.clear()
            memo[key] = result
        return result
    return wrapper


def los_obstacle_length(a: Position, b: Position, grid: GridMap) -> float:
    """Total length of the straight segment a-b that lies inside occupied cells.

    Traverses the cells crossed by the segment (the voxel traversal of
    Amanatides and Woo) and accumulates the clipped length inside each
    occupied one. Endpoints are canonically ordered so the result is exactly
    symmetric in (a, b).
    """
    grid.require_inside(a)
    grid.require_inside(b)
    if (b.x, b.y) < (a.x, a.y):
        a, b = b, a
    dx = b.x - a.x
    dy = b.y - a.y
    seg_len = math.hypot(dx, dy)
    if seg_len == 0.0:
        return 0.0

    res = grid.resolution
    w, h = grid.width_cells, grid.height_cells
    cx = min(int(a.x / res), w - 1)
    cy = min(int(a.y / res), h - 1)
    end_cx = min(int(b.x / res), w - 1)
    end_cy = min(int(b.y / res), h - 1)

    # Free-box test. The walk below starts in (cx, cy) and steps each axis
    # only toward the end cell, so it visits only cells in the box of the two
    # endpoint cells. Float rounding near a grid line through an endpoint can
    # carry it one cell past the end cell on each axis, but no further; hence
    # the box is padded by one cell on each side (clamped to the grid). If
    # every cell of that box is free, `total` stays 0.0 and the walk would
    # return max(0.0, 0.0) == 0.0, so the answer is returned without walking.
    # The box's occupied count is four summed-area lookups; x1 and y1 are
    # exclusive, and a.x <= b.x after the swap above, so cx <= end_cx.
    x0, x1 = max(cx - 1, 0), min(end_cx + 2, w)
    y0, y1 = (cy, end_cy) if cy <= end_cy else (end_cy, cy)
    y0, y1 = max(y0 - 1, 0), min(y1 + 2, h)
    sat, top, bottom = grid._sat, y0 * (w + 1), y1 * (w + 1)
    if sat[bottom + x1] - sat[top + x1] - sat[bottom + x0] + sat[top + x0] == 0:
        return 0.0
    blocked, stride = grid._padded, h + 2

    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    # Parametric distance (in t of a + t*(b-a)) to the next vertical/horizontal
    # grid line, and per-cell increments.
    if dx != 0:
        next_vx = (cx + (1 if dx > 0 else 0)) * res
        t_max_x = (next_vx - a.x) / dx
        t_delta_x = res / abs(dx)
    else:
        t_max_x = math.inf
        t_delta_x = math.inf
    if dy != 0:
        next_vy = (cy + (1 if dy > 0 else 0)) * res
        t_max_y = (next_vy - a.y) / dy
        t_delta_y = res / abs(dy)
    else:
        t_max_y = math.inf
        t_delta_y = math.inf

    # Only the first cell's share can be negative (when rounding puts a.x or
    # a.y a hair past its cell's near edge), hence the max on return.
    idx, end_idx = (cx + 1) * stride + cy + 1, (end_cx + 1) * stride + end_cy + 1
    step_col = step_x * stride
    total = 0.0
    t = 0.0
    while True:
        x_first = t_max_x <= t_max_y
        t_next = t_max_x if x_first else t_max_y
        if t_next > 1.0:
            t_next = 1.0
        if blocked[idx]:
            total += (t_next - t) * seg_len
        # Both cells lie on the grid, so equal indices mean equal cells.
        if t_next >= 1.0 or idx == end_idx:
            break
        t = t_next
        if x_first:
            if t_max_x == t_max_y:
                # Exact corner crossing: step both axes at once.
                cy += step_y
                idx += step_y
                t_max_y += t_delta_y
            cx += step_x
            idx += step_col
            t_max_x += t_delta_x
        else:
            cy += step_y
            idx += step_y
            t_max_y += t_delta_y
        if not (0 <= cx < w and 0 <= cy < h):
            break
    return max(total, 0.0)


_NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _octile(a: tuple[int, int], b: tuple[int, int], res: float) -> float:
    ax = abs(a[0] - b[0])
    ay = abs(a[1] - b[1])
    lo, hi = (ax, ay) if ax < ay else (ay, ax)
    return (hi - lo) * res + lo * SQRT2 * res


def astar_cells(grid: GridMap, start: tuple[int, int], goal: tuple[int, int]) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Shortest 8-connected path between cell centers; (length_m, cells).

    Diagonal moves are blocked when either adjacent orthogonal cell is
    occupied (no corner cutting). One search per unordered cell pair: it runs
    from the smaller cell to the larger one and is kept in `grid._memo` as its
    length and one byte per step, so lengths are exactly symmetric; the path
    is reversed when start is the larger cell.
    """
    s, g = (start, goal) if start <= goal else (goal, start)
    memo = grid._memo
    key = (astar_cells, s, g)
    result = memo.get(key)
    if result is None:
        if not grid.is_free_cell(start) or not grid.is_free_cell(goal):
            raise MapError(f"cell {start if not grid.is_free_cell(start) else goal} is occupied or out of bounds")
        if start == goal:
            return 0.0, (start,)
        result = _astar_search(grid, s, g)
        if result is None:
            raise Unreachable(f"no path between cells {start} and {goal}")
        if len(memo) >= MEMO_LIMIT:
            memo.clear()
        memo[key] = result
    length, steps = result
    x, y = s
    cells = [s]
    for step in steps:
        ox, oy = _NEIGHBORS[step]
        x, y = x + ox, y + oy
        cells.append((x, y))
    if s != start:
        cells.reverse()
    return length, tuple(cells)


def _astar_search(grid: GridMap, s: tuple[int, int],
                  g: tuple[int, int]) -> Optional[tuple[float, bytes]]:
    """A* between free cells; (length_m, the path from s to g as `_NEIGHBORS`
    indices), None when g is unreachable.

    Cells are ids into `grid._padded`, whose border of occupied cells makes a
    bounds check needless. An id orders as its cell tuple does, so heap ties
    break, and every path comes out, as they would on the tuples themselves."""
    res = grid.resolution
    diag = SQRT2 * res
    blocked = grid._padded
    stride = grid.height_cells + 2
    moves = [(ox * stride + oy, ox * stride, oy, ox) for ox, oy in _NEIGHBORS]
    gx, gy = g[0] + 1, g[1] + 1  # padded coordinates: their differences are the cells'
    start = (s[0] + 1) * stride + s[1] + 1
    goal = gx * stride + gy
    g_score = [math.inf] * len(blocked)
    parent = [-1] * len(blocked)
    closed = bytearray(len(blocked))
    g_score[start] = 0.0
    open_heap: list[tuple[float, int]] = [(_octile(s, g, res), start)]
    while open_heap:
        f, cur = heapq.heappop(open_heap)
        if closed[cur]:
            continue
        if cur == goal:
            step_of = {move[0]: k for k, move in enumerate(moves)}
            steps = bytearray()
            while cur != start:
                prev = parent[cur]
                steps.append(step_of[cur - prev])
                cur = prev
            steps.reverse()
            return g_score[goal], bytes(steps)
        closed[cur] = 1
        cx, cy = divmod(cur, stride)
        base = g_score[cur]
        for delta, x_step, oy, ox in moves:
            nxt = cur + delta
            if blocked[nxt]:
                continue
            if x_step and oy:  # no corner cutting: both cells beside a diagonal are free
                if blocked[cur + x_step] or blocked[cur + oy]:
                    continue
                cost = base + diag
            else:
                cost = base + res
            if cost < g_score[nxt]:
                g_score[nxt] = cost
                parent[nxt] = cur
                # _octile of the neighbor and g, in the same float operations.
                ax, ay = abs(cx + ox - gx), abs(cy + oy - gy)
                lo, hi = (ax, ay) if ax < ay else (ay, ax)
                heapq.heappush(open_heap, (cost + ((hi - lo) * res + lo * SQRT2 * res), nxt))
    return None


def astar_path(a: Position, b: Position, grid: GridMap) -> tuple[Position, ...]:
    """Cell-center waypoints from the cell of a to the cell of b."""
    _, cells = astar_cells(grid, grid.cell_at(a), grid.cell_at(b))
    return tuple(grid.center(c) for c in cells)


# A position-keyed entry beside astar_cells' cell-pair one: a hit skips the two cell_at calls.
@memoized
def astar_length(a: Position, b: Position, grid: GridMap) -> float:
    """Metric length of the shortest grid path between the cells of a and b,
    never below the euclidean distance between a and b themselves."""
    length, _ = astar_cells(grid, grid.cell_at(a), grid.cell_at(b))
    return max(length, a.dist(b))


def astar_travel_time(a: Position, b: Position, grid: GridMap, v_max: float) -> float:
    """Travel time along the shortest grid path at constant v_max."""
    if not v_max > 0:
        raise ValueError("v_max must be > 0")
    return astar_length(a, b, grid) / v_max
