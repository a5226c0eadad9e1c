"""Wireless quality model and the induced communication graph.

Link quality follows a log-distance path-loss model with an additive
per-meter penalty for obstacles crossed by the line of sight. An edge
exists between two agents iff their quality strictly exceeds the
configured threshold. `linked` decides that as `quality` does, but refuses a
pair beyond the free-space reach on its squared distance and a pair at or
below the threshold in free space without tracing the line of sight.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .workspace import GridMap, Position, los_obstacle_length


@dataclass(frozen=True)
class CommParams:
    tx_power: float = 20.0      # dB
    pl_ref: float = 40.0        # dB path loss at the reference distance
    ref_dist: float = 1.0       # m
    path_exponent: float = 2.0
    attenuation: float = 5.0    # dB per meter of obstacle
    threshold: float = -40.0    # dB, strict lower bound for a link

    def __post_init__(self):
        if not self.ref_dist > 0:
            raise ValueError("ref_dist must be > 0")
        if not self.path_exponent > 0:
            raise ValueError("path_exponent must be > 0")
        if self.attenuation < 0:
            raise ValueError("attenuation must be >= 0")
        # Not a field: scenario.COMM builds its rows from fields(CommParams).
        object.__setattr__(self, "_reach_sq", _squared_reach(self))


# Relative slack on the squared reach. A squared distance summed in floats is
# within 2 ulp of the exact one and math.hypot within 1 ulp of its root, so a
# pair whose float square exceeds reach**2 * (1 + 2**-48) (and the least
# normal float, below which squares lose their relative precision) measures at
# least `reach` in `_free_space`, whose quality never rises with distance.
_REACH_SLACK = 1.0 + 2.0 ** -48
_NUDGES = 128


def _squared_reach(params: CommParams) -> float:
    """Squared distance beyond which `_free_space` is at most the threshold.

    The closed form is checked against `_free_space` itself and raised, by a
    step that starts at one ulp and doubles, until it holds there, so
    `linked` may refuse any pair farther away without taking the logarithm.
    A reach that overflows, or that `_NUDGES` steps do not make hold, is inf
    and refuses nothing.
    """
    try:
        reach = params.ref_dist * 10.0 ** ((params.tx_power - params.pl_ref - params.threshold)
                                           / (10.0 * params.path_exponent))
    except OverflowError:
        return math.inf
    if not reach < math.inf:  # inf, or nan from a nan parameter
        return math.inf
    origin = Position(0.0, 0.0)
    step = math.ulp(reach)
    for _ in range(_NUDGES):
        if not _free_space(origin, Position(reach, 0.0), params) > params.threshold:
            return max(reach * reach * _REACH_SLACK, sys.float_info.min)
        reach += step
        step += step
    return math.inf


def _free_space(p_i: Position, p_j: Position, params: CommParams) -> float:
    """Quality in dB before the obstacle penalty.

    Distances below ref_dist/10 are clamped to ref_dist/10 so coincident
    agents get a finite (high) quality instead of a log singularity.
    """
    d = max(p_i.dist(p_j), params.ref_dist / 10.0)
    path_loss = params.pl_ref + 10.0 * params.path_exponent * math.log10(d / params.ref_dist)
    return params.tx_power - path_loss


def quality(p_i: Position, p_j: Position, grid: GridMap, params: CommParams) -> float:
    """Received quality in dB between two positions."""
    grid.require_inside(p_i)
    grid.require_inside(p_j)
    return _free_space(p_i, p_j, params) - params.attenuation * los_obstacle_length(p_i, p_j, grid)


def linked(p_i: Position, p_j: Position, grid: GridMap, params: CommParams) -> bool:
    """True iff quality(p_i, p_j) strictly exceeds the threshold.

    The obstacle penalty is never negative, so a pair already at or below
    the threshold in free space is refused without tracing the line of
    sight, and a pair beyond the free-space reach without the logarithm.
    """
    grid.require_inside(p_i)
    grid.require_inside(p_j)
    dx = p_i.x - p_j.x
    dy = p_i.y - p_j.y
    if dx * dx + dy * dy > params._reach_sq:
        return False
    free = _free_space(p_i, p_j, params)
    if not free > params.threshold:  # a nan quality or threshold links nothing
        return False
    return free - params.attenuation * los_obstacle_length(p_i, p_j, grid) > params.threshold


def update_links(prev_links: set[tuple[int, int]], moved: Sequence[int],
                 pos: Mapping[int, Position], grid: GridMap,
                 params: CommParams) -> set[tuple[int, int]]:
    """Linked pairs (i, j), i < j, among the agents of `pos`, as a new set.

    `prev_links` must be the result for the same agents before the agents in
    `moved` (ascending ids) moved to `pos`. A link depends only on its two
    positions, so a pair with no end in `moved` keeps its old result, and
    only pairs with a moved end call `linked`, in ascending (i, j) order: a
    moved id against every higher id, an unmoved id against the higher moved
    ids. With every id in `moved`, every pair is checked.
    """
    ids = sorted(pos)
    still = set(ids).difference(moved)
    links = {pair for pair in prev_links if pair[0] in still and pair[1] in still}
    for k, a in enumerate(ids):
        others = moved[bisect_right(moved, a):] if a in still else ids[k + 1:]
        for b in others:
            if linked(pos[a], pos[b], grid, params):
                links.add((a, b))
    return links


@dataclass(frozen=True)
class CommGraph:
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # pairs stored as (min_id, max_id)


def comm_graph(positions: Mapping[int, Position], grid: GridMap,
               params: CommParams) -> CommGraph:
    """Graph over agent ids with an edge wherever quality > threshold."""
    ids = sorted(positions)
    return CommGraph(nodes=tuple(ids),
                     edges=frozenset(update_links(set(), ids, positions, grid, params)))


def is_connected(g: CommGraph) -> bool:
    """BFS reachability over the whole node set."""
    if not g.nodes:
        raise ValueError("graph has no nodes")
    adj: dict[int, list[int]] = {n: [] for n in g.nodes}
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {g.nodes[0]}
    frontier = [g.nodes[0]]
    while frontier:
        nxt = []
        for n in frontier:
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    nxt.append(m)
        frontier = nxt
    return len(seen) == len(g.nodes)
