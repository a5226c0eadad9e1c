"""Wireless quality model and the induced communication graph.

Link quality follows a log-distance path-loss model with an additive
per-meter penalty for obstacles crossed by the line of sight. An edge
exists between two agents iff their quality strictly exceeds the
configured threshold.
"""

from __future__ import annotations

import math
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
    the threshold in free space is refused without tracing the line of sight.
    """
    grid.require_inside(p_i)
    grid.require_inside(p_j)
    free = _free_space(p_i, p_j, params)
    if free <= params.threshold:
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
