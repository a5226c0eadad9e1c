"""Rendezvous optimization: when and where the team re-establishes connectivity.

The optimizer minimizes the worst-case wait between each agent's last task
and the synchronized meeting. Candidate events are built by chaining: agents
are placed one at a time, each stopping at the earliest point on its path
that holds a link to an already-placed agent, so the meeting graph is
connected by construction. The anchor of the chain starts at the latest
finisher's position and is then scanned along the path toward the arrival
bottleneck; the best event found is returned and is never worse than
gathering everyone at the latest finisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .radio import CommParams, comm_graph, is_connected, linked
from .workspace import GridMap, Position, Unreachable, astar_length, astar_path, memoized

DEFAULT_GAP = 0.5       # s, convergence tolerance on successive event times
MAX_ANCHOR_CANDIDATES = 24


class MeetingInfeasible(RuntimeError):
    """Agents cannot reach a common connected configuration."""


@dataclass(frozen=True)
class AgentFinish:
    agent_id: int
    time: float
    position: Position
    v_max: float


@dataclass
class LastTaskState:
    finishes: dict[int, AgentFinish]

    def __post_init__(self):
        if not self.finishes:
            raise ValueError("at least one agent required")

    def ids(self) -> list[int]:
        return sorted(self.finishes)

    def latest(self) -> AgentFinish:
        return max(self.finishes.values(), key=lambda f: (f.time, -f.agent_id))


@dataclass(frozen=True)
class CommEvent:
    time: float
    positions: dict[int, Position]


@memoized
def sel_com(p_from: Position, p_to: Position, grid: GridMap, params: CommParams) -> Position:
    """Earliest point along the path from p_from toward p_to with a link to p_to.

    Walks the grid path and returns the first position whose quality to p_to
    strictly exceeds the threshold; p_to itself always qualifies through the
    coincidence clamp, so the walk cannot fail. Memoized on the map since the
    same endpoints recur heavily during bound evaluation.
    """
    if linked(p_from, p_to, grid, params):
        return p_from
    for waypoint in astar_path(p_from, p_to, grid):
        if linked(waypoint, p_to, grid, params):
            return waypoint
    return p_to


def _arrival(fin: AgentFinish, target: Position, grid: GridMap) -> float:
    return fin.time + astar_length(fin.position, target, grid) / fin.v_max


def chain_event(last: LastTaskState, anchor: Position, grid: GridMap, params: CommParams,
                 resident: Optional[int] = None, deadline: Optional[float] = None) -> Optional[CommEvent]:
    """Build a connected meeting by placing agents in earliest-arrival order.

    The first placed agent (or the forced resident) sits exactly on the
    anchor; every later agent stops at the earliest point on its path toward
    the nearest already-placed position that still carries a link to it.
    With a deadline, candidates arriving late fall back to the anchor and the
    event fails (None) if even that is unreachable in time.
    """
    fins = last.finishes

    def order_key(agent_id: int):
        root_rank = 0 if agent_id == resident else 1
        return (root_rank, _arrival(fins[agent_id], anchor, grid), agent_id)

    order = sorted(fins, key=order_key)
    placed: list[tuple[int, Position]] = []
    positions: dict[int, Position] = {}
    for agent_id in order:
        fin = fins[agent_id]
        if not placed:
            cand = anchor
        else:
            target = min(placed, key=lambda it: (astar_length(fin.position, it[1], grid), it[0]))[1]
            cand = sel_com(fin.position, target, grid, params)
        if deadline is not None and _arrival(fin, cand, grid) > deadline:
            cand = anchor
            if _arrival(fin, cand, grid) > deadline:
                return None
        positions[agent_id] = cand
        placed.append((agent_id, cand))
    event_time = max(_arrival(fins[a], positions[a], grid) for a in positions)
    if deadline is not None:
        event_time = deadline
    return CommEvent(event_time, positions)


def all_gather_event(last: LastTaskState, grid: GridMap) -> CommEvent:
    """Everyone travels to the latest finisher's position."""
    anchor_fin = last.latest()
    positions = {a: anchor_fin.position for a in last.finishes}
    t = max(_arrival(f, anchor_fin.position, grid) for f in last.finishes.values())
    return CommEvent(t, positions)


def com_opt_fast(last: LastTaskState, grid: GridMap, params: CommParams) -> CommEvent:
    """Single-pass event refinement: the better of the all-gather event and
    one chain anchored at the latest finisher. Used inside bound evaluation
    where the optimizer runs thousands of times per planning call."""
    fins = last.finishes
    ids = last.ids()
    if len(ids) == 1:
        only = fins[ids[0]]
        return CommEvent(only.time, {only.agent_id: only.position})
    anchor_fin = last.latest()
    try:
        best = all_gather_event(last, grid)
        stage1 = chain_event(last, anchor_fin.position, grid, params,
                             resident=anchor_fin.agent_id)
    except Unreachable as exc:
        raise MeetingInfeasible(f"workspace disconnected across agents: {exc}") from exc
    if stage1 is not None and stage1.time < best.time:
        best = stage1
    return best


def com_opt(last: LastTaskState, grid: GridMap, params: CommParams,
            gap: float = DEFAULT_GAP) -> CommEvent:
    """Optimize the next communication event for the whole team.

    Guarantees: the returned meeting positions induce a connected graph, the
    event satisfies every agent's travel constraint, and the worst-case delay
    never exceeds the all-gather baseline at the latest finisher. After the
    anchored single pass, the anchor itself is scanned along the path toward
    the arrival bottleneck; the scan stops when an accepted improvement
    falls below `gap`.
    """
    fins = last.finishes
    ids = last.ids()
    if len(ids) == 1:
        only = fins[ids[0]]
        return CommEvent(only.time, {only.agent_id: only.position})

    anchor_fin = last.latest()
    p0 = anchor_fin.position
    try:
        best = com_opt_fast(last, grid, params)

        # Scan virtual anchors along the path from the arrival bottleneck
        # toward the latest finisher; each candidate yields a full chain event.
        bottleneck = max(ids, key=lambda a: (_arrival(fins[a], p0, grid), -a))
        path = astar_path(fins[bottleneck].position, p0, grid)
        stride = max(1, len(path) // MAX_ANCHOR_CANDIDATES)
        for idx in range(0, len(path), stride):
            cand = chain_event(last, path[idx], grid, params)
            if cand is not None and cand.time < best.time:
                improvement = best.time - cand.time
                best = cand
                if improvement < gap:
                    break
    except Unreachable as exc:
        raise MeetingInfeasible(f"workspace disconnected across agents: {exc}") from exc

    if not is_connected(comm_graph(best.positions, grid, params)):
        # Chain construction guarantees connectivity; the gather event is the
        # unconditional fallback should a degenerate configuration slip through.
        best = all_gather_event(last, grid)
    return best
