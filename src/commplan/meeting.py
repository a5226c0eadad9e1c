"""Rendezvous optimization: when and where the team re-establishes connectivity.

The optimizer minimizes the worst-case wait between each agent's last task
and the synchronized meeting. Every optimizer takes the team as a mapping of
`AgentContext`s, each saying where (`position`) and from when (`ready_time`)
that agent is free. Candidate events are built by chaining: agents
are placed one at a time, each stopping at the earliest point on its path
that holds a link to an already-placed agent, so the meeting graph is
connected by construction. The anchor of the chain starts at the latest
finisher's position and is then scanned along the path toward the arrival
bottleneck; the best event found is returned and is never worse than
gathering everyone at the latest finisher.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .radio import CommParams, comm_graph, is_connected, linked
from .schedule import AgentContext
from .workspace import GridMap, Position, Unreachable, astar_length, astar_path, memoized

DEFAULT_GAP = 0.5       # s, convergence tolerance on successive event times
MAX_ANCHOR_CANDIDATES = 24


class MeetingInfeasible(RuntimeError):
    """Agents cannot reach a common connected configuration."""


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


def latest(last: Mapping[int, AgentContext]) -> AgentContext:
    """The agent that becomes free last; the lowest id among ties."""
    return max(last.values(), key=lambda c: (c.ready_time, -c.id))


def _arrival(ctx: AgentContext, length: float) -> float:
    return ctx.ready_time + length / ctx.v_max


def chain_event(last: Mapping[int, AgentContext], anchor: Position, grid: GridMap,
                params: CommParams, resident: Optional[int] = None,
                deadline: Optional[float] = None) -> Optional[CommEvent]:
    """Build a connected meeting by placing agents in earliest-arrival order.

    The first placed agent (or the forced resident) sits exactly on the
    anchor; every later agent stops at the earliest point on its path toward
    the nearest already-placed position that still carries a link to it.
    With a deadline, candidates arriving late fall back to the anchor and the
    event fails (None) if even that is unreachable in time.
    """
    to_anchor = {a: astar_length(ctx.position, anchor, grid) for a, ctx in last.items()}

    def length(a: int, p: Position) -> float:
        return to_anchor[a] if p == anchor else astar_length(last[a].position, p, grid)

    order = sorted(last, key=lambda a: (a != resident, _arrival(last[a], to_anchor[a]), a))
    placed: list[tuple[int, Position]] = []
    positions: dict[int, Position] = {}
    for agent_id in order:
        ctx = last[agent_id]
        if not placed:
            cand = anchor
        else:
            target = min(placed, key=lambda it: (length(agent_id, it[1]), it[0]))[1]
            cand = sel_com(ctx.position, target, grid, params)
        if deadline is not None and _arrival(ctx, length(agent_id, cand)) > deadline:
            cand = anchor
            if _arrival(ctx, to_anchor[agent_id]) > deadline:
                return None
        positions[agent_id] = cand
        placed.append((agent_id, cand))
    if deadline is not None:
        return CommEvent(deadline, positions)
    return CommEvent(max(_arrival(last[a], length(a, p)) for a, p in positions.items()), positions)


def all_gather_event(last: Mapping[int, AgentContext], grid: GridMap,
                     at: Optional[Position] = None) -> CommEvent:
    """Everyone travels to `at`, by default the latest finisher's position."""
    if at is None:
        at = latest(last).position
    t = max(_arrival(ctx, astar_length(ctx.position, at, grid)) for ctx in last.values())
    return CommEvent(t, dict.fromkeys(last, at))


def com_opt_fast(last: Mapping[int, AgentContext], grid: GridMap,
                 params: CommParams) -> CommEvent:
    """Single-pass event refinement: the better of the all-gather event and
    one chain, both at the latest finisher. Used inside bound evaluation where
    the optimizer runs thousands of times per planning call."""
    if len(last) == 1:
        (only,) = last.values()
        return CommEvent(only.ready_time, {only.id: only.position})
    anchor = latest(last)
    try:
        chain = chain_event(last, anchor.position, grid, params, resident=anchor.id)
        gather = all_gather_event(last, grid, anchor.position)
    except Unreachable as exc:
        raise MeetingInfeasible(f"workspace disconnected across agents: {exc}") from exc
    return chain if chain is not None and chain.time < gather.time else gather


def com_opt(last: Mapping[int, AgentContext], grid: GridMap, params: CommParams,
            gap: float = DEFAULT_GAP) -> CommEvent:
    """Optimize the next communication event for the whole team.

    Guarantees: the returned meeting positions induce a connected graph, the
    event satisfies every agent's travel constraint, and the worst-case delay
    never exceeds the all-gather baseline at the latest finisher. After the
    anchored single pass, the anchor itself is scanned along the path toward
    the arrival bottleneck; the scan stops when an accepted improvement
    falls below `gap`.
    """
    best = com_opt_fast(last, grid, params)
    if len(last) == 1:
        return best
    p0 = latest(last).position
    try:
        # Scan virtual anchors along the path from the arrival bottleneck
        # toward the latest finisher; each candidate yields a full chain event.
        bottleneck = max(last.values(),
                         key=lambda c: (_arrival(c, astar_length(c.position, p0, grid)), -c.id))
        path = astar_path(bottleneck.position, p0, grid)
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
