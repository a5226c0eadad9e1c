"""Coordination strategies: the adaptive planner plus six baselines.

All team-cycle strategies (cocoplan, fix, fpmr, frdt, fimr) share the same
planner core and differ only in when they replan and how the communication
event is chosen. RING replaces team events with rotating pairwise meetings;
GREEDY has no scheduled events at all and coordinates opportunistically
whenever two agents come into range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .meeting import AgentFinish, CommEvent, LastTaskState, chain_event, com_opt
from .planner import cocoplan, last_state
from .radio import update_links
from .schedule import group_covers
from .simulator import CycleRecord, Simulator
from .workspace import Position, astar_travel_time

STRATEGY_KINDS = ("cocoplan", "fix", "fpmr", "frdt", "fimr", "ring", "greedy")


@dataclass
class StrategyConfig:
    kind: str
    threshold_n: Optional[int] = None      # fix
    interval: Optional[float] = None       # fimr
    fixed_point: Optional[Position] = None  # fpmr
    leader: Optional[int] = None           # frdt
    ring_order: Optional[tuple[int, ...]] = None  # ring

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        required = {"fix": "threshold_n", "fimr": "interval",
                    "fpmr": "fixed_point", "frdt": "leader"}
        fld = required.get(self.kind)
        if fld is not None and getattr(self, fld) is None:
            raise ValueError(f"strategy {self.kind!r} requires {fld}")


@dataclass
class PlannerOptions:
    budget: Optional[float] = None
    node_limit: Optional[int] = 200
    generated_limit: Optional[int] = 2000
    gap: float = 0.5


def _plan(sim: Simulator, agent_ids: Sequence[int], now: float, options: PlannerOptions,
          event_optimizer=None, min_tasks: int = 0):
    """Team contexts at `now` and the plan for the pending tasks the agents
    know; with fewer than `min_tasks` of them, the plan assigns nothing."""
    team = {a: sim.agents[a].context(now) for a in agent_ids}
    known = sim.known_tasks(agent_ids)
    tasks = {tid: task for tid, task in known.items() if sim.task_state[tid] == "pending"}
    if len(tasks) < min_tasks:
        tasks = {}
    plan = cocoplan(team, tasks, sim.relations, sim.grid, sim.params, options.budget,
                    now=now, completed=sim.done_ids(), event_optimizer=event_optimizer,
                    gap=options.gap, node_limit=options.node_limit,
                    generated_limit=options.generated_limit)
    return team, plan


class TeamCycleController:
    """Shared execute/communicate/replan cycle for team-event strategies."""

    scheduled_events = True

    def __init__(self, cfg: StrategyConfig, options: PlannerOptions):
        self.cfg = cfg
        self.options = options
        self.pending_event: Optional[float] = None
        self.recheck_at: Optional[float] = None
        self.cycle = 0

    def on_start(self, sim: Simulator) -> None:
        pass

    def on_tick(self, sim: Simulator, t: float) -> None:
        if self.cycle == 0:
            # Bootstrap: plans are distributed before the mission starts.
            self._replan(sim, t)
            return
        if self.pending_event is not None:
            ids = sorted(sim.agents)
            actual = sim.comm_ready(ids, self.pending_event, t)
            if actual is None:
                return
            sim.fire_comm_event(ids, actual)
            if sim.cycle_records and sim.cycle_records[-1].actual_event is None:
                sim.cycle_records[-1].actual_event = actual
            self.pending_event = None
            self._replan(sim, actual)
        elif self.recheck_at is not None and t >= self.recheck_at - 1e-9:
            sim.merge_knowledge(sorted(sim.agents))  # agents are still co-located
            self.recheck_at = None
            self._replan(sim, t)

    def _event_optimizer(self, sim: Simulator):
        cfg, grid, params = self.cfg, sim.grid, sim.params
        if cfg.kind == "fpmr":
            point = cfg.fixed_point

            def fpmr_event(last: LastTaskState) -> CommEvent:
                positions = {a: point for a in last.finishes}
                t_c = max(f.time + astar_travel_time(f.position, point, grid, f.v_max)
                          for f in last.finishes.values())
                return CommEvent(t_c, positions)
            return fpmr_event
        if cfg.kind == "frdt":
            leader = cfg.leader

            def frdt_event(last: LastTaskState) -> Optional[CommEvent]:
                anchor = last.finishes[leader].position
                return chain_event(last, anchor, grid, params, resident=leader)
            return frdt_event
        if cfg.kind == "fimr":
            deadline = (self.cycle + 1) * cfg.interval
            # Reserve slack for tick-quantized execution so agents are in
            # place when the fixed-interval event fires.
            margin = 30.0 * sim.dt

            def fimr_event(last: LastTaskState) -> Optional[CommEvent]:
                anchor = last.latest().position
                ev = chain_event(last, anchor, grid, params, deadline=deadline - margin)
                if ev is None:
                    return None
                return CommEvent(deadline, ev.positions)
            return fimr_event
        return None  # default com_opt

    def _replan(self, sim: Simulator, now: float) -> None:
        ids = sorted(sim.agents)
        event_optimizer = self._event_optimizer(sim)
        min_tasks = self.cfg.threshold_n if self.cfg.kind == "fix" else 0
        team, plan = _plan(sim, ids, now, self.options, event_optimizer, min_tasks)
        self.cycle += 1
        assigned = tuple(sorted(plan.groups))
        sim.log(now, "replanned", self.cycle, *assigned)

        degenerate = plan.task_count() == 0 and plan.event.time <= now + 1e-9
        if degenerate:
            # Nothing to do and nowhere to go: poll again later if tasks may
            # still appear, otherwise the mission is over for this team.
            if self.cfg.kind == "fimr":
                sim.apply_team_plan(ids, plan.sequences, {}, plan.event.time,
                                    plan.event.positions)
                self.pending_event = plan.event.time
            elif sim.has_future_work():
                self.recheck_at = now + sim.recheck_interval
            else:
                self.recheck_at = None
            return
        event = plan.event
        if event_optimizer is None and plan.task_count() > 0:
            # Bound evaluation uses the fast single-pass optimizer; polish the
            # executed event with the thorough one.
            refined = com_opt(last_state(plan.sequences, plan.timetable, team, sim.tasks),
                              sim.grid, sim.params, gap=self.options.gap)
            if refined.time < event.time:
                event = refined
        sim.apply_team_plan(ids, plan.sequences, plan.timetable.intervals,
                            event.time, dict(event.positions))
        self.pending_event = event.time
        sim.cycle_records.append(CycleRecord(start=now, participants=tuple(ids),
                                             assigned=assigned, planned_event=event.time))


class RingController:
    """Rotating pairwise meetings along a fixed ring of partners.

    Meetings advance in fixed rotation once both endpoints are free; when a
    meeting assigned nothing, the rotation pauses for a few recheck intervals
    so idle co-located pairs do not re-meet every tick.
    """

    scheduled_events = True

    def __init__(self, cfg: StrategyConfig, options: PlannerOptions):
        self.cfg = cfg
        self.options = options
        self.edge_idx = 0
        self.meeting: Optional[tuple[tuple[int, int], float]] = None
        self.edges: list[tuple[int, int]] = []
        self.next_meeting_at = 0.0

    def on_start(self, sim: Simulator) -> None:
        order = list(self.cfg.ring_order or sorted(sim.agents))
        if sorted(order) != sorted(sim.agents):
            raise ValueError("ring_order must be a permutation of the agent ids")
        n = len(order)
        edges = []
        for k in range(n):
            a, b = order[k], order[(k + 1) % n]
            if a != b and (min(a, b), max(a, b)) not in [(min(x, y), max(x, y)) for x, y in edges]:
                edges.append((a, b))
        self.edges = edges

    def on_tick(self, sim: Simulator, t: float) -> None:
        if not self.edges:
            return
        if self.meeting is not None:
            pair, planned = self.meeting
            actual = sim.comm_ready(pair, planned, t)
            if actual is None:
                return
            sim.fire_comm_event(pair, actual)
            assigned_any = self._plan_pair(sim, pair, actual)
            self.meeting = None
            self.edge_idx += 1
            if not assigned_any:
                self.next_meeting_at = actual + 4.0 * sim.recheck_interval
        else:
            if t < self.next_meeting_at - 1e-9:
                return
            pair = self.edges[self.edge_idx % len(self.edges)]
            if not all(self._free(sim, a) for a in pair):
                return
            last = LastTaskState({a: AgentFinish(a, t, sim.agents[a].position,
                                                 sim.agents[a].v_max) for a in pair})
            event = com_opt(last, sim.grid, sim.params, gap=self.options.gap)
            planned = max(event.time, t + sim.dt)
            # Both agents are free, so an empty plan sets only the meeting.
            sim.apply_team_plan(pair, {}, {}, planned, event.positions)
            self.meeting = (pair, planned)

    def _free(self, sim: Simulator, aid: int) -> bool:
        ag = sim.agents[aid]
        return ag.status in ("idle",) and not ag.queue and ag.comm_target is None

    def _plan_pair(self, sim: Simulator, pair, now: float) -> bool:
        _, plan = _plan(sim, pair, now, self.options)
        sim.apply_team_plan(pair, plan.sequences, plan.timetable.intervals)
        sim.log(now, "replanned", self.edge_idx + 1, *sorted(plan.groups))
        sim.cycle_records.append(CycleRecord(start=now, participants=tuple(sorted(pair)),
                                             assigned=tuple(sorted(plan.groups)),
                                             planned_event=None, actual_event=now))
        return bool(plan.groups)


class GreedyController:
    """Opportunistic coordination whenever two agents come into range."""

    scheduled_events = False

    def __init__(self, cfg: StrategyConfig, options: PlannerOptions):
        self.cfg = cfg
        self.options = options
        self.in_range: set[tuple[int, int]] = set()
        self.in_range_pos: dict[int, Position] = {}  # where in_range was computed
        self.last_sig: dict[tuple[int, int], tuple] = {}

    def on_start(self, sim: Simulator) -> None:
        pass

    def on_tick(self, sim: Simulator, t: float) -> None:
        self._solo_claims(sim, t)
        done_count = sum(1 for s in sim.task_state.values() if s == "done")
        positions = {a: ag.position for a, ag in sim.agents.items()}
        now_in_range = update_links(self.in_range, self.in_range_pos, positions,
                                    sim.grid, sim.params)
        for pair in sorted(now_in_range):
            # One exchange per piece of news: a fresh encounter, a knowledge
            # difference, or a completion since this pair last talked.
            # Equal sets make the pair's union the size of either one.
            known_a, known_b = sim.agents[pair[0]].known, sim.agents[pair[1]].known
            if (pair not in self.in_range or known_a != known_b
                    or self.last_sig.get(pair) != (len(known_a), done_count)):
                sim.log(t, "comm_event", *pair)
                sim.merge_knowledge(pair)
                self._pair_claims(sim, pair, t)
                self.last_sig[pair] = (len(sim.agents[pair[0]].known), done_count)
        self.in_range = now_in_range
        self.in_range_pos = positions

    def _claimable(self, sim: Simulator, tid: int, agents: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """Smallest group from `agents` able to run the task now; None if none."""
        task = sim.tasks[tid]
        if sim.task_state[tid] != "pending":
            return None
        if any(sim.task_state.get(p) != "done" for p in sim.index.preds.get(tid, ())):
            return None
        needed = task.agents_required
        if needed > len(agents):
            return None
        candidates = []
        if needed == 1:
            action = task.requirements[0][1]
            for a in agents:
                if action in sim.agents[a].capabilities:
                    travel = astar_travel_time(sim.agents[a].position, task.region_center,
                                               sim.grid, sim.agents[a].v_max)
                    candidates.append((travel, (a,)))
            if candidates:
                return min(candidates)[1]
            return None
        if needed == 2 and len(agents) == 2:
            team = {a: sim.agents[a].context(0.0) for a in agents}
            if group_covers(task, tuple(sorted(agents)), team):
                return tuple(sorted(agents))
        return None

    def _cluster_ids(self, sim: Simulator, tid: int) -> list[int]:
        return sorted(set([tid] + [p for p in sim.index.conc.get(tid, ()) if p in sim.tasks]))

    def _solo_claims(self, sim: Simulator, t: float) -> None:
        for aid in sorted(sim.agents):
            ag = sim.agents[aid]
            for tid in sorted(ag.known):
                if sim.task_state[tid] != "pending" or sim.index.conc.get(tid):
                    continue
                group = self._claimable(sim, tid, (aid,))
                if group is not None:
                    sim.assign(tid, group)

    def _pair_claims(self, sim: Simulator, pair: tuple[int, int], t: float) -> None:
        known = sorted(sim.agents[pair[0]].known | sim.agents[pair[1]].known)
        for tid in known:
            if sim.task_state[tid] != "pending":
                continue
            cluster = self._cluster_ids(sim, tid)
            if len(cluster) == 1:
                group = self._claimable(sim, tid, pair)
                if group is not None:
                    sim.assign(tid, group)
            elif len(cluster) == 2:
                # Overlapping execution needs disjoint solo groups, one per agent,
                # and both tasks must already be known to the pair.
                a, b = cluster
                if a not in known or b not in known:
                    continue
                if sim.task_state.get(a) != "pending" or sim.task_state.get(b) != "pending":
                    continue
                for agent_a, agent_b in (pair, pair[::-1]):
                    g_a = self._claimable(sim, a, (agent_a,))
                    g_b = self._claimable(sim, b, (agent_b,))
                    if g_a and g_b:
                        sim.assign(a, g_a)
                        sim.assign(b, g_b)
                        break


def make_controller(cfg: StrategyConfig, options: Optional[PlannerOptions] = None):
    options = options or PlannerOptions()
    if cfg.kind == "ring":
        return RingController(cfg, options)
    if cfg.kind == "greedy":
        return GreedyController(cfg, options)
    return TeamCycleController(cfg, options)
