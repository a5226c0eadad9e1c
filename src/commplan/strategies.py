"""Coordination strategies: the adaptive planner plus six baselines.

All team-cycle strategies (cocoplan, fix, fpmr, frdt, fimr) share the same
planner core and differ only in when they replan and how the communication
event is chosen. RING replaces team events with rotating pairwise meetings;
GREEDY has no scheduled events at all and coordinates opportunistically
whenever two agents come into range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .meeting import DEFAULT_GAP, CommEvent, all_gather_event, chain_event, com_opt, latest
from .planner import cocoplan, last_state
from .radio import update_links
from .schedule import AgentContext, eligible_groups
from .simulator import CycleRecord, Simulator
from .workspace import Position, astar_travel_time

STRATEGY_KINDS = ("cocoplan", "fix", "fpmr", "frdt", "fimr", "ring", "greedy")
# fimr plans each event this many ticks before its deadline, so tick-quantized
# execution still has agents in place when the fixed-interval event fires.
FIMR_MARGIN_TICKS = 30


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
    gap: float = DEFAULT_GAP


def _plan(sim: Simulator, agent_ids: Sequence[int], now: float, options: PlannerOptions,
          event_optimizer=None, min_tasks: int = 0):
    """Team contexts at `now` and the plan for the pending tasks the agents
    know; with fewer than `min_tasks` of them, the plan assigns nothing."""
    team = {a: sim.agents[a].context(now) for a in agent_ids}
    known = sim.known_tasks(agent_ids)
    tasks = {tid: task for tid, task in known.items() if tid in sim.pending}
    if len(tasks) < min_tasks:
        tasks = {}
    plan = cocoplan(team, tasks, sim.index, sim.grid, sim.params, options.budget,
                    now=now, completed=frozenset(sim.done), event_optimizer=event_optimizer,
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
            return lambda last: all_gather_event(last, grid, cfg.fixed_point)
        if cfg.kind == "frdt":
            leader = cfg.leader
            return lambda last: chain_event(last, last[leader].position, grid, params,
                                            resident=leader)
        if cfg.kind == "fimr":
            deadline = (self.cycle + 1) * cfg.interval
            margin = FIMR_MARGIN_TICKS * sim.dt

            def fimr_event(last: Mapping[int, AgentContext]) -> Optional[CommEvent]:
                anchor = latest(last).position
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
        sim.apply_team_plan(ids, plan.sequences, plan.timetable.start,
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
        edges = list(zip(order, order[1:] + order[:1]))
        # Two agents meet over one edge, and one agent over none.
        self.edges = edges if len(order) > 2 else edges[:len(order) - 1]

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
            event = com_opt({a: sim.agents[a].context(t) for a in pair}, sim.grid, sim.params,
                            gap=self.options.gap)
            planned = max(event.time, t + sim.dt)
            # Both agents are free, so an empty plan sets only the meeting.
            sim.apply_team_plan(pair, {}, {}, planned, event.positions)
            self.meeting = (pair, planned)

    def _free(self, sim: Simulator, aid: int) -> bool:
        ag = sim.agents[aid]
        return ag.status == "idle" and not ag.queue and ag.comm_target is None

    def _plan_pair(self, sim: Simulator, pair, now: float) -> bool:
        _, plan = _plan(sim, pair, now, self.options)
        sim.apply_team_plan(pair, plan.sequences, plan.timetable.start)
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
        self.last_sig: dict[tuple[int, int], tuple] = {}
        self.news: Optional[tuple[int, int]] = None  # the last tick's news signature

    def on_start(self, sim: Simulator) -> None:
        # Every pair at the start positions; a tick re-checks only pairs with a moved end.
        positions = {a: ag.position for a, ag in sim.agents.items()}
        self.in_range = update_links(set(), list(sim.agents), positions, sim.grid, sim.params)

    def on_tick(self, sim: Simulator, t: float) -> None:
        # Known sets only grow and a done task stays done, so an equal news
        # signature means the same known sets and the same done tasks.
        news = (sim.known_count, len(sim.done))
        changed, self.news = news != self.news, news
        if changed:
            # A claim since the last pass only removed candidates.
            for aid, ag in sim.agents.items():  # in id order
                self._claims(sim, (aid,), ag.known)
        now_in_range = self.in_range
        if sim.moved:
            positions = {a: ag.position for a, ag in sim.agents.items()}
            now_in_range = update_links(self.in_range, sim.moved, positions, sim.grid, sim.params)
        # Unchanged news means no known set grew since the last tick began, so
        # its pairs in range all ended it with equal sets and a current
        # signature; without a fresh encounter there is nothing new.
        if changed or not now_in_range <= self.in_range:
            for pair in sorted(now_in_range):
                # One exchange per piece of news: a fresh encounter, a knowledge
                # difference, or a completion since this pair last talked.
                # Equal sets make the pair's union the size of either one.
                known_a, known_b = sim.agents[pair[0]].known, sim.agents[pair[1]].known
                if (pair not in self.in_range or known_a != known_b
                        or self.last_sig.get(pair) != (len(known_a), len(sim.done))):
                    sim.log(t, "comm_event", *pair)
                    sim.merge_knowledge(pair)
                    self._claims(sim, pair, sim.agents[pair[0]].known)  # the merged set
                    self.last_sig[pair] = (len(sim.agents[pair[0]].known), len(sim.done))
        self.in_range = now_in_range

    def _claimable(self, sim: Simulator, tid: int, agents: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        """The eligible group from `agents` whose farthest member is nearest the
        task, lowest ids on ties, if it is pending with its predecessors done."""
        task = sim.tasks[tid]
        if tid not in sim.pending:
            return None
        if any(p not in sim.done for p in sim.index.preds.get(tid, ())):
            return None
        groups = eligible_groups(task, {a: sim.agents[a].context(sim.now) for a in agents})
        if len(groups) < 2:
            return groups[0] if groups else None
        travel = {a: astar_travel_time(sim.agents[a].position, task.region_center, sim.grid,
                                       sim.agents[a].v_max) for a in set().union(*groups)}
        return min((max(map(travel.__getitem__, g)), g) for g in groups)[1]

    def _claims(self, sim: Simulator, agents: tuple[int, ...], known: set[int]) -> None:
        """Claim the pending tasks of `known` that `agents` can take, lowest id first.

        A task with no concurrency partner goes to its `_claimable` group. A
        two-task concurrency component (`RelationIndex.cluster`) whose tasks are
        both known goes to two agents at once, one solo group per task, so the
        tasks run together. A larger component is never claimed: claiming part
        of it would leave agents waiting for a partner nobody holds.
        """
        for tid in sorted(known):
            if tid not in sim.pending:
                continue
            cluster = sim.index.cluster.get(tid, (tid,))
            if len(cluster) == 1:
                group = self._claimable(sim, tid, agents)
                if group is not None:
                    sim.assign(tid, group)
            elif len(cluster) == 2 and len(agents) == 2 and known.issuperset(cluster):
                a, b = cluster
                for agent_a, agent_b in (agents, agents[::-1]):
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
