"""Scenario configuration: loading, validation, serialization, task generation.

Configs are JSON files. Agent starts and task centers are snapped to free
cell centers at load time so planned travel matches simulated motion
exactly. Validation collects every problem and reports the offending field.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .radio import CommParams
from .simulator import AgentState, Simulator
from .strategies import PlannerOptions, StrategyConfig, make_controller
from .tasks import RelationKind, Task, TemporalRelation
from .workspace import GridMap, Position, load_grid

SPATIAL_PATTERNS = ("clustered", "uniform", "sparse")
TEMPORAL_PATTERNS = ("spiky", "uniform", "low_frequency")
MAX_TICKS = 1_000_000  # most ticks (horizon / dt) one trial may simulate
MAX_ARRIVALS = 100_000  # most tasks a generator may expect to release in one trial


class ScenarioError(ValueError):
    """Validation failure; message lists every offending field."""


@dataclass(frozen=True)
class AgentSpec:
    id: int
    start: Position
    v_max: float
    sensor_range: float
    capabilities: tuple[str, ...]


@dataclass
class Phase:
    start: float
    end: float
    spatial: str
    temporal: str


@dataclass
class GeneratorSpec:
    phases: list[Phase]
    rate: float = 0.05
    low_frequency_factor: float = 0.3
    burst_rate: float = 0.01
    burst_size: float = 4.0
    burst_window: float = 5.0
    cluster_count: int = 3
    cluster_std: float = 2.0
    sparse_min_dist: float = 5.0
    duration_range: tuple[float, float] = (5.0, 15.0)
    radius: float = 1.0
    requirement_options: tuple[tuple[tuple[int, str], ...], ...] = (((1, "work"),),)

    def __post_init__(self):
        prev_end = -math.inf
        for i, ph in enumerate(self.phases):
            if ph.spatial not in SPATIAL_PATTERNS:
                raise ScenarioError(f"generator.phases[{i}].spatial: unknown pattern {ph.spatial!r}")
            if ph.temporal not in TEMPORAL_PATTERNS:
                raise ScenarioError(f"generator.phases[{i}].temporal: unknown pattern {ph.temporal!r}")
            if ph.start < prev_end:
                raise ScenarioError(f"generator.phases[{i}]: phases overlap or are unordered")
            prev_end = ph.end
        for name in ("rate", "low_frequency_factor", "burst_rate", "burst_size", "burst_window",
                     "cluster_std", "sparse_min_dist", "radius"):
            if not (_is_finite(getattr(self, name)) and getattr(self, name) >= 0):
                raise ScenarioError(f"generator.{name}: must be a finite number >= 0")
        if not (_is_int(self.cluster_count) and self.cluster_count >= 1):
            raise ScenarioError("generator.cluster_count: must be an integer >= 1")
        lo_hi = self.duration_range
        if not (len(lo_hi) == 2 and all(_is_finite(v) for v in lo_hi) and 0 < lo_hi[0] <= lo_hi[1]):
            raise ScenarioError("generator.duration_range: must be [lo, hi] with 0 < lo <= hi")
        if not (self.requirement_options and all(option and min(n for n, _ in option) >= 1
                                                 for option in self.requirement_options)):
            raise ScenarioError("generator.requirement_options: must list at least one option, "
                                "each a nonempty list of [count >= 1, action]")
        # Sampling time grows with the Poisson rates, so bound the expected arrivals.
        per_second = {"uniform": self.rate, "low_frequency": self.rate * self.low_frequency_factor,
                      "spiky": self.burst_rate * max(self.burst_size, 1.0)}
        expected = sum(per_second[ph.temporal] * max(ph.end - ph.start, 0.0) for ph in self.phases)
        if not expected <= MAX_ARRIVALS:  # NaN: a phase bound is not finite
            raise ScenarioError(f"generator: phases expect {expected:.3g} arrivals, at most "
                                f"{MAX_ARRIVALS} in one trial and finite phase bounds allowed")


@dataclass
class ScenarioConfig:
    map_path: str
    grid: GridMap
    agents: list[AgentSpec]
    params: CommParams
    tasks: list[Task]
    relations: list[TemporalRelation]
    strategy: StrategyConfig
    horizon: float
    seed: int = 0
    dt: float = 0.1
    planner_budget: Optional[float] = None
    node_limit: Optional[int] = 200
    gap: float = 0.5
    recheck_interval: float = 5.0
    generator: Optional[GeneratorSpec] = None

    @property
    def env(self) -> str:
        return Path(self.map_path).stem

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and serialize_scenario(self) == serialize_scenario(other)


def _poisson(lam: float, rng: random.Random) -> int:
    if lam <= 0:
        return 0
    # Knuth's method underflows for large rates; split into chunks and sum
    # (a sum of independent Poisson draws is Poisson in the summed rate).
    total = 0
    while lam > 30.0:
        total += _poisson_small(30.0, rng)
        lam -= 30.0
    return total + _poisson_small(lam, rng)


def _poisson_small(lam: float, rng: random.Random) -> int:
    limit = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def generate_tasks(spec: GeneratorSpec, seed: int, grid: GridMap, start_id: int = 0) -> list[Task]:
    """Deterministic task stream for the given seed.

    Arrival times follow per-phase Poisson processes (plain, thinned, or
    bursty); positions are drawn uniformly over free cells, around cluster
    centers, or with a minimum pairwise separation.
    """
    rng = random.Random(seed)
    free = grid.free_cells()
    if not free:
        raise ScenarioError("generator: map has no free cells")

    def uniform_pos() -> Position:
        return grid.center(free[rng.randrange(len(free))])

    tasks: list[Task] = []
    next_id = start_id
    for ph in spec.phases:
        span = ph.end - ph.start
        if span <= 0:
            continue
        times: list[float] = []
        if ph.temporal == "uniform":
            times = [ph.start + rng.random() * span for _ in range(_poisson(spec.rate * span, rng))]
        elif ph.temporal == "low_frequency":
            lam = spec.rate * spec.low_frequency_factor * span
            times = [ph.start + rng.random() * span for _ in range(_poisson(lam, rng))]
        else:  # spiky
            for _ in range(_poisson(spec.burst_rate * span, rng)):
                burst_at = ph.start + rng.random() * span
                size = 1 + _poisson(max(spec.burst_size - 1.0, 0.0), rng)
                for _ in range(size):
                    t = burst_at + rng.random() * spec.burst_window
                    if t < ph.end:
                        times.append(t)
        times.sort()

        centers = [uniform_pos() for _ in range(spec.cluster_count)] if ph.spatial == "clustered" else []
        placed: list[Position] = []
        for t_release in times:
            if ph.spatial == "uniform":
                pos = uniform_pos()
            elif ph.spatial == "clustered":
                pos = None
                for _ in range(200):
                    c = centers[rng.randrange(len(centers))]
                    cand = Position(rng.gauss(c.x, spec.cluster_std), rng.gauss(c.y, spec.cluster_std))
                    if grid.contains(cand) and grid.is_free(cand):
                        pos = grid.snap(cand)
                        break
                if pos is None:
                    pos = uniform_pos()
            else:  # sparse
                pos = None
                for _ in range(200):
                    cand = uniform_pos()
                    if all(cand.dist(p) >= spec.sparse_min_dist for p in placed):
                        pos = cand
                        break
                if pos is None:
                    pos = uniform_pos()
                placed.append(pos)
            duration = rng.uniform(*spec.duration_range)
            req = spec.requirement_options[rng.randrange(len(spec.requirement_options))]
            tasks.append(Task(next_id, pos, spec.radius, duration, tuple(req),
                              release_time=t_release))
            next_id += 1
    return tasks


# -- config parsing ---------------------------------------------------------

def _parse_generator(raw: dict, errors: list[str]) -> Optional[GeneratorSpec]:
    try:
        n_errors = len(errors)
        phases = [Phase(_number(p["start"], f"generator.phases[{i}].start", errors),
                        _number(p["end"], f"generator.phases[{i}].end", errors),
                        p["spatial"], p["temporal"])
                  for i, p in enumerate(raw.get("phases", []))]
        opts = {k: v for k, v in raw.items() if k != "phases"}
        if "duration_range" in opts:
            opts["duration_range"] = tuple(opts["duration_range"])
        if "requirement_options" in opts:
            opts["requirement_options"] = tuple(
                _requirements(option, "generator.requirement_options", errors)
                for option in opts["requirement_options"])
        if len(errors) > n_errors:
            return None
        return GeneratorSpec(phases=phases, **opts)
    except ScenarioError as exc:  # names its field already
        errors.append(str(exc))
        return None
    except (AttributeError, KeyError, TypeError, ValueError) as exc:  # AttributeError: not a dict
        errors.append(f"generator: {exc}")
        return None


def _is_int(value) -> bool:
    """A JSON integer (booleans excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A JSON number (booleans excluded) that converts to a finite float (no
    NaN, no infinity, no integer beyond the float range)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(value, fieldname: str, errors: list[str], *, above: Optional[float] = None,
            at_least: Optional[float] = None) -> float:
    """`value` as a float if it is a finite JSON number, greater than `above`
    and at least `at_least` where given; otherwise NaN, with the field named
    in `errors`."""
    if _is_finite(value) and (above is None or value > above) \
            and (at_least is None or value >= at_least):
        return float(value)
    need = "".join(f" {op} {bound:g}" for op, bound in ((">", above), (">=", at_least))
                   if bound is not None)
    errors.append(f"{fieldname}: must be a finite number{need}")
    return math.nan


def _position(value, fieldname: str, errors: list[str]) -> Optional[Position]:
    """An [x, y] pair of finite JSON numbers; None, with the field named in `errors`."""
    if isinstance(value, list) and len(value) == 2 and all(_is_finite(v) for v in value):
        return Position(float(value[0]), float(value[1]))
    errors.append(f"{fieldname}: must be [x, y] with finite numbers")
    return None


def _requirements(value, fieldname: str, errors: list[str]) -> tuple[tuple[int, str], ...]:
    """[[count, action], ...] with integer counts >= 1 and string actions; a bad
    count or action is named in `errors`."""
    reqs = []
    for n, action in value:
        if not (_is_int(n) and n >= 1):
            errors.append(f"{fieldname}: count {n!r} must be an integer >= 1")
        if not isinstance(action, str):
            errors.append(f"{fieldname}: action {action!r} must be a string")
        reqs.append((n, action))
    return tuple(reqs)


def _list(raw: dict, key: str, errors: list[str]) -> list:
    """The top-level section `key`, [] when absent; [] with the field named in
    `errors` when it is not a JSON list."""
    value = raw.get(key, [])
    if isinstance(value, list):
        return value
    errors.append(f"{key}: must be a list")
    return []


def scenario_from_dict(raw: dict, base_dir: Path) -> ScenarioConfig:
    errors: list[str] = []

    map_path = raw.get("map")
    grid = None
    if not isinstance(map_path, str):
        errors.append("map: required string path")
    else:
        try:
            grid = load_grid(base_dir / map_path)
        except (OSError, ValueError) as exc:  # MapError, a NUL byte, or text that is not UTF-8
            errors.append(f"map: {exc}")
    if errors:
        raise ScenarioError("; ".join(errors))

    agents: list[AgentSpec] = []
    seen_ids = set()
    for i, a in enumerate(_list(raw, "agents", errors)):
        fieldname = f"agents[{i}]"
        try:
            aid = a["id"]
            if not _is_int(aid):
                errors.append(f"{fieldname}.id: must be an integer")
                continue
            start = _position(a["start"], f"{fieldname}.start", errors)
            if aid in seen_ids:
                errors.append(f"{fieldname}.id: duplicate agent id {aid}")
            seen_ids.add(aid)
            if start is None:
                pass  # named by _position
            elif not grid.contains(start):
                errors.append(f"{fieldname}.start: outside the map")
            elif not grid.is_free(start):
                errors.append(f"{fieldname}.start: agent {aid} starts on an obstacle")
            else:
                v_max = _number(a["v_max"], f"{fieldname}.v_max", errors, above=0.0)
                sensor_range = _number(a["sensor_range"], f"{fieldname}.sensor_range", errors,
                                       at_least=0.0)
                caps = a["capabilities"]
                if not (isinstance(caps, list) and all(isinstance(c, str) for c in caps)):
                    errors.append(f"{fieldname}.capabilities: must be a list of strings")
                agents.append(AgentSpec(aid, grid.snap(start), v_max, sensor_range,
                                        tuple(sorted(set(caps)))))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            errors.append(f"{fieldname}: {exc}")
    if not agents:
        errors.append("agents: at least one agent required")

    comm = raw.get("comm", {})
    try:
        errors.extend(f"comm.{k}: must be a finite number" for k, v in comm.items()
                      if not _is_finite(v))
        params = CommParams(**comm)
    except (AttributeError, TypeError, ValueError) as exc:  # AttributeError: not a dict
        errors.append(f"comm: {exc}")
        params = CommParams()

    tasks: list[Task] = []
    task_ids = set()
    for i, t in enumerate(_list(raw, "tasks", errors)):
        fieldname = f"tasks[{i}]"
        try:
            tid = t["id"]
            if not _is_int(tid):
                errors.append(f"{fieldname}.id: must be an integer")
                continue
            center = _position(t["center"], f"{fieldname}.center", errors)
            if tid in task_ids:
                errors.append(f"{fieldname}.id: duplicate task id {tid}")
            task_ids.add(tid)
            if center is None:
                pass  # named by _position
            elif not grid.contains(center):
                errors.append(f"{fieldname}.center: outside the map")
            elif not grid.is_free(center):
                errors.append(f"{fieldname}.center: task {tid} lies on an obstacle")
            else:
                n_errors = len(errors)
                radius = _number(t.get("radius", 1.0), f"{fieldname}.radius", errors,
                                 at_least=0.0)
                duration = _number(t["duration"], f"{fieldname}.duration", errors, above=0.0)
                reqs = _requirements(t["requirements"], f"{fieldname}.requirements", errors)
                release = _number(t.get("release_time", 0.0), f"{fieldname}.release_time",
                                  errors)
                if len(errors) == n_errors:
                    tasks.append(Task(tid, grid.snap(center), radius, duration, reqs,
                                      release_time=release))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            errors.append(f"{fieldname}: {exc}")

    generator = None
    if "generator" in raw:
        generator = _parse_generator(raw["generator"], errors)

    relations: list[TemporalRelation] = []
    pair_seen = set()
    for i, r in enumerate(_list(raw, "relations", errors)):
        fieldname = f"relations[{i}]"
        try:
            if not (_is_int(r[0]) and _is_int(r[1])):
                errors.append(f"{fieldname}: task ids must be integers")
                continue
            rel = TemporalRelation(r[0], r[1], RelationKind(r[2]))
            key = (min(rel.first, rel.second), max(rel.first, rel.second))
            if key in pair_seen:
                errors.append(f"{fieldname}: duplicate relation for pair {key}")
            pair_seen.add(key)
            if generator is None:
                if rel.first not in task_ids:
                    errors.append(f"{fieldname}: dangling task id {rel.first}")
                if rel.second not in task_ids:
                    errors.append(f"{fieldname}: dangling task id {rel.second}")
            relations.append(rel)
        except (KeyError, TypeError, ValueError, IndexError) as exc:  # KeyError: an object
            errors.append(f"{fieldname}: {exc}")

    strategy = None
    try:
        s = dict(raw.get("strategy", {}))
        if "fixed_point" in s and s["fixed_point"] is not None:
            fp = _position(s["fixed_point"], "strategy.fixed_point", errors)
            if fp is not None and (not grid.contains(fp) or not grid.is_free(fp)):
                errors.append("strategy.fixed_point: not a free position")
            s["fixed_point"] = None if fp is None else grid.snap(fp)
        if s.get("ring_order") is not None:
            order = s["ring_order"]
            ids_ok = isinstance(order, list) and all(_is_int(x) for x in order)
            if not (ids_ok and sorted(order) == sorted(a.id for a in agents)):
                errors.append("strategy.ring_order: must list each agent id once, as integers")
            s["ring_order"] = tuple(order) if ids_ok else None
        if s.get("interval") is not None:
            _number(s["interval"], "strategy.interval", errors, above=0.0)
        threshold_n = s.get("threshold_n")
        if threshold_n is not None and not (_is_int(threshold_n) and threshold_n >= 1):
            errors.append("strategy.threshold_n: must be an integer >= 1")
        leader = s.get("leader")
        if leader is not None and not _is_int(leader):
            errors.append("strategy.leader: must be an integer agent id")
        strategy = StrategyConfig(**s)
        if strategy.kind == "frdt" and _is_int(leader) and leader not in {a.id for a in agents}:
            errors.append("strategy.leader: unknown agent id")
    except (TypeError, ValueError) as exc:
        errors.append(f"strategy: {exc}")

    horizon = raw.get("horizon")
    horizon_ok = _is_finite(horizon) and horizon > 0
    if not horizon_ok:
        errors.append("horizon: required finite number > 0")

    dt = raw.get("dt", 0.1)
    if not (_is_finite(dt) and dt > 0):
        errors.append("dt: must be a finite number > 0")
    elif horizon_ok and horizon / dt > MAX_TICKS:
        errors.append(f"horizon: {horizon} s at dt {dt} s is {horizon / dt:.3g} ticks, "
                      f"more than the {MAX_TICKS} one trial may simulate")

    seed = raw.get("seed", 0)
    if not _is_int(seed):
        errors.append("seed: must be an integer")
    gap = raw.get("gap", 0.5)
    if not (_is_finite(gap) and gap >= 0):
        errors.append("gap: must be a finite number >= 0")
    recheck_interval = raw.get("recheck_interval", 5.0)
    if not (_is_finite(recheck_interval) and recheck_interval > 0):
        errors.append("recheck_interval: must be a finite number > 0")
    node_limit = raw.get("node_limit", 200)
    if not (node_limit is None or _is_int(node_limit) and node_limit >= 0):
        errors.append("node_limit: must be null or an integer >= 0")
    planner_budget = raw.get("planner_budget")
    if not (planner_budget is None or _is_finite(planner_budget) and planner_budget >= 0):
        errors.append("planner_budget: must be null or a finite number >= 0")

    if errors:
        raise ScenarioError("; ".join(errors))

    return ScenarioConfig(
        map_path=map_path, grid=grid, agents=sorted(agents, key=lambda a: a.id),
        params=params, tasks=sorted(tasks, key=lambda t: t.id), relations=relations,
        strategy=strategy, horizon=float(horizon),
        seed=seed, dt=float(dt), planner_budget=planner_budget, node_limit=node_limit,
        gap=float(gap), recheck_interval=float(recheck_interval),
        generator=generator)


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path.name} line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path.name}: top-level value must be a JSON object")
    return scenario_from_dict(raw, path.parent)


def task_to_dict(t: Task) -> dict:
    """A task as a scenario file lists it."""
    return {"id": t.id, "center": [t.region_center.x, t.region_center.y],
            "radius": t.region_radius, "duration": t.duration,
            "requirements": [[n, a] for n, a in t.requirements],
            "release_time": t.release_time}


def serialize_scenario(cfg: ScenarioConfig) -> dict:
    out = {
        "map": cfg.map_path,
        "agents": [{"id": a.id, "start": [a.start.x, a.start.y], "v_max": a.v_max,
                    "sensor_range": a.sensor_range, "capabilities": list(a.capabilities)}
                   for a in cfg.agents],
        "comm": {"tx_power": cfg.params.tx_power, "pl_ref": cfg.params.pl_ref,
                 "ref_dist": cfg.params.ref_dist, "path_exponent": cfg.params.path_exponent,
                 "attenuation": cfg.params.attenuation, "threshold": cfg.params.threshold},
        "tasks": [task_to_dict(t) for t in cfg.tasks],
        "relations": [[r.first, r.second, r.kind.value] for r in cfg.relations],
        "strategy": {"kind": cfg.strategy.kind},
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "dt": cfg.dt,
        "planner_budget": cfg.planner_budget,
        "node_limit": cfg.node_limit,
        "gap": cfg.gap,
        "recheck_interval": cfg.recheck_interval,
    }
    s = cfg.strategy
    if s.threshold_n is not None:
        out["strategy"]["threshold_n"] = s.threshold_n
    if s.interval is not None:
        out["strategy"]["interval"] = s.interval
    if s.fixed_point is not None:
        out["strategy"]["fixed_point"] = [s.fixed_point.x, s.fixed_point.y]
    if s.leader is not None:
        out["strategy"]["leader"] = s.leader
    if s.ring_order is not None:
        out["strategy"]["ring_order"] = list(s.ring_order)
    if cfg.generator is not None:
        g = cfg.generator
        out["generator"] = {
            "phases": [{"start": p.start, "end": p.end, "spatial": p.spatial,
                        "temporal": p.temporal} for p in g.phases],
            "rate": g.rate, "low_frequency_factor": g.low_frequency_factor,
            "burst_rate": g.burst_rate, "burst_size": g.burst_size,
            "burst_window": g.burst_window, "cluster_count": g.cluster_count,
            "cluster_std": g.cluster_std, "sparse_min_dist": g.sparse_min_dist,
            "duration_range": list(g.duration_range), "radius": g.radius,
            "requirement_options": [[[n, a] for n, a in opt] for opt in g.requirement_options],
        }
    return out


def build_simulator(cfg: ScenarioConfig, seed: Optional[int] = None,
                    strategy: Optional[StrategyConfig] = None) -> tuple[Simulator, object]:
    """Fresh simulator plus controller for one trial."""
    seed = cfg.seed if seed is None else seed
    tasks: dict[int, Task] = {}
    for t in cfg.tasks:
        tasks[t.id] = Task(t.id, t.region_center, t.region_radius, t.duration,
                           t.requirements, t.release_time)
    if cfg.generator is not None:
        next_id = max(tasks, default=-1) + 1
        for t in generate_tasks(cfg.generator, seed, cfg.grid, start_id=next_id):
            tasks[t.id] = t
    agents = [AgentState(a.id, a.start, a.v_max, a.sensor_range, frozenset(a.capabilities))
              for a in cfg.agents]
    sim = Simulator(cfg.grid, agents, cfg.params, tasks, cfg.relations,
                    horizon=cfg.horizon, dt=cfg.dt,
                    recheck_interval=cfg.recheck_interval)
    controller = make_controller(strategy or cfg.strategy,
                                 PlannerOptions(budget=cfg.planner_budget,
                                                node_limit=cfg.node_limit, gap=cfg.gap))
    return sim, controller
