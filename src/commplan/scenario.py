"""Scenario configuration: loading, validation, serialization, task generation.

Configs are JSON files, parsed and serialized through one table of field rows
per section (`SCENARIO` and the sections it nests). Agent starts and task
centers snap to free cell centers at load time so planned travel matches
simulated motion exactly. Validation names every offending field by its path.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

from .radio import CommParams
from .simulator import DEFAULT_DT, DEFAULT_RECHECK_INTERVAL, AgentState, Simulator
from .strategies import (FIMR_MARGIN_TICKS, STRATEGY_KINDS, PlannerOptions, StrategyConfig,
                         make_controller)
from .tasks import RelationKind, Task, TemporalRelation
from .workspace import GridMap, Position, load_grid

SPATIAL_PATTERNS = ("clustered", "uniform", "sparse")
TEMPORAL_PATTERNS = ("spiky", "uniform", "low_frequency")
MAX_TICKS = 1_000_000  # most ticks (horizon / dt) one trial may simulate
MAX_HORIZON = 1e6  # seconds; float spacing there (1.2e-10 s) stays below the 1e-9 s tolerances
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
    phases: list[Phase] = field(default_factory=list)
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
            for key, kind in (("spatial", _SPATIAL), ("temporal", _TEMPORAL)):
                problem = kind.problem(getattr(ph, key))
                if problem:
                    raise ScenarioError(f"generator.phases[{i}].{key}: {problem}")
            if ph.start < prev_end:
                raise ScenarioError(f"generator.phases[{i}]: phases overlap or are unordered")
            prev_end = ph.end
        lo, hi = self.duration_range
        if not 0 < lo <= hi:
            raise ScenarioError("generator.duration_range: must be [lo, hi] with 0 < lo <= hi")
        # Sampling time grows with the Poisson rates, so bound the expected arrivals.
        per_second = {"uniform": self.rate, "low_frequency": self.rate * self.low_frequency_factor,
                      "spiky": self.burst_rate * max(self.burst_size, 1.0)}
        expected = sum(per_second[ph.temporal] * max(ph.end - ph.start, 0.0) for ph in self.phases)
        if not expected <= MAX_ARRIVALS:  # NaN: a phase bound is not finite
            raise ScenarioError(f"generator: phases expect {expected:.3g} arrivals, at most "
                                f"{MAX_ARRIVALS} in one trial and finite phase bounds allowed")
        # Each clustered phase draws its centers up front, whether or not a task arrives.
        centers = self.cluster_count * sum(ph.spatial == "clustered" and ph.end > ph.start
                                           for ph in self.phases)
        if centers > MAX_ARRIVALS:
            raise ScenarioError(f"generator.cluster_count: clustered phases draw {centers} "
                                f"centers, at most {MAX_ARRIVALS} in one trial allowed")


@dataclass(kw_only=True)
class ScenarioConfig:
    """A loaded scenario; a field a scenario file may omit has its default."""
    map_path: str
    grid: GridMap
    agents: list[AgentSpec] = field(default_factory=list)
    params: CommParams = field(default_factory=CommParams)
    tasks: list[Task] = field(default_factory=list)
    relations: list[TemporalRelation] = field(default_factory=list)
    strategy: StrategyConfig
    horizon: float
    seed: int = 0
    dt: float = DEFAULT_DT
    planner_budget: Optional[float] = PlannerOptions.budget
    node_limit: Optional[int] = PlannerOptions.node_limit
    gap: float = PlannerOptions.gap
    recheck_interval: float = DEFAULT_RECHECK_INTERVAL
    generator: Optional[GeneratorSpec] = None

    @property
    def env(self) -> str:
        return Path(self.map_path).stem

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioConfig) and serialize_scenario(self) == serialize_scenario(other)


def _poisson(lam: float, rng: random.Random) -> int:
    # Knuth's method underflows for large rates; draw chunks of at most 30 and sum
    # them (a sum of independent Poisson draws is Poisson in the summed rate).
    total = 0
    while lam > 0:
        limit, p = math.exp(-min(lam, 30.0)), rng.random()
        while p > limit:
            total += 1
            p *= rng.random()
        lam -= 30.0
    return total


# The 5x5 bucket offsets around a sparse candidate, nearest first, where a
# placed task that is too close is likeliest.
_NEAR_FIRST = sorted(((i, j) for i in range(-2, 3) for j in range(-2, 3)),
                     key=lambda o: abs(o[0]) + abs(o[1]))


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

    # Sparse tasks are kept by bucket. A pair closer than sparse_min_dist lies in
    # buckets at most one apart, and a second ring covers rounding at a bucket
    # edge; a bucket is at least a cell wide, so no index overflows.
    side = max(spec.sparse_min_dist, grid.resolution)
    near = _NEAR_FIRST if spec.sparse_min_dist > 0 else ()  # at 0 every place is spaced

    def bucket(p: Position) -> tuple[int, int]:
        return math.floor(p.x / side), math.floor(p.y / side)

    tasks: list[Task] = []
    next_id = start_id
    for ph in spec.phases:
        span = ph.end - ph.start
        if span <= 0:
            continue
        times: list[float] = []
        if ph.temporal != "spiky":  # uniform, or low_frequency at rate * low_frequency_factor
            rate = (spec.rate * spec.low_frequency_factor if ph.temporal == "low_frequency"
                    else spec.rate)
            times = [ph.start + rng.random() * span for _ in range(_poisson(rate * span, rng))]
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
        placed: dict[tuple[int, int], list[Position]] = {}  # sparse tasks by bucket
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
                    bx, by = bucket(cand)
                    if all(cand.dist(p) >= spec.sparse_min_dist for i, j in near
                           for p in placed.get((bx + i, by + j), ())):
                        pos = cand
                        break
                if pos is None:
                    pos = uniform_pos()
                placed.setdefault(bucket(pos), []).append(pos)
            duration = rng.uniform(*spec.duration_range)
            req = spec.requirement_options[rng.randrange(len(spec.requirement_options))]
            tasks.append(Task(next_id, pos, spec.radius, duration, tuple(req),
                              release_time=t_release))
            next_id += 1
    return tasks


# -- the field table: one Section of rows per JSON object --------------------

REQUIRED = object()  # the default of a key a scenario must give


def _is_int(value) -> bool:
    """A JSON integer (booleans excluded)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A JSON number (booleans excluded) that converts to a finite float (no
    NaN, no infinity, no integer beyond the float range)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# The table types are plain classes, not dataclasses or NamedTuples, whose
# generated methods made each fresh import of this module much larger (the
# benchmark re-imports the package for every set-up, and counts peak memory).
class Kind:
    """A value rule: `problem` says what is wrong with a JSON value (None if
    nothing), `load` converts a good one, `dump` converts it back. A nullable
    kind loads null as None and writes None back as null."""
    __slots__ = ("problem", "load", "dump", "nullable")

    def __init__(self, problem: Callable[[object], Optional[str]],
                 load: Callable = lambda v: v, dump: Callable = lambda v: v, nullable=False):
        self.problem, self.load, self.dump, self.nullable = problem, load, dump, nullable

    def parse(self, value, where: str, errors: list[str]):
        problem = self.problem(value)
        if problem is None:
            return self.load(value)
        errors.append(f"{where}: {problem}")
        return None


class Section:
    """A JSON object: its rows in file order, and what the loaded attributes
    build (their dict by default). A row is (JSON key, its Kind, Section or
    Many, the JSON value a missing key reads as, the attribute it loads into)."""
    __slots__ = ("rows", "build")

    def __init__(self, rows: tuple[tuple, ...], build: Callable = dict):
        self.rows, self.build = rows, build

    def walk(self, raw, where: str, errors: list[str]) -> dict:
        """Each row's value in the JSON object `raw` loaded into its attribute,
        None where refused or missing (and named in `errors`). A missing key
        reads as its default, and null as None where the default is None."""
        if not isinstance(raw, dict):
            errors.append(f"{where}: must be an object")
            return {}
        prefix = f"{where}." if where else ""
        keys = {key for key, *_ in self.rows}
        errors.extend(f"{prefix}{key}: unknown field" for key in raw if key not in keys)
        attrs = {}
        for key, kind, default, attr in self.rows:
            value = raw.get(key, default)
            if value is REQUIRED:
                errors.append(f"{prefix}{key}: required")
                value = None
            elif value is not None or default is not None:
                value = kind.parse(value, prefix + key, errors)
            attrs[attr] = value
        return attrs

    def parse(self, raw, where: str, errors: list[str]):
        n_errors = len(errors)
        attrs = self.walk(raw, where, errors)
        if len(errors) > n_errors:
            return None
        try:
            return self.build(**attrs)
        except ScenarioError as exc:  # names its field already
            errors.append(str(exc))
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
        return None

    def dump(self, obj) -> dict:
        """`obj` as a scenario file lists it; None is left out unless the
        row's kind is nullable."""
        values = ((key, kind, getattr(obj, attr)) for key, kind, _, attr in self.rows)
        return {key: None if value is None else kind.dump(value) for key, kind, value in values
                if value is not None or isinstance(kind, Kind) and kind.nullable}


class Many:
    """A JSON list of `item`s; a refused item parses to None."""
    __slots__ = ("item",)

    def __init__(self, item):
        self.item = item

    def parse(self, value, where: str, errors: list[str]) -> list:
        if not isinstance(value, list):
            errors.append(f"{where}: must be a list")
            return []
        return [self.item.parse(v, f"{where}[{i}]", errors) for i, v in enumerate(value)]

    def dump(self, items) -> list:
        return [self.item.dump(item) for item in items]


def _number(*, above: Optional[float] = None, at_least: Optional[float] = None,
            integer: bool = False, nullable: bool = False) -> Kind:
    """An integer, or a finite number loaded as a float, bounded where given;
    or null, where `nullable`."""
    need = "null or " * nullable + ("an integer" if integer else "a finite number") + "".join(
        f" {op} {bound:g}" for op, bound in ((">", above), (">=", at_least)) if bound is not None)

    def ok(v) -> bool:
        if v is None:
            return nullable
        return ((_is_int(v) if integer else _is_finite(v))
                and (above is None or v > above) and (at_least is None or v >= at_least))
    return Kind(lambda v: None if ok(v) else f"must be {need}",
                lambda v: v if integer or v is None else float(v), nullable=nullable)


def _pair(need: str, load: Callable, dump: Callable) -> Kind:
    """Two finite JSON numbers."""
    return Kind(lambda v: None if isinstance(v, list) and len(v) == 2
                and all(map(_is_finite, v)) else f"must be {need}",
                lambda v: load(float(v[0]), float(v[1])), dump)


def _list_of(test: Callable, need: str, load: Callable) -> Kind:
    return Kind(lambda v: None if isinstance(v, list) and all(map(test, v))
                else f"must be a list of {need}", load, list)


def _name(names: tuple[str, ...]) -> Kind:
    return Kind(lambda v: None if v in names else f"must be one of {', '.join(names)}")


def _requirements_problem(value) -> Optional[str]:
    if not (isinstance(value, list) and value
            and all(isinstance(pair, list) and len(pair) == 2 for pair in value)):
        return "must be a nonempty list of [count, action] pairs"
    for n, action in value:
        if not (_is_int(n) and n >= 1):
            return f"count {n!r} must be an integer >= 1"
        if not isinstance(action, str):
            return f"action {action!r} must be a string"
    return None


def _relation_problem(value) -> Optional[str]:
    if not (isinstance(value, list) and len(value) == 3):
        return "must be [first, second, kind]"
    if not (_is_int(value[0]) and _is_int(value[1])):
        return "task ids must be integers"
    if value[0] == value[1]:
        return "task ids must differ"
    if value[2] not in RELATION_KINDS:
        return f"kind must be one of {', '.join(RELATION_KINDS)}"
    return None


RELATION_KINDS = tuple(k.value for k in RelationKind)
_FINITE = _number()
_POSITIVE = _number(above=0.0)
_NONNEGATIVE = _number(at_least=0.0)
_INT = _number(integer=True)
_POSITION = _pair("[x, y] with finite numbers", Position, lambda p: [p.x, p.y])
_SPATIAL = _name(SPATIAL_PATTERNS)
_TEMPORAL = _name(TEMPORAL_PATTERNS)
_REQUIREMENTS = Kind(_requirements_problem, lambda v: tuple((n, a) for n, a in v),
                     lambda v: [[n, a] for n, a in v])
_REQUIREMENT_OPTIONS = Kind(
    lambda v: next(filter(None, map(_requirements_problem, v)), None)
    if isinstance(v, list) and v else "must be a nonempty list of requirement lists",
    lambda v: tuple(map(_REQUIREMENTS.load, v)), lambda v: list(map(_REQUIREMENTS.dump, v)))
_RELATION = Kind(_relation_problem, lambda r: TemporalRelation(r[0], r[1], RelationKind(r[2])),
                 lambda r: [r.first, r.second, r.kind.value])


def _rows(cls, kinds: dict, keys: dict = {}, defaults: dict = {}) -> tuple[tuple, ...]:
    """A row for each field of dataclass `cls` that `kinds` gives a kind, in
    declaration order: its JSON key from `keys` (its name otherwise), and its
    default from `defaults` or else the dataclass, written as JSON."""
    rows = []
    for f in fields(cls):
        if f.name not in kinds:
            continue
        kind = kinds[f.name]
        default = defaults.get(f.name, f.default if f.default_factory is MISSING
                               else f.default_factory())
        if default is MISSING:
            default = REQUIRED
        elif default is not None:
            default = kind.dump(default)
        rows.append((keys.get(f.name, f.name), kind, default, f.name))
    return tuple(rows)


AGENT = Section(_rows(AgentSpec, {
    "id": _INT, "start": _POSITION, "v_max": _POSITIVE, "sensor_range": _NONNEGATIVE,
    "capabilities": _list_of(lambda c: isinstance(c, str), "strings",
                             lambda v: tuple(sorted(set(v))))}))
TASK = Section(_rows(Task, {
    "id": _INT, "region_center": _POSITION, "region_radius": _NONNEGATIVE,
    "duration": _POSITIVE, "requirements": _REQUIREMENTS, "release_time": _FINITE},
    keys={"region_center": "center", "region_radius": "radius"},
    defaults={"region_radius": 1.0}))
COMM = Section(_rows(CommParams, {f.name: _FINITE for f in fields(CommParams)}), CommParams)
STRATEGY = Section(_rows(StrategyConfig, {
    "kind": _name(STRATEGY_KINDS), "threshold_n": _number(at_least=1, integer=True),
    "interval": _POSITIVE, "fixed_point": _POSITION, "leader": _INT,
    "ring_order": _list_of(_is_int, "integer ids", tuple)}), StrategyConfig)
PHASE = Section(_rows(Phase, {"start": _FINITE, "end": _FINITE, "spatial": _SPATIAL,
                              "temporal": _TEMPORAL}), Phase)
GENERATOR = Section(_rows(GeneratorSpec, {
    "phases": Many(PHASE), "rate": _NONNEGATIVE, "low_frequency_factor": _NONNEGATIVE,
    "burst_rate": _NONNEGATIVE, "burst_size": _NONNEGATIVE, "burst_window": _NONNEGATIVE,
    "cluster_count": _number(at_least=1, integer=True), "cluster_std": _NONNEGATIVE,
    "sparse_min_dist": _NONNEGATIVE,
    "duration_range": _pair("[lo, hi] with 0 < lo <= hi", lambda lo, hi: (lo, hi), list),
    "radius": _NONNEGATIVE, "requirement_options": _REQUIREMENT_OPTIONS}), GeneratorSpec)
SCENARIO = Section(_rows(ScenarioConfig, {
    "map_path": Kind(lambda v: None if isinstance(v, str) else "must be a string path"),
    "agents": Many(AGENT), "params": COMM, "tasks": Many(TASK), "relations": Many(_RELATION),
    "strategy": STRATEGY, "horizon": _POSITIVE, "dt": _POSITIVE,
    "seed": _number(at_least=0, integer=True),  # random.Random would seed -n as n
    "planner_budget": _number(at_least=0.0, nullable=True),
    "node_limit": _number(at_least=0, integer=True, nullable=True), "gap": _NONNEGATIVE,
    "recheck_interval": _POSITIVE, "generator": GENERATOR},
    keys={"map_path": "map", "params": "comm"}))


# -- cross-field rules -------------------------------------------------------

def _placed(items: list, section: str, key: str, attr: str, build: Callable, grid: GridMap,
            errors: list[str]) -> tuple[list, set[int]]:
    """The walked `items` (None where refused) with unique ids and a free position
    `attr` (JSON `key`), built with it snapped, in id order; and all their ids."""
    built, ids = [], set()
    noun = section[:-1]
    for i, item in enumerate(items):
        if item is None:
            continue
        if item["id"] in ids:
            errors.append(f"{section}[{i}].id: duplicate {noun} id {item['id']}")
        ids.add(item["id"])
        pos, where = item[attr], f"{section}[{i}].{key}"
        if not grid.contains(pos):
            errors.append(f"{where}: outside the map")
        elif not grid.is_free(pos):
            errors.append(f"{where}: {noun} {item['id']} lies on an obstacle")
        else:
            built.append(build(**{**item, attr: grid.snap(pos)}))
    return sorted(built, key=lambda x: x.id), ids


def scenario_from_dict(raw: dict, base_dir: Path) -> ScenarioConfig:
    """The scenario `raw` describes: each field checked by its row, then the
    rules that relate fields to each other and to the map."""
    errors: list[str] = []
    top = SCENARIO.walk(raw, "", errors)
    grid = None
    if top["map_path"] is not None:
        try:
            grid = load_grid(base_dir / top["map_path"])
        except (OSError, ValueError) as exc:  # MapError, a NUL byte, or text that is not UTF-8
            errors.append(f"map: {exc}")
    if grid is None:
        raise ScenarioError("; ".join(errors))

    agents, agent_ids = _placed(top["agents"], "agents", "start", "start", AgentSpec, grid,
                                errors)
    if not top["agents"]:
        errors.append("agents: at least one agent required")
    tasks, task_ids = _placed(top["tasks"], "tasks", "center", "region_center", Task, grid,
                              errors)

    pairs = set()
    for i, rel in enumerate(top["relations"]):
        if rel is None:
            continue
        pair = (min(rel.first, rel.second), max(rel.first, rel.second))
        if pair in pairs:
            errors.append(f"relations[{i}]: duplicate relation for pair {pair}")
        pairs.add(pair)
        if raw.get("generator") is None:  # otherwise a generated task may be the one named
            errors.extend(f"relations[{i}]: dangling task id {tid}"
                          for tid in (rel.first, rel.second) if tid not in task_ids)

    strategy = top["strategy"]
    if strategy is not None:
        point = strategy.fixed_point
        if point is not None and not (grid.contains(point) and grid.is_free(point)):
            errors.append("strategy.fixed_point: not a free position")
        elif point is not None:
            strategy.fixed_point = grid.snap(point)
        if strategy.ring_order is not None and sorted(strategy.ring_order) != sorted(agent_ids):
            errors.append("strategy.ring_order: must list each agent id once")
        if strategy.leader is not None and strategy.leader not in agent_ids:
            errors.append("strategy.leader: unknown agent id")

    horizon, dt = top["horizon"], top["dt"]  # None where refused
    if horizon and horizon > MAX_HORIZON:
        errors.append(f"horizon: {horizon} s is more than the {MAX_HORIZON:,.0f} s allowed")
    if horizon and dt and horizon / dt > MAX_TICKS:
        errors.append(f"horizon: {horizon} s at dt {dt} s is {horizon / dt:.3g} ticks, "
                      f"more than the {MAX_TICKS} one trial may simulate")
    interval = strategy and strategy.interval  # fimr's deadline is at most this far ahead
    if interval and dt and interval <= FIMR_MARGIN_TICKS * dt:
        errors.append(f"strategy.interval: {interval} s is within fimr's {FIMR_MARGIN_TICKS}-tick "
                      f"margin ({FIMR_MARGIN_TICKS * dt:.3g} s at dt {dt} s): no task can fit")

    if errors:
        raise ScenarioError("; ".join(errors))
    return ScenarioConfig(**{**top, "grid": grid, "agents": agents, "tasks": tasks})


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


task_to_dict = TASK.dump  # a task as a scenario file lists it
serialize_scenario = SCENARIO.dump  # a config as a scenario file lists it


def build_simulator(cfg: ScenarioConfig, seed: Optional[int] = None) -> tuple[Simulator, object]:
    """Fresh simulator plus controller for one trial."""
    seed = cfg.seed if seed is None else seed
    tasks = {t.id: t for t in cfg.tasks}
    if cfg.generator is not None:
        next_id = max(tasks, default=-1) + 1
        for t in generate_tasks(cfg.generator, seed, cfg.grid, start_id=next_id):
            tasks[t.id] = t
    agents = [AgentState(a.id, a.start, a.v_max, a.sensor_range, frozenset(a.capabilities))
              for a in cfg.agents]
    sim = Simulator(cfg.grid, agents, cfg.params, tasks, cfg.relations,
                    horizon=cfg.horizon, dt=cfg.dt,
                    recheck_interval=cfg.recheck_interval)
    controller = make_controller(cfg.strategy,
                                 PlannerOptions(budget=cfg.planner_budget,
                                                node_limit=cfg.node_limit, gap=cfg.gap))
    return sim, controller
