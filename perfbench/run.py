#!/usr/bin/env python3
"""commplan benchmark: two workloads, end-to-end and traced per-layer metrics.

    python3 perfbench/run.py --workload desk-cocoplan --seed 42 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 55 --trace 1

Run from the repository root; the package is imported from ``src/``. Every
workload drives the program only through ``commplan.cli.main`` and
``commplan.scenario.load_scenario``, and checks every operation's output.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. perfbench/README.md defines
every metric and records how steady each one is.
"""

from __future__ import annotations

import os
import sys

# String hashing is randomized per process, and with it the layout of every
# attribute dict: identical runs moved by about 13% from one process to the
# next. A fixed hash seed (same for every commit measured) removes that, so
# the process re-executes itself with one. No new process is started.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})

# Single-threaded numpy: the planner itself starts no threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speedprobe import SpeedProbe
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
OUT_DIR = ROOT / ".perfbench_out"
GOLDENS = json.loads((BENCH_DIR / "goldens.json").read_text(encoding="utf-8"))

MODULES = ("workspace", "radio", "tasks", "schedule", "meeting", "planner",
           "simulator", "strategies", "scenario", "experiment", "cli")
SETUP_REPEATS = 15

# Traced boundaries: (metric prefix, module, attribute, keep one span per call).
LAYERS = (
    ("workspace.astar_length", "workspace", "astar_length", False),
    ("workspace.astar_travel_time", "workspace", "astar_travel_time", False),
    ("workspace.astar_path", "workspace", "astar_path", False),
    ("workspace.los_obstacle_length", "workspace", "los_obstacle_length", False),
    ("radio.quality", "radio", "quality", False),
    ("radio.comm_graph", "radio", "comm_graph", False),
    ("tasks.detect_tasks", "tasks", "detect_tasks", False),
    ("schedule.schedule_min_makespan", "schedule", "schedule_min_makespan", False),
    ("meeting.com_opt_fast", "meeting", "com_opt_fast", False),
    ("meeting.com_opt", "meeting", "com_opt", True),
    ("meeting.chain_event", "meeting", "chain_event", False),
    ("meeting.sel_com", "meeting", "sel_com", False),
    ("planner.cocoplan", "planner", "cocoplan", True),
    ("planner.low_bound", "planner", "low_bound", False),
    ("planner.up_bound", "planner", "up_bound", False),
    ("planner.build_plan", "planner", "build_plan", False),
    ("simulator.run", "simulator", "Simulator.run", True),
    ("strategies.on_tick", "strategies", "TeamCycleController.on_tick", False),
    ("strategies.on_tick", "strategies", "RingController.on_tick", False),
    ("strategies.on_tick", "strategies", "GreedyController.on_tick", False),
    ("experiment.run_trial", "experiment", "run_trial", True),
    ("scenario.load_scenario", "scenario", "load_scenario", True),
    ("scenario.generate_tasks", "scenario", "generate_tasks", True),
    ("scenario.build_simulator", "scenario", "build_simulator", True),
)
NODE_COUNTS = ("nodes_generated", "nodes_expanded", "nodes_pruned")


class MissingProgram(RuntimeError):
    pass


def import_commplan() -> dict:
    """Fresh import of every commplan module (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "commplan" or n.startswith("commplan.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"commplan.{m}") for m in MODULES}


@dataclass
class OpResult:
    elapsed: float                 # wall seconds, the command's scenario load excluded
    wall: float                    # wall seconds of the whole call
    replan_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    scale: float = 1.0             # to reference machine speed (speedprobe.py)


# -- workloads ----------------------------------------------------------------

def executed_intervals(lines, interval_cls):
    """Execution intervals from an event log; unfinished tasks end at +inf."""
    starts, ends = {}, {}
    for line in lines:
        ts, kind, *payload = line.split()
        if kind == "execution_start":
            starts[int(payload[0])] = float(ts)
        elif kind == "execution_end":
            ends[int(payload[0])] = float(ts)
    intervals = [interval_cls(t, s, ends.get(t, math.inf)) for t, s in sorted(starts.items())]
    return intervals, starts, ends


def time_pending_replans(mods, samples, clock):
    """Time `commplan.strategies.cocoplan` over cycles with a pending task."""
    strategies = mods["strategies"]
    inner = strategies.cocoplan

    def timed(team, tasks, *args, **kwargs):
        t0 = clock()
        plan = inner(team, tasks, *args, **kwargs)
        if tasks:
            samples.append((clock() - t0) * 1e3)
        return plan

    strategies.cocoplan = timed
    return lambda: setattr(strategies, "cocoplan", inner)


def time_exchange_ticks(mods, samples, clock):
    """Time greedy's per-tick decision over ticks in which a pair exchanged."""
    cls = mods["strategies"].GreedyController
    inner = cls.__dict__["on_tick"]

    def timed(self, sim, t):
        n0 = len(sim.events)
        t0 = clock()
        inner(self, sim, t)
        dt = clock() - t0
        if any(e.kind == "comm_event" for e in sim.events[n0:]):
            samples.append(dt * 1e3)

    cls.on_tick = timed
    return lambda: setattr(cls, "on_tick", inner)


class CliWorkload:
    """`commplan run SCENARIO --strategy S --trials 1 --seed N --out … --log-dir …`."""

    def __init__(self, name, scenario: Path, strategy: str, replan_timer):
        self.name = name
        self.scenario = scenario
        self.strategy = strategy
        self.replan_timer = replan_timer
        self.goldens = GOLDENS[name]["log_sha256"]

    def construct(self, mods):
        return mods["scenario"].load_scenario(self.scenario)

    def op(self, mods, cfg, seed, run_dir, clock) -> OpResult:
        cli = mods["cli"]
        run_dir.mkdir(parents=True)
        argv = ["run", str(self.scenario), "--strategy", self.strategy, "--trials", "1",
                "--seed", str(seed), "--out", str(run_dir / "metrics.csv"),
                "--log-dir", str(run_dir / "logs")]
        loads, replans = [], []
        inner_load = cli.load_scenario

        def timed_load(path):
            t0 = clock()
            try:
                return inner_load(path)
            finally:
                loads.append(clock() - t0)

        cli.load_scenario = timed_load
        restore = self.replan_timer(mods, replans, clock)
        captured = io.StringIO()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                t0 = clock()
                rc = cli.main(argv)
                wall = clock() - t0
        finally:
            restore()
            cli.load_scenario = inner_load
        if rc != 0:
            problems = [f"seed {seed}: exit code {rc}: {captured.getvalue().strip()}"]
        else:
            problems = self.check(mods, cfg, run_dir, seed)
        return OpResult(wall - sum(loads), wall, replans, problems)

    def check(self, mods, cfg, run_dir, seed) -> list[str]:
        tasks_mod = mods["tasks"]
        problems = []
        with open(run_dir / "metrics.csv", newline="", encoding="utf-8") as fh:
            finished = next(r for r in csv.DictReader(fh) if r["trial"] == "0")["finished"]
        lines = (run_dir / "logs" / "trial_0.log").read_text(encoding="utf-8").splitlines()
        intervals, starts, ends = executed_intervals(lines, tasks_mod.ExecutionInterval)
        if set(ends) - set(starts):
            problems.append(f"seed {seed}: tasks ended without starting: {sorted(set(ends) - set(starts))}")
        relations = [r for r in cfg.relations if r.first in starts or r.second in starts]
        ok, violated = tasks_mod.check_schedule(intervals, relations)
        if not ok:
            problems.append(f"seed {seed}: executed intervals violate {violated}")
        if int(finished) != len(ends):
            problems.append(f"seed {seed}: csv finished={finished} but the log has "
                            f"{len(ends)} execution_end lines")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        golden = self.goldens.get(str(seed))
        if golden is not None and golden != digest:
            problems.append(f"seed {seed}: log sha256 {digest} != golden {golden}")
        return problems


WORKLOADS = {
    "desk-cocoplan": CliWorkload("desk-cocoplan", DATA / "desk_scenario.json",
                                 "cocoplan", time_pending_replans),
    "subt10-greedy": CliWorkload("subt10-greedy", BENCH_DIR / "subt10_greedy.json",
                                 "greedy", time_exchange_ticks),
}


# -- measurement --------------------------------------------------------------

def op_seeds(seed: int):
    """Input seed of each op: the run's seed first, then a stream drawn from
    it, so runs with nearby seeds share no inputs."""
    yield seed
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1 << 30)


def run_op(workload, mods, ctx, seed, workdir, probe: SpeedProbe | None = None) -> OpResult:
    """One op; with a running probe, its times exclude the probe's and carry
    the op's scale to reference speed."""
    run_dir = workdir / f"seed{seed}"
    clock = probe.clock if probe else perf_counter
    mark = probe.mark() if probe else 0
    t0 = clock()
    try:
        result = workload.op(mods, ctx, seed, run_dir, clock)
    except Exception:
        wall = clock() - t0
        result = OpResult(wall, wall, problems=[f"seed {seed} raised:\n{traceback.format_exc()}"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if probe:
        result.scale = probe.scale_since(mark)
    return result


def install_tracer(tracer: Tracer, mods) -> None:
    modules = list(mods.values())
    extra = tracer.extra
    search_stats = mods["planner"].SearchStats

    def travel_pair(args, kwargs, result):
        a, b, grid = args[:3]
        ca, cb = grid.cell_at(a), grid.cell_at(b)
        extra["workspace.travel.lookups"] = extra.get("workspace.travel.lookups", 0) + 1
        extra.setdefault("workspace.travel.pairs", set()).add((ca, cb) if ca <= cb else (cb, ca))

    def plan_before(args, kwargs, parent):
        if kwargs.get("stats") is None:
            kwargs["stats"] = search_stats()
        tasks = args[1] if len(args) > 1 else kwargs["tasks"]
        if parent == "strategies.on_tick" and tasks:
            extra["strategies.replans"] = extra.get("strategies.replans", 0) + 1

    def plan_after(args, kwargs, result):
        for key in NODE_COUNTS:
            extra[f"planner.{key}"] = extra.get(f"planner.{key}", 0) + getattr(kwargs["stats"], key)

    hooks = {"astar_length": {"after": travel_pair}, "astar_path": {"after": travel_pair},
             "cocoplan": {"before": plan_before, "after": plan_after}}
    for name, module, attr, span in LAYERS:
        owner = mods[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            tracer.patch_method(getattr(owner, cls_name), attr, name, span=span, **hooks.get(attr, {}))
        else:
            tracer.patch_function(modules, owner, attr, name, span=span, **hooks.get(attr, {}))


def end_to_end(results, setup_samples, rss_mb):
    """Timings at reference machine speed: each op's times times its scale."""
    timed = [r for r in results if not r.problems] or results
    replans = [ms * r.scale for r in timed for ms in r.replan_ms]
    return {
        "setup_s": (statistics.median(setup_samples), "s", len(setup_samples)),
        "run_s": (statistics.median(r.elapsed * r.scale for r in timed), "s", len(timed)),
        "replan_ms_mean": (statistics.mean(replans), "ms", len(replans)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


def per_layer(tracer: Tracer, traced: OpResult, untraced: OpResult):
    stats, extra = tracer.stats, tracer.extra
    out = {}
    for name in dict.fromkeys(name for name, *_ in LAYERS):
        calls, _, _, self_s = stats[name]
        out[f"{name}.calls"] = (calls, "count", 1)
        out[f"{name}.self_pct"] = (100.0 * self_s / traced.wall, "%", 1)

    def ratio(num, den):
        return num / den if den else 0.0

    pairs = len(extra.get("workspace.travel.pairs", ()))
    out["workspace.travel.reuse"] = (ratio(extra.get("workspace.travel.lookups", 0), pairs), "ratio", 1)
    sched = stats["schedule.schedule_min_makespan"]
    out["schedule.infeasible"] = (ratio(sched[1], sched[0]), "ratio", 1)
    build = stats["planner.build_plan"]
    out["planner.build_plan.useful"] = (ratio(build[2], build[0]), "ratio", 1)
    for key in NODE_COUNTS:
        out[f"planner.{key}"] = (extra.get(f"planner.{key}", 0), "count", 1)
    out["strategies.replans"] = (extra.get("strategies.replans", 0), "count", 1)
    out["trace.wall_s"] = (traced.wall, "s", 1)
    out["trace.overhead_s"] = (traced.elapsed - untraced.elapsed, "s", 1)
    return out


def require_program() -> None:
    if not (SRC / "commplan" / "__init__.py").is_file() or not DATA.is_dir():
        raise MissingProgram(f"no commplan sources under {SRC} and {DATA}; run from the repository root")


def set_up(workload, repeats, probe: SpeedProbe | None = None):
    """Import commplan and construct the input `repeats` times; keep the last.
    With a running probe, each sample is at reference machine speed."""
    require_program()
    sys.path.insert(0, str(SRC))
    clock = probe.clock if probe else perf_counter
    samples = []
    for _ in range(repeats):
        mark = probe.mark() if probe else 0
        t0 = clock()
        mods = import_commplan()
        ctx = workload.construct(mods)
        dt = clock() - t0
        samples.append(dt * probe.scale_since(mark) if probe else dt)
    return mods, ctx, samples


def run_untraced(name: str, seed: int, seconds: float):
    """Set-ups, then ops until `seconds` is used up, all under the speed probe."""
    workload = WORKLOADS[name]
    workdir = OUT_DIR / f"{name}-{os.getpid()}"
    results = []
    t_start = perf_counter()
    durations = []
    try:
        with SpeedProbe() as probe:
            mods, ctx, setup_samples = set_up(workload, SETUP_REPEATS, probe)
            for op_seed in op_seeds(seed):
                t_op = perf_counter()
                results.append(run_op(workload, mods, ctx, op_seed, workdir, probe))
                durations.append(perf_counter() - t_op)
                # Stop where one more typical op would end further past the
                # budget than stopping now falls short of it.
                if perf_counter() - t_start + statistics.median(durations) / 2 > seconds:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    notes = [f"wall run_s median {statistics.median(r.elapsed for r in results):.4f} s, "
             f"probe median {1e3 * statistics.median(probe.samples):.4f} ms (n={len(probe.samples)}), "
             f"op scales {', '.join(f'{r.scale:.3f}' for r in results)}"]
    return results, end_to_end(results, setup_samples, rss_mb), notes


def run_traced(name: str, seed: int):
    """Fixed work, so exact counters can be compared: op 0 untraced, then op 0
    traced twice."""
    workload = WORKLOADS[name]
    mods, ctx, _ = set_up(workload, 1)
    workdir = OUT_DIR / f"{name}-{os.getpid()}"
    tracer = Tracer()
    try:
        results = [run_op(workload, mods, ctx, seed, workdir)]
        install_tracer(tracer, mods)
        results.append(run_op(workload, mods, ctx, seed, workdir))
        first = tracer.exact_counters()
        dump = tracer.dump()
        metrics = per_layer(tracer, results[1], results[0])
        tracer.reset()
        results.append(run_op(workload, mods, ctx, seed, workdir))
        second = tracer.exact_counters()
    finally:
        tracer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    if differ:
        print(f"FLAG: exact counters differ between identical traced passes: {differ}", file=sys.stderr)
    metrics["trace.counter_mismatches"] = (len(differ), "count", 1)
    OUT_DIR.mkdir(exist_ok=True)
    dump["exact_counters"] = first
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(dump), encoding="utf-8")
    return results, metrics, []


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    results, metrics, notes = run_traced(name, seed) if trace else run_untraced(name, seed, seconds)
    failed = [r for r in results if r.problems]
    for r in failed:
        print("\n".join(r.problems), file=sys.stderr)
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": metrics, "notes": notes}


def expected_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(name: str, result: dict, trace: bool) -> dict:
    """Print the human table; return the contract's JSON object."""
    metrics = result["metrics"]
    expected = expected_metrics(trace)
    got = {k: unit for k, (_, unit, _) in metrics.items()}
    if got != expected:
        raise RuntimeError(f"metrics {sorted(set(got.items()) ^ set(expected.items()))} "
                           f"disagree with BENCHMARK.json")
    print(f"# {name}: {result['attempted']} ops, {result['failed']} failed, correct={result['correct']}")
    for key, (value, unit, n) in metrics.items():
        print(f"{key:44s} {value:>16.6f} {unit:6s} n={n}")
    for line in result["notes"]:
        print(f"# {line}")
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}


def run_all(args) -> int:
    """Every workload, each in a fresh process, one after another."""
    rc = 0
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            rc = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
