"""Check the benchmark's seed-42 smoke report against the pinned counts.

Reads the JSON line that `perfbench/run.py` prints last and exits non-zero,
naming the first mismatch, when a workload is missing, a run failed, a traced
counter disagrees with its untraced replay, or a pinned count moved:

    python3 perfbench/run.py --workload all --seed 42 --seconds 3 --trace 1 \
        | tail -n 1 | python3 scripts/check_bench_smoke.py
"""
import json, sys
runs = json.load(sys.stdin)
if set(runs) != {"desk-cocoplan", "subt10-greedy"}:
    sys.exit(f"workloads missing from the report: {sorted(runs)}")
for name, run in runs.items():
    failed = run["failed"]
    mismatches = run["metrics"]["trace.counter_mismatches"]["value"]
    if failed or mismatches:
        sys.exit(f"{name}: failed {failed}, counter mismatches {mismatches}")
# Read through the stats= hook: a search that stopped filling it would report 0s.
desk = runs["desk-cocoplan"]["metrics"]
nodes = tuple(desk[f"planner.nodes_{kind}"]["value"]
              for kind in ("generated", "expanded", "pruned"))
if nodes != (3724, 359, 578):
    sys.exit(f"desk-cocoplan: traced search nodes {nodes}, expected (3724, 359, 578)")
# low_bound runs only where greedy_cap can beat the incumbent; a change that
# drops the skip calls it (and optimizes events) about twice as often.
# build_plan reads the event kept beside the rate of its candidate, so the
# event of each candidate is optimized once (1,142 com_opt_fast calls before).
calls = {layer: desk[f"{layer}.calls"]["value"]
         for layer in ("planner.low_bound", "meeting.com_opt_fast")}
if calls != {"planner.low_bound": 1131, "meeting.com_opt_fast": 1126}:
    sys.exit(f"desk-cocoplan: traced calls {calls}, expected low_bound 1131, com_opt_fast 1126")
# The search scores the same candidates in the same order: another order schedules others.
solves = desk["schedule.schedule_min_makespan.calls"]["value"]
if solves != 505:
    sys.exit(f"desk-cocoplan: traced schedule_min_makespan calls {solves}, expected 505")
# detect_tasks runs for an agent that moved since the last tick (on every released,
# undetected task) or that stands still while a task was released since (on those
# tasks only), and line of sight is traced only for tasks in range.
# The event optimizer builds as many chains placing as many agents, and a greedy
# claim with one eligible group looks up no travel time. Every tick reaches the
# controller, so a skip of unchanged work lives inside on_tick. up_bound runs once
# per distinct node, so a table of its floors cannot hide a second bounding path.
# A candidate is held as its key, which builds no more full plans and makes
# low_bound look up the same travel times from the same end positions.
# Optimizing the event of each candidate once also builds 16 fewer chains
# (1,194 chain_event and 3,582 sel_com calls before).
# com_opt skips its anchor scan when the com_opt_fast event already meets as
# the last agent becomes free; the skipped scan moved the desk chain_event,
# sel_com and los_obstacle_length pins (1,178, 3,534 and 827 before), and
# the com_opt_fast pin stays 1,126.
# The free-box test that answers most line-of-sight queries without a cell
# walk lives inside the traced los_obstacle_length, and the reach and
# free-space tests of radio.linked decide which pairs reach it, so its
# callers must not bypass it: both workloads pin the calls of that function.
expected = {("desk-cocoplan", "tasks.detect_tasks"): 31,
            ("desk-cocoplan", "planner.up_bound"): 2816,
            ("desk-cocoplan", "planner.build_plan"): 88,
            ("desk-cocoplan", "workspace.astar_travel_time"): 20007,
            ("desk-cocoplan", "strategies.on_tick"): 6001,
            ("subt10-greedy", "strategies.on_tick"): 6001,
            ("subt10-greedy", "tasks.detect_tasks"): 914,
            ("subt10-greedy", "workspace.los_obstacle_length"): 2755,
            ("desk-cocoplan", "workspace.los_obstacle_length"): 764,
            ("desk-cocoplan", "meeting.chain_event"): 1126,
            ("desk-cocoplan", "meeting.sel_com"): 3378,
            ("subt10-greedy", "workspace.astar_travel_time"): 0}
traced = {(name, layer): runs[name]["metrics"][f"{layer}.calls"]["value"]
          for name, layer in expected}
if traced != expected:
    sys.exit(f"traced calls {traced}, expected {expected}")
