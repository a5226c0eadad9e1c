"""Experiment orchestration: trials, metric aggregation, CSV export."""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Optional

from .scenario import ScenarioConfig, build_simulator
from .simulator import MetricsRecord, SimEvent
from .strategies import StrategyConfig

SERIES_BIN = 10.0      # s between robustness-series rows
SLOPE_WINDOW = 60.0    # s of completion curve behind each slope
CSV_COLUMNS = ("strategy", "env", "trial", "finished", "comm_num",
               "comm_int_mean", "comm_int_std", "idle_gap_mean", "idle_gap_std")


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else float("nan")

def _std(xs) -> float:
    xs = list(xs)
    if not xs:
        return float("nan")
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def _fmt(v) -> str:
    if isinstance(v, float):
        return "" if math.isnan(v) else f"{v:.6f}"
    return str(v)


def run_trial(cfg: ScenarioConfig, trial: int, strategy: Optional[StrategyConfig] = None):
    """One deterministic simulation run; trial index offsets the seed."""
    sim, controller = build_simulator(cfg, seed=cfg.seed + trial, strategy=strategy)
    events, metrics = sim.run(controller)
    return sim, events, metrics


def metrics_row(cfg: ScenarioConfig, strategy_kind: str, trial, metrics: MetricsRecord) -> dict:
    return {
        "strategy": strategy_kind,
        "env": cfg.env,
        "trial": trial,
        "finished": metrics.finished_tasks,
        "comm_num": metrics.comm_count,
        "comm_int_mean": _mean(metrics.comm_intervals),
        "comm_int_std": _std(metrics.comm_intervals),
        "idle_gap_mean": _mean(metrics.idle_gaps),
        "idle_gap_std": _std(metrics.idle_gaps),
    }


def run_experiment(cfg: ScenarioConfig, trials: int, out_path=None,
                   strategy: Optional[StrategyConfig] = None,
                   series_path=None, log_dir=None) -> list[dict]:
    """Per-trial metric rows plus mean/std summary rows.

    With `series_path`, also writes the per-10s robustness series: the
    cross-trial variance of cumulative completions and the least-squares
    slope of the completion curve over a sliding window. With `log_dir`,
    writes each trial's event log there as `trial_{k}.log`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if log_dir is not None:
        log_dir = Path(log_dir)
        log_dir.mkdir(parents=True, exist_ok=True)
    strategy_kind = (strategy or cfg.strategy).kind
    rows = []
    completion_series: list[dict[int, float]] = []
    for trial in range(trials):
        _, events, metrics = run_trial(cfg, trial, strategy=strategy)
        if log_dir is not None:
            write_event_log(log_dir / f"trial_{trial}.log", events)
        rows.append(metrics_row(cfg, strategy_kind, trial, metrics))
        completion_series.append(metrics.completion_times)

    numeric = ("finished", "comm_num", "comm_int_mean", "comm_int_std",
               "idle_gap_mean", "idle_gap_std")
    for agg_name, agg in (("mean", _mean), ("std", _std)):
        row = {"strategy": strategy_kind, "env": cfg.env, "trial": agg_name}
        for col in numeric:
            vals = [r[col] for r in rows[:trials] if not (isinstance(r[col], float) and math.isnan(r[col]))]
            row[col] = agg(vals) if vals else float("nan")
        rows.append(row)

    if out_path is not None:
        write_metrics_csv(out_path, rows)
    if series_path is not None:
        write_series_csv(series_path, completion_series, cfg.horizon)
    return rows


def write_metrics_csv(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


def write_series_csv(path, completion_series, horizon: float) -> None:
    trials = len(completion_series)
    grid_times = [k * SERIES_BIN for k in range(int(horizon // SERIES_BIN) + 1)]
    cumulative = []
    for series in completion_series:
        finishes = sorted(series.values())
        cum = []
        for t in grid_times:
            cum.append(sum(1 for f in finishes if f <= t))
        cumulative.append(cum)

    def slope(values: list[float], times: list[float]) -> float:
        n = len(values)
        if n < 2:
            return 0.0
        mt = sum(times) / n
        mv = sum(values) / n
        denom = sum((t - mt) ** 2 for t in times)
        if denom == 0:
            return 0.0
        return sum((t - mt) * (v - mv) for t, v in zip(times, values)) / denom

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "completed_mean", "completed_var", "slope_mean", "slope_std"])
        for i, t in enumerate(grid_times):
            vals = [cumulative[k][i] for k in range(trials)]
            mean_c = _mean(vals)
            var_c = _std(vals) ** 2
            lo = max(0, i - int(SLOPE_WINDOW // SERIES_BIN))
            slopes = [slope([cumulative[k][j] for j in range(lo, i + 1)],
                            grid_times[lo:i + 1]) for k in range(trials)]
            writer.writerow([_fmt(float(t)), _fmt(mean_c), _fmt(var_c),
                             _fmt(_mean(slopes)), _fmt(_std(slopes))])


def write_event_log(path, events: list[SimEvent]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for e in events:
            fh.write(e.line() + "\n")
