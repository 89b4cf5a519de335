"""Workloads, timed rounds, the correctness gate and the environment record.

A workload is a tuple of ``MonteCarloConfig``s, one per system, each run
through the library's public harness ``benchmarks.run_monte_carlo``.  A
round runs every config of the workload once; a measurement repeats rounds
with the same seed, so every round must return the same rows.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from stable_sysid.benchmarks import (
    FULL_SCALE_N_VALID,
    MonteCarloConfig,
    SyntheticSystemSpec,
    benchmark_selection_config,
    run_monte_carlo,
    standard_methods,
)
from stable_sysid.viability import feasible_parameterization

# metric name -> (unit, better); BENCHMARK.json lists the same names and units
END_TO_END = {
    "cells_per_s": ("cells/s", "higher"),
    "cell_s_p50": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_PROBES = 5
REFERENCE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = range(10)
REFERENCE_RTOL = 1e-6


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _selection(method: str):
    # cap_aware_cost is set here rather than inherited, so a change of the
    # library default (ROADMAP D1) leaves every workload unchanged
    return replace(benchmark_selection_config(method=method), cap_aware_cost=method == "gcv")


def workload_configs(name: str, seed: int) -> tuple:
    """The harness configs of one workload; each system gets its own methods."""
    if name == "mc-ab":
        return tuple(
            MonteCarloConfig(
                runs=1,
                systems=(SyntheticSystemSpec(variant, seed=seed),),
                methods=standard_methods(variant, _selection("gcv")),
            )
            for variant in ("A", "B")
        )
    if name == "mc-h":
        spec = SyntheticSystemSpec("H", seed=seed, n_valid=FULL_SCALE_N_VALID["H"])
        return (MonteCarloConfig(runs=1, systems=(spec,), methods=standard_methods("H", _selection("eb"))),)
    raise ValueError(f"unknown workload {name!r}")


def check_feasibility(configs) -> None:
    """The harness's up-front feasibility check, as set-up runs it."""
    for config in configs:
        for method in config.methods:
            feasible_parameterization(method.structure, method.target)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Round:
    """Rows and failures of one pass over a workload, and per harness call
    the cells it completed and its wall time."""

    rows: tuple
    failures: tuple
    calls: tuple  # (cells completed, wall seconds) per harness call

    @property
    def wall_s(self) -> float:
        return sum(wall for _, wall in self.calls)


def run_round(configs, harness=run_monte_carlo) -> Round:
    rows, failures, calls = [], [], []
    for config in configs:
        start = time.perf_counter()
        result = harness(config)
        calls.append((len(result.rows), time.perf_counter() - start))
        rows.extend(result.rows)
        failures.extend(result.failures)
    return Round(rows=tuple(rows), failures=tuple(failures), calls=tuple(calls))


def jobs_counterpart(name: str, configs):
    """The ``mc-ab`` cells run once through the harness's thread pool with
    ``n_jobs = max(2, nproc)``; None for ``mc-h``.  The gate requires the
    serial rows from it."""
    if name == "mc-h":
        return None
    return run_round(tuple(replace(config, n_jobs=max(2, cpu_count())) for config in configs))


def repeat_for(seconds: float, step) -> list:
    """Call ``step`` at least once, stopping when one more call would end
    further past ``seconds`` than stopping now falls short of it."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(step())
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(results) >= seconds:
            return results


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def outcome(round_: Round) -> tuple:
    """Everything a round returns except timings; equal rounds compare equal."""
    rows = tuple((r.run, r.system, r.method, r.q_pre, r.q_sim, r.feasible) for r in round_.rows)
    failures = tuple((f.run, f.system, f.method, f.error) for f in round_.failures)
    return rows, failures


def reference_rows(workload: str, seed: int):
    """The committed ``(run, system, method, q_pre, q_sim)`` rows of the
    workload for the seed, or None if no reference holds that seed."""
    rows = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    return None if rows is None else [tuple(row) for row in rows]


def reference_entry(round_: Round) -> list:
    return [[r.run, r.system, r.method, r.q_pre, r.q_sim] for r in round_.rows]


def gate(rounds, counterpart=None, traced=(), reference=None) -> list:
    """Return the broken checks as messages; an empty list passes.

    Every ``q_*`` must be finite and every row feasible; every round must
    repeat the first one; the ``jobs_counterpart`` round and every traced
    round must match the untraced rows, value for value; the rows must
    match the committed ``reference`` rows, if given, within
    ``REFERENCE_RTOL``.
    """
    problems = []
    first = outcome(rounds[0])
    if not rounds[0].rows:
        problems.append("no cell completed")
    for i, round_ in enumerate(rounds, start=1):
        for row in round_.rows:
            cell = f"round {i} cell {row.run}/{row.system}/{row.method}"
            if not (math.isfinite(row.q_pre) and math.isfinite(row.q_sim)):
                problems.append(f"{cell}: non-finite q_pre={row.q_pre!r} q_sim={row.q_sim!r}")
            if not row.feasible:
                problems.append(f"{cell}: selected hyperparameters are not feasible")
        if i > 1 and outcome(round_) != first:
            problems.append(f"round {i} rows differ from round 1 with the same seed")
    if counterpart is not None and outcome(counterpart) != first:
        problems.append("parallel and serial rows of the same cells differ")
    for i, round_ in enumerate(traced, start=1):
        if outcome(round_) != first:
            problems.append(f"traced round {i} rows differ from the untraced rows")
    if reference is not None:
        found = reference_entry(rounds[0])
        if [tuple(row[:3]) for row in found] != [tuple(row[:3]) for row in reference]:
            problems.append("the cells differ from those of the committed reference")
        for row, ref in zip(found, reference):
            for name, value, expected in zip(("q_pre", "q_sim"), row[3:], ref[3:]):
                if not math.isclose(value, expected, rel_tol=REFERENCE_RTOL):
                    problems.append(
                        f"cell {row[0]}/{row[1]}/{row[2]}: {name}={value!r} differs from "
                        f"the committed reference {expected!r}"
                    )
    return problems


# ---------------------------------------------------------------------------
# metrics and environment
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def end_to_end_metrics(rounds, setup_seconds, rss_mb: float) -> dict:
    rows = [row for round_ in rounds for row in round_.rows]
    values = {
        "cells_per_s": sum(len(r.rows) for r in rounds) / sum(r.wall_s for r in rounds),
        "cell_s_p50": statistics.median(r.fit_seconds for r in rows) if rows else None,
        "setup_s": statistics.median(setup_seconds),
        "peak_rss_mb": rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in END_TO_END.items()}


def quality(rows) -> dict:
    """Median ``q_pre``/``q_sim`` over cells; deterministic for a fixed seed."""
    if not rows:
        return {"q_pre_median": None, "q_sim_median": None}
    return {
        "q_pre_median": statistics.median(r.q_pre for r in rows),
        "q_sim_median": statistics.median(r.q_sim for r in rows),
    }


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def environment(root: Path) -> dict:
    """Machine facts that change the numbers; BLAS threads are left as found."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": cpu_count(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


def probe_setup(run_py: Path, workload: str, seed: int, probes: int = SETUP_PROBES) -> list:
    """Seconds from starting a fresh interpreter until its harness is ready.

    Each probe runs ``run.py --setup-probe``, which imports the library,
    builds the workload's configs, runs the up-front feasibility check and
    prints ``ready``.
    """
    command = [sys.executable, str(run_py), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    seconds = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}: {line!r}")
        seconds.append(ready - start)
    return seconds
