"""The traced pass: the real harness, with one span per library call.

``traced_monte_carlo`` runs ``benchmarks.run_monte_carlo`` itself.  For the
length of the call it patches the module-level names the harness looks up
(``_run_cell``, ``generate_dataset``, ``fit_method``,
``select_hyperparameters``, ``solve_constrained`` and
``feasible_parameterization`` in ``benchmarks``; ``one_step_predict`` and
``simulate`` in ``predictor``) with wrappers that time each call as a span
kept in memory.  The library has no spans of its own, so the calls made
inside the hyperparameter search (Gram matrix, spectrum, ``alpha_bar`` root,
cost) are replayed at the selected ``(beta, eta)`` after the cell's row is
complete, outside its ``fit_seconds`` window.  Per-layer metrics are derived
from the spans alone.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from unittest import mock

from stable_sysid import benchmarks, predictor
from stable_sysid.kernels import gram_matrix
from stable_sysid.selection import eb_cost, gcv_cost
from stable_sysid.solver import find_alpha_bar, gamma_fn

from perfbench.bench import quality

REPLAYS = 5
FULL_SCALE_RUNS = 501
FULL_SCALE_EVALS = 900

# metric name -> unit; BENCHMARK.json lists the same names and units
PER_LAYER = {
    "benchmarks.generate_s": "s",
    "kernels.gram_s": "s",
    "solver.spectral_s": "s",
    "solver.root_s": "s",
    "solver.solve_s": "s",
    "selection.cost_eval_s": "s",
    "selection.select_s": "s",
    "selection.evals": "count",
    "selection.budget_hit_frac": "ratio",
    "selection.nm_overhead_s": "s",
    "predictor.predict_s": "s",
    "predictor.sim_step_us": "us",
    "predictor.q_pre_median": "y-units",
    "predictor.q_sim_median": "y-units",
    "viability.check_s": "s",
    "trace.overhead_frac": "ratio",
}

_COSTS = {"eb": eb_cost, "gcv": gcv_cost}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    cell: str
    thread: int
    start: float
    end: float
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class _OpenSpan:
    id: int
    cell: str
    attrs: dict


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, cell: str | None = None, parent: int | None = None):
        """Time the body.  The parent and the cell are those of the
        enclosing span of this thread unless given, which a span opened in a
        worker thread needs."""
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1].id
        if cell is None:
            cell = stack[-1].cell if stack else ""
        with self._lock:
            open_span = _OpenSpan(next(self._ids), cell, {})
        stack.append(open_span)
        start = time.perf_counter()
        try:
            yield open_span
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(open_span.id, parent, name, cell, threading.get_ident(), start, end, open_span.attrs)
                )

    def as_dicts(self) -> list:
        return [asdict(span) for span in sorted(self.spans, key=lambda s: s.id)]


# ---------------------------------------------------------------------------
# the traced pass
# ---------------------------------------------------------------------------

def traced_monte_carlo(config, tracer: Tracer) -> benchmarks.MonteCarloResult:
    """``run_monte_carlo`` with spans; returns the same rows and failures."""
    fits = threading.local()  # the FitProblem of the cell this thread runs

    def timed(name, fn, cell=None, attrs=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name, cell) as span:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span.attrs.update(attrs(result, *args, **kwargs))
                return result

        return wrapper

    harness_run_cell, harness_solve = benchmarks._run_cell, benchmarks.solve_constrained

    def solve(problem):
        fits.problem = problem
        return harness_solve(problem)

    def run_cell(config, run, system, method):
        # the harness call's span id keeps the cells of repeated passes apart
        cell = f"{root.id}:{run}/{system.variant}/{method.name}"
        selection = method.selection_config()
        with tracer.span("cell", cell, root.id) as span:
            span.attrs.update(
                system=system.variant,
                method=method.name,
                constrained=method.target.constrained,
                charge_cap=selection.target.constrained and selection.cap_aware_cost,
            )
            fits.problem = None
            row, failure = harness_run_cell(config, run, system, method)
            if row is not None:
                with tracer.span("replay"):
                    _replay(tracer, fits.problem, method.structure, selection.method)
        return row, failure

    wrappers = [
        (benchmarks, "_run_cell", run_cell),
        (benchmarks, "feasible_parameterization",
         timed("viability.feasible_parameterization", benchmarks.feasible_parameterization, "setup")),
        (benchmarks, "generate_dataset", timed("benchmarks.generate_dataset", benchmarks.generate_dataset)),
        (benchmarks, "fit_method", timed("benchmarks.fit_method", benchmarks.fit_method)),
        (benchmarks, "select_hyperparameters", timed(
            "selection.select_hyperparameters",
            benchmarks.select_hyperparameters,
            attrs=lambda sel, config, *_: {"evals": sel.evaluations, "max_evals": config.optimizer.max_evals},
        )),
        (benchmarks, "solve_constrained", timed("solver.solve_constrained", solve)),
        (predictor, "one_step_predict", timed("predictor.one_step_predict", predictor.one_step_predict)),
        (predictor, "simulate", timed(
            "predictor.simulate",
            predictor.simulate,
            attrs=lambda _, model, u, y_seed: {"steps": len(u) - len(y_seed)},
        )),
    ]
    with tracer.span("benchmarks.run_monte_carlo") as root, ExitStack() as patches:
        for module, name, wrapper in wrappers:
            patches.enter_context(mock.patch.object(module, name, wrapper))
        return benchmarks.run_monte_carlo(config)


def _replay(tracer, problem, structure, cost_method):
    """Re-run the search's inner calls at the selected point."""
    cost = _COSTS[cost_method]
    data, kernel = problem.data, problem.kernel
    y, m = data.targets, data.model_order
    for _ in range(REPLAYS):
        with tracer.span("kernels.gram_matrix"):
            K = gram_matrix(kernel, data.regressors)
        with tracer.span("solver.gamma_fn"):
            gamma_fn(K, y, m, problem.chi, problem.beta)
        with tracer.span("solver.find_alpha_bar"):
            find_alpha_bar(K, y, m, problem.chi)
        with tracer.span("selection.cost"):
            cost(problem.beta, kernel.eta, data, structure)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def cell_records(spans) -> list:
    """Per-layer seconds of each completed cell, from its spans."""
    by_cell = {}
    for span in spans:
        if span.cell and span.cell != "setup":
            by_cell.setdefault(span.cell, []).append(span)
    records = []
    for cell, members in by_cell.items():
        named = {}
        for span in members:
            named.setdefault(span.name, []).append(span)
        if "replay" not in named:
            continue  # the cell failed before its row was complete
        info = named["cell"][0].attrs
        select = named["selection.select_hyperparameters"][0]
        simulate_span = named["predictor.simulate"][0]
        spectral = statistics.median(s.seconds for s in named["solver.gamma_fn"])
        root = statistics.median(s.seconds for s in named["solver.find_alpha_bar"]) - spectral
        cost = statistics.median(s.seconds for s in named["selection.cost"])
        per_eval = cost + (root if info["charge_cap"] else 0.0)
        records.append(
            {
                "cell": cell,
                "system": info["system"],
                "method": info["method"],
                "constrained": info["constrained"],
                "generate_s": named["benchmarks.generate_dataset"][0].seconds,
                "gram_s": statistics.median(s.seconds for s in named["kernels.gram_matrix"]),
                "spectral_s": spectral,
                "root_s": root,
                "cost_eval_s": cost,
                "per_eval_s": per_eval,
                "select_s": select.seconds,
                "evals": select.attrs["evals"],
                "budget_hit": select.attrs["evals"] >= select.attrs["max_evals"],
                "nm_overhead_s": select.seconds - select.attrs["evals"] * per_eval,
                "solve_s": named["solver.solve_constrained"][0].seconds,
                "predict_s": named["predictor.one_step_predict"][0].seconds,
                "simulate_s": simulate_span.seconds,
                "sim_step_us": 1e6 * simulate_span.seconds / simulate_span.attrs["steps"],
            }
        )
    return records


def layer_metrics(spans, rows, untraced_wall_s: float, traced_wall_s: float) -> dict:
    """Every ``PER_LAYER`` metric, as medians over the traced cells."""
    records = cell_records(spans)

    def med(key, subset=records):
        return _median(r[key] for r in subset)

    q = quality(rows)
    checks = [s for s in spans if s.name == "viability.feasible_parameterization"]
    passes = sum(1 for s in spans if s.name == "benchmarks.run_monte_carlo")
    values = {
        "benchmarks.generate_s": med("generate_s"),
        "kernels.gram_s": med("gram_s"),
        "solver.spectral_s": med("spectral_s"),
        "solver.root_s": med("root_s", [r for r in records if r["constrained"]]),
        "solver.solve_s": med("solve_s"),
        "selection.cost_eval_s": med("cost_eval_s"),
        "selection.select_s": med("select_s"),
        "selection.evals": med("evals"),
        "selection.budget_hit_frac": (
            sum(r["budget_hit"] for r in records) / len(records) if records else None
        ),
        "selection.nm_overhead_s": med("nm_overhead_s"),
        "predictor.predict_s": med("predict_s"),
        "predictor.sim_step_us": med("sim_step_us"),
        "predictor.q_pre_median": q["q_pre_median"],
        "predictor.q_sim_median": q["q_sim_median"],
        # the harness checks every method once per call: seconds per call
        "viability.check_s": sum(s.seconds for s in checks) / passes if passes else None,
        "trace.overhead_frac": traced_wall_s / untraced_wall_s - 1.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def full_scale_estimate(spans) -> dict:
    """Computed, not measured: serial seconds for 501 runs of the traced
    methods at 900 evaluations per fit.

    Each cell costs 900 x (cost evaluation, plus the root where the cost is
    charged at the cap) plus generation, prediction and simulation as
    traced.  Nelder-Mead bookkeeping is left out.
    """
    by_method = {}
    for record in cell_records(spans):
        by_method.setdefault((record["system"], record["method"]), []).append(record)
    per_cell = {}
    for (system, method), records in sorted(by_method.items()):
        per_cell[method] = FULL_SCALE_EVALS * _median(r["per_eval_s"] for r in records) + sum(
            _median(r[key] for r in records) for key in ("generate_s", "predict_s", "simulate_s")
        )
    total = FULL_SCALE_RUNS * sum(per_cell.values())
    return {
        "label": "computed, not measured",
        "runs": FULL_SCALE_RUNS,
        "evals_per_fit": FULL_SCALE_EVALS,
        "methods": sorted(per_cell),
        "cell_s_by_method": per_cell,
        "total_s": total,
        "total_h": total / 3600.0,
    }
