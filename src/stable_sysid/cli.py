"""Command-line interface.

Each invocation takes one JSON configuration file plus a few overrides:

    stable-sysid generate        --config gen.json  [--seed N] [--out DIR]
    stable-sysid fit             --config fit.json  [--seed N] [--out DIR]
    stable-sysid predict         --config run.json  [--out DIR]
    stable-sysid simulate        --config run.json  [--out DIR]
    stable-sysid benchmark       --config bench.json [--seed N] [--out DIR]
                                 [--runs N] [--full-scale]
    stable-sysid check-viability --config check.json

``fit`` runs the library's fit pipeline, :func:`benchmarks.fit_method`,
and writes the model and ``fit_report.json``: the selected point, the
solve's ``alpha_bar`` and ``mu``, and the search's trace, its
``evaluations``, ``factorizations`` and one ``[evaluations, best_cost,
stop_reason]`` per restart.  The report holds no timing.
``predict`` writes one-step-ahead predictions (``t,y,y_pred``) and prints
``q_pre``; it never runs the model in closed loop.  ``simulate`` also
free-runs the model (``t,y,y_pred,y_sim``) and prints ``q_pre`` and
``q_sim``; a diverging simulation exits 5.

``fit`` and ``benchmark`` take an optional ``selection`` block.  Its keys
(``method``, ``iota``, ``cap_aware_cost``, ``seed``, ``restarts``,
``max_evals``) are fields of :class:`SelectionConfig` and
:class:`OptimizerConfig` and override a base config: for ``fit`` the
library defaults, for ``benchmark`` each method's own preset from
:func:`benchmarks.standard_methods` (with the full-scale search budget
under ``--full-scale``).  Keys left out keep the base value.  ``fit``'s
top-level ``chi`` sets the selection's ``chi``, the norm budget that both
the search and the constrained fit use.

The kernel block of ``check-viability`` and of a ``model.json`` is the
library's :func:`kernels.kernel_from_config`; ``fit`` reads only its
structure fields.  The ``falsify`` block's keys (``samples``, ``radius``,
``seed``) set :func:`viability.numeric_falsifier`'s ``sample_count``,
``radius`` and ``seed``; keys left out keep that function's defaults.

Unknown configuration keys are rejected; the library's config classes and
functions validate the values, so every block (``model.json`` and the
``falsify`` block included) follows the library's rules.  Counts
(``seed``, ``n_train``, ``n_valid``, ``m``, ``runs``, ``input_dim``,
``model_order`` and the structure, selection and falsifier counts) must be
integral: 2 and 2.0 pass; 2.7, ``"2"`` and ``true`` exit 2, and so does a
negative seed.  Real values (``noise_std``, ``chi``, ``iota``,
``rho``, ``radius`` and kernel ``eta`` entries) must be finite numbers:
``"0.5"``, ``true``, ``Infinity`` and ``NaN`` exit 2.  A ``model.json``'s
``centers`` (N rows of 2m + 1) and ``coefficients`` (N) are arrays of
finite numbers: a string entry such as ``"0.5"``, a ``true``, a ragged row
or ``NaN`` exits 2.  Path values (``data``,
``model``, ``out``, ``model_name``, ``output_name``) must be strings and
``record_timing`` true or false, checked before any work.  An input file
(config, data CSV or ``model.json``) that is missing, unreadable, not UTF-8
or does not parse exits 2, and so does an output directory that cannot be
made or an output file that cannot be written.  The output directory is
made just before a command's first write, so a command that fails earlier
leaves none behind.  ``methods`` must be a list of method names.  Exit codes: 0
success, 2 input error, 3 infeasible stability target, 4 numeric failure,
5 divergence.
Commands are deterministic given config + seed: re-running overwrites the
same bytes (benchmark timing columns are zeroed unless ``record_timing``
is set, precisely to keep re-runs byte-identical).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import benchmarks
from .config import _config_flag, _reject_unknown
from .errors import DivergenceError, InfeasibleTargetError, InputError, NumericError
from .kernels import _structure_block, kernel_from_config, structure_from_config
from .predictor import _mean_abs_error, _read_json, _write_json, load_model, one_step_predict, run_model, save_model
from .selection import OptimizerConfig, SelectionConfig
from .solver import build_regression_data
from .viability import StabilityTarget, membership, numeric_falsifier

__all__ = ["main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERIC = 4
EXIT_DIVERGED = 5


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(args, allowed: set) -> dict:
    """The command's config object, its keys among ``allowed`` and its path
    and flag values of the right type, checked before any work."""
    cfg = _read_json(args.config, "config file")
    _reject_unknown(cfg, allowed, f"{args.command} config")
    for key in ("data", "model", "out", "model_name", "output_name"):
        if not isinstance(cfg.get(key, ""), str):
            raise InputError(f"{key} must be a string, got {cfg[key]!r}")
    _config_flag(cfg.get("record_timing", False), "record_timing")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise InputError(f"missing required key {key!r} in {where}")
    return cfg[key]


def _out_dir(cfg: dict, args) -> Path:
    """The output directory, made where it is missing.  Each command calls
    this just before its first write, so work that fails leaves no
    directory behind."""
    out = Path(args.out) if args.out else Path(cfg.get("out", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot create output directory {out}: {exc}") from exc
    return out


# selection-block keys: the fields of the configs that validate them, less a fit's own chi and target
_SELECTION_KEYS = tuple(f.name for f in fields(SelectionConfig) if f.name not in ("chi", "target", "optimizer"))
_OPTIMIZER_KEYS = tuple(f.name for f in fields(OptimizerConfig))
# falsify-block keys and the numeric_falsifier arguments they set
_FALSIFIER_ARGS = {"samples": "sample_count", "radius": "radius", "seed": "seed"}


def _parse_selection_block(block: dict, base: SelectionConfig, seed_override=None) -> SelectionConfig:
    """``base`` with the selection block's keys (and the seed override) applied."""
    _reject_unknown(block, {*_SELECTION_KEYS, *_OPTIMIZER_KEYS}, "selection block")
    selection = dict(block)
    optimizer = {key: selection.pop(key) for key in _OPTIMIZER_KEYS if key in selection}
    if seed_override is not None:
        selection["seed"] = seed_override
    return replace(base, optimizer=replace(base.optimizer, **optimizer), **selection)


# system keys: the spec's fields, its variant read as system, plus out
_SPEC_KEYS = tuple(f.name for f in fields(benchmarks.SyntheticSystemSpec) if f.name != "variant")
_SYSTEM_KEYS = {"system", *_SPEC_KEYS, "out"}


def _system_spec(cfg: dict, args, where: str, full_scale: bool = False):
    """The system spec of a ``generate`` or ``benchmark`` config."""
    given = {key: cfg[key] for key in _SPEC_KEYS if key in cfg}
    if args.seed is not None:
        given["seed"] = args.seed
    spec = benchmarks.SyntheticSystemSpec(_require(cfg, "system", where), **given)
    if full_scale and cfg.get("n_valid") is None:
        spec = replace(spec, n_valid=benchmarks.FULL_SCALE_N_VALID[spec.variant])
    return spec


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    cfg = _load_config(args, _SYSTEM_KEYS)
    spec = _system_spec(cfg, args, "generate config")
    train, valid = benchmarks.generate_dataset(spec)
    out = _out_dir(cfg, args)
    train_path = out / f"{spec.variant}_train.csv"
    valid_path = out / f"{spec.variant}_valid.csv"
    benchmarks.write_dataset_csv(train, train_path)
    benchmarks.write_dataset_csv(valid, valid_path)
    manifest = {
        "system": spec.variant,
        "seed": spec.seed,
        "n_train": spec.n_train,
        "n_valid": spec.n_valid,
        "noise_std": spec.noise_std,
        "train": train_path.name,
        "valid": valid_path.name,
    }
    _write_json(out / f"{spec.variant}_manifest.json", manifest)
    print(f"wrote {train_path} ({len(train)} rows) and {valid_path} ({len(valid)} rows)")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_config(args, {"data", "kernel", "target", "selection", "m", "chi", "out", "model_name"})
    dataset = benchmarks.read_dataset_csv(_require(cfg, "data", "fit config"))
    data = build_regression_data(dataset.u, dataset.y, cfg.get("m", benchmarks.MonteCarloConfig.model_order))
    target = StabilityTarget.from_config(_require(cfg, "target", "fit config"))
    # the search selects eta, and m sets input_dim: the block's own are ignored
    structure = structure_from_config(_structure_block(_require(cfg, "kernel", "fit config")))
    selection = _parse_selection_block(cfg.get("selection", {}), SelectionConfig(), args.seed)
    selection = replace(selection, target=target, chi=cfg.get("chi", selection.chi))
    method = benchmarks.MethodSpec("fit", structure, selection)
    model, report, sel = benchmarks.fit_method(data, method)
    out = _out_dir(cfg, args)
    model_path = out / cfg.get("model_name", "model.json")
    save_model(model, model_path)
    record = {
        "beta": sel.beta,
        "eta": list(sel.eta),
        "alpha_bar": report.alpha_bar,
        "effective_alpha": report.effective_alpha,
        "mu": report.mu,
        "cost": sel.cost,
        "evaluations": sel.evaluations,
        "factorizations": sel.factorizations,
        "restarts": [list(restart) for restart in sel.restarts],
        "constraint_active": report.constraint_active,
        "feasible": sel.feasible,
        "target": target.label(),
    }
    _write_json(out / "fit_report.json", record)
    print(f"wrote {model_path}: target={target.label()} beta={sel.beta:.3e} mu={report.mu:.6f}")
    return EXIT_OK


def _run_outputs(args, want: str) -> int:
    cfg = _load_config(args, {"model", "data", "out", "output_name"})
    model = load_model(_require(cfg, "model", f"{want} config"))
    dataset = benchmarks.read_dataset_csv(_require(cfg, "data", f"{want} config"))
    if want == "predict":
        predicted = one_step_predict(model, dataset.u, dataset.y)
        columns = {"y": dataset.y, "y_pred": predicted}
        scores = {"q_pre": _mean_abs_error(dataset.y, predicted, model.model_order)}
    else:
        result = run_model(model, dataset.u, dataset.y)
        columns = {"y": dataset.y, "y_pred": result.predicted, "y_sim": result.simulated}
        scores = {"q_pre": result.q_pre, "q_sim": result.q_sim}
    path = _out_dir(cfg, args) / cfg.get("output_name", f"{want}.csv")
    benchmarks._write_csv(path, ["t", *columns], (
        [t + 1, *(benchmarks._fmt(col[t]) for col in columns.values())] for t in range(len(dataset))
    ))
    print(f"wrote {path}")
    for name, value in scores.items():
        print(f"{name} = {value!r}")
    return EXIT_OK


def cmd_predict(args) -> int:
    return _run_outputs(args, "predict")


def cmd_simulate(args) -> int:
    return _run_outputs(args, "simulate")


def cmd_benchmark(args) -> int:
    cfg = _load_config(args, _SYSTEM_KEYS | {"methods", "runs", "selection", "m", "record_timing"})
    full = bool(args.full_scale)
    spec = _system_spec(cfg, args, "benchmark config", full_scale=full)
    runs = cfg.get("runs", 501 if full else 20) if args.runs is None else args.runs

    def configured(method):
        selection = replace(method.selection, optimizer=benchmarks.FULL_SCALE_OPTIMIZER) if full else method.selection
        return replace(method, selection=_parse_selection_block(cfg.get("selection", {}), selection))

    available = {m.name: configured(m) for m in benchmarks.standard_methods(spec.variant)}
    wanted = cfg.get("methods", sorted(available))
    if not isinstance(wanted, list):
        raise InputError(f"methods must be a list of method names, got {type(wanted).__name__}")
    methods = []
    for name in wanted:
        if not isinstance(name, str):
            raise InputError(f"methods must hold method names, got {type(name).__name__} {name!r}")
        if name not in available:
            raise InputError(
                f"unknown method {name!r} for system {spec.variant}; available: {sorted(available)}"
            )
        methods.append(available[name])
    config = benchmarks.MonteCarloConfig(
        runs=runs,
        systems=(spec,),
        methods=tuple(methods),
        model_order=cfg.get("m", benchmarks.MonteCarloConfig.model_order),
    )
    result = benchmarks.run_monte_carlo(config)
    out = _out_dir(cfg, args)
    results_path = out / "results.csv"
    benchmarks.write_results_csv(result.rows, results_path, record_timing=cfg.get("record_timing", False))
    summary = benchmarks.summarize(result.rows)
    header = ["system", "method", "metric", "count", "min", "q1", "median", "q3", "max"]
    benchmarks._write_csv(out / "summary.csv", header, (
        [*(entry[k] for k in header[:4]), *(benchmarks._fmt(entry[k]) for k in header[4:])] for entry in summary
    ))
    print(f"wrote {results_path} ({len(result.rows)} rows, {len(result.failures)} failures)")
    for entry in summary:
        print(
            f"{entry['system']}/{entry['method']} {entry['metric']}: "
            f"median={entry['median']:.6g} (q1={entry['q1']:.6g}, q3={entry['q3']:.6g}, n={entry['count']})"
        )
    for failure in result.failures:
        print(f"failure: run {failure.run} {failure.system}/{failure.method}: {failure.error}")
    return EXIT_OK


def cmd_check_viability(args) -> int:
    cfg = _load_config(args, {"kernel", "target", "falsify"})
    kernel = kernel_from_config(_require(cfg, "kernel", "check-viability config"))
    target = StabilityTarget.from_config(_require(cfg, "target", "check-viability config"))
    if target.kind == "unconstrained":
        raise InputError("check-viability needs a constrained stability target")
    falsify = cfg.get("falsify")
    if falsify is not None:
        _reject_unknown(falsify, _FALSIFIER_ARGS.keys(), "falsify block")
    verdict = membership(kernel.structure, kernel.eta, target)
    if falsify is not None:
        witness = numeric_falsifier(kernel, target, **{_FALSIFIER_ARGS[k]: v for k, v in falsify.items()})
    # nothing is printed until every input has been checked
    print(f"target {target.label()}: {'member' if verdict else 'not member'}")
    if falsify is not None:
        if witness is None:
            print("falsifier: no witness found")
        else:
            print(f"falsifier: witness violating {witness.violated_condition} "
                  f"(margin {witness.margin!r})")
            for point in witness.points:
                print(f"  point: {np.asarray(point).tolist()}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stable-sysid",
        description="Learn stability-guaranteed nonlinear predictors by constrained kernel regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("generate", cmd_generate, "sample a benchmark dataset to CSV"),
        ("fit", cmd_fit, "select hyperparameters and fit a predictor model"),
        ("predict", cmd_predict, "one-step prediction against a dataset"),
        ("simulate", cmd_simulate, "free-run simulation against a dataset"),
        ("benchmark", cmd_benchmark, "Monte-Carlo comparison of fitting methods"),
        ("check-viability", cmd_check_viability, "closed-form viability verdict for a kernel"),
    ]
    for name, fn, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON configuration file")
        if name in ("generate", "fit", "benchmark"):
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name != "check-viability":
            p.add_argument("--out", default=None, help="override the output directory")
        if name == "benchmark":
            p.add_argument("--runs", type=int, default=None, help="override the run count")
            p.add_argument("--full-scale", action="store_true", help="full-size experiment")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except InfeasibleTargetError as exc:
        print(f"infeasible stability target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
