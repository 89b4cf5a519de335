"""Digest of the CLI's deterministic outputs over a fixed command list.

Run with no flags:

    python tools/cli_digest.py

The script imports ``stable_sysid`` from its own checkout's ``src``, put
first on ``sys.path``, and exits 1 if the package resolves anywhere else,
so a digest never reads an installed copy.  Every command runs in-process, in one temporary working directory and with
relative paths only, so no output depends on where the script ran.  For each
command the script prints one ``sha256  name`` line for its standard output,
its standard error, its exit code and each file it wrote.  Two checkouts that
behave the same print the same lines: ``diff`` two runs to compare them.

The list covers ``generate`` on A, B and H, plus an H validation set of
1,200 samples whose 120,000 solver steps span many integration blocks;
``fit`` on all eight kernel structures and the iss, bibs, diss, dbibs,
viable and dviable targets at a small search budget, plus a k-fold ``fit``
at the same budget and one at 2 restarts, which on two or more CPUs runs
its second restart on a helper process; ``predict`` and
``simulate``, the H model on both H validation sets; ``check-viability``
with the falsifier, including narx_fading and a sum with a narx_fading
child, both with witnesses, a Gaussian member just inside its finite-rho
incremental boundary (``2 tau gamma - 1`` about 5e-9), whose witness is the
roundoff of the falsifier's ``k(a,a) + k(b,b) - 2 k(a,b)`` at ``tau`` about
1.5e7, and a matern32 kernel with ``gamma`` 1e200, whose ``3 tau gamma^2``
overflows; a one-run ``benchmark`` on A, B and H; and bad inputs that exit 2:
a string ``chi``, a ``true`` eta entry, an integer ``cap_aware_cost``, a
string ``record_timing``, the removed ``hh_dt`` (H solver step) and
``kfold_k`` (fold count) keys, a config root, a selection block and a
falsify block that are not JSON objects, and a falsifier radius of 1e300,
whose square overflows.  Last come bad input files, each a
copy of an earlier output with one value broken: a ``model.json`` center
entry written as a JSON string (``simulate``), a ``model.json`` whose last
center is one entry short (``predict``), a training CSV with a ``nan``
output (``fit``), and a training CSV cut to 6 samples, 4 regression rows,
too few for the five folds of a k-fold ``fit``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))
import stable_sysid  # noqa: E402

if Path(stable_sysid.__file__).resolve().parent != SRC / "stable_sysid":
    raise SystemExit(f"error: stable_sysid was imported from {stable_sysid.__file__}, not {SRC}")
from stable_sysid import cli  # noqa: E402

SEARCH = {"restarts": 1, "max_evals": 30}
KFOLD_SEARCH = {**SEARCH, "method": "kfold"}
KFOLD_RESTARTS_SEARCH = {"restarts": 2, "max_evals": 60, "method": "kfold"}
NARX = {"structure": "narx_fading", "model_order": 2, "window": 1}

GENERATE = [
    ("generate-A", {"system": "A", "seed": 3, "n_train": 60, "n_valid": 60, "out": "data"}),
    ("generate-B", {"system": "B", "seed": 4, "n_train": 60, "n_valid": 60, "out": "data"}),
    ("generate-H", {"system": "H", "seed": 5, "n_train": 60, "n_valid": 60, "out": "data"}),
    ("generate-H-long", {"system": "H", "seed": 8, "n_train": 40, "n_valid": 1200, "out": "long"}),
]

# (name, training data, kernel block, target)
FITS = [
    ("fit-linear_affine-viable", "B", {"structure": "linear_affine"}, {"kind": "viable", "rho": 0.5}),
    ("fit-polynomial-none", "B", {"structure": "polynomial", "degree": 2}, {"kind": "none"}),
    ("fit-gaussian-dbibs", "B", {"structure": "gaussian"}, {"kind": "dbibs"}),
    ("fit-matern32-diss", "B", {"structure": "matern32"}, {"kind": "diss"}),
    ("fit-narx_fading-dviable", "B", NARX, {"kind": "dviable", "rho": 0.5}),
    ("fit-feature_gaussian-iss", "A", {"structure": "feature_gaussian"}, {"kind": "iss"}),
    (
        "fit-sum-bibs",
        "A",
        {"structure": "sum", "children": [{"structure": "gaussian"}, {"structure": "linear_affine"}]},
        {"kind": "bibs"},
    ),
    (
        "fit-product_stationary-iss",
        "A",
        {"structure": "product_stationary", "left": {"structure": "linear_affine"}, "right": {"structure": "gaussian"}},
        {"kind": "iss"},
    ),
    ("fit-gaussian-dbibs-H", "H", {"structure": "gaussian"}, {"kind": "dbibs"}),
]

# (command, fit whose model runs, validation data directory, system)
RUNS = [
    ("predict", "fit-gaussian-dbibs", "data", "B"),
    ("simulate", "fit-gaussian-dbibs", "data", "B"),
    ("simulate", "fit-narx_fading-dviable", "data", "B"),
    ("simulate", "fit-sum-bibs", "data", "A"),
    ("simulate", "fit-gaussian-dbibs-H", "data", "H"),
    ("predict", "fit-gaussian-dbibs-H", "long", "H"),
    ("simulate", "fit-gaussian-dbibs-H", "long", "H"),
]

FALSIFY = {"samples": 4000, "radius": 5.0, "seed": 1}
CHECKS = [
    ("check-gaussian-diss", {"structure": "gaussian", "eta": [0.4, 1.0, 0.1]}, {"kind": "diss"}),
    ("check-gaussian-dviable-witness", {"structure": "gaussian", "eta": [3.0, 2.0, 0.1]}, {"kind": "dviable", "rho": 0.5}),
    (
        "check-gaussian-dviable-near-boundary",
        {"structure": "gaussian", "eta": [14751463.032274457, 3.389494326196924e-08, 0.0]},
        {"kind": "dviable", "rho": 0.7},
    ),
    ("check-narx_fading-iss-witness", {**NARX, "eta": [0.6, 0.5, 0.3]}, {"kind": "iss"}),
    ("check-narx_fading-diss-witness", {**NARX, "eta": [5.0, 2.0, 0.1]}, {"kind": "diss"}),
    ("check-narx_fading-dbibs", {**NARX, "eta": [0.6, 0.5, 0.3]}, {"kind": "dbibs"}),
    (
        "check-sum-narx-diss-witness",
        {"structure": "sum", "children": [{"structure": "gaussian"}, NARX], "eta": [0.5, 0.5, 2.0, 2.0, 0.1, 4.0, 1.0, 0.2]},
        {"kind": "diss"},
    ),
    ("check-feature_gaussian-bibs", {"structure": "feature_gaussian", "eta": [0.5, 0.7, 0.2]}, {"kind": "bibs"}),
    ("check-viability-matern32-huge-gamma", {"structure": "matern32", "eta": [1, 1e200, 0]}, {"kind": "diss"}),
]

BENCHMARKS = [
    (f"benchmark-{system}", {"system": system, "seed": 6, "n_train": 40, "n_valid": 60, "runs": 1, "selection": SEARCH})
    for system in ("A", "B", "H")
]


FIT_B = {"data": "data/B_train.csv", "kernel": {"structure": "gaussian"}, "target": {"kind": "diss"}}
CHECK = {"kernel": {"structure": "gaussian", "eta": [0.4, 1.0, 0.1], "input_dim": 5}, "target": {"kind": "diss"}}
# (name, command, config), each rejected before any work
BAD_INPUTS = [
    ("bad-fit-chi-string", "fit", {**FIT_B, "chi": "0.5"}),
    ("bad-check-eta-true", "check-viability", {**CHECK, "kernel": {**CHECK["kernel"], "eta": [True, 1.0, 0.1]}}),
    ("bad-fit-cap-aware-integer", "fit", {**FIT_B, "selection": {"cap_aware_cost": 1}}),
    ("bad-benchmark-record-timing", "benchmark", {"system": "B", "runs": 1, "record_timing": "yes"}),
    ("bad-generate-H-step", "generate", {"system": "H", "seed": 5, "n_train": 60, "n_valid": 60, "hh_dt": 0.003}),
    ("bad-fit-selection-kfold_k", "fit", {**FIT_B, "selection": {"method": "kfold", "kfold_k": 5}}),
    ("bad-fit-config-root", "fit", [FIT_B]),
    ("bad-fit-selection-block", "fit", {**FIT_B, "selection": [SEARCH]}),
    ("bad-check-falsify-block", "check-viability", {**CHECK, "falsify": [FALSIFY]}),
    ("check-viability-falsify-radius-overflow", "check-viability", {**CHECK, "falsify": {**FALSIFY, "radius": 1e300}}),
]


def _string_center(text):
    """A ``model.json`` text with its first center entry written as a string."""
    model = json.loads(text)
    model["centers"][0][0] = str(model["centers"][0][0])
    return json.dumps(model)


def _ragged_centers(text):
    """A ``model.json`` text whose last center is one entry short."""
    model = json.loads(text)
    model["centers"][-1].pop()
    return json.dumps(model)


def _first_six_samples(text):
    """A dataset CSV text cut to its header and first 6 samples."""
    return "\n".join(text.splitlines()[:7]) + "\n"


def _nan_output(text):
    """A dataset CSV text with the output of sample 5 replaced by nan."""
    lines = text.splitlines()
    t, u, _ = lines[5].split(",")
    lines[5] = f"{t},{u},nan"
    return "\n".join(lines) + "\n"


MODEL_B = "out/fit-gaussian-dbibs/model.json"
RUN_B = {"data": "data/B_valid.csv"}
# (name, command, config key of the broken file, its source, edit, config)
BAD_FILES = [
    ("bad-simulate-model-string-center", "simulate", "model", MODEL_B, _string_center, RUN_B),
    ("bad-predict-model-ragged-centers", "predict", "model", MODEL_B, _ragged_centers, RUN_B),
    ("bad-fit-data-nan", "fit", "data", "data/B_train.csv", _nan_output, {**FIT_B, "selection": SEARCH}),
    ("bad-fit-kfold-six-samples", "fit", "data", "data/B_train.csv", _first_six_samples,
     {**FIT_B, "selection": KFOLD_SEARCH}),
]


def commands():
    """``(name, argv, config)`` for every command, in run order; a command
    that writes files writes them to ``out/<name>``."""
    for name, cfg in GENERATE:
        yield name, ["generate"], cfg
    for name, system, kernel, target in FITS:
        data = f"data/{system}_train.csv"
        yield name, ["fit"], {"data": data, "kernel": kernel, "target": target, "selection": SEARCH, "out": f"out/{name}"}
    yield "fit-gaussian-diss-kfold", ["fit"], {**FIT_B, "selection": KFOLD_SEARCH, "out": "out/fit-gaussian-diss-kfold"}
    yield "fit-gaussian-diss-kfold-2-restarts", ["fit"], {**FIT_B, "selection": KFOLD_RESTARTS_SEARCH,
                                                          "out": "out/fit-gaussian-diss-kfold-2-restarts"}
    for want, fit, directory, system in RUNS:
        name = f"{want}-{fit}" if directory == "data" else f"{want}-{fit}-{directory}"
        yield name, [want], {"model": f"out/{fit}/model.json", "data": f"{directory}/{system}_valid.csv", "out": f"out/{name}"}
    for name, kernel, target in CHECKS:
        yield name, ["check-viability"], {"kernel": {**kernel, "input_dim": 5}, "target": target, "falsify": FALSIFY}
    for name, cfg in BENCHMARKS:
        yield name, ["benchmark"], {**cfg, "out": f"out/{name}"}
    for name, command, cfg in BAD_INPUTS:
        yield name, [command], cfg
    for name, command, key, source, edit, cfg in BAD_FILES:
        path = Path("broken") / f"{name}{Path(source).suffix}"
        path.parent.mkdir(exist_ok=True)
        path.write_text(edit(Path(source).read_text()))
        yield name, [command], {**cfg, key: str(path), "out": f"out/{name}"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(name, argv, cfg) -> list:
    """Run one command; the ``(digest, name)`` lines of everything it produced."""
    config = Path("configs") / f"{name}.json"
    config.write_text(json.dumps(cfg))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--config", str(config)])
    lines = [
        (sha256(stdout.getvalue().encode()), f"{name}/stdout"),
        (sha256(stderr.getvalue().encode()), f"{name}/stderr"),
        (sha256(str(code).encode()), f"{name}/exit"),
    ]
    if "out" not in cfg:
        files = []
    elif argv == ["generate"]:  # the systems share one data directory
        files = sorted(Path(cfg["out"]).glob(f"{cfg['system']}_*"))
    else:
        files = sorted(Path(cfg["out"]).glob("*"))
    lines += [(sha256(path.read_bytes()), f"{name}/{path.name}") for path in files]
    return lines


def main() -> None:
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("configs").mkdir()
            for name, argv, cfg in commands():
                for digest, label in run(name, argv, cfg):
                    print(f"{digest}  {label}")
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
