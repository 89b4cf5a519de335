"""Measure a change against its parent on the perfbench workloads and write
a ``BENCH_<n>.json``.

Run from anywhere, one process at a time on an otherwise idle machine:

    python tools/bench_pair.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are two checkout directories (the parent one made with
``git archive`` or ``git clone``).  For each workload the script runs
``perfbench/run.py --trace 0`` at seed 0 in the two checkouts in alternating
order, ten times each (the pairs a gain claim needs), and keeps every run's
end-to-end metrics, gate verdict and failed cells, and the quality medians.
Once per checkout and workload it also runs a probe round in a fresh
interpreter, which counts the ``numpy.linalg.eigh`` calls and LAPACK's
``dsytrd`` (tridiagonal reduction), ``dpotrf`` (Cholesky) and ``dtrtri``
(triangular inverse) calls of one round, wrapping each name where the
package looks it up (``solver.dsytrd``, ``solver.dpotrf``,
``selection.dtrtri``), and fails if a routine the workload calls was never
counted.  That round keeps every search in the probe's process, since a
wrapper cannot count the calls of the search's worker process; on mc-ab
the probe then times the thread-pool check round (a wall time, not a
metric) with the worker as a run uses it, and records whether a search
started one (``search_worker``; always false for a checkout without the
worker).  The machine facts
are those of the parent's first run record, plus ``PYTHONDONTWRITEBYTECODE``
as this script's runs inherit it: where it is set, every run compiles the
package source afresh, which ``setup_s`` includes.  They also hold the live
thread counts of numpy's and scipy's OpenBLAS pools, as this script's
interpreter reads them through each library's getter (None where it exports
none): ``OPENBLAS_NUM_THREADS`` is None where it is unset, while each pool
runs one thread per CPU, and per checkout whether its searches used a
worker in any probe.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mc-ab", "mc-h")
PAIRS = 10
SEED = 0
# the counted routines each workload calls at seed 0: mc-h's plain-EB searches
# make no tridiagonal reduction and no triangular inverse
CALLED = {"mc-ab": ("eigh", "dsytrd", "dpotrf", "dtrtri"), "mc-h": ("eigh", "dpotrf")}
MACHINE_KEYS = ("nproc", "blas", "blas_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "python", "numpy", "scipy")


def pool_threads() -> dict:
    """The live thread counts of numpy's and scipy's OpenBLAS pools, read
    through the getter each library's LAPACK extension links, or None where
    it exports none."""
    from numpy.linalg import _umath_linalg
    from scipy.linalg import _flapack

    counts = {}
    for key, module, name in (("numpy_blas_threads", _umath_linalg, "scipy_openblas_get_num_threads64_"),
                              ("scipy_blas_threads", _flapack, "scipy_openblas_get_num_threads")):
        getter = getattr(ctypes.CDLL(module.__file__), name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
        counts[key] = None if getter is None else getter()
    return counts


def probe(root: Path, workload: str) -> dict:
    """One round with ``eigh``, ``dsytrd``, ``dpotrf`` and ``dtrtri`` counted,
    then the timed thread-pool round."""
    sys.path[:0] = [str(root / "src"), str(root)]
    import numpy as np
    from stable_sysid import selection, solver
    from perfbench import bench

    try:
        from stable_sysid import _worker
    except ImportError:  # a checkout whose searches have no worker
        _worker = None

    # each name is wrapped where the package looks it up at call time
    sites = {"eigh": np.linalg, "dsytrd": solver, "dpotrf": solver, "dtrtri": selection}
    calls = dict.fromkeys(sites, 0)

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    configs = bench.workload_configs(workload, SEED)
    real = {name: getattr(owner, name) for name, owner in sites.items()}
    for name, owner in sites.items():
        setattr(owner, name, counting(name, real[name]))
    if _worker is not None:
        _worker._ENABLED = False
    try:
        round_ = bench.run_round(configs)
    finally:
        for name, owner in sites.items():
            setattr(owner, name, real[name])
        if _worker is not None:
            _worker._ENABLED = True
    uncounted = [name for name in CALLED[workload] if calls[name] == 0]
    if uncounted:
        raise RuntimeError(f"{workload} calls {uncounted}, but the probe counted none: "
                           "the package no longer looks them up where they are wrapped")
    counted = {f"{name}_per_round": count for name, count in calls.items()}
    pooled = bench.jobs_counterpart(workload, configs)
    return {
        **counted,
        "round_s": round_.wall_s,
        "threadpool_round_s": None if pooled is None else pooled.wall_s,
        "threadpool_rows_equal": None if pooled is None else bench.outcome(pooled) == bench.outcome(round_),
        "search_worker": _worker is not None and _worker._proc is not None,
    }


def run_benchmark(root: Path, workload: str, side: str) -> dict:
    """One run's result line and record; a gate failure (exit 1 with a result
    line) is kept as ``correct: false``, a run without one stops the pairing."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--trace", "0"]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=1800)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload} run of the {side} ({root}) exited {done.returncode} without a "
                         f"result line; stderr ends:\n{done.stderr[-3000:]}") from None
    record = json.loads((root / "perfbench" / "out" / f"{workload}-seed{SEED}-trace0.json").read_text())
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "quality": record["quality"],
        "environment": record["environment"],
    }


def run_probe(root: Path, workload: str) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", str(root), workload]
    done = subprocess.run(command, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise SystemExit(f"probe of {root} on {workload} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def side_summary(runs: list, probed: dict) -> dict:
    names = runs[0]["metrics"]
    return {
        "runs": [{k: run[k] for k in ("correct", "attempted", "failed", "metrics")} for run in runs],
        "median": {name: statistics.median(run["metrics"][name] for run in runs) for name in names},
        "quality": runs[0]["quality"],
        **probed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"seed": SEED, "pairs": PAIRS, "workloads": {}}
    for workload in WORKLOADS:
        runs = {side: [] for side in sides}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_benchmark(sides[side], workload, side))
                print(workload, side, runs[side][-1]["metrics"], flush=True)
        if "machine" not in report:
            env = runs["parent"][0]["environment"]
            report["machine"] = {key: env.get(key) for key in MACHINE_KEYS}
            report["machine"]["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
            report["machine"].update(pool_threads())
        summary = {side: side_summary(runs[side], run_probe(root, workload))
                   for side, root in sides.items()}
        summary["change_over_parent"] = {
            name: summary["change"]["median"][name] / summary["parent"]["median"][name]
            for name in summary["parent"]["median"]
        }
        report["workloads"][workload] = summary
    report["machine"]["search_worker"] = {
        side: any(summary[side]["search_worker"] for summary in report["workloads"].values()) for side in sides
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:  # the fresh interpreter of run_probe
        root, workload = sys.argv[2:4]
        print(json.dumps(probe(Path(root).resolve(), workload)))
    else:
        sys.exit(main())
