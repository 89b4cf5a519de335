"""Measure a change against its parent on the perfbench workloads and write
a ``BENCH_<n>.json``.

Run from anywhere, one process at a time on an otherwise idle machine:

    python tools/bench_pair.py PARENT CHANGE --out BENCH_<n>.json \
        [--seed 0] [--pairs 10] [--workload mc-ab --workload mc-h]

PARENT and CHANGE are two checkout directories (the parent one made with
``git archive`` or ``git clone``).  For each workload the script runs
``perfbench/run.py --trace 0`` at the seed (0 by default) in the two
checkouts in alternating order, ten times each by default (the pairs a gain
claim needs), and keeps every run's end-to-end metrics, gate verdict and
failed cells, and the quality medians.  Beside its metrics, each run keeps
``setup_s_samples``, the start-up probe times whose median is its
``setup_s``, read from the run's ``perfbench/out`` record.  Each run also
records ``cpu_s``, the user + system CPU time of the whole ``run.py``
process and of every process it reaped (its setup probes and search
helpers, which it reaps at exit), read from ``os.times()`` around it, and
``cpu_s_per_cell``, that time over the cells the run attempted; both cover
the whole run, start-up, setup probes and the thread-pool check round
included, not only the timed rounds.
Once per checkout and workload it also runs a probe round in a fresh
interpreter, which counts the symmetric eigendecompositions (``eigh``, the
``dsyevd`` calls) and LAPACK's ``dsytrd`` (tridiagonal reduction),
``dpotrf`` (Cholesky) and ``dtrtri`` (triangular inverse) calls of one
round, wrapping each name where the package looks it up (``solver.dsyevd``,
``solver.dsytrd``, ``solver.dpotrf``, ``selection.dtrtri``), and fails if a
routine the workload calls was never counted.  That round keeps every
search in the probe's process, since a wrapper cannot count the calls of
the search's helper processes.  It also records each fit (``fits``), by
wrapping ``benchmarks.fit_method`` where ``_run_cell`` looks it up: the
cell's method, the selected ``beta`` and cost, ``mu``, ``mu - chi`` for a
constrained fit (None otherwise), the search's restart spread (its largest
restart cost less its smallest) and each restart's stop reason
(``tolerance`` or ``maxfev``).  ``change_over_parent``'s ``fits_equal`` is
whether every recorded value has the same bits in the two checkouts, and
its ``order_violations`` gives each side's count of fits whose search, over
a subset of its system's ``<system>a`` search domain on the same data,
selected a lower cost than that ``a`` fit (ROADMAP Direction 21).  The probe then runs two rounds with the helpers as a run uses them (mc-h's
searches start none) and records the CPU time that the probe interpreter's
threads other than the main one (the OpenBLAS pools' workers) used over the
second (``thread_cpu_s``, read from ``/proc/self/task``; None where that
directory is missing); on mc-ab it then times the thread-pool check round
(a wall time, not a metric).  It records how many helpers the probe's
searches started (``search_workers``).  The machine facts are those of
the parent's first run record, plus ``PYTHONDONTWRITEBYTECODE``
as this script's runs inherit it: where it is set, every run compiles the
package source afresh, which ``setup_s`` includes.  They also hold the live
thread counts of numpy's and scipy's OpenBLAS pools, as this script's
interpreter reads them through each library's getter (None where it exports
none; numpy's is a machine fact only, as the package calls no numpy LAPACK
routine):
``OPENBLAS_NUM_THREADS`` is None where it is unset, while each pool runs one
thread per CPU, and per checkout the most helpers its searches
started in any probe.
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


def thread_cpu_s() -> float | None:
    """The user + system CPU seconds that this interpreter's threads other
    than the main one have used, from ``/proc/self/task``; None where that
    directory is missing."""
    tasks = Path("/proc/self/task")
    if not tasks.is_dir():
        return None
    ticks = 0
    for task in tasks.iterdir():
        if int(task.name) == os.getpid():
            continue
        try:
            fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime and stime, stat fields 14 and 15
    return ticks / os.sysconf("SC_CLK_TCK")


def probe(root: Path, workload: str, seed: int) -> dict:
    """One round with ``eigh``, ``dsytrd``, ``dpotrf`` and ``dtrtri`` counted,
    two rounds with the helpers on, then the timed thread-pool round."""
    sys.path[:0] = [str(root / "src"), str(root)]
    from stable_sysid import _worker, benchmarks, selection, solver
    from perfbench import bench

    # each name is wrapped where the package looks it up at call time
    sites = {"eigh": (solver, "dsyevd"), "dsytrd": (solver, "dsytrd"), "dpotrf": (solver, "dpotrf"),
             "dtrtri": (selection, "dtrtri")}
    calls = dict.fromkeys(sites, 0)

    def counting(name, real):
        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return call

    fits, fit_method = [], benchmarks.fit_method

    def recording(data, method):
        fit = fit_method(data, method)
        _, report, sel = fit
        target, chi = method.selection.target, method.selection.chi
        restart_costs = [cost for _, cost, _ in sel.restarts]
        fits.append({"method": method.name, "beta": sel.beta, "cost": sel.cost, "mu": report.mu,
                     "mu_minus_chi": report.mu - chi if target.constrained else None,
                     "restart_spread": max(restart_costs) - min(restart_costs),
                     "stops": [stop for _, _, stop in sel.restarts]})
        return fit

    configs = bench.workload_configs(workload, seed)
    real = {name: getattr(owner, attribute) for name, (owner, attribute) in sites.items()}
    for name, (owner, attribute) in sites.items():
        setattr(owner, attribute, counting(name, real[name]))
    benchmarks.fit_method = recording
    _worker._ENABLED = False
    try:
        round_ = bench.run_round(configs)
    finally:
        for name, (owner, attribute) in sites.items():
            setattr(owner, attribute, real[name])
        benchmarks.fit_method = fit_method
        _worker._ENABLED = True
    uncounted = [name for name in CALLED[workload] if calls[name] == 0]
    if uncounted:
        raise RuntimeError(f"{workload} calls {uncounted}, but the probe counted none: "
                           "the package no longer looks them up where they are wrapped")
    counted = {f"{name}_per_round": count for name, count in calls.items()}
    # a first round with the helpers starts them, and outlasts the spin of
    # the counted round's last multi-threaded call, as rounds follow rounds
    # in a run
    bench.run_round(configs)
    before = thread_cpu_s()
    bench.run_round(configs)
    after = thread_cpu_s()
    pooled = bench.jobs_counterpart(workload, configs)
    return {
        **counted,
        "fits": fits,
        "round_s": round_.wall_s,
        "thread_cpu_s": None if before is None else after - before,
        "threadpool_round_s": None if pooled is None else pooled.wall_s,
        "threadpool_rows_equal": None if pooled is None else bench.outcome(pooled) == bench.outcome(round_),
        # the helpers that the searches of this interpreter started and that still run
        "search_workers": len(_worker._helpers),
    }


def children_cpu_s() -> float:
    times = os.times()
    return times.children_user + times.children_system


def run_benchmark(root: Path, workload: str, seed: int, side: str) -> dict:
    """One run's result line, record and CPU time; a gate failure (exit 1
    with a result line) is kept as ``correct: false``, a run without one
    stops the pairing."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    before = children_cpu_s()
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=1800)
    cpu_s = children_cpu_s() - before
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{workload} run of the {side} ({root}) exited {done.returncode} without a "
                         f"result line; stderr ends:\n{done.stderr[-3000:]}") from None
    record = json.loads((root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "cpu_s": cpu_s,
        "cpu_s_per_cell": cpu_s / result["attempted"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "setup_s_samples": record["setup_s_samples"],
        "quality": record["quality"],
        "environment": record["environment"],
    }


def run_probe(root: Path, workload: str, seed: int) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", str(root), workload, str(seed)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise SystemExit(f"probe of {root} on {workload} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def same_bits(fits: list, others: list) -> bool:
    """Whether two probes recorded the same fits, every float bit for bit."""
    def bits(fit):
        return {key: value.hex() if isinstance(value, float) else value for key, value in fit.items()}
    return [bits(fit) for fit in fits] == [bits(fit) for fit in others]


def order_violations(fits: list) -> int:
    """The fits that selected a lower cost than the ``<system>a`` fit before
    them, whose search domain holds theirs (each round fits a system's
    methods in turn, ``a`` first)."""
    baseline, count = {}, 0
    for fit in fits:
        system, letter = fit["method"][:-1], fit["method"][-1]
        if letter == "a":
            baseline[system] = fit["cost"]
        elif fit["cost"] < baseline[system]:
            count += 1
    return count


def side_summary(runs: list, probed: dict) -> dict:
    names = runs[0]["metrics"]
    return {
        "runs": [{k: run[k] for k in ("correct", "attempted", "failed", "cpu_s", "cpu_s_per_cell", "metrics",
                                      "setup_s_samples")}
                 for run in runs],
        "median": {name: statistics.median(run["metrics"][name] for run in runs) for name in names},
        "cpu_s_per_cell_median": statistics.median(run["cpu_s_per_cell"] for run in runs),
        "quality": runs[0]["quality"],
        **probed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", choices=WORKLOADS, action="append", dest="workloads")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"seed": args.seed, "pairs": args.pairs, "workloads": {}}
    for workload in args.workloads or WORKLOADS:
        runs = {side: [] for side in sides}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_benchmark(sides[side], workload, args.seed, side))
                print(workload, side, runs[side][-1]["metrics"], flush=True)
        if "machine" not in report:
            env = runs["parent"][0]["environment"]
            report["machine"] = {key: env.get(key) for key in MACHINE_KEYS}
            report["machine"]["PYTHONDONTWRITEBYTECODE"] = os.environ.get("PYTHONDONTWRITEBYTECODE")
            report["machine"].update(pool_threads())
        summary = {side: side_summary(runs[side], run_probe(root, workload, args.seed))
                   for side, root in sides.items()}
        summary["change_over_parent"] = {
            name: summary["change"]["median"][name] / summary["parent"]["median"][name]
            for name in summary["parent"]["median"]
        }
        summary["change_over_parent"]["cpu_s_per_cell"] = (
            summary["change"]["cpu_s_per_cell_median"] / summary["parent"]["cpu_s_per_cell_median"])
        summary["change_over_parent"]["fits_equal"] = same_bits(summary["parent"]["fits"], summary["change"]["fits"])
        summary["change_over_parent"]["order_violations"] = {
            side: order_violations(summary[side]["fits"]) for side in sides}
        report["workloads"][workload] = summary
    report["machine"]["search_workers"] = {
        side: max(summary[side]["search_workers"] for summary in report["workloads"].values()) for side in sides
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:  # the fresh interpreter of run_probe
        root, workload, seed = sys.argv[2:5]
        print(json.dumps(probe(Path(root).resolve(), workload, int(seed))))
    else:
        sys.exit(main())
