"""Check that two checkouts produce the same benchmark rows, bit for bit.

Run from anywhere:

    python tools/row_bits.py PARENT CHANGE

PARENT and CHANGE are two checkout directories (the parent one made with
``git archive`` or ``git clone``).  For each checkout, each perfbench
workload (mc-ab, mc-h) and each seed 0-9, the script runs one
``perfbench.bench.run_round(bench.workload_configs(workload, seed))`` in a
fresh interpreter with that checkout's ``src`` and root first on
``sys.path``, one process at a time.  The interpreters run in a temporary
directory with bytecode writing off, so neither checkout gains a file.

A cell is one (workload, seed, run, system, method).  The script compares
``float.hex`` of each row's ``q_pre`` and ``q_sim``, its ``feasible`` flag,
and the error of each failed cell.  It prints one line per cell that
differs, then a summary line with the largest relative difference
``|change - parent| / max(|parent|, |change|)`` of a ``q_pre`` or ``q_sim``
among the differing cells (0 where none differs), and exits 1 on any
difference; it exits 0 when every cell is equal.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("mc-ab", "mc-h")
SEEDS = range(10)


def probe(root: Path, workload: str, seed: int) -> dict:
    """The cells of one round, keyed ``"run system method"``."""
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import bench

    round_ = bench.run_round(bench.workload_configs(workload, seed))
    cells = {}
    for row in round_.rows:
        cells[f"{row.run} {row.system} {row.method}"] = {
            "q_pre": float(row.q_pre).hex(), "q_sim": float(row.q_sim).hex(), "feasible": bool(row.feasible)}
    for failure in round_.failures:
        cells[f"{failure.run} {failure.system} {failure.method}"] = {"error": str(failure.error)}
    return cells


def run_probe(root: Path, workload: str, seed: int, workdir: str) -> dict:
    command = [sys.executable, "-B", str(Path(__file__).resolve()), "--probe", str(root), workload, str(seed)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode != 0:
        raise SystemExit(f"round of {root} on {workload} seed {seed} failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def differences(parent: dict, change: dict) -> list:
    """One ``cell: field parent != change`` line per differing field."""
    lines = []
    for cell in sorted(parent.keys() | change.keys()):
        old, new = parent.get(cell, {}), change.get(cell, {})
        for name in sorted(old.keys() | new.keys()):
            if old.get(name) != new.get(name):
                lines.append(f"{cell}: {name} {old.get(name)!r} != {new.get(name)!r}")
    return lines


def largest_relative(parent: dict, change: dict) -> float:
    """The largest relative difference of a ``q_pre`` or ``q_sim`` that both
    rounds have, 0.0 where none differs."""
    largest = 0.0
    for cell in parent.keys() & change.keys():
        for name in ("q_pre", "q_sim"):
            if name in parent[cell] and name in change[cell]:
                old, new = float.fromhex(parent[cell][name]), float.fromhex(change[cell][name])
                if old != new:
                    largest = max(largest, abs(new - old) / max(abs(old), abs(new)))
    return largest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    differing = checked = 0
    largest = 0.0
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            for seed in SEEDS:
                parent, change = (run_probe(root, workload, seed, workdir) for root in roots)
                lines = differences(parent, change)
                for line in lines:
                    print(f"{workload} seed {seed} {line}")
                differing += len(lines)
                largest = max(largest, largest_relative(parent, change))
                checked += len(parent.keys() | change.keys())
                print(f"{workload} seed {seed}: {len(parent)} cells, {len(lines)} differences", flush=True)
    print(f"{checked} cells checked, {differing} differences, "
          f"largest relative q_pre/q_sim difference {largest:.3g}")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--probe"]:  # the fresh interpreter of run_probe
        root, workload, seed = sys.argv[2:5]
        print(json.dumps(probe(Path(root).resolve(), workload, int(seed))))
    else:
        sys.exit(main())
