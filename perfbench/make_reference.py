"""Write ``perfbench/reference.json``: the rows of every workload for the
reference seeds, which the correctness gate compares each run with.

    python3 perfbench/make_reference.py

Run from the repository root, and only for a change that is meant to alter
the fitted models; say in the change why the reference moved.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import WORKLOADS, import_library  # noqa: E402


def main() -> int:
    import_library()
    from perfbench import bench

    reference = {}
    for workload in WORKLOADS:
        reference[workload] = {}
        for seed in bench.REFERENCE_SEEDS:
            configs = bench.workload_configs(workload, seed)
            bench.check_feasibility(configs)
            round_ = bench.run_round(configs)
            problems = bench.gate([round_])
            if problems:
                print(f"{workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            reference[workload][str(seed)] = bench.reference_entry(round_)
            print(f"{workload} seed {seed}: {len(round_.rows)} rows", flush=True)
    bench.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
