"""Run one workload of the Monte-Carlo cell benchmark and print its metrics.

    python3 perfbench/run.py --workload mc-ab --seed 0 --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` times untraced rounds and
prints the end-to-end metrics; ``--trace 1`` alternates untraced rounds
with traced ones and prints the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record (environment, rows, spans, full-scale estimate) is written under
``perfbench/out/``.  The exit code is 1 when the correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve()
ROOT = RUN_PY.parent.parent
WORKLOADS = ("mc-ab", "mc-h")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def import_library():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "stable_sysid" / "__init__.py").is_file():
        raise SystemExit(f"error: no stable_sysid sources under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import stable_sysid

    if Path(stable_sysid.__file__).resolve().parent != src / "stable_sysid":
        raise SystemExit(f"error: stable_sysid was imported from {stable_sysid.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    from perfbench import bench

    configs = bench.workload_configs(args.workload, args.seed)
    bench.check_feasibility(configs)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    record["environment"] = bench.environment(ROOT)
    reference = bench.reference_rows(args.workload, args.seed)
    record["reference"] = (
        f"rows checked against the committed reference for seed {args.seed}"
        if reference is not None
        else f"no committed reference for seed {args.seed}; q values are not checked against one"
    )
    if args.trace:
        metrics, rounds, problems = _traced(bench, configs, args, record, reference)
    else:
        metrics, rounds, problems = _untraced(bench, configs, args, record, reference)

    attempted = sum(len(r.rows) + len(r.failures) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    first = rounds[0]
    record.update(
        metrics=metrics,
        quality=bench.quality(first.rows),
        attempted=attempted,
        failed=failed,
        problems=problems,
        harness_calls=[r.calls for r in rounds],
        rows=[vars(row) for row in first.rows],
        failures=[vars(fail) for fail in first.failures],
    )
    out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {len(rounds)}")
    print("environment " + json.dumps(record["environment"]))
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']!r} {metric['unit']}")
    print(f"  cells attempted {attempted}, failed {failed} (fail_frac {failed / attempted:.3g})")
    print("  quality (deterministic for the seed) " + json.dumps(record["quality"]))
    print("  " + record["reference"])
    if "full_scale_estimate" in record:
        est = record["full_scale_estimate"]
        print(
            f"  full-scale estimate ({est['label']}): {est['runs']} runs x {est['methods']} "
            f"at {est['evals_per_fit']} evaluations = {est['total_h']:.2f} h serial"
        )
    print("  gate: " + ("ok" if not problems else "FAILED: " + "; ".join(problems)))
    print(f"  record: {out.relative_to(ROOT)}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def _untraced(bench, configs, args, record, reference):
    setup = bench.probe_setup(RUN_PY, args.workload, args.seed)
    rounds = bench.repeat_for(args.seconds, lambda: bench.run_round(configs))
    # the peak is read before the thread-pool check round can raise it
    metrics = bench.end_to_end_metrics(rounds, setup, bench.peak_rss_mb())
    counterpart = bench.jobs_counterpart(args.workload, configs)
    record["setup_s_samples"] = setup
    record["cell_s_samples"] = sum(len(r.rows) for r in rounds)
    return metrics, rounds, bench.gate(rounds, counterpart, reference=reference)


def _traced(bench, configs, args, record, reference):
    from perfbench import tracing

    tracer = tracing.Tracer()

    def pair():
        untraced = bench.run_round(configs)
        traced = bench.run_round(configs, lambda config: tracing.traced_monte_carlo(config, tracer))
        return untraced, traced

    pairs = bench.repeat_for(args.seconds, pair)
    counterpart = bench.jobs_counterpart(args.workload, configs)
    rounds = [untraced for untraced, _ in pairs]
    traced = [t for _, t in pairs]
    metrics = tracing.layer_metrics(
        tracer.spans,
        traced[0].rows,
        statistics.median(r.wall_s for r in rounds),
        statistics.median(r.wall_s for r in traced),
    )
    record["full_scale_estimate"] = tracing.full_scale_estimate(tracer.spans)
    record["spans"] = tracer.as_dicts()
    return metrics, rounds, bench.gate(rounds, counterpart, traced, reference)


if __name__ == "__main__":
    sys.exit(main())
