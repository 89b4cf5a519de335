"""Tests of the benchmark itself, on a tiny Monte-Carlo config.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from stable_sysid import benchmarks, predictor  # noqa: E402
from stable_sysid.benchmarks import (  # noqa: E402
    MonteCarloConfig,
    SyntheticSystemSpec,
    benchmark_selection_config,
    standard_methods,
)
from stable_sysid.selection import OptimizerConfig  # noqa: E402

from perfbench import bench, run, tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_configs(n_jobs: int = 1) -> tuple:
    selection = replace(
        benchmark_selection_config(method="gcv"), optimizer=OptimizerConfig(restarts=2, max_evals=16)
    )
    spec = SyntheticSystemSpec("B", seed=3, n_train=30, n_valid=40)
    return (MonteCarloConfig(runs=2, systems=(spec,), methods=standard_methods("B", selection), n_jobs=n_jobs),)


@pytest.fixture(scope="module")
def traced():
    """An untraced round and two traced rounds of the same cells on two threads."""
    tracer = tracing.Tracer()
    configs = tiny_configs(n_jobs=2)
    untraced = bench.run_round(configs)
    traced = [
        bench.run_round(configs, lambda config: tracing.traced_monte_carlo(config, tracer)) for _ in range(2)
    ]
    return untraced, traced, tracer


def test_end_to_end_metrics_match_benchmark_json():
    rounds = [bench.run_round(tiny_configs())]
    metrics = bench.end_to_end_metrics(rounds, [0.5, 0.7, 0.6], bench.peak_rss_mb())
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert {m["name"]: m["better"] for m in SPEC["end_to_end"]} == {
        name: better for name, (_, better) in bench.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["setup_s"]["value"] == 0.6


def test_layer_metrics_match_benchmark_json(traced):
    untraced, (traced_round, _), tracer = traced
    metrics = tracing.layer_metrics(tracer.spans, traced_round.rows, untraced.wall_s, traced_round.wall_s)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    for name, metric in metrics.items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
    assert metrics["selection.evals"]["value"] >= 8
    assert len(tracing.cell_records(tracer.spans)) == 2 * len(untraced.rows)
    estimate = tracing.full_scale_estimate(tracer.spans)
    assert estimate["label"] == "computed, not measured"
    assert estimate["methods"] == ["Ba", "Bb"] and estimate["total_s"] > 0


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    assert tuple(names) == run.WORKLOADS
    for name in names:
        configs = bench.workload_configs(name, seed=7)
        bench.check_feasibility(configs)
        for config in configs:
            for method in config.methods:
                sel = method.selection_config()
                assert sel.cap_aware_cost == (sel.method == "gcv")
        for seed in bench.REFERENCE_SEEDS:
            reference = bench.reference_rows(name, seed)
            assert reference and all(math.isfinite(q) for row in reference for q in row[3:])
    assert bench.reference_rows(names[0], max(bench.REFERENCE_SEEDS) + 1) is None


def test_gate_passes_and_rejects_corrupted_rows(traced):
    untraced, traced_rounds, _ = traced
    serial = bench.run_round(tiny_configs(n_jobs=1))
    expected_rows = bench.reference_entry(untraced)
    assert bench.gate([untraced, untraced], serial, traced_rounds, expected_rows) == []

    row = untraced.rows[0]
    corruptions = {
        "non-finite": replace(row, q_sim=math.nan),
        "not feasible": replace(row, feasible=False),
        "differ": replace(row, q_pre=row.q_pre * (1 + 1e-12)),
    }
    for expected, bad_row in corruptions.items():
        bad = replace(untraced, rows=(bad_row,) + untraced.rows[1:])
        assert any(expected in p for p in bench.gate([untraced, bad])), expected
        assert any("parallel" in p for p in bench.gate([bad], serial)), expected
        assert any("traced" in p for p in bench.gate([untraced], None, [bad])), expected

    def shifted(rtol):
        return [row[:3] + [row[3], row[4] * (1 + rtol)] for row in expected_rows]

    assert bench.gate([untraced], reference=shifted(0.1 * bench.REFERENCE_RTOL)) == []
    assert any("q_sim" in p and "committed reference" in p for p in bench.gate(
        [untraced], reference=shifted(10 * bench.REFERENCE_RTOL)
    ))
    assert any("cells differ" in p for p in bench.gate([untraced], reference=expected_rows[1:]))


def test_traced_rows_equal_untraced(traced):
    untraced, traced_rounds, _ = traced
    for traced_round in traced_rounds:
        assert bench.outcome(traced_round) == bench.outcome(untraced)
    assert len(untraced.rows) == 4
    # the traced pass patches the harness only for its own length
    for module, name in [(benchmarks, "_run_cell"), (benchmarks, "fit_method"), (predictor, "simulate")]:
        assert getattr(module, name).__qualname__ == name


def test_span_tree_is_well_formed(traced):
    _, _, tracer = traced
    spans = {span.id: span for span in tracer.spans}
    assert len(spans) == len(tracer.spans)
    roots = [s for s in spans.values() if s.parent is None]
    assert {s.name for s in roots} == {"benchmarks.run_monte_carlo"}
    for span in spans.values():
        assert span.start <= span.end
        if span.parent is None:
            continue
        parent = spans[span.parent]
        assert parent.start <= span.start and span.end <= parent.end, (span.name, parent.name)
        if parent.name != "benchmarks.run_monte_carlo":
            assert span.cell == parent.cell
    cells = [s for s in spans.values() if s.name == "cell"]
    assert len(cells) == 8 and len({s.cell for s in cells}) == 8
    for cell in cells:
        children = {s.name: s for s in spans.values() if s.parent == cell.id}
        assert set(children) == {
            "benchmarks.generate_dataset",
            "benchmarks.fit_method",
            "predictor.one_step_predict",
            "predictor.simulate",
            "replay",
        }
        fit = {s.name for s in spans.values() if s.parent == children["benchmarks.fit_method"].id}
        assert fit == {"selection.select_hyperparameters", "solver.solve_constrained"}


def test_run_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-ab", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
