"""CLI: config handling, exit codes, CSV schemas, determinism."""

import argparse
import csv
import json
import math
from dataclasses import fields

import numpy as np
import pytest

from stable_sysid import benchmarks, cli
from stable_sysid.cli import (
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_NUMERIC,
    EXIT_OK,
    main,
)
from stable_sysid import errors
from stable_sysid.errors import InputError, NumericError
from stable_sysid.kernels import Gaussian
from stable_sysid.predictor import load_model
from stable_sysid.selection import OptimizerConfig, SelectionConfig
from stable_sysid.solver import build_regression_data
from stable_sysid.viability import StabilityTarget


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(args):
    return main([str(a) for a in args])


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def generate_b(workdir, n=40, seed=1):
    cfg = write_config(
        workdir / "gen.json",
        {"system": "B", "seed": seed, "n_train": n, "n_valid": n, "out": str(workdir)},
    )
    assert run(["generate", "--config", cfg]) == EXIT_OK
    return workdir / "B_train.csv", workdir / "B_valid.csv"


class TestGenerate:
    def test_writes_csvs_with_schema(self, workdir):
        train, valid = generate_b(workdir, n=25)
        lines = train.read_text().splitlines()
        assert lines[0] == "t,u,y"
        assert len(lines) == 26
        assert (workdir / "B_manifest.json").exists()
        manifest = json.loads((workdir / "B_manifest.json").read_text())
        assert manifest["seed"] == 1 and manifest["n_train"] == 25

    def test_byte_identical_rerun(self, workdir):
        train, valid = generate_b(workdir)
        first = train.read_bytes(), valid.read_bytes()
        generate_b(workdir)
        assert (train.read_bytes(), valid.read_bytes()) == first

    def test_seed_override_changes_data(self, workdir):
        cfg = write_config(
            workdir / "gen.json",
            {"system": "B", "seed": 1, "n_train": 20, "n_valid": 20, "out": str(workdir)},
        )
        run(["generate", "--config", cfg])
        first = (workdir / "B_train.csv").read_bytes()
        run(["generate", "--config", cfg, "--seed", "2"])
        assert (workdir / "B_train.csv").read_bytes() != first

    def test_unknown_key_rejected(self, workdir):
        cfg = write_config(workdir / "gen.json", {"system": "B", "bogus": 1})
        assert run(["generate", "--config", cfg]) == EXIT_INPUT

    def test_too_small_dataset_rejected_downstream(self, workdir):
        train, _ = generate_b(workdir, n=3)
        fit_cfg = write_config(
            workdir / "fit.json",
            {
                "data": str(train),
                "kernel": {"structure": "gaussian"},
                "target": {"kind": "dbibs"},
                "m": 3,
                "out": str(workdir),
            },
        )
        assert run(["fit", "--config", fit_cfg]) == EXIT_INPUT


class TestFit:
    def _fit_config(self, workdir, train, target, structure=None, name="fit.json"):
        kernel = {"structure": "gaussian"} if structure is None else structure
        return write_config(
            workdir / name,
            {
                "data": str(train),
                "kernel": kernel,
                "target": target,
                "selection": {"method": "gcv", "restarts": 2, "max_evals": 120},
                "out": str(workdir),
            },
        )

    def test_missing_data_exits_2(self, workdir, capsys):
        cfg = write_config(workdir / "fit.json", {"kernel": {"structure": "gaussian"}, "target": {"kind": "diss"}})
        assert run(["fit", "--config", cfg]) == EXIT_INPUT
        assert "missing required key 'data' in fit config" in capsys.readouterr().err

    def test_gaussian_iss_is_infeasible(self, workdir, capsys):
        train, _ = generate_b(workdir)
        cfg = self._fit_config(workdir, train, {"kind": "iss"})
        assert run(["fit", "--config", cfg]) == EXIT_INFEASIBLE
        assert "stationary" in capsys.readouterr().err

    def test_infeasible_fit_leaves_no_output_directory(self, workdir, capsys):
        train, _ = generate_b(workdir, n=20)
        out = workdir / "fitout"
        cfg = write_config(workdir / "fit.json", {"data": str(train), "kernel": {"structure": "polynomial", "degree": 2},
                                                  "target": {"kind": "iss"}, "out": str(out)})
        assert run(["fit", "--config", cfg]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err.startswith("infeasible stability target:")
        assert not out.exists()

    def test_numeric_failure_exits_4(self, workdir, capsys, monkeypatch):
        train, _ = generate_b(workdir, n=20)

        def failing(*args):
            raise NumericError("the Gram is not finite")

        monkeypatch.setattr(benchmarks, "fit_method", failing)
        out = workdir / "fitout"
        cfg = write_config(workdir / "fit.json", {"data": str(train), "kernel": {"structure": "gaussian"},
                                                  "target": {"kind": "none"}, "out": str(out)})
        capsys.readouterr()
        assert run(["fit", "--config", cfg]) == EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: the Gram is not finite\n"
        assert not out.exists()

    def test_uncreatable_output_directory_exits_2_after_the_fit(self, workdir, capsys, monkeypatch):
        train, _ = generate_b(workdir, n=20)
        fits = []
        fit_method = benchmarks.fit_method
        monkeypatch.setattr(benchmarks, "fit_method", lambda *args: fits.append(args) or fit_method(*args))
        (workdir / "file").write_text("")
        cfg = write_config(workdir / "fit.json", {"data": str(train), "kernel": {"structure": "gaussian"},
                                                  "target": {"kind": "none"}, "out": str(workdir / "file" / "out"),
                                                  "selection": {"restarts": 1, "max_evals": 10}})
        capsys.readouterr()
        assert run(["fit", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: cannot create output directory")
        assert len(fits) == 1

    def test_gaussian_dbibs_feasible_with_mu_budget(self, workdir):
        train, _ = generate_b(workdir)
        cfg = self._fit_config(workdir, train, {"kind": "dbibs"})
        assert run(["fit", "--config", cfg]) == EXIT_OK
        report = json.loads((workdir / "fit_report.json").read_text())
        assert report["mu"] <= 0.99 + 1e-8
        assert report["feasible"] is True
        assert (workdir / "model.json").exists()

    def test_report_carries_the_search_trace(self, workdir):
        train, _ = generate_b(workdir)
        cfg = self._fit_config(workdir, train, {"kind": "diss"})
        assert run(["fit", "--config", cfg]) == EXIT_OK
        first = (workdir / "fit_report.json").read_bytes()
        report = json.loads(first)
        assert len(report["restarts"]) == 2 and report["factorizations"] > 0
        assert sum(spent for spent, _, _ in report["restarts"]) == report["evaluations"]
        assert min(cost for _, cost, _ in report["restarts"]) == report["cost"]
        assert {stop for _, _, stop in report["restarts"]} <= {"tolerance", "maxfev"}
        # no timing: a re-run writes the same bytes
        assert run(["fit", "--config", cfg]) == EXIT_OK
        assert (workdir / "fit_report.json").read_bytes() == first

    def test_model_file_round_trips(self, workdir):
        from stable_sysid import load_model

        train, _ = generate_b(workdir)
        cfg = self._fit_config(workdir, train, {"kind": "diss"})
        assert run(["fit", "--config", cfg]) == EXIT_OK
        model = load_model(workdir / "model.json")
        assert model.stability_tag.label() == "diss"
        assert model.model_order == 2

    def test_matches_library_fit_pipeline(self, workdir):
        from stable_sysid import load_model

        train, _ = generate_b(workdir)
        cfg = write_config(
            workdir / "fit.json",
            {
                "data": str(train),
                "kernel": {"structure": "gaussian"},
                "target": {"kind": "diss"},
                "selection": {"method": "gcv", "restarts": 2, "max_evals": 120, "seed": 5},
                "chi": 0.8,
                "out": str(workdir),
            },
        )
        assert run(["fit", "--config", cfg]) == EXIT_OK
        method = benchmarks.MethodSpec(
            "fit",
            Gaussian(),
            SelectionConfig(
                method="gcv", chi=0.8, target=StabilityTarget.diss(),
                optimizer=OptimizerConfig(restarts=2, max_evals=120), seed=5,
            ),
        )
        dataset = benchmarks.read_dataset_csv(train)
        data = build_regression_data(dataset.u, dataset.y, 2)
        model, report, sel = benchmarks.fit_method(data, method)
        written = json.loads((workdir / "fit_report.json").read_text())
        assert (written["beta"], tuple(written["eta"]), written["mu"]) == (sel.beta, sel.eta, report.mu)
        assert (written["factorizations"], written["restarts"]) == (sel.factorizations, [list(r) for r in sel.restarts])
        assert np.array_equal(load_model(workdir / "model.json").coefficients, model.coefficients)


class TestPredictSimulate:
    def _zero_model(self, workdir):
        payload = {
            "model_order": 2,
            "kernel": {"structure": "gaussian", "eta": [1.0, 1.0, 0.0], "input_dim": 5},
            "stability_target": {"kind": "none"},
            "centers": [[0.0, 0.0, 0.0, 0.0, 0.0]],
            "coefficients": [0.0],
        }
        path = workdir / "zero_model.json"
        path.write_text(json.dumps(payload))
        return path

    def test_zero_model_outputs(self, workdir, capsys):
        train, _ = generate_b(workdir, n=20)
        model = self._zero_model(workdir)
        cfg = write_config(
            workdir / "sim.json",
            {"model": str(model), "data": str(train), "out": str(workdir)},
        )
        assert run(["simulate", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "q_pre" in out and "q_sim" in out
        lines = (workdir / "simulate.csv").read_text().splitlines()
        assert lines[0] == "t,y,y_pred,y_sim"
        # simulated column is zero after the two seed rows
        for line in lines[3:]:
            assert line.rsplit(",", 1)[1] == "0.0"

    def test_metrics_zero_on_truth_equal(self, workdir, capsys):
        # a model that exactly reproduces the dataset: predict on its own sim
        train, _ = generate_b(workdir, n=20)
        model = self._zero_model(workdir)
        cfg = write_config(
            workdir / "pred.json",
            {"model": str(model), "data": str(train), "out": str(workdir)},
        )
        assert run(["predict", "--config", cfg]) == EXIT_OK

    def _divergent_config(self, workdir, out=None):
        payload = {
            "model_order": 1,
            "kernel": {"structure": "linear_affine", "eta": [1.0, 0.0], "input_dim": 3},
            "stability_target": {"kind": "none"},
            "centers": [[4.0, 0.0, 0.0]],
            "coefficients": [1.0],
        }
        model = workdir / "divergent.json"
        model.write_text(json.dumps(payload))
        data = workdir / "data.csv"
        rows = ["t,u,y"] + [f"{t},0.0,1.0" for t in range(1, 61)]
        data.write_text("\n".join(rows) + "\n")
        return write_config(
            workdir / "sim.json", {"model": str(model), "data": str(data), "out": str(out or workdir)}
        )

    def test_divergent_model_exit_code(self, workdir, capsys):
        cfg = self._divergent_config(workdir)
        assert run(["simulate", "--config", cfg]) == EXIT_DIVERGED
        assert "sample 21" in capsys.readouterr().err

    def test_divergent_simulate_leaves_no_output_directory(self, workdir):
        cfg = self._divergent_config(workdir, out=workdir / "simout")
        assert run(["simulate", "--config", cfg]) == EXIT_DIVERGED
        assert not (workdir / "simout").exists()

    def test_predict_never_simulates(self, workdir, capsys):
        cfg = self._divergent_config(workdir)
        assert run(["predict", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "q_pre" in out and "q_sim" not in out
        lines = (workdir / "predict.csv").read_text().splitlines()
        assert lines[0] == "t,y,y_pred"
        assert lines[1:3] == ["1,1.0,1.0", "2,1.0,4.0"]
        assert run(["simulate", "--config", cfg]) == EXIT_DIVERGED

    def test_model_data_mismatch(self, workdir):
        train, _ = generate_b(workdir, n=20)
        payload = {
            "model_order": 3,
            "kernel": {"structure": "gaussian", "eta": [1.0, 1.0, 0.0], "input_dim": 7},
            "stability_target": {"kind": "none"},
            "centers": [[0.0] * 7],
            "coefficients": [0.0],
        }
        model = workdir / "m3.json"
        model.write_text(json.dumps(payload))
        cfg = write_config(
            workdir / "sim.json", {"model": str(model), "data": str(train), "out": str(workdir)}
        )
        # 20 samples > m = 3, runs fine; shrink the dataset below m instead
        small = workdir / "small.csv"
        small.write_text("t,u,y\n1,0.0,0.0\n2,0.0,0.0\n3,0.0,0.0\n")
        cfg = write_config(
            workdir / "sim2.json", {"model": str(model), "data": str(small), "out": str(workdir)}
        )
        assert run(["simulate", "--config", cfg]) == EXIT_INPUT


class TestBenchmark:
    def test_two_runs_two_methods(self, workdir, capsys):
        cfg = write_config(
            workdir / "bench.json",
            {
                "system": "B",
                "methods": ["Ba", "Bb"],
                "runs": 2,
                "seed": 0,
                "n_train": 40,
                "n_valid": 40,
                "selection": {"method": "gcv", "restarts": 2, "max_evals": 100},
                "out": str(workdir),
            },
        )
        assert run(["benchmark", "--config", cfg]) == EXIT_OK
        lines = (workdir / "results.csv").read_text().splitlines()
        assert lines[0] == "run,system,method,q_pre,q_sim,feasible,fit_seconds"
        assert len(lines) == 5
        with open(workdir / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"Ba", "Bb"}
        assert (workdir / "summary.csv").exists()

    def test_byte_identical_rerun(self, workdir):
        cfg = write_config(
            workdir / "bench.json",
            {
                "system": "B",
                "methods": ["Ba"],
                "runs": 1,
                "seed": 3,
                "n_train": 30,
                "n_valid": 30,
                "selection": {"method": "gcv", "restarts": 2, "max_evals": 80},
                "out": str(workdir),
            },
        )
        run(["benchmark", "--config", cfg])
        first = (workdir / "results.csv").read_bytes(), (workdir / "summary.csv").read_bytes()
        run(["benchmark", "--config", cfg])
        assert ((workdir / "results.csv").read_bytes(), (workdir / "summary.csv").read_bytes()) == first

    def test_failed_cell_is_printed(self, workdir, capsys, monkeypatch):
        failure = benchmarks.FailureRow(run=0, system="B", method="Ba", error="no finite cost")
        monkeypatch.setattr(benchmarks, "run_monte_carlo",
                            lambda config: benchmarks.MonteCarloResult(rows=(), failures=(failure,)))
        cfg = write_config(workdir / "bench.json", {"system": "B", "methods": ["Ba"], "runs": 1, "out": str(workdir)})
        assert run(["benchmark", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(0 rows, 1 failures)" in out
        assert out.endswith("failure: run 0 B/Ba: no finite cost\n")

    def test_unknown_method_rejected(self, workdir):
        cfg = write_config(
            workdir / "bench.json",
            {"system": "B", "methods": ["Ha"], "runs": 1, "out": str(workdir)},
        )
        assert run(["benchmark", "--config", cfg]) == EXIT_INPUT

    def _selections(self, workdir, monkeypatch, payload, *flags):
        """Run ``benchmark`` with the harness stubbed out; return the
        selection config each requested method would search with."""
        seen = []

        def harness(config):
            seen.append(config)
            return benchmarks.MonteCarloResult(rows=(), failures=())

        monkeypatch.setattr(benchmarks, "run_monte_carlo", harness)
        cfg = write_config(workdir / "bench.json", {"runs": 1, "out": str(workdir), **payload})
        assert run(["benchmark", "--config", cfg, *flags]) == EXIT_OK
        (config,) = seen
        return {m.name: m.selection_config() for m in config.methods}

    def test_h_presets_run_plain_eb(self, workdir, monkeypatch):
        for flags in ((), ("--full-scale",)):
            selections = self._selections(workdir, monkeypatch, {"system": "H"}, *flags)
            assert sorted(selections) == ["Ha", "Hb", "Hc"]
            for sel in selections.values():
                assert (sel.method, sel.cap_aware_cost) == ("eb", False)

    def test_full_scale_widens_the_preset_search(self, workdir, monkeypatch):
        selections = self._selections(workdir, monkeypatch, {"system": "A"}, "--full-scale")
        for sel in selections.values():
            assert (sel.method, sel.cap_aware_cost) == ("gcv", True)
            assert sel.optimizer == benchmarks.FULL_SCALE_OPTIMIZER

    def test_override_keeps_ab_preset(self, workdir, monkeypatch):
        for system in ("A", "B"):
            selections = self._selections(
                workdir, monkeypatch, {"system": system, "selection": {"restarts": 5}}
            )
            preset = benchmarks.benchmark_selection_config()
            for sel in selections.values():
                assert (sel.method, sel.cap_aware_cost) == ("gcv", True)
                assert sel.optimizer == OptimizerConfig(restarts=5, max_evals=preset.optimizer.max_evals)

    @pytest.mark.parametrize("system", [["A"], {"A": 1}])
    def test_full_scale_malformed_system_exits_2(self, workdir, capsys, system):
        cfg = write_config(workdir / "bench.json", {"system": system, "runs": 1, "out": str(workdir)})
        assert run(["benchmark", "--config", cfg, "--full-scale"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "unknown system variant" in captured.err

    def test_full_scale_sets_validation_length_unless_given(self):
        args = argparse.Namespace(seed=None)
        for variant, n_valid in benchmarks.FULL_SCALE_N_VALID.items():
            spec = cli._system_spec({"system": variant}, args, "benchmark config", full_scale=True)
            assert spec.n_valid == n_valid
        spec = cli._system_spec({"system": "H", "n_valid": 30}, args, "benchmark config", full_scale=True)
        assert spec.n_valid == 30

    def test_override_can_switch_off_cap_aware_charging(self, workdir, monkeypatch):
        selections = self._selections(
            workdir, monkeypatch, {"system": "B", "selection": {"cap_aware_cost": False}}
        )
        assert not selections["Bb"].cap_aware_cost


class TestCheckViability:
    def test_member_verdict(self, workdir, capsys):
        cfg = write_config(
            workdir / "check.json",
            {
                "kernel": {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5},
                "target": {"kind": "diss"},
            },
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        assert "member" in capsys.readouterr().out

    def test_polynomial_never_member(self, workdir, capsys):
        cfg = write_config(
            workdir / "check.json",
            {
                "kernel": {"structure": "polynomial", "degree": 2, "eta": [], "input_dim": 5},
                "target": {"kind": "bibs"},
            },
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        assert "not member" in capsys.readouterr().out

    def test_falsifier_prints_witness(self, workdir, capsys):
        cfg = write_config(
            workdir / "check.json",
            {
                "kernel": {"structure": "gaussian", "eta": [1.0, 1.0, 0.0], "input_dim": 5},
                "target": {"kind": "iss"},
                "falsify": {"samples": 5000, "radius": 50.0, "seed": 0},
            },
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "not member" in out
        assert "witness" in out and "theta_contractive" in out

    def test_falsifier_reports_no_witness(self, workdir, capsys):
        # tau = 1 with sigma = 0: the identity map is an iss member
        cfg = write_config(
            workdir / "check.json",
            {
                "kernel": {"structure": "linear_affine", "eta": [1.0, 0.0], "input_dim": 5},
                "target": {"kind": "iss"},
                "falsify": {"samples": 500, "radius": 5.0, "seed": 0},
            },
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == "target iss: member\nfalsifier: no witness found\n"

    def test_unconstrained_target_exits_2(self, workdir, capsys):
        cfg = write_config(
            workdir / "check.json",
            {"kernel": {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5}, "target": {"kind": "none"}},
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "needs a constrained stability target" in captured.err

    def test_unsupported_combination_message(self, workdir, capsys):
        cfg = write_config(
            workdir / "check.json",
            {
                "kernel": {
                    "structure": "narx_fading", "model_order": 2, "window": 1,
                    "eta": [0.1, 1.0, 0.0], "input_dim": 5,
                },
                "target": {"kind": "viable", "rho": 1.0},
            },
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_INPUT
        assert "rho in {0, inf}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kernel,extra",
        [
            ({"structure": "gaussian", "eta": "abc", "input_dim": 5}, {}),
            ({"structure": "gaussian", "eta": ["a", 1.0, 0.0], "input_dim": 5}, {}),
            ({"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5.5}, {}),
            ({"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5}, {"falsify": {"samples": "many"}}),
            ({"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5}, {"falsify": [1]}),
            ({"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5}, {"falsify": {"samples": 2.5}}),
            ({"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5}, {"falsify": {"seed": True}}),
            ({"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5}, {"target": {"kind": "dviable", "rho": "abc"}}),
            ({"structure": "polynomial", "degree": 2.7, "eta": [], "input_dim": 5}, {}),
            ({"structure": "narx_fading", "model_order": 2.9, "window": 1, "eta": [0.1, 1.0, 0.0], "input_dim": 5}, {}),
        ],
    )
    def test_malformed_values_exit_2_without_output(self, workdir, capsys, kernel, extra):
        cfg = write_config(workdir / "check.json", {"kernel": kernel, "target": {"kind": "diss"}, **extra})
        assert run(["check-viability", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius_exits_2(self, workdir, capsys, radius):
        # a non-member whose witness lies inside radius 50: no radius may
        # turn the falsifier's verdict into "no witness found"
        payload = {"kernel": {"structure": "feature_gaussian", "eta": [2.0, 1.0, 0.5], "input_dim": 5},
                   "target": {"kind": "iss"}}
        cfg = write_config(workdir / "check.json", {**payload, "falsify": {"radius": 50}})
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert "not member" in out and "theta_contractive" in out
        cfg = write_config(workdir / "check.json", {**payload, "falsify": {"radius": radius}})
        assert run(["check-viability", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "radius must be a number" in captured.err

    def test_radius_whose_square_overflows_exits_2(self, workdir, capsys):
        # above sqrt(float max) / 2 a squared separation can overflow
        cfg = write_config(
            workdir / "check.json",
            {"kernel": {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5},
             "target": {"kind": "diss"}, "falsify": {"radius": 1e300}},
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "radius must be > 0 and at most 6.704e+153" in captured.err

    def test_matern_huge_gamma_is_no_diss_member(self, workdir, capsys):
        # 3 tau gamma^2 overflows to inf, which is no exception
        cfg = write_config(
            workdir / "check.json",
            {"kernel": {"structure": "matern32", "eta": [1, 1e200, 0], "input_dim": 5},
             "target": {"kind": "diss"}},
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == "target diss: not member\n"

    def test_integral_float_input_dim_accepted(self, workdir, capsys):
        cfg = write_config(
            workdir / "check.json",
            {"kernel": {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5.0},
             "target": {"kind": "diss"}},
        )
        assert run(["check-viability", "--config", cfg]) == EXIT_OK
        assert capsys.readouterr().out == "target diss: member\n"


class TestSelectionBlock:
    def test_keys_are_config_fields(self):
        assert set(cli._SELECTION_KEYS) <= {f.name for f in fields(SelectionConfig)}
        assert set(cli._OPTIMIZER_KEYS) <= {f.name for f in fields(OptimizerConfig)}

    def test_keys_override_only_themselves(self):
        base = SelectionConfig(method="gcv", iota=1e-8, optimizer=OptimizerConfig(restarts=3, max_evals=90))
        block = {"method": "kfold", "restarts": 2}
        parsed = cli._parse_selection_block(block, base, seed_override=7)
        assert parsed == SelectionConfig(
            method="kfold", iota=1e-8, seed=7, optimizer=OptimizerConfig(restarts=2, max_evals=90)
        )

    @pytest.mark.parametrize(
        "block",
        [{"restarts": 2.7}, {"max_evals": 99.9}, {"seed": 2.5}, {"seed": True}, {"restarts": "3"}],
    )
    def test_non_integral_count_is_input_error(self, block):
        with pytest.raises(InputError, match="must be an integer"):
            cli._parse_selection_block(block, SelectionConfig())

    def test_integral_float_count_accepted(self):
        parsed = cli._parse_selection_block({"restarts": 2.0, "max_evals": 99, "seed": 3.0}, SelectionConfig())
        assert parsed.optimizer.restarts == 2 and parsed.optimizer.max_evals == 99 and parsed.seed == 3
        assert all(type(v) is int for v in (parsed.optimizer.restarts, parsed.seed))

    def test_bad_value_is_input_error(self, workdir):
        train, _ = generate_b(workdir, n=20)
        for block in ({"cap_aware_cost": "yes"}, {"restarts": "many"}, {"restarts": 2.7}, {"iota": True}):
            cfg = write_config(
                workdir / "fit.json",
                {"data": str(train), "kernel": {"structure": "gaussian"},
                 "target": {"kind": "none"}, "selection": block, "out": str(workdir)},
            )
            assert run(["fit", "--config", cfg]) == EXIT_INPUT


class TestRemovedKeys:
    """The fold count is no setting: naming it exits 2, and so does a k-fold
    fit on data too short for its five folds.  The H solver step's key is
    checked in ``test_config``."""

    def test_system_keys_are_the_spec_fields(self):
        assert cli._SYSTEM_KEYS == {"system", "seed", "n_train", "n_valid", "noise_std", "out"}

    def test_kfold_k_is_unknown(self, workdir, capsys):
        train, _ = generate_b(workdir, n=20)
        cfg = write_config(
            workdir / "fit.json",
            {"data": str(train), "kernel": {"structure": "gaussian"}, "target": {"kind": "none"},
             "selection": {"method": "kfold", "kfold_k": 5}, "out": str(workdir)},
        )
        assert run(["fit", "--config", cfg]) == EXIT_INPUT
        assert "unknown keys ['kfold_k'] in selection block" in capsys.readouterr().err
        assert not (workdir / "model.json").exists()

    def test_kfold_on_too_few_rows_exits_2(self, workdir, capsys):
        train, _ = generate_b(workdir, n=6)
        capsys.readouterr()
        cfg = write_config(
            workdir / "fit.json",
            {"data": str(train), "kernel": {"structure": "gaussian"}, "target": {"kind": "diss"},
             "selection": {"method": "kfold"}, "out": str(workdir / "out")},
        )
        assert run(["fit", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err == "input error: kfold needs at least 5 regression rows, one per fold, got 4\n"
        assert captured.out == ""
        assert not (workdir / "out").exists()


class TestCounts:
    """Counts outside the selection block follow the same rule: 2 and 2.0
    pass; 2.7, "3" and true exit 2 instead of truncating or converting."""

    @pytest.mark.parametrize("value", [2.7, "3", True])
    @pytest.mark.parametrize("key", ["seed", "n_train", "n_valid"])
    def test_generate_rejects_non_integral(self, workdir, capsys, key, value):
        payload = {"system": "B", "seed": 1, "n_train": 20, "n_valid": 20, "out": str(workdir)}
        cfg = write_config(workdir / "gen.json", {**payload, key: value})
        assert run(["generate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and f"{key} must be an integer" in captured.err
        assert not (workdir / "B_train.csv").exists()

    @pytest.mark.parametrize("key", ["n_train", "n_valid"])
    def test_generate_rejects_count_beyond_array_limit(self, workdir, capsys, key):
        # numpy refuses 10**20 samples before allocating; the CLI exits 2
        payload = {"system": "A", "n_train": 20, "n_valid": 20, "out": str(workdir)}
        cfg = write_config(workdir / "gen.json", {**payload, key: 10**20})
        assert run(["generate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "too many samples for an array" in captured.err
        assert list(workdir.iterdir()) == [workdir / "gen.json"]

    def test_generate_rejects_a_draw_that_cannot_be_allocated(self, workdir, capsys, monkeypatch):
        # the generator fails the large draw as numpy does past a memory
        # limit, so no array is requested that cannot be allocated
        real = np.random.default_rng

        class Unallocatable:
            def __init__(self, seed):
                self.rng = real(seed)

            def standard_normal(self, size=None):
                if size is not None and size > 10**6:
                    raise MemoryError(f"Unable to allocate {8 * size / 2**30:.1f} GiB")
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", Unallocatable)
        payload = {"system": "A", "n_train": 10**10, "n_valid": 20, "out": str(workdir)}
        cfg = write_config(workdir / "gen.json", payload)
        assert run(["generate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: too many samples for an array: Unable to allocate 74.5 GiB\n"
        assert list(workdir.iterdir()) == [workdir / "gen.json"]

    def test_generate_rejects_negative_seed(self, workdir, capsys):
        cfg = write_config(workdir / "gen.json", {"system": "B", "seed": -1, "out": str(workdir)})
        assert run(["generate", "--config", cfg]) == EXIT_INPUT
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (workdir / "B_train.csv").exists()

    def test_system_spec_reads_integral_floats_as_ints(self):
        args = argparse.Namespace(seed=None)
        spec = cli._system_spec({"system": "B", "seed": 2.0, "n_train": 40.0, "n_valid": 30}, args, "generate config")
        assert (spec.seed, spec.n_train, spec.n_valid) == (2, 40, 30)
        assert all(type(v) is int for v in (spec.seed, spec.n_train, spec.n_valid))

    def test_integral_floats_write_the_same_bytes(self, workdir):
        train, valid = generate_b(workdir, n=20, seed=3)
        expected = train.read_bytes(), valid.read_bytes(), (workdir / "B_manifest.json").read_bytes()
        cfg = write_config(
            workdir / "gen.json",
            {"system": "B", "seed": 3.0, "n_train": 20.0, "n_valid": 20.0, "out": str(workdir)},
        )
        assert run(["generate", "--config", cfg]) == EXIT_OK
        assert (train.read_bytes(), valid.read_bytes(), (workdir / "B_manifest.json").read_bytes()) == expected

    @pytest.mark.parametrize("value", [2.5, "2", True])
    def test_fit_rejects_non_integral_model_order(self, workdir, capsys, value):
        train, _ = generate_b(workdir, n=20)
        cfg = write_config(
            workdir / "fit.json",
            {"data": str(train), "kernel": {"structure": "gaussian"}, "target": {"kind": "none"},
             "m": value, "out": str(workdir)},
        )
        assert run(["fit", "--config", cfg]) == EXIT_INPUT
        assert "m must be an integer" in capsys.readouterr().err
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize("extra", [{"runs": 1.5}, {"runs": "1"}, {"m": True}, {"m": 2.5}, {"seed": 2.7}])
    def test_benchmark_rejects_non_integral(self, workdir, capsys, extra):
        cfg = write_config(
            workdir / "bench.json",
            {"system": "B", "n_train": 20, "n_valid": 20, "runs": 1, "methods": ["Ba"],
             "selection": {"restarts": 2, "max_evals": 20}, "out": str(workdir), **extra},
        )
        assert run(["benchmark", "--config", cfg]) == EXIT_INPUT
        assert "must be an integer" in capsys.readouterr().err
        assert not (workdir / "results.csv").exists()


class TestRealValues:
    """Real-valued config values are finite numbers: true, "0.5", Infinity
    and NaN exit 2 instead of reading as 1.0, 0.5 or a non-finite value."""

    @pytest.mark.parametrize("value", [True, "0.5", math.inf, math.nan])
    @pytest.mark.parametrize("key", ["noise_std"])
    def test_generate_rejects_non_numbers(self, workdir, capsys, key, value):
        payload = {"system": "B", "seed": 1, "n_train": 20, "n_valid": 20, "out": str(workdir), key: value}
        cfg = write_config(workdir / "gen.json", payload)
        assert run(["generate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and f"{key} must be a number" in captured.err
        assert not (workdir / "B_train.csv").exists()

    @pytest.mark.parametrize(
        "extra",
        [{"chi": "0.5"}, {"chi": True}, {"selection": {"iota": "1e-8"}}, {"selection": {"iota": True}},
         {"target": {"kind": "dviable", "rho": "1"}}, {"target": {"kind": "viable", "rho": True}},
         {"chi": math.inf}, {"selection": {"iota": math.inf}}, {"selection": {"iota": math.nan}},
         {"target": {"kind": "dviable", "rho": math.inf}}, {"target": {"kind": "viable", "rho": math.nan}}],
    )
    def test_fit_rejects_non_numbers(self, workdir, capsys, extra):
        train, _ = generate_b(workdir, n=20)
        payload = {"data": str(train), "kernel": {"structure": "gaussian"}, "target": {"kind": "none"},
                   "out": str(workdir), **extra}
        cfg = write_config(workdir / "fit.json", payload)
        assert run(["fit", "--config", cfg]) == EXIT_INPUT
        assert "must be a number" in capsys.readouterr().err
        assert not (workdir / "model.json").exists()

    @pytest.mark.parametrize(
        "kernel,extra",
        [
            ({"eta": [True, 1.0, 0.0]}, {}),
            ({"eta": ["0.5", 1.0, 0.0]}, {}),
            ({}, {"falsify": {"samples": 10, "radius": "50"}}),
            ({}, {"falsify": {"samples": 10, "radius": True}}),
            ({}, {"target": {"kind": "dviable", "rho": "1.0"}}),
            ({}, {"target": {"kind": "dviable", "rho": False}}),
        ],
    )
    def test_check_viability_rejects_non_numbers(self, workdir, capsys, kernel, extra):
        block = {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5, **kernel}
        cfg = write_config(workdir / "check.json", {"kernel": block, "target": {"kind": "diss"}, **extra})
        assert run(["check-viability", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")

    @pytest.mark.parametrize("entry", [True, "1.0"])
    def test_model_file_eta_must_be_numbers(self, workdir, capsys, entry):
        train, _ = generate_b(workdir, n=20)
        model = workdir / "model.json"
        model.write_text(json.dumps({
            "model_order": 2,
            "kernel": {"structure": "gaussian", "eta": [entry, 1.0, 0.0], "input_dim": 5},
            "stability_target": {"kind": "none"},
            "centers": [[0.0] * 5],
            "coefficients": [0.0],
        }))
        cfg = write_config(workdir / "sim.json", {"model": str(model), "data": str(train), "out": str(workdir)})
        assert run(["simulate", "--config", cfg]) == EXIT_INPUT
        assert "hyperparameter tau must be a number with a finite value" in capsys.readouterr().err
        assert not (workdir / "simulate.csv").exists()

    def test_benchmark_rejects_zero_model_order(self, workdir, capsys):
        cfg = write_config(
            workdir / "bench.json",
            {"system": "B", "n_train": 20, "n_valid": 20, "runs": 1, "methods": ["Ba"], "m": 0,
             "selection": {"restarts": 2, "max_evals": 20}, "out": str(workdir)},
        )
        assert run(["benchmark", "--config", cfg]) == EXIT_INPUT
        assert "model_order must be >= 1" in capsys.readouterr().err
        assert not (workdir / "results.csv").exists()


class TestModelFile:
    """``model.json`` is read by the library's types: malformed counts, kernel
    blocks and arrays exit 2 instead of being cut down or crashing."""

    MODEL = {
        "model_order": 2,
        "kernel": {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5},
        "stability_target": {"kind": "none"},
        "centers": [[0.0] * 5],
        "coefficients": [0.0],
    }

    def _simulate_config(self, workdir, **change):
        train, _ = generate_b(workdir, n=20)
        (workdir / "model.json").write_text(json.dumps({**self.MODEL, **change}))
        return write_config(workdir / "sim.json", {"model": str(workdir / "model.json"), "data": str(train),
                                                   "out": str(workdir)})

    @pytest.mark.parametrize(
        "change",
        [
            {"model_order": 2.7},
            {"model_order": "2"},
            {"kernel": {"structure": "gaussian", "eta": [0.5, 1.0, 0.0], "input_dim": 5.9}},
            {"kernel": [1]},
            {"kernel": {"structure": "gaussian", "eta": 5, "input_dim": 5}},
            {"centers": "abc"},
            {"centers": [[0.0] * 5, [0.0]]},
            {"coefficients": {"c": 0.0}},
            # string and bool entries are not numbers, though numpy reads "0.5" as 0.5
            {"centers": [["0.5", 0.0, 0.0, 0.0, 0.0]]},
            {"coefficients": ["0.0"]},
            {"centers": [[True, False, False, False, False]]},
        ],
    )
    def test_malformed_model_file_exits_2(self, workdir, capsys, change):
        cfg = self._simulate_config(workdir, **change)
        capsys.readouterr()
        assert run(["simulate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error:")
        assert not (workdir / "simulate.csv").exists()

    def test_model_file_integral_float_counts_load(self, workdir):
        kernel = {**self.MODEL["kernel"], "input_dim": 5.0}
        cfg = self._simulate_config(workdir, model_order=2.0, kernel=kernel)
        assert run(["simulate", "--config", cfg]) == EXIT_OK
        loaded = load_model(workdir / "model.json")
        assert (loaded.model_order, loaded.kernel.input_dim) == (2, 5)
        assert type(loaded.model_order) is int and type(loaded.kernel.input_dim) is int


class TestOptions:
    """``--seed`` only where a command reads a seed, ``--out`` wherever it
    writes a file."""

    @pytest.mark.parametrize("command,option", [("predict", "--seed"), ("simulate", "--seed"),
                                                ("check-viability", "--seed"), ("check-viability", "--out")])
    def test_unread_option_exits_2(self, workdir, capsys, command, option):
        cfg = write_config(workdir / "cfg.json", {})
        with pytest.raises(SystemExit) as exc:
            run([command, "--config", cfg, option, "7"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 7" in capsys.readouterr().err
        assert sorted(p.name for p in workdir.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command,option", [*((c, "--seed") for c in ("generate", "fit", "benchmark")),
                                                *((c, "--out") for c in ("generate", "fit", "predict", "simulate",
                                                                         "benchmark"))])
    def test_read_option_parses(self, command, option):
        args = cli._build_parser().parse_args([command, "--config", "cfg.json", option, "7"])
        assert str(getattr(args, option[2:])) == "7"


class TestConfigErrors:
    def test_missing_config_file(self, workdir, capsys):
        assert run(["generate", "--config", workdir / "nope.json"]) == EXIT_INPUT

    def test_invalid_json(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{")
        assert run(["generate", "--config", bad]) == EXIT_INPUT

    def test_undecodable_config(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_bytes(b'{"system": "\xff"}')
        assert run(["generate", "--config", bad]) == EXIT_INPUT
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["missing-data", "missing-model", "bad-cell", "undecodable-data"])
    def test_unreadable_input_files_exit_2(self, workdir, capsys, fault):
        train, _ = generate_b(workdir, n=20)
        model = workdir / "model.json"
        model.write_text(json.dumps(TestModelFile.MODEL))
        if fault == "missing-data":
            train = workdir / "nope.csv"
        elif fault == "missing-model":
            model = workdir / "nope.json"
        elif fault == "bad-cell":
            train.write_text("t,u,y\n1,0.0,abc\n")
        else:
            train.write_bytes(b"t,u,y\n1,0.0,\xff\n")
        cfg = write_config(workdir / "sim.json", {"model": str(model), "data": str(train), "out": str(workdir)})
        capsys.readouterr()
        assert run(["simulate", "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: cannot read")
        assert not (workdir / "simulate.csv").exists()

    @pytest.mark.parametrize(
        "command,key,value",
        [("fit", "data", ["data.csv"]), ("fit", "model_name", 5), ("fit", "out", 7.5),
         ("simulate", "model", ["model.json"]), ("simulate", "output_name", 5),
         ("generate", "out", 7), ("benchmark", "record_timing", "no")],
    )
    def test_path_and_flag_values_checked_before_any_work(self, workdir, capsys, command, key, value):
        train, _ = generate_b(workdir, n=20)
        (workdir / "model.json").write_text(json.dumps(TestModelFile.MODEL))
        out = workdir / "out"
        payload = {
            "fit": {"data": str(train), "kernel": {"structure": "gaussian"}, "target": {"kind": "none"}},
            "simulate": {"model": str(workdir / "model.json"), "data": str(train)},
            "generate": {"system": "B", "n_train": 20, "n_valid": 20},
            "benchmark": {"system": "B", "n_train": 20, "n_valid": 20, "runs": 1, "methods": ["Ba"],
                          "selection": {"restarts": 1, "max_evals": 10}},
        }[command]
        cfg = write_config(workdir / "cfg.json", {**payload, "out": str(out), key: value})
        capsys.readouterr()
        assert run([command, "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"input error: {key} must be")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_unwritable_output_exits_2(self, workdir, capsys, command):
        train, _ = generate_b(workdir, n=20)
        (workdir / "model.json").write_text(json.dumps(TestModelFile.MODEL))
        payload = {
            "fit": {"data": str(train), "kernel": {"structure": "gaussian"}, "target": {"kind": "none"},
                    "selection": {"restarts": 1, "max_evals": 10}, "model_name": "sub/m.json"},
            "predict": {"model": str(workdir / "model.json"), "data": str(train), "output_name": "sub/p.csv"},
        }[command]
        cfg = write_config(workdir / "cfg.json", {**payload, "out": str(workdir / "out")})
        capsys.readouterr()
        assert run([command, "--config", cfg]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: cannot write") and "sub" in captured.err
        assert not (workdir / "out" / "sub").exists()

    @pytest.mark.parametrize("methods,named", [([["Ba"]], "list"), ("Ba", "str"), ({"Ba": 1}, "dict")])
    def test_benchmark_methods_must_be_a_list_of_names(self, workdir, capsys, methods, named):
        out = workdir / "out"
        cfg = write_config(workdir / "bench.json", {"system": "B", "methods": methods, "runs": 1, "out": str(out)})
        assert run(["benchmark", "--config", cfg]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: methods must") and f"got {named}" in err
        assert not out.exists()


# the exit code and stderr prefix of each error class of the package; a new
# class fails test_every_error_class_has_an_exit_code until it is listed here
EXITS = {
    errors.InputError: (EXIT_INPUT, "input error: "),
    errors.UnsupportedTargetError: (EXIT_INPUT, "input error: "),
    errors.InfeasibleTargetError: (EXIT_INFEASIBLE, "infeasible stability target: "),
    errors.NumericError: (EXIT_NUMERIC, "numeric failure: "),
    errors.DivergenceError: (EXIT_DIVERGED, "divergence: "),
}


def _error_classes(cls=errors.StableSysidError):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("stable_sysid."):
            yield sub
        yield from _error_classes(sub)


@pytest.mark.parametrize("cls", sorted(_error_classes(), key=lambda c: c.__name__), ids=lambda c: c.__name__)
def test_every_error_class_has_an_exit_code(cls, workdir, capsys, monkeypatch):
    assert cls in EXITS, f"{cls.__name__} has no exit code"
    code, prefix = EXITS[cls]

    def failing(args):
        raise cls("boom", 3) if issubclass(cls, errors.DivergenceError) else cls("boom")

    monkeypatch.setattr(cli, "cmd_generate", failing)
    assert run(["generate", "--config", workdir / "gen.json"]) == code
    assert capsys.readouterr().err == f"{prefix}boom\n"
