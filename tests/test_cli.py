"""CLI: config handling, exit codes, CSV schemas, determinism."""

import json
from dataclasses import fields

import numpy as np
import pytest

from stable_sysid import benchmarks, cli
from stable_sysid.cli import (
    EXIT_DIVERGED,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from stable_sysid.kernels import Gaussian
from stable_sysid.selection import OptimizerConfig, SelectionConfig
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

    def test_gaussian_iss_is_infeasible(self, workdir, capsys):
        train, _ = generate_b(workdir)
        cfg = self._fit_config(workdir, train, {"kind": "iss"})
        assert run(["fit", "--config", cfg]) == EXIT_INFEASIBLE
        assert "stationary" in capsys.readouterr().err

    def test_gaussian_dbibs_feasible_with_mu_budget(self, workdir):
        train, _ = generate_b(workdir)
        cfg = self._fit_config(workdir, train, {"kind": "dbibs"})
        assert run(["fit", "--config", cfg]) == EXIT_OK
        report = json.loads((workdir / "fit_report.json").read_text())
        assert report["mu"] <= 0.99 + 1e-8
        assert report["feasible"] is True
        assert (workdir / "model.json").exists()

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
            StabilityTarget.diss(),
            SelectionConfig(method="gcv", optimizer=OptimizerConfig(restarts=2, max_evals=120), seed=5),
            chi=0.8,
        )
        model, report, sel = benchmarks.fit_method(benchmarks.read_dataset_csv(train), method, 2)
        written = json.loads((workdir / "fit_report.json").read_text())
        assert (written["beta"], tuple(written["eta"]), written["mu"]) == (sel.beta, sel.eta, report.mu)
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

    def _divergent_config(self, workdir):
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
            workdir / "sim.json", {"model": str(model), "data": str(data), "out": str(workdir)}
        )

    def test_divergent_model_exit_code(self, workdir, capsys):
        cfg = self._divergent_config(workdir)
        assert run(["simulate", "--config", cfg]) == EXIT_DIVERGED
        assert "sample 21" in capsys.readouterr().err

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
        from stable_sysid.benchmarks import read_results_csv

        rows = read_results_csv(workdir / "results.csv")
        assert {r.method for r in rows} == {"Ba", "Bb"}
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
            assert sel.optimizer == benchmarks.benchmark_selection_config(full_scale=True).optimizer

    def test_override_keeps_ab_preset(self, workdir, monkeypatch):
        for system in ("A", "B"):
            selections = self._selections(
                workdir, monkeypatch, {"system": system, "selection": {"restarts": 5}}
            )
            preset = benchmarks.benchmark_selection_config()
            for sel in selections.values():
                assert (sel.method, sel.cap_aware_cost) == ("gcv", True)
                assert sel.optimizer == OptimizerConfig(restarts=5, max_evals=preset.optimizer.max_evals)

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


class TestSelectionBlock:
    def test_keys_are_config_fields(self):
        assert set(cli._SELECTION_KEYS) <= {f.name for f in fields(SelectionConfig)}
        assert set(cli._OPTIMIZER_KEYS) <= {f.name for f in fields(OptimizerConfig)}

    def test_keys_override_only_themselves(self):
        base = SelectionConfig(method="gcv", kfold_k=4, optimizer=OptimizerConfig(restarts=3, max_evals=90))
        block = {"method": "kfold", "restarts": 2}
        parsed = cli._parse_selection_block(block, base, seed_override=7)
        assert parsed == SelectionConfig(
            method="kfold", kfold_k=4, seed=7, optimizer=OptimizerConfig(restarts=2, max_evals=90)
        )

    def test_bad_value_is_input_error(self, workdir):
        train, _ = generate_b(workdir, n=20)
        for block in ({"cap_aware_cost": "yes"}, {"restarts": "many"}):
            cfg = write_config(
                workdir / "fit.json",
                {"data": str(train), "kernel": {"structure": "gaussian"},
                 "target": {"kind": "none"}, "selection": block, "out": str(workdir)},
            )
            assert run(["fit", "--config", cfg]) == EXIT_INPUT


class TestConfigErrors:
    def test_missing_config_file(self, workdir, capsys):
        assert run(["generate", "--config", workdir / "nope.json"]) == EXIT_INPUT

    def test_invalid_json(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{")
        assert run(["generate", "--config", bad]) == EXIT_INPUT
