"""Command-line flows end to end: artifacts on disk and exit codes.

Each test drives main() in process with a temp output directory; one
subprocess smoke test covers the module entry point.
"""
import csv
import json
import subprocess
import sys

import pytest

from aavtraj import trainer as trainer_mod
from aavtraj import NumericFailure, TrainingError, TrainingLog, generate_scenario, load_checkpoint, save_scenario
from aavtraj.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main

# column lists as the README documents them
TRAINING_LOG_HEADER = ["iteration", "j_task", "j_smooth", "j_total", "grad_norm_pre",
                       "grad_norm_post", "ms", "rollout_ms", "backward_ms", "opt_ms"]
METRICS_HEADER = ["mean_completion_steps", "mission_steps", "avg_rate", "completed",
                  "completion_steps"]
GRADCHECK_HEADER = ["param_index", "analytic", "finite_diff", "rel_err"]

TRAIN_CONFIG = {
    "scenario": {"seed": 0, "k": 2},
    "train": {"max_iters": 3, "early_stop_delta": 0.0, "hidden": [8, 8]},
}


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "mission.json"
    save_scenario(generate_scenario(3, k=2), str(path))
    return str(path)


@pytest.fixture
def trained(tmp_path):
    cfg = write_json(tmp_path, "train.json", TRAIN_CONFIG)
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return out


class TestTrain:
    def test_writes_artifacts(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "train.json", TRAIN_CONFIG)
        out = tmp_path / "run"
        code = main(["train", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert "trained 3 iterations" in capsys.readouterr().out
        log_rows = read_rows(out / "training_log.csv")
        assert len(log_rows) == 3
        assert list(log_rows[0]) == TRAINING_LOG_HEADER
        params = load_checkpoint(str(out / "checkpoint.json"))
        assert params.spec.k == 2
        assert params.spec.hidden == (8, 8)
        assert (out / "scenario.json").exists()

    def test_seed_flag_controls_init(self, tmp_path):
        cfg = write_json(tmp_path, "train.json", TRAIN_CONFIG)
        blobs = {}
        for tag, seed in [("a", "1"), ("b", "2"), ("c", "1")]:
            out = tmp_path / tag
            assert main(["train", "--config", cfg, "--seed", seed, "--out", str(out)]) == EXIT_OK
            blobs[tag] = (out / "checkpoint.json").read_bytes()
        assert blobs["a"] == blobs["c"]
        assert blobs["a"] != blobs["b"]

    def test_summary_reports_a_retry(self, tmp_path, monkeypatch, capsys):
        real, rates = trainer_mod._train_once, []

        def fail_first(scn, cfg, lr):
            rates.append(lr)
            if len(rates) == 1:
                raise NumericFailure(0, "state")
            return real(scn, cfg, lr)

        cfg = write_json(tmp_path, "train.json", TRAIN_CONFIG)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "plain")]) == EXIT_OK
        plain = capsys.readouterr().out
        assert plain.startswith("trained 3 iterations (") and plain.endswith(")\n")
        assert "retried" not in plain
        monkeypatch.setattr(trainer_mod, "_train_once", fail_first)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "retry")]) == EXIT_OK
        assert rates == [1e-3, 5e-4]
        retried = capsys.readouterr().out
        assert retried.startswith("trained 3 iterations (")
        assert retried.endswith("); retried at learning_rate=0.0005\n")

    def test_missing_config_exit2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "file not found" in capsys.readouterr().err

    def test_malformed_json_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "malformed JSON" in capsys.readouterr().err

    def test_unknown_train_field_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "t.json", {"train": {"lerning_rate": 1e-3}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "bad train config" in capsys.readouterr().err

    def test_unknown_scenario_field_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "t.json", {"scenario": {"frobs": 3}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "unknown scenario fields" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("k", "4"), ("k", 2.5), ("area_side", "10"), ("seed", None)])
    def test_bad_scenario_value_exit2(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path, "t.json", {"scenario": {field: value}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"scenario field '{field}'" in capsys.readouterr().err

    def test_negative_seed_flag_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "train.json", TRAIN_CONFIG)
        code = main(["train", "--config", cfg, "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_bool_k_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "t.json", {**TRAIN_CONFIG, "scenario": {"k": True}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "k must be an integer >= 1, got True" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("max_iters", 2.5), ("t_max", 7.5), ("early_stop_patience", True)])
    def test_non_integer_train_field_exit2(self, tmp_path, capsys, field, value):
        cfg = write_json(tmp_path, "t.json", {**TRAIN_CONFIG, "train": {field: value}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"{field} must be an integer >= 1, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["stop_eps", "clip_threshold", "beta"])
    def test_nan_train_field_exit2(self, tmp_path, capsys, field):
        # json reads the bare token NaN as a float; no comparison with it is true
        cfg = tmp_path / "t.json"
        cfg.write_text('{"scenario": {"seed": 0, "k": 2}, "train": {"max_iters": 3, "%s": NaN}}' % field)
        code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_negative_scenario_seed_exit2(self, tmp_path, capsys):
        cfg = write_json(tmp_path, "train.json", {**TRAIN_CONFIG, "scenario": {"seed": -1, "k": 2}})
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


class TestEval:
    def test_trained_checkpoint_completes(self, tmp_path, trained, capsys):
        out = tmp_path / "eval"
        code = main([
            "eval", "--scenario", str(trained / "scenario.json"),
            "--checkpoint", str(trained / "checkpoint.json"), "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "completed=True" in capsys.readouterr().out
        (metrics,) = read_rows(out / "metrics.csv")
        assert list(metrics) == METRICS_HEADER
        assert metrics["completed"] == "true"
        traj_rows = read_rows(out / "trajectory.csv")
        assert len(traj_rows) >= 2
        assert list(traj_rows[0]) == ["step", "x", "y"]

    def test_trained_checkpoint_generalizes(self, tmp_path, trained, capsys):
        completed = 0
        for seed in range(100, 110):
            scn_path = tmp_path / f"scn{seed}.json"
            save_scenario(generate_scenario(seed, k=2), str(scn_path))
            out = tmp_path / f"eval{seed}"
            assert main(["eval", "--scenario", str(scn_path),
                         "--checkpoint", str(trained / "checkpoint.json"),
                         "--out", str(out)]) == EXIT_OK
            (metrics,) = read_rows(out / "metrics.csv")
            completed += metrics["completed"] == "true"
        capsys.readouterr()
        assert completed >= 9

    def test_requires_exactly_one_source(self, tmp_path, trained, capsys):
        scn = str(trained / "scenario.json")
        ckpt = str(trained / "checkpoint.json")
        out = str(tmp_path / "e")
        assert main(["eval", "--scenario", scn, "--out", out]) == EXIT_USAGE
        assert main(["eval", "--scenario", scn, "--checkpoint", ckpt,
                     "--fixed", "0,0", "--out", out]) == EXIT_USAGE
        assert "exactly one" in capsys.readouterr().err

    def test_k_mismatch_exit2(self, tmp_path, trained, capsys):
        other = tmp_path / "k3.json"
        save_scenario(generate_scenario(7, k=3), str(other))
        code = main(["eval", "--scenario", str(other),
                     "--checkpoint", str(trained / "checkpoint.json"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE
        assert "cannot run on" in capsys.readouterr().err

    def test_fixed_hover_stays_put(self, tmp_path, scenario_path):
        out = tmp_path / "hover"
        code = main(["eval", "--scenario", scenario_path, "--fixed", "0,0",
                     "--t-max", "4", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "trajectory.csv")
        assert len(rows) >= 2
        assert {(r["x"], r["y"]) for r in rows} == {("0.0", "0.0")}

    def test_fixed_bad_format_exit2(self, tmp_path, scenario_path, capsys):
        code = main(["eval", "--scenario", scenario_path, "--fixed", "fast",
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE
        assert "--fixed expects" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("tau", "fast"), ("eta", None)])
    def test_bad_scenario_value_exit2(self, tmp_path, scenario_path, capsys, field, value):
        with open(scenario_path) as fh:
            data = json.load(fh)
        bad = write_json(tmp_path, "bad_mission.json", {**data, field: value})
        code = main(["eval", "--scenario", bad, "--fixed", "0,0", "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE
        assert f"scenario field '{field}'" in capsys.readouterr().err

    def test_missing_checkpoint_exit2(self, tmp_path, scenario_path, capsys):
        code = main(["eval", "--scenario", scenario_path,
                     "--checkpoint", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE
        assert "not found" in capsys.readouterr().err

    def test_unrecognized_checkpoint_exit2(self, tmp_path, scenario_path, capsys):
        bad = write_json(tmp_path, "ckpt.json", {"format": "zzz"})
        code = main(["eval", "--scenario", scenario_path, "--checkpoint", bad,
                     "--out", str(tmp_path / "e")])
        assert code == EXIT_USAGE
        assert "checkpoint" in capsys.readouterr().err


class TestBaseline:
    def test_greedy_writes_metrics(self, tmp_path, scenario_path, capsys):
        out = tmp_path / "greedy"
        code = main(["baseline", "--method", "greedy", "--scenario", scenario_path,
                     "--out", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("greedy:")
        assert (out / "metrics.csv").exists()
        assert (out / "trajectory.csv").exists()

    def test_ga_writes_fitness_log(self, tmp_path, scenario_path):
        cfg = write_json(tmp_path, "ga.json", {"population": 8, "generations": 4})
        out = tmp_path / "ga"
        code = main(["baseline", "--method", "ga", "--scenario", scenario_path,
                     "--config", cfg, "--seed", "5", "--t-max", "30", "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(out / "fitness_log.csv")
        assert list(rows[0]) == ["generation", "best_fitness", "elapsed_ms"]
        assert [int(r["generation"]) for r in rows] == [0, 1, 2, 3, 4]
        fits = [float(r["best_fitness"]) for r in rows]
        assert fits == sorted(fits)  # best-so-far never regresses
        elapsed = [float(r["elapsed_ms"]) for r in rows]
        assert elapsed == sorted(elapsed) and elapsed[0] >= 0.0  # cumulative wall clock

    def test_unknown_method_exit2(self, tmp_path, scenario_path):
        code = main(["baseline", "--method", "bfs", "--scenario", scenario_path,
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE

    def test_negative_mutation_std_exit2(self, tmp_path, scenario_path, capsys):
        cfg = write_json(tmp_path, "ga.json", {"population": 4, "generations": 1, "mutation_std": [-1, 0.3]})
        code = main(["baseline", "--method", "ga", "--scenario", scenario_path,
                     "--config", cfg, "--t-max", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "mutation_std" in capsys.readouterr().err

    def test_ga_negative_seed_exit2(self, tmp_path, scenario_path, capsys):
        code = main(["baseline", "--method", "ga", "--scenario", scenario_path,
                     "--seed", "-1", "--t-max", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    def test_ga_non_integer_population_exit2(self, tmp_path, scenario_path, capsys):
        cfg = write_json(tmp_path, "ga.json", {"population": 4.5, "generations": 1})
        code = main(["baseline", "--method", "ga", "--scenario", scenario_path,
                     "--config", cfg, "--t-max", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "population must be an integer >= 2, got 4.5" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"mutation_std": "ab"}, "mutation_std must be two finite numbers >= 0, got 'ab'"),
        ({"mutation_std": 5}, "mutation_std must be two finite numbers >= 0, got 5"),
        ({"crossover_rate": True}, "crossover_rate must be a number in [0, 1], got True"),
        ({"beta": "1"}, "beta must be a finite number >= 0, got '1'"),
    ])
    def test_ga_config_of_wrong_type_exit2(self, tmp_path, scenario_path, capsys, config, message):
        cfg = write_json(tmp_path, "ga.json", {"population": 4, "generations": 1, **config})
        code = main(["baseline", "--method", "ga", "--scenario", scenario_path,
                     "--config", cfg, "--t-max", "5", "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"heading_grid": 2.5}, "heading_grid must be an integer >= 1, got 2.5"),
        ({"heading_grid": True}, "heading_grid must be an integer >= 1, got True"),
        ({"speed_grid": [0.1, "x"]}, "speed_grid must be a list of numbers, got [0.1, 'x']"),
        ({"speed_grid": []}, "speed_grid must hold at least one speed, got an empty list"),
    ])
    def test_bad_greedy_grid_exit2(self, tmp_path, scenario_path, capsys, config, message):
        cfg = write_json(tmp_path, "g.json", config)
        code = main(["baseline", "--method", "greedy", "--scenario", scenario_path,
                     "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_bad_config_field_exit2(self, tmp_path, scenario_path, capsys):
        cfg = write_json(tmp_path, "g.json", {"frobs": 1})
        code = main(["baseline", "--method", "greedy", "--scenario", scenario_path,
                     "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "bad greedy config" in capsys.readouterr().err


class TestSweep:
    def test_end_to_end(self, tmp_path, capsys):
        spec = write_json(tmp_path, "spec.json", {
            "variable": "K", "values": [2], "trials": 1, "methods": ["greedy"],
        })
        out = tmp_path / "sweep"
        code = main(["sweep", "--spec", spec, "--out", str(out)])
        assert code == EXIT_OK
        assert "wrote 1 rows (0 failed cells)" in capsys.readouterr().out
        assert len(read_rows(out / "detail.csv")) == 1
        assert len(read_rows(out / "aggregate.csv")) == 1

    def test_bad_spec_exit2(self, tmp_path, capsys):
        spec = write_json(tmp_path, "spec.json", {"variable": "Q"})
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "bad sweep spec" in capsys.readouterr().err

    @pytest.mark.parametrize("spec_data, field", [
        ({"variable": "K", "values": [2.5]}, "k must be an integer"),
        ({"variable": "K", "values": [2], "ga": {"mutation_std": [-1, 0.3]}}, "mutation_std"),
    ])
    def test_bad_value_in_spec_exit2(self, tmp_path, capsys, spec_data, field):
        spec = write_json(tmp_path, "spec.json", {**spec_data, "trials": 1, "methods": ["ga"]})
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("spec_data, message", [
        ({"greedy": {"speed_grid": []}}, "speed_grid must hold at least one speed"),
        ({"values": None}, "values must be a list of the swept variable's values, got None"),
        ({"values": 0}, "values must be a list of the swept variable's values, got 0"),
        ({"train": {"hidden": 5}}, "hidden must be a list of integers >= 1, got 5"),
        ({"methods": None}, "methods must be a list of method names"),
        ({"scenario": 5}, "scenario must be a dict of overrides, got 5"),
        ({"ga": {"chromosome_length": 10**400}}, "population and chromosome_length must keep"),
        ({"greedy": {"heading_grid": 2**62}}, "heading_grid must keep"),
    ])
    def test_bad_field_exit2(self, tmp_path, capsys, spec_data, message):
        spec = write_json(tmp_path, "spec.json", {"variable": "K", "values": [2], "trials": 1, **spec_data})
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()  # refused before any cell ran

    def test_non_integer_trials_exit2(self, tmp_path, capsys):
        spec = write_json(tmp_path, "spec.json", {"variable": "K", "values": [2], "trials": 1.5})
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "trials must be an integer >= 1, got 1.5" in capsys.readouterr().err

    def test_non_integer_root_seed_exit2(self, tmp_path, capsys):
        spec = write_json(tmp_path, "spec.json", {"variable": "K", "values": [2], "trials": 1, "root_seed": "abc"})
        code = main(["sweep", "--spec", spec, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "root_seed must be an integer, got 'abc'" in capsys.readouterr().err

    def test_failed_cells_exit1(self, tmp_path, monkeypatch, capsys):
        def explode(scn, cfg):
            raise TrainingError("diverged", TrainingLog())

        monkeypatch.setattr("aavtraj.sweep.train", explode)
        spec = write_json(tmp_path, "spec.json", {
            "variable": "K", "values": [2], "trials": 1, "methods": ["l4v"],
            "train": {"max_iters": 2},
        })
        out = tmp_path / "sweep"
        code = main(["sweep", "--spec", spec, "--out", str(out)])
        assert code == EXIT_RUNTIME
        assert "1 failed cells" in capsys.readouterr().out
        (row,) = read_rows(out / "detail.csv")
        assert "diverged" in row["error"]


class TestGradcheck:
    def test_pass_line_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.csv"
        code = main(["gradcheck", "--k", "1", "--t", "8", "--seed", "0",
                     "--sample", "40", "--out", str(report)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("PASS")
        rows = read_rows(report)
        assert len(rows) == 40
        assert list(rows[0]) == GRADCHECK_HEADER
        # every numeric cell must round-trip as a plain float; a numpy
        # scalar slipping through repr() would corrupt the column
        for row in rows:
            int(row["param_index"])
            for col in ("analytic", "finite_diff", "rel_err"):
                float(row[col])

    def test_negative_seed_exit2(self, capsys):
        code = main(["gradcheck", "--k", "1", "--t", "8", "--seed", "-1"])
        assert code == EXIT_USAGE
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--h", "0"), ("--tol", "0"), ("--h", "nan"), ("--tol", "-1e-5")])
    def test_step_and_tolerance_must_be_positive_finite_exit2(self, capsys, flag, value):
        code = main(["gradcheck", "--k", "1", "--t", "8", "--sample", "4", f"{flag}={value}"])
        assert code == EXIT_USAGE
        assert f"{flag[2:]} must be a positive finite number" in capsys.readouterr().err

    def test_unknown_subcommand_exit2(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()


def test_module_entrypoint_help():
    proc = subprocess.run([sys.executable, "-m", "aavtraj", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("train", "eval", "baseline", "sweep", "gradcheck"):
        assert sub in proc.stdout
