import json

import numpy as np
import pytest

from erkg.cli import load_run_config, main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    code = run_cli(
        "synth", "--entities", "60", "--categories", "3", "--relations", "4",
        "--triples-per-relation", "60", "--noise", "0.05", "--seed", "3",
        "--out", str(out),
    )
    assert code == 0
    return out


def write_config(path, data_dir, out_dir, **overrides):
    cfg = {
        "model": "distmult",
        "data": {
            "train": str(data_dir / "train.txt"),
            "valid": str(data_dir / "valid.txt"),
            "test": str(data_dir / "test.txt"),
            "categories": str(data_dir / "categories.txt"),
            "reciprocals": True,
        },
        "train": {
            "dim": 16, "batch_size": 64, "learning_rate": 0.1,
            "epochs": 5, "seed": 1,
        },
        "regularizer": {"kind": "er", "lambda": 0.05, "er_mode": "proximity"},
        "eval": {"tie_policy": "mean"},
        "output": {"dir": str(out_dir)},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestSynth:
    def test_documented_line_counts(self, synth_dir):
        train = (synth_dir / "train.txt").read_text().splitlines()
        valid = (synth_dir / "valid.txt").read_text().splitlines()
        test = (synth_dir / "test.txt").read_text().splitlines()
        assert (len(train), len(valid), len(test)) == (192, 24, 24)
        cats = (synth_dir / "categories.txt").read_text().splitlines()
        assert len(cats) == 60

    def test_seed_repeat_identical(self, tmp_path):
        args = ["synth", "--entities", "30", "--categories", "2", "--relations", "2",
                "--triples-per-relation", "20", "--noise", "0.1", "--seed", "9"]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        for name in ("train.txt", "valid.txt", "test.txt", "categories.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_invalid_noise_exits_2(self, tmp_path):
        code = run_cli(
            "synth", "--entities", "20", "--categories", "2", "--relations", "2",
            "--triples-per-relation", "10", "--noise", "1.5", "--seed", "0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2


class TestTrain:
    def test_outputs_and_exit_zero(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        assert run_cli("train", "--config", str(cfg)) == 0
        for name in ("checkpoint.erkg", "history.json", "valid_report.json"):
            assert (tmp_path / "run" / name).exists()
        report = json.loads((tmp_path / "run" / "valid_report.json").read_text())
        assert set(report) == {"mrr", "hits1", "hits10", "n_queries"}

    def test_unknown_key_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, tmp_path / "run",
            regularizer={"kind": "er", "lamda": 0.1},
        )
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "lamda" in capsys.readouterr().err

    def test_missing_data_path_exits_2(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["data"]["train"] = str(tmp_path / "nope.txt")
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2

    def test_string_patience_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"].update(patience="3", eval_every=1)
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "patience" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("regularizer", "second_order", "false"),
            ("train", "epochs", True),
            ("train", "dim", 8.9),
            ("train", "batch_size", "16"),
            ("train", "dim", "abc"),
            ("regularizer", "lambda", False),
            ("data", "reciprocals", 1),
        ],
    )
    def test_mistyped_value_exits_2(self, synth_dir, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert f"{section}.{key} must be" in capsys.readouterr().err

    def test_typed_values_load_uncoerced(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"]["learning_rate"] = 1
        doc["regularizer"].update(second_order=True, epsilon_init=2)
        cfg.write_text(json.dumps(doc))
        loaded = load_run_config(cfg)
        assert loaded.train.learning_rate == 1.0
        assert isinstance(loaded.train.learning_rate, float)
        assert loaded.train.regularizer.second_order is True
        assert loaded.train.regularizer.epsilon_init == 2.0
        assert loaded.train.dim == 16 and loaded.reciprocals is True

    def test_deprecated_threads_key_loads_with_warning(self, synth_dir, tmp_path, caplog):
        # configs written by earlier `erkg preset` carry a top-level "threads"
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run", threads=1)
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 1
        cfg.write_text(json.dumps(doc))
        with caplog.at_level("WARNING", logger="erkg.cli"):
            assert run_cli("train", "--config", str(cfg)) == 0
        warnings = [r for r in caplog.records if r.name == "erkg.cli"]
        assert len(warnings) == 1 and "threads" in warnings[0].getMessage()

    def test_determinism_byte_identical(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "r1")
        assert run_cli("train", "--config", str(cfg)) == 0
        assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "r2")) == 0
        assert (tmp_path / "r1" / "checkpoint.erkg").read_bytes() == (
            tmp_path / "r2" / "checkpoint.erkg"
        ).read_bytes()
        assert (tmp_path / "r1" / "valid_report.json").read_bytes() == (
            tmp_path / "r2" / "valid_report.json"
        ).read_bytes()


class TestEvaluate:
    def test_reproduces_training_report(self, synth_dir, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        assert run_cli("train", "--config", str(cfg)) == 0
        out = tmp_path / "eval.json"
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.erkg"),
            "--train", str(synth_dir / "train.txt"),
            "--valid", str(synth_dir / "valid.txt"),
            "--test", str(synth_dir / "test.txt"),
            "--split", "valid", "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == (tmp_path / "run" / "valid_report.json").read_bytes()

    def test_corrupted_checkpoint_exits_2(self, synth_dir, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNK" + b"\x00" * 50)
        code = run_cli(
            "evaluate", "--checkpoint", str(bad),
            "--train", str(synth_dir / "train.txt"),
            "--valid", str(synth_dir / "valid.txt"),
            "--test", str(synth_dir / "test.txt"),
        )
        assert code == 2

    def test_vocab_mismatch_exits_2(self, synth_dir, tmp_path):
        from erkg.models import ModelKind, init_params
        from erkg.regularizers import EpsilonState
        from erkg.training import save_checkpoint

        params = init_params(ModelKind.DISTMULT, 5, 2, 4, seed=0)
        save_checkpoint(params, EpsilonState.create(2), tmp_path / "tiny.ckpt")
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "tiny.ckpt"),
            "--train", str(synth_dir / "train.txt"),
            "--valid", str(synth_dir / "valid.txt"),
            "--test", str(synth_dir / "test.txt"),
        )
        assert code == 2


class TestVerifyTheorems:
    def test_default_amgm_run_is_clean(self, tmp_path, capsys):
        code = run_cli(
            "verify-theorems", "--seeds", "2", "--restarts", "15",
            "--out", str(tmp_path),
        )
        assert code == 0
        rows = json.loads((tmp_path / "theorem_reports.json").read_text())
        assert len(rows) == 2
        for row in rows:
            assert row["feasible"]
            assert 0.95 <= row["ratio"] <= 1.05
            assert row["equality_residual"] < 0.05

    def test_rows_report_feasible_restarts(self, tmp_path):
        assert run_cli(
            "verify-theorems", "--seeds", "1", "--restarts", "3", "--out", str(tmp_path),
        ) == 0
        (row,) = json.loads((tmp_path / "theorem_reports.json").read_text())
        assert 1 <= row["lhs_feasible"] <= 3
        assert 1 <= row["nuclear_feasible"] <= 3

    def test_mechanism_mismatch_exits_2(self):
        assert run_cli("verify-theorems", "--variants", "thm2") == 2
        assert run_cli(
            "verify-theorems", "--variants", "thm1", "--mechanism", "distance"
        ) == 2

    def test_unknown_variant_exits_2(self):
        assert run_cli("verify-theorems", "--variants", "thm9") == 2

    def test_flagged_thm_ratio_exits_1(self, tmp_path):
        code = run_cli(
            "verify-theorems", "--variants", "thm1", "--seeds", "1",
            "--restarts", "4", "--out", str(tmp_path),
        )
        rows = json.loads((tmp_path / "theorem_reports.json").read_text())
        assert len(rows) == 1
        assert rows[0]["feasible"]
        # the literal statement's ratio sits far outside the band here, so
        # the command reports it and signals with exit code 1
        assert rows[0]["flagged"]
        assert code == 1

    def test_repeat_run_identical_reports(self, tmp_path):
        for sub in ("a", "b"):
            assert run_cli(
                "verify-theorems", "--seeds", "1", "--restarts", "5",
                "--out", str(tmp_path / sub),
            ) == 0
        assert (tmp_path / "a" / "theorem_reports.json").read_bytes() == (
            tmp_path / "b" / "theorem_reports.json"
        ).read_bytes()


class TestGridsearch:
    def test_two_by_two_grid(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, tmp_path / "grid",
            grid={"learning_rate": [0.1, 0.05], "lambda": [0.0, 0.05]},
        )
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 2
        cfg.write_text(json.dumps(doc))
        assert run_cli("gridsearch", "--config", str(cfg)) == 0
        rows = json.loads((tmp_path / "grid" / "leaderboard.json").read_text())
        assert len(rows) == 4
        assert sum(1 for r in rows if r["best"]) == 1
        best = next(r for r in rows if r["best"])
        assert best["mrr"] == max(r["mrr"] for r in rows if r["status"] == "ok")

    def test_non_numeric_grid_value_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, tmp_path / "run",
            grid={"learning_rate": [0.1, "fast"]},
        )
        assert run_cli("gridsearch", "--config", str(cfg)) == 2
        assert "grid.learning_rate" in capsys.readouterr().err

    def test_default_grids_are_standard_sets(self):
        from erkg.presets import LAMBDA_GRID, LEARNING_RATE_GRID

        assert LEARNING_RATE_GRID == [0.5, 0.1, 0.05, 0.01, 0.005, 0.001]
        assert LAMBDA_GRID == [0.001, 0.005, 0.01, 0.05, 0.1, 0.5]

    def test_rerun_identical_leaderboard(self, synth_dir, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, tmp_path / "g1",
            grid={"learning_rate": [0.1], "lambda": [0.0, 0.01]},
        )
        doc = json.loads(cfg.read_text())
        doc["train"]["epochs"] = 2
        cfg.write_text(json.dumps(doc))
        assert run_cli("gridsearch", "--config", str(cfg)) == 0
        assert run_cli("gridsearch", "--config", str(cfg), "--out", str(tmp_path / "g2")) == 0
        assert (tmp_path / "g1" / "leaderboard.json").read_bytes() == (
            tmp_path / "g2" / "leaderboard.json"
        ).read_bytes()


class TestPreset:
    def test_paper_scale_values(self, capsys):
        assert run_cli("preset", "rescal", "wn18rr", "--scale", "paper") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["train"]["dim"] == 512
        assert doc["train"]["batch_size"] == 400
        assert doc["train"]["learning_rate"] == 0.1
        assert doc["train"]["epochs"] == 200

    def test_desk_scale_caps_dim(self, capsys):
        assert run_cli("preset", "complex", "fb15k237") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["train"]["dim"] <= 128

    def test_no_threads_key(self, capsys):
        assert run_cli("preset", "cp", "wn18rr") == 0
        assert "threads" not in json.loads(capsys.readouterr().out)
