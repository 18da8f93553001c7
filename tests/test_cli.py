import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from erkg import cli, data, nuclear, training
from erkg.cli import load_run_config, main
from erkg.presets import _PAPER, get_preset


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


def config_with_empty_valid(tmp_path, data_dir, **overrides):
    """A config with ``eval_every`` 0 whose ``data.valid`` is an empty file."""
    cfg = write_config(tmp_path / "cfg.json", data_dir, tmp_path / "run", **overrides)
    doc = json.loads(cfg.read_text())
    doc["data"]["valid"] = str(tmp_path / "valid.txt")
    (tmp_path / "valid.txt").write_text("")
    cfg.write_text(json.dumps(doc))
    return cfg


def training_started(*args, **kwargs):
    raise AssertionError("training started on a config that cannot train")


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run_cli("synth", "--seed", "-1", "--out", str(tmp_path / "x"))
        assert code == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_count_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        """10,000 triples need 240 kB as int64 rows but about 3 MB while
        they are generated; on a machine of 1 MB the count is refused
        before any work."""
        def work_before_the_check(*args, **kwargs):
            raise AssertionError("generation started")

        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(cli, "generate_synthetic", work_before_the_check)
        code = run_cli("synth", "--entities", "30", "--categories", "2", "--relations", "10",
                       "--triples-per-relation", "1000", "--out", str(tmp_path / "x"))
        assert code == 2
        err = capsys.readouterr().err
        assert "--relations 10 with --triples-per-relation 1000" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()


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

    def test_category_path_is_directory_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["data"]["categories"] = str(tmp_path)
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "category file" in capsys.readouterr().err

    def test_category_mode_without_categories_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["data"]["categories"] = None
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "er_mode 'proximity' needs a category file" in capsys.readouterr().err

    def test_strict_labels_with_an_unlabeled_head_exits_2(self, synth_dir, tmp_path, capsys):
        """The penalty's ``ConfigError`` reaches the CLI with its type and
        message, although the loss runs beside it on a worker thread."""
        cats = tmp_path / "categories.txt"
        cats.write_text("".join((synth_dir / "categories.txt").read_text().splitlines(True)[:10]))
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["data"]["categories"] = str(cats)
        doc["regularizer"]["strict_labels"] = True
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert err == "error: pair with unlabeled entity in category mode\n"
        assert not (tmp_path / "run" / "checkpoint.erkg").exists()

    def test_config_is_directory_exits_2(self, tmp_path, capsys):
        assert run_cli("train", "--config", str(tmp_path)) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_non_utf8_config_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        cfg.write_bytes(cfg.read_bytes().replace(b'"distmult"', b'"distmult\xff"'))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gridsearch"])
    def test_non_utf8_data_file_exits_2(self, synth_dir, tmp_path, capsys, command):
        good = (synth_dir / "train.txt").read_bytes()
        train = tmp_path / "train.txt"
        train.write_bytes(good + b"e1\tr\xff0\te2\n")
        grid = {"grid": {"learning_rate": [0.1], "lambda": [0.05]}} if command == "gridsearch" else {}
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run", **grid)
        doc = json.loads(cfg.read_text())
        doc["data"]["train"] = str(train)
        cfg.write_text(json.dumps(doc))
        bad_line = good.count(b"\n") + 1
        assert run_cli(command, "--config", str(cfg)) == 2
        assert f"{train}:{bad_line}: not UTF-8" in capsys.readouterr().err

    def test_string_patience_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"].update(patience="3", eval_every=1)
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "patience" in capsys.readouterr().err

    @pytest.mark.parametrize("in_config", [True, False])
    def test_negative_seed_exits_2(self, synth_dir, tmp_path, capsys, in_config):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        flag = []
        if in_config:
            doc = json.loads(cfg.read_text())
            doc["train"]["seed"] = -1
            cfg.write_text(json.dumps(doc))
        else:
            flag = ["--seed", "-1"]
        assert run_cli("train", "--config", str(cfg), *flag) == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.erkg").exists()

    def test_seed_flag_checked_before_any_work(self, synth_dir, tmp_path, capsys, monkeypatch):
        """``--seed -1`` is refused where the override is applied, before
        the data is loaded or the output directory is created."""
        def data_loaded(*args, **kwargs):
            raise AssertionError("data loaded before the seed was checked")

        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        monkeypatch.setattr(cli, "load_dataset", data_loaded)
        assert run_cli("train", "--config", str(cfg), "--seed", "-1") == 2
        assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_overflowing_adagrad_state_exits_3(self, synth_dir, tmp_path, capsys):
        """Lambda 1e300 keeps the loss and gradients finite but overflows
        the squared gradients into the Adagrad accumulators."""
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run",
                           regularizer={"kind": "fro", "lambda": 1e300})
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert run_cli("train", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "non-finite Adagrad accumulator" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.erkg").exists()

    def test_missing_merge_kernel_exits_2(self, synth_dir, tmp_path, capsys, monkeypatch):
        """Without scipy's compiled CSR kernel the first gradient merge
        raises ``ConfigError`` naming it, and no checkpoint is written."""
        monkeypatch.setitem(sys.modules, "scipy.sparse._sparsetools", types.SimpleNamespace())
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        assert run_cli("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "scipy >= 1.15 with its compiled scipy.sparse._sparsetools.csr_matvecs" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.erkg").exists()

    @pytest.mark.parametrize("size_check", [True, False])
    def test_huge_dim_exits_2(self, synth_dir, tmp_path, capsys, monkeypatch, size_check):
        """Refused from the block shapes alone, or, without that check,
        when the allocation fails."""
        if not size_check:
            monkeypatch.setattr(training, "_check_size", lambda *args: None)
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"]["dim"] = 10**12
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "dim 1000000000000" in err and "distmult" in err and "entities" in err
        assert "Traceback" not in err
        assert not (tmp_path / "run" / "checkpoint.erkg").exists()

    def test_patience_without_evaluation_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"].update(patience=2)
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "patience needs eval_every" in capsys.readouterr().err

    def test_evaluation_without_valid_split_exits_2(self, synth_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"].update(eval_every=1)
        doc["data"]["valid"] = str(tmp_path / "valid.txt")
        (tmp_path / "valid.txt").write_text("")
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "non-empty validation split" in capsys.readouterr().err

    def test_empty_valid_split_exits_2_before_training(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        """Without ``eval_every`` the split is still ranked after training."""
        cfg = config_with_empty_valid(tmp_path, synth_dir)
        monkeypatch.setattr(cli, "train", training_started)
        assert run_cli("train", "--config", str(cfg)) == 2
        assert "data.valid" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

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
            ("regularizer", "lambda", float("nan")),
            ("regularizer", "tau", float("nan")),
            ("regularizer", "epsilon_init", float("nan")),
            ("train", "learning_rate", float("nan")),
            ("train", "learning_rate", float("inf")),
            ("train", "adagrad_eps", -float("inf")),
        ],
    )
    def test_mistyped_value_exits_2(self, synth_dir, tmp_path, capsys, section, key, value):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc[section][key] = value
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert f"{section}.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, value",
        [("train", 5), ("eval", None), ("regularizer", ["kind"]), ("data", "x"), (None, [1])],
    )
    def test_section_not_an_object_exits_2(self, synth_dir, tmp_path, capsys, section, value):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        if section is None:
            doc = value
        else:
            doc[section] = value
        cfg.write_text(json.dumps(doc))
        assert run_cli("train", "--config", str(cfg)) == 2
        assert f"{section or 'config'} must be a JSON object" in capsys.readouterr().err

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

    def test_non_finite_checkpoint_exits_2(self, synth_dir, tmp_path, capsys):
        from erkg.models import ModelKind, init_params
        from erkg.regularizers import EpsilonState
        from erkg.training import save_checkpoint

        splits = [str(synth_dir / f"{split}.txt") for split in ("train", "valid", "test")]
        vocab = data.add_reciprocals(data.load_dataset(*splits)).vocab
        params = init_params(ModelKind.DISTMULT, vocab.n_entities, vocab.n_relations, 8, seed=0)
        params.blocks()["ent"][:] = float("nan")
        save_checkpoint(params, EpsilonState.create(vocab.n_relations), tmp_path / "nan.ckpt")
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "nan.ckpt"),
            "--train", splits[0], "--valid", splits[1], "--test", splits[2],
        )
        assert code == 2
        assert "'ent' is not finite" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, synth_dir, tmp_path, capsys):
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "missing.erkg"),
            "--train", str(synth_dir / "train.txt"),
            "--valid", str(synth_dir / "valid.txt"),
            "--test", str(synth_dir / "test.txt"),
        )
        assert code == 2
        assert "cannot read checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "valid", "test"])
    def test_missing_data_file_exits_2(self, synth_dir, tmp_path, capsys, split):
        from erkg.models import ModelKind, init_params
        from erkg.regularizers import EpsilonState
        from erkg.training import save_checkpoint

        params = init_params(ModelKind.DISTMULT, 5, 2, 4, seed=0)
        save_checkpoint(params, EpsilonState.create(2), tmp_path / "tiny.ckpt")
        paths = {name: str(synth_dir / f"{name}.txt") for name in ("train", "valid", "test")}
        paths[split] = str(tmp_path / "missing.txt")
        code = run_cli(
            "evaluate", "--checkpoint", str(tmp_path / "tiny.ckpt"),
            "--train", paths["train"], "--valid", paths["valid"], "--test", paths["test"],
        )
        assert code == 2
        assert "missing.txt" in capsys.readouterr().err


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

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        code = run_cli("verify-theorems", "--seed", "-1", "--seeds", "1", "--restarts", "1",
                       "--out", str(tmp_path))
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and "seed must be an integer >= 0, got -1" in err
        assert not (tmp_path / "theorem_reports.json").exists()

    @pytest.mark.parametrize("flag", ["--restarts", "--seeds"])
    def test_zero_count_exits_2(self, tmp_path, capsys, flag):
        code = run_cli("verify-theorems", flag, "0", "--out", str(tmp_path))
        out, err = capsys.readouterr()
        assert code == 2
        assert out == "" and f"{flag.lstrip('-')} must be >= 1" in err
        assert not (tmp_path / "theorem_reports.json").exists()

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

    def test_infeasible_row_exits_1(self, tmp_path, monkeypatch):
        monkeypatch.setattr(nuclear, "FEASIBILITY_TARGET", 0.0)
        code = run_cli(
            "verify-theorems", "--dims", "2,1,2,1", "--seeds", "1", "--restarts", "1",
            "--out", str(tmp_path),
        )
        (row,) = json.loads((tmp_path / "theorem_reports.json").read_text())
        assert row["variant"] == "amgm4" and row["feasible"] is False
        assert "over 1 restarts" in row["error"]
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
        for bad in ("fast", float("nan")):
            cfg = write_config(
                tmp_path / "cfg.json", synth_dir, tmp_path / "run",
                grid={"learning_rate": [0.1, bad]},
            )
            assert run_cli("gridsearch", "--config", str(cfg)) == 2
            assert "grid.learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["lambda", "learning_rate"])
    def test_empty_grid_list_exits_2(self, synth_dir, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run", grid={key: []})
        assert run_cli("gridsearch", "--config", str(cfg)) == 2
        assert f"grid.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_empty_valid_split_exits_2_before_training(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        cfg = config_with_empty_valid(tmp_path, synth_dir,
                                      grid={"learning_rate": [0.1, 0.05], "lambda": [0.05]})
        monkeypatch.setattr(cli, "train", training_started)
        assert run_cli("gridsearch", "--config", str(cfg)) == 2
        assert "data.valid" in capsys.readouterr().err
        assert list((tmp_path / "run").iterdir()) == []

    def test_filter_index_built_once(self, synth_dir, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "cfg.json", synth_dir, tmp_path / "grid",
            grid={"learning_rate": [0.1, 0.05], "lambda": [0.05]},
        )
        doc = json.loads(cfg.read_text())
        doc["train"].update(epochs=2, eval_every=1)
        cfg.write_text(json.dumps(doc))
        built = []
        build = data.build_filter_index
        monkeypatch.setattr(data, "build_filter_index", lambda s: built.append(s) or build(s))
        assert run_cli("gridsearch", "--config", str(cfg)) == 0
        assert len(built) == 1

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

    @pytest.mark.parametrize("scale", ["paper", "desk"])
    @pytest.mark.parametrize(
        "model, dataset", [(m, d) for m, sets in _PAPER.items() for d in sets]
    )
    def test_printed_preset_loads_to_its_config(
        self, synth_dir, tmp_path, capsys, model, dataset, scale
    ):
        assert run_cli("preset", model, dataset, "--scale", scale) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"dissim_weight", "strict_labels"} <= set(doc["regularizer"])
        for split in ("train", "valid", "test"):
            doc["data"][split] = str(synth_dir / f"{split}.txt")
        cfg = tmp_path / "preset.json"
        cfg.write_text(json.dumps(doc))
        assert load_run_config(cfg).train == get_preset(model, dataset, scale)


RESCAL_N3 = ("rescal", {}, {"kind": "n3"}, {}, "n3 penalty does not support rescal")
COMPLEX_DIM_7 = ("complex", {"dim": 7}, {}, {}, "complex requires an even dim, got 7")
LR_MESSAGE = "learning_rate must be positive"


@pytest.mark.parametrize("command, model, train_keys, reg_keys, grid, message", [
    ("train", *RESCAL_N3),
    ("gridsearch", *RESCAL_N3),
    ("train", *COMPLEX_DIM_7),
    ("gridsearch", *COMPLEX_DIM_7),
    ("gridsearch", "distmult", {}, {}, {"learning_rate": [0.1, -0.1]}, LR_MESSAGE),
    ("gridsearch", "distmult", {}, {}, {"learning_rate": [0.0]}, LR_MESSAGE),
])
def test_untrainable_config_exits_2_before_training(
    synth_dir, tmp_path, capsys, monkeypatch, command, model, train_keys, reg_keys, grid, message
):
    cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run", model=model,
                       **({"grid": grid} if grid else {}))
    doc = json.loads(cfg.read_text())
    doc["train"].update(train_keys)
    doc["regularizer"].update(reg_keys)
    cfg.write_text(json.dumps(doc))
    monkeypatch.setattr(cli, "train", training_started)
    assert run_cli(command, "--config", str(cfg)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "evaluate", "verify-theorems", "synth", "gridsearch"])
def test_output_path_under_a_file_exits_2(synth_dir, tmp_path, capsys, monkeypatch, command):
    """An output path that cannot be created is a usage error, not a
    verification failure, and it is found before any ranking or checking."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = str(write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run"))
    data = [str(synth_dir / f"{split}.txt") for split in ("train", "valid", "test")]
    if command == "evaluate":
        assert run_cli("train", "--config", cfg) == 0

    def work_before_the_output_check(*args, **kwargs):
        raise AssertionError("work started before the output path was checked")

    monkeypatch.setattr(cli, "evaluate", work_before_the_output_check)
    monkeypatch.setattr(nuclear, "check_instance", work_before_the_output_check)
    argv = {
        "train": ["--config", cfg],
        "evaluate": ["--checkpoint", str(tmp_path / "run" / "checkpoint.erkg"),
                     "--train", data[0], "--valid", data[1], "--test", data[2]],
        "verify-theorems": ["--dims", "2,1,2,1", "--seeds", "1", "--restarts", "1"],
        "synth": [],
        "gridsearch": ["--config", cfg],
    }[command]
    out = blocker / "x.json" if command == "evaluate" else blocker
    assert run_cli(command, *argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "output directory" in err or "cannot write" in err


# ---------------------------------------------------------------------------
# Every config field and numeric flag against -1, 0, a huge value, a tiny
# value and a wrong type, run in-process.  Each outcome is the documented
# exit code (0 ran, 2 usage or config error naming the key or flag, 3
# numeric abort), or VALID: a huge value that is accepted and only costs
# time, checked by loading the config or parsing the flags, so nothing
# sized by it runs.  A huge memory size fails at once (10**12 entities),
# never one the OS could commit lazily.

VALID = "valid"
PROBES = ("minus_one", "zero", "huge", "tiny", "wrong_type")
INTS = (-1, 0, 10**12, 1, "1")
FLOATS = (-1.0, 0.0, 1e300, 1e-300, "1")
FLAG_INTS, FLAG_FLOATS = INTS[:4] + ("1.5",), FLOATS[:4] + ("x",)
NOT_NUMBERS = (-1, 0, 10**12, 1e-300, None)  # for string and boolean fields

# (section, key, values, outcomes, train keys the value needs to act)
CONFIG_TABLE = [
    (None, "model", NOT_NUMBERS, (2, 2, 2, 2, 2), {}),
    ("train", "dim", INTS, (2, 2, 2, 0, 2), {}),
    ("train", "batch_size", INTS, (2, 2, 0, 0, 2), {}),
    ("train", "learning_rate", FLOATS, (2, 2, 3, 0, 2), {}),
    ("train", "epochs", INTS, (2, 2, VALID, 0, 2), {}),
    ("train", "seed", INTS, (2, 0, 0, 0, 2), {}),
    (None, "regularizer", NOT_NUMBERS, (2, 2, 2, 2, 2), {}),
    ("train", "eval_every", INTS, (2, 0, 0, 0, 2), {}),
    ("train", "adagrad_eps", FLOATS, (2, 2, 0, 0, 2), {}),
    ("train", "patience", INTS, (2, 2, 0, 0, 2), {"eval_every": 1}),
    ("regularizer", "kind", NOT_NUMBERS, (2, 2, 2, 2, 2), {}),
    ("regularizer", "lambda", FLOATS, (2, 0, 3, 0, 2), {}),
    ("regularizer", "er_mode", NOT_NUMBERS, (2, 2, 2, 2, 2), {}),
    ("regularizer", "norm_order", INTS, (2, 2, 2, 2, 2), {}),
    ("regularizer", "pair_budget", INTS, (2, 2, 0, 0, 2), {}),
    ("regularizer", "second_order", NOT_NUMBERS, (2, 2, 2, 2, 2), {}),
    ("regularizer", "path_budget", INTS, (2, 2, 0, 0, 2), {}),
    ("regularizer", "tau", FLOATS, (2, 2, 0, 3, 2), {}),
    ("regularizer", "epsilon_init", FLOATS[:4] + (True,), (0, 0, 0, 0, 2), {}),
    ("regularizer", "dissim_weight", FLOATS, (2, 0, 3, 0, 2), {}),
    ("regularizer", "strict_labels", NOT_NUMBERS, (2, 2, 2, 2, 2), {}),
]

# (command, flag, values, outcomes); flags not probed keep small values
FLAG_TABLE = [
    ("train", "--seed", FLAG_INTS, (2, 0, 0, 0, 2)),
    *[("synth", flag, FLAG_INTS, outcomes) for flag, outcomes in [
        ("--entities", (2, 2, 2, 2, 2)),
        ("--categories", (2, 2, 2, 2, 2)),
        ("--relations", (2, 2, 2, 0, 2)),
        ("--triples-per-relation", (2, 2, 2, 0, 2)),
        ("--seed", (2, 0, 0, 0, 2)),
    ]],
    ("synth", "--noise", FLAG_FLOATS, (2, 0, 2, 0, 2)),
    *[("verify-theorems", f"--dims:{i}", FLAG_INTS, (2, 2, 2, 0, 2)) for i in range(4)],
    ("verify-theorems", "--seeds", FLAG_INTS, (2, 2, VALID, 0, 2)),
    ("verify-theorems", "--seed", FLAG_INTS, (2, 0, 0, 0, 2)),
    ("verify-theorems", "--restarts", FLAG_INTS, (2, 2, VALID, 0, 2)),
]

SMALL_FLAGS = {
    "train": {},
    "synth": {"--entities": "30", "--categories": "2", "--relations": "2",
              "--triples-per-relation": "20", "--noise": "0.1", "--seed": "9"},
    "verify-theorems": {"--dims": "2,1,2,1", "--seeds": "1", "--seed": "0", "--restarts": "1"},
}


def _cases(table):
    for section, key, values, outcomes, *rest in table:
        for probe, value, outcome in zip(PROBES, values, outcomes):
            where = "" if section is None else f"{section}."
            yield pytest.param(section, key, value, outcome, *rest, id=f"{where}{key}={probe}")


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a flag value
        return exc.code


def _check_outcome(code, outcome, err, name):
    assert code == outcome, err
    assert "Traceback" not in err
    if code == 2:
        assert "error:" in err and name in err.replace("-", "_")
    if code == 3:
        assert "numeric abort:" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("section, key, value, outcome, context", _cases(CONFIG_TABLE))
def test_config_value_table(synth_dir, tmp_path, capsys, section, key, value, outcome, context):
    regularizer = {"kind": "er", "lambda": 0.05, "er_mode": "joint", "second_order": True}
    cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run", regularizer=regularizer)
    doc = json.loads(cfg.read_text())
    doc["train"].update(dim=8, epochs=1, **context)
    (doc if section is None else doc[section])[key] = value
    cfg.write_text(json.dumps(doc))
    if outcome == VALID:
        load_run_config(cfg)
        return
    code = _exit_code(["train", "--config", str(cfg)])
    _check_outcome(code, outcome, capsys.readouterr().err, key)
    assert (tmp_path / "run" / "checkpoint.erkg").exists() == (code == 0)


@pytest.mark.parametrize("command, flag, value, outcome", _cases(FLAG_TABLE))
def test_flag_value_table(synth_dir, tmp_path, capsys, command, flag, value, outcome):
    flags = dict(SMALL_FLAGS[command])
    if flag.startswith("--dims:"):
        dims = flags["--dims"].split(",")
        dims[int(flag[-1])] = str(value)
        flag, value = "--dims", ",".join(dims)
    flags[flag] = str(value)
    argv = [command, *[f"{name}={v}" for name, v in flags.items()]]  # "=" lets "-1" through
    if command == "train":
        cfg = write_config(tmp_path / "cfg.json", synth_dir, tmp_path / "run")
        doc = json.loads(cfg.read_text())
        doc["train"].update(dim=8, epochs=1)
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    else:
        argv += ["--out", str(tmp_path / "out")]
    if outcome == VALID:
        args = cli.build_parser().parse_args(argv)
        assert getattr(args, flag.lstrip("-")) == value
        return
    code = _exit_code(argv)
    _check_outcome(code, outcome, capsys.readouterr().err, flag.lstrip("-").replace("-", "_"))


def test_python_dash_m_runs_the_cli():
    """``python -m erkg`` reaches ``cli.main`` from a source checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-m", "erkg", "--help"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "verify-theorems" in out.stdout
