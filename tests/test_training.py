import os
import platform
import struct
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import erkg.data as data
import erkg.training as training
from erkg.data import TripleStore, Vocab, add_reciprocals, generate_synthetic
from erkg.errors import CheckpointError, ConfigError, NumericError
from erkg.models import ModelKind, forward_all_tails, init_params
from erkg.regularizers import EpsilonState, RegularizerSpec, sample_path_pairs, select_pairs
from erkg.training import TrainConfig, load_checkpoint, save_checkpoint, train
from oracles import adagrad_update, cross_entropy_loss


class TestCrossEntropy:
    def test_uniform_scores(self):
        loss, grad = cross_entropy_loss(np.zeros(4), 2)
        assert loss == pytest.approx(np.log(4.0))
        assert grad[2] == pytest.approx(0.25 - 1.0)
        assert grad[0] == pytest.approx(0.25)

    def test_saturated_target(self):
        scores = np.array([100.0, 0.0, 0.0, 0.0])
        loss, _ = cross_entropy_loss(scores, 0)
        assert 0.0 < loss < 1e-40

    def test_hand_logsumexp(self):
        loss, _ = cross_entropy_loss(np.array([1.0, 2.0, 3.0]), 2)
        expect = np.log(np.exp(1) + np.exp(2) + np.exp(3)) - 3.0
        assert loss == pytest.approx(expect)
        assert loss == pytest.approx(0.40760596444438, rel=1e-10)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=7)
        loss, grad = cross_entropy_loss(scores, 3)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        expect = p.copy()
        expect[3] -= 1.0
        assert np.allclose(grad, expect, atol=1e-12)
        assert grad.sum() == pytest.approx(0.0, abs=1e-12)

    def test_target_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy_loss(np.zeros(3), 5)


class TestAdagrad:
    def test_zero_grad_no_change(self):
        p, a = adagrad_update(np.array([1.0]), np.array([0.0]), np.array([2.0]), 0.1, 1e-10)
        assert p[0] == 1.0
        assert a[0] == 2.0

    def test_first_step_is_signed_lr(self):
        p, _ = adagrad_update(np.array([0.0]), np.array([5.0]), np.array([0.0]), 0.1, 1e-12)
        assert p[0] == pytest.approx(-0.1, rel=1e-9)

    def test_hand_value(self):
        p, a = adagrad_update(np.array([1.0]), np.array([2.0]), np.array([0.0]), 0.1, 1e-10)
        assert a[0] == pytest.approx(4.0)
        assert p[0] == pytest.approx(0.9, rel=1e-9)

    def test_accumulator_nondecreasing(self):
        rng = np.random.default_rng(1)
        p = rng.normal(size=8)
        a = np.zeros(8)
        for _ in range(20):
            g = rng.normal(size=8)
            prev = a.copy()
            p, a = adagrad_update(p, g, a, 0.05, 1e-10)
            assert np.all(a >= prev)

    def test_nonfinite_grad_aborts(self):
        with pytest.raises(NumericError):
            adagrad_update(np.zeros(2), np.array([1.0, np.nan]), np.zeros(2), 0.1, 1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adagrad_update(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 1e-10)

    @pytest.mark.parametrize("idx", [np.array([1, 4, 8]), None], ids=["rows", "dense"])
    def test_inplace_step_matches_oracle(self, idx):
        """Touched rows take the oracle's step; every other row keeps its bits."""
        rng = np.random.default_rng(2)
        param, acc = rng.normal(size=(9, 4)), rng.uniform(size=(9, 4))
        rows = np.arange(9) if idx is None else idx
        grad = rng.normal(size=(len(rows), 4))
        p_ref, a_ref = adagrad_update(param[rows], grad, acc[rows], 0.1, 1e-10)
        p, a = param.copy(), acc.copy()
        training._adagrad_step_inplace(p, a, idx, grad, 0.1, 1e-10)
        assert np.array_equal(p[rows], p_ref) and np.array_equal(a[rows], a_ref)
        rest = np.setdiff1d(np.arange(9), rows)
        assert p[rest].tobytes() == param[rest].tobytes()
        assert a[rest].tobytes() == acc[rest].tobytes()


def toy_store(n_ent=4, triples=((0, 0, 1), (2, 0, 3))):
    vocab = Vocab(
        {f"e{i}": i for i in range(n_ent)}, {"r0": 0}
    )
    train = np.array(triples, dtype=np.int64)
    empty = np.empty((0, 3), dtype=np.int64)
    return TripleStore(train, empty, empty, vocab)


def dataset_loss(params, arr):
    S, _ = forward_all_tails(params, arr[:, 0], arr[:, 1])
    return sum(cross_entropy_loss(s, int(t))[0] for s, t in zip(S, arr[:, 2])) / len(arr)


class TestTrainConfig:
    @pytest.mark.parametrize("cls, kwargs, field, value", [
        (RegularizerSpec, {"kind": "er"}, "tau", 2.0),
        (TrainConfig, {}, "seed", 1),
    ])
    def test_checked_config_cannot_change(self, cls, kwargs, field, value):
        obj = cls(**kwargs)
        with pytest.raises(FrozenInstanceError):
            setattr(obj, field, value)
        assert getattr(obj, field) != value

    @pytest.mark.parametrize("cls, kwargs, bad, message", [
        (RegularizerSpec, {"kind": "er"}, {"tau": 0.0}, "tau (the temperature) must be positive"),
        (TrainConfig, {}, {"seed": -1}, "seed must be an integer >= 0, got -1"),
    ])
    def test_replace_checks_as_construction_does(self, cls, kwargs, bad, message):
        with pytest.raises(ConfigError) as built:
            cls(**kwargs, **bad)
        with pytest.raises(ConfigError) as replaced:
            replace(cls(**kwargs), **bad)
        assert str(replaced.value) == str(built.value) == message

    @pytest.mark.parametrize("patience", [0, -1, True, "3", 2.0])
    def test_bad_patience_rejected(self, patience):
        with pytest.raises(ConfigError):
            TrainConfig(patience=patience)

    @pytest.mark.parametrize("patience", [None, 1, 5])
    def test_good_patience_accepted(self, patience):
        TrainConfig(patience=patience, eval_every=1)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_rejected(self, seed):
        with pytest.raises(ConfigError, match=f"seed must be an integer >= 0, got {seed}"):
            TrainConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**70, np.int64(5)])
    def test_seeds_numpy_takes_accepted(self, seed):
        TrainConfig(seed=seed)

    def test_patience_without_evaluation_rejected(self):
        with pytest.raises(ConfigError, match="patience needs eval_every"):
            TrainConfig(patience=2)

    @pytest.mark.parametrize("field", ["learning_rate", "lam", "tau"])
    def test_nan_rejected(self, field):
        nan = float("nan")
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            if field == "learning_rate":
                TrainConfig(learning_rate=nan)
            else:
                TrainConfig(regularizer=RegularizerSpec(kind="er", **{field: nan}))

    @pytest.mark.parametrize("field", ["epochs", "batch_size", "dim", "patience"])
    def test_zero_count_named(self, field):
        """Each count is checked by ``check_count`` and named alone."""
        with pytest.raises(ConfigError, match=f"^{field} must be an integer >= 1, got 0$"):
            TrainConfig(eval_every=1, **{field: 0})

    def test_non_integer_dim_rejected(self):
        with pytest.raises(ConfigError, match="dim must be an integer, got 8.5"):
            TrainConfig(dim=8.5)

    def test_bool_batch_size_rejected(self):
        with pytest.raises(ConfigError, match="batch_size must be an integer, got True"):
            TrainConfig(batch_size=True)

    def test_numpy_scalars_accepted(self):
        TrainConfig(seed=np.int64(3), learning_rate=np.float32(0.5))

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown model kind 'foo'"):
            TrainConfig(model="foo")

    @pytest.mark.parametrize("model, penalty, dim, message", [
        ("rescal", "n3", 8, "n3 penalty does not support rescal"),
        ("transe", "n3", 8, "n3 penalty does not support transe"),
        ("rotate", "n3", 8, "n3 penalty does not support rotate"),
        ("transe", "dura", 8, "dura penalty does not support transe"),
        ("rotate", "dura", 8, "dura penalty does not support rotate"),
        ("complex", "none", 7, "complex requires an even dim, got 7"),
        ("rotate", "er", 5, "rotate requires an even dim, got 5"),
    ])
    def test_untrainable_combination_rejected(self, model, penalty, dim, message):
        with pytest.raises(ConfigError, match=message):
            TrainConfig(model=model, dim=dim, regularizer=RegularizerSpec(kind=penalty))

    @pytest.mark.parametrize("model, penalty, dim", [
        ("cp", "n3", 8), ("complex", "n3", 8), ("rescal", "dura", 8),
        ("distmult", "dura", 7), ("transe", "fro", 5), ("rotate", "er", 6),
    ])
    def test_trainable_combination_accepted(self, model, penalty, dim):
        TrainConfig(model=model, dim=dim, regularizer=RegularizerSpec(kind=penalty))


class TestTrain:
    def test_config_of_another_type_rejected(self):
        with pytest.raises(ConfigError, match="^config must be TrainConfig, got {'model': 'cp'}$"):
            train({"model": "cp"}, toy_store())

    def test_store_of_another_type_rejected(self):
        cfg = TrainConfig(model="distmult", dim=4, epochs=1)
        with pytest.raises(ConfigError, match="^store must be TripleStore, got None$"):
            train(cfg, None)

    def test_categories_of_another_type_rejected_before_training(self, monkeypatch):
        store, _cmap = generate_synthetic(60, 3, 4, 60, 0.05, 3)

        def work_before_the_check(*args, **kwargs):
            raise AssertionError("parameters initialized before the check")

        monkeypatch.setattr(training, "init_params", work_before_the_check)
        cfg = TrainConfig(model="distmult", dim=4, epochs=1,
                          regularizer=RegularizerSpec(kind="er", er_mode="proximity"))
        match = "^categories must be CategoryMap or null, got {'a': 1}$"
        with pytest.raises(ConfigError, match=match):
            train(cfg, store, {"a": 1})

    def test_one_epoch_decreases_loss(self):
        store = toy_store()
        cfg = TrainConfig(model="distmult", dim=8, batch_size=2, learning_rate=0.1,
                          epochs=1, seed=0)
        init = init_params(ModelKind.DISTMULT, 4, 1, 8, seed=0)
        before = dataset_loss(init, store.train)
        params, _, history = train(cfg, store)
        after = dataset_loss(params, store.train)
        assert after < before
        assert len(history.records) == 1
        assert history.records[0].loss == pytest.approx(before)

    def test_lambda_zero_identical_to_none(self, tmp_path):
        store = toy_store()
        base = dict(model="complex", dim=4, batch_size=2, learning_rate=0.1,
                    epochs=3, seed=5)
        cfg_none = TrainConfig(**base, regularizer=RegularizerSpec(kind="none"))
        cfg_er0 = TrainConfig(
            **base,
            regularizer=RegularizerSpec(kind="er", lam=0.0, er_mode="joint"),
        )
        p1, e1, _ = train(cfg_none, store)
        p2, e2, _ = train(cfg_er0, store)
        save_checkpoint(p1, e1, tmp_path / "a.ckpt")
        save_checkpoint(p2, e2, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_deterministic_replay(self, tmp_path):
        store, cmap = generate_synthetic(30, 3, 3, 20, 0.1, seed=4)
        store = add_reciprocals(store)
        cfg = TrainConfig(
            model="rescal", dim=8, batch_size=16, learning_rate=0.1, epochs=3,
            seed=9,
            regularizer=RegularizerSpec(kind="er", lam=0.05, er_mode="proximity"),
        )
        p1, e1, h1 = train(cfg, store, cmap)
        p2, e2, h2 = train(cfg, store, cmap)
        save_checkpoint(p1, e1, tmp_path / "a.ckpt")
        save_checkpoint(p2, e2, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert [r.loss for r in h1.records] == [r.loss for r in h2.records]

    def test_debug_accumulator_checks(self, monkeypatch):
        store = toy_store()
        cfg = TrainConfig(model="distmult", dim=4, batch_size=2, learning_rate=0.1,
                          epochs=2, seed=1)
        step = training._adagrad_step_inplace
        steps = []

        def checked(param, acc, idx, grad, lr, eps):
            before = acc.copy()
            step(param, acc, idx, grad, lr, eps)
            assert np.all(acc >= before), "adagrad accumulator decreased"
            steps.append(1)

        monkeypatch.setattr(training, "_adagrad_step_inplace", checked)
        train(cfg, store)
        assert steps

    def test_higher_lambda_smaller_converged_penalty(self):
        # moderate coefficients: past ~0.1 the toy model collapses to zero
        # and the near-zero tails no longer order strictly
        store, _ = generate_synthetic(30, 3, 3, 20, 0.1, seed=6)
        store = add_reciprocals(store)
        finals = []
        for lam in (0.001, 0.01, 0.05):
            cfg = TrainConfig(
                model="distmult", dim=8, batch_size=16, learning_rate=0.1,
                epochs=60, seed=2,
                regularizer=RegularizerSpec(kind="fro", lam=lam),
            )
            _, _, history = train(cfg, store)
            finals.append(history.records[-1].reg_value)
        assert finals[0] >= finals[1] >= finals[2]

    def test_rotate_constraint_maintained(self):
        from erkg.models import cview

        store = toy_store()
        cfg = TrainConfig(model="rotate", dim=8, batch_size=2, learning_rate=0.1,
                          epochs=2, seed=3)
        params, _, _ = train(cfg, store)
        mods = np.abs(cview(params.relation))
        assert np.max(np.abs(mods - 1.0)) < 1e-12

    def test_joint_epsilon_median_init_and_updates(self):
        store, _ = generate_synthetic(30, 3, 3, 30, 0.1, seed=8)
        store = add_reciprocals(store)
        cfg = TrainConfig(
            model="distmult", dim=8, batch_size=32, learning_rate=0.1, epochs=2,
            seed=4,
            regularizer=RegularizerSpec(kind="er", lam=0.1, er_mode="joint"),
        )
        _, eps, _ = train(cfg, store)
        assert eps.initialized.any()
        assert np.all(np.isfinite(eps.epsilon[eps.initialized]))

    def test_epsilon_state_keeps_its_adagrad_accumulator(self):
        store, _ = generate_synthetic(30, 3, 3, 30, 0.1, seed=8)
        store = add_reciprocals(store)
        cfg = TrainConfig(
            model="distmult", dim=8, batch_size=32, learning_rate=0.1, epochs=2,
            seed=4,
            regularizer=RegularizerSpec(kind="er", lam=0.1, er_mode="joint"),
        )
        _, eps, _ = train(cfg, store)
        assert np.any(eps.acc > 0.0)
        assert np.all(eps.acc[~eps.initialized] == 0.0)

    def test_eval_every_records_valid_metrics(self):
        store, _ = generate_synthetic(30, 3, 3, 30, 0.1, seed=9)
        store = add_reciprocals(store)
        cfg = TrainConfig(model="distmult", dim=8, batch_size=32, learning_rate=0.1,
                          epochs=4, seed=5, eval_every=2)
        _, _, history = train(cfg, store)
        evaluated = [r for r in history.records if r.valid_mrr is not None]
        assert len(evaluated) == 2
        for r in evaluated:
            assert 0.0 < r.valid_mrr <= 1.0

    @pytest.mark.parametrize("mode", ["proximity", "dissimilarity"])
    def test_category_mode_without_categories_rejected_before_training(self, mode, monkeypatch):
        store, _cmap = generate_synthetic(60, 3, 4, 60, 0.05, 3)

        def work_before_the_check(*args, **kwargs):
            raise AssertionError("training started before the category check")

        monkeypatch.setattr(training, "init_params", work_before_the_check)
        cfg = TrainConfig(model="distmult", dim=4, epochs=1,
                          regularizer=RegularizerSpec(kind="er", er_mode=mode))
        with pytest.raises(ConfigError, match=f"er_mode '{mode}' needs a category file"):
            train(cfg, store, None)

    @pytest.mark.parametrize("cfg, store, message", [
        (dict(model="rescal", dim=4, regularizer=RegularizerSpec(kind="n3")),
         toy_store(), "n3 penalty does not support rescal"),
        (dict(model="complex", dim=7), toy_store(), "complex requires an even dim"),
        (dict(model="distmult", dim=4), toy_store(triples=np.empty((0, 3))),
         "empty training split"),
        (dict(model="distmult", dim=4, eval_every=1), toy_store(),
         "eval_every needs a non-empty validation split"),
    ])
    def test_rejected_before_initialization(self, cfg, store, message, monkeypatch):
        """``cfg`` holds the ``TrainConfig`` arguments: a config that cannot
        train is refused when built or by ``train``, before any parameter."""
        def work_before_the_check(*args, **kwargs):
            raise AssertionError("parameters initialized before the check")

        monkeypatch.setattr(training, "init_params", work_before_the_check)
        with pytest.raises(ConfigError, match=message):
            train(TrainConfig(**cfg), store)

    def test_early_stop_records_each_epoch_once(self, monkeypatch):
        """With a flat validation MRR, patience 2 stops after the third
        evaluated epoch, whose record is the last one kept."""
        store, _ = generate_synthetic(30, 3, 3, 30, 0.1, seed=9)
        store = add_reciprocals(store)
        flat = training.evaluate(init_params("distmult", 30, 6, 8, seed=0),
                                 store.valid, store.filter_index)
        monkeypatch.setattr(training, "evaluate", lambda *args: flat)
        cfg = TrainConfig(model="distmult", dim=8, batch_size=32, learning_rate=0.1,
                          epochs=10, seed=5, eval_every=1, patience=2)
        _, _, history = train(cfg, store)
        assert [r.epoch for r in history.records] == [0, 1, 2]
        assert all(r.valid_mrr == flat.mrr and r.seconds > 0.0 for r in history.records)

    def test_evaluation_uses_the_stores_filter_index(self, monkeypatch):
        store, _ = generate_synthetic(30, 3, 3, 30, 0.1, seed=9)
        store = add_reciprocals(store)
        built = []
        build = data.build_filter_index
        monkeypatch.setattr(data, "build_filter_index", lambda s: built.append(s) or build(s))
        cfg = TrainConfig(model="distmult", dim=8, batch_size=32, epochs=2, eval_every=1)
        train(cfg, store)
        train(cfg, store)
        assert len(built) == 1 and built[0] is store
        for cached, fresh in zip(store.filter_index, build(store)):
            assert np.array_equal(cached, fresh)

    def test_fingerprint_tool_repeats(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), os.environ.get("PYTHONPATH", "")])}
        argv = [sys.executable, "-m", "tests.fingerprints", "rescal:er", "cp:n3"]
        runs = [subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True,
                               check=True, timeout=300).stdout.splitlines()
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert [line.split()[:2] for line in runs[0]] == [["rescal", "er"], ["cp", "n3"]]


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        for kind in ModelKind:
            params = init_params(kind, 7, 4, 6, seed=11)
            eps = EpsilonState.create(4, init="batch_median")
            eps.epsilon[2] = 1.25
            path = tmp_path / f"{kind.value}.ckpt"
            save_checkpoint(params, eps, path)
            params2, eps2 = load_checkpoint(path)
            for (n1, a), (n2, b) in zip(
                params.blocks().items(), params2.blocks().items()
            ):
                assert n1 == n2
                assert a.tobytes() == b.tobytes()
            assert eps.epsilon.tobytes() == eps2.epsilon.tobytes()
            assert np.array_equal(eps2.initialized, eps.initialized)

    def test_unwritable_path_raises_checkpoint_error(self, tmp_path):
        params = init_params(ModelKind.DISTMULT, 5, 2, 4, seed=12)
        with pytest.raises(CheckpointError, match="cannot write checkpoint"):
            save_checkpoint(params, EpsilonState.create(2), tmp_path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        """A non-finite parameter is refused; NaN thresholds, which mark
        unset ones, still load."""
        params = init_params(ModelKind.DISTMULT, 5, 2, 4, seed=12)
        params.blocks()["rel"][1, 2] = value
        path = tmp_path / "n.ckpt"
        save_checkpoint(params, EpsilonState.create(2), path)
        with pytest.raises(CheckpointError, match="'rel' is not finite"):
            load_checkpoint(path)
        params.blocks()["rel"][1, 2] = 0.5
        save_checkpoint(params, EpsilonState.create(2), path)
        assert np.isnan(load_checkpoint(path)[1].epsilon).all()

    def test_truncation_rejected(self, tmp_path):
        params = init_params(ModelKind.DISTMULT, 5, 2, 4, seed=12)
        eps = EpsilonState.create(2)
        path = tmp_path / "t.ckpt"
        save_checkpoint(params, eps, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_kind_bytes(self, tmp_path):
        expected = {ModelKind.CP: 0, ModelKind.DISTMULT: 1, ModelKind.COMPLEX: 2,
                    ModelKind.RESCAL: 3, ModelKind.TRANSE: 4, ModelKind.ROTATE: 5}
        assert set(expected) == set(ModelKind)
        for kind, byte in expected.items():
            path = tmp_path / f"{kind.value}.ckpt"
            save_checkpoint(init_params(kind, 3, 2, 2, seed=0), EpsilonState.create(2), path)
            assert path.read_bytes()[8] == byte
            assert load_checkpoint(path)[0].kind == kind

    @pytest.mark.parametrize("offset, field, value, message", [
        (8, "<B", 6, "unknown model kind byte 6"),
        (4, "<I", 0, "unsupported checkpoint version 0"),
        (4, "<I", 2, "unsupported checkpoint version 2"),
    ])
    def test_bad_header_field_rejected(self, tmp_path, offset, field, value, message):
        path = tmp_path / "h.ckpt"
        save_checkpoint(init_params(ModelKind.CP, 3, 2, 2, seed=0), EpsilonState.create(2), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(field, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_rescal_size_arithmetic(self, tmp_path):
        params = init_params(ModelKind.RESCAL, 10, 4, 8, seed=13)
        eps = EpsilonState.create(4)
        path = tmp_path / "r.ckpt"
        save_checkpoint(params, eps, path)
        header = 4 + 4 + 1 + 24
        payload = (10 * 8 + 4 * 8 * 8) * 8
        eps_bytes = 4 * 8
        assert path.stat().st_size == header + payload + eps_bytes


@pytest.mark.parametrize("call", ["init_params", "select_pairs", "sample_path_pairs",
                                  "batch_objective"])
def test_negative_seed_is_a_config_error(call):
    store, categories = generate_synthetic(60, 3, 3, 40, 0.05, seed=1)
    store = add_reciprocals(store)
    params = init_params("distmult", store.vocab.n_entities, store.vocab.n_relations, 4, 0)
    batch = store.train[:32]
    spec = RegularizerSpec(kind="er", lam=0.05, er_mode="joint")
    calls = {
        "init_params": lambda: init_params("distmult", 5, 2, 4, seed=-1),
        "select_pairs": lambda: select_pairs(batch, 4, -1),
        "sample_path_pairs": lambda: sample_path_pairs(store, batch, 4, -1),
        "batch_objective": lambda: training.batch_objective(
            params, batch, spec, categories, EpsilonState.create(store.vocab.n_relations),
            store, pair_seed=-1),
    }
    with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
        calls[call]()


# Trains the fingerprint graph once, then a ComplEx + ER (joint, second
# order) epoch on a 2,000-entity graph three times; prints the process's
# minor faults during the third epoch and the rise of its peak RSS in kB
# during the first call.
STEADY_STATE_PROBE = """
import resource
from erkg.data import add_reciprocals, generate_synthetic
from erkg.regularizers import RegularizerSpec
from erkg.training import TrainConfig, train
from tests.fingerprints import fingerprint_store

def usage():
    return resource.getrusage(resource.RUSAGE_SELF)

spec = RegularizerSpec(kind="er", lam=0.05, second_order=True)
small = fingerprint_store()
peak = usage().ru_maxrss
train(TrainConfig(model="complex", dim=16, batch_size=64, epochs=1, regularizer=spec), small)
rise_kb = usage().ru_maxrss - peak
store, _categories = generate_synthetic(2000, 8, 20, 250, 0.05, 5)
store = add_reciprocals(store)
config = TrainConfig(model="complex", dim=128, batch_size=500, epochs=1, regularizer=spec)
for _ in range(3):
    faults = usage().ru_minflt
    train(config, store)
print(usage().ru_minflt - faults, rise_kb)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap thresholds train raises are glibc's")
def test_training_keeps_its_heap_between_batches():
    """Once a process has trained, an epoch reuses the heap it freed
    instead of faulting in fresh pages (77k to 103k faults an epoch here
    while glibc trimmed the heap after each batch, under 130 since), and
    the block freed to keep it is never touched: the first call's peak RSS
    rises by about 4 MB, far less than the block's 31 MiB."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", STEADY_STATE_PROBE], cwd=root, env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    faults, rise_kb = map(int, out.split())
    assert faults < 1000
    assert rise_kb < 16 * 1024
