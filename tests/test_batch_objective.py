"""``training.batch_objective`` runs the loss's two row parts and the
penalty, if there is one, on two threads; ``oracles.batch_objective`` runs them one after
the other.  Every total, loss, regularizer value, gradient block and
threshold state must equal the oracle's bit for bit, and an exception
from either side must leave only after both sides have finished.  The
two row parts agree with the loss over the whole batch
(``oracles.batch_objective_whole``) up to rounding."""

import os
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import erkg.training as training
import oracles
from erkg.data import CategoryMap, add_reciprocals, generate_synthetic
from erkg.errors import ConfigError
from erkg.models import init_params
from erkg.regularizers import EpsilonState, RegularizerSpec
from erkg.training import TrainConfig, batch_objective, train
from gradcheck import build_problem, supported_combos


def outcome_bytes(result, eps):
    total, loss, reg, grads = result
    blocks = {name: (None if idx is None else idx.tobytes(), arr.tobytes())
              for name, (idx, arr) in grads.items()}
    return (np.array([total, loss, reg]).tobytes(), blocks,
            eps.epsilon.tobytes(), eps.acc.tobytes())


def both_ways(params, batch, spec, categories, eps, store, seeds=(17, 29)):
    """The threaded and the sequential outcome, each from its own copy of
    the threshold state."""
    eps_t, eps_s = eps.copy(), eps.copy()
    threaded = batch_objective(params, batch, spec, categories, eps_t, store, *seeds)
    sequential = oracles.batch_objective(params, batch, spec, categories, eps_s, store, *seeds)
    return outcome_bytes(threaded, eps_t), outcome_bytes(sequential, eps_s)


@pytest.mark.parametrize(
    "kind,reg,mode,order,second", supported_combos(), ids=lambda v: str(v)
)
def test_threaded_matches_sequential_oracle(kind, reg, mode, order, second):
    params, eps, batch, spec, categories, store = build_problem(kind, reg, mode, order, second)
    threaded, sequential = both_ways(params, batch, spec, categories, eps, store)
    assert threaded == sequential


@pytest.fixture(scope="module")
def graph():
    store, categories = generate_synthetic(300, 4, 6, 120, 0.05, seed=5)
    return add_reciprocals(store), categories


@pytest.mark.parametrize("model, dim, reg", [
    ("complex", 32, {"er_mode": "joint", "second_order": True}),
    ("rescal", 16, {"er_mode": "proximity"}),
])
def test_threaded_matches_oracle_on_a_full_batch(graph, model, dim, reg):
    """Batches large enough that the two sides overlap, from fresh
    (median-initialized) thresholds, several times over, with the
    interpreter switching threads every microsecond."""
    store, categories = graph
    params = init_params(model, store.vocab.n_entities, store.vocab.n_relations, dim, seed=3)
    spec = RegularizerSpec(kind="er", lam=0.05, **reg)
    eps = EpsilonState.create(store.vocab.n_relations)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for k in range(3):
            batch = store.train[k * 250:(k + 1) * 250]
            threaded, sequential = both_ways(params, batch, spec, categories, eps, store,
                                             (k, k + 1))
            assert threaded == sequential
    finally:
        sys.setswitchinterval(interval)


def test_no_penalty_runs_the_loss_parts_on_two_lanes(monkeypatch):
    """Without a penalty the worker takes the loss's first row part and the
    calling thread the second, and no penalty runs."""
    batch_ce, calling, seen = training._batch_ce, threading.current_thread(), []

    def recorded(params, batch, *args):
        seen.append((len(batch), threading.current_thread() is calling))
        return batch_ce(params, batch, *args)

    monkeypatch.setattr(training, "_batch_ce", recorded)
    monkeypatch.setattr(training, "_penalty", fail)
    params, eps, batch, _spec, categories, store = build_problem("complex", "er")
    cut = min(-(-3 * len(batch) // 5), len(batch) - 1)
    for spec in (RegularizerSpec(kind="none"), RegularizerSpec(kind="er", lam=0.0)):
        seen.clear()
        batch_objective(params, batch, spec, categories, eps, store, 17, 29)
        assert sorted(seen) == sorted([(cut, False), (len(batch) - cut, True)])


def test_strict_labels_error_keeps_its_type_and_message():
    params, eps, batch, spec, _categories, store = build_problem("distmult", "er", "proximity")
    spec = replace(spec, strict_labels=True)
    unlabeled = CategoryMap({}, 2, 0.0)
    with pytest.raises(ConfigError, match="^pair with unlabeled entity in category mode$"):
        batch_objective(params, batch, spec, unlabeled, eps, store, 17, 29)


def test_second_order_without_a_store_is_a_config_error():
    params, eps, batch, _spec, _categories, _store = build_problem("complex", "er", "joint")
    spec = RegularizerSpec(kind="er", lam=0.1, second_order=True)
    with pytest.raises(ConfigError, match="TripleStore"):
        batch_objective(params, batch, spec, None, eps)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_ids_that_are_not_integers_are_rejected(graph, dtype):
    """An id x.5 is refused, not truncated to x."""
    store, _categories = graph
    params = init_params("distmult", store.vocab.n_entities, store.vocab.n_relations, 4, 0)
    batch = store.train[:20].astype(dtype) + 0.5
    with pytest.raises(ConfigError, match=f"^batch ids must be integers, got dtype {dtype}$"):
        batch_objective(params, batch, RegularizerSpec())


def slow(fn, finished):
    """``fn`` that sleeps first and records when it has returned."""
    def run(*args):
        time.sleep(0.2)
        result = fn(*args)
        finished.append(True)
        return result
    return run


def fail(*args):
    raise RuntimeError("side failed")


@pytest.mark.parametrize("failing", ["_penalty", "_batch_ce"])
def test_failure_waits_for_the_other_side(failing, monkeypatch):
    params, eps, batch, spec, categories, store = build_problem("complex", "er", second_order=True)
    other = "_batch_ce" if failing == "_penalty" else "_penalty"
    finished = []
    with monkeypatch.context() as patch:
        patch.setattr(training, failing, fail)
        patch.setattr(training, other, slow(getattr(training, other), finished))
        with pytest.raises(RuntimeError, match="side failed"):
            batch_objective(params, batch, spec, categories, eps.copy(), store, 17, 29)
        assert finished == [True]
    threaded, sequential = both_ways(params, batch, spec, categories, eps, store)
    assert threaded == sequential


def test_train_leaves_no_thread(graph):
    store, _categories = graph
    before = set(threading.enumerate())
    spec = RegularizerSpec(kind="er", lam=0.05, second_order=True)
    train(TrainConfig(model="complex", dim=8, batch_size=100, epochs=1, regularizer=spec), store)
    assert set(threading.enumerate()) == before


def test_import_starts_no_thread():
    code = ("import threading; n = threading.active_count(); import erkg; "
            "print(threading.active_count() - n)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize(
    "kind,reg,mode,order,second", supported_combos(), ids=lambda v: str(v)
)
def test_two_row_parts_match_the_whole_batch(kind, reg, mode, order, second):
    """The loss over two row parts, each divided by the batch size, is the
    loss over the whole batch up to the rounding of the sums."""
    params, eps, batch, spec, categories, store = build_problem(kind, reg, mode, order, second)
    eps_p, eps_w = eps.copy(), eps.copy()
    parts = oracles.batch_objective(params, batch, spec, categories, eps_p, store, 17, 29)
    whole = oracles.batch_objective_whole(params, batch, spec, categories, eps_w, store, 17, 29)
    for got, want in zip(parts[:3], whole[:3]):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert parts[3].keys() == whole[3].keys()
    for name, (idx, arr) in whole[3].items():
        got_idx, got_arr = parts[3][name]
        assert got_idx is idx is None or np.array_equal(got_idx, idx), name
        np.testing.assert_allclose(got_arr, arr, rtol=1e-9, atol=1e-15, err_msg=name)
    np.testing.assert_allclose(eps_p.epsilon, eps_w.epsilon, rtol=1e-12)
