"""The 1-vs-all cross entropy and its scoring kernels work in place on one
B x |E| buffer; ``tests/oracles.py`` keeps the allocating versions, and
every loss, gradient and checkpoint must equal theirs bit for bit."""

import tracemalloc

import numpy as np
import pytest

import erkg.training as training
from erkg.errors import ConfigError
from erkg.models import ModelKind, forward_all_tails, init_params
from erkg.regularizers import RegularizerSpec
from erkg.training import _batch_ce, batch_objective

import oracles
from fingerprints import fingerprint, fingerprint_store, supported_pairs

N_ENT, N_REL = 300, 6


def random_batch(n, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, N_ENT, n), rng.integers(0, N_REL, n),
                     rng.integers(0, N_ENT, n)], axis=1)


BATCHES = {
    "batch500": random_batch(500, 11),
    # repeated tails, and a repeated (head, relation, tail) row
    "short7": np.array([[4, 0, 9], [7, 1, 9], [4, 0, 9], [2, 5, 0],
                        [9, 2, 9], [0, 3, 0], [2, 5, 1]], dtype=np.int64),
}


def finalized_bytes(acc, params):
    return {name: (None if idx is None else idx.tobytes(), rows.tobytes())
            for name, (idx, rows) in acc.finalize().items()}


@pytest.mark.parametrize("batch_name", list(BATCHES))
@pytest.mark.parametrize("kind", list(ModelKind))
def test_batch_ce_matches_allocating_oracle(kind, batch_name):
    params = init_params(kind, N_ENT, N_REL, 16, seed=5)
    batch = BATCHES[batch_name]
    loss, acc = _batch_ce(params, batch)
    ref_loss, ref_acc = oracles.batch_ce(params, batch)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert finalized_bytes(acc, params) == finalized_bytes(ref_acc, params)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_batch_ce_into_a_callers_buffer(kind):
    """Scores written into ``out`` give the loss and gradient of fresh
    ones, bit for bit, and ``out`` is the buffer the kernels work in."""
    params = init_params(kind, N_ENT, N_REL, 16, seed=5)
    batch = BATCHES["batch500"]
    out = np.empty((len(batch), N_ENT))
    assert forward_all_tails(params, batch[:, 0], batch[:, 1], out=out)[0] is out
    loss, acc = _batch_ce(params, batch, out)
    ref_loss, ref_acc = _batch_ce(params, batch)
    assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
    assert finalized_bytes(acc, params) == finalized_bytes(ref_acc, params)


@pytest.fixture(scope="module")
def store():
    return fingerprint_store()


@pytest.mark.parametrize("pair", supported_pairs())
def test_one_epoch_checkpoint_matches_oracle(pair, store, tmp_path, monkeypatch):
    got = fingerprint(store, pair, tmp_path)
    monkeypatch.setattr(training, "_batch_ce", oracles.batch_ce)
    assert got == fingerprint(store, pair, tmp_path)


@pytest.mark.parametrize("kind, limit", [("complex", 2.0), ("rotate", 3.0)])
def test_batch_ce_peak_memory(kind, limit):
    """At most ``limit`` B x |E| float64 arrays alive at once (the
    allocating oracle peaks at 3.64 for complex and 6.19 for rotate)."""
    n_ent, size = 2000, 500
    params = init_params(kind, n_ent, 40, 128, seed=1)
    rng = np.random.default_rng(2)
    batch = np.stack([rng.integers(0, n_ent, size), rng.integers(0, 40, size),
                      rng.integers(0, n_ent, size)], axis=1)
    tracemalloc.start()
    try:
        _batch_ce(params, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit * size * n_ent * 8, f"peak {peak / (size * n_ent * 8):.2f} B x |E|"


class TestBatchObjectiveRejects:
    def setup_method(self):
        self.params = init_params(ModelKind.DISTMULT, 5, 3, 4, seed=13)
        self.spec = RegularizerSpec(kind="none", lam=0.0)

    def test_empty_batch(self):
        with pytest.raises(ConfigError, match="^empty batch$"):
            batch_objective(self.params, np.empty((0, 3), dtype=np.int64), self.spec)

    @pytest.mark.parametrize("column, value", [
        (0, -1), (0, 5), (1, -1), (1, 3), (2, -1), (2, 5),
    ])
    def test_out_of_range_id(self, column, value):
        batch = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
        batch[1, column] = value
        name = ("head", "relation", "tail")[column]
        bound = (5, 3, 5)[column]
        match = rf"batch row 1: {name} id {value} outside \[0, {bound}\)"
        with pytest.raises(ConfigError, match=match):
            batch_objective(self.params, batch, self.spec)

    def test_wrong_shape(self):
        with pytest.raises(ConfigError, match=r"\(n, 3\)"):
            batch_objective(self.params, np.zeros((4, 2), dtype=np.int64), self.spec)
