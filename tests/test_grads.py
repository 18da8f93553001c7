"""The gradient merge against the reference merges.

``GradAccumulator.finalize`` is the one merge of a batch: it sums rows
sharing an index with scipy's CSR kernel, one part at a time, and must
agree with ``np.add.at`` up to the regrouped summation, equal the
``scipy.sparse`` product merge it replaced byte for byte, return
strictly increasing row indices, hold no more than its output and one
part's sums (with the output rows they are added to), and leave
``scipy.sparse`` unimported.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from erkg.grads import GradAccumulator
from erkg.training import _batch_ce, batch_objective

from gradcheck import build_problem
from grads_oracle import densify, densify_add_at, finalize_add_at, finalize_csr, grad_shapes

RTOL = 1e-13


def assert_close(got, ref):
    """Elementwise within RTOL, with an absolute floor at RTOL times the
    block's largest entry: regrouping errs relative to the summands, so a
    sum that cancels to near zero keeps only an absolute bound."""
    assert got.shape == ref.shape and got.dtype == ref.dtype
    floor = RTOL * np.abs(ref).max() if ref.size else 0.0
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=floor)


def assert_same_sets(got, ref):
    assert list(got) == list(ref)
    for name, (idx, arr) in ref.items():
        got_idx, got_arr = got[name]
        if idx is None:
            assert got_idx is None, name
        else:
            assert got_idx.dtype == idx.dtype and np.array_equal(got_idx, idx), name
            assert np.all(np.diff(got_idx) > 0), name
        assert_close(got_arr, arr)


def assert_same_bytes(got, ref):
    assert list(got) == list(ref)
    for name, (idx, arr) in ref.items():
        got_idx, got_arr = got[name]
        assert (got_idx is None) == (idx is None), name
        if idx is not None:
            assert got_idx.dtype == idx.dtype and got_idx.tobytes() == idx.tobytes(), name
        assert got_arr.shape == arr.shape and got_arr.dtype == arr.dtype, name
        assert got_arr.tobytes() == arr.tobytes(), name


def random_parts(seed, n_rows, tail, sizes, dense_at=()):
    """Parts of ``sizes`` rows each, indices drawn with many repeats from
    ``n_rows``; the positions in ``dense_at`` hold full dense blocks."""
    rng = np.random.default_rng(seed)
    parts = []
    for k, n in enumerate(sizes):
        if k in dense_at:
            parts.append((None, rng.normal(size=(n_rows,) + tail)))
        else:
            idx = rng.integers(0, n_rows, size=n).astype(np.int64)
            parts.append((idx, rng.normal(size=(n,) + tail)))
    return parts


CASES = {
    "lone-part": ((8,), (300,), ()),
    "sparse-only": ((8,), (300, 120, 7), ()),
    "dense-first": ((8,), (0, 300, 120), (0,)),
    "dense-after-sparse": ((8,), (300, 120, 0, 40), (2,)),
    "two-dense": ((8,), (0, 300, 0, 55), (0, 2)),
    "eps-rows": ((), (300, 120, 9), ()),
    "eps-rows-dense": ((), (300, 0, 9), (1,)),
    "rescal-rows": ((4, 4), (300, 120), ()),
    "rescal-rows-dense": ((4, 4), (300, 0), (1,)),
    "empty-index-parts": ((8,), (0, 200, 0), ()),
    "empty-index-parts-dense": ((8,), (0, 0, 0), (1,)),
    "only-empty": ((8,), (0, 0), ()),
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finalize_matches_add_at(case, seed):
    tail, sizes, dense_at = CASES[case]
    n_rows = 40
    parts = random_parts(seed, n_rows, tail, sizes, dense_at)
    acc = GradAccumulator()
    for idx, arr in parts:
        acc.add("w", idx, arr)
    shapes = {"w": (n_rows,) + tail}
    assert_same_sets(acc.finalize(), finalize_add_at({"w": parts}, shapes))


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_finalize_equals_the_csr_product_merge_bytewise(case, seed):
    """Repeated, lone, empty, 1-D (``eps``), RESCAL-shaped and dense plus
    sparse parts merge to the bytes of ``finalize_csr``: the kernel adds
    the same rows in the same order, and the +0.0 that merge added to
    the rows a part does not hold changes no sum (none is ever -0.0)."""
    tail, sizes, dense_at = CASES[case]
    n_rows = 40
    parts = random_parts(seed, n_rows, tail, sizes, dense_at)
    acc = GradAccumulator()
    for idx, arr in parts:
        acc.add("w", idx, arr)
    shapes = {"w": (n_rows,) + tail}
    assert_same_bytes(acc.finalize(), finalize_csr({"w": parts}, shapes))


def test_add_set_scale_matches_add_at():
    """Loss and penalty parts, scaled by the caller, merge like ``np.add.at``
    in every block."""
    shapes = {"ent": (50, 6), "rel": (7, 3, 3), "eps": (7,)}
    parts = {
        "ent": random_parts(3, 50, (6,), (50, 900), (0,)),
        "rel": random_parts(4, 7, (3, 3), (400, 250)),
        "eps": random_parts(7, 7, (), (250,)),
    }
    parts = {name: [(idx, 0.05 * arr) for idx, arr in block] for name, block in parts.items()}
    acc = GradAccumulator()
    for name, block in parts.items():
        for idx, arr in block:
            acc.add(name, idx, arr)
    assert_same_sets(acc.finalize(), finalize_add_at(parts, shapes))


def test_densify_matches_add_at():
    shapes = {"ent": (30, 5), "rel": (6, 2, 2), "eps": (6,)}
    grads = {
        "ent": random_parts(8, 30, (5,), (200,))[0],
        "rel": random_parts(9, 6, (2, 2), (6,), (0,))[0],
        "eps": random_parts(10, 6, (), (40,))[0],
    }
    got, ref = densify(grads, shapes), densify_add_at(grads, shapes)
    for name in shapes:
        assert_close(got[name], ref[name])


def test_merge_memory_is_bounded_by_its_output():
    """Two RESCAL-shaped parts of 1,125 rows of 32 x 32 (18 MB together)
    merge into 40 relation rows (0.33 MB) without a copy of the parts."""
    rng = np.random.default_rng(12)
    acc = GradAccumulator()
    for _ in range(2):
        acc.add("rel", rng.integers(0, 40, size=1125), rng.normal(size=(1125, 32, 32)))
    tracemalloc.start()
    try:
        idx, rows = acc.finalize()["rel"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(idx), 32, 32)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_dense_merge_memory_is_bounded_by_its_output_and_one_part():
    """Four parts of 1,000 rows of 32 x 32, each on its own 100 of 400
    relation rows, merge into the dense block of a fifth part (3.3 MB):
    besides the block, the merge holds one part's sums (0.8 MB) and the
    rows of the block they are added to, never a copy of all rows the
    parts hold."""
    rng = np.random.default_rng(13)
    acc = GradAccumulator()
    acc.add("rel", None, rng.normal(size=(400, 32, 32)))
    for k in range(4):
        acc.add("rel", rng.integers(100 * k, 100 * (k + 1), size=1000),
                rng.normal(size=(1000, 32, 32)))
    block, sums = 400 * 32 * 32 * 8, 100 * 32 * 32 * 8
    tracemalloc.start()
    try:
        idx, rows = acc.finalize()["rel"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert idx is None and rows.shape == (400, 32, 32)
    assert peak < block + 2 * sums + 2**18, f"peak {peak / 2**20:.2f} MB"


TRAIN_ONE_EPOCH = """
import sys
from erkg.data import add_reciprocals, generate_synthetic
from erkg.regularizers import RegularizerSpec
from erkg.training import TrainConfig, train
store, categories = generate_synthetic(80, 4, 6, 40, 0.05, seed=2)
spec = RegularizerSpec(kind="er", lam=0.05, er_mode="joint", second_order=True)
train(TrainConfig(model="complex", dim=8, batch_size=64, epochs=1, regularizer=spec),
      add_reciprocals(store), categories)
print(sorted(m for m in ("scipy.sparse", "scipy.optimize") if m in sys.modules))
"""


def test_training_imports_no_scipy_sparse():
    """One ComplEx + ER epoch merges its gradients with scipy's CSR kernel
    loaded on its own: neither ``scipy.sparse`` nor ``scipy.optimize``
    is imported."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", TRAIN_ONE_EPOCH], env=env, capture_output=True,
                         text=True, check=True, timeout=300)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("kind", ["cp", "complex", "rescal"])
def test_backward_all_tails_matches_add_at(kind, monkeypatch):
    """Each of the loss's two row parts (the first 3 of the 5 rows, then
    the rest) adds its parts, unmerged, to the batch's accumulator (the
    tail table dense, head and relation rows), then the penalty adds its
    own; ``finalize``, the only merge, equals the ``np.add.at`` merge of
    them all, and a table shared by heads and tails comes back dense."""
    params, eps, batch, spec, categories, store = build_problem(kind, "er", second_order=True)
    finalize, seen = GradAccumulator.finalize, []

    def recording(acc):
        seen.append({name: list(parts) for name, parts in acc._parts.items()})
        return finalize(acc)

    monkeypatch.setattr(GradAccumulator, "finalize", recording)
    grads = batch_objective(params, batch, spec, categories, eps, store, 17, 29)[3]
    (parts,) = seen
    assert len(batch) == 5
    loss = {}
    for rows in (batch[:3], batch[3:]):
        part = _batch_ce(params, rows, n=5)[1]._parts
        added = [(name, idx is None) for name, block in part.items() for idx, _ in block]
        assert added == [(params.tail_key, True), (params.head_key, False), ("rel", False)]
        for name, block in part.items():
            loss.setdefault(name, []).extend(block)
    for name, block in loss.items():
        for (idx, arr), (got_idx, got_arr) in zip(block, parts[name]):
            assert got_idx is idx is None or np.array_equal(got_idx, idx), name
            assert np.array_equal(got_arr, arr), name
    assert len(parts[params.head_key]) > 2 and "eps" in parts
    assert_same_sets(grads, finalize_add_at(parts, grad_shapes(params)))
    assert_same_bytes(grads, finalize_csr(parts, grad_shapes(params)))
    assert (grads[params.head_key][0] is None) == (params.head_key == params.tail_key)


def test_bench_hook_contract():
    """The traced benchmark wraps ``GradAccumulator.finalize`` by name and
    counts rows from ``_parts``: each block maps to its ``(idx | None,
    arr)`` parts in the order they were added."""
    assert callable(GradAccumulator.finalize)
    dense, rows = np.ones((5, 2)), np.ones((3, 2))
    idx = np.array([4, 0, 4])
    acc = GradAccumulator()
    acc.add("ent", idx, rows)
    acc.add("ent", None, dense)
    acc.add("rel", np.array([1]), np.ones((1, 2)))
    acc.add("ent", idx, 2.0 * rows)
    assert list(acc._parts) == ["ent", "rel"]
    ent = acc._parts["ent"]
    assert [type(part) for part in ent] == [tuple] * 3
    assert ent[0][0] is idx and ent[0][1] is rows
    assert ent[1][0] is None and ent[1][1] is dense
    assert ent[2][0] is idx and np.array_equal(ent[2][1], 2.0 * rows)
    assert len(acc._parts["rel"]) == 1


def test_bench_layers_find_every_hook():
    """Every name the traced benchmark wraps exists but the sequential
    stage driver ``nuclear.minimize``, which the lockstep driver replaced;
    one traced epoch and evaluation feed the merge, Adagrad and
    score-backward counts, and one traced nuclear check passes through
    the wrapped raw objectives."""
    from bench import layers
    from bench.tracer import Tracer
    from erkg import nuclear, ranking, training
    from erkg.data import build_filter_index

    store = build_problem("complex", "none")[-1]
    tr = Tracer()
    layers.install(tr)
    try:
        assert tr.absent == ["erkg.nuclear.minimize"]
        params = training.train(training.TrainConfig(model="complex", dim=4, epochs=1), store)[0]
        ranking.evaluate(params, store.train, build_filter_index(store))
        nuclear.check_instance(nuclear.make_instance(2, 1, 2, 1, 2, "bilinear", 0), "amgm4", 1)
    finally:
        tr.uninstall()
    for name in ("grads.finalize.rows_in", "training.adagrad.rows",
                 "models.backward_all_tails.flop", "ranking.queries"):
        assert tr.counts[name] > 0, name
    assert tr.summary()["nuclear.raw_grads"]["calls"] > 0
