"""The gradient merge against the ``np.add.at`` reference merges.

``GradAccumulator.finalize`` and the shared-table scatter of
``backward_all_tails`` sum rows sharing an index with one sparse product
per part; they must agree with ``np.add.at`` up to the regrouped
summation, return strictly increasing row indices, and need memory for
their output only.
"""

import tracemalloc

import numpy as np
import pytest

from erkg import models
from erkg.grads import GradAccumulator, densify
from erkg.models import ModelKind, backward_all_tails, forward_all_tails, init_params

from grads_oracle import densify_add_at, finalize_add_at, merge_rows_add_at

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
    assert_same_sets(acc.finalize(shapes), finalize_add_at({"w": parts}, shapes))


def test_add_set_scale_matches_add_at():
    shapes = {"ent": (50, 6), "rel": (7, 3, 3), "eps": (7,)}
    loss = {
        "ent": random_parts(3, 50, (6,), (50,), (0,))[0],
        "rel": random_parts(4, 7, (3, 3), (400,))[0],
    }
    penalty = {
        "ent": random_parts(5, 50, (6,), (900,))[0],
        "rel": random_parts(6, 7, (3, 3), (250,))[0],
        "eps": random_parts(7, 7, (), (250,))[0],
    }
    acc = GradAccumulator()
    acc.add_set(loss)
    acc.add_set(penalty, scale=0.05)
    ref = {name: [loss[name]] if name in loss else [] for name in shapes}
    for name, (idx, arr) in penalty.items():
        ref[name].append((idx, 0.05 * arr))
    assert_same_sets(acc.finalize(shapes), finalize_add_at(ref, shapes))


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
        idx, rows = acc.finalize({"rel": (40, 32, 32)})["rel"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(idx), 32, 32)
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("kind", [ModelKind.CP, ModelKind.COMPLEX, ModelKind.RESCAL])
def test_backward_all_tails_matches_add_at(kind, monkeypatch):
    p = init_params(kind, 25, 4, 6, seed=3)
    rng = np.random.default_rng(4)
    heads = rng.integers(0, 25, size=200)
    rels = rng.integers(0, 4, size=200)
    _, ctx = forward_all_tails(p, heads, rels)
    G = rng.normal(size=(200, 25))
    shapes = p.grad_shapes()
    got = backward_all_tails(p, ctx, G)
    monkeypatch.setattr(models, "merge_rows", merge_rows_add_at)
    ref = backward_all_tails(p, ctx, G)
    assert list(got) == list(ref)
    got_dense, ref_dense = densify(got, shapes), densify_add_at(ref, shapes)
    for name, (idx, _) in ref.items():
        assert (got[name][0] is None) == (idx is None)
        assert_close(got_dense[name], ref_dense[name])


def test_bench_hook_contract():
    """The traced benchmark wraps ``GradAccumulator.finalize`` by name and
    counts rows from ``_parts``: each block maps to its ``(idx | None,
    arr)`` parts in the order they were added."""
    assert callable(GradAccumulator.finalize)
    dense, rows = np.ones((5, 2)), np.ones((3, 2))
    idx = np.array([4, 0, 4])
    acc = GradAccumulator()
    acc.add("ent", idx, rows)
    acc.add_set({"ent": (None, dense), "rel": (np.array([1]), np.ones((1, 2)))})
    acc.add_set({"ent": (idx, rows)}, scale=2.0)
    assert list(acc._parts) == ["ent", "rel"]
    ent = acc._parts["ent"]
    assert [type(part) for part in ent] == [tuple] * 3
    assert ent[0][0] is idx and ent[0][1] is rows
    assert ent[1][0] is None and ent[1][1] is dense
    assert ent[2][0] is idx and np.array_equal(ent[2][1], 2.0 * rows)
    assert len(acc._parts["rel"]) == 1
