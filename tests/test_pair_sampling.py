"""Pair and path sampling against the enumerating reference samplers.

The samplers draw ranks and unrank them instead of listing pairs; their
output must equal the enumerating samplers' bitwise (same RNG stream),
and their cost must not grow with the square of a group's size.
"""

import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from scipy.stats import chisquare

from erkg.data import TripleStore, Vocab, add_reciprocals
from erkg.errors import ConfigError
from erkg.regularizers import sample_path_pairs, select_pairs

from pair_oracle import sample_path_pairs_enum, select_pairs_enum


def arrays(pairs):
    return {"head_a": pairs.head_a, "head_b": pairs.head_b,
            **{f"chain[{hop}]": rel for hop, rel in enumerate(pairs.chain)}}


def assert_same(fast, ref):
    got, want = arrays(fast), arrays(ref)
    assert got.keys() == want.keys()
    for name, a in got.items():
        b = want[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def make_store(train: np.ndarray, n_entities: int, n_relations: int) -> TripleStore:
    vocab = Vocab(
        {f"e{i}": i for i in range(n_entities)}, {f"r{i}": i for i in range(n_relations)}
    )
    empty = np.empty((0, 3), dtype=np.int64)
    return TripleStore(train.astype(np.int64), empty, empty, vocab)


@pytest.fixture(scope="module")
def hub_store():
    """Reciprocal graph of 80 entities and 4 relations; entity 0 is a hub
    with 40 triples into it and 10 out of it (50 each way with inverses)."""
    rng = np.random.default_rng(11)
    n_e, n_r = 80, 4
    plain = np.stack(
        [rng.integers(1, n_e, 200), rng.integers(0, n_r, 200), rng.integers(1, n_e, 200)], 1
    )
    into = np.stack([rng.integers(1, n_e, 40), rng.integers(0, n_r, 40), np.zeros(40, int)], 1)
    out = np.stack([np.zeros(10, int), rng.integers(0, n_r, 10), rng.integers(1, n_e, 10)], 1)
    train = np.concatenate([plain, into, out])
    return add_reciprocals(make_store(train[rng.permutation(len(train))], n_e, n_r))


def random_batch(store, size, rng, n_heads=None):
    batch = store.train[rng.integers(0, len(store.train), size)].copy()
    if n_heads is not None:
        batch[:, 0] = rng.integers(0, n_heads, size)  # many duplicate heads
    return batch


@pytest.mark.parametrize("size", [0, 1, 5, 500])
@pytest.mark.parametrize("budget", [1, 3, 32, 10**9])
def test_equal_to_enumeration_on_hub_graph(hub_store, size, budget):
    rng = np.random.default_rng(size * 7 + budget % 97)
    for trial in range(6):
        batch = random_batch(hub_store, size, rng, n_heads=4 if trial % 2 else None)
        seed = int(rng.integers(1 << 31))
        assert_same(select_pairs(batch, budget, seed), select_pairs_enum(batch, budget, seed))
        assert_same(
            sample_path_pairs(hub_store, batch, budget, seed),
            sample_path_pairs_enum(hub_store, batch, budget, seed),
        )


@pytest.mark.parametrize("budget", [1, 4, 100])
def test_one_head_groups_have_no_eligible_pairs(hub_store, budget):
    # relation 1's six triples and all paths through the hub share head 5:
    # C(n, 2) listed pairs, none eligible
    batch = np.array(
        [[5, 1, 0]] * 6 + [[7, 0, 3], [5, 2, 0], [9, 0, 4], [5, 2, 0], [2, 0, 3]],
        dtype=np.int64,
    )
    pairs = select_pairs(batch, budget, seed=3)
    assert_same(pairs, select_pairs_enum(batch, budget, seed=3))
    assert not np.any(pairs.chain[0] == 1)
    paths = sample_path_pairs(hub_store, batch, budget, seed=3)
    assert_same(paths, sample_path_pairs_enum(hub_store, batch, budget, seed=3))
    assert not np.any(np.isin(paths.chain[0], [1, 2]))


def test_budget_at_eligible_count_keeps_all(hub_store):
    batch = np.array([[0, 0, 3], [1, 0, 3], [1, 0, 4], [2, 0, 4]], dtype=np.int64)
    # eligible: C(4, 2) - C(2, 2) = 5
    for budget in (5, 6):
        pairs = select_pairs(batch, budget, seed=0)
        assert pairs.n == 5
        assert_same(pairs, select_pairs_enum(batch, budget, seed=0))
    assert select_pairs(batch, 4, seed=0).n == 4


def test_int32_batches_give_int64_sets(hub_store):
    batch = random_batch(hub_store, 200, np.random.default_rng(3))
    small = batch.astype(np.int32)
    pairs = select_pairs(small, 8, seed=5)
    paths = sample_path_pairs(hub_store, small, 8, seed=5)
    assert pairs.n and paths.n
    assert_same(pairs, select_pairs_enum(batch, 8, seed=5))
    assert_same(paths, sample_path_pairs_enum(hub_store, batch, 8, seed=5))


@pytest.mark.parametrize("call, match", [
    (lambda store, batch: sample_path_pairs(None, batch, 4, 0), "need a TripleStore"),
    (lambda store, batch: select_pairs(batch[0], 4, 0), r"\(n, 3\) array"),
    (lambda store, batch: sample_path_pairs(store, batch[:, :2], 4, 0), r"\(n, 3\) array"),
], ids=["no store", "1-D batch", "two columns"])
def test_samplers_fail_with_typed_errors(hub_store, call, match):
    with pytest.raises(ConfigError, match=match):
        call(hub_store, hub_store.train[:10])


@pytest.mark.parametrize("call, match", [
    (lambda store, batch: select_pairs(batch.astype(float), 4, 0),
     "^batch ids must be integers, got dtype float64$"),
    (lambda store, batch: sample_path_pairs(store, batch.astype(float), 4, 0),
     "^batch ids must be integers, got dtype float64$"),
    (lambda store, batch: select_pairs(batch, "3", 0), "^pair budget must be an integer, got '3'$"),
    (lambda store, batch: select_pairs(batch, 2.5, 0), "^pair budget must be an integer, got 2.5$"),
    (lambda store, batch: sample_path_pairs(store, batch, "3", 0),
     "^path budget must be an integer, got '3'$"),
    (lambda store, batch: sample_path_pairs(store, batch, 2.5, 0),
     "^path budget must be an integer, got 2.5$"),
], ids=["pairs float ids", "paths float ids", "pairs str budget", "pairs float budget",
        "paths str budget", "paths float budget"])
def test_samplers_refuse_ids_and_budgets_that_are_not_integers(hub_store, call, match):
    """Float ids are refused, not truncated, and a budget that is not an
    integer is named, not met by a bare ``TypeError``."""
    with pytest.raises(ConfigError, match=match):
        call(hub_store, hub_store.train[:10])


def test_draws_are_uniform():
    # one group, heads 0, 0, 1, 2, 3: nine eligible pairs, three drawn; the
    # two head-0 triples are identical, so each pair (0, h) is drawn twice as
    # often as a pair of two other heads
    heads = (0, 0, 1, 2, 3)
    batch = np.array([[h, 0, 9] for h in heads], dtype=np.int64)
    eligible = Counter((a, b) for a, b in combinations(heads, 2) if a != b)
    counts = dict.fromkeys(eligible, 0)
    seeds, budget = 2000, 3
    for seed in range(seeds):
        pairs = select_pairs(batch, budget, seed)
        assert pairs.n == budget
        for pair in zip(pairs.head_a.tolist(), pairs.head_b.tolist()):
            counts[pair] += 1  # KeyError on an ineligible pair
    observed = np.array(list(counts.values()))
    expected = np.array(list(eligible.values())) * (seeds * budget / eligible.total())
    assert chisquare(observed, expected).pvalue > 1e-3


def test_hub_path_group_cost_is_bounded():
    # 100 heads point to a hub with 20 continuations: one (r1, r2) group
    # of 2,000 paths and ~2M eligible pairs
    into = np.array([[h, 0, 0] for h in range(1, 101)])
    out = np.array([[0, 1, t] for t in range(101, 121)])
    store = make_store(np.concatenate([into, out]), 121, 2)
    batch = store.train[:100]
    tracemalloc.start()
    try:
        paths = sample_path_pairs(store, batch, budget=32, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert paths.n == 32
    assert np.all(paths.head_a != paths.head_b)
    assert peak < 8 * 2**20


def test_adjacency_is_built_once_in_training_order(hub_store):
    adj = hub_store.adjacency
    assert hub_store.adjacency is adj
    offsets = dict(zip(adj.keys.tolist(), zip(adj.offsets[:-1], adj.offsets[1:])))
    for h in (0, 5, 79):
        rows = hub_store.train[hub_store.train[:, 0] == h]
        start, end = offsets[h]
        assert np.array_equal(adj.values[start:end], rows[:, 1])
    src, rel = adj.lookup(np.array([0, 79, 500, -1, 0]))
    deg0 = offsets[0][1] - offsets[0][0]
    deg79 = offsets[79][1] - offsets[79][0]
    assert np.array_equal(np.bincount(src, minlength=5), [deg0, deg79, 0, 0, deg0])
    assert np.array_equal(rel[:deg0], adj.values[:deg0])

