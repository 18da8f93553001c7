"""Relabelling: renaming entity and relation ids renames the samplers'
output and changes nothing else.

The pair samplers take groups in first-appearance order and draw by
position, never by id, so on a relabelled store and batch they must
return the relabelled pair set bit for bit.
"""

import numpy as np
import pytest

from erkg.data import TripleStore, Vocab, add_reciprocals, generate_synthetic
from erkg.regularizers import PairSet, sample_path_pairs, select_pairs

from test_pair_sampling import assert_same


@pytest.fixture(scope="module")
def relabelled():
    """The graph, the relabelled graph and the maps from old ids to new."""
    store = add_reciprocals(generate_synthetic(300, 5, 6, 120, 0.05, 3)[0])
    rng = np.random.default_rng(17)
    ent = rng.permutation(store.vocab.n_entities)
    rel = rng.permutation(store.vocab.n_relations)
    vocab = Vocab({f"e{i}": i for i in range(len(ent))}, {f"r{i}": i for i in range(len(rel))})
    empty = np.empty((0, 3), dtype=np.int64)
    moved = TripleStore(rename(store.train, ent, rel), empty, empty, vocab)
    return store, moved, ent, rel


def rename(triples, ent, rel):
    return np.stack([ent[triples[:, 0]], rel[triples[:, 1]], ent[triples[:, 2]]], axis=1)


def rename_pairs(pairs, ent, rel):
    return PairSet(ent[pairs.head_a], ent[pairs.head_b], [rel[r] for r in pairs.chain])


@pytest.mark.parametrize("budget", [1, 3, 8])
def test_samplers_commute_with_relabelling(relabelled, budget):
    store, moved, ent, rel = relabelled
    rng = np.random.default_rng(budget)
    for seed in range(20):
        batch = store.train[rng.integers(0, len(store.train), 200)]
        assert_same(select_pairs(rename(batch, ent, rel), budget, seed),
                    rename_pairs(select_pairs(batch, budget, seed), ent, rel))
        assert_same(sample_path_pairs(moved, rename(batch, ent, rel), budget, seed),
                    rename_pairs(sample_path_pairs(store, batch, budget, seed), ent, rel))
