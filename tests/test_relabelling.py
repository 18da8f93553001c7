"""Relabelling: renaming entity and relation ids renames the samplers'
output and changes nothing else.

The pair samplers take groups in first-appearance order and draw by
position, never by id, so on a relabelled store and batch they must
return the relabelled pair set bit for bit.  The batch objective sums in
an order that follows the ids, so on relabelled parameters, thresholds,
categories, store and batch it must return the same values and the
relabelled gradient rows up to rounding.
"""

import numpy as np
import pytest

from erkg.data import CategoryMap, TripleStore, Vocab, add_reciprocals, generate_synthetic
from erkg.models import ModelParams, init_params
from erkg.regularizers import (
    EpsilonState, PairSet, RegularizerSpec, sample_path_pairs, select_pairs,
)
from erkg.training import batch_objective
from gradcheck import supported_combos
from grads_oracle import densify, grad_shapes

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


# ---------------------------------------------------------------------------
# The batch objective.

RTOL = 1e-12


@pytest.fixture(scope="module")
def relabelled_problem():
    """The graph with its categories, a 200-row batch, the same three
    relabelled, and the maps from old ids to new."""
    store, categories = generate_synthetic(300, 5, 6, 120, 0.05, 3)
    store = add_reciprocals(store)
    rng = np.random.default_rng(23)
    ent = rng.permutation(store.vocab.n_entities)
    rel = rng.permutation(store.vocab.n_relations)
    vocab = Vocab({f"e{i}": i for i in range(len(ent))}, {f"r{i}": i for i in range(len(rel))})
    empty = np.empty((0, 3), dtype=np.int64)
    moved = TripleStore(rename(store.train, ent, rel), empty, empty, vocab)
    moved_categories = CategoryMap({int(ent[e]): c for e, c in categories.category_of.items()},
                                   categories.n_categories, categories.coverage)
    batch = store.train[rng.integers(0, len(store.train), 200)]
    return (store, categories, batch), (moved, moved_categories, rename(batch, ent, rel)), ent, rel


def move_rows(arr, perm):
    """``arr`` with row i moved to row ``perm[i]``."""
    out = np.empty_like(arr)
    out[perm] = arr
    return out


@pytest.mark.parametrize("kind,reg,mode,order,second", supported_combos(), ids=str)
def test_batch_objective_commutes_with_relabelling(relabelled_problem, kind, reg, mode, order,
                                                   second):
    """Budgets of 3 put most pair and path groups over budget."""
    (store, categories, batch), (moved, moved_categories, moved_batch), ent, rel = (
        relabelled_problem)
    params = init_params(kind, store.vocab.n_entities, store.vocab.n_relations, 16, seed=5)
    perm = {name: rel if name == "rel" else ent for name in params.blocks()}
    moved_params = ModelParams(params.kind, {
        name: move_rows(arr, perm[name]) for name, arr in params.blocks().items()})
    spec = RegularizerSpec(kind=reg, lam=0.37, er_mode=mode, norm_order=order, pair_budget=3,
                           second_order=second, path_budget=3, tau=0.9)
    eps = EpsilonState.create(store.vocab.n_relations)
    moved_eps = eps.copy()
    got = batch_objective(moved_params, moved_batch, spec, moved_categories, moved_eps, moved,
                          pair_seed=4, path_seed=9)
    ref = batch_objective(params, batch, spec, categories, eps, store, pair_seed=4, path_seed=9)
    for name, a, b in zip(("total", "loss", "reg"), got[:3], ref[:3]):
        assert a == pytest.approx(b, rel=RTOL, abs=0.0), name
    np.testing.assert_array_equal(moved_eps.epsilon, move_rows(eps.epsilon, rel))
    shapes = grad_shapes(params)
    assert set(got[3]) == set(ref[3])
    got_grads, ref_grads = densify(got[3], shapes), densify(ref[3], shapes)
    for name in got[3]:
        want = move_rows(ref_grads[name], rel if name in ("rel", "eps") else ent)
        np.testing.assert_allclose(got_grads[name], want, rtol=0.0,
                                   atol=RTOL * np.abs(want).max(), err_msg=name)
