"""Penalties add into the caller's accumulator, merged once per batch.

Each penalty adds ``scale`` times its gradient rows to a ``GradAccumulator``
it is given and returns its value; ``batch_objective`` merges the loss
and penalty rows with a single ``finalize``.  The penalties of
``penalty_oracle`` merge their own gradient sets, with the first- and
second-order ER terms written out separately; the two must agree up to
the regrouped summation.
"""

import numpy as np
import pytest

import penalty_oracle
from erkg import regularizers
from erkg.data import CategoryMap, add_reciprocals, generate_synthetic, pair_key, sorted_runs
from erkg.grads import GradAccumulator
from erkg.models import OPERATORS, ModelKind, cview, init_params
from erkg.regularizers import (
    ER_MODES, EpsilonState, PairSet, RegularizerSpec, sample_path_pairs, select_pairs,
)
from erkg.training import batch_objective
from gradcheck import build_problem, supported_combos
from grads_oracle import densify, grad_shapes

RTOL = 1e-13
# Its batch has kept pairs in every ER mode, and path pairs whose two
# relations differ, so a gradient sent to the wrong hop shows.
SEED = 2


def assert_close(got, ref):
    """Within RTOL, with an absolute floor at RTOL times the block's
    largest entry (regrouping errs relative to the summands)."""
    floor = RTOL * np.abs(ref).max() if ref.size else 0.0
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=floor)


def penalty_calls(params, batch, spec, categories, eps, store):
    """(name, new form taking (acc, scale), oracle form) per penalty of ``spec``."""
    if spec.kind != "er":
        name = f"penalty_{spec.kind}"
        new, old = getattr(regularizers, name), getattr(penalty_oracle, name)
        return [(name, lambda acc, s: new(params, batch, acc, s), lambda: old(params, batch))]
    pairs = select_pairs(batch, spec.pair_budget, 17)
    calls = [(
        "penalty_er",
        lambda acc, s: regularizers.penalty_er(
            params, batch, pairs, spec, acc, s, categories, eps),
        lambda: penalty_oracle.penalty_er(params, batch, pairs, spec, categories, eps),
    )]
    if spec.second_order:
        paths = sample_path_pairs(store, batch, spec.path_budget, 29)
        calls.append((
            "penalty_er_second_order",
            lambda acc, s: regularizers.penalty_er_second_order(
                params, paths, spec, acc, s, categories, eps),
            lambda: penalty_oracle.penalty_er_second_order(
                params, paths, spec, categories, eps),
        ))
    return calls


PENALTY_COMBOS = [c for c in supported_combos() if c[1] != "none"]


@pytest.mark.parametrize("scale", [1.0, 0.05])
@pytest.mark.parametrize(
    "kind,reg,mode,order,second", PENALTY_COMBOS, ids=lambda v: str(v)
)
def test_penalty_matches_oracle(kind, reg, mode, order, second, scale):
    params, eps, batch, spec, categories, store = build_problem(
        kind, reg, mode, order, second, SEED
    )
    shapes = grad_shapes(params)
    for name, new, old in penalty_calls(params, batch, spec, categories, eps, store):
        ref_value, ref_grads = old()
        acc = GradAccumulator()
        value = new(acc, scale)
        got_grads = acc.finalize()
        assert value == pytest.approx(ref_value, rel=RTOL, abs=0.0), name
        got, ref = densify(got_grads, shapes), densify(ref_grads, shapes)
        # The oracle also sends transe's difference term through the
        # relation hops, whose rows cancel exactly; erkg adds none.
        assert set(got_grads) <= set(ref_grads), name
        for block in set(ref_grads) - set(got_grads):
            assert not ref[block].any(), (name, block)
        for block in shapes:
            assert_close(got[block], scale * ref[block])


def test_oracle_cases_reach_every_pair_term():
    """The comparison above meets nonzero pair and path terms, and paths
    through two different relations."""
    seen = set()
    for kind, reg, mode, order, second in PENALTY_COMBOS:
        if reg != "er":
            continue
        params, eps, batch, spec, categories, store = build_problem(
            kind, reg, mode, order, second, SEED
        )
        for name, _, old in penalty_calls(params, batch, spec, categories, eps, store):
            value, grads = old()
            if grads.get("rel") is not None and value > 0.0:
                seen.add((kind, name, mode))
        if second:
            paths = sample_path_pairs(store, batch, spec.path_budget, 29)
            assert np.any(paths.chain[0] != paths.chain[1])
    for kind in {c[0] for c in PENALTY_COMBOS}:
        for mode in ("proximity", "dissimilarity", "joint"):
            assert (kind, "penalty_er", mode) in seen
        for mode in ("proximity", "joint"):
            assert (kind, "penalty_er_second_order", mode) in seen


@pytest.mark.parametrize(
    "kind,reg,mode,order,second", supported_combos(), ids=lambda v: str(v)
)
def test_batch_objective_merges_once(kind, reg, mode, order, second, monkeypatch):
    params, eps, batch, spec, categories, store = build_problem(
        kind, reg, mode, order, second
    )
    calls = []
    finalize = GradAccumulator.finalize

    def counted(self):
        calls.append(1)
        return finalize(self)

    monkeypatch.setattr(GradAccumulator, "finalize", counted)
    batch_objective(params, batch, spec, categories, eps, store, pair_seed=17, path_seed=29)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# A hub: one pair key and one path key repeat many times.

HUB_N_ENT, HUB_N_REL, HUB_DIM = 8, 3, 4
# Entity 7 is unlabeled, so category modes also meet soft labels.
HUB_CATEGORIES = {0: 0, 1: 0, 2: 1, 3: 1, 4: 0, 5: 1, 6: 0}


def hub_problem(kind, mode, order):
    """Params, batch, pair set, path pair set, spec and categories.

    Heads 0 and 1 each have six batch rows with relation 0, so the pair
    key (0, 1, 0) repeats 36 times next to two keys that repeat 6 times.
    The path key (0, 1, 2, 0) repeats 40 times among single ones, in
    shuffled order; relation 2 first appears on paths, so each order
    initializes thresholds from a median over repeated keys.
    """
    rng = np.random.default_rng(41)
    params = init_params(ModelKind(kind), HUB_N_ENT, HUB_N_REL, HUB_DIM, seed=43)
    batch = np.array(
        [[0, 0, t] for t in range(6)] + [[1, 0, t] for t in range(6)]
        + [[6, 0, 7], [2, 1, 3], [3, 1, 4], [7, 1, 5]],
        dtype=np.int64,
    )
    pairs = select_pairs(batch, 100, 17)
    head_a = np.array([0] * 40 + [2, 4, 0, 3, 5, 6])
    head_b = np.array([1] * 40 + [3, 5, 6, 7, 1, 2])
    rel1 = np.array([2] * 40 + [2, 2, 1, 1, 2, 0])
    rel2 = np.array([0] * 40 + [1, 2, 0, 2, 1, 1])
    order_ = rng.permutation(len(head_a))
    paths = PairSet(head_a[order_], head_b[order_], [rel1[order_], rel2[order_]])
    spec = RegularizerSpec(kind="er", lam=0.37, er_mode=mode, norm_order=order,
                           second_order=True, tau=0.9, dissim_weight=0.7)
    categories = CategoryMap(HUB_CATEGORIES, 2, 7 / 8)
    return params, batch, pairs, paths, spec, categories


def test_hub_problem_repeats_keys():
    _, batch, pairs, paths, _, _ = hub_problem("complex", "joint", 2)
    keys = np.stack([pairs.head_a, pairs.head_b, *pairs.chain], axis=1)
    assert (keys == [0, 1, 0]).all(axis=1).sum() == 36
    path_keys = np.stack([paths.head_a, paths.head_b, *paths.chain], axis=1)
    assert (path_keys == [0, 1, 2, 0]).all(axis=1).sum() == 40


@pytest.mark.parametrize("mode", ["proximity", "dissimilarity", "joint"])
@pytest.mark.parametrize("order", [2, 3])
@pytest.mark.parametrize("kind", [k.value for k in ModelKind])
def test_hub_matches_oracle(kind, order, mode):
    """Values, gradients and thresholds initialized from NaN (a
    count-weighted batch median) agree with the pair-by-pair oracle."""
    params, batch, pairs, paths, spec, categories = hub_problem(kind, mode, order)
    shapes = grad_shapes(params)
    eps_new = EpsilonState.create(HUB_N_REL, "batch_median")
    eps_ref = eps_new.copy()
    calls = [
        ("penalty_er",
         lambda acc: regularizers.penalty_er(
             params, batch, pairs, spec, acc, 0.05, categories, eps_new),
         lambda: penalty_oracle.penalty_er(params, batch, pairs, spec, categories, eps_ref)),
        ("penalty_er_second_order",
         lambda acc: regularizers.penalty_er_second_order(
             params, paths, spec, acc, 0.05, categories, eps_new),
         lambda: penalty_oracle.penalty_er_second_order(
             params, paths, spec, categories, eps_ref)),
    ]
    for name, new, old in calls:
        ref_value, ref_grads = old()
        acc = GradAccumulator()
        value = new(acc)
        got_grads = acc.finalize()
        assert ref_value > 0.0, name
        assert value == pytest.approx(ref_value, rel=RTOL, abs=0.0), name
        got, ref = densify(got_grads, shapes), densify(ref_grads, shapes)
        for block in shapes:
            assert_close(got[block], 0.05 * ref[block])
        if name == "penalty_er_second_order" and kind == "transe":
            assert "rel" not in got_grads
    assert eps_new.initialized.any()
    np.testing.assert_array_equal(eps_new.initialized, eps_ref.initialized)
    np.testing.assert_array_equal(eps_new.epsilon, eps_ref.epsilon)


def test_distinct_path_keys_match_oracle():
    """The distinct (h_a, h_b, r1, r2) keys ``_pair_terms`` works on, and
    their counts, are those of ``penalty_oracle.distinct``."""
    _, _, _, paths, _, _ = hub_problem("complex", "joint", 2)
    keys = [pair_key(paths.head_a, paths.head_b), *paths.chain]
    order, starts = sorted_runs(keys)
    first, counts = penalty_oracle.distinct(keys)
    np.testing.assert_array_equal(order[starts], first)
    np.testing.assert_array_equal(np.diff(np.append(starts, len(order))), counts)
    assert counts.max() == 40


# ---------------------------------------------------------------------------
# Work follows distinct keys and live terms.


class RowCounter(GradAccumulator):
    """Counts the gradient rows added to it."""

    def __init__(self):
        super().__init__()
        self.rows = 0

    def add(self, name, idx, arr):
        self.rows += len(idx)
        super().add(name, idx, arr)


@pytest.mark.parametrize("mode", ["proximity", "joint"])
@pytest.mark.parametrize("kind", [k.value for k in ModelKind])
def test_second_order_rows_follow_distinct_keys(kind, mode):
    """2,000 kept path pairs over 10 keys add at most five rows per key:
    two heads, one relation row per hop, one threshold."""
    rng = np.random.default_rng(5)
    keys = np.array([[a, a + 1, a % 3, (a + 1) % 3] for a in range(0, 20, 2)])
    pick = keys[rng.integers(0, len(keys), 2000)]
    paths = PairSet(pick[:, 0], pick[:, 1], [pick[:, 2], pick[:, 3]])
    params = init_params(ModelKind(kind), 20, 3, 4, seed=3)
    categories = CategoryMap({i: 0 for i in range(20)}, 1, 1.0)
    spec = RegularizerSpec(kind="er", er_mode=mode, second_order=True)
    acc = RowCounter()
    value = regularizers.penalty_er_second_order(
        params, paths, spec, acc, 1.0, categories, EpsilonState.create(3, 0.5))
    assert value > 0.0
    assert 0 < acc.rows <= 5 * len(keys)


def count_applies(monkeypatch, kind):
    op = OPERATORS[ModelKind(kind)]
    calls = []
    apply = op.apply

    def counted(X, rels, table):
        calls.append(1)
        return apply(X, rels, table)

    monkeypatch.setattr(op, "apply", counted)
    return calls


@pytest.mark.parametrize("kind", ["complex", "rescal"])
def test_proximity_with_hard_labels_applies_once_per_hop(kind, monkeypatch):
    params, batch, pairs, paths, spec, _ = hub_problem(kind, "proximity", 2)
    categories = CategoryMap({i: i % 2 for i in range(HUB_N_ENT)}, 2, 1.0)
    calls = count_applies(monkeypatch, kind)
    regularizers.penalty_er(params, batch, pairs, spec, GradAccumulator(), 1.0, categories)
    assert len(calls) == 1
    regularizers.penalty_er_second_order(
        params, paths, spec, GradAccumulator(), 1.0, categories)
    assert len(calls) == 3


@pytest.mark.parametrize("kind", ["complex", "rescal"])
def test_one_soft_label_brings_back_the_sum_term(kind, monkeypatch):
    """Head 7 has no category, so its two pairs take soft labels, and the
    sum term they need is evaluated again, as in the oracle."""
    params, batch, pairs, _, spec, _ = hub_problem(kind, "proximity", 2)
    categories = CategoryMap({i: i % 2 for i in range(HUB_N_ENT - 1)}, 2, 7 / 8)
    assert np.sum((pairs.head_a == 7) | (pairs.head_b == 7)) == 2
    eps = EpsilonState.create(HUB_N_REL, 0.5)
    calls = count_applies(monkeypatch, kind)
    acc = GradAccumulator()
    value = regularizers.penalty_er(params, batch, pairs, spec, acc, 1.0, categories, eps)
    assert len(calls) == 2
    monkeypatch.undo()
    ref_value, ref_grads = penalty_oracle.penalty_er(
        params, batch, pairs, spec, categories, eps.copy())
    assert value == pytest.approx(ref_value, rel=RTOL, abs=0.0)
    shapes = grad_shapes(params)
    got, ref = densify(acc.finalize(), shapes), densify(ref_grads, shapes)
    for block in shapes:
        assert_close(got[block], ref[block])


# ---------------------------------------------------------------------------
# What ER sees of a relation table.  A rotation keeps each complex
# coordinate's modulus and a translation cancels in h_a - h_b, so the
# difference term never sees the relation on these kinds, and on rotate
# neither does the sum term.


def er_terms(kind, mode, rel_seed):
    """``{order: (value, relation gradient rows, relation rows)}`` of ER at
    lambda 1 on a 200-row batch, the relation table drawn with
    ``rel_seed`` and everything else fixed; ``None`` for no gradient."""
    store, categories = generate_synthetic(300, 5, 6, 120, 0.05, 3)
    store = add_reciprocals(store)
    n_ent, n_rel = store.vocab.n_entities, store.vocab.n_relations
    params = init_params(kind, n_ent, n_rel, 16, seed=5)
    params.relation[:] = init_params(kind, n_ent, n_rel, 16, seed=rel_seed).relation
    batch = store.train[:200]
    spec = RegularizerSpec(kind="er", lam=1.0, er_mode=mode, second_order=True)
    cats = None if mode == "joint" else categories
    eps = EpsilonState.create(n_rel)
    terms = {}
    for order, penalty, pairs in (
        ("first", regularizers.penalty_er, select_pairs(batch, spec.pair_budget, 0)),
        ("second", regularizers.penalty_er_second_order,
         sample_path_pairs(store, batch, spec.path_budget, 1)),
    ):
        assert pairs.n > 0
        acc = GradAccumulator()
        args = (params, batch, pairs) if order == "first" else (params, pairs)
        value = penalty(*args, spec, acc, 1.0, cats, eps)
        rel = acc.finalize().get("rel")
        rows = None if rel is None else params.relation[rel[0]]
        terms[order] = (value, None if rel is None else rel[1], rows)
    return terms


@pytest.mark.parametrize("mode", ER_MODES)
def test_rotate_er_sees_no_relation_phase(mode):
    """The value is the same under two unit-modulus relation tables, and
    the relation gradient has no component along i r, the one direction a
    unit-modulus relation can move: it is purely radial."""
    a, b = er_terms("rotate", mode, 5), er_terms("rotate", mode, 99)
    for order in ("first", "second"):
        assert a[order][0] == pytest.approx(b[order][0], rel=1e-12, abs=0.0)
        _, grad, rows = a[order]
        if (mode, order) == ("dissimilarity", "second"):
            # no sum term in the second order, and every head is labeled, so
            # hard dissimilarity labels zero the difference term
            assert a[order][0] == 0.0 and grad is None
            continue
        along = (cview(grad) * np.conj(1j * cview(rows))).real
        assert np.abs(grad).max() > 0.0
        assert np.abs(along).max() <= 1e-12 * np.abs(grad).max()


def test_transe_proximity_er_sees_no_translation():
    a, b = er_terms("transe", "proximity", 5), er_terms("transe", "proximity", 99)
    for order in ("first", "second"):
        assert a[order][0] == pytest.approx(b[order][0], rel=1e-12, abs=0.0)
        grad = a[order][1]
        assert grad is None or not grad.any()


@pytest.mark.parametrize("mode", ER_MODES)
def test_complex_er_sees_the_relation_table(mode):
    """The control: on ComplEx the value moves with the relation table."""
    a, b = er_terms("complex", mode, 5), er_terms("complex", mode, 99)
    for order in ("first", "second") if mode != "dissimilarity" else ("first",):
        assert a[order][0] != pytest.approx(b[order][0], rel=1e-6)
