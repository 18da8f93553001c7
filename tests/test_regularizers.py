import tracemalloc
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from erkg.data import CategoryMap, TripleStore, Vocab
from erkg.errors import ConfigError
from erkg.grads import GradAccumulator
from erkg.models import ModelKind, ModelParams, init_params
from erkg.regularizers import (
    EpsilonState,
    PairSet,
    RegularizerSpec,
    penalty_dura,
    penalty_er,
    penalty_er_second_order,
    penalty_fro,
    penalty_n3,
    sample_path_pairs,
    select_pairs,
)
from oracles import pair_label, relational_transform


def distmult_params(entity_rows, relation_rows):
    return ModelParams(
        ModelKind.DISTMULT,
        {"ent": np.array(entity_rows, dtype=float), "rel": np.array(relation_rows, dtype=float)},
    )


class TestFro:
    def test_zero_params(self):
        p = distmult_params([[0, 0], [0, 0]], [[0, 0]])
        batch = np.array([[0, 0, 1]])
        value = penalty_fro(p, batch, GradAccumulator())
        assert value == 0.0

    def test_hand_value(self):
        p = distmult_params([[1, 0], [1, 1]], [[0, 1]])
        batch = np.array([[0, 0, 1]])
        value = penalty_fro(p, batch, GradAccumulator())
        assert value == pytest.approx(4.0)

    def test_degree_two_homogeneity(self):
        p = init_params(ModelKind.RESCAL, 5, 2, 4, seed=0)
        batch = np.array([[0, 0, 1], [2, 1, 3]])
        v1 = penalty_fro(p, batch, GradAccumulator())
        p2 = p.copy()
        p2.entity[:] *= 2.0
        p2.relation[:] *= 2.0
        v2 = penalty_fro(p2, batch, GradAccumulator())
        assert v2 == pytest.approx(4.0 * v1)


class TestN3:
    def test_zero_params(self):
        p = distmult_params([[0, 0], [0, 0]], [[0, 0]])
        value = penalty_n3(p, np.array([[0, 0, 1]]), GradAccumulator())
        assert value == 0.0

    def test_hand_value(self):
        p = distmult_params([[1, 0], [1, 1]], [[1, 0]])
        value = penalty_n3(p, np.array([[0, 0, 1]]), GradAccumulator())
        assert value == pytest.approx(4.0)

    def test_complex_modulus_cubed(self):
        p = init_params(ModelKind.COMPLEX, 2, 1, 2, seed=0)
        p.entity[:] = 0.0
        p.relation[:] = 0.0
        p.entity[0] = [3.0, 4.0]  # one coordinate 3+4i
        value = penalty_n3(p, np.array([[0, 0, 1]]), GradAccumulator())
        assert value == pytest.approx(125.0)

    def test_unsupported_kinds(self):
        for kind in (ModelKind.RESCAL, ModelKind.TRANSE, ModelKind.ROTATE):
            p = init_params(kind, 3, 2, 4, seed=1)
            with pytest.raises(ConfigError):
                penalty_n3(p, np.array([[0, 0, 1]]), GradAccumulator())

    def test_degree_three_homogeneity(self):
        p = init_params(ModelKind.COMPLEX, 4, 2, 4, seed=2)
        batch = np.array([[0, 0, 1], [2, 1, 3]])
        v1 = penalty_n3(p, batch, GradAccumulator())
        p2 = p.copy()
        p2.entity[:] *= 3.0
        p2.relation[:] *= 3.0
        v2 = penalty_n3(p2, batch, GradAccumulator())
        assert v2 == pytest.approx(27.0 * v1)


class TestDura:
    def test_zero_params(self):
        p = distmult_params([[0, 0], [0, 0]], [[0, 0]])
        value = penalty_dura(p, np.array([[0, 0, 1]]), GradAccumulator())
        assert value == 0.0

    def test_hand_value(self):
        p = distmult_params([[1, 1], [2, 0]], [[1, 0]])
        value = penalty_dura(p, np.array([[0, 0, 1]]), GradAccumulator())
        assert value == pytest.approx(11.0)

    def test_rescal_identity_reduces(self):
        p = init_params(ModelKind.RESCAL, 4, 2, 4, seed=3)
        p.relation[0] = np.eye(4)
        batch = np.array([[0, 0, 1]])
        value = penalty_dura(p, batch, GradAccumulator())
        h2 = float(np.sum(p.entity[0] ** 2))
        t2 = float(np.sum(p.entity[1] ** 2))
        assert value == pytest.approx(2.0 * (h2 + t2))

    def test_distance_kinds_rejected(self):
        for kind in (ModelKind.TRANSE, ModelKind.ROTATE):
            p = init_params(kind, 3, 2, 4, seed=4)
            with pytest.raises(ConfigError):
                penalty_dura(p, np.array([[0, 0, 1]]), GradAccumulator())

    @pytest.mark.parametrize(
        "kind",
        [ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX, ModelKind.RESCAL],
        ids=lambda k: k.value,
    )
    def test_value_matches_per_triple_oracle(self, kind):
        # ||T_r h||^2 + ||t||^2 + ||T_r* t||^2 + ||h||^2 per triple, with the
        # adjoint taken through <T_r e_k, t> = <e_k, T_r* t> on basis vectors
        p = init_params(kind, 5, 3, 4, seed=23)
        batch = np.array([[0, 1, 2], [3, 0, 3], [4, 2, 0], [1, 1, 4]])
        basis = np.eye(p.dim)
        total = 0.0
        for h, r, t in batch:
            hv, tv = p.head_table[h], p.tail_table[t]
            th = relational_transform(p, hv, int(r))
            ta = np.array([relational_transform(p, e, int(r)) @ tv for e in basis])
            total += th @ th + tv @ tv + ta @ ta + hv @ hv
        value = penalty_dura(p, batch, GradAccumulator())
        assert value == pytest.approx(total / len(batch), rel=1e-12)


class TestSelectPairs:
    def test_three_heads_give_three_pairs(self):
        batch = np.array([[0, 0, 3], [1, 0, 3], [2, 0, 4]])
        pairs = select_pairs(batch, budget=10, seed=0)
        assert pairs.n == 3
        assert np.all(pairs.chain[0] == 0)

    def test_distinct_relations_no_pairs(self):
        batch = np.array([[0, 0, 3], [1, 1, 3], [2, 2, 4]])
        pairs = select_pairs(batch, budget=10, seed=0)
        assert pairs.n == 0

    def test_same_head_excluded(self):
        batch = np.array([[0, 0, 3], [0, 0, 4], [1, 0, 5]])
        pairs = select_pairs(batch, budget=10, seed=0)
        assert pairs.n == 2  # (0,2) and (1,2); (0,1) shares head 0

    def test_budget_and_determinism(self):
        rng = np.random.default_rng(6)
        batch = np.stack(
            [rng.integers(0, 20, 30), np.zeros(30, dtype=int), rng.integers(0, 20, 30)],
            axis=1,
        )
        a = select_pairs(batch, budget=7, seed=42)
        b = select_pairs(batch, budget=7, seed=42)
        assert a.n == 7
        assert np.array_equal(a.head_a, b.head_a)
        assert np.array_equal(a.head_b, b.head_b)


class TestPairLabel:
    def test_same_category_gives_one(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=7)
        cmap = CategoryMap({0: 0, 1: 0, 2: 1}, 2, 0.75)
        assert pair_label(p, 0, 1, 0, "proximity", cmap) == 1.0
        assert pair_label(p, 0, 2, 0, "proximity", cmap) == 0.0

    def test_logistic_at_zero(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=8)
        eps = EpsilonState.create(2, init=0.0)
        dist = float(np.linalg.norm(p.entity[0] - p.entity[1]))
        eps.epsilon[:] = dist
        a = pair_label(p, 0, 1, 0, "joint", eps=eps, tau=1.0)
        assert a == pytest.approx(0.5)

    def test_logistic_value(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=9)
        p.entity[1] = p.entity[0]
        eps = EpsilonState.create(2, init=2.0)
        a = pair_label(p, 0, 1, 0, "joint", eps=eps, tau=1.0)
        assert a == pytest.approx(0.8807970779778823)

    def test_uninitialized_epsilon_rejected(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=10)
        eps = EpsilonState.create(2, init="batch_median")
        with pytest.raises(ConfigError):
            pair_label(p, 0, 1, 0, "joint", eps=eps)

    @pytest.mark.parametrize("n_relations, match", [
        (-1, "^n_relations must be an integer >= 1, got -1$"),
        (0, "^n_relations must be an integer >= 1, got 0$"),
        (2.0, "^n_relations must be an integer, got 2.0$"),
    ], ids=["negative", "zero", "float"])
    def test_bad_relation_count_is_named(self, n_relations, match):
        with pytest.raises(ConfigError, match=match):
            EpsilonState.create(n_relations)

    @pytest.mark.parametrize("init, match", [
        (None, "^epsilon_init must be a finite number or a string, got None$"),
        (float("nan"), "^epsilon_init must be a finite number or a string, got nan$"),
        (float("inf"), "^epsilon_init must be a finite number or a string, got inf$"),
    ], ids=["none", "nan", "inf"])
    def test_bad_init_is_named(self, init, match):
        """``init`` is checked as building a ``RegularizerSpec`` checks
        ``epsilon_init``: NaN would read as uninitialized."""
        with pytest.raises(ConfigError, match=match):
            EpsilonState.create(2, init)

    def test_setting_epsilon_marks_it_initialized(self):
        eps = EpsilonState.create(3, init="batch_median")
        eps.epsilon[1] = 0.4
        assert eps.initialized.tolist() == [False, True, False]

    def test_unlabeled_strict_rejected(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=11)
        cmap = CategoryMap({0: 0}, 1, 0.25)
        with pytest.raises(ConfigError):
            pair_label(p, 0, 1, 0, "proximity", cmap, strict=True)

    def test_unlabeled_falls_back_to_joint(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=12)
        cmap = CategoryMap({0: 0}, 1, 0.25)
        eps = EpsilonState.create(2, init=1.0)
        a = pair_label(p, 0, 1, 0, "proximity", cmap, eps=eps, tau=1.0)
        assert 0.0 < a < 1.0


class TestPenaltyEr:
    def spec(self, **kw):
        base = dict(kind="er", lam=1.0, er_mode="proximity", norm_order=2)
        base.update(kw)
        return RegularizerSpec(**base)

    def test_hand_total(self):
        p = distmult_params([[1, 0], [0, 1]], [[1, 1]])
        # heads [1,0] and [0,1] share relation 0; both tails are unit rows
        batch = np.array([[0, 0, 1], [1, 0, 0]])
        pairs = select_pairs(batch, 10, seed=0)
        assert pairs.n == 1
        cmap = CategoryMap({0: 0, 1: 0}, 1, 1.0)
        value = penalty_er(p, batch, pairs, self.spec(), GradAccumulator(), categories=cmap)
        # norm part: mean of (1+1, 1+1) = 2; pair part: |[1,-1]|^2 = 2
        assert value == pytest.approx(4.0)

    def test_identical_heads_zero_pair_term(self):
        p = init_params(ModelKind.RESCAL, 4, 2, 4, seed=13)
        p.entity[1] = p.entity[0]
        batch = np.array([[0, 0, 2], [1, 0, 3]])
        pairs = select_pairs(batch, 10, seed=0)
        cmap = CategoryMap({0: 0, 1: 0, 2: 0, 3: 0}, 1, 1.0)
        spec = self.spec()
        value = penalty_er(p, batch, pairs, spec, GradAccumulator(), categories=cmap)
        norm_only = penalty_er(
            p, batch, PairSet(np.array([], int), np.array([], int), [np.array([], int)]),
            spec, GradAccumulator(), categories=cmap,
        )
        assert value == pytest.approx(norm_only)

    def test_opposite_heads_zero_dissimilarity_term(self):
        p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=14)
        p.entity[1] = -p.entity[0]
        batch = np.array([[0, 0, 2], [1, 0, 3]])
        pairs = select_pairs(batch, 10, seed=0)
        cmap = CategoryMap({0: 0, 1: 1, 2: 0, 3: 0}, 2, 1.0)
        spec = self.spec(er_mode="dissimilarity")
        value = penalty_er(p, batch, pairs, spec, GradAccumulator(), categories=cmap)
        empty = PairSet(np.array([], int), np.array([], int), [np.array([], int)])
        norm_only = penalty_er(p, batch, empty, spec, GradAccumulator(), categories=cmap)
        assert value == pytest.approx(norm_only)

    def test_empty_pairs_keep_norm_terms(self):
        p = distmult_params([[1, 0], [0, 1]], [[1, 1]])
        batch = np.array([[0, 0, 1]])
        empty = PairSet(np.array([], int), np.array([], int), [np.array([], int)])
        value = penalty_er(p, batch, empty, self.spec(er_mode="joint"), GradAccumulator(),
                           eps=EpsilonState.create(1, 1.0))
        assert value == pytest.approx(2.0)

    def test_unlabeled_head_strict_rejected(self):
        p = distmult_params([[1, 0], [0, 1]], [[1, 1]])
        batch = np.array([[0, 0, 1], [1, 0, 0]])
        pairs = select_pairs(batch, 10, seed=0)
        cmap = CategoryMap({0: 0}, 1, 0.5)
        with pytest.raises(ConfigError, match="unlabeled"):
            penalty_er(p, batch, pairs, self.spec(strict_labels=True), GradAccumulator(),
                       categories=cmap)

    def test_nonnegative_and_zero_at_zero(self):
        rng = np.random.default_rng(15)
        for kind in ModelKind:
            p = init_params(kind, 6, 2, 4, seed=16)
            batch = np.stack(
                [rng.integers(0, 6, 8), rng.integers(0, 2, 8), rng.integers(0, 6, 8)],
                axis=1,
            )
            pairs = select_pairs(batch, 10, seed=1)
            eps = EpsilonState.create(2, init=1.0)
            spec = self.spec(er_mode="joint")
            value = penalty_er(p, batch, pairs, spec, GradAccumulator(), eps=eps)
            assert value >= 0.0
            p0 = p.copy()
            p0.entity[:] = 0.0
            p0.tail_table[:] = 0.0
            v0 = penalty_er(p0, batch, pairs, spec, GradAccumulator(), eps=eps)
            # norm terms vanish; pair transforms of zero vectors vanish for
            # linear kinds, translations contribute through relation vectors
            if kind != ModelKind.TRANSE:
                assert v0 == pytest.approx(0.0, abs=1e-12)

    def test_parallelogram_bound(self):
        rng = np.random.default_rng(17)
        p = init_params(ModelKind.DISTMULT, 8, 2, 6, seed=18)
        for _ in range(20):
            a, b = rng.choice(8, 2, replace=False)
            r = int(rng.integers(0, 2))
            ta = relational_transform(p, p.entity[a], r)
            tb = relational_transform(p, p.entity[b], r)
            lhs = float(np.sum((ta - tb) ** 2))
            rhs = 2.0 * (float(np.sum(ta**2)) + float(np.sum(tb**2)))
            assert lhs <= rhs + 1e-12

    def test_term_swap_under_negation(self):
        # m(T(ha)-T(hb)) + m(T(ha)+T(hb)) is invariant under hb -> -hb
        rng = np.random.default_rng(19)
        for kind in (ModelKind.DISTMULT, ModelKind.COMPLEX, ModelKind.RESCAL):
            p = init_params(kind, 6, 2, 4, seed=20)
            a, b = 0, 1
            r = 1
            ta = relational_transform(p, p.entity[a], r)
            tb = relational_transform(p, p.entity[b], r)
            tnb = relational_transform(p, -p.entity[b], r)
            before = np.sum((ta - tb) ** 2) + np.sum((ta + tb) ** 2)
            after = np.sum((ta - tnb) ** 2) + np.sum((ta + tnb) ** 2)
            assert before == pytest.approx(after)
            # and the two terms swap
            assert np.sum((ta - tb) ** 2) == pytest.approx(np.sum((ta + tnb) ** 2))


@pytest.mark.parametrize("kind, dim, mode, limit", [
    ("complex", 128, "joint", 11.0),
    ("distmult", 64, "dissimilarity", 8.5),
])
def test_penalty_er_peak_memory(kind, dim, mode, limit):
    """At most ``limit`` arrays of one row per kept pair alive at once
    (before the pair terms dropped their copies of the head rows, the
    peak was 13.9 for complex and 9.7 for distmult)."""
    n_ent, size = 2000, 500
    params = init_params(kind, n_ent, 40, dim, seed=1)
    rng = np.random.default_rng(2)
    batch = np.stack([rng.integers(0, n_ent, size), rng.integers(0, 40, size),
                      rng.integers(0, n_ent, size)], axis=1)
    spec = RegularizerSpec(kind="er", lam=0.05, er_mode=mode)
    pairs = select_pairs(batch, spec.pair_budget, 3)
    categories = CategoryMap({e: e % 8 for e in range(n_ent)}, 8, 1.0)
    tracemalloc.start()
    try:
        penalty_er(params, batch, pairs, spec, GradAccumulator(), 0.05, categories,
                   EpsilonState.create(40))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rows = pairs.n * dim * 8
    assert peak <= limit * rows, f"peak {peak / rows:.2f} pair-row arrays"


class TestPathPairs:
    def chain_store(self):
        # a -> b -> c and a' -> b' -> c' with matching relations
        vocab = Vocab(
            {"a": 0, "b": 1, "c": 2, "a2": 3, "b2": 4, "c2": 5}, {"r1": 0, "r2": 1}
        )
        train = np.array(
            [[0, 0, 1], [1, 1, 2], [3, 0, 4], [4, 1, 5]], dtype=np.int64
        )
        empty = np.empty((0, 3), dtype=np.int64)
        return TripleStore(train, empty, empty, vocab)

    def test_chain_graph_single_pair(self):
        store = self.chain_store()
        batch = store.train
        paths = sample_path_pairs(store, batch, budget=10, seed=0)
        assert paths.n == 1
        assert {int(paths.head_a[0]), int(paths.head_b[0])} == {0, 3}
        assert int(paths.chain[0][0]) == 0 and int(paths.chain[1][0]) == 1

    def test_no_two_hop_paths(self):
        vocab = Vocab({"a": 0, "b": 1}, {"r": 0})
        train = np.array([[0, 0, 1]], dtype=np.int64)
        empty = np.empty((0, 3), dtype=np.int64)
        store = TripleStore(train, empty, empty, vocab)
        paths = sample_path_pairs(store, train, budget=5, seed=0)
        assert paths.n == 0

    def test_determinism(self):
        store = self.chain_store()
        a = sample_path_pairs(store, store.train, budget=10, seed=3)
        b = sample_path_pairs(store, store.train, budget=10, seed=3)
        assert np.array_equal(a.head_a, b.head_a)
        assert np.array_equal(a.chain[1], b.chain[1])


class TestSecondOrder:
    def test_identical_heads_zero(self):
        p = init_params(ModelKind.DISTMULT, 6, 2, 4, seed=21)
        p.entity[3] = p.entity[0]
        paths = PairSet(
            head_a=np.array([0]), head_b=np.array([3]), chain=[np.array([0]), np.array([1])],
        )
        cmap = CategoryMap({0: 0, 3: 0}, 1, 0.5)
        spec = RegularizerSpec(kind="er", er_mode="proximity")
        value = penalty_er_second_order(p, paths, spec, GradAccumulator(), categories=cmap)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_rescal_identity_matrices_reduce_to_first_order(self):
        p = init_params(ModelKind.RESCAL, 6, 2, 4, seed=22)
        p.relation[0] = np.eye(4)
        p.relation[1] = np.eye(4)
        paths = PairSet(
            head_a=np.array([0]), head_b=np.array([1]), chain=[np.array([0]), np.array([1])],
        )
        cmap = CategoryMap({0: 0, 1: 0}, 1, 1.0)
        spec = RegularizerSpec(kind="er", er_mode="proximity")
        value = penalty_er_second_order(p, paths, spec, GradAccumulator(), categories=cmap)
        assert value == pytest.approx(float(np.sum((p.entity[0] - p.entity[1]) ** 2)))

    def test_hand_composition(self):
        p = distmult_params([[1, 0], [0, 1]], [[1, 1], [2, 2]])
        paths = PairSet(
            head_a=np.array([0]), head_b=np.array([1]), chain=[np.array([0]), np.array([1])],
        )
        cmap = CategoryMap({0: 0, 1: 0}, 1, 1.0)
        spec = RegularizerSpec(kind="er", er_mode="proximity")
        value = penalty_er_second_order(p, paths, spec, GradAccumulator(), categories=cmap)
        assert value == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# Input rules at the public entries.


def _penalty(name):
    spec = RegularizerSpec(kind="er", lam=0.1)
    empty = PairSet(np.array([], int), np.array([], int), [np.array([], int)])
    return {
        "fro": lambda p, b: penalty_fro(p, b, GradAccumulator()),
        "n3": lambda p, b: penalty_n3(p, b, GradAccumulator()),
        "dura": lambda p, b: penalty_dura(p, b, GradAccumulator()),
        "er": lambda p, b: penalty_er(p, b, empty, spec, GradAccumulator(),
                                      eps=EpsilonState.create(2, 1.0)),
    }[name]


@pytest.mark.parametrize("batch, match", [
    (np.array([[0.0, 0.0, 1.0]]), "^batch ids must be integers, got dtype float64$"),
    ([[-1, 0, 1]], r"head id -1 outside \[0, 4\)$"),
    ([[0, 0, 1], [0, 2, 1]], r"relation id 2 outside \[0, 2\)$"),
    ([[0, 0, 4]], r"tail id 4 outside \[0, 4\)$"),
], ids=["float", "negative head", "relation out of range", "tail out of range"])
@pytest.mark.parametrize("penalty", ["fro", "n3", "dura", "er"])
def test_penalties_check_their_batch(penalty, batch, match):
    """Every penalty takes its batch through ``check_triples``: a float id
    is not truncated, and -1 does not score the last entity."""
    p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=30)
    with pytest.raises(ConfigError, match=match):
        _penalty(penalty)(p, batch)


BAD_SPECS = {
    "er_mode": ({"er_mode": "proximty"}, "^unknown er_mode 'proximty'$"),
    "norm_order": ({"norm_order": 4}, "^norm_order must be 2 or 3$"),
    "tau": ({"tau": 0.0}, r"^tau \(the temperature\) must be positive$"),
    "lam": ({"lam": -1.0}, "^lambda must be nonnegative$"),
}


ENTRIES = ["batch_objective", "penalty_er", "penalty_er_second_order"]


def _call_entry(entry, spec):
    """``entry`` run with ``spec`` on a small ER problem."""
    from erkg.training import batch_objective

    p = init_params(ModelKind.DISTMULT, 4, 2, 4, seed=31)
    batch = np.array([[0, 0, 1], [2, 0, 3], [1, 1, 0]])
    pairs = select_pairs(batch, 4, seed=0)
    paths = PairSet(np.array([0]), np.array([2]), [np.array([0]), np.array([1])])
    eps = EpsilonState.create(2, 1.0)
    if entry == "batch_objective":
        return batch_objective(p, batch, spec, eps=eps)
    if entry == "penalty_er":
        return penalty_er(p, batch, pairs, spec, GradAccumulator(), eps=eps)
    return penalty_er_second_order(p, paths, spec, GradAccumulator(), eps=eps)


@pytest.mark.parametrize("bad", list(BAD_SPECS))
@pytest.mark.parametrize("entry", ENTRIES)
def test_public_entries_validate_their_spec(entry, bad):
    """A misspelled mode, an unsupported norm order, a zero temperature or
    a negative coefficient never reach an entry, which would run them as
    another mode or order, return NaN or skip the penalty: the spec
    refuses them when it is built."""
    fields, match = BAD_SPECS[bad]
    with pytest.raises(ConfigError, match=match):
        _call_entry(entry, RegularizerSpec(**{"kind": "er", "lam": 0.1, **fields}))


@pytest.mark.parametrize("spec", [
    None,
    SimpleNamespace(**{**asdict(RegularizerSpec(kind="er", lam=0.1)), "tau": 0.0}),
], ids=["none", "duck-typed"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_public_entries_refuse_another_type(entry, spec):
    """Only a ``RegularizerSpec``, checked when built, reaches an entry:
    ``None`` raised a bare ``AttributeError``, and an object that merely
    has the spec's fields (here with tau 0) was never checked."""
    with pytest.raises(ConfigError, match="^spec must be RegularizerSpec, got "):
        _call_entry(entry, spec)
