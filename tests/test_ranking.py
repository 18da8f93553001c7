import hashlib
import threading
import time

import numpy as np
import pytest

import oracles
from erkg import ranking
from erkg.data import (
    KeyedCSR, TripleStore, Vocab, add_reciprocals, build_filter_index, generate_synthetic,
    pair_key,
)
from erkg.errors import ConfigError
from erkg.models import ModelKind, init_params
from erkg.ranking import TIE_POLICIES, RankingReport, evaluate
from oracles import score


def filtered_rank(params, triple, filter_index, tie="mean"):
    """``evaluate``'s filtered rank of the one query ``triple``."""
    query = np.asarray(triple, dtype=np.int64).reshape(1, 3)
    return evaluate(params, query, filter_index, tie=tie, keep_ranks=True).per_query_ranks[0]


def brute_force_rank(params, h, r, t, filter_index, tie="mean"):
    """Independent ranker: scalar scores, explicit sort, same tie policy."""
    scores = np.array([score(params, h, r, e) for e in range(params.n_entities)])
    excluded = set(int(x) for x in filter_index.lookup(pair_key([h], [r]))[1]) - {t}
    candidates = [e for e in range(params.n_entities) if e not in excluded]
    st = scores[t]
    order = sorted(candidates, key=lambda e: -scores[e])
    above = sum(1 for e in candidates if scores[e] > st)
    tied = sum(1 for e in candidates if scores[e] == st and e != t)
    assert order  # explicit sort kept to make this an actual ranking
    if tie == "optimistic":
        return 1.0 + above
    if tie == "pessimistic":
        return 1.0 + above + tied
    return 1.0 + above + 0.5 * tied


def no_filter():
    """A filter index without known-true tails."""
    empty = np.empty(0, dtype=np.int64)
    return KeyedCSR.group(empty, empty)


def brute_force_report(params, test, filter_index, tie="mean"):
    ranks = [
        brute_force_rank(params, int(h), int(r), int(t), filter_index, tie)
        for h, r, t in test
    ]
    ranks = np.array(ranks)
    return {
        "mrr": float(np.mean(1.0 / ranks)),
        "hits1": float(np.mean(ranks <= 1)),
        "hits10": float(np.mean(ranks <= 10)),
        "ranks": ranks,
    }


def random_store(seed, n_ent=12, n_rel=3, n_train=30, n_test=10):
    rng = np.random.default_rng(seed)

    def draw(n):
        return np.stack(
            [rng.integers(0, n_ent, n), rng.integers(0, n_rel, n),
             rng.integers(0, n_ent, n)], axis=1,
        ).astype(np.int64)

    vocab = Vocab(
        {f"e{i}": i for i in range(n_ent)}, {f"r{i}": i for i in range(n_rel)}
    )
    return TripleStore(draw(n_train), draw(n_test), draw(n_test), vocab)


class TestFilteredRank:
    def setup_method(self):
        self.params = init_params(ModelKind.DISTMULT, 6, 2, 4, seed=0)
        vocab = Vocab({f"e{i}": i for i in range(6)}, {"r": 0, "s": 1})
        train = np.array([[0, 0, 1], [0, 0, 2]], dtype=np.int64)
        empty = np.empty((0, 3), dtype=np.int64)
        self.store = TripleStore(train, empty, empty, vocab)
        self.filter = build_filter_index(self.store)

    def test_strictly_best_is_rank_one(self):
        p = self.params.copy()
        p.entity[3] = 100.0 * p.entity[0] / np.linalg.norm(p.entity[0])
        p.relation[0] = np.ones(4)
        # make candidate 3's score dominate
        assert filtered_rank(p, (0, 0, 3), self.filter) == 1.0

    def test_all_tied_gives_mean_rank(self):
        p = self.params.copy()
        p.entity[:] = 0.0
        rank = filtered_rank(p, (0, 1, 3), self.filter)
        n = p.n_entities
        assert rank == pytest.approx((n + 1) / 2)

    def test_filtered_candidates_removed(self):
        # five entities, two filtered away, target third-best of the rest
        p = init_params(ModelKind.DISTMULT, 5, 1, 2, seed=1)
        p.relation[0] = [1.0, 0.0]
        p.entity[:, 1] = 0.0
        p.entity[0, 0] = 1.0
        p.entity[1:, 0] = [5.0, 4.0, 3.0, 2.0]  # scores for tails 1..4
        vocab = Vocab({f"e{i}": i for i in range(5)}, {"r": 0})
        train = np.array([[0, 0, 1], [0, 0, 2], [0, 0, 4]], dtype=np.int64)
        empty = np.empty((0, 3), dtype=np.int64)
        filter_index = build_filter_index(TripleStore(train, empty, empty, vocab))
        # query (0, r, 4): candidates exclude true tails {1, 2}; among
        # {0, 3, 4} with scores {1, 3, 2}, target 4 ranks third... by
        # brute force below
        expect = brute_force_rank(p, 0, 0, 4, filter_index)
        assert filtered_rank(p, (0, 0, 4), filter_index) == expect
        assert expect == 2.0  # scores: e3=3 > e4=2 > e0=1

    def test_tie_policies_order(self):
        p = self.params.copy()
        p.entity[:] = 0.0
        opt = filtered_rank(p, (0, 1, 3), self.filter, tie="optimistic")
        mean = filtered_rank(p, (0, 1, 3), self.filter, tie="mean")
        pes = filtered_rank(p, (0, 1, 3), self.filter, tie="pessimistic")
        assert opt <= mean <= pes
        assert opt == 1.0


class TestEvaluate:
    def test_single_rank_one(self):
        p = init_params(ModelKind.DISTMULT, 4, 1, 2, seed=2)
        p.relation[0] = [1.0, 0.0]
        p.entity[:, 1] = 0.0
        p.entity[0, 0] = 1.0
        p.entity[1:, 0] = [9.0, 1.0, 2.0]
        test = np.array([[0, 0, 1]], dtype=np.int64)
        report = evaluate(p, test, no_filter())
        assert report.mrr == 1.0
        assert report.hits[1] == 1.0

    def test_ranks_one_and_four(self):
        # two queries engineered to rank 1 and 4
        p = init_params(ModelKind.DISTMULT, 6, 1, 2, seed=3)
        p.relation[0] = [1.0, 0.0]
        p.entity[:, 1] = 0.0
        p.entity[0, 0] = 1.0
        p.entity[1:, 0] = [9.0, 8.0, 7.0, 6.0, 5.0]
        test = np.array([[0, 0, 1], [0, 0, 4]], dtype=np.int64)
        report = evaluate(p, test, no_filter())
        assert report.mrr == pytest.approx(0.625)
        assert report.hits[1] == pytest.approx(0.5)
        assert report.hits[10] == pytest.approx(1.0)

    def test_empty_test_rejected(self):
        p = init_params(ModelKind.DISTMULT, 4, 1, 2, seed=4)
        with pytest.raises(ConfigError):
            evaluate(p, np.empty((0, 3), dtype=np.int64), no_filter())

    @pytest.mark.parametrize("chunk", [0, -1, 2.5, True])
    def test_chunk_below_one_or_not_integer_rejected(self, chunk):
        p = init_params(ModelKind.DISTMULT, 4, 1, 2, seed=4)
        test = np.array([[0, 0, 1], [1, 0, 2]], dtype=np.int64)
        with pytest.raises(ConfigError, match="chunk"):
            evaluate(p, test, no_filter(), chunk=chunk)

    def test_json_fields(self):
        report = RankingReport(mrr=0.5, hits={1: 0.2, 10: 0.9}, n_queries=7)
        assert report.to_json_dict() == {
            "mrr": 0.5, "hits1": 0.2, "hits10": 0.9, "n_queries": 7,
        }


class TestOracleEquivalence:
    @pytest.mark.parametrize("kind", list(ModelKind))
    def test_matches_brute_force(self, kind):
        store = random_store(seed=hash(kind.value) % 1000)
        store = add_reciprocals(store)
        params = init_params(kind, store.vocab.n_entities, store.vocab.n_relations,
                             4, seed=5)
        filter_index = build_filter_index(store)
        report = evaluate(params, store.test, filter_index, keep_ranks=True)
        brute = brute_force_report(params, store.test, filter_index)
        assert np.array_equal(report.per_query_ranks, brute["ranks"])
        assert report.mrr == brute["mrr"]
        assert report.hits[1] == brute["hits1"]
        assert report.hits[10] == brute["hits10"]

    def test_matches_with_constructed_ties(self):
        store = random_store(seed=77, n_ent=10)
        store = add_reciprocals(store)
        params = init_params(ModelKind.DISTMULT, 10, 6, 4, seed=6)
        params.entity[4] = params.entity[2]  # exact duplicate rows
        params.entity[7] = params.entity[2]
        filter_index = build_filter_index(store)
        for tie in ("mean", "optimistic", "pessimistic"):
            report = evaluate(params, store.test, filter_index, tie=tie,
                              keep_ranks=True)
            brute = brute_force_report(params, store.test, filter_index, tie=tie)
            assert np.array_equal(report.per_query_ranks, brute["ranks"])


class TestRankInvariances:
    def test_raising_target_score_never_hurts(self):
        params = init_params(ModelKind.DISTMULT, 8, 2, 4, seed=7)
        store = random_store(seed=8, n_ent=8, n_rel=2)
        filter_index = build_filter_index(store)
        h, r, t = 0, 0, 3
        base = filtered_rank(params, (h, r, t), filter_index)
        boosted = params.copy()
        boosted.entity[t] = boosted.entity[t] + 0.5 * boosted.entity[h] * boosted.relation[r]
        after = filtered_rank(boosted, (h, r, t), filter_index)
        s_before = score(params, h, r, t)
        s_after = score(boosted, h, r, t)
        if s_after >= s_before:
            assert after <= base

    def test_monotone_transform_preserves_ranks(self):
        # scaling all embeddings of a bilinear model by c > 0 scales every
        # score by c^2: a strictly monotone transform of the score vector
        params = init_params(ModelKind.DISTMULT, 10, 3, 4, seed=9)
        store = random_store(seed=10, n_ent=10)
        filter_index = build_filter_index(store)
        scaled = params.copy()
        scaled.entity[:] *= 1.7
        for h, r, t in store.test:
            a = filtered_rank(params, (int(h), int(r), int(t)), filter_index)
            b = filtered_rank(scaled, (int(h), int(r), int(t)), filter_index)
            assert a == b


class TestChunks:
    @pytest.mark.parametrize("tie", ["mean", "optimistic", "pessimistic"])
    def test_chunk_size_does_not_change_ranks(self, tie):
        store = add_reciprocals(random_store(seed=11, n_ent=10, n_test=25))
        params = init_params(ModelKind.COMPLEX, 10, 6, 4, seed=12)
        params.entity[5] = params.entity[1]
        filter_index = build_filter_index(store)
        ranks = [
            evaluate(params, store.test, filter_index, tie=tie, keep_ranks=True,
                     chunk=chunk).per_query_ranks
            for chunk in (1, 3, 7, 256)
        ]
        brute = brute_force_report(params, store.test, filter_index, tie=tie)["ranks"]
        for got in ranks:
            assert np.array_equal(got, brute)


class TestQueryIds:
    """Ids outside the model's tables are rejected, never wrapped."""

    def setup_method(self):
        self.params = init_params(ModelKind.DISTMULT, 5, 2, 4, seed=13)
        train = np.array([[0, 0, 1], [2, 1, 3]], dtype=np.int64)
        empty = np.empty((0, 3), dtype=np.int64)
        vocab = Vocab({f"e{i}": i for i in range(5)}, {"r": 0, "s": 1})
        self.filter = build_filter_index(TripleStore(train, empty, empty, vocab))

    @pytest.mark.parametrize("column, value", [
        (0, -1), (0, 5), (1, -2), (1, 2), (2, -1), (2, 5),
    ])
    def test_out_of_range_id_rejected(self, column, value):
        query = [0, 1, 2]
        query[column] = value
        good = np.array([[1, 0, 2], [3, 1, 4]], dtype=np.int64)
        test = np.concatenate([good, np.array([query], dtype=np.int64)])
        name = ("head", "relation", "tail")[column]
        with pytest.raises(ConfigError, match=name):
            evaluate(self.params, test, self.filter)

    def test_every_valid_id_accepted(self):
        test = np.array([[0, 0, 0], [4, 1, 4]], dtype=np.int64)
        assert evaluate(self.params, test, self.filter).n_queries == 2


# Every chunk size below puts query 1, 3, 7, 128 or 256 in chunk 1, which
# the calling thread ranks, while query 0 is in chunk 0, which the worker
# ranks; 302 queries leave a partial last chunk at every size but 1.
THREAD_CHUNKS = (1, 3, 7, 128, 256)
REPEATS = [1, 3, 7, 128, 256]


def tied_problem(kind):
    """302 queries over 16 entities, three candidates with equal tail rows
    and query 0 repeated where the worker ranks it."""
    store = add_reciprocals(random_store(seed=21, n_ent=16, n_rel=3, n_train=60, n_test=151))
    params = init_params(kind, 16, 6, 4, seed=22)
    params.tail_table[5] = params.tail_table[1]
    params.tail_table[9] = params.tail_table[1]
    test = store.test.copy()
    test[REPEATS] = test[0]
    return params, test, build_filter_index(store)


def report_bytes(report):
    return (repr(report.mrr), repr(report.hits), report.n_queries,
            report.per_query_ranks.tobytes())


class ChunkFailed(Exception):
    pass


class TestThreadedChunks:
    """``evaluate`` ranks its chunks on two threads, each pulling the next
    chunk; ``oracles.evaluate`` ranks them one after another.
    Reports and ranks must agree bit for bit at the same ``chunk``."""

    @pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
    @pytest.mark.parametrize("chunk", THREAD_CHUNKS)
    def test_matches_sequential_oracle(self, kind, chunk):
        params, test, filter_index = tied_problem(kind)
        for tie in TIE_POLICIES:
            got = evaluate(params, test, filter_index, tie=tie, keep_ranks=True, chunk=chunk)
            want = oracles.evaluate(params, test, filter_index, tie=tie, keep_ranks=True,
                                    chunk=chunk)
            assert report_bytes(got) == report_bytes(want)
            assert np.all(got.per_query_ranks[REPEATS] == got.per_query_ranks[0])

    def test_tied_candidates_count_as_ties(self):
        """The duplicated tail rows do tie: the tie policies disagree."""
        params, test, filter_index = tied_problem(ModelKind.DISTMULT)
        ranks = {tie: evaluate(params, test, filter_index, tie=tie, keep_ranks=True,
                               chunk=7).per_query_ranks for tie in TIE_POLICIES}
        assert np.any(ranks["optimistic"] < ranks["pessimistic"])

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a worker was started")

        params, test, filter_index = tied_problem(ModelKind.COMPLEX)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        for chunk in (302, 303, 1000):
            got = evaluate(params, test, filter_index, keep_ranks=True, chunk=chunk)
            want = oracles.evaluate(params, test, filter_index, keep_ranks=True, chunk=chunk)
            assert report_bytes(got) == report_bytes(want)

    def test_leaves_no_thread_running(self, monkeypatch):
        params, test, filter_index = tied_problem(ModelKind.COMPLEX)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        before = set(threading.enumerate())
        evaluate(params, test, filter_index, chunk=7)
        assert len(started) == 1
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("failing", ["calling", "worker"])
    def test_failure_waits_for_the_other_thread(self, failing, monkeypatch):
        """302 queries in chunks of 64: the worker ranks chunk 0 first and
        the calling thread chunk 1.  A failure in one thread's first chunk
        hands out no further chunk and leaves only after the other
        thread's chunk has been ranked."""
        params, test, filter_index = tied_problem(ModelKind.COMPLEX)
        forward = ranking.forward_all_tails
        calling = threading.current_thread()
        finished = []

        def flaky(*args, **kwargs):
            if (threading.current_thread() is calling) == (failing == "calling"):
                raise ChunkFailed("chunk failed on purpose")
            time.sleep(0.1)
            result = forward(*args, **kwargs)
            finished.append(True)
            return result

        with monkeypatch.context() as patch:
            patch.setattr(ranking, "forward_all_tails", flaky)
            with pytest.raises(ChunkFailed, match="^chunk failed on purpose$"):
                evaluate(params, test, filter_index, chunk=64)
            assert len(finished) == 1
        got = evaluate(params, test, filter_index, keep_ranks=True, chunk=64)
        want = oracles.evaluate(params, test, filter_index, keep_ranks=True, chunk=64)
        assert report_bytes(got) == report_bytes(want)


# Rows of ``blocked_ties_problem``: query 9's head row is NaN, so its
# target ties nothing (ties -1) and query 10's target ties one other
# candidate; at every chunk size but 1 they share a block, whose count of
# equal scores is then its row count although it holds ties.  The other
# tied rows sit in a few blocks and leave every other block tie-free.
NAN_ROW = 9
TIED = {10: 1, 44: 2, 45: 2, 127: 2, 130: 1}


def blocked_ties_problem(kind):
    """150 queries over 40 entities whose tails avoid the tied entities
    2, 3 and 5, 6, 7 except in the rows of ``TIED``, and the NaN head 0
    except in ``NAN_ROW``; the filter's known tails avoid them too."""
    rng = np.random.default_rng(31)
    n_ent, n_rel, plain = 40, 3, np.arange(8, 40)
    params = init_params(kind, n_ent, n_rel, 4, seed=32)
    params.tail_table[3] = params.tail_table[2]
    params.tail_table[[6, 7]] = params.tail_table[5]
    params.head_table[0] = np.nan

    def draw(n):
        return np.stack([rng.integers(1, n_ent, n), rng.integers(0, n_rel, n),
                         rng.choice(plain, n)], axis=1).astype(np.int64)

    test = draw(150)
    test[list(TIED), 2] = [2, 5, 6, 7, 3]
    test[NAN_ROW, 0] = 0
    vocab = Vocab({f"e{i}": i for i in range(n_ent)}, {f"r{i}": i for i in range(n_rel)})
    empty = np.empty((0, 3), dtype=np.int64)
    return params, test, build_filter_index(TripleStore(draw(200), empty, empty, vocab))


@pytest.mark.filterwarnings("ignore:divide by zero")  # the NaN row's pessimistic rank is 0
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_block_counts_match_the_whole_chunk_counts(kind):
    """Ranks counted in row blocks, each counting ties per row only when
    it holds some or a NaN target, are bitwise the ``axis=1`` counts of
    ``oracles.evaluate`` at chunk sizes around the block size."""
    params, test, filter_index = blocked_ties_problem(kind)
    ranks = {tie: oracles.evaluate(params, test, filter_index, tie=tie,
                                   keep_ranks=True).per_query_ranks for tie in TIE_POLICIES}
    expected = np.zeros(len(test))
    expected[list(TIED)] = list(TIED.values())
    expected[NAN_ROW] = -1
    assert np.array_equal(ranks["pessimistic"] - ranks["optimistic"], expected)
    for chunk in (1, 7, 8, 9, 17, 128):
        for tie in TIE_POLICIES:
            got = evaluate(params, test, filter_index, tie=tie, keep_ranks=True, chunk=chunk)
            want = oracles.evaluate(params, test, filter_index, tie=tie, keep_ranks=True,
                                    chunk=chunk)
            assert report_bytes(got) == report_bytes(want), (chunk, tie)


def test_default_chunk_reproduces_the_chunk_256_report():
    """The report and ranks of 1,000 ComplEx queries over 2,000 entities,
    recorded at ``chunk`` 256 on one thread before the default became 128
    on two threads.  GEMMs of 128 and 256 rows round some scores
    differently in their last bits, which moves no rank here."""
    store, _ = generate_synthetic(2000, 8, 20, 250, 0.05, 5)
    store = add_reciprocals(store)
    params = init_params("complex", store.vocab.n_entities, store.vocab.n_relations, 128, seed=5)
    report = evaluate(params, store.test, build_filter_index(store), keep_ranks=True)
    assert report.n_queries == 1000
    assert repr(report.mrr) == "0.003337571320040517"
    assert repr(report.hits) == "{1: 0.0, 10: 0.003}"
    digest = hashlib.sha1(report.per_query_ranks.tobytes()).hexdigest()
    assert digest == "64f2d7a7039d8bc4ba68c6f0c47c4cc3cd3053aa"
