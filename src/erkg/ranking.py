"""Filtered ranking evaluation: MRR and Hits@k.

Each query scores every entity as tail, removes the other known-true
tails of its ``pair_key(head, relation)`` in the filter index (the
filtered protocol, see ``data.build_filter_index``), and ranks the
target.  Queries are ranked a chunk at a time: one filter lookup, one
masked write and two row counts per chunk.  Ties resolve to the mean
rank by default; head queries are expected to arrive as tail queries on
inverse relations of a reciprocal-augmented store.

A query set of more than one chunk is ranked on two threads: the calling
thread ranks chunks 0, 2, 4, ... and one worker thread, started per
call, ranks chunks 1, 3, 5, ...  The score GEMM and the row counts
release the GIL, so on two cores the chunks overlap.  Each chunk runs
the same code whichever thread ranks it and writes only its own slice
of the ranks, so the ranks are bitwise those of ranking the chunks one
after another.  The calling thread allocates one ``chunk`` x |E| score
buffer per thread and each thread scores into its own
(``forward_all_tails(..., out=...)``), which keeps the worker's malloc
arena small.  The scores in flight are ``2 x chunk x |E| x 8`` bytes,
plus one ``chunk`` x |E| boolean mask per thread at a time; the default
``chunk`` of 128 keeps that at what one thread ranking 256 rows held
(30 MB of scores at 14.5k entities).  A one-chunk call starts no
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import KeyedCSR, pair_key
from .errors import ConfigError, typed
from .models import ModelParams, check_triples, forward_all_tails

# A rank is 1 + (candidates scored above the target) + weight x (others tied).
_TIE_WEIGHT = {"mean": 0.5, "optimistic": 0.0, "pessimistic": 1.0}
TIE_POLICIES = tuple(_TIE_WEIGHT)


@dataclass
class RankingReport:
    mrr: float
    hits: dict[int, float]
    n_queries: int
    per_query_ranks: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        out = {"mrr": self.mrr}
        for k in sorted(self.hits):
            out[f"hits{k}"] = self.hits[k]
        out["n_queries"] = self.n_queries
        return out


def evaluate(
    params: ModelParams,
    test: np.ndarray,
    filter_index: KeyedCSR,
    ks: tuple[int, ...] = (1, 10),
    tie: str = "mean",
    keep_ranks: bool = False,
    chunk: int = 128,
) -> RankingReport:
    """Aggregate filtered ranks over a query set into MRR and Hits@k.

    ``ConfigError`` for an empty query set, a query id outside the
    model's tables or a ``chunk`` that is not an integer >= 1.  With
    more than one chunk, an exception from either thread is raised only
    after both threads have finished; if both raise, the calling
    thread's is.
    """
    if tie not in TIE_POLICIES:
        raise ConfigError(f"unknown tie policy {tie!r}")
    if typed(chunk, int, "chunk") < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    test = check_triples(params, test, "evaluation set")
    weight = _TIE_WEIGHT[tie]
    ranks = np.empty(len(test))
    threads = 1 if len(test) <= chunk else 2
    scores = np.empty((threads, min(chunk, len(test)), params.n_entities))
    args = (params, test, filter_index, weight, chunk, threads, ranks)
    if threads == 1:
        _rank_chunks(*args, 0, scores[0])
    else:
        # imported here, so processes that rank one chunk never load it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=1) as worker:
            odd = worker.submit(_rank_chunks, *args, 1, scores[1])
            _rank_chunks(*args, 0, scores[0])
        odd.result()
    return RankingReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits={k: float(np.mean(ranks <= k)) for k in ks},
        n_queries=len(test),
        per_query_ranks=ranks if keep_ranks else None,
    )


def _rank_chunks(params, test, filter_index, weight, chunk, step, ranks, first, scores):
    """Rank chunks ``first``, ``first + step``, ... of ``test`` into their
    slices of ``ranks``, scoring each into ``scores``."""
    for start in range(first * chunk, len(test), step * chunk):
        part = test[start : start + chunk]
        rows, targets = np.arange(len(part)), part[:, 2]
        S, _ = forward_all_tails(params, part[:, 0], part[:, 1], out=scores[: len(part)])
        st = S[rows, targets]
        src, tails = filter_index.lookup(pair_key(part[:, 0], part[:, 1]))
        S[src, tails] = -np.inf
        S[rows, targets] = st
        above = np.count_nonzero(S > st[:, None], axis=1)
        ties = np.count_nonzero(S == st[:, None], axis=1) - 1
        ranks[start : start + len(part)] = 1.0 + above + weight * ties
