"""Filtered ranking evaluation: MRR and Hits@k.

Each query scores every entity as tail, removes the other known-true
tails of its ``pair_key(head, relation)`` in the filter index (the
filtered protocol, see ``data.build_filter_index``), and ranks the
target.  Queries are ranked a chunk at a time: one filter lookup and one
masked write per chunk, then the candidates above and tied with each
target are counted in cache-sized row blocks (see ``evaluate``).  Ties
resolve to the mean rank by default; head queries are expected to arrive
as tail queries on inverse relations of a reciprocal-augmented store.

A query set of more than one chunk is ranked on two threads (``lanes``),
one task per chunk, whose GEMMs and row counts overlap; each chunk runs
the same code on either thread and writes only its slice of the ranks,
so the ranks are bitwise those of a sequential run.  Each thread scores
into its own ``chunk`` x |E| buffer and compares into its own
``_BLOCK`` x |E| bool buffer, both allocated by the calling thread to
keep the worker's malloc arena small; the default ``chunk`` of 128 keeps
the scores in flight at what one thread ranking 256 rows held (30 MB at
14.5k entities).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lanes
from .data import KeyedCSR, pair_key
from .errors import ConfigError, typed
from .models import ModelParams, check_triples, forward_all_tails

# A rank is 1 + (candidates scored above the target) + weight x (others tied).
_TIE_WEIGHT = {"mean": 0.5, "optimistic": 0.0, "pessimistic": 1.0}
TIE_POLICIES = tuple(_TIE_WEIGHT)
# rows compared and counted together: 8 x 14.5k float64 scores (116 KB)
# stay in L2 between the two compares
_BLOCK = 8


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

    Each chunk's ranks are counted in blocks of ``_BLOCK`` rows, whose
    scores stay in cache between two compares into one reused bool
    buffer: candidates above each target are counted row by row (numpy
    counts single rows faster than along ``axis=1``), then equal scores
    once over the whole block.  That count is the block's row count when
    each target ties only itself, so its ties are 0; otherwise, or when a
    target score is NaN (it equals nothing), the block counts its ties
    row by row.

    ``ConfigError`` for an empty query set, a query id outside the
    model's tables or a ``chunk`` that is not an integer >= 1.  Errors
    from the chunks are raised as ``lanes.run`` raises them.
    """
    if tie not in TIE_POLICIES:
        raise ConfigError(f"unknown tie policy {tie!r}")
    if typed(chunk, int, "chunk") < 1:
        raise ConfigError(f"chunk must be >= 1, got {chunk}")
    test = check_triples(params, test, "evaluation set")
    weight = _TIE_WEIGHT[tie]
    ranks = np.empty(len(test))
    scores = np.empty((1 if len(test) <= chunk else 2, min(chunk, len(test)), params.n_entities))
    flags = np.empty(scores[:, :_BLOCK].shape, dtype=bool)

    def rank(start, lane):
        part = test[start : start + chunk]
        rows, targets = np.arange(len(part)), part[:, 2]
        S, _ = forward_all_tails(params, part[:, 0], part[:, 1], out=scores[lane, : len(part)])
        st = S[rows, targets]
        src, tails = filter_index.lookup(pair_key(part[:, 0], part[:, 1]))
        S[src, tails] = -np.inf
        S[rows, targets] = st
        above, ties = np.empty(len(part), dtype=np.intp), np.zeros(len(part), dtype=np.intp)
        for b in range(0, len(part), _BLOCK):
            block, target = S[b : b + _BLOCK], st[b : b + _BLOCK, None]
            hit = flags[lane, : len(block)]
            np.greater(block, target, out=hit)
            above[b : b + len(block)] = [np.count_nonzero(row) for row in hit]
            np.equal(block, target, out=hit)
            if np.count_nonzero(hit) != len(block) or np.isnan(target).any():
                ties[b : b + len(block)] = [np.count_nonzero(row) - 1 for row in hit]
        ranks[start : start + len(part)] = 1.0 + above + weight * ties

    lanes.run([lambda lane, start=start: rank(start, lane)
               for start in range(0, len(test), chunk)])
    return RankingReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits={k: float(np.mean(ranks <= k)) for k in ks},
        n_queries=len(test),
        per_query_ranks=ranks if keep_ranks else None,
    )
