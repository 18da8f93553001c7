"""Filtered ranking evaluation: MRR and Hits@k.

Each query scores every entity as tail, removes other known-true tails
(the filtered protocol), and ranks the target.  Ties resolve to the mean
rank by default; head queries are expected to arrive as tail queries on
inverse relations of a reciprocal-augmented store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FilterIndex
from .errors import ConfigError
from .models import ModelParams, forward_all_tails, score_all_tails

TIE_POLICIES = ("mean", "optimistic", "pessimistic")


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


def _rank_from_scores(scores: np.ndarray, t: int, excluded: np.ndarray, tie: str) -> float:
    """Rank of entity ``t`` among non-excluded candidates."""
    st = scores[t]
    if len(excluded):
        scores = scores.copy()
        scores[excluded] = -np.inf
        scores[t] = st
    above = int(np.sum(scores > st))
    ties = int(np.sum(scores == st)) - 1
    if tie == "optimistic":
        return 1.0 + above
    if tie == "pessimistic":
        return 1.0 + above + ties
    return 1.0 + above + 0.5 * ties


def filtered_rank(
    params: ModelParams,
    triple,
    filter_index: FilterIndex,
    tie: str = "mean",
) -> float:
    """Filtered rank of one triple's tail (1 is best; ties may be halves)."""
    if tie not in TIE_POLICIES:
        raise ConfigError(f"unknown tie policy {tie!r}")
    h, r, t = (int(x) for x in triple)
    excluded = filter_index.true_tails(h, r)
    excluded = excluded[excluded != t]
    return _rank_from_scores(score_all_tails(params, h, r), t, excluded, tie)


def evaluate(
    params: ModelParams,
    test: np.ndarray,
    filter_index: FilterIndex,
    ks: tuple[int, ...] = (1, 10),
    tie: str = "mean",
    keep_ranks: bool = False,
    chunk: int = 256,
) -> RankingReport:
    """Aggregate filtered ranks over a query set into MRR and Hits@k."""
    if tie not in TIE_POLICIES:
        raise ConfigError(f"unknown tie policy {tie!r}")
    if len(test) == 0:
        raise ConfigError("empty evaluation set")
    ranks = np.empty(len(test))
    for start in range(0, len(test), chunk):
        part = test[start : start + chunk]
        S, _ = forward_all_tails(params, part[:, 0], part[:, 1])
        for i, (h, r, t) in enumerate(part):
            excluded = filter_index.true_tails(int(h), int(r))
            excluded = excluded[excluded != t]
            ranks[start + i] = _rank_from_scores(S[i], int(t), excluded, tie)
    report = RankingReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits={k: float(np.mean(ranks <= k)) for k in ks},
        n_queries=len(test),
        per_query_ranks=ranks if keep_ranks else None,
    )
    return report
