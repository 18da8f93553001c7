"""Correctness checks that the benchmark applies to the program's outputs.

Each check compares a result of ``erkg`` with an independent computation
or with a property of the method, never with a stored copy of earlier
output.  A check returns a list of failure messages; an empty list means
it passed.
"""

from __future__ import annotations

import numpy as np

LOSS_RTOL = 1e-9
FD_STEP = 1e-5
FD_RTOL = 1e-4
RANK_SLACK = 1e-9
NUCLEAR_RTOL = 1e-6


# ---------------------------------------------------------------------------
# Training.


def own_tail_scores(kind: str, entity, relation, heads, rels):
    """B x |E| tail scores from the models' published formulas.

    complex: Re(<conj(h) * r, t>) over dim/2 complex coordinates stored
    as interleaved (re, im) pairs; rescal: h^T R_r t.
    """
    if kind == "complex":
        hr, hi = entity[heads, 0::2], entity[heads, 1::2]
        rr, ri = relation[rels, 0::2], relation[rels, 1::2]
        wr = hr * rr + hi * ri
        wi = hr * ri - hi * rr
        return wr @ entity[:, 0::2].T - wi @ entity[:, 1::2].T
    if kind == "rescal":
        HR = np.stack([entity[h] @ relation[r] for h, r in zip(heads, rels)])
        return HR @ entity.T
    raise ValueError(f"no reference score formula for {kind!r}")


def own_cross_entropy(scores, tails) -> float:
    """Mean 1-vs-all cross entropy of each row against its true tail."""
    m = scores.max(axis=1)
    lse = m + np.log(np.exp(scores - m[:, None]).sum(axis=1))
    return float(np.mean(lse - scores[np.arange(len(tails)), tails]))


def check_first_batch_loss(kind, params0, batch, reported_loss):
    own = own_cross_entropy(
        own_tail_scores(kind, params0.entity, params0.relation, batch[:, 0], batch[:, 1]),
        batch[:, 2],
    )
    if abs(own - reported_loss) > LOSS_RTOL * max(1.0, abs(own)):
        return [f"first-batch loss {reported_loss!r} != recomputed {own!r}"]
    return []


def check_directional_derivative(f, grad_dot, step=FD_STEP):
    """Central difference of ``f(t)`` at 0 against the analytic slope."""
    fd = (f(step) - f(-step)) / (2.0 * step)
    if not np.isfinite(fd) or abs(fd - grad_dot) > FD_RTOL * max(abs(fd), abs(grad_dot), 1e-8):
        return [f"directional derivative: analytic {grad_dot!r} vs finite difference {fd!r}"]
    return []


def check_params(params):
    bad = [name for name, arr in params.blocks().items() if not np.all(np.isfinite(arr))]
    return [f"non-finite parameters in {name}" for name in bad]


def check_mrr_improved(trained_mrr, init_mrr):
    if not trained_mrr > init_mrr:
        return [f"valid MRR {trained_mrr!r} does not beat initialization {init_mrr!r}"]
    return []


# ---------------------------------------------------------------------------
# Ranking.


def own_filtered_rank_bounds(scores, target, true_tails):
    """Bounds on the filtered mean-tie rank of ``target``.

    ``true_tails`` is every known-true tail of the query; all but the
    target are removed before ranking.  The mean-tie rank is one plus the
    candidates scoring above the target plus half of those tied with it.
    Candidates within ``RANK_SLACK`` of the target's score may fall on
    either side when the program sums in another order, so the rank lies
    between counting all of them below and all of them above.
    """
    st = scores[target]
    keep = np.ones(len(scores), dtype=bool)
    keep[true_tails] = False
    keep[target] = False
    s = scores[keep]
    slack = RANK_SLACK * max(1.0, abs(st))
    return 1.0 + np.sum(s > st + slack), 1.0 + np.sum(s >= st - slack)


def check_ranks(scores_fn, queries, all_triples, ranks, sample):
    """Recompute the filtered rank of the sampled queries independently."""
    out = []
    for i in sample:
        h, r, t = (int(x) for x in queries[i])
        mask = (all_triples[:, 0] == h) & (all_triples[:, 1] == r)
        lo, hi = own_filtered_rank_bounds(scores_fn(h, r), t, all_triples[mask, 2])
        if not lo <= ranks[i] <= hi:
            out.append(f"query {i} ({h}, {r}, {t}): rank {ranks[i]} outside [{lo}, {hi}]")
    return out


def check_report_from_ranks(report, ranks):
    out = []
    mrr = float(np.mean(1.0 / ranks))
    if mrr != report.mrr:
        out.append(f"MRR {report.mrr!r} != mean reciprocal rank {mrr!r}")
    for k, v in report.hits.items():
        h = float(np.mean(ranks <= k))
        if h != v:
            out.append(f"Hits@{k} {v!r} != {h!r}")
    if report.n_queries != len(ranks):
        out.append(f"n_queries {report.n_queries} != {len(ranks)}")
    return out


# ---------------------------------------------------------------------------
# Nuclear lab.


def check_nuclear(report, target, P, R, Q, feasibility):
    """Feasible, unflagged, and ||X||_F <= nuclear <= sum_d ||p||||r||||q||."""
    out = []
    if report.flagged:
        out.append(f"{report.variant} flagged: ratio {report.ratio!r}")
    if not report.reconstruction_residual < feasibility:
        out.append(f"infeasible: residual {report.reconstruction_residual!r}")
    lo = float(np.linalg.norm(target))
    hi = float(np.sum(np.linalg.norm(P, axis=0) * np.linalg.norm(R, axis=0)
                      * np.linalg.norm(Q, axis=0)))
    v = report.nuclear_value
    if not lo * (1 - NUCLEAR_RTOL) <= v <= hi * (1 + NUCLEAR_RTOL):
        out.append(f"nuclear value {v!r} outside [{lo!r}, {hi!r}]")
    return out
