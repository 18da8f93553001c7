"""Penalty terms and their analytic gradients.

Baselines: squared-norm (``fro``), nuclear 3-norm surrogate (``n3``), and
the duality-induced four-term penalty (``dura``).  The equivariance
penalty (``er``) combines per-triple entity norm terms with per-pair
terms over same-relation head pairs:

    mean_triples[ n(h) + n(t) ]
    + mean_pairs[ a * m(T_r(h_a) - T_r(h_b))
                  + (1 - a) * m(T_r(h_a) + T_r(h_b)) ]

where ``n = m`` is the squared 2-norm (``norm_order=2``) or the cubed
3-norm of entrywise moduli (``norm_order=3``), ``T_r`` is the model's
relational transform, and the label ``a`` comes either from entity
categories (1 if equal, 0 otherwise) or, without categories, from a
logistic relaxation ``sigmoid((eps_r - ||x_a - x_b||) / tau)`` with a
per-relation trainable threshold ``eps_r``.

Such labels make the penalty depend on the raw head embeddings and on
``eps_r``; both paths are included in its gradients.
Proximity mode keeps only same-category pairs (difference term),
dissimilarity mode only cross-category pairs (sum term), joint mode keeps
every pair with its soft label.  Pairs touching an unlabeled entity fall
back to the joint labeling (warned once per call) unless strict labels
are requested.  The second-order term applies ``T`` along two-hop paths.

Both orders draw a ``PairSet`` (heads and the relation chain between
them: one hop for same-relation pairs, two for path pairs) and score it
with one body, ``_pair_terms``.  Its mean runs over the kept pairs, but
its work runs over their distinct ``(h_a, h_b, relations)`` keys, each
weighted by its count, and over their distinct head pairs: each term is
evaluated once on ``h_a -+ h_b``, as every operator is linear or a
translation, by the operator's ``chain_norm`` (see ``models``).

Every penalty returns its value and adds ``scale`` times its gradient
rows (``"eps"`` for the thresholds) to the caller's ``GradAccumulator``,
which the caller merges once per batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import CategoryMap, TripleStore, distinct_rows, run_ids, sorted_runs
from .errors import ConfigError, check_count, check_fields, check_seed, typed
from .grads import GradAccumulator
from .models import (
    _EPS_DIST, OPERATORS, ModelKind, ModelParams, check_triples, norm_value_grad, pair_sum,
    triple_ids,
)

logger = logging.getLogger(__name__)

ER_MODES = ("proximity", "dissimilarity", "joint")
REG_KINDS = ("none", "fro", "n3", "dura", "er")
N3_KINDS = frozenset({ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX})


def check_penalty(kind: ModelKind, penalty: str) -> None:
    """``ConfigError`` unless ``kind`` supports ``penalty``: n3 needs a
    diagonal bilinear kind, dura a bilinear one."""
    if penalty == "n3" and kind not in N3_KINDS or penalty == "dura" and OPERATORS[kind].distance:
        raise ConfigError(f"{penalty} penalty does not support {kind.value}")


@dataclass(frozen=True)
class RegularizerSpec:
    """Configuration of one penalty term, checked when built, then frozen.

    The fields are the keys of a run config's ``regularizer`` section, with
    their types and defaults; ``lam``, the coefficient applied by the
    trainer, is spelled ``"lambda"`` there.  ``pair_budget`` caps sampled
    pairs per relation per batch; ``dissim_weight``, nonnegative, rescales
    the sum-term relative to the difference term (shared coefficient by
    default).
    """

    kind: str = "none"
    lam: float = 0.0
    er_mode: str = "joint"
    norm_order: int = 2
    pair_budget: int = 32
    second_order: bool = False
    path_budget: int = 32
    tau: float = 1.0
    epsilon_init: float | str = "batch_median"
    dissim_weight: float = 1.0
    strict_labels: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in REG_KINDS:
            raise ConfigError(f"unknown regularizer kind {self.kind!r}")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.er_mode not in ER_MODES:
            raise ConfigError(f"unknown er_mode {self.er_mode!r}")
        if self.norm_order not in (2, 3):
            raise ConfigError("norm_order must be 2 or 3")
        if self.kind == "er":
            check_count(self.pair_budget, "pair_budget")
        if self.second_order:
            check_count(self.path_budget, "path_budget")
        if self.tau <= 0:
            raise ConfigError("tau (the temperature) must be positive")
        if self.dissim_weight < 0:
            raise ConfigError("dissim_weight must be nonnegative")
        if isinstance(self.epsilon_init, str) and self.epsilon_init != "batch_median":
            raise ConfigError(f"unknown epsilon_init {self.epsilon_init!r}")


@dataclass
class EpsilonState:
    """Per-relation similarity thresholds with their Adagrad accumulators.

    Uninitialized entries are NaN; the batch-median policy fills them the
    first time a relation contributes soft-labeled pairs.
    """

    epsilon: np.ndarray
    acc: np.ndarray

    @property
    def initialized(self) -> np.ndarray:
        """Per-relation mask of thresholds that hold a value (not NaN)."""
        return ~np.isnan(self.epsilon)

    @classmethod
    def create(cls, n_relations: int, init: float | str = "batch_median"):
        check_count(n_relations, "n_relations")
        RegularizerSpec(epsilon_init=init)  # building a spec checks ``init`` by its rule
        eps = np.full(n_relations, np.nan if isinstance(init, str) else float(init))
        return cls(epsilon=eps, acc=np.zeros(n_relations))

    def copy(self) -> "EpsilonState":
        return EpsilonState(self.epsilon.copy(), self.acc.copy())


@dataclass
class PairSet:
    """Sampled pairs of int64 heads sharing a relation chain: one int64
    relation-id array per hop, ``[r]`` or a path's ``[r1, r2]``."""

    head_a: np.ndarray
    head_b: np.ndarray
    chain: list[np.ndarray]

    @property
    def n(self) -> int:
        return len(self.head_a)


def _sigmoid(u: np.ndarray | float):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(u, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Baseline penalties.


def _norm_terms(
    params: ModelParams, batch: np.ndarray, order: int, acc: GradAccumulator, scale: float,
    cols,
) -> float:
    """Batch mean of the norms of the rows in columns ``cols`` (0 head,
    1 relation, 2 tail); ``scale`` times their gradients go to ``acc``."""
    batch = check_triples(params, batch, "batch")
    B = len(batch)
    cx = OPERATORS[params.kind].complex_coords
    keys = (params.head_key, "rel", params.tail_key)
    tables = (params.head_table, params.relation, params.tail_table)
    value = 0.0
    for col in cols:
        v, g = norm_value_grad(tables[col][batch[:, col]], order, cx)
        value = value + v
        acc.add(keys[col], batch[:, col], g * (scale / B))
    return float(value.sum() / B)


def penalty_fro(
    params: ModelParams, batch: np.ndarray, acc: GradAccumulator, scale: float = 1.0
) -> float:
    """Mean squared norm of head, relation, and tail parameters; adds
    ``scale`` times its gradient to ``acc``."""
    return _norm_terms(params, batch, 2, acc, scale, (0, 1, 2))


def penalty_n3(
    params: ModelParams, batch: np.ndarray, acc: GradAccumulator, scale: float = 1.0
) -> float:
    """Mean cubed 3-norm of head, relation, and tail vectors.

    Only defined for diagonal bilinear kinds; complex coordinates
    contribute the cube of their modulus.  Adds ``scale`` times the
    gradient to ``acc``.
    """
    check_penalty(params.kind, "n3")
    return _norm_terms(params, batch, 3, acc, scale, (0, 1, 2))


def penalty_dura(
    params: ModelParams, batch: np.ndarray, acc: GradAccumulator, scale: float = 1.0
) -> float:
    """Duality-induced penalty: transformed-head, tail, adjoint-transformed
    tail, and head squared norms, averaged over the batch; adds ``scale``
    times its gradient to ``acc``."""
    check_penalty(params.kind, "dura")
    batch = check_triples(params, batch, "batch")
    op = OPERATORS[params.kind]
    B = len(batch)
    heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    H = params.head_table[heads]
    T = params.tail_table[tails]
    Th = op.apply(H, rels, params.relation)
    Ta = op.adjoint(T, rels, params.relation)
    value = np.sum(Th * Th) + np.sum(T * T) + np.sum(Ta * Ta) + np.sum(H * H)
    GH, rel_ids, GRh = op.vjp(H, rels, params.relation, 2.0 * Th)
    # the same rels give the same rel_ids, so the two parts add row by row
    GT, _, GRt = op.adjoint_vjp(T, rels, params.relation, 2.0 * Ta)
    w = scale / B
    acc.add(params.head_key, heads, (GH + 2.0 * H) * w)
    acc.add(params.tail_key, tails, (GT + 2.0 * T) * w)
    acc.add("rel", rel_ids, (GRh + GRt) * w)
    return float(value / B)


# ---------------------------------------------------------------------------
# Pair sampling and labeling.


def _draw_ranks(rng: np.random.Generator, eligible: np.ndarray, budget: int) -> np.ndarray:
    """``budget`` distinct ranks below ``eligible[g]`` for each group g (all
    over budget), one row per group: as sets, the rows ``rng.choice(E, b,
    replace=False)`` draws group after group, and the generator ends in
    the same state.  ``choice`` runs Floyd's method: step s draws t_s on
    ``[0, E - b + s]`` and keeps it, or keeps ``E - b + s`` if t_s is kept
    already; then its shuffle draws on ``[0, b - 1]`` down to ``[0, 1]``.
    ``rng.integers`` makes the same bounded draw for each bound, so one
    call over all groups' bounds consumes the stream alike; the shuffle's
    draws are dropped, as callers sort.  t_s is kept already if it repeats
    an earlier t of its row, or is ``E - b + s'`` for an s' < s that kept
    its top value, which pointer jumping follows.  Temporary memory is a
    few times the result's, and none without groups.  ``choice`` alone
    shuffles when E > 10,000 and b > E // 50 (so b >= 201); there the
    ranks, still uniform, differ from its draws.
    """
    G, b = len(eligible), int(budget)
    if G == 0:
        return np.empty((0, b), dtype=np.int64)
    top = eligible[:, None] - b  # step s's top value is top + s
    steps = np.arange(b)
    highs = np.concatenate([top + steps, np.broadcast_to(steps[:0:-1], (G, b - 1))], axis=1)
    t = rng.integers(0, highs, endpoint=True)[:, :b]
    order, starts = sorted_runs([t.ravel(), np.repeat(np.arange(G), b)])
    kept_top = np.ones(G * b, dtype=bool)
    kept_top[order[starts]] = False  # first draw of its value in its row
    # Draws that are an earlier step's top value jump to that step's cell.
    earlier = t - top
    chained = np.flatnonzero((earlier >= 0) & (earlier < steps))
    jump = np.arange(G * b)
    jump[chained] += earlier.ravel()[chained] - chained % b
    for _ in range(b.bit_length()):  # ceil(log2(b + 1)) rounds cover chains of b steps
        kept_top[chained] |= kept_top[jump[chained]]
        jump[chained] = jump[jump[chained]]
    return np.where(kept_top.reshape(G, b), top + steps, t)


def _budget_pairs(heads: np.ndarray, chain: list[np.ndarray], budget: int, seed: int) -> PairSet:
    """Unordered pairs with distinct heads, at most ``budget`` per group.

    Elements with equal relation chains (``chain``, one array per hop,
    parallel to ``heads``; the first hop is the primary key) form a
    group, taken in first-appearance order.  A group of n elements, c_h
    of them with head h, has C(n, 2) - sum_h C(c_h, 2) eligible pairs
    (i < j in sequence order, different heads), ranked lexicographically.
    A group with more than ``budget`` of them keeps ``budget`` ranks drawn
    uniformly without replacement (:func:`_draw_ranks`); the others keep
    all.  Kept ranks are unranked to (i, j) directly, so no pair list is
    built.  Cost: two packed sorts of n elements, one sort of the groups'
    first elements, one ``rng.integers`` over all over-budget groups and
    one sort of the kept ranks.  Returns the kept pairs' heads and chains
    (int64), groups in order and pairs in rank order within a group.
    """
    rng = np.random.default_rng(check_seed(seed))
    heads, *chain = [x.astype(np.int64, copy=False) for x in (heads, *chain)]
    N = len(heads)
    # Elements grouped, groups in first-appearance order and sequence
    # order kept inside each: the key-sorted runs, reordered by first row.
    by_key, key_start = sorted_runs(chain[::-1])
    by_first = np.argsort(by_key[key_start])
    sizes = np.diff(np.append(key_start, N))[by_first]
    gstart = np.cumsum(sizes) - sizes
    order = by_key[np.arange(N) + np.repeat(key_start[by_first] - gstart, sizes)]
    g = np.repeat(np.arange(len(sizes)), sizes)
    pos = np.arange(N) - gstart[g]
    # Runs of one (group, head); each run keeps the group's order.
    by_run, run_start = sorted_runs((heads[order], g))
    run_len = np.diff(np.append(run_start, N))
    run = run_ids(by_run, run_start)
    # Earlier members of the group with the same head, and with another.
    same = np.empty(N, dtype=np.int64)
    same[by_run] = np.arange(N) - run_start[run[by_run]]
    others = pos - same
    # Later members with another head: (n - 1 - pos) - (run_len - 1 - same).
    partners = sizes[g] - pos - run_len[run] + same
    cum = np.cumsum(partners)
    cum0 = np.concatenate(([0], cum))
    base = cum0[gstart]
    eligible = cum0[gstart + sizes] - base

    small = eligible <= budget
    e_small = eligible[small]
    shift = base[small] - np.cumsum(e_small) + e_small
    big = np.flatnonzero(~small)
    # Groups own disjoint rank ranges, so one sort orders every group's draws.
    R = np.concatenate([np.arange(e_small.sum()) + np.repeat(shift, e_small),
                        (_draw_ranks(rng, eligible[big], budget) + base[big, None]).ravel()])
    R.sort()

    # Unrank.  Element i owns ranks [cum[i] - partners[i], cum[i]); its
    # k-th partner j has others[i] + k members with another head before
    # it, plus the members of i's run before it, which are those of the
    # run with ``others`` at most that (``others`` is nondecreasing in a run).
    i = np.searchsorted(cum, R, side="right")
    target = others[i] + R - (cum[i] - partners[i])
    run_key = (run * N + others)[by_run]
    skipped = np.searchsorted(run_key, run[i] * N + target, side="right") - run_start[run[i]]
    j = gstart[g[i]] + target + skipped
    return PairSet(heads[order[i]], heads[order[j]], [rel[order[i]] for rel in chain])


def select_pairs(batch: np.ndarray, budget: int, seed: int) -> PairSet:
    """Sample same-relation pairs of batch triples with distinct heads.

    Triples are grouped by relation in first-appearance order; each
    group keeps at most ``budget`` of its unordered pairs (uniform, without
    replacement).  Deterministic given the batch order and seed.  Pairs
    are drawn by rank, never listed, with one ``rng.integers`` over all
    over-budget groups: cost is O(B + budget x groups) for a batch of B
    triples (up to the log factor of sorting B keys), however skewed the
    heads are.  Budgets above 200 may draw unlike ``rng.choice`` (see
    ``_draw_ranks``).
    """
    check_count(budget, "pair budget")
    batch = triple_ids(batch, "batch")
    return _budget_pairs(batch[:, 0], [batch[:, 1]], budget, seed)


def _init_epsilon(
    eps: EpsilonState, rels: np.ndarray, dists: np.ndarray, counts: np.ndarray
) -> None:
    """Batch-median initialization for relations first seen in a pair set.

    ``counts[i]`` pairs lie at distance ``dists[i]``: the median runs over
    the pairs, as if each distance were listed once per pair.
    """
    (new,) = distinct_rows([rels[~eps.initialized[rels]]])
    for r in new:
        m = rels == r
        eps.epsilon[r] = float(np.median(np.repeat(dists[m], counts[m])))


def _category_labels(
    ha: np.ndarray, hb: np.ndarray, counts: np.ndarray, spec: RegularizerSpec,
    categories: CategoryMap | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs a mode keeps, their hard labels, and which of them take a
    soft (joint) label instead; ``counts`` pairs share each row."""
    n = len(ha)
    if spec.er_mode == "joint":
        return np.ones(n, dtype=bool), np.zeros(n), np.ones(n, dtype=bool)
    if categories is not None:
        la, lb = categories.labels_for(ha), categories.labels_for(hb)
    else:
        la = lb = np.full(n, -1, dtype=np.int64)
    both = (la >= 0) & (lb >= 0)
    same = both & (la == lb)
    soft = ~both
    if soft.any():
        if spec.strict_labels:
            raise ConfigError("pair with unlabeled entity in category mode")
        logger.warning(
            "%d pairs lack category labels; using joint labels", int(counts[soft].sum())
        )
    keep = (same if spec.er_mode == "proximity" else both & ~same) | soft
    return keep, np.where(same, 1.0, 0.0), soft


# ---------------------------------------------------------------------------
# Equivariance penalty.


def _pair_terms(
    params: ModelParams, pairs: PairSet, spec: RegularizerSpec, wd: float,
    acc: GradAccumulator, scale: float, categories: CategoryMap | None,
    eps: EpsilonState | None,
) -> float:
    """Mean labeled pair term ``a m(T(h_a) - T(h_b)) + (1 - a) wd m(T(h_a) + T(h_b))``.

    Pairs are labeled by their heads and the first hop of their chain;
    ``T`` applies the relation operator once per hop, along the chain.
    The mean runs over the kept pairs, the work over their distinct
    ``(h_a, h_b, *chain)`` keys, each weighted by how many kept pairs share
    it, and over their distinct head pairs: the keys are sorted head pair
    first, and ``h_a -+ h_b`` and its distance are computed once per head
    pair.  Each term is one ``chain_norm`` call (see
    ``models``) on ``h_a - h_b`` or ``h_a + h_b`` (see ``translation``),
    whose head gradients come back summed per head pair.  A term whose
    coefficient is 0 for every key adds no value, gradient or label
    gradient, so it is skipped: the sum term when ``wd == 0`` or every
    label is 1 (proximity mode without soft labels), the difference term
    when every label is 0.  Adds ``scale`` times the gradients (heads,
    every hop's relations, soft labels) to ``acc``.
    """
    ha, hb, chain = pairs.head_a, pairs.head_b, pairs.chain
    order, starts = sorted_runs([*chain[::-1], ha, hb])
    first, counts = order[starts], np.diff(np.append(starts, len(order)))
    ha, hb = ha[first], hb[first]
    new_pair = np.ones(len(first), dtype=bool)  # where the head pair changes
    new_pair[1:] = (ha[1:] != ha[:-1]) | (hb[1:] != hb[:-1])
    keep, label, soft = _category_labels(ha, hb, counts, spec, categories)
    if not keep.all():  # a head pair's keys are all kept or all dropped
        first, counts, label, soft, new_pair = (
            x[keep] for x in (first, counts, label, soft, new_pair))
        ha, hb = ha[keep], hb[keep]
    n_pairs = int(counts.sum())
    if n_pairs == 0:
        return 0.0
    chain = [rel[first] for rel in chain]
    at = np.cumsum(new_pair) - 1  # each key's head pair
    ha, hb = ha[new_pair], hb[new_pair]
    op = OPERATORS[params.kind]
    Ha, Hb = params.head_table[ha], params.head_table[hb]
    diff = Ha - Hb
    # Soft labels are 0 until set below, so a label of 1 at every key
    # means no soft labels and no sum term.
    total = Ha + Hb if wd and not label.all() else None
    del Ha, Hb
    soft_any = bool(soft.any())
    if soft_any:
        if eps is None:
            raise ConfigError("joint labeling requires an EpsilonState")
        at_soft = slice(None) if soft.all() else soft  # a view, not a copy, when all are soft
        soft_rel, soft_pair = chain[0][at_soft], at[at_soft]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        _init_epsilon(eps, soft_rel, dist[soft_pair], counts[at_soft])
        label[at_soft] = _sigmoid((eps.epsilon[soft_rel] - dist[soft_pair]) / spec.tau)
    w = counts * (scale / n_pairs)
    value = 0.0
    dvalue_dlabel = np.zeros(len(label))
    grad = {}  # sign -> gradient on h_a + sign h_b
    for sign, coef, slope in ((-1.0, label, 1.0), (1.0, (1.0 - label) * wd, -wd)):
        if not coef.any():
            continue  # zero at every key; a(1 - a) = 0 stops its label gradient too
        # T h_a + sign T h_b is T (h_a + sign h_b), with r scaled by c.
        c = 1.0 + sign if op.translation else 1.0
        table = params.relation if c == 1.0 else c * params.relation
        v, grad[sign], rel_grads = op.chain_norm(
            diff if sign < 0 else total, at, chain if c else [], table, spec.norm_order,
            w * coef)
        value += float(np.sum(counts * coef * v))
        dvalue_dlabel += slope * v
        for rel_ids, GR in rel_grads:
            acc.add("rel", rel_ids, GR if c == 1.0 else c * GR)
    del total
    if soft_any:
        # Soft labels sigmoid((eps_r - ||h_a - h_b||) / tau) pass the
        # gradient on to the thresholds and to h_a - h_b.
        # A hard label is 0 or 1, so a (1 - a) keeps only the soft keys.
        g = (dvalue_dlabel * w) * (label * (1.0 - label) / spec.tau)
        acc.add("eps", soft_rel, g[at_soft])
        g_dist = pair_sum(at, g, len(diff))
        diff *= (-g_dist / np.maximum(dist, _EPS_DIST))[:, None]
        grad[-1.0] = grad[-1.0] + diff if -1.0 in grad else diff
    del diff
    if grad:
        g_diff, g_sum = grad.get(-1.0, 0.0), grad.get(1.0, 0.0)
        acc.add(params.head_key, ha, g_sum + g_diff)
        acc.add(params.head_key, hb, g_sum - g_diff)
    return value / n_pairs


def penalty_er(
    params: ModelParams,
    batch: np.ndarray,
    pairs: PairSet,
    spec: RegularizerSpec,
    acc: GradAccumulator,
    scale: float = 1.0,
    categories: CategoryMap | None = None,
    eps: EpsilonState | None = None,
) -> float:
    """Entity norm terms plus labeled pair terms; adds ``scale`` times its
    gradient to ``acc``.

    Gradients cover embeddings, relation parameters, and (through the soft
    labels) the per-relation thresholds under the ``"eps"`` key.  May
    initialize thresholds as a side effect (batch-median policy).
    """
    if typed(spec, RegularizerSpec, "spec").kind != "er":
        raise ConfigError("spec.kind must be 'er'")
    value = _norm_terms(params, batch, spec.norm_order, acc, scale, (0, 2))
    return value + _pair_terms(params, pairs, spec, spec.dissim_weight, acc, scale, categories, eps)


def sample_path_pairs(store: TripleStore, batch: np.ndarray, budget: int, seed: int) -> PairSet:
    """Pair two-hop paths that share both relations.

    Each batch triple (h, r1, m) is extended by training continuations
    (m, r2, e), read from ``store.adjacency``; paths are grouped by
    (r1, r2) and at most ``budget`` pairs with distinct heads kept per
    group.  The budget applies to each (r1, r2) group, so kept pairs grow
    with the number of groups in the batch.  Deterministic given the seed.
    Pairs are drawn by rank, never listed, with one ``rng.integers`` over
    all over-budget groups: cost is O(P + budget x groups) for P paths (up
    to the log factor of sorting P keys), however large a hub's group.
    Budgets above 200 may draw unlike ``rng.choice`` (see ``_draw_ranks``).
    """
    check_count(budget, "path budget")
    if not isinstance(store, TripleStore):
        raise ConfigError(f"second-order paths need a TripleStore, got {type(store).__name__}")
    batch = triple_ids(batch, "batch")
    src, r2 = store.adjacency.lookup(batch[:, 2])
    return _budget_pairs(batch[src, 0], [batch[src, 1], r2], budget, seed)


def penalty_er_second_order(
    params: ModelParams,
    path_pairs: PairSet,
    spec: RegularizerSpec,
    acc: GradAccumulator,
    scale: float = 1.0,
    categories: CategoryMap | None = None,
    eps: EpsilonState | None = None,
) -> float:
    """Mean labeled difference of doubly-transformed path heads; adds
    ``scale`` times its gradient to ``acc``.

    Labels follow the first-order policy applied to the path heads, with
    the first relation's threshold in joint mode.  The mean runs over the
    kept path pairs, the work over their distinct ``(h_a, h_b, r1, r2)``
    keys and their distinct head pairs.  Added by the trainer to the
    first-order total.
    """
    spec = typed(spec, RegularizerSpec, "spec")
    return _pair_terms(params, path_pairs, spec, 0.0, acc, scale, categories, eps)
