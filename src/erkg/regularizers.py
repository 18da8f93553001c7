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

Both orders share one body, ``_pair_terms``.  Its mean runs over the kept
pairs, but its work runs over their distinct ``(h_a, h_b, relations)``
keys, each weighted by its count, and each term is evaluated once on
``h_a -+ h_b``, as every operator is linear or a translation.

Every penalty returns its value and adds ``scale`` times its gradient
rows (``"eps"`` for the thresholds) to the caller's ``GradAccumulator``,
which the caller merges once per batch.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import CategoryMap, TripleStore, pair_key, sorted_runs
from .errors import ConfigError, check_fields
from .grads import GradAccumulator
from .models import _EPS_DIST, N3_KINDS, OPERATORS, ModelParams, cview

logger = logging.getLogger(__name__)

ER_MODES = ("proximity", "dissimilarity", "joint")
REG_KINDS = ("none", "fro", "n3", "dura", "er")


@dataclass
class RegularizerSpec:
    """Configuration of one penalty term.

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

    def validate(self) -> None:
        check_fields(self)
        if self.kind not in REG_KINDS:
            raise ConfigError(f"unknown regularizer kind {self.kind!r}")
        if self.lam < 0:
            raise ConfigError("lambda must be nonnegative")
        if self.er_mode not in ER_MODES:
            raise ConfigError(f"unknown er_mode {self.er_mode!r}")
        if self.norm_order not in (2, 3):
            raise ConfigError("norm_order must be 2 or 3")
        if self.kind == "er" and self.pair_budget < 1:
            raise ConfigError("pair_budget must be >= 1")
        if self.second_order and self.path_budget < 1:
            raise ConfigError("path_budget must be >= 1")
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
        if isinstance(init, str) and init != "batch_median":
            raise ConfigError(f"unknown epsilon_init {init!r}")
        eps = np.full(n_relations, np.nan if isinstance(init, str) else float(init))
        return cls(epsilon=eps, acc=np.zeros(n_relations))

    def copy(self) -> "EpsilonState":
        return EpsilonState(self.epsilon.copy(), self.acc.copy())


@dataclass
class PairSet:
    """Sampled same-relation pairs of batch triple positions."""

    idx_a: np.ndarray
    idx_b: np.ndarray
    rel: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rel)


@dataclass
class PathPairSet:
    """Pairs of two-hop path heads sharing both relation ids."""

    head_a: np.ndarray
    head_b: np.ndarray
    rel1: np.ndarray
    rel2: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rel1)


def _sigmoid(u: np.ndarray | float):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(u, dtype=np.float64)))


def _norm_value_grad(X: np.ndarray, order: int, complexified: bool):
    """Row-wise penalty norms with gradients in real storage.

    order 2: sum of squared entries (equals squared complex moduli).
    order 3: sum of cubed absolute values; complex kinds cube the modulus
    of each complex coordinate.
    """
    X2 = X.reshape(len(X), -1)
    if order == 2:
        return np.sum(X2 * X2, axis=1), 2.0 * X
    if not complexified:
        a = np.abs(X2)
        return np.sum(a * a * a, axis=1), (3.0 * np.abs(X) * X)
    Z = cview(np.ascontiguousarray(X))
    A = np.abs(Z)
    val = np.sum(A**3, axis=1)
    grad = (3.0 * A * Z).view(np.float64)
    return val, grad


# ---------------------------------------------------------------------------
# Baseline penalties.


def _require_batch(batch: np.ndarray) -> None:
    if len(batch) == 0:
        raise ConfigError("penalty needs a nonempty batch")


def _norm_terms(
    params: ModelParams, batch: np.ndarray, order: int, acc: GradAccumulator, scale: float,
    cols,
) -> float:
    """Batch mean of the norms of the rows in columns ``cols`` (0 head,
    1 relation, 2 tail); ``scale`` times their gradients go to ``acc``."""
    _require_batch(batch)
    B = len(batch)
    cx = OPERATORS[params.kind].complex_coords
    keys = (params.head_key, "rel", params.tail_key)
    tables = (params.head_table, params.relation, params.tail_table)
    value = 0.0
    for col in cols:
        v, g = _norm_value_grad(tables[col][batch[:, col]], order, cx)
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
    if params.kind not in N3_KINDS:
        raise ConfigError(f"n3 penalty does not support {params.kind.value}")
    return _norm_terms(params, batch, 3, acc, scale, (0, 1, 2))


def penalty_dura(
    params: ModelParams, batch: np.ndarray, acc: GradAccumulator, scale: float = 1.0
) -> float:
    """Duality-induced penalty: transformed-head, tail, adjoint-transformed
    tail, and head squared norms, averaged over the batch; adds ``scale``
    times its gradient to ``acc``."""
    op = OPERATORS[params.kind]
    if op.distance:
        raise ConfigError(f"dura penalty does not support {params.kind.value}")
    _require_batch(batch)
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


def _budget_pairs(keys: np.ndarray, heads: np.ndarray, budget: int, seed: int):
    """Unordered pairs with distinct heads, at most ``budget`` per group.

    Elements with equal ``keys`` form a group, taken in first-appearance
    order.  A group of n elements, c_h of them with head h, has
    C(n, 2) - sum_h C(c_h, 2) eligible pairs (i < j in sequence order,
    different heads), ranked lexicographically.  A group with more than
    ``budget`` of them keeps ``budget`` ranks drawn uniformly without
    replacement; the others keep all.  Kept ranks are unranked to (i, j)
    directly, so no pair list is built: cost is O(n log n + kept).
    Returns the indices (into ``keys``) of each kept pair's two elements,
    groups in order and pairs in rank order within a group.
    """
    rng = np.random.default_rng(seed)
    N = len(keys)
    _, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    gid = np.argsort(np.argsort(first))[inv]
    # Elements grouped, sequence order kept inside each group.
    order = np.argsort(gid, kind="stable")
    g = gid[order]
    sizes = np.bincount(g)
    gstart = np.cumsum(sizes) - sizes
    pos = np.arange(N) - gstart[g]
    # Runs of one (group, head); each run keeps the group's order.
    by_run, run_start = sorted_runs((heads[order], g))
    run_len = np.diff(np.append(run_start, N))
    run = np.empty(N, dtype=np.int64)
    run[by_run] = np.repeat(np.arange(len(run_start)), run_len)
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
    ranks = [np.arange(e_small.sum()) + np.repeat(shift, e_small)]
    for k in np.flatnonzero(~small):
        chosen = rng.choice(int(eligible[k]), size=budget, replace=False)
        ranks.append(base[k] + np.sort(chosen))
    R = np.sort(np.concatenate(ranks))

    # Unrank.  Element i owns ranks [cum[i] - partners[i], cum[i]); its
    # k-th partner j has others[i] + k members with another head before
    # it, plus the members of i's run before it, which are those of the
    # run with ``others`` at most that (``others`` is nondecreasing in a run).
    i = np.searchsorted(cum, R, side="right")
    target = others[i] + R - (cum[i] - partners[i])
    run_key = (run * N + others)[by_run]
    skipped = np.searchsorted(run_key, run[i] * N + target, side="right") - run_start[run[i]]
    j = gstart[g[i]] + target + skipped
    return order[i], order[j]


def select_pairs(batch: np.ndarray, budget: int, seed: int) -> PairSet:
    """Sample same-relation pairs of batch triples with distinct heads.

    Triples are grouped by relation in first-appearance order; each
    group keeps at most ``budget`` of its unordered pairs (uniform, without
    replacement).  Deterministic given the batch order and seed.  Pairs
    are drawn by rank, never listed: cost is O(B + budget x groups) for a
    batch of B triples (up to the log factor of sorting B keys), however
    skewed the heads are.
    """
    if budget < 1:
        raise ConfigError("pair budget must be >= 1")
    ia, ib = _budget_pairs(batch[:, 1], batch[:, 0], budget, seed)
    return PairSet(idx_a=ia, idx_b=ib, rel=batch[ia, 1].astype(np.int64))


def _init_epsilon(
    eps: EpsilonState, rels: np.ndarray, dists: np.ndarray, counts: np.ndarray
) -> None:
    """Batch-median initialization for relations first seen in a pair set.

    ``counts[i]`` pairs lie at distance ``dists[i]``: the median runs over
    the pairs, as if each distance were listed once per pair.
    """
    for r in np.unique(rels[~eps.initialized[rels]]):
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
    params: ModelParams, ha: np.ndarray, hb: np.ndarray, chain: list[np.ndarray],
    spec: RegularizerSpec, wd: float, acc: GradAccumulator, scale: float,
    categories: CategoryMap | None, eps: EpsilonState | None,
) -> float:
    """Mean labeled pair term ``a m(T(h_a) - T(h_b)) + (1 - a) wd m(T(h_a) + T(h_b))``.

    Pairs are labeled by their heads and the first relation of ``chain``;
    ``T`` applies the relation operator once per hop, along ``chain``.
    The mean runs over the kept pairs, the work over their distinct
    ``(h_a, h_b, *chain)`` keys: each key's terms and gradient rows are
    weighted by how many kept pairs share it.  Each term is evaluated once,
    on ``h_a - h_b`` or ``h_a + h_b`` (see ``translation`` in ``models``),
    and a term whose coefficient is 0 for every key adds no value, gradient
    or label gradient, so it is skipped: the sum term when ``wd == 0`` or
    every label is 1 (proximity mode without soft labels), the difference
    term when every label is 0.  Adds ``scale`` times the gradients
    (heads, every hop's relations, soft labels) to ``acc``.
    """
    order, starts = sorted_runs([pair_key(ha, hb), *chain])
    first, counts = order[starts], np.diff(np.append(starts, len(order)))
    keep, label, soft = _category_labels(ha[first], hb[first], counts, spec, categories)
    first, counts, label, soft = first[keep], counts[keep], label[keep], soft[keep]
    ha, hb, chain = ha[first], hb[first], [rel[first] for rel in chain]
    n_pairs = int(counts.sum())
    if n_pairs == 0:
        return 0.0
    op = OPERATORS[params.kind]
    Ha, Hb = params.head_table[ha], params.head_table[hb]
    diff = Ha - Hb
    soft_any = bool(soft.any())
    if soft_any:
        if eps is None:
            raise ConfigError("joint labeling requires an EpsilonState")
        rel, d = chain[0][soft], diff[soft]
        dist = np.sqrt(np.sum(d * d, axis=1))
        _init_epsilon(eps, rel, dist, counts[soft])
        label[soft] = _sigmoid((eps.epsilon[rel] - dist) / spec.tau)
    w = counts * (scale / n_pairs)
    value = 0.0
    dvalue_dlabel = np.zeros(len(label))
    g_a, g_b = np.zeros_like(Ha), np.zeros_like(Hb)
    for sign, coef, slope in ((-1.0, label, 1.0), (1.0, (1.0 - label) * wd, -wd)):
        if not coef.any():
            continue  # zero at every key; a(1 - a) = 0 stops its label gradient too
        # T h_a + sign T h_b is T (h_a + sign h_b), with r scaled by c.
        c = 1.0 + sign if op.translation else 1.0
        hops = chain if c else []
        table = params.relation if c == 1.0 else c * params.relation
        X = [diff if sign < 0 else Ha + Hb]
        for rel in hops:
            X.append(op.apply(X[-1], rel, table))
        v, G = _norm_value_grad(X[-1], spec.norm_order, op.complex_coords)
        value += float(np.sum(counts * coef * v))
        dvalue_dlabel += slope * v
        G = (w * coef)[:, None] * G
        for X_in, rel in reversed(list(zip(X, hops))):
            G, rel_ids, GR = op.vjp(X_in, rel, table, G)
            acc.add("rel", rel_ids, GR if c == 1.0 else c * GR)
        g_a += G
        g_b += sign * G
    if soft_any:
        # Soft labels sigmoid((eps_r - ||h_a - h_b||) / tau) pass the
        # gradient on to the thresholds and to h_a - h_b.
        a = label[soft]
        g = (dvalue_dlabel * w)[soft] * (a * (1.0 - a) / spec.tau)
        acc.add("eps", chain[0][soft], g)
        g_diff = (-g / np.maximum(dist, _EPS_DIST))[:, None] * diff[soft]
        g_a[soft] += g_diff
        g_b[soft] -= g_diff
    acc.add(params.head_key, ha, g_a)
    acc.add(params.head_key, hb, g_b)
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
    if spec.kind != "er":
        raise ConfigError("spec.kind must be 'er'")
    value = _norm_terms(params, batch, spec.norm_order, acc, scale, (0, 2))
    return value + _pair_terms(
        params, batch[pairs.idx_a, 0], batch[pairs.idx_b, 0], [pairs.rel], spec,
        spec.dissim_weight, acc, scale, categories, eps,
    )


def sample_path_pairs(
    store: TripleStore, batch: np.ndarray, budget: int, seed: int
) -> PathPairSet:
    """Pair two-hop paths that share both relations.

    Each batch triple (h, r1, m) is extended by training continuations
    (m, r2, e), read from ``store.adjacency``; paths are grouped by
    (r1, r2) and at most ``budget`` pairs with distinct heads kept per
    group.  The budget applies to each (r1, r2) group, so kept pairs grow
    with the number of groups in the batch.  Deterministic given the seed.
    Pairs are drawn by rank, never listed: cost is O(P + budget x groups)
    for P paths (up to the log factor of sorting P keys), however large a
    hub's group.
    """
    if budget < 1:
        raise ConfigError("path budget must be >= 1")
    src, r2 = store.adjacency.lookup(batch[:, 2])
    heads = batch[src, 0].astype(np.int64)
    r1 = batch[src, 1].astype(np.int64)
    ia, ib = _budget_pairs(pair_key(r1, r2), heads, budget, seed)
    return PathPairSet(
        head_a=heads[ia],
        head_b=heads[ib],
        rel1=r1[ia],
        rel2=r2[ia].astype(np.int64),
    )


def penalty_er_second_order(
    params: ModelParams,
    path_pairs: PathPairSet,
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
    keys, so its cost follows the distinct keys.  Added by the trainer to
    the first-order total.
    """
    return _pair_terms(
        params, path_pairs.head_a, path_pairs.head_b, [path_pairs.rel1, path_pairs.rel2],
        spec, 0.0, acc, scale, categories, eps,
    )
