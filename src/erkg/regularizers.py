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
``eps_r``; both paths are included in the returned gradients.
Proximity mode keeps only same-category pairs (difference term),
dissimilarity mode only cross-category pairs (sum term), joint mode keeps
every pair with its soft label.  Pairs touching an unlabeled entity fall
back to the joint labeling (warned once per call) unless strict labels
are requested.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import CategoryMap, TripleStore
from .errors import ConfigError
from .grads import GradAccumulator, GradSet
from .models import N3_KINDS, OPERATORS, ModelParams, cview

logger = logging.getLogger(__name__)

ER_MODES = ("proximity", "dissimilarity", "joint")
REG_KINDS = ("none", "fro", "n3", "dura", "er")

_EPS_DIST = 1e-30


@dataclass
class RegularizerSpec:
    """Configuration of one penalty term.

    ``lam`` is the coefficient applied by the trainer.  ``pair_budget``
    caps sampled pairs per relation per batch; ``dissim_weight`` optionally
    rescales the sum-term relative to the difference term (shared
    coefficient by default).
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
            raise ConfigError("temperature must be positive")
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
    initialized: np.ndarray

    @classmethod
    def create(cls, n_relations: int, init: float | str = "batch_median"):
        if isinstance(init, str):
            if init != "batch_median":
                raise ConfigError(f"unknown epsilon_init {init!r}")
            eps = np.full(n_relations, np.nan)
            mask = np.zeros(n_relations, dtype=bool)
        else:
            eps = np.full(n_relations, float(init))
            mask = np.ones(n_relations, dtype=bool)
        return cls(epsilon=eps, acc=np.zeros(n_relations), initialized=mask)

    def copy(self) -> "EpsilonState":
        return EpsilonState(self.epsilon.copy(), self.acc.copy(), self.initialized.copy())


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
    params: ModelParams, batch: np.ndarray, order: int, acc: GradAccumulator, cols
) -> float:
    """Batch mean of the norms of the rows in columns ``cols`` (0 head,
    1 relation, 2 tail); their gradients go to ``acc``."""
    B = len(batch)
    cx = OPERATORS[params.kind].complex_coords
    keys = (params.head_key, "rel", params.tail_key)
    tables = (params.head_table, params.relation, params.tail_table)
    value = 0.0
    for col in cols:
        v, g = _norm_value_grad(tables[col][batch[:, col]], order, cx)
        value = value + v
        acc.add(keys[col], batch[:, col], g / B)
    return float(value.sum() / B)


def _norm_penalty(params: ModelParams, batch: np.ndarray, order: int):
    """Mean ``order``-norm penalty of head, relation, and tail parameters."""
    _require_batch(batch)
    acc = GradAccumulator()
    value = _norm_terms(params, batch, order, acc, (0, 1, 2))
    return value, acc.finalize(params.grad_shapes())


def penalty_fro(params: ModelParams, batch: np.ndarray):
    """Mean squared norm of head, relation, and tail parameters."""
    return _norm_penalty(params, batch, 2)


def penalty_n3(params: ModelParams, batch: np.ndarray):
    """Mean cubed 3-norm of head, relation, and tail vectors.

    Only defined for diagonal bilinear kinds; complex coordinates
    contribute the cube of their modulus.
    """
    if params.kind not in N3_KINDS:
        raise ConfigError(f"n3 penalty does not support {params.kind.value}")
    return _norm_penalty(params, batch, 3)


def penalty_dura(params: ModelParams, batch: np.ndarray):
    """Duality-induced penalty: transformed-head, tail, adjoint-transformed
    tail, and head squared norms, averaged over the batch."""
    op = OPERATORS[params.kind]
    if op.distance:
        raise ConfigError(f"dura penalty does not support {params.kind.value}")
    _require_batch(batch)
    B = len(batch)
    heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    H = params.head_table[heads]
    R = params.relation[rels]
    T = params.tail_table[tails]
    Th = op.apply(H, R)
    Ta = op.adjoint(T, R)
    value = np.sum(Th * Th) + np.sum(T * T) + np.sum(Ta * Ta) + np.sum(H * H)
    GH, GRh = op.vjp(H, R, 2.0 * Th)
    GT, GRt = op.adjoint_vjp(T, R, 2.0 * Ta)
    acc = GradAccumulator()
    acc.add(params.head_key, heads, (GH + 2.0 * H) / B)
    acc.add(params.tail_key, tails, (GT + 2.0 * T) / B)
    acc.add("rel", rels, (GRh + GRt) / B)
    return float(value / B), acc.finalize(params.grad_shapes())


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
    h = heads[order]
    by_run = np.lexsort((h, g))
    rg, rh = g[by_run], h[by_run]
    new_run = np.ones(N, dtype=bool)
    new_run[1:] = (rg[1:] != rg[:-1]) | (rh[1:] != rh[:-1])
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, N))
    run = np.empty(N, dtype=np.int64)
    run[by_run] = np.cumsum(new_run) - 1
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


def pair_label(
    params: ModelParams,
    h_a: int,
    h_b: int,
    r: int,
    mode: str,
    categories: CategoryMap | None = None,
    eps: EpsilonState | None = None,
    tau: float = 1.0,
    strict: bool = False,
) -> float:
    """Soft similarity label for one same-relation head pair.

    Category modes return 1.0 for equal labels and 0.0 otherwise; with an
    unlabeled entity they fall back to the joint labeling (warned) unless
    ``strict``.  Joint mode returns
    ``sigmoid((eps_r - ||x_a - x_b||) / tau)`` and requires an initialized
    threshold.
    """
    if mode not in ER_MODES:
        raise ConfigError(f"unknown er_mode {mode!r}")
    if mode != "joint":
        ca = categories.get(h_a) if categories is not None else None
        cb = categories.get(h_b) if categories is not None else None
        if ca is not None and cb is not None:
            return 1.0 if ca == cb else 0.0
        if strict:
            raise ConfigError(
                f"entities {h_a}/{h_b} lack category labels in {mode} mode"
            )
        logger.warning("unlabeled pair (%d, %d): falling back to joint label", h_a, h_b)
    if eps is None or not eps.initialized[r]:
        raise ConfigError(f"epsilon for relation {r} is not initialized")
    dist = float(np.linalg.norm(params.head_table[h_a] - params.head_table[h_b]))
    return float(_sigmoid((eps.epsilon[r] - dist) / tau))


def _init_epsilon(eps: EpsilonState, rels: np.ndarray, dists: np.ndarray) -> None:
    """Batch-median initialization for relations first seen in a pair set."""
    for r in np.unique(rels):
        if not eps.initialized[r]:
            eps.epsilon[r] = float(np.median(dists[rels == r]))
            eps.initialized[r] = True


@dataclass
class _LabeledPairs:
    """Kept pairs with labels plus the bookkeeping for label gradients."""

    ha: np.ndarray
    hb: np.ndarray
    rel: np.ndarray
    label: np.ndarray
    joint_mask: np.ndarray
    dists: np.ndarray
    diffs: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rel)


def _label_pair_entities(
    params: ModelParams,
    ha: np.ndarray,
    hb: np.ndarray,
    rel: np.ndarray,
    spec: RegularizerSpec,
    categories: CategoryMap | None,
    eps: EpsilonState | None,
) -> tuple[_LabeledPairs, np.ndarray]:
    mode = spec.er_mode
    n = len(rel)
    if mode == "joint":
        keep = np.ones(n, dtype=bool)
        hard = np.full(n, -1.0)
        joint = np.ones(n, dtype=bool)
    else:
        if categories is not None:
            la = categories.labels_for(ha)
            lb = categories.labels_for(hb)
        else:
            la = np.full(n, -1, dtype=np.int64)
            lb = la
        both = (la >= 0) & (lb >= 0)
        same = both & (la == lb)
        joint = ~both
        if joint.any():
            if spec.strict_labels:
                raise ConfigError("pair with unlabeled entity in category mode")
            logger.warning(
                "%d pairs lack category labels; using joint labels", int(joint.sum())
            )
        if mode == "proximity":
            keep = same | joint
        else:
            keep = (both & ~same) | joint
        hard = np.where(same, 1.0, 0.0)

    ha, hb, rel = ha[keep], hb[keep], rel[keep]
    hard, joint = hard[keep], joint[keep]
    label = hard.copy()
    dists = np.zeros(len(rel))
    diffs = np.zeros((len(rel), params.dim))
    if joint.any():
        if eps is None:
            raise ConfigError("joint labeling requires an EpsilonState")
        d = params.head_table[ha[joint]] - params.head_table[hb[joint]]
        dd = np.sqrt(np.sum(d * d, axis=1))
        _init_epsilon(eps, rel[joint], dd)
        label[joint] = _sigmoid((eps.epsilon[rel[joint]] - dd) / spec.tau)
        dists[joint] = dd
        diffs[joint] = d
    return _LabeledPairs(ha, hb, rel, label, joint, dists, diffs), keep


def _add_label_grads(
    acc: GradAccumulator, params: ModelParams, lp: _LabeledPairs, dfda: np.ndarray, tau: float
) -> None:
    """Chain per-pair d(value)/d(label) through the soft labels.

    Soft labels ``sigmoid((eps_r - ||x_a - x_b||) / tau)`` pass it on to
    the thresholds (``"eps"``) and to the raw head embeddings.
    """
    jm = lp.joint_mask
    if not jm.any():
        return
    a = lp.label[jm]
    g = dfda[jm] * (a * (1.0 - a) / tau)
    acc.add("eps", lp.rel[jm], g)
    unit = lp.diffs[jm] / np.maximum(lp.dists[jm], _EPS_DIST)[:, None]
    gx = -g[:, None] * unit
    acc.add(params.head_key, lp.ha[jm], gx)
    acc.add(params.head_key, lp.hb[jm], -gx)


# ---------------------------------------------------------------------------
# Equivariance penalty.


def penalty_er(
    params: ModelParams,
    batch: np.ndarray,
    pairs: PairSet,
    spec: RegularizerSpec,
    categories: CategoryMap | None = None,
    eps: EpsilonState | None = None,
):
    """Entity norm terms plus labeled pair terms, with gradients.

    Gradients cover embeddings, relation parameters, and (through the soft
    labels) the per-relation thresholds under the ``"eps"`` key.  May
    initialize thresholds as a side effect (batch-median policy).
    """
    if spec.kind != "er":
        raise ConfigError("spec.kind must be 'er'")
    _require_batch(batch)
    op = OPERATORS[params.kind]
    order = spec.norm_order
    acc = GradAccumulator()
    value = _norm_terms(params, batch, order, acc, (0, 2))

    if pairs.n > 0:
        lp, _ = _label_pair_entities(
            params,
            batch[pairs.idx_a, 0],
            batch[pairs.idx_b, 0],
            pairs.rel,
            spec,
            categories,
            eps,
        )
        if lp.n > 0:
            P = lp.n
            wd = spec.dissim_weight
            Ha = params.head_table[lp.ha]
            Hb = params.head_table[lp.hb]
            R = params.relation[lp.rel]
            Ta = op.apply(Ha, R)
            Tb = op.apply(Hb, R)
            vd, gd = _norm_value_grad(Ta - Tb, order, op.complex_coords)
            vs, gs = _norm_value_grad(Ta + Tb, order, op.complex_coords)
            a = lp.label
            value += float(np.sum(a * vd + (1.0 - a) * wd * vs) / P)

            ga = (a[:, None] * gd + ((1.0 - a) * wd)[:, None] * gs) / P
            gb = (-a[:, None] * gd + ((1.0 - a) * wd)[:, None] * gs) / P
            GHa, GRa = op.vjp(Ha, R, ga)
            GHb, GRb = op.vjp(Hb, R, gb)
            acc.add(params.head_key, lp.ha, GHa)
            acc.add(params.head_key, lp.hb, GHb)
            acc.add("rel", lp.rel, GRa)
            acc.add("rel", lp.rel, GRb)
            _add_label_grads(acc, params, lp, (vd - wd * vs) / P, spec.tau)
    return value, acc.finalize(params.grad_shapes())


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
    src, r2 = store.adjacency.edges_from(batch[:, 2])
    heads = batch[src, 0].astype(np.int64)
    r1 = batch[src, 1].astype(np.int64)
    span = int(r2.max()) + 1 if len(r2) else 1
    ia, ib = _budget_pairs(r1 * span + r2, heads, budget, seed)
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
    categories: CategoryMap | None = None,
    eps: EpsilonState | None = None,
):
    """Mean labeled difference of doubly-transformed path heads.

    Labels follow the first-order policy applied to the path heads, with
    the first relation's threshold in joint mode.  Added by the trainer to
    the first-order total.
    """
    if path_pairs.n == 0:
        return 0.0, {}
    op = OPERATORS[params.kind]
    lp, keep = _label_pair_entities(
        params, path_pairs.head_a, path_pairs.head_b, path_pairs.rel1, spec,
        categories, eps,
    )
    if lp.n == 0:
        return 0.0, {}
    rel2 = path_pairs.rel2[keep]
    acc = GradAccumulator()
    P = lp.n

    Ha = params.head_table[lp.ha]
    Hb = params.head_table[lp.hb]
    R1 = params.relation[lp.rel]
    R2 = params.relation[rel2]
    Ua = op.apply(Ha, R1)
    Ub = op.apply(Hb, R1)
    vd, gd = _norm_value_grad(op.apply(Ua, R2) - op.apply(Ub, R2), spec.norm_order, op.complex_coords)
    a = lp.label
    value = float(np.sum(a * vd) / P)

    ga = a[:, None] * gd / P
    GUa, GR2a = op.vjp(Ua, R2, ga)
    GUb, GR2b = op.vjp(Ub, R2, -ga)
    GHa, GR1a = op.vjp(Ha, R1, GUa)
    GHb, GR1b = op.vjp(Hb, R1, GUb)
    acc.add(params.head_key, lp.ha, GHa)
    acc.add(params.head_key, lp.hb, GHb)
    acc.add("rel", lp.rel, GR1a)
    acc.add("rel", lp.rel, GR1b)
    acc.add("rel", rel2, GR2a)
    acc.add("rel", rel2, GR2b)
    _add_label_grads(acc, params, lp, vd / P, spec.tau)
    return value, acc.finalize(params.grad_shapes())
