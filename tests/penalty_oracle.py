"""Reference penalties that each merge their own gradient set.

Every penalty here builds a private ``GradAccumulator``, merges it and
returns ``(value, GradSet)``; the first- and second-order ER pair terms
are written out separately, pair by pair, with both heads transformed.
``erkg.regularizers`` instead adds ``scale`` times the gradient to the
caller's accumulator, shares one pair-term body, and works on distinct
pair keys, distinct head pairs and head differences; the two must agree
up to rounding.  The pair labels and their batch-median thresholds are
computed here over the listed pairs, as before that rewrite.  The
relation operators are the gathered-row ones of ``oracles.ROW_OPERATORS``,
so no operator code under test runs here.

``penalty_er_per_key`` and ``penalty_er_second_order_per_key`` keep the
shared body as it was before it worked per head pair: distinct
``(h_a, h_b, *chain)`` keys, each weighted by its count, with the
relation operator applied and back-propagated key by key and hop by hop,
and every head and relation row handed to the accumulator unsummed.
"""

import logging
from dataclasses import dataclass

import numpy as np

from erkg.errors import ConfigError
from erkg.grads import GradAccumulator
from erkg.models import norm_value_grad as _norm_value_grad
from erkg.regularizers import _EPS_DIST, N3_KINDS, _sigmoid
from oracles import ROW_OPERATORS

logger = logging.getLogger(__name__)


def distinct(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Index of one occurrence of each distinct tuple of ``keys`` (equal
    length integer arrays, last key primary), and how often the tuple
    occurs."""
    order = np.lexsort(keys)
    n = len(order)
    start = np.zeros(n, dtype=bool)
    start[:1] = True
    for key in keys:
        k = key[order]
        start[1:] |= k[1:] != k[:-1]
    first = np.flatnonzero(start)
    return order[first], np.diff(np.append(first, n))


def _init_epsilon(eps, rels, dists):
    """Batch-median initialization for relations first seen in a pair set."""
    for r in np.unique(rels):
        if not eps.initialized[r]:
            eps.epsilon[r] = float(np.median(dists[rels == r]))


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
    def n(self):
        return len(self.rel)


def _label_pair_entities(params, ha, hb, rel, spec, categories, eps):
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


def _add_label_grads(acc, params, lp, dfda, tau):
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


def _norm_terms(params, batch, order, acc, cols):
    B = len(batch)
    cx = ROW_OPERATORS[params.kind].complex_coords
    keys = (params.head_key, "rel", params.tail_key)
    tables = (params.head_table, params.relation, params.tail_table)
    value = 0.0
    for col in cols:
        v, g = _norm_value_grad(tables[col][batch[:, col]], order, cx)
        value = value + v
        acc.add(keys[col], batch[:, col], g / B)
    return float(value.sum() / B)


def _norm_penalty(params, batch, order):
    if len(batch) == 0:
        raise ConfigError("penalty needs a nonempty batch")
    acc = GradAccumulator()
    value = _norm_terms(params, batch, order, acc, (0, 1, 2))
    return value, acc.finalize()


def penalty_fro(params, batch):
    return _norm_penalty(params, batch, 2)


def penalty_n3(params, batch):
    if params.kind not in N3_KINDS:
        raise ConfigError(f"n3 penalty does not support {params.kind.value}")
    return _norm_penalty(params, batch, 3)


def penalty_dura(params, batch):
    op = ROW_OPERATORS[params.kind]
    if op.distance:
        raise ConfigError(f"dura penalty does not support {params.kind.value}")
    if len(batch) == 0:
        raise ConfigError("penalty needs a nonempty batch")
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
    return float(value / B), acc.finalize()


def penalty_er(params, batch, pairs, spec, categories=None, eps=None):
    if spec.kind != "er":
        raise ConfigError("spec.kind must be 'er'")
    if len(batch) == 0:
        raise ConfigError("penalty needs a nonempty batch")
    op = ROW_OPERATORS[params.kind]
    order = spec.norm_order
    acc = GradAccumulator()
    value = _norm_terms(params, batch, order, acc, (0, 2))

    if pairs.n > 0:
        lp, _ = _label_pair_entities(
            params, pairs.head_a, pairs.head_b, pairs.chain[0], spec, categories, eps,
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
    return value, acc.finalize()


def penalty_er_second_order(params, path_pairs, spec, categories=None, eps=None):
    if path_pairs.n == 0:
        return 0.0, {}
    op = ROW_OPERATORS[params.kind]
    lp, keep = _label_pair_entities(
        params, path_pairs.head_a, path_pairs.head_b, path_pairs.chain[0], spec,
        categories, eps,
    )
    if lp.n == 0:
        return 0.0, {}
    rel2 = path_pairs.chain[1][keep]
    acc = GradAccumulator()
    P = lp.n

    Ha = params.head_table[lp.ha]
    Hb = params.head_table[lp.hb]
    R1 = params.relation[lp.rel]
    R2 = params.relation[rel2]
    Ua = op.apply(Ha, R1)
    Ub = op.apply(Hb, R1)
    vd, gd = _norm_value_grad(
        op.apply(Ua, R2) - op.apply(Ub, R2), spec.norm_order, op.complex_coords
    )
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
    return value, acc.finalize()


# ---------------------------------------------------------------------------
# The shared pair-term body, key by key.


def _init_epsilon_weighted(eps, rels, dists, counts):
    """Batch-median initialization over ``counts[i]`` pairs at ``dists[i]``."""
    for r in np.unique(rels[~eps.initialized[rels]]):
        m = rels == r
        eps.epsilon[r] = float(np.median(np.repeat(dists[m], counts[m])))


def _key_labels(ha, hb, counts, spec, categories):
    """The keys a mode keeps, their hard labels, and which of them take a
    soft (joint) label instead; ``counts`` pairs share each key."""
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


def pair_terms_per_key(params, pairs, spec, wd, acc, scale, categories, eps):
    """Mean labeled pair term over the distinct keys of ``pairs``; adds
    ``scale`` times its gradient rows to ``acc``."""
    ha, hb, chain = pairs.head_a, pairs.head_b, pairs.chain
    first, counts = distinct([hb, ha, *chain])
    keep, label, soft = _key_labels(ha[first], hb[first], counts, spec, categories)
    first, counts, label, soft = first[keep], counts[keep], label[keep], soft[keep]
    ha, hb, chain = ha[first], hb[first], [rel[first] for rel in chain]
    n_pairs = int(counts.sum())
    if n_pairs == 0:
        return 0.0
    op = ROW_OPERATORS[params.kind]
    Ha, Hb = params.head_table[ha], params.head_table[hb]
    diff = Ha - Hb
    total = Ha + Hb
    if soft.any():
        if eps is None:
            raise ConfigError("joint labeling requires an EpsilonState")
        soft_rel, d = chain[0][soft], diff[soft]
        dist = np.sqrt(np.sum(d * d, axis=1))
        _init_epsilon_weighted(eps, soft_rel, dist, counts[soft])
        label[soft] = _sigmoid((eps.epsilon[soft_rel] - dist) / spec.tau)
    w = counts * (scale / n_pairs)
    value = 0.0
    dvalue_dlabel = np.zeros(len(label))
    g_a, g_b = np.zeros_like(diff), np.zeros_like(diff)
    for sign, coef, slope in ((-1.0, label, 1.0), (1.0, (1.0 - label) * wd, -wd)):
        if not coef.any():
            continue
        # T h_a + sign T h_b is T (h_a + sign h_b), with r scaled by c.
        c = 1.0 + sign if op.translation else 1.0
        hops = chain if c else []
        table = c * params.relation
        X = [diff if sign < 0 else total]
        for rel in hops:
            X.append(op.apply(X[-1], table[rel]))
        v, G = _norm_value_grad(X.pop(), spec.norm_order, op.complex_coords)
        value += float(np.sum(counts * coef * v))
        dvalue_dlabel += slope * v
        G *= (w * coef)[:, None]
        for rel in reversed(hops):
            G, GR = op.vjp(X.pop(), table[rel], G)
            acc.add("rel", rel, c * GR)
        g_a += G
        g_b += sign * G
    if soft.any():
        a = label[soft]
        g = (dvalue_dlabel * w)[soft] * (a * (1.0 - a) / spec.tau)
        acc.add("eps", soft_rel, g)
        g_diff = (-g / np.maximum(dist, _EPS_DIST))[:, None] * d
        g_a[soft] += g_diff
        g_b[soft] -= g_diff
    acc.add(params.head_key, ha, g_a)
    acc.add(params.head_key, hb, g_b)
    return value / n_pairs


def penalty_er_per_key(params, batch, pairs, spec, categories=None, eps=None):
    acc = GradAccumulator()
    value = _norm_terms(params, batch, spec.norm_order, acc, (0, 2))
    value += pair_terms_per_key(params, pairs, spec, spec.dissim_weight, acc, 1.0,
                                categories, eps)
    return value, acc.finalize()


def penalty_er_second_order_per_key(params, path_pairs, spec, categories=None, eps=None):
    acc = GradAccumulator()
    value = pair_terms_per_key(params, path_pairs, spec, 0.0, acc, 1.0, categories, eps)
    return value, acc.finalize()
