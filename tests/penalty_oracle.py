"""Reference penalties that each merge their own gradient set.

Every penalty here builds a private ``GradAccumulator``, merges it and
returns ``(value, GradSet)``; the first- and second-order ER pair terms
are written out separately.  ``erkg.regularizers`` instead adds
``scale`` times the same rows to the caller's accumulator and shares one
pair-term body, and must agree with these up to rounding.  The sampling
and labeling helpers are shared.
"""

import numpy as np

from erkg.errors import ConfigError
from erkg.grads import GradAccumulator
from erkg.models import N3_KINDS, OPERATORS
from erkg.regularizers import _add_label_grads, _label_pair_entities, _norm_value_grad


def _norm_terms(params, batch, order, acc, cols):
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


def _norm_penalty(params, batch, order):
    if len(batch) == 0:
        raise ConfigError("penalty needs a nonempty batch")
    acc = GradAccumulator()
    value = _norm_terms(params, batch, order, acc, (0, 1, 2))
    return value, acc.finalize(params.grad_shapes())


def penalty_fro(params, batch):
    return _norm_penalty(params, batch, 2)


def penalty_n3(params, batch):
    if params.kind not in N3_KINDS:
        raise ConfigError(f"n3 penalty does not support {params.kind.value}")
    return _norm_penalty(params, batch, 3)


def penalty_dura(params, batch):
    op = OPERATORS[params.kind]
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
    return float(value / B), acc.finalize(params.grad_shapes())


def penalty_er(params, batch, pairs, spec, categories=None, eps=None):
    if spec.kind != "er":
        raise ConfigError("spec.kind must be 'er'")
    if len(batch) == 0:
        raise ConfigError("penalty needs a nonempty batch")
    op = OPERATORS[params.kind]
    order = spec.norm_order
    acc = GradAccumulator()
    value = _norm_terms(params, batch, order, acc, (0, 2))

    if pairs.n > 0:
        lp, _ = _label_pair_entities(
            params, batch[pairs.idx_a, 0], batch[pairs.idx_b, 0], pairs.rel, spec,
            categories, eps,
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


def penalty_er_second_order(params, path_pairs, spec, categories=None, eps=None):
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
    return value, acc.finalize(params.grad_shapes())
