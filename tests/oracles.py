"""Scalar reference helpers that only the tests use: the batched paths of
``erkg`` are checked against them.

``ROW_OPERATORS`` is the gathered-row form of ``models.OPERATORS``: each
operator takes ``R = table[rels]``, one relation row per input row, and
its ``vjp`` returns one relation-gradient row per input row, RESCAL's
through ``einsum``.  ``tests/penalty_oracle.py`` is written on it."""

import logging
import math
from dataclasses import dataclass

import numpy as np

from erkg import lanes, models, ranking, training
from erkg.data import pair_key
from erkg.errors import ConfigError, NumericError
from erkg.grads import GradAccumulator
from erkg.models import OPERATORS, ModelKind, ModelParams, check_triples, cview
from erkg.regularizers import ER_MODES, _sigmoid

logger = logging.getLogger(__name__)

DIAGONAL_KINDS = frozenset({ModelKind.CP, ModelKind.DISTMULT})


@dataclass
class FieldParams:
    """Model parameters as seven separate fields: the sizes given beside
    the tables, cp's tail table in its own field, and the block names
    spelled out per kind."""

    kind: ModelKind
    n_entities: int
    n_relations: int
    dim: int
    entity: np.ndarray
    relation: np.ndarray
    entity_tail: np.ndarray | None = None

    def blocks(self) -> dict[str, np.ndarray]:
        if self.kind == ModelKind.CP:
            return {"ent_h": self.entity, "ent_t": self.entity_tail, "rel": self.relation}
        return {"ent": self.entity, "rel": self.relation}


def init_field_params(kind, n_entities: int, n_relations: int, dim: int, seed: int):
    """Seeded initialization written table by table: the entity table,
    cp's tail table, then the relation block, uniform on
    [-1/sqrt(d), +1/sqrt(d)] except rotation phases, drawn uniform on
    [0, 2pi) and stored as interleaved (cos, sin)."""
    kind = ModelKind(kind)
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)

    def table(*shape):
        return rng.uniform(-bound, bound, size=shape)

    entity = table(n_entities, dim)
    entity_tail = table(n_entities, dim) if kind == ModelKind.CP else None
    if kind == ModelKind.RESCAL:
        relation = table(n_relations, dim, dim)
    elif kind == ModelKind.ROTATE:
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_relations, dim // 2))
        relation = np.empty((n_relations, dim))
        relation[:, 0::2] = np.cos(phases)
        relation[:, 1::2] = np.sin(phases)
    else:
        relation = table(n_relations, dim)
    return FieldParams(
        kind=kind,
        n_entities=n_entities,
        n_relations=n_relations,
        dim=dim,
        entity=entity,
        relation=relation,
        entity_tail=entity_tail,
    )


def score(params: ModelParams, h: int, r: int, t: int) -> float:
    """Scalar score of one triple."""
    if not (0 <= h < params.n_entities and 0 <= t < params.n_entities):
        raise IndexError(f"entity id out of range: h={h}, t={t}")
    if not 0 <= r < params.n_relations:
        raise IndexError(f"relation id out of range: r={r}")
    kind = params.kind
    hv = params.head_table[h]
    tv = params.tail_table[t]
    if kind in DIAGONAL_KINDS:
        return float(np.dot(hv * params.relation[r], tv))
    if kind == ModelKind.COMPLEX:
        hc, rc, tc = cview(hv), cview(params.relation[r]), cview(tv)
        return float(np.sum(np.conj(hc) * rc * tc).real)
    if kind == ModelKind.RESCAL:
        return float(hv @ params.relation[r] @ tv)
    if kind == ModelKind.TRANSE:
        return float(-np.linalg.norm(hv + params.relation[r] - tv))
    if kind == ModelKind.ROTATE:
        hc, rc, tc = cview(hv), cview(params.relation[r]), cview(tv)
        return float(-np.linalg.norm(hc * rc - tc))
    raise ConfigError(f"unknown kind {kind}")


def relational_transform(params: ModelParams, x: np.ndarray, r: int) -> np.ndarray:
    """Apply relation ``r`` to an embedding vector (real storage in/out)."""
    if x.shape != (params.dim,):
        raise ValueError(f"expected shape ({params.dim},), got {x.shape}")
    kind = params.kind
    if kind in DIAGONAL_KINDS:
        return x * params.relation[r]
    if kind in (ModelKind.COMPLEX, ModelKind.ROTATE):
        out = cview(np.ascontiguousarray(x)) * cview(params.relation[r])
        return out.view(np.float64)
    if kind == ModelKind.RESCAL:
        return x @ params.relation[r]
    if kind == ModelKind.TRANSE:
        return x + params.relation[r]
    raise ConfigError(f"unknown kind {kind}")


def _c(a: np.ndarray) -> np.ndarray:
    return cview(np.ascontiguousarray(a))


class _RowOperator:
    distance = False
    scores_adjoint = False
    complex_coords = False
    translation = False


class _RowDiagonal(_RowOperator):
    def apply(self, X, R):
        return X * R

    def vjp(self, X, R, G):
        return G * R, G * X

    adjoint = apply
    adjoint_vjp = vjp


class _RowComplexDiagonal(_RowOperator):
    scores_adjoint = True
    complex_coords = True

    def apply(self, X, R):
        return (_c(X) * _c(R)).view(np.float64)

    def vjp(self, X, R, G):
        Gc = _c(G)
        return (np.conj(_c(R)) * Gc).view(np.float64), (np.conj(_c(X)) * Gc).view(np.float64)

    def adjoint(self, X, R):
        return (_c(X) * np.conj(_c(R))).view(np.float64)

    def adjoint_vjp(self, X, R, G):
        Gc = _c(G)
        return (_c(R) * Gc).view(np.float64), (_c(X) * np.conj(Gc)).view(np.float64)


class _RowRotation(_RowComplexDiagonal):
    distance = True
    scores_adjoint = False


class _RowMatrix(_RowOperator):
    def apply(self, X, R):
        return np.einsum("bd,bde->be", X, R)

    def vjp(self, X, R, G):
        return np.einsum("be,bde->bd", G, R), np.einsum("bd,be->bde", X, G)

    def adjoint(self, X, R):
        return np.einsum("be,bde->bd", X, R)

    def adjoint_vjp(self, X, R, G):
        return np.einsum("bd,bde->be", G, R), np.einsum("bd,be->bde", G, X)


class _RowTranslation(_RowOperator):
    distance = True
    translation = True

    def apply(self, X, R):
        return X + R

    def vjp(self, X, R, G):
        return G, G


ROW_OPERATORS = {
    ModelKind.CP: _RowDiagonal(),
    ModelKind.DISTMULT: _RowDiagonal(),
    ModelKind.COMPLEX: _RowComplexDiagonal(),
    ModelKind.RESCAL: _RowMatrix(),
    ModelKind.TRANSE: _RowTranslation(),
    ModelKind.ROTATE: _RowRotation(),
}


def relation_groups(rels):
    """Rows grouped by relation: the stable sort order of ``rels``, then
    the distinct relations in ascending order with the ``[start, stop)``
    of each one's rows in that order."""
    order = np.argsort(rels, kind="stable")
    r = rels[order]
    starts = np.flatnonzero(np.diff(r, prepend=-1))
    return order, r[starts], starts, np.append(starts[1:], len(r))


def cross_entropy_loss(scores: np.ndarray, target: int):
    """Stable cross entropy of one score vector against a target entity.

    Uses a max-shifted log-sum-exp with the maximum's unit term split out,
    so fully saturated losses underflow gracefully instead of rounding to
    zero.  Returns ``(loss, softmax(scores) - one_hot(target))``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0 <= target < len(scores):
        raise IndexError(f"target {target} out of range")
    m_idx = int(np.argmax(scores))
    ex = np.exp(scores - scores[m_idx])
    rest = ex.copy()
    rest[m_idx] = 0.0
    rest_sum = rest.sum()
    if target == m_idx:
        loss = float(np.log1p(rest_sum))
    else:
        loss = float(scores[m_idx] - scores[target] + np.log1p(rest_sum))
    grad = ex / (1.0 + rest_sum)
    grad[target] -= 1.0
    return loss, grad


def adagrad_update(param, grad, acc, lr, eps):
    """One Adagrad step: returns updated copies of (param, accumulator)."""
    if param.shape != grad.shape or param.shape != acc.shape:
        raise ValueError("shape mismatch in adagrad_update")
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient in adagrad_update")
    acc2 = acc + grad * grad
    return param - lr * grad / (np.sqrt(acc2) + eps), acc2


def pair_label(params, h_a, h_b, r, mode, categories=None, eps=None, tau=1.0, strict=False):
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
        ca = categories.category_of.get(int(h_a)) if categories is not None else None
        cb = categories.category_of.get(int(h_b)) if categories is not None else None
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


def forward_all_tails(params: ModelParams, heads: np.ndarray, rels: np.ndarray):
    """``models.forward_all_tails`` with fresh arrays at every step: the
    distance kinds form ``d2``, its clamp, ``D`` and ``-D`` apart."""
    op = OPERATORS[params.kind]
    H = params.head_table[heads]
    T = params.tail_table
    Q = (op.adjoint if op.scores_adjoint else op.apply)(H, rels, params.relation)
    S = Q @ T.T
    D = None
    if op.distance:
        d2 = np.sum(Q * Q, axis=1)[:, None] + np.sum(T * T, axis=1)[None, :] - 2.0 * S
        D = np.sqrt(np.maximum(d2, 0.0))
        S = -D
    return S, {"heads": heads, "rels": rels, "H": H, "Q": Q, "D": D}


def backward_all_tails(params: ModelParams, ctx, G: np.ndarray, acc) -> None:
    """``models.backward_all_tails`` leaving ``G`` and ``ctx["D"]`` as
    they were: ``C = G / max(D, 1e-30)`` is a fresh array."""
    op = OPERATORS[params.kind]
    H, Q, D = ctx["H"], ctx["Q"], ctx["D"]
    T = params.tail_table
    if D is None:
        GT = G.T @ Q
        GQ = G @ T
    else:
        C = G / np.maximum(D, 1e-30)
        GQ = C @ T - C.sum(axis=1)[:, None] * Q
        GT = C.T @ Q - C.sum(axis=0)[:, None] * T
    vjp = op.adjoint_vjp if op.scores_adjoint else op.vjp
    GH, rel_ids, GR = vjp(H, ctx["rels"], params.relation, GQ)
    acc.add(params.tail_key, None, GT)
    acc.add(params.head_key, ctx["heads"], GH)
    acc.add("rel", rel_ids, GR)


def batch_ce(params: ModelParams, batch: np.ndarray, out=None, n=None):
    """``training._batch_ce`` on the allocating kernels above, with
    ``S - m``, its ``exp`` and ``G`` as three fresh B x |E| arrays:
    ``(loss, acc)``, the loss summed over ``batch`` and divided by ``n``
    (default ``len(batch)``).  ``out`` is taken and left unused, so the
    oracle can stand in for ``_batch_ce`` under
    ``training.batch_objective``."""
    n = len(batch) if n is None else n
    heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    S, ctx = forward_all_tails(params, heads, rels)
    m = S.max(axis=1, keepdims=True)
    ex = np.exp(S - m)
    z = ex.sum(axis=1)
    b_idx = np.arange(len(batch))
    loss = float(np.sum(m[:, 0] + np.log(z) - S[b_idx, tails]) / n)
    G = ex / z[:, None]
    G[b_idx, tails] -= 1.0
    G /= n
    acc = GradAccumulator()
    backward_all_tails(params, ctx, G, acc)
    return loss, acc


def batch_objective(params, batch, spec, categories=None, eps=None, store=None,
                    pair_seed=0, path_seed=1):
    """``training.batch_objective`` on one thread: the loss over the first
    ``ceil(3B/5)`` rows (at most ``B - 1``), then over the rest, each
    divided by the batch size ``B``, then the penalty if there is one, all
    adding their parts to one accumulator in that order, merged once.
    OpenBLAS is held to one thread meanwhile, as the program's lanes hold
    it: some GEMMs round differently on more threads."""
    batch = check_triples(params, batch, "batch")
    n = len(batch)
    cut = min(math.ceil(3 * n / 5), n - 1)
    loss, acc, reg_value = 0.0, GradAccumulator(), 0.0
    with lanes.pinned("numpy"):
        for rows in (batch[:cut], batch[cut:]):
            if len(rows):
                part_loss, part_acc = training._batch_ce(params, rows, n=n)
                loss += part_loss
                acc.extend(part_acc)
        if spec.kind != "none" and spec.lam > 0.0:
            reg_value = training._penalty(
                params, batch, spec, categories, eps, store, pair_seed, path_seed, acc
            )
    return loss + spec.lam * reg_value, loss, reg_value, acc.finalize()


def batch_objective_whole(params, batch, spec, categories=None, eps=None, store=None,
                          pair_seed=0, path_seed=1):
    """The batch objective with the loss over the whole batch at once,
    then the penalty adding its parts to the loss's accumulator, merged
    once: ``training.batch_objective`` before it cut the loss into two
    row parts (without a penalty, before it ran the loss on two lanes).
    The two agree up to the rounding of the sums."""
    batch = check_triples(params, batch, "batch")
    loss, acc = training._batch_ce(params, batch)
    reg_value = 0.0
    if spec.kind != "none" and spec.lam > 0.0:
        reg_value = training._penalty(
            params, batch, spec, categories, eps, store, pair_seed, path_seed, acc
        )
    return loss + spec.lam * reg_value, loss, reg_value, acc.finalize()


def evaluate(params, test, filter_index, ks=(1, 10), tie="mean", keep_ranks=False, chunk=256):
    """``ranking.evaluate`` one chunk after another on the calling thread,
    each chunk's scores in a fresh array from ``models.forward_all_tails``
    and its ranks counted along ``axis=1`` of whole-chunk compares.
    OpenBLAS is held to one thread, as the program's lanes hold it."""
    test = check_triples(params, test, "evaluation set")
    weight = {"mean": 0.5, "optimistic": 0.0, "pessimistic": 1.0}[tie]
    ranks = np.empty(len(test))
    with lanes.pinned("numpy"):
        for start in range(0, len(test), chunk):
            part = test[start : start + chunk]
            rows, targets = np.arange(len(part)), part[:, 2]
            S, _ = models.forward_all_tails(params, part[:, 0], part[:, 1])
            st = S[rows, targets]
            src, tails = filter_index.lookup(pair_key(part[:, 0], part[:, 1]))
            S[src, tails] = -np.inf
            S[rows, targets] = st
            above = np.count_nonzero(S > st[:, None], axis=1)
            ties = np.count_nonzero(S == st[:, None], axis=1) - 1
            ranks[start : start + len(part)] = 1.0 + above + weight * ties
    return ranking.RankingReport(
        mrr=float(np.mean(1.0 / ranks)),
        hits={k: float(np.mean(ranks <= k)) for k in ks},
        n_queries=len(test),
        per_query_ranks=ranks if keep_ranks else None,
    )
