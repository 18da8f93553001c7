"""Embedding tables, score functions, relation operators, and analytic
gradients for six link-prediction model families.

``block_shapes`` is the one declaration of each kind's parameter
layout (block names, order and shapes).  ``ModelParams`` holds exactly
those blocks and reads its sizes from the tables; ``init_params`` draws
them, and the checkpoint writes them, in that order.

The bilinear family (``cp``, ``distmult``, ``complex``, ``rescal``) scores
a triple as ``Re(conj(h) . R . t)``; the distance family (``transe``,
``rotate``) scores ``-||T_r(h) - t||_2``.  Complex-valued kinds store
``dim/2`` complex coordinates as interleaved (real, imag) float64 pairs,
so every parameter block is a plain real array.

``OPERATORS`` maps each kind to its relation operator ``T_r``, batched
over rows: ``X`` holds one embedding row per entry of the relation ids
``rels``, and ``table`` is the relation block (``params.relation``, or
a scaled copy of it), with real storage in and out:

* ``apply(X, rels, table)`` is ``T_r x``; ``vjp(X, rels, table, G) ->
  (GX, rel_ids, GR)`` maps a gradient on the output to gradients on
  ``X`` and on the rows ``rel_ids`` of ``table``, which the caller hands
  to ``acc.add("rel", rel_ids, GR)``.  The diagonal, complex, rotation
  and translation kinds gather ``table[rels]`` inside and return
  ``rels`` with one gradient row per input row.  RESCAL sorts the rows
  by relation once per call and runs one GEMM per relation present; its
  ``rel_ids`` are the distinct relations, ascending, each with one
  summed ``X_r^T G_r`` block;
* linear kinds add the adjoint under the real inner product of the
  storage, ``<T_r x, y> = <x, T_r* y>``, as ``adjoint`` and
  ``adjoint_vjp``; dura penalizes ``||T_r* t||``;
* ``distance`` selects the scoring: ``S = Q @ T.T`` for the bilinear
  family, the Gram expansion of ``-||Q - t||`` for transe and rotate.
  The query is ``Q = T_r h``, except that ``scores_adjoint`` kinds
  (``complex``) use ``Q = T_r* h = h conj(r)``, as
  ``Re(conj(h) r t) = <h conj(r), t>``;
* ``complex_coords`` marks storage read as complex coordinates, whose
  3-norm cubes their moduli;
* ``translation`` marks ``T_r x = x + r`` (transe): the difference of
  two transformed rows loses ``r`` and their sum gains ``2 r``.  Every
  other operator is linear, ``T_r x -+ T_r y = T_r (x -+ y)``, so ER
  evaluates each pair term once, on ``h_a -+ h_b``.

Complex operators compute on ``cview`` of the storage.  The real
gradient, viewed as ``G = df/d(re) + i * df/d(im)``, follows

    c = a * b        ->  G_a = conj(b) * G_c,   G_b = conj(a) * G_c
    c = conj(a)      ->  G_a = conj(G_c)
    f = Re(sum w*t)  ->  G_w = conj(t),         G_t = conj(w)

so ``x * r`` has ``vjp = (conj(r) G, conj(x) G)`` and ``x * conj(r)``
has ``vjp = (r G, x conj(G))``.

Scoring has one path, batched: ``forward_all_tails`` scores every entity
as tail of each query, and ``backward_all_tails`` adds the gradient
parts of its tables to the batch's ``GradAccumulator``, as every penalty
does, so a batch is merged once.  Both work in place on their B x |E|
arrays: ``backward_all_tails`` consumes its upstream gradient ``G``
(the distance kinds overwrite it with ``C = G / D`` and clamp
``ctx["D"]``), so a caller that needs ``G`` afterwards passes a copy.
The scalar oracles the tests compare it against, ``score`` and
``relational_transform``, live in ``tests/oracles.py`` and do not use
the operator table; so do the allocating ``forward_all_tails``,
``backward_all_tails`` and ``batch_ce`` that the in-place kernels must
match bit for bit.
"""

from __future__ import annotations

import logging
from enum import Enum

import numpy as np

from .data import KeyedCSR
from .errors import ConfigError

logger = logging.getLogger(__name__)


class ModelKind(str, Enum):
    CP = "cp"
    DISTMULT = "distmult"
    COMPLEX = "complex"
    RESCAL = "rescal"
    TRANSE = "transe"
    ROTATE = "rotate"


N3_KINDS = frozenset({ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX})


def cview(a: np.ndarray) -> np.ndarray:
    """View interleaved (re, im) float64 pairs as complex128."""
    return a.view(np.complex128)


def block_shapes(
    kind: ModelKind, n_entities: int, n_relations: int, dim: int
) -> dict[str, tuple[int, ...]]:
    """Parameter block shapes in declared (checkpoint) order."""
    ent = (n_entities, dim)
    shapes = {"ent_h": ent, "ent_t": ent} if kind == ModelKind.CP else {"ent": ent}
    shapes["rel"] = (n_relations, dim, dim) if kind == ModelKind.RESCAL else (n_relations, dim)
    return shapes


class ModelParams:
    """Parameter blocks for one model: exactly the blocks that
    :func:`block_shapes` declares for ``kind``, in its order, else
    ``ConfigError``.  The sizes are read from the tables.

    ``entity`` is the head-role table (the only one except for cp),
    ``relation`` the per-relation parameters: a diagonal vector
    (cp/distmult), an interleaved complex diagonal (complex/rotate), a full
    matrix (rescal), or a translation vector (transe).  Both are the
    blocks themselves, changed in place.
    """

    def __init__(self, kind: ModelKind, blocks: dict[str, np.ndarray]):
        self.kind = ModelKind(kind)
        self._blocks = dict(blocks)
        shapes = block_shapes(self.kind, self.n_entities, self.n_relations, self.dim)
        if [(name, arr.shape) for name, arr in self._blocks.items()] != list(shapes.items()):
            raise ConfigError(f"{self.kind.value} blocks do not match block_shapes {shapes}")

    def blocks(self) -> dict[str, np.ndarray]:
        """Parameter blocks in declared (checkpoint) order."""
        return dict(self._blocks)

    def grad_shapes(self) -> dict[str, tuple[int, ...]]:
        """Shapes of every gradient block: the parameter blocks plus ``"eps"``."""
        return {**{name: arr.shape for name, arr in self._blocks.items()},
                "eps": (self.n_relations,)}

    @property
    def head_key(self) -> str:
        return "ent_h" if self.kind == ModelKind.CP else "ent"

    @property
    def tail_key(self) -> str:
        return "ent_t" if self.kind == ModelKind.CP else "ent"

    @property
    def head_table(self) -> np.ndarray:
        return self._blocks[self.head_key]

    entity = head_table

    @property
    def tail_table(self) -> np.ndarray:
        return self._blocks[self.tail_key]

    @property
    def relation(self) -> np.ndarray:
        return self._blocks["rel"]

    @property
    def n_entities(self) -> int:
        return self.head_table.shape[0]

    @property
    def n_relations(self) -> int:
        return self.relation.shape[0]

    @property
    def dim(self) -> int:
        return self.head_table.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.kind, {name: arr.copy() for name, arr in self._blocks.items()})


def init_params(
    kind: ModelKind, n_entities: int, n_relations: int, dim: int, seed: int
) -> ModelParams:
    """Seeded i.i.d. uniform [-1/sqrt(d), +1/sqrt(d)] initialization of each
    block, drawn in declared order.

    Rotation phases are drawn uniform on [0, 2pi) and stored as unit
    complex numbers.  Complex kinds require an even ``dim``.
    """
    kind = ModelKind(kind)
    if OPERATORS[kind].complex_coords and dim % 2 != 0:
        raise ConfigError(f"{kind.value} requires an even dim, got {dim}")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    blocks = {}
    for name, shape in block_shapes(kind, n_entities, n_relations, dim).items():
        if name == "rel" and kind == ModelKind.ROTATE:
            phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_relations, dim // 2))
            blocks[name] = np.stack([np.cos(phases), np.sin(phases)], axis=-1).reshape(shape)
        else:
            blocks[name] = rng.uniform(-bound, bound, size=shape)
    return ModelParams(kind, blocks)


def check_triples(params: ModelParams, triples, what: str) -> np.ndarray:
    """``triples`` as an int64 (n, 3) array of (head, relation, tail) ids.

    ``ConfigError`` if it has another shape, is empty (``"empty
    {what}"``) or holds an id outside the model's tables.
    """
    triples = np.asarray(triples, dtype=np.int64)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ConfigError(f"{what} must be an (n, 3) array of ids, got shape {triples.shape}")
    if len(triples) == 0:
        raise ConfigError(f"empty {what}")
    bound = np.array([params.n_entities, params.n_relations, params.n_entities])
    bad = (triples < 0) | (triples >= bound)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ConfigError(
            f"query {i}: {('head', 'relation', 'tail')[j]} id {triples[i, j]} "
            f"outside [0, {bound[j]})"
        )
    return triples


def project_constraints(params: ModelParams) -> ModelParams:
    """Renormalize rotation relation coordinates to unit modulus (in place).

    Zero-modulus coordinates are reset to 1+0i with a warning.  No-op for
    every other kind.
    """
    if params.kind != ModelKind.ROTATE:
        return params
    rc = cview(params.relation)
    mod = np.abs(rc)
    zero = mod == 0.0
    if zero.any():
        logger.warning("reset %d zero-modulus rotation coordinates", int(zero.sum()))
        rc[zero] = 1.0 + 0.0j
        mod[zero] = 1.0
    rc /= mod
    return params


# ---------------------------------------------------------------------------
# Relation operators: one per model kind (see the module docstring).


def _c(a: np.ndarray) -> np.ndarray:
    return cview(np.ascontiguousarray(a))


class _Operator:
    """Defaults of the flags described in the module docstring."""

    distance = False
    scores_adjoint = False
    complex_coords = False
    translation = False


class _Diagonal(_Operator):
    """``x * r`` with a real diagonal (cp, distmult); self-adjoint."""

    def apply(self, X, rels, table):
        return X * table[rels]

    def vjp(self, X, rels, table, G):
        return G * table[rels], rels, G * X

    adjoint = apply
    adjoint_vjp = vjp


class _ComplexDiagonal(_Operator):
    """``x * r`` on complex coordinates (complex); adjoint ``x * conj(r)``."""

    scores_adjoint = True
    complex_coords = True

    def apply(self, X, rels, table):
        return (_c(X) * _c(table[rels])).view(np.float64)

    def vjp(self, X, rels, table, G):
        Gc = _c(G)
        GX = (np.conj(_c(table[rels])) * Gc).view(np.float64)
        return GX, rels, (np.conj(_c(X)) * Gc).view(np.float64)

    def adjoint(self, X, rels, table):
        return (_c(X) * np.conj(_c(table[rels]))).view(np.float64)

    def adjoint_vjp(self, X, rels, table, G):
        Gc = _c(G)
        GX = (_c(table[rels]) * Gc).view(np.float64)
        return GX, rels, (_c(X) * np.conj(Gc)).view(np.float64)


class _Rotation(_ComplexDiagonal):
    """Unit-modulus complex diagonal scored by distance (rotate)."""

    distance = True
    scores_adjoint = False


def _unsort(order, rows):
    out = np.empty_like(rows)
    out[order] = rows
    return out


class _Matrix(_Operator):
    """Row vector times a full d x d matrix, ``x @ R_r`` (rescal); the
    adjoint is ``x @ R_r.T``.

    Rows are grouped by relation and each group is one GEMM against its
    relation's matrix.  The relation gradient is one summed ``X_r^T G_r``
    block per distinct relation, in ascending relation order.
    """

    def apply(self, X, rels, table):
        ids, bounds, order = KeyedCSR.group(rels, np.arange(len(rels)))
        Xs = X[order]
        out = np.empty_like(Xs)
        for r, a, b in zip(ids, bounds[:-1], bounds[1:]):
            np.matmul(Xs[a:b], table[r], out=out[a:b])
        return _unsort(order, out)

    def vjp(self, X, rels, table, G):
        ids, bounds, order = KeyedCSR.group(rels, np.arange(len(rels)))
        Xs, Gs = X[order], G[order]
        GX = np.empty_like(Gs)
        GR = np.empty((len(ids),) + table.shape[1:])
        for k, (r, a, b) in enumerate(zip(ids, bounds[:-1], bounds[1:])):
            np.matmul(Gs[a:b], table[r].T, out=GX[a:b])
            np.matmul(Xs[a:b].T, Gs[a:b], out=GR[k])
        return _unsort(order, GX), ids, GR

    def adjoint(self, X, rels, table):
        return self.apply(X, rels, table.transpose(0, 2, 1))

    def adjoint_vjp(self, X, rels, table, G):
        GX, ids, GR = self.vjp(X, rels, table.transpose(0, 2, 1), G)
        return GX, ids, GR.transpose(0, 2, 1)


class _Translation(_Operator):
    """``x + r`` scored by distance (transe)."""

    distance = True
    translation = True

    def apply(self, X, rels, table):
        return X + table[rels]

    def vjp(self, X, rels, table, G):
        return G, rels, G


OPERATORS = {
    ModelKind.CP: _Diagonal(),
    ModelKind.DISTMULT: _Diagonal(),
    ModelKind.COMPLEX: _ComplexDiagonal(),
    ModelKind.RESCAL: _Matrix(),
    ModelKind.TRANSE: _Translation(),
    ModelKind.ROTATE: _Rotation(),
}


# ---------------------------------------------------------------------------
# Batched 1-vs-all scoring kernels.
#
# forward_all_tails computes the B x |E| score matrix for a batch of
# (head, relation) queries together with a context reused by
# backward_all_tails, which turns an arbitrary upstream gradient G
# (B x |E|) into per-block gradient parts and adds them to a
# ``grads.GradAccumulator``: the tail table dense, the head rows and the
# relation rows (indices may repeat; ``finalize`` sums them).

_EPS_DIST = 1e-30


def forward_all_tails(params: ModelParams, heads: np.ndarray, rels: np.ndarray):
    """Score every entity as tail for each (head, relation) query.

    The distance kinds expand ``||Q - t||^2`` in place: ``D`` (squared
    distances, then distances) and the Gram product ``S`` are the only
    two B x |E| buffers, and ``S`` ends up holding ``-D``.
    """
    op = OPERATORS[params.kind]
    H = params.head_table[heads]
    T = params.tail_table
    Q = (op.adjoint if op.scores_adjoint else op.apply)(H, rels, params.relation)
    S = Q @ T.T
    D = None
    if op.distance:
        D = np.sum(Q * Q, axis=1)[:, None] + np.sum(T * T, axis=1)[None, :]
        S *= 2.0
        D -= S
        np.maximum(D, 0.0, out=D)
        np.sqrt(D, out=D)
        np.negative(D, out=S)
    return S, {"heads": heads, "rels": rels, "H": H, "Q": Q, "D": D}


def backward_all_tails(params: ModelParams, ctx, G: np.ndarray, acc) -> None:
    """Backpropagate an upstream B x |E| gradient through forward_all_tails
    and add the gradient parts to ``acc``.

    ``G`` is consumed: the distance kinds clamp ``ctx["D"]`` and
    overwrite ``G`` with ``C = G / D``.
    """
    op = OPERATORS[params.kind]
    H, Q, D = ctx["H"], ctx["Q"], ctx["D"]
    T = params.tail_table
    if D is None:
        GT = G.T @ Q
        GQ = G @ T
    else:
        C = np.divide(G, np.maximum(D, _EPS_DIST, out=D), out=G)
        GQ = C @ T - C.sum(axis=1)[:, None] * Q
        GT = C.T @ Q - C.sum(axis=0)[:, None] * T
    vjp = op.adjoint_vjp if op.scores_adjoint else op.vjp
    GH, rel_ids, GR = vjp(H, ctx["rels"], params.relation, GQ)
    acc.add(params.tail_key, None, GT)
    acc.add(params.head_key, ctx["heads"], GH)
    acc.add("rel", rel_ids, GR)
