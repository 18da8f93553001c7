"""1-vs-all cross-entropy training with Adagrad and penalty integration.

Every (head, relation) of a batch is scored against all entities, the
loss is the cross entropy against the true tail, and the configured
penalty (scaled by its coefficient) is added.  One sparse-aware Adagrad
step per batch touches exactly the parameter rows that received
gradient; rotation relations are reprojected to unit modulus after each
step.  Single-threaded runs are bitwise deterministic given the config
seed.
"""

from __future__ import annotations

import logging
import math
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import CategoryMap, TripleStore
from .errors import (
    CheckpointError, ConfigError, NumericError, check_fields, check_memory, check_seed,
)
from .grads import GradAccumulator, all_finite
from .models import (
    N3_KINDS, OPERATORS, ModelKind, ModelParams, backward_all_tails, block_shapes,
    check_triples, forward_all_tails, init_params, project_constraints,
)
from .ranking import evaluate
from .regularizers import (
    EpsilonState,
    RegularizerSpec,
    penalty_dura,
    penalty_er,
    penalty_er_second_order,
    penalty_fro,
    penalty_n3,
    sample_path_pairs,
    select_pairs,
)

logger = logging.getLogger(__name__)

@dataclass
class TrainConfig:
    """Training settings.

    Every field except ``model`` and ``regularizer`` is a key of a run
    config's ``train`` section, with its type and default.
    """

    model: str = "distmult"
    dim: int = 64
    batch_size: int = 256
    learning_rate: float = 0.1
    epochs: int = 10
    seed: int = 0
    regularizer: RegularizerSpec = field(default_factory=RegularizerSpec)
    eval_every: int = 0
    adagrad_eps: float = 1e-10
    patience: int | None = None

    def validate(self) -> None:
        check_fields(self)
        check_seed(self.seed)
        try:
            kind = ModelKind(self.model)
        except ValueError as exc:
            raise ConfigError(f"unknown model kind {self.model!r}") from exc
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1 or self.dim < 1:
            raise ConfigError("epochs, batch_size, and dim must be >= 1")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")
        if self.adagrad_eps <= 0:
            raise ConfigError("adagrad_eps must be positive")
        if self.patience is not None and self.patience < 1:
            raise ConfigError(f"patience must be an integer >= 1, got {self.patience!r}")
        if self.patience is not None and self.eval_every == 0:
            raise ConfigError("patience needs eval_every >= 1: early stopping counts evaluations")
        self.regularizer.validate()
        op, penalty = OPERATORS[kind], self.regularizer.kind
        if (penalty == "n3" and kind not in N3_KINDS) or (penalty == "dura" and op.distance):
            raise ConfigError(f"{penalty} penalty does not support {kind.value}")
        if op.complex_coords and self.dim % 2 != 0:
            raise ConfigError(f"{kind.value} requires an even dim, got {self.dim}")


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    reg_value: float
    valid_mrr: float | None = None
    valid_hits1: float | None = None
    valid_hits10: float | None = None
    seconds: float = 0.0


@dataclass
class TrainHistory:
    records: list[EpochRecord] = field(default_factory=list)

    def to_json_list(self):
        """One dict per epoch, the ``EpochRecord`` fields with ``reg_value``
        spelled ``reg``."""
        return [
            {"reg" if key == "reg_value" else key: value for key, value in asdict(r).items()}
            for r in self.records
        ]


def _adagrad_step_inplace(param, acc, idx, grad, lr, eps):
    # idx must hold unique rows (GradAccumulator.finalize guarantees it)
    if idx is None:
        acc += grad * grad
        param -= lr * grad / (np.sqrt(acc) + eps)
    else:
        a = acc[idx] + grad * grad
        acc[idx] = a
        param[idx] -= lr * grad / (np.sqrt(a) + eps)


def _check_size(kind: ModelKind, n_entities: int, n_relations: int, dim: int) -> None:
    """``ConfigError`` if the parameter blocks and their Adagrad
    accumulators would not fit in the machine's physical memory; read from
    the block shapes, so nothing is allocated."""
    shapes = block_shapes(kind, n_entities, n_relations, dim)
    need = 2 * 8 * sum(math.prod(shape) for shape in shapes.values())
    check_memory(need, f"dim {dim}", f"the {kind.value} parameters and their "
                 f"Adagrad state over {n_entities} entities")


def _check_finite_state(params: ModelParams, accs: dict, epoch: int) -> None:
    """``NumericError`` unless every parameter block and Adagrad
    accumulator is finite: an overflowing step can leave the loss and
    gradients finite while an accumulator turns infinite."""
    for what, arrays in (("parameter block", params.blocks()), ("Adagrad accumulator", accs)):
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise NumericError(f"non-finite {what} {name!r} after epoch {epoch}")


def _batch_ce(params: ModelParams, batch: np.ndarray):
    """Mean cross entropy over a batch, and a ``GradAccumulator`` holding
    its gradient parts: ``(loss, acc)``.

    The score matrix of ``forward_all_tails`` becomes the gradient in
    place (shift by the row max, ``exp``, normalize, subtract the
    targets, divide by the batch size), and ``backward_all_tails``
    consumes it: one B x |E| buffer from scores to gradient.
    """
    heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    S, ctx = forward_all_tails(params, heads, rels)
    b_idx = np.arange(len(batch))
    target = S[b_idx, tails]
    m = S.max(axis=1, keepdims=True)
    G = np.subtract(S, m, out=S)
    np.exp(G, out=G)
    z = G.sum(axis=1)
    loss = float(np.mean(m[:, 0] + np.log(z) - target))
    G /= z[:, None]
    G[b_idx, tails] -= 1.0
    G /= len(batch)
    acc = GradAccumulator()
    backward_all_tails(params, ctx, G, acc)
    return loss, acc


def _penalty(params, batch, spec, categories, eps, store, pair_seed, path_seed, acc):
    """Penalty value; ``spec.lam`` times its gradient goes to ``acc``."""
    if spec.kind == "fro":
        return penalty_fro(params, batch, acc, spec.lam)
    if spec.kind == "n3":
        return penalty_n3(params, batch, acc, spec.lam)
    if spec.kind == "dura":
        return penalty_dura(params, batch, acc, spec.lam)
    if spec.kind == "er":
        pairs = select_pairs(batch, spec.pair_budget, pair_seed)
        value = penalty_er(params, batch, pairs, spec, acc, spec.lam, categories, eps)
        if spec.second_order:
            paths = sample_path_pairs(store, batch, spec.path_budget, path_seed)
            value += penalty_er_second_order(
                params, paths, spec, acc, spec.lam, categories, eps
            )
        return value
    raise ConfigError(f"unknown regularizer kind {spec.kind!r}")


def batch_objective(
    params: ModelParams,
    batch: np.ndarray,
    spec: RegularizerSpec,
    categories: CategoryMap | None = None,
    eps: EpsilonState | None = None,
    store: TripleStore | None = None,
    pair_seed: int = 0,
    path_seed: int = 1,
):
    """Loss plus scaled penalty for one batch: (total, loss, reg, grads).

    The gradient set covers every parameter block and, for joint-mode
    pair labels, the ``"eps"`` thresholds.  The loss and the penalty add
    their rows to one accumulator, merged once.  Used by the training
    loop and by finite-difference checks.  An empty batch, or an id
    outside the model's tables, raises ``ConfigError``.
    """
    batch = check_triples(params, batch, "batch")
    loss, acc = _batch_ce(params, batch)
    reg_value = 0.0
    if spec.kind != "none" and spec.lam > 0.0:
        reg_value = _penalty(
            params, batch, spec, categories, eps, store, pair_seed, path_seed, acc
        )
    return loss + spec.lam * reg_value, loss, reg_value, acc.finalize(params.grad_shapes())


def train(
    config: TrainConfig,
    store: TripleStore,
    categories: CategoryMap | None = None,
):
    """Train a model on the store's train split.

    Returns ``(params, eps_state, history)``.  The store should normally
    be reciprocal-augmented so head prediction trains as tail prediction.
    The ER category modes (``er_mode`` other than ``joint``) need
    ``categories``, and ``eval_every > 0`` a non-empty validation split;
    without them ``ConfigError`` is raised before any work, as it is for a
    ``dim`` whose parameters cannot be allocated.  A non-finite parameter
    block or Adagrad accumulator at the end of an epoch raises
    ``NumericError``.
    """
    config.validate()
    kind = ModelKind(config.model)
    spec = config.regularizer
    if spec.kind == "er" and spec.er_mode != "joint" and categories is None:
        raise ConfigError(f"er_mode {spec.er_mode!r} needs a category file")
    train_arr = store.train
    n = len(train_arr)
    if n == 0:
        raise ConfigError("empty training split")
    if config.eval_every > 0 and len(store.valid) == 0:
        raise ConfigError("eval_every needs a non-empty validation split")
    n_ent, n_rel = store.vocab.n_entities, store.vocab.n_relations
    _check_size(kind, n_ent, n_rel, config.dim)
    try:
        params = init_params(kind, n_ent, n_rel, config.dim, config.seed)
        accs = {name: np.zeros_like(arr) for name, arr in params.blocks().items()}
    except MemoryError as exc:
        raise ConfigError(
            f"dim {config.dim}: cannot allocate the {kind.value} parameters "
            f"over {n_ent} entities"
        ) from exc
    eps_state = EpsilonState.create(n_rel, spec.epsilon_init)
    blocks = {**params.blocks(), "eps": eps_state.epsilon}
    accs["eps"] = eps_state.acc

    rng = np.random.default_rng(config.seed)
    history = TrainHistory()
    best_mrr = -np.inf
    stale = 0

    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        perm = rng.permutation(n)
        loss_sum = 0.0
        reg_sum = 0.0
        for bi, start in enumerate(range(0, n, config.batch_size)):
            batch = train_arr[perm[start : start + config.batch_size]]
            pair_seed = int(
                np.random.SeedSequence([config.seed, epoch, bi, 0]).generate_state(1)[0]
            )
            path_seed = int(
                np.random.SeedSequence([config.seed, epoch, bi, 1]).generate_state(1)[0]
            )
            total, loss, reg_value, grads = batch_objective(
                params, batch, spec, categories, eps_state, store, pair_seed, path_seed
            )
            if not np.isfinite(total) or not all_finite(grads):
                raise NumericError(
                    f"non-finite loss or gradient at epoch {epoch} batch {bi}"
                )
            for name, (idx, garr) in grads.items():
                _adagrad_step_inplace(
                    blocks[name], accs[name], idx, garr,
                    config.learning_rate, config.adagrad_eps,
                )
            project_constraints(params)
            loss_sum += loss * len(batch)
            reg_sum += reg_value * len(batch)
        _check_finite_state(params, accs, epoch)

        record = EpochRecord(
            epoch=epoch,
            loss=loss_sum / n,
            reg_value=reg_sum / n,
        )
        if config.eval_every > 0 and (epoch + 1) % config.eval_every == 0:
            report = evaluate(params, store.valid, store.filter_index)
            record.valid_mrr = report.mrr
            record.valid_hits1 = report.hits[1]
            record.valid_hits10 = report.hits[10]
            if report.mrr > best_mrr + 1e-12:
                best_mrr = report.mrr
                stale = 0
            else:
                stale += 1
        record.seconds = time.perf_counter() - t0
        history.records.append(record)
        if config.patience is not None and stale >= config.patience:
            logger.info("early stop at epoch %d", epoch)
            break
    return params, eps_state, history


# ---------------------------------------------------------------------------
# Checkpoints: the 33-byte ``_HEADER`` (magic "ERKG", version u32 LE, kind
# byte = the kind's index in ModelKind's declaration order, three u64 dims),
# the blocks ``block_shapes`` declares as little-endian float64 in its
# order, then the epsilon array (one float64 per relation; NaN marks
# uninitialized).

CHECKPOINT_MAGIC = b"ERKG"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sIBQQQ")
_KINDS = list(ModelKind)


def save_checkpoint(params: ModelParams, eps: EpsilonState, path) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(
                CHECKPOINT_MAGIC, CHECKPOINT_VERSION, _KINDS.index(params.kind),
                params.n_entities, params.n_relations, params.dim,
            ))
            for arr in params.blocks().values():
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(eps.epsilon, dtype="<f8").tobytes())
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint: {exc}") from exc


def load_checkpoint(path):
    """Read a checkpoint back into ``(ModelParams, EpsilonState)``.

    Optimizer accumulators are not checkpointed; a NaN epsilon entry
    reads back as uninitialized.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if len(raw) < _HEADER.size or raw[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError("bad checkpoint magic")
    _magic, version, kind_byte, n_ent, n_rel, dim = _HEADER.unpack_from(raw)
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if kind_byte >= len(_KINDS):
        raise CheckpointError(f"unknown model kind byte {kind_byte}")
    kind = _KINDS[kind_byte]
    shapes = block_shapes(kind, n_ent, n_rel, dim)
    expected = _HEADER.size + 8 * (
        sum(int(np.prod(s)) for s in shapes.values()) + n_rel
    )
    if len(raw) != expected:
        raise CheckpointError(
            f"checkpoint size mismatch: expected {expected} bytes, got {len(raw)}"
        )
    offset = _HEADER.size
    blocks = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        blocks[name] = (
            np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += 8 * count
    epsilon = np.frombuffer(raw, dtype="<f8", count=n_rel, offset=offset).copy()
    return ModelParams(kind, blocks), EpsilonState(epsilon=epsilon, acc=np.zeros(n_rel))
