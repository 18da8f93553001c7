"""1-vs-all cross-entropy training with Adagrad and penalty integration.

Every (head, relation) of a batch is scored against all entities, the
loss is the cross entropy against the true tail, and the configured
penalty (scaled by its coefficient) is added.  One sparse-aware Adagrad
step per batch touches exactly the parameter rows that received
gradient; rotation relations are reprojected to unit modulus after each
step.

``batch_objective`` cuts the loss (``_batch_ce``, bound by GEMMs that
release the GIL) into two row parts, 3/5 of the batch and the rest, and
runs them as tasks on two threads (``lanes``), the penalty (bound by the
interpreter), if there is one, inserted between them as task 1: the
worker starts on the larger loss part and the calling thread on the
penalty.  The gradient parts merge in a fixed order, the loss parts
first, so runs are bitwise deterministic given the config seed, whatever
the timing and the BLAS thread count.

``train`` keeps its heap between batches.  glibc raises its mmap
threshold to the size of the largest mmapped block freed so far (capped
at 32 MiB) and its heap-trim threshold to twice that (mallopt(3),
NOTES).  Left alone, the largest block a batch frees is its B x |E|
score buffer (a few MB), so freed heap above twice that goes back to
the OS at the end of almost every batch and the next batch faults its
pages in again: about 10k minor faults per epoch on a Zipf graph with
second-order paths.  So ``train`` first allocates one block of
``_HEAP_BLOCK`` float64 (31 MiB) and frees it untouched: it costs no
resident memory, and freeing it raises the two thresholds to about
31 MiB and 62 MiB for the rest of the process, as freeing any array of
that size does.  The cost is that a process that has trained keeps up to
62 MiB of freed heap per malloc arena instead of returning it.  Under
another C library the block is allocated and freed and nothing else
happens.  Working sets above 62 MiB fault again; only a process-wide
``mallopt``, which a library should not set, would reach those.
"""

from __future__ import annotations

import logging
import math
import struct
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import lanes
from .data import CategoryMap, TripleStore
from .errors import (
    CheckpointError, ConfigError, NumericError, check_count, check_fields, check_memory,
    check_seed, typed,
)
from .grads import GradAccumulator, all_finite
from .models import (
    ModelKind, ModelParams, backward_all_tails, block_shapes, check_dim, check_triples,
    forward_all_tails, init_params, model_kind, project_constraints,
)
from .ranking import evaluate
from .regularizers import (
    EpsilonState,
    RegularizerSpec,
    check_penalty,
    penalty_dura,
    penalty_er,
    penalty_er_second_order,
    penalty_fro,
    penalty_n3,
    sample_path_pairs,
    select_pairs,
)

logger = logging.getLogger(__name__)

# float64 count of the block ``train`` frees untouched (31 MiB; see the
# module docstring): just under glibc's 32 MiB cap on the thresholds it
# raises, which a block of 32 MiB less one page did not reach
_HEAP_BLOCK = 31 << 17

@dataclass(frozen=True)
class TrainConfig:
    """Training settings, checked when built, then frozen.

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

    def __post_init__(self) -> None:
        check_fields(self)
        check_seed(self.seed)
        kind = model_kind(self.model)
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        for name in ("epochs", "batch_size", "dim"):
            check_count(getattr(self, name), name)
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0")
        if self.adagrad_eps <= 0:
            raise ConfigError("adagrad_eps must be positive")
        if self.patience is not None:
            check_count(self.patience, "patience")
        if self.patience is not None and self.eval_every == 0:
            raise ConfigError("patience needs eval_every >= 1: early stopping counts evaluations")
        check_penalty(kind, self.regularizer.kind)
        check_dim(kind, self.dim)


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


def _batch_ce(params: ModelParams, batch: np.ndarray, out: np.ndarray | None = None,
              n: int | None = None):
    """Cross entropy summed over ``batch`` and divided by ``n`` (default
    ``len(batch)``: the mean, and for a row part the full batch size), and
    a ``GradAccumulator`` holding its gradient parts: ``(loss, acc)``.

    The score matrix of ``forward_all_tails`` becomes the gradient in
    place (shift by the row max, ``exp``, normalize, subtract the
    targets, divide by ``n``), and ``backward_all_tails`` consumes it:
    one B x |E| buffer from scores to gradient, ``out`` if given (see
    ``forward_all_tails``).
    """
    n = len(batch) if n is None else n
    heads, rels, tails = batch[:, 0], batch[:, 1], batch[:, 2]
    S, ctx = forward_all_tails(params, heads, rels, out=out)
    b_idx = np.arange(len(batch))
    target = S[b_idx, tails]
    m = S.max(axis=1, keepdims=True)
    G = np.subtract(S, m, out=S)
    np.exp(G, out=G)
    z = G.sum(axis=1)
    loss = float(np.sum(m[:, 0] + np.log(z) - target) / n)
    G /= z[:, None]
    G[b_idx, tails] -= 1.0
    G /= n
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
    pair labels, the ``"eps"`` thresholds, merged once.  The batch runs
    on two lanes, the penalty as task 1 between the two loss parts (see
    the module docstring), and an exception is raised as ``lanes.run``
    raises it.  Used by the training loop and by finite-difference
    checks.  An empty batch, an id outside the model's tables, or a
    ``spec`` that is not a ``RegularizerSpec`` raises ``ConfigError``.
    """
    spec = typed(spec, RegularizerSpec, "spec")
    batch = check_triples(params, batch, "batch")
    n = len(batch)
    # the worker takes part 0, 3/5 of the rows (at most n - 1): on a uniform
    # graph the penalty and the other 2/5 take about as long
    cuts = sorted({0, min(-(-3 * n // 5), n - 1), n})
    scores = np.empty((n, params.n_entities))
    reg_acc = GradAccumulator()
    penalized = spec.kind != "none" and spec.lam > 0.0
    tasks = [lambda _lane, rows=slice(lo, hi): _batch_ce(params, batch[rows], scores[rows], n)
             for lo, hi in zip(cuts, cuts[1:])]
    if penalized:
        tasks.insert(1, lambda _lane: _penalty(params, batch, spec, categories, eps, store,
                                               pair_seed, path_seed, reg_acc))
    parts = lanes.run(tasks)
    reg_value = parts.pop(1) if penalized else 0.0
    loss, acc = 0.0, GradAccumulator()
    for part_loss, part_acc in parts:
        loss += part_loss
        acc.extend(part_acc)
    acc.extend(reg_acc)
    return loss + spec.lam * reg_value, loss, reg_value, acc.finalize()


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
    ``NumericError``.  ``config`` must be a ``TrainConfig``, ``store`` a
    ``TripleStore`` and ``categories`` a ``CategoryMap`` or None
    (``ConfigError``).
    """
    config = typed(config, TrainConfig, "config")
    store = typed(store, TripleStore, "store")
    categories = typed(categories, CategoryMap | None, "categories")
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

    np.empty(_HEAP_BLOCK)  # freed at once: raises glibc's heap thresholds
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
    reads back as uninitialized.  A non-finite value in a parameter block
    raises ``CheckpointError``: its NaN scores would tie with nothing and
    read as ranks of 0.5.
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
        if not np.isfinite(blocks[name]).all():
            raise CheckpointError(f"checkpoint parameter block {name!r} is not finite")
    epsilon = np.frombuffer(raw, dtype="<f8", count=n_rel, offset=offset).copy()
    return ModelParams(kind, blocks), EpsilonState(epsilon=epsilon, acc=np.zeros(n_rel))
