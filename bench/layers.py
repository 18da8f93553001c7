"""The program's layers as the traced run sees them.

``install`` wraps each layer's function where the program looks it up;
``per_layer`` turns the spans and counts into the per-layer metrics of
``BENCHMARK.json``.  Counts that a layer does not report itself are
worked out here from its arguments: floating-point work from array
shapes, and the pairs a sampler could have drawn (``eligible``) from the
batch it was given and the benchmark's own adjacency.
"""

from __future__ import annotations

import numpy as np

import erkg


def gemm_flops(kind: str, B: int, E: int, d: int, backward: bool) -> float:
    """Floating-point operations of the B x |E| scoring GEMMs, from shapes.

    A complex multiply-add is 8 real operations on d/2 coordinates; RESCAL
    adds the per-row d x d relation products.  Backward runs two GEMMs.
    """
    per_gemm = 4.0 * B * E * d if kind in ("complex", "rotate") else 2.0 * B * E * d
    extra = 2.0 * B * d * d if kind == "rescal" else 0.0
    return 2 * (per_gemm + extra) if backward else per_gemm + extra


def _forward_hook(tr, args, kwargs, result):
    params, heads = args[0], args[1]
    tr.add("models.forward_all_tails.flop",
           gemm_flops(params.kind.value, len(heads), params.n_entities, params.dim, False))


def _backward_hook(tr, args, kwargs, result):
    params, G = args[0], args[2]
    tr.add("models.backward_all_tails.flop",
           gemm_flops(params.kind.value, G.shape[0], params.n_entities, params.dim, True))


def _pairs_without_same_head(groups: np.ndarray, heads: np.ndarray) -> tuple[int, int]:
    """Pairs within each group whose heads differ, and the largest group."""
    if len(groups) == 0:
        return 0, 0
    _, n = np.unique(groups, return_counts=True)
    _, c = np.unique(np.stack([groups, heads], axis=1), axis=0, return_counts=True)
    return int((n * (n - 1) // 2).sum() - (c * (c - 1) // 2).sum()), int(n.max())


def _select_pairs_hook(tr, args, kwargs, result):
    batch = args[0]
    eligible, _ = _pairs_without_same_head(batch[:, 1], batch[:, 0])
    tr.add("regularizers.select_pairs.kept", result.n)
    tr.add("regularizers.select_pairs.eligible", eligible)


class _Adjacency:
    """Training edges sorted by head, for counting two-hop paths."""

    def __init__(self, train: np.ndarray):
        order = np.argsort(train[:, 0], kind="stable")
        self.rel = train[order, 1]
        n = int(train[:, [0, 2]].max()) + 1
        self.start = np.searchsorted(train[order, 0], np.arange(n + 1))

    def path_groups(self, batch: np.ndarray):
        """(r1, r2) group id and head of every path h -r1-> m -r2-> e."""
        m = batch[:, 2]
        deg = self.start[m + 1] - self.start[m]
        first = np.repeat(self.start[m] - np.cumsum(deg) + deg, deg)
        r2 = self.rel[first + np.arange(deg.sum())]
        r1 = np.repeat(batch[:, 1], deg)
        return r1 * (int(self.rel.max()) + 1) + r2, np.repeat(batch[:, 0], deg)


def _sample_path_pairs_hook(tr, args, kwargs, result):
    store, batch = args[0], args[1]
    adj = tr.memo.get(id(store))
    if adj is None:
        adj = tr.memo[id(store)] = _Adjacency(store.train)
    eligible, max_group = _pairs_without_same_head(*adj.path_groups(batch))
    tr.add("regularizers.sample_path_pairs.kept", result.n)
    tr.add("regularizers.sample_path_pairs.eligible", eligible)
    tr.counts["regularizers.sample_path_pairs.max_group"] = max(
        tr.counts["regularizers.sample_path_pairs.max_group"], max_group)


def _rows(idx, arr) -> int:
    return arr.shape[0] if idx is None else len(idx)


def _finalize_hook(tr, args, kwargs, result):
    acc = args[0]
    tr.add("grads.finalize.rows_in",
           sum(_rows(i, a) for parts in acc._parts.values() for i, a in parts))
    tr.add("grads.finalize.rows_out", sum(_rows(i, a) for i, a in result.values()))


def _adagrad_hook(tr, args, kwargs, result):
    param, _acc, idx = args[0], args[1], args[2]
    tr.add("training.adagrad.rows", param.shape[0] if idx is None else len(idx))


def _count(name):
    def hook(tr, args, kwargs, result):
        tr.add(name)
    return hook


def _evaluate_hook(tr, args, kwargs, result):
    tr.add("ranking.queries", len(args[1]))


def _minimize_args(tr, args, kwargs):
    fun = args[0]

    def objective(theta):
        with tr.span("nuclear.objective"):
            return fun(theta)

    return (objective,) + tuple(args[1:]), kwargs


def _minimize_hook(tr, args, kwargs, result):
    tr.add("nuclear.stages")
    tr.add("nuclear.lbfgs.iterations", result.nit)


def install(tr) -> None:
    """Wrap every traced layer of ``erkg`` (undone by ``tr.uninstall()``)."""
    data, training, ranking, nuclear = erkg.data, erkg.training, erkg.ranking, erkg.nuclear
    for fn in ("load_dataset", "load_categories", "add_reciprocals", "build_filter_index"):
        tr.wrap(data, fn, f"data.{fn}")
    for owner in (training, ranking):
        tr.wrap(owner, "forward_all_tails", "models.forward_all_tails", _forward_hook)
    tr.wrap(training, "backward_all_tails", "models.backward_all_tails", _backward_hook)
    tr.wrap(training, "train", "training.train")
    tr.wrap(training, "batch_objective", "training.batch_objective",
            _count("training.batches"))
    tr.wrap(training, "penalty_er", "regularizers.penalty_er")
    tr.wrap(training, "penalty_er_second_order", "regularizers.penalty_er_second_order")
    tr.wrap(training, "select_pairs", "regularizers.select_pairs", _select_pairs_hook)
    tr.wrap(training, "sample_path_pairs", "regularizers.sample_path_pairs",
            _sample_path_pairs_hook)
    tr.wrap(training, "_adagrad_step_inplace", "training.adagrad", _adagrad_hook)
    tr.wrap(training, "project_constraints", "training.project_constraints")
    tr.wrap(erkg.grads.GradAccumulator, "finalize", "grads.finalize", _finalize_hook)
    tr.wrap(ranking, "evaluate", "ranking.evaluate", _evaluate_hook)
    tr.wrap(nuclear, "check_instance", "nuclear.check_instance")
    tr.wrap(nuclear, "minimize", "nuclear.minimize", _minimize_hook, _minimize_args)
    tr.wrap(nuclear, "_variant_grads", "nuclear.raw_grads")
    tr.wrap(nuclear, "_nuclear_grads", "nuclear.raw_grads")


# (metric, unit): where the value comes from is decided in per_layer.
METRICS = [
    ("setup.import_s", "s"),
    ("data.load_dataset.s", "s"),
    ("data.load_categories.s", "s"),
    ("data.add_reciprocals.s", "s"),
    ("data.build_filter_index.s", "s"),
    ("models.forward_all_tails.self_s", "s"),
    ("models.forward_all_tails.calls", "count"),
    ("models.forward_all_tails.gflop", "GFLOP"),
    ("models.backward_all_tails.self_s", "s"),
    ("models.backward_all_tails.gflop", "GFLOP"),
    ("training.batch_objective.self_s", "s"),
    ("regularizers.penalty_er.self_s", "s"),
    ("grads.finalize.self_s", "s"),
    ("grads.finalize.rows_in", "count"),
    ("grads.finalize.rows_out", "count"),
    ("regularizers.select_pairs.s", "s"),
    ("regularizers.select_pairs.kept", "count"),
    ("regularizers.select_pairs.eligible", "count"),
    ("regularizers.select_pairs.kept_ratio", "ratio"),
    ("regularizers.sample_path_pairs.s", "s"),
    ("regularizers.sample_path_pairs.kept", "count"),
    ("regularizers.sample_path_pairs.eligible", "count"),
    ("regularizers.sample_path_pairs.kept_ratio", "ratio"),
    ("regularizers.sample_path_pairs.max_group", "count"),
    ("regularizers.penalty_er_second_order.self_s", "s"),
    ("training.adagrad.self_s", "s"),
    ("training.adagrad.rows", "count"),
    ("training.project_constraints.s", "s"),
    ("training.train.s", "s"),
    ("training.batches", "count"),
    ("ranking.evaluate.self_s", "s"),
    ("ranking.queries", "count"),
    ("nuclear.check_instance.s", "s"),
    ("nuclear.minimize.self_s", "s"),
    ("nuclear.objective.s", "s"),
    ("nuclear.objective.calls", "count"),
    ("nuclear.raw_grads.s", "s"),
    ("nuclear.lbfgs.iterations", "count"),
    ("nuclear.stages", "count"),
    ("process.cpu_per_wall", "ratio"),
    ("trace.overhead", "ratio"),
]

_SETUP = ("data.load_dataset", "data.load_categories", "data.add_reciprocals",
          "data.build_filter_index")


def per_layer(tr, n_setup_spans, n_rounds, import_s, cpu_per_wall, overhead):
    """Per-layer metrics: set-up layers once, the rest per traced round.

    A layer that did not run in this workload reads 0.
    """
    setup = tr.summary(0)
    spans = tr.summary(n_setup_spans)
    counts = tr.counts
    values = {"setup.import_s": import_s, "process.cpu_per_wall": cpu_per_wall,
              "trace.overhead": overhead}
    for metric, _unit in METRICS:
        if metric in values:
            continue
        layer, _, field = metric.rpartition(".")
        if layer in _SETUP:
            values[metric] = setup.get(layer, {}).get(field, 0.0)
        elif metric.endswith("kept_ratio"):
            eligible = counts.get(f"{layer}.eligible", 0.0)
            values[metric] = counts.get(f"{layer}.kept", 0.0) / eligible if eligible else 0.0
        elif field == "gflop":
            values[metric] = counts.get(f"{layer}.flop", 0.0) / 1e9 / n_rounds
        elif metric.endswith("max_group"):
            values[metric] = counts.get(metric, 0.0)
        elif field in ("s", "self_s") or (field == "calls" and layer in spans):
            values[metric] = spans.get(layer, {}).get(field, 0.0) / n_rounds
        else:
            values[metric] = counts.get(metric, 0.0) / n_rounds
    return {m: {"value": float(values[m]), "unit": u} for m, u in METRICS}
