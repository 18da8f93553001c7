"""Shared finite-difference machinery for total-objective gradient checks.

A problem fixes a tiny model, a batch, a penalty spec, and the sampling
seeds, making the batch objective a deterministic function of the
parameters (and thresholds).  Probes compare the analytic directional
derivative against central differences along random directions.
"""

import numpy as np

from erkg.data import CategoryMap, TripleStore, Vocab
from erkg.models import ModelKind, init_params
from erkg.regularizers import EpsilonState, RegularizerSpec
from erkg.training import batch_objective
from grads_oracle import densify, grad_shapes

FD_STEP = 1e-5
REL_TOL = 1e-4

N_ENT, N_REL, DIM, BATCH = 6, 3, 4, 5


def build_problem(kind, reg_kind, er_mode="joint", norm_order=2,
                  second_order=False, seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(ModelKind(kind), N_ENT, N_REL, DIM, seed=seed + 1)
    train = np.stack(
        [
            rng.integers(0, N_ENT, 20),
            rng.integers(0, N_REL, 20),
            rng.integers(0, N_ENT, 20),
        ],
        axis=1,
    ).astype(np.int64)
    vocab = Vocab(
        {f"e{i}": i for i in range(N_ENT)}, {f"r{i}": i for i in range(N_REL)}
    )
    empty = np.empty((0, 3), dtype=np.int64)
    store = TripleStore(train, empty, empty, vocab)
    batch = train[:BATCH]
    categories = CategoryMap({i: i % 2 for i in range(N_ENT)}, 2, 1.0)
    spec = RegularizerSpec(
        kind=reg_kind,
        lam=0.37,
        er_mode=er_mode,
        norm_order=norm_order,
        pair_budget=8,
        second_order=second_order,
        path_budget=8,
        tau=0.9,
        epsilon_init=0.6,
    )
    eps = EpsilonState.create(N_REL, init=0.6)
    return params, eps, batch, spec, categories, store


def objective_value(params, eps, batch, spec, categories, store):
    total, _, _, _ = batch_objective(
        params, batch, spec, categories, eps, store, pair_seed=17, path_seed=29
    )
    return total


def run_probes(kind, reg_kind, er_mode="joint", norm_order=2,
               second_order=False, n_probes=20, seed=0):
    """Max relative error over random-direction central-difference probes."""
    params, eps, batch, spec, categories, store = build_problem(
        kind, reg_kind, er_mode, norm_order, second_order, seed
    )
    _, _, _, grads = batch_objective(
        params, batch, spec, categories, eps, store, pair_seed=17, path_seed=29
    )
    shapes = grad_shapes(params)
    dense = densify(grads, shapes)
    rng = np.random.default_rng(1000 + seed)
    worst = 0.0
    for _ in range(n_probes):
        dirs = {n: rng.normal(size=s) for n, s in shapes.items()}

        def shifted(sign):
            p2 = params.copy()
            for name, arr in p2.blocks().items():
                arr += sign * FD_STEP * dirs[name]
            e2 = eps.copy()
            e2.epsilon = e2.epsilon + sign * FD_STEP * dirs["eps"]
            return objective_value(p2, e2, batch, spec, categories, store)

        fd = (shifted(+1.0) - shifted(-1.0)) / (2.0 * FD_STEP)
        an = sum(float(np.sum(dense[n] * dirs[n])) for n in shapes)
        rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst


def supported_combos():
    """Every (model kind, regularizer kind, er_mode, norm_order, second)."""
    combos = []
    for kind in ModelKind:
        combos.append((kind.value, "none", "joint", 2, False))
        combos.append((kind.value, "fro", "joint", 2, False))
        if kind in (ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX):
            combos.append((kind.value, "n3", "joint", 2, False))
        if kind in (ModelKind.CP, ModelKind.DISTMULT, ModelKind.COMPLEX, ModelKind.RESCAL):
            combos.append((kind.value, "dura", "joint", 2, False))
        for mode in ("proximity", "dissimilarity", "joint"):
            combos.append((kind.value, "er", mode, 2, False))
        combos.append((kind.value, "er", "joint", 3, False))
        combos.append((kind.value, "er", "proximity", 2, True))
        combos.append((kind.value, "er", "joint", 2, True))
    return combos
