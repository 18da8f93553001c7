"""Measuring process: set up one workload, time its rounds, check outputs.

Started by ``bench/run.py`` in a fresh interpreter with OpenBLAS pinned to
one thread.  The set-up time runs from just before ``import erkg`` to the
end of the program's own input preparation, so nothing heavy may be
imported above that point.  Set-up and operation times are reported at
the reference host speed (``bench/hostspeed.py``); per-layer times are
not.  Usage:

    python3 bench/worker.py --workload W --inputs DIR --seed N \
        --seconds S --trace 0|1 [--setup-only]

The last line of standard output is one JSON object.
"""

import time

_T0 = time.perf_counter()
import erkg  # noqa: E402  (timed as part of set-up)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from bench import checks, hostspeed, layers  # noqa: E402
from bench.tracer import Tracer  # noqa: E402

# A slice of rank-m test queries ranked by one operation.
RANK_SLICE = 2048
RANK_CHECKED_PER_SLICE = 8
# L-BFGS restarts per set in one nuclear check (each check runs two sets).
NUCLEAR_RESTARTS = 2
# er-skewed trains with a fixed seed: its epoch cost depends on which
# triples share a batch with a hub, and varies up to 30% between seeds.
SKEWED_TRAIN_SEED = 0


def _load_graph(inputs: Path, categories: bool):
    store = erkg.data.load_dataset(
        inputs / "train.txt", inputs / "valid.txt", inputs / "test.txt")
    cmap = erkg.data.load_categories(inputs / "categories.txt", store.vocab) if categories else None
    store = erkg.data.add_reciprocals(store)
    return store, cmap, erkg.data.build_filter_index(store)


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class ERWorkload:
    """One training epoch per config; an item is one trained triple."""

    def __init__(self, inputs, seed, configs, categories):
        from erkg.regularizers import RegularizerSpec
        from erkg.training import TrainConfig

        self.store, cmap, self.filter_index = _load_graph(inputs, categories)
        self.seed = seed
        self.configs = []
        for name, model, dim, reg in configs:
            cfg = TrainConfig(model=model, dim=dim, batch_size=500, learning_rate=0.1,
                              epochs=1, seed=seed,
                              regularizer=RegularizerSpec(kind="er", lam=0.05, **reg))
            cats = cmap if reg.get("er_mode") == "proximity" else None
            self.configs.append((name, cfg, cats))
        self._checked: dict[str, tuple[list[str], float]] = {}

    def round(self, i):
        return [(name, self._op(cfg, cats), len(self.store.train))
                for name, cfg, cats in self.configs]

    def _op(self, cfg, cats):
        return lambda: erkg.training.train(cfg, self.store, cats)

    def fingerprint(self, name, result):
        params, _eps, history = result
        rec = history.records[0]
        return {"loss": rec.loss, "reg": rec.reg_value,
                "params": _digest(*params.blocks().values())}

    def check(self, name, result, fp):
        # Training is deterministic, so results already checked are not
        # checked again; a changed result has another digest.
        key = f"{name}:{fp['params']}"
        if key not in self._checked:
            self._checked[key] = self._full_check(name, result)
        fails, fp["valid_mrr"] = self._checked[key]
        return list(fails)

    def _full_check(self, name, result):
        from erkg.models import init_params
        from erkg.regularizers import EpsilonState

        _, cfg, cats = next(c for c in self.configs if c[0] == name)
        params, eps, _history = result
        spec = cfg.regularizer
        store, n = self.store, len(self.store.train)
        ne, nr = store.vocab.n_entities, store.vocab.n_relations
        perm = np.random.default_rng(cfg.seed).permutation(n)
        batch = store.train[perm[: cfg.batch_size]]
        seeds = [int(np.random.SeedSequence([cfg.seed, 0, 0, k]).generate_state(1)[0])
                 for k in (0, 1)]
        fails = []

        p0 = init_params(cfg.model, ne, nr, cfg.dim, cfg.seed)
        _, loss0, _, _ = erkg.training.batch_objective(
            p0, batch, spec, cats, EpsilonState.create(nr, spec.epsilon_init), store, *seeds)
        fails += checks.check_first_batch_loss(cfg.model, p0, batch, loss0)

        fails += checks.check_params(params)
        eps0 = eps.copy()
        _, _, _, grads = erkg.training.batch_objective(params, batch, spec, cats, eps0, store, *seeds)
        rng = np.random.default_rng([self.seed, 7])
        blocks = params.blocks()
        v = {k: rng.standard_normal(a.shape) for k, a in blocks.items()}
        v["eps"] = np.where(eps0.initialized, rng.standard_normal(nr), 0.0)
        slope = 0.0
        for k, (idx, g) in grads.items():
            slope += float(np.sum(g * (v[k] if idx is None else v[k][idx])))

        def f(t):
            p = params.copy()
            for k, a in p.blocks().items():
                a += t * v[k]
            e = eps0.copy()
            e.epsilon += t * v["eps"]
            return erkg.training.batch_objective(p, batch, spec, cats, e, store, *seeds)[0]

        fails += checks.check_directional_derivative(f, slope)
        mrr = erkg.ranking.evaluate(params, store.valid, self.filter_index).mrr
        mrr0 = erkg.ranking.evaluate(p0, store.valid, self.filter_index).mrr
        fails += checks.check_mrr_improved(mrr, mrr0)
        return fails, mrr


class RankWorkload:
    """Filtered ranking of the test queries; an item is one ranked query."""

    def __init__(self, inputs, seed):
        self.store, _, self.filter_index = _load_graph(inputs, categories=False)
        self.params = erkg.models.init_params(
            "complex", self.store.vocab.n_entities, self.store.vocab.n_relations, 128, seed)
        self.seed = seed
        self.queries = self.store.test
        self.n_slices = -(-len(self.queries) // RANK_SLICE)
        self._all = None

    def _slice(self, i):
        return self.queries[i * RANK_SLICE:(i + 1) * RANK_SLICE]

    def round(self, i):
        k = i % self.n_slices
        part = self._slice(k)
        return [(f"slice{k}",
                 lambda: erkg.ranking.evaluate(self.params, part, self.filter_index,
                                               keep_ranks=True),
                 len(part))]

    def fingerprint(self, name, report):
        return {"mrr": report.mrr, "hits1": report.hits[1], "hits10": report.hits[10]}

    def check(self, name, report, fp):
        if self._all is None:
            self._all = self.store.all_triples()
        k = int(name[len("slice"):])
        part = self._slice(k)
        ranks = report.per_query_ranks
        sample = np.random.default_rng([self.seed, k]).choice(
            len(part), size=min(RANK_CHECKED_PER_SLICE, len(part)), replace=False)
        ent, rel = self.params.entity, self.params.relation

        def scores(h, r):
            return checks.own_tail_scores("complex", ent, rel, [h], [r])[0]

        return (checks.check_ranks(scores, part, self._all, ranks, sample)
                + checks.check_report_from_ranks(report, ranks))


class NuclearWorkload:
    """amgm4 checks over the factor pool; an item is one L-BFGS restart."""

    def __init__(self, inputs):
        data = np.load(inputs / "factors.npz")
        self.factors = []
        self.instances = []
        k = 0
        while f"P{k}" in data:
            P, R, Q = data[f"P{k}"], data[f"R{k}"], data[f"Q{k}"]
            target = np.einsum("id,jd,kd->ijk", P, R, Q)
            self.factors.append((P, R, Q))
            self.instances.append(erkg.nuclear.FactorInstance(
                target=target, rank=P.shape[1], norm_order=2, mechanism="bilinear", seed=k))
            k += 1

    def round(self, i):
        return [(f"pool{k}", self._op(inst), 2 * NUCLEAR_RESTARTS)
                for k, inst in enumerate(self.instances)]

    def _op(self, inst):
        return lambda: erkg.nuclear.check_instance(inst, "amgm4", NUCLEAR_RESTARTS)

    def fingerprint(self, name, report):
        return {"nuclear": report.nuclear_value, "lhs": report.lhs_value, "ratio": report.ratio}

    def check(self, name, report, fp):
        k = int(name[len("pool"):])
        return checks.check_nuclear(report, self.instances[k].target, *self.factors[k],
                                    erkg.nuclear.FEASIBILITY_TARGET)


def make_workload(name, inputs, seed):
    if name == "er-uniform":
        return ERWorkload(inputs, seed, [
            ("complex-er-joint", "complex", 128, {"er_mode": "joint"}),
            ("rescal-er-proximity", "rescal", 32, {"er_mode": "proximity"}),
        ], categories=True)
    if name == "er-skewed":
        return ERWorkload(inputs, SKEWED_TRAIN_SEED, [
            ("complex-er-joint-order2", "complex", 32,
             {"er_mode": "joint", "second_order": True}),
        ], categories=False)
    if name == "rank-m":
        return RankWorkload(inputs, seed)
    if name == "nuclear":
        return NuclearWorkload(inputs)
    raise SystemExit(f"unknown workload {name!r}")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def measure(wl, kind, seconds, tracer):
    """Run whole rounds until ``seconds`` of timed work; check every op.

    With a tracer, rounds alternate untraced and traced, so the traced
    run also gives its own overhead and shows the trace changes no result.
    """
    rounds = []  # (traced, items, seconds, seconds at the reference host speed)
    slowness = []  # host slowness of each operation
    ops = []  # (name, seconds, loop slowness before, after) of every operation
    attempted = failed = 0
    failures: list[str] = []
    first_fp: dict[str, dict] = {}
    timed = 0.0
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    i = 0
    while timed < seconds or i < (2 if tracer else 1):
        traced = tracer is not None and i % 2 == 1
        if traced:
            layers.install(tracer)
        items = spent = spent_ref = 0.0
        # Traced runs repeat each round untraced then traced.
        for name, fn, n_items in wl.round(i // 2 if tracer else i):
            attempted += 1
            loops0 = hostspeed.loop_slowness()
            t0 = time.perf_counter()
            try:
                result = fn()
            except erkg.errors.ErkgError as exc:
                failed += 1
                failures.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            took = time.perf_counter() - t0
            loops1 = hostspeed.loop_slowness()
            slow = 0.5 * (hostspeed.slowness(loops0) + hostspeed.slowness(loops1))
            spent += took
            spent_ref += hostspeed.at_reference(took, slow, kind)
            slowness.append(slow)
            ops.append((name, took, loops0, loops1))
            items += n_items
            if traced:
                tracer.uninstall()
            fp = wl.fingerprint(name, result)
            bad = wl.check(name, result, fp)
            if name in first_fp and fp != first_fp[name]:
                bad.append(f"result differs from an earlier identical {name} operation")
            first_fp.setdefault(name, fp)
            if bad:
                failed += 1
                failures += [f"{name}: {msg}" for msg in bad]
            if traced:
                layers.install(tracer)
        if traced:
            tracer.uninstall()
        timed += spent
        if spent > 0:
            rounds.append((traced, items, spent, spent_ref))
        i += 1
    return {
        "rounds": rounds, "ops": ops, "slowness": slowness,
        "attempted": attempted, "failed": failed, "failures": failures,
        "fingerprint": first_fp,
        "cpu_per_wall": (_cpu_s() - cpu0) / (time.perf_counter() - wall0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark measuring process")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)
    t_prep = time.perf_counter()
    wl = make_workload(args.workload, args.inputs, args.seed)
    setup_raw_s = IMPORT_S + time.perf_counter() - t_prep
    if tracer is not None:
        tracer.uninstall()
    hostspeed.loop_slowness()  # warm-up
    setup_loops = hostspeed.loop_slowness()
    setup_slowness = hostspeed.slowness(setup_loops)
    setup_s = hostspeed.at_reference(setup_raw_s, setup_slowness, "setup")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s,
                          "setup_loops": setup_loops}))
        return 0

    n_setup_spans = len(tracer.spans) if tracer is not None else 0
    res = measure(wl, args.workload, args.seconds, tracer)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "setup_loops": setup_loops,
        "import_s": IMPORT_S,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"][:20],
        "fingerprint": res["fingerprint"],
        "cpu_per_wall": res["cpu_per_wall"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": {"build": {k: v for k, v in np.__config__.CONFIG["Build Dependencies"]["blas"].items()
                           if k in ("name", "version", "openblas configuration")},
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    plain = [(n / s, n / s_ref) for traced, n, s, s_ref in res["rounds"] if not traced]
    out["items_per_s"] = statistics.median(r for _, r in plain)
    out["items_per_s_raw"] = statistics.median(r for r, _ in plain)
    out["round_items_per_s"] = [r for _, r in plain]
    out["round_items_per_s_raw"] = [r for r, _ in plain]
    out["slowness"] = res["slowness"]
    out["ops"] = res["ops"]
    if tracer is not None:
        traced = [(n, s_ref) for t, n, _, s_ref in res["rounds"] if t]
        plain_s = statistics.median(s_ref for t, _, _, s_ref in res["rounds"] if not t)
        out["trace"] = layers.per_layer(
            tracer, n_setup_spans, len(traced), IMPORT_S, res["cpu_per_wall"],
            statistics.median(s for _, s in traced) / plain_s - 1.0)
        out["trace_absent"] = sorted(set(tracer.absent))
    print(json.dumps(out, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
