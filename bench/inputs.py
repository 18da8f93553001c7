"""Seeded input generation for the benchmark workloads.

Runs in its own interpreter, before the measuring process starts, so the
generators' memory and time count toward neither ``setup_s`` nor
``peak_rss_mb``.  Usage:

    python3 bench/inputs.py --workload er-uniform --seed 3 --out DIR

writes ``train.txt``/``valid.txt``/``test.txt`` for the graph workloads
(``er-uniform`` also ``categories.txt``), or ``factors.npz`` for
``nuclear``, plus ``stats.json`` describing the input.  The same seed gives the same files.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

# Graph shapes.  er-uniform is the ROADMAP's S graph (2,000 entities, 8
# categories, 20 relations) scaled down to 250 triples per relation so a
# round of training fits a run several times over.
UNIFORM = dict(n_entities=2000, n_categories=8, n_relations=20,
               triples_per_relation=250, noise_rate=0.05)
# About FB15k-237's size: 14.5k entities, 237 relations, 270k triples.
M_SCALE = dict(n_entities=14500, n_categories=50, n_relations=237,
               triples_per_relation=1140, noise_rate=0.05)
# Heavy-tailed graph: entity and relation popularity fall off as
# 1 / rank**exponent, so a few hub entities carry most edges.  Its wiring
# is fixed: path sampling costs the square of the hub groups, so one
# wiring's epoch differs from another's by up to 20%; the seed orders
# the training instead (see README).
SKEWED = dict(n_entities=2000, n_relations=20, n_triples=2000,
              entity_exponent=1.0, relation_exponent=1.0)
SKEWED_GRAPH_SEED = 2206
# Nuclear lab: amgm4 checks on 3 x 2 x 3 targets of rank 2.  The pool of
# factor sets is fixed: the cost of one check varies up to 7x between
# targets, which no run length averages out, so the seed does not pick
# the targets (see README).
NUCLEAR = dict(dims=(3, 2, 3), rank=2, pool=6, pool_seed=2206)


def _zipf_counts(n_items, total, exponent, rng):
    """Exact use counts proportional to 1 / rank**exponent, ranks shuffled."""
    w = 1.0 / np.arange(1, n_items + 1) ** exponent
    w *= total / w.sum()
    counts = np.floor(w).astype(np.int64)
    extra = np.argsort(counts - w, kind="stable")[: total - counts.sum()]
    counts[extra] += 1
    return counts[rng.permutation(n_items)]


def zipf_graph(n_entities, n_relations, n_triples, entity_exponent,
               relation_exponent, seed):
    """Distinct (h, r, t) triples with Zipf-like entity and relation use.

    Every entity gets a head count and a tail count, and every relation a
    use count, proportional to ``1 / rank**exponent`` (a configuration
    model, so hub degrees do not vary with the seed).  The seed shuffles
    which ids get which rank and how head, relation and tail slots pair
    up; self loops and repeated triples are dropped.  Returns the triples
    in random order.
    """
    rng = np.random.default_rng(seed)
    ent = np.arange(n_entities)
    h = np.repeat(ent, _zipf_counts(n_entities, n_triples, entity_exponent, rng))
    t = np.repeat(ent, _zipf_counts(n_entities, n_triples, entity_exponent, rng))
    r = np.repeat(np.arange(n_relations),
                  _zipf_counts(n_relations, n_triples, relation_exponent, rng))
    h, r, t = rng.permutation(h), rng.permutation(r), rng.permutation(t)
    codes = (h * n_relations + r) * n_entities + t
    codes = codes[h != t]
    _, first = np.unique(codes, return_index=True)
    codes = codes[np.sort(first)]
    triples = np.stack(
        [codes // (n_relations * n_entities),
         (codes // n_entities) % n_relations,
         codes % n_entities], axis=1)
    return triples


def _write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


def _graph_stats(all_triples, n_entities, n_relations):
    deg = np.bincount(all_triples[:, 0], minlength=n_entities) + np.bincount(
        all_triples[:, 2], minlength=n_entities)
    freq = np.bincount(all_triples[:, 1], minlength=n_relations)
    top = np.sort(deg)[::-1]
    return {
        "triples": int(len(all_triples)),
        "entities": int(n_entities),
        "relations": int(n_relations),
        "degree_max": int(top[0]),
        "degree_mean": float(deg.mean()),
        "degree_median": float(np.median(deg)),
        "top1pct_edge_share": float(top[: max(1, n_entities // 100)].sum() / deg.sum()),
        "relation_freq_max": int(freq.max()),
        "relation_freq_min": int(freq.min()),
    }


def write_graph(out: Path, triples, n_entities, n_relations, cats=None):
    """Split shuffled triples 80/10/10; write the TSV splits (and categories)."""
    n = len(triples)
    n_train, n_valid = int(n * 0.8), int(n * 0.1)
    parts = {"train": triples[:n_train],
             "valid": triples[n_train:n_train + n_valid],
             "test": triples[n_train + n_valid:]}
    for name, arr in parts.items():
        _write_tsv(out / f"{name}.txt",
                   ((f"e{h}", f"r{r}", f"e{t}") for h, r, t in arr.tolist()))
    if cats is not None:
        _write_tsv(out / "categories.txt",
                   ((f"e{e}", f"c{c}") for e, c in enumerate(cats.tolist())))
    return _graph_stats(triples, n_entities, n_relations)


def synthetic(spec, seed):
    """``erkg.generate_synthetic`` output as (shuffled triples, categories)."""
    from erkg.data import generate_synthetic

    store, cmap = generate_synthetic(seed=seed, **spec)
    cats = np.array([cmap.category_of[e] for e in range(spec["n_entities"])])
    # The store's splits are already a seeded shuffle; keep their order.
    return np.concatenate([store.train, store.valid, store.test]), cats


def nuclear_factors(dims, rank, pool, pool_seed):
    """Pool of factor sets (P, R, Q), each column scaled to unit norm."""
    rng = np.random.default_rng(pool_seed)
    out = {}
    for k in range(pool):
        for name, n in zip("PRQ", dims):
            F = rng.uniform(-1.0, 1.0, size=(n, rank))
            out[f"{name}{k}"] = F / np.linalg.norm(F, axis=0)
    return out


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "er-uniform":
        triples, cats = synthetic(UNIFORM, seed)
        stats = write_graph(out, triples, UNIFORM["n_entities"], UNIFORM["n_relations"], cats)
        stats["generator"] = dict(UNIFORM, seed=seed, fn="erkg.generate_synthetic")
    elif workload == "rank-m":
        triples, _ = synthetic(M_SCALE, seed)
        stats = write_graph(out, triples, M_SCALE["n_entities"], M_SCALE["n_relations"])
        stats["generator"] = dict(M_SCALE, seed=seed, fn="erkg.generate_synthetic")
    elif workload == "er-skewed":
        triples = zipf_graph(seed=SKEWED_GRAPH_SEED, **SKEWED)
        stats = write_graph(out, triples, SKEWED["n_entities"], SKEWED["n_relations"])
        stats["generator"] = dict(SKEWED, seed=SKEWED_GRAPH_SEED, fn="bench.inputs.zipf_graph")
    elif workload == "nuclear":
        spec = dict(NUCLEAR)
        np.savez(out / "factors.npz", **nuclear_factors(**spec))
        stats = {"generator": dict(spec, fn="bench.inputs.nuclear_factors")}
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "stats.json").write_text(json.dumps(stats, indent=1, sort_keys=True))
    return stats


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
