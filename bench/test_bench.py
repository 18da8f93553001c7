"""Tests of the benchmark's own checks, counters and tracer.

    PYTHONPATH=src:. python3 -m pytest -q bench/test_bench.py

Each correctness check passes on a tiny graph or instance and fails on a
deliberately corrupted result.
"""

import dataclasses

import numpy as np
import pytest

import erkg
from bench import checks, hostspeed, inputs, layers, worker
from bench.tracer import Tracer

TINY = dict(n_entities=60, n_categories=4, n_relations=3,
            triples_per_relation=40, noise_rate=0.1)


@pytest.fixture(scope="module")
def tiny_graph(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    triples, cats = inputs.synthetic(TINY, seed=5)
    inputs.write_graph(out, triples, TINY["n_entities"], TINY["n_relations"], cats)
    return out


@pytest.fixture(scope="module")
def trained(tiny_graph):
    wl = worker.ERWorkload(tiny_graph, 3, [
        ("complex", "complex", 16, {"er_mode": "joint", "second_order": True}),
        ("rescal", "rescal", 8, {"er_mode": "proximity"}),
    ], categories=True)
    return wl, {name: fn() for name, fn, _ in wl.round(0)}


@pytest.mark.parametrize("name", ["complex", "rescal"])
def test_training_checks_pass_on_tiny_graph(trained, name):
    wl, results = trained
    fp = wl.fingerprint(name, results[name])
    assert wl.check(name, results[name], fp) == []
    assert fp["valid_mrr"] > 0


def test_first_batch_loss_catches_a_wrong_loss(trained):
    wl, _ = trained
    store = wl.store
    params0 = erkg.models.init_params("complex", store.vocab.n_entities,
                                      store.vocab.n_relations, 16, 0)
    batch = store.train[:20]
    loss = erkg.training._batch_ce(params0, batch)[0]
    assert checks.check_first_batch_loss("complex", params0, batch, loss) == []
    assert checks.check_first_batch_loss("complex", params0, batch, loss * (1 + 1e-6))


def test_flipped_gradient_sign_fails_the_derivative_check():
    a = np.array([0.3, -1.2, 0.7])
    v = np.array([1.0, 0.5, -2.0])

    def f(t):
        x = a + t * v
        return float(np.sum(np.sin(x)) + np.dot(x, x))

    slope = float(np.dot(np.cos(a) + 2 * a, v))
    assert checks.check_directional_derivative(f, slope) == []
    assert checks.check_directional_derivative(f, -slope)


def test_non_finite_parameters_and_no_learning_fail():
    p = erkg.models.init_params("complex", 5, 2, 4, 0)
    assert checks.check_params(p) == []
    p.entity[1, 2] = np.nan
    assert checks.check_params(p)
    assert checks.check_mrr_improved(0.2, 0.1) == []
    assert checks.check_mrr_improved(0.1, 0.1)


@pytest.fixture(scope="module")
def ranked(tiny_graph):
    wl = worker.RankWorkload(tiny_graph, 2)
    name, fn, _ = wl.round(0)[0]
    return wl, name, fn()


def test_rank_checks_pass_on_tiny_graph(ranked):
    wl, name, report = ranked
    assert wl.check(name, report, wl.fingerprint(name, report)) == []


def test_rank_off_by_one_fails(ranked):
    wl, name, report = ranked
    ranks = report.per_query_ranks.copy()
    ranks[0] += 1
    ent, rel = wl.params.entity, wl.params.relation
    fails = checks.check_ranks(
        lambda h, r: checks.own_tail_scores("complex", ent, rel, [h], [r])[0],
        wl.queries, wl.store.all_triples(), ranks, [0])
    assert fails


def test_report_must_match_its_ranks(ranked):
    _, _, report = ranked
    ranks = report.per_query_ranks
    assert checks.check_report_from_ranks(report, ranks) == []
    bad = dataclasses.replace(report, mrr=report.mrr + 1e-12)
    assert checks.check_report_from_ranks(bad, ranks)


def test_rank_bounds_cover_ties():
    scores = np.array([0.5, 0.9, 0.5, 0.5, 0.1])
    # target 0 ties with 2 and 3; entity 1 is a known true tail.
    assert checks.own_filtered_rank_bounds(scores, 0, np.array([0, 1])) == (1.0, 3.0)


def test_nuclear_check_passes_and_catches_a_low_value(tmp_path):
    inputs.generate("nuclear", 0, tmp_path)
    wl = worker.NuclearWorkload(tmp_path)
    name, fn, _ = wl.round(0)[0]
    report = fn()
    assert wl.check(name, report, wl.fingerprint(name, report)) == []
    frob = float(np.linalg.norm(wl.instances[0].target))
    low = dataclasses.replace(report, nuclear_value=0.99 * frob)
    assert wl.check(name, low, {})
    flagged = dataclasses.replace(report, flagged=True)
    assert wl.check(name, flagged, {})


def test_eligible_counts_match_exhaustive_sampling(trained):
    wl, _ = trained
    store = wl.store
    batch = store.train[:200]
    tr = Tracer()
    layers.install(tr)
    try:
        big = 10**9
        erkg.training.select_pairs(batch, big, 0)
        erkg.training.sample_path_pairs(store, batch, big, 0)
    finally:
        tr.uninstall()
    for layer in ("select_pairs", "sample_path_pairs"):
        kept = tr.counts[f"regularizers.{layer}.kept"]
        assert kept > 0
        assert kept == tr.counts[f"regularizers.{layer}.eligible"]


def test_tracer_self_time_and_uninstall():
    class Mod:
        @staticmethod
        def outer():
            Mod.inner()
            Mod.inner()

        @staticmethod
        def inner():
            sum(range(1000))

    orig_outer = Mod.outer
    tr = Tracer()
    tr.wrap(Mod, "outer", "outer")
    tr.wrap(Mod, "inner", "inner")
    tr.wrap(Mod, "gone", "gone")
    Mod.outer()
    tr.uninstall()
    assert Mod.outer is orig_outer
    s = tr.summary()
    assert s["inner"]["calls"] == 2 and s["outer"]["calls"] == 1
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["s"] - s["inner"]["s"])
    assert tr.absent and tr.absent[0].endswith(".gone")


def test_per_layer_names_every_metric():
    tr = Tracer()
    out = layers.per_layer(tr, 0, 1, 0.5, 1.0, 0.0)
    assert list(out) == [m for m, _ in layers.METRICS]


def test_zipf_graph_is_seeded_and_skewed():
    a = inputs.zipf_graph(seed=1, **inputs.SKEWED)
    b = inputs.zipf_graph(seed=1, **inputs.SKEWED)
    assert np.array_equal(a, b)
    assert len({tuple(t) for t in a.tolist()}) == len(a)
    n = inputs.SKEWED["n_entities"]
    deg = np.bincount(a[:, 0], minlength=n) + np.bincount(a[:, 2], minlength=n)
    assert deg.max() > 20 * np.median(deg[deg > 0])


def test_gemm_flops_from_shapes():
    assert layers.gemm_flops("complex", 2, 3, 4, False) == 4 * 2 * 3 * 4
    assert layers.gemm_flops("rescal", 2, 3, 4, True) == 2 * (2 * 2 * 3 * 4 + 2 * 2 * 16)


def test_host_speed_scales_times_to_the_reference():
    loops = hostspeed.loop_slowness()
    assert len(loops) == len(hostspeed.REFERENCE_S) and all(x > 0 for x in loops)
    assert hostspeed.slowness([1.0, 2.0, 3.0]) == 2.0
    assert hostspeed.at_reference(3.0, 1.0, "nuclear") == 3.0
    # A host twice as slow takes 2 ** k as long; k differs per workload.
    for kind, k in hostspeed.SENSITIVITY.items():
        assert hostspeed.at_reference(2.0 ** k, 2.0, kind) == pytest.approx(1.0)
