"""Penalties add into the caller's accumulator, merged once per batch.

Each penalty adds ``scale`` times its gradient rows to a ``GradAccumulator``
it is given and returns its value; ``batch_objective`` merges the loss
and penalty rows with a single ``finalize``.  The penalties of
``penalty_oracle`` merge their own gradient sets, with the first- and
second-order ER terms written out separately; the two must agree up to
the regrouped summation.
"""

import numpy as np
import pytest

import penalty_oracle
from erkg import regularizers
from erkg.grads import GradAccumulator, densify
from erkg.regularizers import sample_path_pairs, select_pairs
from erkg.training import batch_objective
from gradcheck import build_problem, supported_combos

RTOL = 1e-13
# Its batch has kept pairs in every ER mode, and path pairs whose two
# relations differ, so a gradient sent to the wrong hop shows.
SEED = 2


def assert_close(got, ref):
    """Within RTOL, with an absolute floor at RTOL times the block's
    largest entry (regrouping errs relative to the summands)."""
    floor = RTOL * np.abs(ref).max() if ref.size else 0.0
    np.testing.assert_allclose(got, ref, rtol=RTOL, atol=floor)


def penalty_calls(params, batch, spec, categories, eps, store):
    """(name, new form taking (acc, scale), oracle form) per penalty of ``spec``."""
    if spec.kind != "er":
        name = f"penalty_{spec.kind}"
        new, old = getattr(regularizers, name), getattr(penalty_oracle, name)
        return [(name, lambda acc, s: new(params, batch, acc, s), lambda: old(params, batch))]
    pairs = select_pairs(batch, spec.pair_budget, 17)
    calls = [(
        "penalty_er",
        lambda acc, s: regularizers.penalty_er(
            params, batch, pairs, spec, acc, s, categories, eps),
        lambda: penalty_oracle.penalty_er(params, batch, pairs, spec, categories, eps),
    )]
    if spec.second_order:
        paths = sample_path_pairs(store, batch, spec.path_budget, 29)
        calls.append((
            "penalty_er_second_order",
            lambda acc, s: regularizers.penalty_er_second_order(
                params, paths, spec, acc, s, categories, eps),
            lambda: penalty_oracle.penalty_er_second_order(
                params, paths, spec, categories, eps),
        ))
    return calls


PENALTY_COMBOS = [c for c in supported_combos() if c[1] != "none"]


@pytest.mark.parametrize("scale", [1.0, 0.05])
@pytest.mark.parametrize(
    "kind,reg,mode,order,second", PENALTY_COMBOS, ids=lambda v: str(v)
)
def test_penalty_matches_oracle(kind, reg, mode, order, second, scale):
    params, eps, batch, spec, categories, store = build_problem(
        kind, reg, mode, order, second, SEED
    )
    shapes = params.grad_shapes()
    for name, new, old in penalty_calls(params, batch, spec, categories, eps, store):
        ref_value, ref_grads = old()
        acc = GradAccumulator()
        value = new(acc, scale)
        got_grads = acc.finalize(shapes)
        assert value == pytest.approx(ref_value, rel=RTOL, abs=0.0), name
        assert sorted(got_grads) == sorted(ref_grads), name
        got, ref = densify(got_grads, shapes), densify(ref_grads, shapes)
        for block in shapes:
            assert_close(got[block], scale * ref[block])


def test_oracle_cases_reach_every_pair_term():
    """The comparison above meets nonzero pair and path terms, and paths
    through two different relations."""
    seen = set()
    for kind, reg, mode, order, second in PENALTY_COMBOS:
        if reg != "er":
            continue
        params, eps, batch, spec, categories, store = build_problem(
            kind, reg, mode, order, second, SEED
        )
        for name, _, old in penalty_calls(params, batch, spec, categories, eps, store):
            value, grads = old()
            if grads.get("rel") is not None and value > 0.0:
                seen.add((kind, name, mode))
        if second:
            paths = sample_path_pairs(store, batch, spec.path_budget, 29)
            assert np.any(paths.rel1 != paths.rel2)
    for kind in {c[0] for c in PENALTY_COMBOS}:
        for mode in ("proximity", "dissimilarity", "joint"):
            assert (kind, "penalty_er", mode) in seen
        for mode in ("proximity", "joint"):
            assert (kind, "penalty_er_second_order", mode) in seen


@pytest.mark.parametrize(
    "kind,reg,mode,order,second", supported_combos(), ids=lambda v: str(v)
)
def test_batch_objective_merges_once(kind, reg, mode, order, second, monkeypatch):
    params, eps, batch, spec, categories, store = build_problem(
        kind, reg, mode, order, second
    )
    calls = []
    finalize = GradAccumulator.finalize

    def counted(self, shapes):
        calls.append(1)
        return finalize(self, shapes)

    monkeypatch.setattr(GradAccumulator, "finalize", counted)
    batch_objective(params, batch, spec, categories, eps, store, pair_seed=17, path_seed=29)
    assert len(calls) == 1
