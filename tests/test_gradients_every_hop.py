"""Finite-difference checks of the pair-penalty gradients on a problem
whose batch reaches every hop.

At this problem seed the batch keeps dissimilarity pairs and samples
path pairs whose two relations differ, some of them sharing one key, so
a gradient sent to the wrong hop's relation, a dropped sum term, or a
key weighted by the wrong count changes the directional derivative.
"""

import numpy as np
import pytest

from erkg.regularizers import sample_path_pairs, select_pairs
from gradcheck import REL_TOL, build_problem, run_probes, supported_combos

SEED = 2
PAIR_COMBOS = [c for c in supported_combos() if c[1] in ("er", "dura")]


def test_problem_reaches_every_hop():
    _, _, batch, spec, categories, store = build_problem(
        "complex", "er", "dissimilarity", 2, True, SEED
    )
    pairs = select_pairs(batch, spec.pair_budget, 17)
    labels_a = categories.labels_for(pairs.head_a)
    labels_b = categories.labels_for(pairs.head_b)
    assert np.any(labels_a != labels_b)
    paths = sample_path_pairs(store, batch, spec.path_budget, 29)
    assert np.any(paths.chain[0] != paths.chain[1])


def test_problem_repeats_path_keys():
    """Some kept path pairs share their (h_a, h_b, r1, r2) key, so the
    checks below see terms and gradient rows weighted by key counts."""
    _, _, batch, spec, _, store = build_problem("complex", "er", "joint", 2, True, SEED)
    paths = sample_path_pairs(store, batch, spec.path_budget, 29)
    keys = np.stack([paths.head_a, paths.head_b, *paths.chain], axis=1)
    assert len(np.unique(keys, axis=0)) < paths.n


@pytest.mark.parametrize("kind,reg,mode,order,second", PAIR_COMBOS, ids=lambda v: str(v))
def test_pair_penalty_gradient(kind, reg, mode, order, second):
    worst = run_probes(kind, reg, mode, order, second, n_probes=5, seed=SEED)
    assert worst <= REL_TOL, f"worst relative FD error {worst:.3e}"
