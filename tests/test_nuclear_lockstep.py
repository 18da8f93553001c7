"""The lockstep restart driver against the sequential oracle driver.

``erkg.nuclear`` runs every restart of a check in lockstep on one stacked
stage objective; ``nuclear_oracle.optimize`` runs each restart's stages
in turn on the objective of one restart, through ``nuclear_oracle.minimize``.
Each restart must reach bitwise the same iterate with the same objective
calls and L-BFGS-B iterations, and every report field must be bitwise
the same, also when some restarts end infeasible or meet non-finite
values while the others go on.
"""

from dataclasses import astuple

import numpy as np
import pytest

from erkg import nuclear
from erkg.errors import InfeasibleError
from erkg.nuclear import VARIANTS, check_instance, make_instance
from nuclear_oracle import lockstep_records, sequential

SHAPES = [(3, 2, 3, 2), (2, 2, 2, 1)]


def _outcome(variant, inst, restarts):
    """Every field of the check's report (floats by their bits), or the
    infeasibility message."""
    try:
        rep = check_instance(inst, variant, restarts)
    except InfeasibleError as exc:
        return str(exc)
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(rep))


def _assert_same(variant, inst, restarts, memo=None):
    """The lockstep driver's outcome and restarts equal the sequential
    driver's (which reuses the restarts in ``memo``, kept per instance)."""
    with lockstep_records() as ours:
        got = _outcome(variant, inst, restarts)
    with sequential(memo=memo) as ref:
        want = _outcome(variant, inst, restarts)
    assert got == want
    # a set with no feasible restart ends the sequential check before the
    # next set runs; the lockstep ran both sets by then
    assert len(ours) == 2 * restarts
    if isinstance(want, tuple):
        assert len(ref) == len(ours)
    for k, (a, b) in enumerate(zip(ours, ref)):
        assert (a["calls"], a["nit"]) == (b["calls"], b["nit"]), k
        assert np.array_equal(a["x"], b["x"]), k
    return got


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_restarts_and_reports_equal_the_sequential_oracle(variant):
    var = VARIANTS[variant]
    for shape in SHAPES:
        for seed in range(3):
            inst = make_instance(*shape, var.norm_order, var.mechanism, seed)
            memo = {}
            for restarts in (3, 2, 1):
                _assert_same(variant, inst, restarts, memo)


def test_restart_runs_on_while_another_ends_infeasible(monkeypatch):
    """At a feasibility target of 1e-15 one of the three amgm4 restarts
    runs all its stages and ends infeasible while the others stop early."""
    monkeypatch.setattr(nuclear, "FEASIBILITY_TARGET", 1e-15)
    got = _assert_same("amgm4", make_instance(2, 2, 2, 1, 2, "bilinear", 0), 3)
    assert got[-2:] == (2, 3)  # lhs_feasible, nuclear_feasible


def test_restarts_run_on_past_non_finite_values(monkeypatch):
    """A variant whose raw value and gradient turn NaN once sum |P| > 3.5
    (checked per restart) leaves one of three restarts feasible."""
    real = nuclear._variant_grads

    def poisoned(P, R, Q, name):
        val, *grads = real(P, R, Q, name)
        bad = np.add.reduce(np.abs(P), (-2, -1)) > 3.5
        return (np.where(bad, np.nan, val),
                *(np.where(bad[..., None, None], np.nan, g) for g in grads))

    monkeypatch.setattr(nuclear, "_variant_grads", poisoned)
    with np.errstate(invalid="ignore"):
        got = _assert_same("amgm4", make_instance(3, 2, 3, 2, 2, "bilinear", 1), 3)
    assert got[-2:] == (1, 3)


def test_infeasible_check_raises_the_oracles_message(monkeypatch):
    monkeypatch.setattr(nuclear, "FEASIBILITY_TARGET", 1e-16)
    got = _assert_same("amgm4", make_instance(2, 2, 2, 1, 2, "bilinear", 0), 3)
    assert got.startswith("no restart reached relative residual 1e-16 (best ")
