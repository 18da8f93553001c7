"""The nuclear lab's own L-BFGS-B loop against ``scipy.optimize.minimize``.

``nuclear._lbfgsb`` drives scipy's compiled L-BFGS-B core directly, one
stage of it run by ``tests/nuclear_oracle.py::minimize``; the oracle
(``tests/nuclear_oracle.py::scipy_minimize``) runs the same stage
through scipy's wrapper.  The iteration and evaluation limits and
non-finite objectives must go exactly the same way on both, and whole
checks by the lockstep driver exactly as by the sequential oracle driver
with scipy's wrapper running each stage.
"""

import os
import subprocess
import sys
import types
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from erkg import cli, nuclear
from erkg.errors import ConfigError, InfeasibleError
from erkg.nuclear import VARIANTS, check_instance, make_instance
from nuclear_oracle import lockstep_records, minimize, scipy_minimize, sequential

DRIVER = minimize


def _counting(minimizer, tally):
    """``minimizer`` with its objective calls and iterations added to ``tally``."""

    def run(fun, x0):
        def counted(x):
            tally["calls"] += 1
            return fun(x)

        result = minimizer(counted, x0)
        tally["nit"] += result.nit
        return result

    return run


def _bits(value):
    return value.hex() if isinstance(value, float) else value


def _outcome(variant, shape, seed, restarts=3):
    """Every field of the check's report (floats by their bits), or the
    infeasibility message."""
    var = VARIANTS[variant]
    inst = make_instance(*shape, var.norm_order, var.mechanism, seed)
    try:
        return tuple(_bits(v) for v in astuple(check_instance(inst, variant, restarts)))
    except InfeasibleError as exc:
        return str(exc)


def _check(minimizer, variant, shape, seed):
    """The check's outcome, plus the objective calls and iterations: by
    the lockstep driver for ``DRIVER``, else by the sequential oracle
    driver with ``minimizer`` running each stage."""
    if minimizer is DRIVER:
        with lockstep_records() as record:
            outcome = _outcome(variant, shape, seed)
        return outcome, {"calls": sum(r["calls"] for r in record),
                         "nit": sum(r["nit"] for r in record)}
    tally = {"calls": 0, "nit": 0}
    with sequential(_counting(minimizer, tally)):
        outcome = _outcome(variant, shape, seed)
    return outcome, tally


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_checks_equal_scipy_bitwise(variant):
    for shape in ((3, 2, 3, 2), (2, 2, 2, 1)):
        for seed in range(3):
            ours = _check(DRIVER, variant, shape, seed)
            ref = _check(scipy_minimize, variant, shape, seed)
            assert ours == ref, (shape, seed)


def _stage(minimizer, make_fun, x0):
    """``(x, nit, calls)`` of one stage on the objective ``make_fun(calls)``,
    which may read the number of calls made so far."""
    calls = [0]
    fun = make_fun(calls)

    def counted(x):
        calls[0] += 1
        return fun(x)

    result = minimizer(counted, x0)
    return result.x, result.nit, calls[0]


X0 = np.linspace(-1.0, 1.0, 40) + 0.3


def _ill_conditioned(calls):
    lam = np.logspace(0, 9, len(X0))
    return lambda x: (0.5 * float(lam @ (x * x)), lam * x)


def _drifting(calls):
    # the value falls by one per call and the gradient never vanishes, so
    # only the evaluation limit ends the stage; an extra or a missing call
    # changes every later value
    return lambda x: (float(x @ x) - calls[0], 2.0 * x + 1e-3 * (-1) ** calls[0])


def test_iteration_limit_matches_scipy():
    x, nit, calls = _stage(DRIVER, _ill_conditioned, X0)
    ref_x, ref_nit, ref_calls = _stage(scipy_minimize, _ill_conditioned, X0)
    assert nit == ref_nit == nuclear.STAGE_ITERS
    assert calls == ref_calls
    assert np.array_equal(x, ref_x)


def test_evaluation_limit_matches_scipy(monkeypatch):
    monkeypatch.setattr(nuclear, "STAGE_ITERS", 10**6)
    x, nit, calls = _stage(DRIVER, _drifting, X0)
    ref_x, ref_nit, ref_calls = _stage(scipy_minimize, _drifting, X0)
    # the limit is checked once per iteration, so the stage ends after the
    # iteration in which the count first exceeds it
    assert nuclear.STAGE_MAXFUN < calls <= nuclear.STAGE_MAXFUN + nuclear.STAGE_MAXLS + 1
    assert (nit, calls) == (ref_nit, ref_calls)
    assert nit < nuclear.STAGE_ITERS
    assert np.array_equal(x, ref_x)


def _smooth(x):
    return float(x @ x + np.sum(np.sin(3.0 * x))), 2.0 * x + 3.0 * np.cos(3.0 * x)


def _nan_value(calls):
    return lambda x: (float("nan"), 2.0 * x)


def _nan_later(calls):
    nan = np.full(len(X0), np.nan)
    return lambda x: (float("nan"), nan) if calls[0] > 3 else _smooth(x)


def test_nan_value_ends_the_stage_as_scipy_does():
    x, nit, calls = _stage(DRIVER, _nan_value, X0)
    ref_x, ref_nit, ref_calls = _stage(scipy_minimize, _nan_value, X0)
    assert (nit, calls) == (ref_nit, ref_calls)
    assert calls < 10
    assert np.array_equal(x, ref_x)


def test_nan_value_and_gradient_end_the_stage_as_scipy_does():
    """The core steps to non-finite points and then gives up at the last
    finite iterate.  scipy's ``MemoizeJac`` compares points with ``==``,
    so it evaluates each non-finite point twice; the driver evaluates it
    once, and the iterates and iterations are the same."""
    x, nit, calls = _stage(DRIVER, _nan_later, X0)
    ref_x, ref_nit, ref_calls = _stage(scipy_minimize, _nan_later, X0)
    assert nit == ref_nit
    assert np.array_equal(x, ref_x) and np.all(np.isfinite(x))
    assert 3 < calls < ref_calls < 200


def _lbfgsb_module(monkeypatch, **attrs):
    pytest.importorskip("scipy.optimize")
    monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", types.SimpleNamespace(**attrs))


def test_missing_core_is_a_config_error(monkeypatch):
    _lbfgsb_module(monkeypatch)
    with pytest.raises(ConfigError, match="scipy >= 1.15"):
        DRIVER(_smooth, X0)


def test_core_with_another_signature_exits_2(monkeypatch, capsys):
    def setulb(m, x, l, u, nbd, f, g, factr, pgtol, wa, iwa, task, iprint, csave,
               lsave, isave, dsave, maxls):
        raise AssertionError("not reached")

    _lbfgsb_module(monkeypatch, setulb=setulb)
    with pytest.raises(ConfigError, match="scipy >= 1.15"):
        DRIVER(_smooth, X0)
    assert cli.main(["verify-theorems", "--seeds", "1", "--restarts", "1"]) == 2
    assert "scipy >= 1.15" in capsys.readouterr().err


def test_import_erkg_leaves_scipy_optimize_unloaded():
    src = Path(nuclear.__file__).resolve().parents[1]
    code = "import sys, erkg; print('scipy.optimize' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_import_erkg_leaves_scipy_unloaded():
    """scipy's CSR kernel waits for the first gradient merge and the
    L-BFGS-B core for the first stage, so ``import erkg`` loads no scipy
    at all (and training loads no ``scipy.sparse``, see ``test_grads``)."""
    src = Path(nuclear.__file__).resolve().parents[1]
    code = "import sys, erkg; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
