"""Gradients of the nuclear lab: central differences and the einsum oracle.

Each raw gradient (the five variants and the nuclear t-norm) and the
penalized stage objective that L-BFGS-B minimizes are checked entry by
entry against central differences, and against ``nuclear_oracle`` to
1e-12 relative at seeded random points.  The stage objective is the
driver's ``nuclear._stage_objective`` on the arguments of its first
round, which a stub hands back with the restart's start point.
"""

import numpy as np
import pytest

import nuclear_oracle as oracle
from erkg import nuclear
from erkg.nuclear import VARIANTS, _nuclear_grads, _variant_grads, make_instance

FD_STEP = 1e-6
FD_TOL = 1e-6
ORACLE_TOL = 1e-12

# (I, J, K, D): the lab's own size and one with every dimension distinct
SHAPES = [(3, 2, 3, 2), (4, 3, 2, 3)]
# (objective, norm order, mechanism): each variant at its own norm order,
# and the nuclear t-norm at both orders
STAGES = [(name, var.norm_order, var.mechanism) for name, var in VARIANTS.items()]
STAGES += [("nuclear", 2, "bilinear"), ("nuclear", 3, "bilinear")]


def _factors(shape, seed):
    I, J, K, D = shape
    rng = np.random.default_rng(seed)
    return [rng.normal(0.0, 1.0, size=(n, D)) for n in (I, J, K)]


def _raw(name, t):
    """The program's and the oracle's raw gradient for one objective."""
    if name == "nuclear":
        return (lambda P, R, Q: _nuclear_grads(P, R, Q, t),
                lambda P, R, Q: oracle.nuclear_grads(P, R, Q, t))
    return (lambda P, R, Q: _variant_grads(P, R, Q, name),
            lambda P, R, Q: oracle.variant_grads(P, R, Q, name))


def _assert_fd(fun, x, grad):
    """Central difference of scalar ``fun`` at every entry of ``x``."""
    fd = np.empty_like(x)
    for idx in np.ndindex(x.shape):
        up, dn = x.copy(), x.copy()
        up[idx] += FD_STEP
        dn[idx] -= FD_STEP
        fd[idx] = (fun(up) - fun(dn)) / (2.0 * FD_STEP)
    scale = max(1.0, float(np.max(np.abs(grad))))
    np.testing.assert_allclose(grad, fd, rtol=FD_TOL, atol=FD_TOL * scale)


def _assert_close(value, grads, ref_value, ref_grads):
    assert value == pytest.approx(ref_value, rel=ORACLE_TOL, abs=ORACLE_TOL)
    for g, ref in zip(grads, ref_grads):
        scale = max(1.0, float(np.max(np.abs(ref))))
        np.testing.assert_allclose(g, ref, rtol=0.0, atol=ORACLE_TOL * scale)


def _raw_fd(raw, blocks):
    _val, *grads = raw(*blocks)
    for b, grad in enumerate(grads):
        def fun(M, b=b):
            args = list(blocks)
            args[b] = M
            return raw(*args)[0]

        _assert_fd(fun, blocks[b], grad)


class _Stage(Exception):
    """Carries the first round's stage-objective arguments out of a check."""


def _stage(monkeypatch, name, t, mechanism, shape, seed):
    """The stage objective of one restart's first stage, as the driver
    evaluates it, and the restart's start point."""
    def stub(T, scale, X, groups):
        raise _Stage(T.copy(), scale, X, list(groups))

    I, J, K, D = shape
    inst = make_instance(I, J, K, D, t, mechanism, seed)
    objective = nuclear._stage_objective
    monkeypatch.setattr(nuclear, "_stage_objective", stub)
    with pytest.raises(_Stage) as info:
        nuclear._optimize(inst, [name], 1)
    T, scale, X, groups = info.value.args

    def fun(theta):
        val, grad = objective(theta.reshape(T.shape), scale, X, groups)
        return val[0], grad.ravel()

    return inst, fun, T.ravel()


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_grads_match_central_differences(name, shape):
    _raw_fd(_raw(name, None)[0], _factors(shape, seed=3))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("t", [2, 3])
def test_nuclear_grads_match_central_differences(t, shape):
    _raw_fd(_raw("nuclear", t)[0], _factors(shape, seed=4))


@pytest.mark.parametrize("t", [2, 3])
def test_nuclear_grads_zero_column(t):
    """An all-zero column contributes nothing and gets a zero gradient in
    every factor, as the symmetric central difference does; the other
    columns keep their gradients."""
    P, R, Q = _factors((3, 2, 3, 2), seed=5)
    P[:, 1] = 0.0
    val, gP, gR, gQ = _nuclear_grads(P, R, Q, t)
    for g in (gP, gR, gQ):
        assert np.all(np.isfinite(g))
        assert np.all(g[:, 1] == 0.0)
    assert val == pytest.approx(_nuclear_grads(P[:, :1], R[:, :1], Q[:, :1], t)[0], rel=1e-15)
    _raw_fd(_raw("nuclear", t)[0], [P, R, Q])
    ref_val, *ref_grads = oracle.nuclear_grads(P, R, Q, t)
    _assert_close(val, (gP, gR, gQ), ref_val, ref_grads)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name,t,mechanism", STAGES)
def test_stage_objective_matches_central_differences(monkeypatch, name, t, mechanism, shape):
    _inst, fun, x0 = _stage(monkeypatch, name, t, mechanism, shape, seed=6)
    _val, grad = fun(x0)
    _assert_fd(lambda theta: fun(theta)[0], x0, grad)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name,t,mechanism", STAGES)
def test_raw_grads_match_oracle(name, t, mechanism, shape):
    raw, ref = _raw(name, t)
    for seed in range(4):
        blocks = _factors(shape, seed)
        val, *grads = raw(*blocks)
        ref_val, *ref_grads = ref(*blocks)
        _assert_close(val, grads, ref_val, ref_grads)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("name,t,mechanism", STAGES)
def test_stage_objective_matches_oracle(monkeypatch, name, t, mechanism, shape):
    inst, fun, x0 = _stage(monkeypatch, name, t, mechanism, shape, seed=7)
    ref_raw = _raw(name, t)[1]
    rng = np.random.default_rng(8)
    for theta in [x0] + [rng.normal(0.0, 1.0, size=x0.shape) for _ in range(3)]:
        val, grad = fun(theta)
        ref_val, ref_grad = oracle.stage_objective(
            theta, inst.target, shape[3], ref_raw, nuclear.MU0)
        _assert_close(val, [grad], ref_val, [ref_grad])
