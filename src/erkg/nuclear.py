"""Numerical lab for nuclear-norm identities on small CP tensors.

A target I x J x K tensor is composed exactly from rank-D factors
P (heads), R (relation diagonals), Q (tails).  Two quantities are then
estimated variationally over exact factorizations of the target:

* the nuclear t-norm  min sum_d ||p_d||_t ||r_d||_t ||q_d||_t, and
* a regularizer-shaped objective summed over the full index set,
  one of five variants:

    thm1   (1/sqrt(J))    sum_{i,j,k} ||p_i||^2 + ||q_k||^2 + ||(p_i - q_k) r_j||^2
    thm2   (1/(2 sqrt J)) same with a plus sign
    thm3   (1/sqrt(J))    cubed-3-norm analogue of thm1
    thm4   (1/(4 sqrt J)) cubed-3-norm analogue of thm2
    amgm4  (1/(2 sqrt J)) sum_j ||P R_j||_F^2 + ||Q||_F^2

``amgm4`` is the analytically proven equality case: its minimum equals
the nuclear 2-norm, attained at factorizations balanced as
``||p_d|| ||r_d|| = sqrt(J) ||q_d||``.  The thm variants are measured and
their ratio to the nuclear estimate reported (flagged outside a
tolerance band), not asserted.

Minimization is a penalty method: each seeded restart minimizes the
raw objective plus mu times the squared relative reconstruction error,
with mu from 100, x10 per stage, for at most 14 stages of at most 250
L-BFGS-B iterations, and stops at the first stage whose relative
residual is below 1e-8.  (L-BFGS-B is a line-search descent; plain
gradient descent cannot traverse the scaling-degenerate CP valleys to
1e-8 in practical time.)  The best feasible restart is reported; no
value is reported from an infeasible restart.

The stages run on the lab's own L-BFGS-B loop, ``_lbfgsb``, around
scipy's compiled core (Byrd, Lu, Nocedal and Zhu 1995).  It makes the
calls ``scipy.optimize.minimize`` makes, so iterates are bitwise the
same, without the wrappers, which cost about as much per call as the
objective on a few dozen numbers.  The first stage loads the core's
extension module on its own (``lanes.scipy_function``), so
``scipy.optimize`` is never imported.

A check runs all its restarts, the variant's and the nuclear norm's, in
lockstep: the core works by reverse communication, so each restart
(``_restart``, the one stage loop and the only caller of ``_lbfgsb``) is
a generator with its own core state, mu and stage, and one
``_stage_objective`` call per round evaluates every asked-for point.
Each restart reaches bitwise the iterate of the sequential driver in
``tests/nuclear_oracle.py``, which runs one stage at a time.

The penalty runs on the (I*J) x K unfolding of the target: with PR the
rows p_i * r_j, the residual is E = PR Q^T - X, its Q-gradient E^T PR,
and its P- and R-gradients the sums over j and over i of (E Q) * R and
(E Q) * P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import lanes
from .errors import ConfigError, InfeasibleError, check_seed, typed

FEASIBILITY_TARGET = 1e-8
MU0 = 100.0
MU_GROWTH = 10.0
MAX_STAGES = 14
STAGE_ITERS = 250
# L-BFGS-B settings of each stage: scipy's defaults for the memory, the
# line-search steps and the evaluations, and the relative-reduction and
# projected-gradient tolerances (ftol, gtol) in scipy's spelling
STAGE_MEMORY = 10
STAGE_MAXLS = 20
STAGE_MAXFUN = 15_000
STAGE_FTOL = 1e-18
STAGE_GTOL = 1e-14
MECHANISMS = ("bilinear", "distance")

AMGM_BAND = (0.95, 1.05)
AMGM_RESIDUAL_MAX = 0.05
THM_BAND = (0.90, 1.10)


@dataclass
class VariantDef:
    norm_order: int
    sign: int  # -1 difference, +1 sum, 0 for the amgm chain
    mechanism: str
    pref_denom: float  # objective prefactor is 1 / (pref_denom * sqrt(J))


VARIANTS: dict[str, VariantDef] = {
    "thm1": VariantDef(2, -1, "bilinear", 1.0),
    "thm2": VariantDef(2, +1, "distance", 2.0),
    "thm3": VariantDef(3, -1, "bilinear", 1.0),
    "thm4": VariantDef(3, +1, "distance", 4.0),
    "amgm4": VariantDef(2, 0, "bilinear", 2.0),
}


@dataclass
class FactorInstance:
    """A rank-D composed target tensor plus check settings.

    Both mechanisms compose the target as the CP sum of factor outer
    products, which guarantees an exact rank-D factorization exists; the
    mechanism tag only selects which objective variants apply.
    """

    target: np.ndarray
    rank: int
    norm_order: int
    mechanism: str
    seed: int


@dataclass
class CheckReport:
    variant: str
    lhs_value: float
    nuclear_value: float
    ratio: float
    equality_residual: float
    restarts: int
    reconstruction_residual: float
    flagged: bool
    lhs_feasible: int
    nuclear_feasible: int


def make_instance(
    I: int, J: int, K: int, D: int, t: int, mechanism: str, seed: int
) -> FactorInstance:
    """Compose a deterministic rank-<=D target from uniform [-1, 1] factors."""
    if min(typed(n, int, name) for n, name in zip((I, J, K, D), "IJKD")) < 1:
        raise ConfigError(f"dims I, J, K, D must all be >= 1, got {I}, {J}, {K}, {D}")
    if typed(t, int, "norm order t") not in (2, 3):
        raise ConfigError("norm order must be 2 or 3")
    if mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {mechanism!r}")
    rng = np.random.default_rng(check_seed(seed))
    P = rng.uniform(-1.0, 1.0, size=(I, D))
    R = rng.uniform(-1.0, 1.0, size=(J, D))
    Q = rng.uniform(-1.0, 1.0, size=(K, D))
    target = np.einsum("id,jd,kd->ijk", P, R, Q)
    return FactorInstance(target=target, rank=D, norm_order=t, mechanism=mechanism, seed=seed)


# ---------------------------------------------------------------------------
# Objective values and gradients on (P, R, Q), one restart's or stacked per
# row, in few numpy calls each: a check makes thousands of rounds of them.


def _dots(a, b):
    """``np.vdot`` per row (trailing two axes), by one BLAS dot each."""
    return (a.reshape(*a.shape[:-2], 1, -1) @ b.reshape(*b.shape[:-2], -1, 1))[..., 0, 0]


def _nuclear_grads(P, R, Q, t):
    """sum_d ||p_d||_t ||r_d||_t ||q_d||_t and its gradient.

    d||m||_t / dm is m / ||m|| for t=2 and |m| m / ||m||^2 for t=3; a
    column whose norm is at most 1e-150 gets a zero gradient.
    """
    # m * M sums over a column to ||.||_t^t
    mP, mR, mQ = (P, R, Q) if t == 2 else (np.abs(P) * P, np.abs(R) * R, np.abs(Q) * Q)
    root = np.sqrt if t == 2 else np.cbrt
    N = root(np.concatenate([np.add.reduce(m * M, -2, keepdims=True)
                             for m, M in ((mP, P), (mR, R), (mQ, Q))], -2))
    nP, nR, nQ = N[..., 0:1, :], N[..., 1:2, :], N[..., 2:3, :]
    nPR = nP * nR
    val = _dots(nPR, nQ)
    f = np.divide(np.concatenate((nR * nQ, nP * nQ, nPR), -2), N if t == 2 else N * N,
                  out=np.zeros(N.shape), where=N > 1e-150)
    return val, mP * f[..., 0:1, :], mR * f[..., 1:2, :], mQ * f[..., 2:3, :]


def _variant_grads(P, R, Q, name):
    var = VARIANTS[name]
    I, J, K = P.shape[-2], R.shape[-2], Q.shape[-2]
    pref = 1.0 / (var.pref_denom * math.sqrt(J))
    if name == "amgm4":
        rho2 = np.add.reduce(R * R, -2, keepdims=True)
        p2 = np.add.reduce(P * P, -2, keepdims=True)
        val = pref * (_dots(p2, rho2) + J * _dots(Q, Q))
        return val, P * (2.0 * pref * rho2), R * (2.0 * pref * p2), (2.0 * pref * J) * Q
    s = var.sign
    if var.norm_order == 2:
        rho = np.add.reduce(R * R, -2, keepdims=True)
        sp, sq = np.add.reduce(P, -2, keepdims=True), np.add.reduce(Q, -2, keepdims=True)
        c = (K * np.add.reduce(P * P, -2, keepdims=True)
             + I * np.add.reduce(Q * Q, -2, keepdims=True) + (2.0 * s) * (sp * sq))
        val = pref * (J * K * _dots(P, P) + I * J * _dots(Q, Q) + _dots(rho, c))
        c2 = 2.0 * pref
        gP = P * (c2 * (J * K + K * rho)) + (c2 * s) * (rho * sq)
        gQ = Q * (c2 * (I * J + I * rho)) + (c2 * s) * (rho * sp)
        return val, gP, R * (c2 * c), gQ
    mP, mR, mQ = np.abs(P) * P, np.abs(R) * R, np.abs(Q) * Q
    rho = np.add.reduce(mR * R, -2, keepdims=True)
    E = P[..., None, :] + s * Q[..., None, :, :]  # e_ik = p_i + s q_k
    mE = np.abs(E) * E
    e3 = np.add.reduce(mE * E, (-3, -2))[..., None, :]
    val = pref * (J * K * _dots(mP, P) + I * J * _dots(mQ, Q) + _dots(rho, e3))
    c3 = 3.0 * pref
    gP = (c3 * J * K) * mP + (c3 * rho) * np.add.reduce(mE, -2)
    gQ = (c3 * I * J) * mQ + (c3 * s * rho) * np.add.reduce(mE, -3)
    return val, gP, mR * (c3 * e3), gQ


def _stage_objective(T, scale, X, groups):
    """Values and gradients at the rows of ``T`` (B x (I+J+K) x D, blocks
    P, R, Q): raw value plus ``scale[b] ||CP(P, R, Q) - X||^2``, the raw
    terms by each ``(rows, raw_grads)`` of ``groups`` in row order."""
    (I, J, K), B = X.shape, len(T)
    # contiguous blocks: numpy calls on these tiny arrays cost less so
    P, R, Q = T[:, :I].copy(), T[:, I:I + J].copy(), T[:, I + J:].copy()
    PR = (P[:, :, None] * R[:, None]).reshape(B, I * J, -1)
    E = PR @ Q.transpose(0, 2, 1)
    E -= X.reshape(I * J, K)
    val = scale * _dots(E, E)
    E *= (2.0 * scale)[:, None, None]
    G = (E @ Q).reshape(B, I, J, -1)  # sum_k E_ijk q_kd
    grads = (np.add.reduce(G * R[:, None], 2), np.add.reduce(G * P[:, :, None], 1),
             E.transpose(0, 2, 1) @ PR)
    hi = 0
    for rows, raw_grads in groups:
        lo, hi = hi, hi + rows
        if rows:
            raw, *raws = raw_grads(P[lo:hi], R[lo:hi], Q[lo:hi])
            val[lo:hi] += raw
            for g, r in zip(grads, raws):
                g[lo:hi] += r
    return val, np.concatenate(grads, 1)


# ---------------------------------------------------------------------------
# Penalty-method minimization, every restart of a check in lockstep.


def _lbfgsb(x0, mu):
    """One unbounded L-BFGS-B stage from ``x0``, the loop of scipy's
    ``_minimize_lbfgsb`` around ``setulb``: yields ``(x, mu)`` at x0 and at
    a copy of each new point the core asks for (not to be written to),
    takes back ``(value, gradient)``, and returns ``(x, iterations)``
    after ``STAGE_ITERS`` iterations, after the iteration in which the
    evaluations exceed ``STAGE_MAXFUN``, or when the core stops."""
    setulb = lanes.scipy_function("optimize._lbfgsb", "setulb")
    x = np.array(x0, dtype=np.float64).ravel()
    m, n = STAGE_MEMORY, x.size
    last_x = x.copy()
    fx, gx = yield last_x, mu
    nfev = 1
    bound = np.zeros(n)  # never read: nbd 0 leaves every variable unbounded
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task = np.zeros(2, np.int32), np.zeros(2, np.int32)
    lsave, isave, dsave = np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29)
    factr = STAGE_FTOL / np.finfo(float).eps
    f, g, nit = 0.0, np.zeros(n), 0
    while True:
        g = g.astype(np.float64)
        try:
            setulb(m, x, bound, bound, nbd, f, g, factr, STAGE_GTOL, wa, iwa,
                   task, lsave, isave, dsave, STAGE_MAXLS, ln_task)
        except TypeError as exc:
            raise ConfigError(f"the nuclear lab needs scipy >= 1.15: {exc}") from exc
        if task[0] == 3:  # the core wants f and g at x
            if not (x == last_x).all():
                last_x = x.copy()
                fx, gx = yield last_x, mu
                nfev += 1
            f, g = fx, gx
        elif task[0] == 1:  # a new iteration
            nit += 1
            if nit >= STAGE_ITERS:
                task[:] = 5, 504  # stop: iteration limit
            elif nfev > STAGE_MAXFUN:
                task[:] = 5, 502  # stop: evaluation limit
        else:
            return x, nit


def _restart(theta, relres):
    """One restart's stages from ``theta``, yielding their asks; returns
    the last iterate and its relative residual ``relres(theta)``."""
    mu = MU0
    for _stage in range(MAX_STAGES):
        theta, _nit = yield from _lbfgsb(theta, mu)
        resid = relres(theta)
        if resid < FEASIBILITY_TARGET:
            break
        mu *= MU_GROWTH
    return theta, resid


class _OptResult(NamedTuple):
    value: float
    P: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    residual: float
    n_feasible: int


def _raw_set(instance: FactorInstance, name: str):
    """``(raw_grads, salt)`` of a variant, or of the nuclear norm."""
    if name == "nuclear":
        return lambda P, R, Q, t=instance.norm_order: _nuclear_grads(P, R, Q, t), 0
    check_pairing(name, instance.mechanism, instance.norm_order)
    return lambda P, R, Q: _variant_grads(P, R, Q, name), 1 + list(VARIANTS).index(name)


def _optimize(instance: FactorInstance, names, restarts: int) -> list[_OptResult]:
    """The best feasible restart of each of ``names`` (see ``_raw_set``), all
    in lockstep; the first set with none feasible raises ``InfeasibleError``."""
    raws, salts = zip(*(_raw_set(instance, name) for name in names))
    if typed(restarts, int, "restarts") < 1:
        raise ConfigError("restarts must be >= 1")
    X = instance.target
    (I, J, K), D = X.shape, instance.rank
    denom = float(np.linalg.norm(X)) or 1.0

    def relres(theta):
        P, R, Q = np.split(theta.reshape(-1, D), (I, I + J))
        E = (P[:, None, :] * R).reshape(I * J, D) @ Q.T - X.reshape(I * J, K)
        return float(np.linalg.norm(E)) / denom

    init_scale = max((denom / np.sqrt(X.size) / D) ** (1.0 / 3.0), 0.1)
    runs = [_restart(np.random.default_rng(np.random.SeedSequence([instance.seed, salt, k]))
                     .normal(0.0, init_scale, size=(I + J + K) * D), relres)
            for salt in salts for k in range(restarts)]
    asks = {i: next(run) for i, run in enumerate(runs)}  # stays in restart order
    live, ends = [restarts] * len(raws), [None] * len(runs)  # live: restarts asking, per set
    T, mu = np.empty((len(runs), I + J + K, D)), np.empty(len(runs))
    while asks:
        n = len(asks)
        for row, (x, x_mu) in enumerate(asks.values()):
            T[row].flat, mu[row] = x, x_mu
        val, grad = _stage_objective(T[:n], mu[:n] / (denom * denom), X, zip(live, raws))
        for i, f, g in zip(list(asks), val.tolist(), grad.reshape(n, -1)):
            try:
                asks[i] = runs[i].send((f, g))
            except StopIteration as stop:
                del asks[i]
                live[i // restarts] -= 1
                ends[i] = stop.value

    results = []
    for s, raw_grads in enumerate(raws):
        mine = ends[s * restarts:(s + 1) * restarts]
        feasible = [(*np.split(theta.reshape(-1, D), (I, I + J)), resid)
                    for theta, resid in mine if resid < FEASIBILITY_TARGET]
        if not feasible:
            raise InfeasibleError(
                f"no restart reached relative residual {FEASIBILITY_TARGET:g} (best "
                f"{min([np.inf] + [r for _theta, r in mine]):.3g} over {restarts} restarts)")
        values = [float(raw_grads(P, R, Q)[0]) for P, R, Q, _resid in feasible]
        k = values.index(min(values))  # the first best, in restart order
        P, R, Q, resid = feasible[k]
        results.append(_OptResult(values[k], P.copy(), R.copy(), Q.copy(), resid, len(feasible)))
    return results


def check_pairing(variant: str, mechanism: str, norm_order: int | None = None) -> VariantDef:
    """``VARIANTS[variant]``, checked to apply to an instance with these tags.

    ``norm_order=None`` skips the norm-order check, for a caller that makes
    the instance with the variant's own norm order.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    var = VARIANTS[variant]
    if var.mechanism != mechanism:
        raise ConfigError(
            f"variant {variant} requires mechanism {var.mechanism!r}, got {mechanism!r}"
        )
    if norm_order is not None and var.norm_order != norm_order:
        raise ConfigError(
            f"variant {variant} uses norm order {var.norm_order}, "
            f"instance has {norm_order}"
        )
    return var


def _balancedness_residual(P, R, Q, t):
    """max_d | ||p_d||_C ||r_d||_C / (sqrt(J) ||q_d||_C) - 1 | at a factorization.

    The C-norm is the 2-norm for t=2 and the square root of the cubed
    3-norm for t=3 (the pairing the cube-case chain balances).
    """
    J = len(R)
    np_, nr, nq = (np.sqrt(np.sum(np.abs(M) ** t, axis=0)) for M in (P, R, Q))
    live = (np_ > 1e-12) | (nr > 1e-12) | (nq > 1e-12)
    if not live.any():
        return 0.0
    np_, nr, nq = np_[live], nr[live], nq[live]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np_ * nr / (np.sqrt(J) * nq)
    ratio = np.where(np.isfinite(ratio), ratio, np.inf)
    return float(np.max(np.abs(ratio - 1.0)))


def check_instance(instance: FactorInstance, variant: str, restarts: int) -> CheckReport:
    """Minimize one variant and the nuclear norm; report their ratio.

    The balancedness residual is evaluated at the variant's incumbent
    factorization.  ``flagged`` marks a ratio outside the variant's band
    (for amgm4 also a residual above 0.05).  The OpenBLAS of numpy and of
    scipy (which L-BFGS-B calls) run on one thread meanwhile
    (``lanes.pinned``): their threads only burn CPU on these tiny calls.
    """
    with lanes.pinned("numpy", "scipy"):
        obj, nuc = _optimize(instance, [variant, "nuclear"], restarts)
    if abs(nuc.value) < 1e-12 and abs(obj.value) < 1e-12:
        ratio = 1.0
    else:
        ratio = obj.value / nuc.value if nuc.value != 0 else np.inf
    residual = _balancedness_residual(obj.P, obj.R, obj.Q, instance.norm_order)
    lo, hi = AMGM_BAND if variant == "amgm4" else THM_BAND
    flagged = not (lo <= ratio <= hi)
    if variant == "amgm4":
        flagged = flagged or residual >= AMGM_RESIDUAL_MAX
    return CheckReport(
        variant=variant,
        lhs_value=obj.value,
        nuclear_value=nuc.value,
        ratio=float(ratio),
        equality_residual=residual,
        restarts=restarts,
        reconstruction_residual=float(max(obj.residual, nuc.residual)),
        flagged=flagged,
        lhs_feasible=obj.n_feasible,
        nuclear_feasible=nuc.n_feasible,
    )
