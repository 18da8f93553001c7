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

The stages run on the lab's own L-BFGS-B loop, ``minimize``, around
scipy's compiled core (Byrd, Lu, Nocedal and Zhu 1995).  It makes the
calls ``scipy.optimize.minimize`` makes, so iterates are bitwise the
same, without the wrappers, which cost about as much per call as the
objective on a few dozen numbers; ``scipy.optimize`` is imported by the
first stage, not by ``import erkg``.

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
from .errors import ConfigError, InfeasibleError, check_seed

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
    if min(I, J, K, D) < 1:
        raise ConfigError(f"dims I, J, K, D must all be >= 1, got {I}, {J}, {K}, {D}")
    if t not in (2, 3):
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
# Objective values and gradients on (P, R, Q), in few numpy calls each: an
# L-BFGS-B restart makes thousands of calls on a few dozen numbers.


def _nuclear_grads(P, R, Q, t):
    """sum_d ||p_d||_t ||r_d||_t ||q_d||_t and its gradient.

    d||m||_t / dm is m / ||m|| for t=2 and |m| m / ||m||^2 for t=3; a
    column whose norm is at most 1e-150 gets a zero gradient.
    """
    # m * M sums over a column to ||.||_t^t
    mP, mR, mQ = (P, R, Q) if t == 2 else (np.abs(P) * P, np.abs(R) * R, np.abs(Q) * Q)
    root = np.sqrt if t == 2 else np.cbrt
    nP = root(np.add.reduce(mP * P, 0))
    nR = root(np.add.reduce(mR * R, 0))
    nQ = root(np.add.reduce(mQ * Q, 0))
    dP, dR, dQ = (nP, nR, nQ) if t == 2 else (nP * nP, nR * nR, nQ * nQ)
    nPR = nP * nR
    val = float(nPR @ nQ)
    D = len(nP)
    fP = np.divide(nR * nQ, dP, out=np.zeros(D), where=nP > 1e-150)
    fR = np.divide(nP * nQ, dR, out=np.zeros(D), where=nR > 1e-150)
    fQ = np.divide(nPR, dQ, out=np.zeros(D), where=nQ > 1e-150)
    return val, mP * fP, mR * fR, mQ * fQ


def _variant_grads(P, R, Q, name):
    var = VARIANTS[name]
    I, J, K = len(P), len(R), len(Q)
    pref = 1.0 / (var.pref_denom * math.sqrt(J))
    if name == "amgm4":
        rho2 = np.add.reduce(R * R, 0)
        p2 = np.add.reduce(P * P, 0)
        val = pref * (float(p2 @ rho2) + J * float(np.vdot(Q, Q)))
        return val, P * (2.0 * pref * rho2), R * (2.0 * pref * p2), (2.0 * pref * J) * Q
    s = var.sign
    if var.norm_order == 2:
        rho = np.add.reduce(R * R, 0)
        sp, sq = np.add.reduce(P, 0), np.add.reduce(Q, 0)
        c = K * np.add.reduce(P * P, 0) + I * np.add.reduce(Q * Q, 0) + (2.0 * s) * (sp * sq)
        val = pref * (J * K * float(np.vdot(P, P)) + I * J * float(np.vdot(Q, Q)) + float(rho @ c))
        c2 = 2.0 * pref
        gP = P * (c2 * (J * K + K * rho)) + (c2 * s) * (rho * sq)
        gQ = Q * (c2 * (I * J + I * rho)) + (c2 * s) * (rho * sp)
        return val, gP, R * (c2 * c), gQ
    mP, mR, mQ = np.abs(P) * P, np.abs(R) * R, np.abs(Q) * Q
    rho = np.add.reduce(mR * R, 0)
    E = P[:, None, :] + s * Q
    mE = np.abs(E) * E
    e3 = np.add.reduce(mE * E, (0, 1))
    val = pref * (J * K * float(np.vdot(mP, P)) + I * J * float(np.vdot(mQ, Q)) + float(rho @ e3))
    c3 = 3.0 * pref
    gP = (c3 * J * K) * mP + (c3 * rho) * np.add.reduce(mE, 1)
    gQ = (c3 * I * J) * mQ + (c3 * s * rho) * np.add.reduce(mE, 0)
    return val, gP, mR * (c3 * e3), gQ


# ---------------------------------------------------------------------------
# Penalty-method minimization.


class StageResult(NamedTuple):
    x: np.ndarray
    nit: int


def minimize(fun, x0) -> StageResult:
    """Unbounded L-BFGS-B from ``x0`` on ``fun(x) -> (value, gradient)``.

    The reverse-communication loop of scipy's ``_minimize_lbfgsb`` around
    its compiled core ``setulb``, with its evaluation caching: ``fun`` runs
    once at ``x0``, then on a copy of each point the core asks for unless
    that point equals the last one (so ``fun`` must not write to it).  A
    stage ends after ``STAGE_ITERS`` iterations, after the iteration in
    which the evaluations exceed ``STAGE_MAXFUN``, or when the core stops.
    """
    try:
        from scipy.optimize._lbfgsb import setulb
    except ImportError as exc:
        raise ConfigError(f"the nuclear lab needs scipy >= 1.15: {exc}") from exc
    x = np.array(x0, dtype=np.float64).ravel()
    m, n = STAGE_MEMORY, x.size
    last_x = x.copy()
    fx, gx = fun(last_x)
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
            if not np.array_equal(x, last_x):
                last_x = x.copy()
                fx, gx = fun(last_x)
                nfev += 1
            f, g = fx, gx
        elif task[0] == 1:  # a new iteration
            nit += 1
            if nit >= STAGE_ITERS:
                task[:] = 5, 504  # stop: iteration limit
            elif nfev > STAGE_MAXFUN:
                task[:] = 5, 502  # stop: evaluation limit
        else:
            return StageResult(x, nit)


@dataclass
class _OptResult:
    value: float
    P: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    residual: float
    n_feasible: int


def _multi_restart(instance, raw_grads, restarts, salt):
    """Best feasible restart; ``raw_grads(P, R, Q)`` returns (value, gP, gR, gQ)."""
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    X = instance.target
    (I, J, K), D = X.shape, instance.rank
    denom = float(np.linalg.norm(X)) or 1.0

    X2 = X.reshape(I * J, K)
    IJ = I + J

    def unpack(theta):
        # P, R, Q are the row blocks of theta as an (I + J + K) x D matrix
        T = theta.reshape(-1, D)
        return T[:I], T[I:IJ], T[IJ:]

    def residual(P, R, Q):
        # CP(P, R, Q) - X on the (I*J) x K unfolding, whose rows are
        # (p_i * r_j) Q^T; also returns the (I*J) x D rows p_i * r_j
        PR = (P[:, None, :] * R).reshape(I * J, D)
        return PR, PR @ Q.T - X2

    def objective(theta):
        # raw value plus mu ||CP(P, R, Q) - X||^2 / ||X||^2 at the current stage's mu
        scale = mu / (denom * denom)
        P, R, Q = unpack(theta)
        val, gP, gR, gQ = raw_grads(P, R, Q)
        PR, E = residual(P, R, Q)
        val += scale * float(np.vdot(E, E))
        E *= 2.0 * scale
        G = (E @ Q).reshape(I, J, D)  # sum_k E_ijk q_kd
        grad = np.empty((IJ + K, D))
        np.add(gP, np.add.reduce(G * R, 1), out=grad[:I])
        np.add(gR, np.add.reduce(G * P[:, None, :], 0), out=grad[I:IJ])
        np.add(gQ, E.T @ PR, out=grad[IJ:])
        return val, grad.ravel()

    init_scale = max((denom / np.sqrt(X.size) / D) ** (1.0 / 3.0), 0.1)
    best = None
    n_feasible = 0
    best_resid = np.inf
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([instance.seed, salt, k]))
        theta = rng.normal(0.0, init_scale, size=(I + J + K) * D)
        mu = MU0
        for _stage in range(MAX_STAGES):
            theta = minimize(objective, theta).x
            P, R, Q = unpack(theta)
            resid = float(np.linalg.norm(residual(P, R, Q)[1])) / denom
            if resid < FEASIBILITY_TARGET:
                break
            mu *= MU_GROWTH
        best_resid = min(best_resid, resid)
        if not resid < FEASIBILITY_TARGET:
            continue
        n_feasible += 1
        value = float(raw_grads(P, R, Q)[0])
        if best is None or value < best[0]:
            best = (value, P.copy(), R.copy(), Q.copy(), resid)
    if best is None:
        raise InfeasibleError(
            f"no restart reached relative residual {FEASIBILITY_TARGET:g} "
            f"(best {best_resid:.3g} over {restarts} restarts)"
        )
    return _OptResult(*best, n_feasible)


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


def _nuclear_opt(instance: FactorInstance, restarts: int) -> _OptResult:
    t = instance.norm_order
    return _multi_restart(instance, lambda P, R, Q: _nuclear_grads(P, R, Q, t), restarts, salt=0)


def _variant_opt(instance: FactorInstance, variant: str, restarts: int) -> _OptResult:
    check_pairing(variant, instance.mechanism, instance.norm_order)
    return _multi_restart(
        instance,
        lambda P, R, Q: _variant_grads(P, R, Q, variant),
        restarts,
        salt=1 + list(VARIANTS).index(variant),
    )


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
        obj = _variant_opt(instance, variant, restarts)
        nuc = _nuclear_opt(instance, restarts)
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
