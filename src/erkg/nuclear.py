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

Minimization uses an increasing-penalty schedule (mu x10 per stage on the
squared relative reconstruction error until it drops below 1e-8); each
stage is minimized by L-BFGS-B (a line-search descent; plain gradient
descent cannot traverse the scaling-degenerate CP valleys to 1e-8 in
practical time), best over seeded restarts.  No value is reported from an
infeasible restart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConfigError, InfeasibleError

FEASIBILITY_TARGET = 1e-8
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

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.target.shape


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

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "lhs_value": self.lhs_value,
            "nuclear_value": self.nuclear_value,
            "ratio": self.ratio,
            "equality_residual": self.equality_residual,
            "restarts": self.restarts,
            "reconstruction_residual": self.reconstruction_residual,
            "flagged": self.flagged,
            "lhs_feasible": self.lhs_feasible,
            "nuclear_feasible": self.nuclear_feasible,
        }


def make_instance(
    I: int, J: int, K: int, D: int, t: int, mechanism: str, seed: int
) -> FactorInstance:
    """Compose a deterministic rank-<=D target from uniform [-1, 1] factors."""
    if min(I, J, K, D) < 1:
        raise ConfigError("all dimensions must be >= 1")
    if t not in (2, 3):
        raise ConfigError("norm order must be 2 or 3")
    if mechanism not in MECHANISMS:
        raise ConfigError(f"unknown mechanism {mechanism!r}")
    rng = np.random.default_rng(seed)
    P = rng.uniform(-1.0, 1.0, size=(I, D))
    R = rng.uniform(-1.0, 1.0, size=(J, D))
    Q = rng.uniform(-1.0, 1.0, size=(K, D))
    target = np.einsum("id,jd,kd->ijk", P, R, Q)
    return FactorInstance(
        target=target, rank=D, norm_order=t, mechanism=mechanism, seed=seed
    )


# ---------------------------------------------------------------------------
# Objective values and gradients on (P, R, Q).


def _tnorm(v: np.ndarray, t: int, axis=0) -> np.ndarray:
    if t == 2:
        return np.sqrt(np.sum(v * v, axis=axis))
    return np.sum(np.abs(v) ** 3, axis=axis) ** (1.0 / 3.0)


def _nuclear_grads(P, R, Q, t):
    np_, nr, nq = _tnorm(P, t), _tnorm(R, t), _tnorm(Q, t)
    val = float(np.sum(np_ * nr * nq))

    def dnorm(M, n):
        safe = np.where(n > 1e-150, n, 1.0)
        if t == 2:
            g = M / safe
        else:
            g = (np.abs(M) * M) / (safe * safe)
        g[:, n <= 1e-150] = 0.0
        return g

    gP = dnorm(P, np_) * (nr * nq)
    gR = dnorm(R, nr) * (np_ * nq)
    gQ = dnorm(Q, nq) * (np_ * nr)
    return val, gP, gR, gQ


def _variant_grads(P, R, Q, name):
    var = VARIANTS[name]
    I, J, K = len(P), len(R), len(Q)
    pref = 1.0 / (var.pref_denom * np.sqrt(J))
    if name == "amgm4":
        rho2 = np.sum(R * R, axis=0)
        p2 = np.sum(P * P, axis=0)
        val = pref * (float(np.sum(p2 * rho2)) + J * float(np.sum(Q * Q)))
        gP = pref * 2.0 * P * rho2[None, :]
        gR = pref * 2.0 * R * p2[None, :]
        gQ = pref * 2.0 * J * Q
        return val, gP, gR, gQ
    if var.norm_order == 2:
        rho = np.sum(R * R, axis=0)
        sp = P.sum(axis=0)
        sq = Q.sum(axis=0)
        p2 = np.sum(P * P, axis=0)
        q2 = np.sum(Q * Q, axis=0)
        c = K * p2 + I * q2 + 2.0 * var.sign * sp * sq
        val = pref * (J * K * float(np.sum(P * P)) + I * J * float(np.sum(Q * Q)) + float(np.sum(rho * c)))
        gP = pref * (2.0 * J * K * P + rho[None, :] * (2.0 * K * P + 2.0 * var.sign * sq[None, :]))
        gQ = pref * (2.0 * I * J * Q + rho[None, :] * (2.0 * I * Q + 2.0 * var.sign * sp[None, :]))
        gR = pref * 2.0 * R * c[None, :]
        return val, gP, gR, gQ
    rho = np.sum(np.abs(R) ** 3, axis=0)
    E = P[:, None, :] + var.sign * Q[None, :, :]
    absE = np.abs(E)
    cube = np.sum(absE**3, axis=(0, 1))
    dE = 3.0 * absE * E
    val = pref * (
        J * K * float(np.sum(np.abs(P) ** 3))
        + I * J * float(np.sum(np.abs(Q) ** 3))
        + float(np.sum(rho * cube))
    )
    gP = pref * (3.0 * J * K * np.abs(P) * P + rho[None, :] * dE.sum(axis=1))
    gQ = pref * (3.0 * I * J * np.abs(Q) * Q + var.sign * rho[None, :] * dE.sum(axis=0))
    gR = pref * 3.0 * np.abs(R) * R * cube[None, :]
    return val, gP, gR, gQ


# ---------------------------------------------------------------------------
# Penalty-method minimization.


def _descend(f_and_g, theta, max_iter):
    res = minimize(
        f_and_g,
        theta,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "ftol": 1e-18, "gtol": 1e-14},
    )
    return res.x, float(res.fun)


class _Problem:
    """Raw objective plus scaled penalty on flattened (P, R, Q)."""

    def __init__(self, X, D, raw_grads):
        self.X = X
        self.I, self.J, self.K = X.shape
        self.D = D
        self.denom = max(float(np.linalg.norm(X)), 0.0) or 1.0
        self.raw_grads = raw_grads

    def unpack(self, theta):
        I, J, K, D = self.I, self.J, self.K, self.D
        P = theta[: I * D].reshape(I, D)
        R = theta[I * D : (I + J) * D].reshape(J, D)
        Q = theta[(I + J) * D :].reshape(K, D)
        return P, R, Q

    def residual(self, theta):
        P, R, Q = self.unpack(theta)
        E = np.einsum("id,jd,kd->ijk", P, R, Q) - self.X
        return float(np.linalg.norm(E)) / self.denom

    def funcs(self, mu):
        scale = mu / (self.denom * self.denom)

        def f_and_g(theta):
            P, R, Q = self.unpack(theta)
            val, gP, gR, gQ = self.raw_grads(P, R, Q)
            E = np.einsum("id,jd,kd->ijk", P, R, Q) - self.X
            val += scale * float(np.sum(E * E))
            gP = gP + 2.0 * scale * np.einsum("ijk,jd,kd->id", E, R, Q)
            gR = gR + 2.0 * scale * np.einsum("ijk,id,kd->jd", E, P, Q)
            gQ = gQ + 2.0 * scale * np.einsum("ijk,id,jd->kd", E, P, R)
            return val, np.concatenate([gP.ravel(), gR.ravel(), gQ.ravel()])

        return f_and_g

    def minimize_restart(self, theta0, mu0=100.0, growth=10.0, max_stages=14,
                         iters_per_stage=400):
        theta = theta0
        mu = mu0
        resid = self.residual(theta)
        for stage in range(max_stages):
            theta, _ = _descend(self.funcs(mu), theta, iters_per_stage)
            resid = self.residual(theta)
            if resid < FEASIBILITY_TARGET:
                return theta, resid, True
            mu *= growth
        return theta, resid, False


@dataclass
class _OptResult:
    value: float
    P: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    residual: float
    restarts: int
    n_feasible: int


def _multi_restart(instance, raw_grads, restarts, salt, iters_per_stage=250):
    """Best feasible restart; ``raw_grads(P, R, Q)`` returns (value, gP, gR, gQ)."""
    X = instance.target
    prob = _Problem(X, instance.rank, raw_grads)
    size = (prob.I + prob.J + prob.K) * prob.D
    scale = max((prob.denom / np.sqrt(X.size) / instance.rank) ** (1.0 / 3.0), 0.1)
    best = None
    n_feasible = 0
    best_resid = np.inf
    for k in range(restarts):
        rng = np.random.default_rng(np.random.SeedSequence([instance.seed, salt, k]))
        theta0 = rng.normal(0.0, scale, size=size)
        theta, resid, ok = prob.minimize_restart(theta0, iters_per_stage=iters_per_stage)
        best_resid = min(best_resid, resid)
        if not ok:
            continue
        n_feasible += 1
        P, R, Q = prob.unpack(theta)
        value = float(raw_grads(P, R, Q)[0])
        if best is None or value < best.value:
            best = _OptResult(value, P.copy(), R.copy(), Q.copy(), resid, restarts, 0)
    if best is None:
        raise InfeasibleError(
            f"no restart reached relative residual {FEASIBILITY_TARGET:g} "
            f"(best {best_resid:.3g} over {restarts} restarts)"
        )
    best.n_feasible = n_feasible
    return best


def _check_variant_pairing(instance: FactorInstance, variant: str) -> VariantDef:
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}")
    var = VARIANTS[variant]
    if var.mechanism != instance.mechanism:
        raise ConfigError(
            f"variant {variant} requires a {var.mechanism}-mechanism instance, "
            f"got {instance.mechanism}"
        )
    if var.norm_order != instance.norm_order:
        raise ConfigError(
            f"variant {variant} uses norm order {var.norm_order}, "
            f"instance has {instance.norm_order}"
        )
    return var


def nuclear_estimate(instance: FactorInstance, restarts: int) -> float:
    """Variational nuclear t-norm of the instance target."""
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    t = instance.norm_order
    res = _multi_restart(
        instance,
        lambda P, R, Q: _nuclear_grads(P, R, Q, t),
        restarts,
        salt=0,
    )
    return res.value


def objective_min(instance: FactorInstance, variant: str, restarts: int) -> float:
    """Minimized variant objective over exact factorizations."""
    if restarts < 1:
        raise ConfigError("restarts must be >= 1")
    _check_variant_pairing(instance, variant)
    res = _multi_restart(
        instance,
        lambda P, R, Q: _variant_grads(P, R, Q, variant),
        restarts,
        salt=1 + list(VARIANTS).index(variant),
    )
    return res.value


def _balancedness_residual(P, R, Q, t):
    """max_d | ||p_d||_C ||r_d||_C / (sqrt(J) ||q_d||_C) - 1 | at a factorization.

    The C-norm is the 2-norm for t=2 and the square root of the cubed
    3-norm for t=3 (the pairing the cube-case chain balances).
    """
    J = len(R)
    if t == 2:
        cn = lambda M: np.sqrt(np.sum(M * M, axis=0))
    else:
        cn = lambda M: np.sqrt(np.sum(np.abs(M) ** 3, axis=0))
    np_, nr, nq = cn(P), cn(R), cn(Q)
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
    (for amgm4 also a residual above 0.05).
    """
    _check_variant_pairing(instance, variant)
    t = instance.norm_order
    obj = _multi_restart(
        instance,
        lambda P, R, Q: _variant_grads(P, R, Q, variant),
        restarts,
        salt=1 + list(VARIANTS).index(variant),
    )
    nuc = _multi_restart(
        instance,
        lambda P, R, Q: _nuclear_grads(P, R, Q, t),
        restarts,
        salt=0,
    )
    if abs(nuc.value) < 1e-12 and abs(obj.value) < 1e-12:
        ratio = 1.0
    else:
        ratio = obj.value / nuc.value if nuc.value != 0 else np.inf
    residual = _balancedness_residual(obj.P, obj.R, obj.Q, t)
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
