"""Reference nuclear-lab objective built on three-operand ``einsum``, and
the reference stage minimizer.

The raw gradients are written per factor with ``np.sum``, broadcasts and
a masked-division helper, and the penalty term reconstructs the whole
I x J x K tensor and contracts the residual against two factors at a
time.  ``erkg.nuclear`` instead works on the (I*J) x K unfolding with
matrix products; the two must agree up to rounding.

``scipy_minimize`` runs a stage through ``scipy.optimize.minimize``;
``erkg.nuclear.minimize`` drives the same L-BFGS-B core itself and must
give bitwise the same iterates, iteration counts and objective calls.
"""

import numpy as np

from erkg import nuclear
from erkg.nuclear import VARIANTS


def scipy_minimize(fun, x0):
    """One stage by ``scipy.optimize.minimize`` with the lab's settings,
    read from ``erkg.nuclear`` at call time."""
    from scipy.optimize import minimize

    options = {
        "maxiter": nuclear.STAGE_ITERS,
        "maxfun": nuclear.STAGE_MAXFUN,
        "maxcor": nuclear.STAGE_MEMORY,
        "maxls": nuclear.STAGE_MAXLS,
        "ftol": nuclear.STAGE_FTOL,
        "gtol": nuclear.STAGE_GTOL,
    }
    return minimize(fun, x0, jac=True, method="L-BFGS-B", options=options)


def cp(P, R, Q):
    """The CP tensor sum_d p_d (x) r_d (x) q_d."""
    return np.einsum("id,jd,kd->ijk", P, R, Q)


def _tnorm(v, t):
    if t == 2:
        return np.sqrt(np.sum(v * v, axis=0))
    return np.sum(np.abs(v) ** 3, axis=0) ** (1.0 / 3.0)


def nuclear_grads(P, R, Q, t):
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


def variant_grads(P, R, Q, name):
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
        val = pref * (J * K * float(np.sum(P * P)) + I * J * float(np.sum(Q * Q))
                      + float(np.sum(rho * c)))
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


def stage_objective(theta, X, D, raw_grads, mu):
    """raw value plus mu ||CP(P, R, Q) - X||^2 / ||X||^2, and its gradient."""
    I, J, K = X.shape
    denom = float(np.linalg.norm(X)) or 1.0
    scale = mu / (denom * denom)
    P = theta[: I * D].reshape(I, D)
    R = theta[I * D : (I + J) * D].reshape(J, D)
    Q = theta[(I + J) * D :].reshape(K, D)
    val, gP, gR, gQ = raw_grads(P, R, Q)
    E = cp(P, R, Q) - X
    val += scale * float(np.sum(E * E))
    gP = gP + 2.0 * scale * np.einsum("ijk,jd,kd->id", E, R, Q)
    gR = gR + 2.0 * scale * np.einsum("ijk,id,kd->jd", E, P, Q)
    gQ = gQ + 2.0 * scale * np.einsum("ijk,id,jd->kd", E, P, R)
    return val, np.concatenate([gP.ravel(), gR.ravel(), gQ.ravel()])
