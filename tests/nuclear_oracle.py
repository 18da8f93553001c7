"""Reference nuclear-lab objective built on three-operand ``einsum``, the
reference stage minimizers and the sequential restart driver.

The raw gradients are written per factor with ``np.sum``, broadcasts and
a masked-division helper, and the penalty term reconstructs the whole
I x J x K tensor and contracts the residual against two factors at a
time.  ``erkg.nuclear`` instead works on the (I*J) x K unfolding with
matrix products; the two must agree up to rounding.

``scipy_minimize`` runs a stage through ``scipy.optimize.minimize``;
``minimize`` runs it by ``erkg.nuclear._lbfgsb``, which drives the same
L-BFGS-B core itself, and must give bitwise the same iterates, iteration
counts and objective calls.

``optimize`` runs each restart's stages one after the other through a
stage minimizer, by default ``minimize``, on a per-restart objective; it
is the sequential driver the lab ran before its restarts ran in
lockstep.  ``erkg.nuclear._optimize``
runs every restart of a check in lockstep on one stacked objective, and
each restart must reach bitwise the same iterate with the same objective
calls and iterations.  ``lockstep_records`` reads those per restart from
the lockstep driver.
"""

import contextlib
import types

import numpy as np

from erkg import nuclear
from erkg.errors import ConfigError, InfeasibleError
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


def minimize(fun, x0):
    """One stage of ``erkg.nuclear._lbfgsb`` from ``x0`` on
    ``fun(x) -> (value, gradient)``, its ``x`` and ``nit`` as scipy names them."""
    stage, reply = nuclear._lbfgsb(x0, None), None
    try:
        while True:
            reply = fun(stage.send(reply)[0])
    except StopIteration as stop:
        x, nit = stop.value
        return types.SimpleNamespace(x=x, nit=nit)


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


def multi_restart(instance, raw_grads, salt, restarts, minimize=minimize, record=None,
                  memo=None):
    """Best feasible restart of one set, each restart's stages run in turn
    by ``minimize`` (default this module's ``minimize``) on the objective
    of one restart.  Each restart appends ``{"calls", "nit", "x"}`` to
    ``record``.  A restart depends only on the instance, ``salt`` and its
    index, so with a ``memo`` dict it runs once per instance."""
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
        rec["calls"] += 1
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
        if memo is not None and (salt, k) in memo:
            rec, resid = memo[salt, k]
        else:
            rec = {"calls": 0, "nit": 0}
            rng = np.random.default_rng(np.random.SeedSequence([instance.seed, salt, k]))
            theta = rng.normal(0.0, init_scale, size=(I + J + K) * D)
            mu = nuclear.MU0
            for _stage in range(nuclear.MAX_STAGES):
                stage = minimize(objective, theta)
                theta = stage.x
                rec["nit"] += stage.nit
                resid = float(np.linalg.norm(residual(*unpack(theta))[1])) / denom
                if resid < nuclear.FEASIBILITY_TARGET:
                    break
                mu *= nuclear.MU_GROWTH
            rec["x"] = theta
            if memo is not None:
                memo[salt, k] = rec, resid
        if record is not None:
            record.append(rec)
        P, R, Q = unpack(rec["x"])
        best_resid = min(best_resid, resid)
        if not resid < nuclear.FEASIBILITY_TARGET:
            continue
        n_feasible += 1
        value = float(raw_grads(P, R, Q)[0])
        if best is None or value < best[0]:
            best = (value, P.copy(), R.copy(), Q.copy(), resid)
    if best is None:
        raise InfeasibleError(
            f"no restart reached relative residual {nuclear.FEASIBILITY_TARGET:g} "
            f"(best {best_resid:.3g} over {restarts} restarts)"
        )
    return nuclear._OptResult(*best, n_feasible)


def optimize(instance, names, restarts, minimize=minimize, record=None, memo=None):
    """``erkg.nuclear._optimize`` by ``multi_restart``, one set after the other."""
    return [multi_restart(instance, *nuclear._raw_set(instance, name), restarts, minimize,
                          record, memo)
            for name in names]


@contextlib.contextmanager
def sequential(minimize=minimize, memo=None):
    """Inside the block ``erkg.nuclear`` optimizes by ``optimize``; yields
    the list of per-restart records it fills.  A ``memo`` must be used
    for one instance only."""
    record = []
    real = nuclear._optimize
    nuclear._optimize = lambda instance, names, restarts: optimize(
        instance, names, restarts, minimize, record, memo)
    try:
        yield record
    finally:
        nuclear._optimize = real


@contextlib.contextmanager
def lockstep_records():
    """Yields the list of ``{"calls", "nit", "x"}`` records, one per
    restart in the order the lockstep driver starts them, that
    ``erkg.nuclear``'s restarts fill inside the block.

    A restart's stages run only while the driver resumes that restart,
    so the stages started meanwhile are that restart's.
    """
    record, current = [], [None]
    real_restart, real_stage = nuclear._restart, nuclear._lbfgsb

    def restart(theta, relres):
        rec = {"calls": 0, "nit": 0, "x": None}
        record.append(rec)
        run = real_restart(theta, relres)
        try:
            current[0] = rec
            ask = next(run)
            while True:
                rec["calls"] += 1
                reply = yield ask
                current[0] = rec
                ask = run.send(reply)
        except StopIteration as stop:
            rec["x"] = stop.value[0]
            return stop.value

    def stage(x0, mu):
        x, nit = yield from real_stage(x0, mu)
        current[0]["nit"] += nit
        return x, nit

    nuclear._restart, nuclear._lbfgsb = restart, stage
    try:
        yield record
    finally:
        nuclear._restart, nuclear._lbfgsb = real_restart, real_stage
