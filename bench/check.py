"""Correctness gate: independent scipy references for sampled operations.

The reference problems are built here from the generated experiment
documents, with their own prediction matrices and dynamics; only
``qp_solver.kkt_residuals`` and ``QpProblem`` are taken from mpckit, to
evaluate mpckit's own multipliers on the independently built problem.
Tolerances are fixed here, from the solver's default stopping accuracy
(eps_abs = eps_rel = 1e-6, on residuals that scale with the constraint
bounds), and are not tuned to the results.
"""

import math

import numpy as np
from scipy.optimize import linprog, minimize

EPS_ABS = EPS_REL = 1e-6   # mpckit's default QP stopping tolerances
GAP_TOL = 1e-4     # relative objective gap to the reference
KKT_TOL = 1e-4     # scaled stationarity and complementarity
SLACK_AMBIGUOUS = 1e-5   # phase-I optima this close to 0 are not judged


def prediction(A, B, N):
    """X = A_X x0 + B_U U for the stacked states x_0..x_N."""
    A, B = np.asarray(A, float), np.asarray(B, float)
    n, m = B.shape
    A_X = np.zeros((n * (N + 1), n))
    B_U = np.zeros((n * (N + 1), m * N))
    A_X[:n] = np.eye(n)
    for i in range(1, N + 1):
        A_X[i * n:(i + 1) * n] = A @ A_X[(i - 1) * n:i * n]
        B_U[i * n:(i + 1) * n] = A @ B_U[(i - 1) * n:i * n]
        B_U[i * n:(i + 1) * n, (i - 1) * m:i * m] = B
    return A_X, B_U


def viol_tol(doc):
    """Ten times the solver's primal stopping tolerance at the scale of the
    constraint bounds: a larger state or input violation is wrong."""
    con = doc["constraints"]
    scale = max(1.0, float(np.abs(con["g_x"]).max()), float(np.abs(con["g_u"]).max()))
    return 10.0 * (EPS_ABS + EPS_REL * scale)


def _blocks(M, count):
    return np.kron(np.eye(count), np.asarray(M, float))


def _lti_data(doc):
    con = doc["constraints"]
    N = doc["horizon"]["N"]
    Q = np.asarray(doc["weights"]["Q"], float)
    R = np.asarray(doc["weights"]["R"], float)
    A_X, B_U = prediction(doc["model"]["A"], doc["model"]["B"], N)
    F_X = _blocks(con["F_x"], N + 1)
    g_X = np.tile(con["g_x"], N + 1)
    F_U = _blocks(con["F_u"], N)
    g_U = np.tile(con["g_u"], N)
    return N, _blocks(Q, N + 1), _blocks(R, N), A_X, B_U, F_X, g_X, F_U, g_U


def check_lmpc(mods, doc, x_k, step):
    """Compare one LMPC step with an SLSQP solve of the condensed problem."""
    N, Q_X, R_U, A_X, B_U, F_X, g_X, F_U, g_U = _lti_data(doc)
    free = A_X @ x_k
    H = B_U.T @ Q_X @ B_U + R_U
    q = 2.0 * B_U.T @ Q_X @ free
    r = float(free @ Q_X @ free)
    F = np.vstack([F_X @ B_U, F_U])
    g = np.concatenate([g_X - F_X @ free, g_U])
    res = minimize(lambda u: u @ H @ u + q @ u + r, np.zeros(H.shape[0]),
                   jac=lambda u: 2.0 * H @ u + q, method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda u: g - F @ u,
                                 "jac": lambda u: -F}],
                   options={"ftol": 1e-12, "maxiter": 1000})
    U = step.U_star.ravel()
    X = step.X_star.ravel()
    viol = max(float(np.max(F @ U - g, initial=0.0)),
               float(np.abs(X - (free + B_U @ U)).max()))

    # mpckit's multipliers on the same problem, built here in mpckit's form
    QpProblem, kkt = mods.qp_solver.QpProblem, mods.qp_solver.kkt_residuals
    sol = step.solution
    if doc["solver"]["formulation"] == "sparse":
        nX = Q_X.shape[0]
        p = QpProblem(H=np.block([[Q_X, np.zeros((nX, R_U.shape[0]))],
                                  [np.zeros((R_U.shape[0], nX)), R_U]]),
                      F=np.block([[F_X, np.zeros((F_X.shape[0], R_U.shape[0]))],
                                  [np.zeros((F_U.shape[0], nX)), F_U]]),
                      g=np.concatenate([g_X, g_U]),
                      F_eq=np.hstack([np.eye(nX), -B_U]), g_eq=free)
    else:
        p = QpProblem(H=H, q=q, r=r, F=F, g=g)
    stat, _, comp = kkt(p, sol.z_star, sol.duals)
    scale = max(1.0, float(np.abs(2.0 * p.H @ sol.z_star).max()), float(np.abs(p.q).max()))
    lam = float(np.abs(sol.duals).max()) if sol.duals.size else 0.0
    kkt_ok = stat <= KKT_TOL * scale and comp <= KKT_TOL * max(1.0, lam)
    return _verdict(res, step.J_star, viol, viol_tol(doc), kkt_ok)


def _verdict(res, J, viol, tol, kkt_ok=True):
    if not res.success:
        return None
    gap = (J - res.fun) / max(1.0, abs(res.fun))
    return {"gap": abs(gap), "viol": viol,
            "wrong": gap > GAP_TOL or viol > tol or not kkt_ok}


def pendulum_f(p, x, u):
    ml2 = p["M"] * p["l"] ** 2
    return np.array([x[0] + p["T"] * x[1],
                     x[1] + p["T"] * (-(p["g_grav"] / p["l"]) * math.sin(x[0])
                                      - (p["B_fric"] / ml2) * x[1] + u[0] / ml2)])


def check_nmpc(doc, x_k, step):
    """Compare one NMPC step with SLSQP started from mpckit's answer.

    The program is nonconvex, so the reference is a local one: mpckit's
    point is wrong if it violates the constraints or SLSQP finds a lower
    objective near it.
    """
    n, m, N = 2, 1, doc["horizon"]["N"]
    con = doc["constraints"]
    F_x, g_x = np.asarray(con["F_x"], float), np.asarray(con["g_x"], float)
    F_u, g_u = np.asarray(con["F_u"], float), np.asarray(con["g_u"], float)
    p = doc["model"]
    x_r, u_r = np.zeros(n), np.zeros(m)
    if "reference" in doc:
        # steady torque of the forward-Euler pendulum at rest: M l g sin(x_r1)
        x_r = np.asarray(doc["reference"]["x_r"], float)
        u_r = np.array([p["M"] * p["l"] * p["g_grav"] * math.sin(x_r[0])])
    g_x = g_x - F_x @ x_r
    g_u = g_u - F_u @ u_r
    nX = n * (N + 1)
    W = np.zeros((nX + m * N, nX + m * N))
    W[:nX, :nX] = _blocks(doc["weights"]["Q"], N + 1)
    W[nX:, nX:] = _blocks(doc["weights"]["R"], N)

    def split(z):
        return z[:nX].reshape(N + 1, n), z[nX:].reshape(N, m)

    def eq(z):
        X, U = split(z)
        out = [X[0] - x_k]
        for i in range(N):
            out.append(X[i + 1] - (pendulum_f(p, X[i] + x_r, U[i] + u_r) - x_r))
        return np.concatenate(out)

    def ineq(z):
        X, U = split(z)
        return np.concatenate([(g_x - X @ F_x.T).ravel(), (g_u - U @ F_u.T).ravel()])

    z = np.concatenate([step.X_star.ravel(), step.U_star.ravel()])
    res = minimize(lambda v: v @ W @ v, z, jac=lambda v: 2.0 * W @ v, method="SLSQP",
                   constraints=[{"type": "eq", "fun": eq}, {"type": "ineq", "fun": ineq}],
                   options={"ftol": 1e-12, "maxiter": 500})
    viol = max(float(np.abs(eq(z)).max()), float(np.max(-ineq(z), initial=0.0)))
    tol = viol_tol(doc)
    if res.success and (np.abs(eq(res.x)).max() > tol or np.min(ineq(res.x)) < -tol):
        return None   # the reference itself did not end feasible
    return _verdict(res, step.J_star, viol, tol)


def check_feasibility(doc, x, report):
    """Phase-I verdict against HiGHS: min s s.t. the N-step prediction fits."""
    N, _, _, A_X, B_U, F_X, g_X, F_U, g_U = _lti_data(doc)
    con = doc["constraints"]
    inside = np.asarray(con["F_x"], float) @ x - np.asarray(con["g_x"], float)
    if np.abs(inside).min() <= 1e-7:
        return None
    if inside.max() > 0:
        return {"gap": 0.0, "viol": 0.0, "wrong": report.feasible}
    nU = B_U.shape[1]
    A_ub = np.vstack([np.hstack([F_X @ B_U, -np.ones((F_X.shape[0], 1))]),
                      np.hstack([F_U, -np.ones((F_U.shape[0], 1))])])
    b_ub = np.concatenate([g_X - F_X @ (A_X @ x), g_U])
    c = np.zeros(nU + 1)
    c[-1] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=[(None, None)] * nU + [(-1.0, None)],
                  method="highs")
    if res.status != 0 or abs(res.fun) <= SLACK_AMBIGUOUS:
        return None
    return {"gap": 0.0, "viol": 0.0, "wrong": report.feasible != (res.fun <= 0.0)}


def trajectory_violation(doc, traj):
    """Largest state or input constraint violation along a closed loop."""
    con = doc["constraints"]
    viol = 0.0
    if traj.states:
        X = np.asarray(traj.states)
        viol = max(viol, float((X @ np.asarray(con["F_x"], float).T - con["g_x"]).max()))
    if traj.inputs:
        U = np.asarray(traj.inputs)
        viol = max(viol, float((U @ np.asarray(con["F_u"], float).T - con["g_u"]).max()))
    return max(viol, 0.0)
