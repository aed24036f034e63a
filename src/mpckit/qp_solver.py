"""Convex QP solver based on operator splitting (ADMM) with polishing.

Problem form, matching the rest of the toolkit (note: no 1/2 factor):

    minimize    z' H z + q' z + r
    subject to  F z <= g,  F_eq z = g_eq

A bound on z is a row of F like any other. Internally the rows are stacked
as intervals l <= A z <= u, A = [F; F_eq] (equalities get l = u), and the
solver alternates one d x d linear solve with
P + sigma I + A' diag(rho) A, factored once per step size (OSQP's reduced
form of the KKT system), with an interval projection. A QpWorkspace keeps
the stacked rows and the factor at the initial step size across solves
that share H, F and F_eq, as the steps of a closed loop do.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.linalg import get_lapack_funcs

from .exceptions import NonFiniteError, ShapeError, SingularMatrixError
from .numerics import as_cost, as_rows, as_vector

# Fixed ADMM parameters, as in OSQP (Stellato et al., Math. Prog. Comp. 2020):
# initial step size, primal regularization, relaxation, iterations between
# termination checks (residuals, certificate, step-size update) and between
# step-size updates, and the tolerance of the infeasibility certificate.
RHO = 0.1
SIGMA = 1e-6
ALPHA = 1.6
CHECK_EVERY = 5
RHO_UPDATE_INTERVAL = 10 * CHECK_EVERY
EPS_INFEASIBLE = 1e-8

# LAPACK's double-precision LU routines, looked up once: scipy.linalg's
# lu_factor/lu_solve look them up again, behind a batching wrapper, on every
# call, which costs several times the solve itself at the sizes of an MPC step.
# Cholesky (potrf) tests P + SIGMA I for definiteness once per workspace.
_getrf, _getrs, _potrf = get_lapack_funcs(("getrf", "getrs", "potrf"), (np.empty(0),))


class QpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass
class SolverSettings:
    """Stopping tolerances and iteration cap of the QP (ADMM) solver.

    solve_nlp passes the same settings on to each of its QP subproblems.
    """

    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iter: int = 20000


@dataclass
class QpProblem:
    """Standard-form QP data; missing pieces default to empty/absent."""

    H: np.ndarray
    q: Optional[np.ndarray] = None
    r: float = 0.0
    F: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    F_eq: Optional[np.ndarray] = None
    g_eq: Optional[np.ndarray] = None

    def __post_init__(self):
        self.H, self.q = as_cost(self.H, self.q)
        self.F, self.g = as_rows(self.F, self.g, self.d, "F")
        self.F_eq, self.g_eq = as_rows(self.F_eq, self.g_eq, self.d, "F_eq")

    @property
    def d(self):
        return self.H.shape[0]

    def objective(self, z):
        return float(z @ self.H @ z + self.q @ z + self.r)


@dataclass
class QpSolution:
    z_star: np.ndarray
    objective: float
    status: QpStatus
    iterations: int
    primal_residual: float
    dual_residual: float
    # Multipliers for the stacked rows [F; F_eq], in that order.
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _same_block(a, b):
    """The very same array, or two empty arrays of one shape."""
    return a is b or (a.size == 0 and a.shape == b.shape)


def lu_factor(M):
    """LU factor (lu, piv) of the square matrix M by LAPACK getrf, as
    scipy.linalg.lu_factor gives it.

    Raises NonFiniteError when M holds a NaN or an infinity, and
    SingularMatrixError when a pivot is exactly zero.
    """
    if not np.isfinite(M).all():
        raise NonFiniteError("NaN or infinity in a matrix built from H, F or F_eq")
    lu, piv, info = _getrf(M)
    if info > 0:
        raise SingularMatrixError(f"LU pivot {info} is exactly zero")
    return lu, piv


def lu_solve(lu_piv, b):
    """x with M x = b from lu_factor(M) = (lu, piv), by LAPACK getrs."""
    return _getrs(*lu_piv, b)[0]


def _factor(P, A, rho):
    """LU factor of the reduced matrix P + SIGMA I + A' diag(rho) A.

    QpWorkspace.build has tested H, F and F_eq for finiteness and P + SIGMA I
    for definiteness, so the matrix is regular; a finite F whose product
    overflows still reaches lu_factor, which rejects the infinity.
    """
    return lu_factor(P + SIGMA * np.eye(P.shape[0]) + (A.T * rho) @ A)


class QpWorkspace:
    """The parts of a solve that q, g and g_eq leave alone: the stacked rows
    A = [F; F_eq], the per-row step-size scale (the F_eq rows get 1e3),
    P = 2H and the factor of the reduced matrix at rho = RHO.

    solve_qp fills it on first use. It reuses it while H, F and F_eq are the
    very arrays it was built from; any other problem gets a fresh build.
    Factors at an adapted rho are made per solve, and every solve starts
    again from RHO, so a reused workspace gives the same iterates as a fresh
    one. A build checks its input once, before its first factor: NaN or
    infinity in H, F or F_eq raises NonFiniteError, and a P + SIGMA I with
    no Cholesky factor raises SingularMatrixError, since the rows can make
    the reduced matrix regular for an H that is not positive semidefinite,
    and ADMM would then diverge.
    """

    def __init__(self):
        self.H = self.F = self.F_eq = None

    def fits(self, p):
        return (self.H is p.H and _same_block(self.F, p.F)
                and _same_block(self.F_eq, p.F_eq))

    def build(self, p):
        A = np.vstack([p.F, p.F_eq])
        if not (np.isfinite(p.H).all() and np.isfinite(A).all()):
            raise NonFiniteError("NaN or infinity in H, F or F_eq")
        P = 2.0 * p.H
        if _potrf(P + SIGMA * np.eye(p.d))[1] > 0:
            raise SingularMatrixError("P + sigma I has no Cholesky factor: "
                                      "H is not positive semidefinite")
        rho_scale = np.repeat([1.0, 1e3], [p.F.shape[0], p.F_eq.shape[0]])
        lu = _factor(P, A, RHO * rho_scale)
        # set last, so that a build that raises leaves nothing to reuse
        self.A, self.P, self.rho_scale, self.rho, self.lu = A, P, rho_scale, RHO * rho_scale, lu
        self.H, self.F, self.F_eq = p.H, p.F, p.F_eq


def _support(e, l, u):
    """max e'z over the box l <= z <= u; inf when unbounded along e."""
    bound = np.where(e > 0, u, np.where(e < 0, l, 0.0))
    return float(bound @ e) if np.isfinite(bound).all() else np.inf


def _residuals(P, q, A, l, u, x, y):
    """Primal violation of l <= A x <= u and stationarity |P x + q + A'y|."""
    ax = A @ x
    return (float(np.maximum(ax - u, l - ax).max(initial=0.0)),
            float(np.abs(P @ x + q + A.T @ y).max()))


def solve_qp(p, warm=None, settings=None, workspace=None):
    """Solve the QP by ADMM; returns a QpSolution.

    ``warm`` may be a primal vector or a previous QpSolution (primal and
    dual warm start). ``workspace`` is a QpWorkspace kept between solves of
    problems that share H, F and F_eq (a closed loop's steps); without one
    the solve builds its own. A warm start of the wrong length raises
    ShapeError. Identical inputs produce bit-identical iterates, with or
    without a workspace. Termination is tested every CHECK_EVERY
    iterations and at max_iter, so a solve stops at a multiple of
    CHECK_EVERY or at max_iter. Raises NonFiniteError when H, F, F_eq,
    q, the warm start or the start rows clip(A z0, l, u) hold a NaN or an
    infinity, and SingularMatrixError when H is not positive semidefinite;
    the workspace build tests H, F and F_eq (QpWorkspace). The reported
    residuals are the primal violation and the stationarity of the
    returned (z_star, duals).
    """
    s = settings or SolverSettings()
    d = p.d
    l = np.concatenate([np.full(p.F.shape[0], -np.inf), p.g_eq])
    u = np.concatenate([p.g, p.g_eq])
    ws = workspace if workspace is not None else QpWorkspace()
    if not ws.fits(p):
        ws.build(p)
    A, P, rho_scale = ws.A, ws.P, ws.rho_scale
    m = A.shape[0]
    q = p.q

    x = np.zeros(d)
    y = np.zeros(m)
    if isinstance(warm, QpSolution):
        x, y = warm.z_star.copy(), warm.duals.copy()
    elif warm is not None:
        x = as_vector(warm, "warm").copy()
    if (x.shape[0], y.shape[0]) != (d, m):
        raise ShapeError(f"warm start has {x.shape[0]} primal and {y.shape[0]} dual entries, "
                         f"expected {d} and {m}")
    if not (np.isfinite(q).all() and np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("NaN or infinity in q or in the warm start")
    z = np.clip(A @ x, l, u)
    if not np.isfinite(z).all():
        raise NonFiniteError("NaN or infinity in the start rows clip(A z0, l, u)")

    rho_base = RHO
    lu, rho = ws.lu, ws.rho
    q_norm = float(np.abs(q).max(initial=0.0))

    status = QpStatus.MAX_ITERATIONS
    it = 0
    for it in range(1, s.max_iter + 1):
        x_t = lu_solve(lu, SIGMA * x - q + A.T @ (rho * z - y))
        x = ALPHA * x_t + (1.0 - ALPHA) * x
        az = ALPHA * (A @ x_t) + (1.0 - ALPHA) * z
        z = np.clip(az + y / rho, l, u)
        y_prev = y
        y = y + rho * (az - z)
        if it % CHECK_EVERY and it != s.max_iter:
            continue

        # convergence check
        ax = A @ x
        px = P @ x
        aty = A.T @ y
        r_prim = float(np.abs(ax - z).max(initial=0.0))
        r_dual = float(np.abs(px + q + aty).max())
        scale_prim = max(float(np.abs(ax).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
        scale_dual = max(float(np.abs(px).max()), q_norm, float(np.abs(aty).max()))
        if r_prim <= s.eps_abs + s.eps_rel * scale_prim \
                and r_dual <= s.eps_abs + s.eps_rel * scale_dual:
            status = QpStatus.OPTIMAL
            break

        # primal infeasibility certificate from the last dual step
        dy = y - y_prev
        dy_norm = float(np.abs(dy).max(initial=0.0))
        if dy_norm > 1e-14:
            e = dy / dy_norm
            if _support(e, l, u) <= -EPS_INFEASIBLE \
                    and float(np.abs(A.T @ e).max()) <= EPS_INFEASIBLE:
                status = QpStatus.INFEASIBLE
                break

        # residual-balancing step-size update
        if it % RHO_UPDATE_INTERVAL == 0:
            ratio = np.sqrt((r_prim / max(scale_prim, 1e-10))
                            / max(r_dual / max(scale_dual, 1e-10), 1e-16))
            new_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
            if new_base > 5.0 * rho_base or new_base < rho_base / 5.0:
                rho_base = new_base
                rho = rho_base * rho_scale
                lu = _factor(P, A, rho)

    if status is QpStatus.OPTIMAL:
        x, y = _polish(p, A, l, u, x, y)
    prim, dual = _residuals(P, q, A, l, u, x, y)
    return QpSolution(
        z_star=x,
        objective=p.objective(x),
        status=status,
        iterations=it,
        primal_residual=prim,
        dual_residual=dual,
        duals=y,
    )


def _polish(p, A, l, u, x, y):
    """Refine the ADMM solution by solving the KKT system on the active set."""
    d, P, ax = p.d, 2.0 * p.H, A @ x
    act_low = (y < -1e-9) | np.isclose(ax, l, atol=1e-7)
    act_high = (y > 1e-9) | np.isclose(ax, u, atol=1e-7)
    active = act_low | act_high
    old = _residuals(P, p.q, A, l, u, x, y)
    if not np.any(active):
        # unconstrained at the solution: Newton step on the objective, kept
        # if it is no less feasible and no worse than the ADMM iterate
        try:
            xh = np.linalg.solve(P + 1e-12 * np.eye(d), -p.q)
        except np.linalg.LinAlgError:
            return x, y
        if _residuals(P, p.q, A, l, u, xh, y)[0] <= max(old[0], 1e-12) \
                and p.objective(xh) <= p.objective(x):
            return xh, y
        return x, y
    idx = np.flatnonzero(active)
    A_act = A[idx]
    b_act = np.where(act_high[idx], u[idx], l[idx])
    na = len(idx)
    delta = 1e-9
    K = np.block([[P + delta * np.eye(d), A_act.T], [A_act, -delta * np.eye(na)]])
    rhs = np.concatenate([-p.q, b_act])
    try:
        kkt = lu_factor(K)
    except SingularMatrixError:
        return x, y
    sol = lu_solve(kkt, rhs)
    # three rounds of iterative refinement against the unregularized system
    for _ in range(3):
        res = rhs - np.concatenate([P @ sol[:d] + A_act.T @ sol[d:], A_act @ sol[:d]])
        sol = sol + lu_solve(kkt, res)
    xh = sol[:d]
    yh = np.zeros(A.shape[0])
    yh[idx] = sol[d:]
    # inequality multipliers must point the right way; clamp tiny sign noise
    low_only = act_low[idx] & ~act_high[idx]
    high_only = act_high[idx] & ~act_low[idx]
    ok_signs = np.all(sol[d:][low_only] <= 1e-7) and np.all(sol[d:][high_only] >= -1e-7)
    if ok_signs and max(_residuals(P, p.q, A, l, u, xh, yh)) <= max(old) + 1e-12:
        return xh, yh
    return x, y


def kkt_residuals(p, z, duals):
    """Infinity norms of stationarity, primal violation and complementarity.

    ``duals`` holds the multipliers of the F rows, then of the F_eq rows, as
    in QpSolution.duals.
    """
    z = as_vector(z, "z")
    duals = as_vector(duals, "duals")
    n_in = p.F.shape[0]
    if z.shape[0] != p.d or duals.shape[0] != n_in + p.F_eq.shape[0]:
        raise ShapeError("z/duals dimensions do not match the problem")
    lam, nu = duals[:n_in], duals[n_in:]
    stationarity = float(np.abs(2.0 * p.H @ z + p.q + p.F.T @ lam + p.F_eq.T @ nu).max())
    slack = p.F @ z - p.g
    viol = max(float(slack.max(initial=0.0)),
               float(np.abs(p.F_eq @ z - p.g_eq).max(initial=0.0)))
    comp = float(np.abs(lam * slack).max(initial=0.0))
    return stationarity, viol, comp
