"""Convex QP solver based on operator splitting (ADMM) with polishing.

Problem form, matching the rest of the toolkit (note: no 1/2 factor):

    minimize    z' H z + q' z + r
    subject to  F z <= g,  F_eq z = g_eq,  lb <= z <= ub

Internally all constraints are stacked as interval rows l <= A z <= u
(equalities get l = u) and the solver alternates one d x d linear solve with
P + sigma I + A' diag(rho) A, factored once per step size (OSQP's reduced
form of the KKT system), with an interval projection.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .exceptions import ShapeError
from .numerics import as_matrix, as_vector

# Fixed ADMM parameters, as in OSQP (Stellato et al., Math. Prog. Comp. 2020):
# initial step size, primal regularization, relaxation, iterations between
# step-size updates, and the tolerance of the infeasibility certificate.
RHO = 0.1
SIGMA = 1e-6
ALPHA = 1.6
RHO_UPDATE_INTERVAL = 50
EPS_INFEASIBLE = 1e-8


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
    lb: Optional[np.ndarray] = None
    ub: Optional[np.ndarray] = None

    def __post_init__(self):
        H = as_matrix(self.H, "H")
        d = H.shape[0]
        if H.shape[1] != d:
            raise ShapeError(f"H must be square, got {H.shape}")
        if np.abs(H - H.T).max() > 1e-10:
            raise ShapeError("H must be symmetric (asymmetry > 1e-10)")
        self.H = H
        self.q = np.zeros(d) if self.q is None else as_vector(self.q, "q")
        if self.q.shape[0] != d:
            raise ShapeError(f"q has length {self.q.shape[0]}, expected {d}")

        if self.F is None:
            self.F = np.zeros((0, d))
            self.g = np.zeros(0)
        else:
            self.F = as_matrix(self.F, "F") if np.size(self.F) else np.zeros((0, d))
            self.g = as_vector(self.g, "g") if self.g is not None else np.zeros(0)
        if self.F.shape[1] != d or self.F.shape[0] != self.g.shape[0]:
            raise ShapeError("inequality block dimensions inconsistent")

        if self.F_eq is None:
            self.F_eq = np.zeros((0, d))
            self.g_eq = np.zeros(0)
        else:
            self.F_eq = as_matrix(self.F_eq, "F_eq") if np.size(self.F_eq) else np.zeros((0, d))
            self.g_eq = as_vector(self.g_eq, "g_eq") if self.g_eq is not None else np.zeros(0)
        if self.F_eq.shape[1] != d or self.F_eq.shape[0] != self.g_eq.shape[0]:
            raise ShapeError("equality block dimensions inconsistent")

        if self.lb is not None:
            self.lb = as_vector(self.lb, "lb")
            if self.lb.shape[0] != d:
                raise ShapeError("lb has wrong length")
        if self.ub is not None:
            self.ub = as_vector(self.ub, "ub")
            if self.ub.shape[0] != d:
                raise ShapeError("ub has wrong length")
        if self.lb is not None and self.ub is not None and np.any(self.lb > self.ub):
            raise ShapeError("lb must be elementwise <= ub")

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
    # Multipliers for the stacked rows [F; F_eq; active bounds], in that order.
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _stack_constraints(p):
    """Stack F/F_eq/bounds into interval rows l <= A z <= u."""
    d = p.d
    blocks = [p.F, p.F_eq]
    lows = [np.full(p.F.shape[0], -np.inf), p.g_eq]
    highs = [p.g, p.g_eq]
    if p.lb is not None or p.ub is not None:
        lb = p.lb if p.lb is not None else np.full(d, -np.inf)
        ub = p.ub if p.ub is not None else np.full(d, np.inf)
        bound_idx = np.flatnonzero(np.isfinite(lb) | np.isfinite(ub))
        blocks.append(np.eye(d)[bound_idx])
        lows.append(lb[bound_idx])
        highs.append(ub[bound_idx])
    A = np.vstack(blocks)
    l = np.concatenate(lows)
    u = np.concatenate(highs)
    return A, l, u


def _support(e, l, u):
    """max e'z over the box l <= z <= u; inf when unbounded along e."""
    bound = np.where(e > 0, u, np.where(e < 0, l, 0.0))
    return float(bound @ e) if np.isfinite(bound).all() else np.inf


def _violation(A, l, u, z_ax):
    if A.shape[0] == 0:
        return 0.0
    return float(np.maximum(np.maximum(z_ax - u, l - z_ax), 0.0).max())


def solve_qp(p, warm=None, settings=None):
    """Solve the QP by ADMM; returns a QpSolution.

    ``warm`` may be a primal vector or a previous QpSolution (primal and
    dual warm start). Identical inputs produce bit-identical iterates.
    """
    s = settings or SolverSettings()
    d = p.d
    A, l, u = _stack_constraints(p)
    m = A.shape[0]
    P = 2.0 * p.H
    q = p.q

    eq_rows = np.isfinite(l) & np.isfinite(u) & (u - l < 1e-12)
    rho_scale = np.where(eq_rows, 1e3, 1.0)

    x = np.zeros(d)
    y = np.zeros(m)
    if isinstance(warm, QpSolution):
        if warm.z_star.shape[0] == d:
            x = warm.z_star.copy()
        if warm.duals.shape[0] == m:
            y = warm.duals.copy()
    elif warm is not None:
        w = as_vector(warm, "warm")
        if w.shape[0] == d:
            x = w.copy()
    z = np.clip(A @ x, l, u) if m else np.zeros(0)

    rho_base = RHO

    def factor(rb):
        rho = rb * rho_scale
        return lu_factor(P + SIGMA * np.eye(d) + (A.T * rho) @ A), rho

    lu, rho = factor(rho_base)

    status = QpStatus.MAX_ITERATIONS
    it = 0
    x_prev_chk = x.copy()
    y_prev_chk = y.copy()
    r_prim = r_dual = np.inf
    for it in range(1, s.max_iter + 1):
        x_old = x
        z_old = z
        x_t = lu_solve(lu, SIGMA * x - q + A.T @ (rho * z - y))
        x = ALPHA * x_t + (1.0 - ALPHA) * x_old
        if m:
            az = ALPHA * (A @ x_t) + (1.0 - ALPHA) * z_old
            z = np.clip(az + y / rho, l, u)
            y = y + rho * (az - z)

        # convergence check
        ax = A @ x if m else np.zeros(0)
        px = P @ x
        aty = A.T @ y if m else np.zeros(d)
        r_prim = float(np.abs(ax - z).max()) if m else 0.0
        r_dual = float(np.abs(px + q + aty).max())
        eps_prim = s.eps_abs + s.eps_rel * max(
            float(np.abs(ax).max()) if m else 0.0,
            float(np.abs(z).max()) if m else 0.0)
        eps_dual = s.eps_abs + s.eps_rel * max(
            float(np.abs(px).max()), float(np.abs(q).max()) if q.size else 0.0,
            float(np.abs(aty).max()))
        if r_prim <= eps_prim and r_dual <= eps_dual:
            status = QpStatus.OPTIMAL
            break

        # primal infeasibility certificate
        if m:
            dy = y - y_prev_chk
            dy_norm = float(np.abs(dy).max())
            if dy_norm > 1e-14:
                e = dy / dy_norm
                if _support(e, l, u) <= -EPS_INFEASIBLE \
                        and float(np.abs(A.T @ e).max()) <= EPS_INFEASIBLE:
                    status = QpStatus.INFEASIBLE
                    break
        x_prev_chk = x.copy()
        y_prev_chk = y.copy()

        # residual-balancing step-size update
        if it % RHO_UPDATE_INTERVAL == 0:
            denom_p = max(float(np.abs(ax).max()) if m else 0.0,
                          float(np.abs(z).max()) if m else 0.0, 1e-10)
            denom_d = max(float(np.abs(px).max()),
                          float(np.abs(q).max()) if q.size else 0.0,
                          float(np.abs(aty).max()), 1e-10)
            ratio = np.sqrt((r_prim / denom_p) / max(r_dual / denom_d, 1e-16))
            new_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
            if new_base > 5.0 * rho_base or new_base < rho_base / 5.0:
                rho_base = new_base
                lu, rho = factor(rho_base)

    ax = A @ x if m else np.zeros(0)
    if status is QpStatus.OPTIMAL:
        x, y = _polish(p, A, l, u, x, y)
        ax = A @ x

    prim = _violation(A, l, u, ax)
    dual = float(np.abs(P @ x + q + (A.T @ y if m else 0.0)).max())
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
    m = A.shape[0]
    act_low = (y < -1e-9) | np.isclose(A @ x, l, atol=1e-7)
    act_high = (y > 1e-9) | np.isclose(A @ x, u, atol=1e-7)
    active = act_low | act_high
    if not np.any(active):
        # unconstrained at the solution: Newton step on the objective, kept
        # if it is no less feasible and no worse than the ADMM iterate
        try:
            xh = np.linalg.solve(2.0 * p.H + 1e-12 * np.eye(p.d), -p.q)
        except np.linalg.LinAlgError:
            return x, y
        if _violation(A, l, u, A @ xh) <= max(_violation(A, l, u, A @ x), 1e-12) \
                and p.objective(xh) <= p.objective(x):
            return xh, y
        return x, y
    idx = np.flatnonzero(active)
    A_act = A[idx]
    b_act = np.where(act_high[idx], u[idx], l[idx])
    na = len(idx)
    delta = 1e-9
    K = np.zeros((p.d + na, p.d + na))
    K[:p.d, :p.d] = 2.0 * p.H + delta * np.eye(p.d)
    K[:p.d, p.d:] = A_act.T
    K[p.d:, :p.d] = A_act
    K[p.d:, p.d:] = -delta * np.eye(na)
    rhs = np.concatenate([-p.q, b_act])
    try:
        kkt = lu_factor(K)
    except Exception:
        return x, y
    sol = lu_solve(kkt, rhs)
    # three rounds of iterative refinement against the unregularized system
    for _ in range(3):
        res = rhs - np.concatenate([
            2.0 * p.H @ sol[:p.d] + A_act.T @ sol[p.d:],
            A_act @ sol[:p.d]])
        sol = sol + lu_solve(kkt, res)
    xh = sol[:p.d]
    yh = np.zeros(m)
    yh[idx] = sol[p.d:]
    # inequality multipliers must point the right way; clamp tiny sign noise
    low_only = act_low[idx] & ~act_high[idx]
    high_only = act_high[idx] & ~act_low[idx]
    ok_signs = np.all(sol[p.d:][low_only] <= 1e-7) and np.all(sol[p.d:][high_only] >= -1e-7)
    prim_new = _violation(A, l, u, A @ xh)
    dual_new = float(np.abs(2.0 * p.H @ xh + p.q + A.T @ yh).max())
    prim_old = _violation(A, l, u, A @ x)
    dual_old = float(np.abs(2.0 * p.H @ x + p.q + A.T @ y).max())
    if ok_signs and max(prim_new, dual_new) <= max(prim_old, dual_old) + 1e-12:
        return xh, yh
    return x, y


def kkt_residuals(p, z, duals):
    """Infinity norms of stationarity, primal violation and complementarity.

    ``duals`` holds multipliers for the F rows followed by the F_eq rows.
    """
    z = as_vector(z, "z")
    duals = as_vector(duals, "duals") if np.size(duals) else np.zeros(0)
    n_in = p.F.shape[0]
    n_eq = p.F_eq.shape[0]
    if z.shape[0] != p.d or duals.shape[0] < n_in + n_eq:
        raise ShapeError("z/duals dimensions do not match the problem")
    lam = duals[:n_in]
    nu = duals[n_in:n_in + n_eq]
    grad = 2.0 * p.H @ z + p.q
    if n_in:
        grad = grad + p.F.T @ lam
    if n_eq:
        grad = grad + p.F_eq.T @ nu
    stationarity = float(np.abs(grad).max())
    viol = 0.0
    comp = 0.0
    if n_in:
        slack = p.F @ z - p.g
        viol = max(viol, float(np.maximum(slack, 0.0).max()))
        comp = float(np.abs(lam * slack).max())
    if n_eq:
        viol = max(viol, float(np.abs(p.F_eq @ z - p.g_eq).max()))
    if p.lb is not None:
        viol = max(viol, float(np.maximum(p.lb - z, 0.0).max()))
    if p.ub is not None:
        viol = max(viol, float(np.maximum(z - p.ub, 0.0).max()))
    return stationarity, viol, comp
