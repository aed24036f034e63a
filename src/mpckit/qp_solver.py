"""Convex QP solver based on operator splitting (ADMM) with polishing.

Problem form, matching the rest of the toolkit (note: no 1/2 factor):

    minimize    z' H z + q' z + r
    subject to  F z <= g,  F_eq z = g_eq,  lb <= z <= ub

Internally all constraints are stacked as interval rows l <= A z <= u
(equalities get l = u) and the solver alternates one d x d linear solve with
P + sigma I + A' diag(rho) A, factored once per step size (OSQP's reduced
form of the KKT system), with an interval projection. A QpWorkspace keeps
the stacked rows and the factor at the initial step size across solves
that share H, F and F_eq, as the steps of a closed loop do.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .exceptions import NonFiniteError, ShapeError
from .numerics import as_matrix, as_vector

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
    # Multipliers for the stacked rows [F; F_eq; bound rows], in that order:
    # one bound row per index of z with a finite lb or ub.
    duals: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _bounds(p):
    """lb and ub with a missing side infinite, and the indices of z with a
    finite bound. Each such index gets one bound row, in increasing order,
    after the F and F_eq rows."""
    d = p.d
    lb = p.lb if p.lb is not None else np.full(d, -np.inf)
    ub = p.ub if p.ub is not None else np.full(d, np.inf)
    return lb, ub, np.flatnonzero(np.isfinite(lb) | np.isfinite(ub))


def _row_bounds(p):
    """Intervals l <= A z <= u of the stacked rows [F; F_eq; bound rows], and
    the bound rows' indices into z."""
    lows = [np.full(p.F.shape[0], -np.inf), p.g_eq]
    highs = [p.g, p.g_eq]
    bound_idx = np.zeros(0, dtype=int)
    if p.lb is not None or p.ub is not None:
        lb, ub, bound_idx = _bounds(p)
        lows.append(lb[bound_idx])
        highs.append(ub[bound_idx])
    return np.concatenate(lows), np.concatenate(highs), bound_idx


def _same_block(a, b):
    """The very same array, or two empty arrays of one shape."""
    return a is b or (a.size == 0 and a.shape == b.shape)


def _factor(P, A, rho):
    """LU factor of the reduced matrix P + SIGMA I + A' diag(rho) A."""
    return lu_factor(P + SIGMA * np.eye(P.shape[0]) + (A.T * rho) @ A)


class QpWorkspace:
    """The parts of a solve that q, g, g_eq and the bound values leave alone:
    the stacked rows A, the per-row step-size scale (equality rows get 1e3),
    P = 2H and the factor of the reduced matrix at rho = RHO.

    solve_qp fills it on first use. It reuses it while H, F and F_eq are the
    very arrays it was built from and the bound and equality rows fall on the
    same indices; any other problem gets a fresh build. Factors at an adapted
    rho are made per solve, and every solve starts again from RHO, so a
    reused workspace gives the same iterates as a fresh one.
    """

    def __init__(self):
        self.H = self.F = self.F_eq = None

    def fits(self, p, bound_idx, eq_rows):
        return (self.H is p.H and _same_block(self.F, p.F)
                and _same_block(self.F_eq, p.F_eq)
                and np.array_equal(self.bound_idx, bound_idx)
                and np.array_equal(self.eq_rows, eq_rows))

    def build(self, p, bound_idx, eq_rows):
        self.H, self.F, self.F_eq = p.H, p.F, p.F_eq
        self.bound_idx, self.eq_rows = bound_idx, eq_rows
        rows = [p.F, p.F_eq]
        if bound_idx.size:
            rows.append(np.eye(p.d)[bound_idx])
        self.A = np.vstack(rows)
        self.P = 2.0 * p.H
        self.rho_scale = np.where(eq_rows, 1e3, 1.0)
        self.rho = RHO * self.rho_scale
        self.lu = _factor(self.P, self.A, self.rho)


def _support(e, l, u):
    """max e'z over the box l <= z <= u; inf when unbounded along e."""
    bound = np.where(e > 0, u, np.where(e < 0, l, 0.0))
    return float(bound @ e) if np.isfinite(bound).all() else np.inf


def _violation(A, l, u, z_ax):
    if A.shape[0] == 0:
        return 0.0
    return float(np.maximum(np.maximum(z_ax - u, l - z_ax), 0.0).max())


def solve_qp(p, warm=None, settings=None, workspace=None):
    """Solve the QP by ADMM; returns a QpSolution.

    ``warm`` may be a primal vector or a previous QpSolution (primal and
    dual warm start). ``workspace`` is a QpWorkspace kept between solves of
    problems that share H, F and F_eq (a closed loop's steps); without one
    the solve builds its own. Identical inputs produce bit-identical
    iterates, with or without a workspace. Termination is tested every
    CHECK_EVERY iterations and at max_iter, so a solve stops at a multiple
    of CHECK_EVERY or at max_iter. Raises NonFiniteError when q, the warm
    start or the start rows clip(A z0, l, u) hold a NaN or an infinity.
    """
    s = settings or SolverSettings()
    d = p.d
    l, u, bound_idx = _row_bounds(p)
    eq_rows = np.isfinite(l) & np.isfinite(u) & (u - l < 1e-12)
    ws = workspace if workspace is not None else QpWorkspace()
    if not ws.fits(p, bound_idx, eq_rows):
        ws.build(p, bound_idx, eq_rows)
    A, P, rho_scale = ws.A, ws.P, ws.rho_scale
    m = A.shape[0]
    q = p.q

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
    if not (np.isfinite(q).all() and np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteError("NaN or infinity in q or in the warm start")
    z = np.clip(A @ x, l, u) if m else np.zeros(0)
    if not np.isfinite(z).all():
        raise NonFiniteError("NaN or infinity in the start rows clip(A z0, l, u)")

    rho_base = RHO
    lu, rho = ws.lu, ws.rho
    q_norm = float(np.abs(q).max()) if q.size else 0.0

    status = QpStatus.MAX_ITERATIONS
    it = 0
    y_prev = y
    r_prim = r_dual = np.inf
    for it in range(1, s.max_iter + 1):
        x_t = lu_solve(lu, SIGMA * x - q + A.T @ (rho * z - y), check_finite=False)
        x = ALPHA * x_t + (1.0 - ALPHA) * x
        if m:
            az = ALPHA * (A @ x_t) + (1.0 - ALPHA) * z
            z = np.clip(az + y / rho, l, u)
            y_prev = y
            y = y + rho * (az - z)
        if it % CHECK_EVERY and it != s.max_iter:
            continue

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
            float(np.abs(px).max()), q_norm, float(np.abs(aty).max()))
        if r_prim <= eps_prim and r_dual <= eps_dual:
            status = QpStatus.OPTIMAL
            break

        # primal infeasibility certificate from the last dual step
        if m:
            dy = y - y_prev
            dy_norm = float(np.abs(dy).max())
            if dy_norm > 1e-14:
                e = dy / dy_norm
                if _support(e, l, u) <= -EPS_INFEASIBLE \
                        and float(np.abs(A.T @ e).max()) <= EPS_INFEASIBLE:
                    status = QpStatus.INFEASIBLE
                    break

        # residual-balancing step-size update
        if it % RHO_UPDATE_INTERVAL == 0:
            denom_p = max(float(np.abs(ax).max()) if m else 0.0,
                          float(np.abs(z).max()) if m else 0.0, 1e-10)
            denom_d = max(float(np.abs(px).max()), q_norm,
                          float(np.abs(aty).max()), 1e-10)
            ratio = np.sqrt((r_prim / denom_p) / max(r_dual / denom_d, 1e-16))
            new_base = float(np.clip(rho_base * ratio, 1e-6, 1e6))
            if new_base > 5.0 * rho_base or new_base < rho_base / 5.0:
                rho_base = new_base
                rho = rho_base * rho_scale
                lu = _factor(P, A, rho)

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
    sol = lu_solve(kkt, rhs, check_finite=False)
    # three rounds of iterative refinement against the unregularized system
    for _ in range(3):
        res = rhs - np.concatenate([
            2.0 * p.H @ sol[:p.d] + A_act.T @ sol[p.d:],
            A_act @ sol[:p.d]])
        sol = sol + lu_solve(kkt, res, check_finite=False)
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

    ``duals`` holds the multipliers of solve_qp's stacked rows: the F rows,
    then the F_eq rows, then optionally one bound row per index of z with a
    finite lb or ub, in increasing index order (as in QpSolution.duals). A
    bound multiplier is positive on an upper bound and negative on a lower
    one; given, the bound multipliers enter stationarity and
    complementarity. Multipliers for the F and F_eq rows alone are accepted
    and leave the bound rows out of both.
    """
    z = as_vector(z, "z")
    duals = as_vector(duals, "duals") if np.size(duals) else np.zeros(0)
    n_in = p.F.shape[0]
    n_eq = p.F_eq.shape[0]
    lb, ub, bound_idx = _bounds(p)
    n_rows = n_in + n_eq
    if z.shape[0] != p.d or duals.shape[0] not in (n_rows, n_rows + bound_idx.size):
        raise ShapeError("z/duals dimensions do not match the problem")
    lam = duals[:n_in]
    nu = duals[n_in:n_rows]
    mu = duals[n_rows:]
    grad = 2.0 * p.H @ z + p.q
    if n_in:
        grad = grad + p.F.T @ lam
    if n_eq:
        grad = grad + p.F_eq.T @ nu
    if mu.size:
        grad[bound_idx] += mu
    stationarity = float(np.abs(grad).max())
    viol = 0.0
    comp = 0.0
    if n_in:
        slack = p.F @ z - p.g
        viol = max(viol, float(np.maximum(slack, 0.0).max()))
        comp = float(np.abs(lam * slack).max())
    if n_eq:
        viol = max(viol, float(np.abs(p.F_eq @ z - p.g_eq).max()))
    if mu.size:
        zb = z[bound_idx]
        upper, lower = mu > 0, mu < 0
        comp_b = np.zeros(mu.size)
        comp_b[upper] = mu[upper] * (ub[bound_idx][upper] - zb[upper])
        comp_b[lower] = mu[lower] * (lb[bound_idx][lower] - zb[lower])
        comp = max(comp, float(np.abs(comp_b).max()))
    viol = max(viol, float(np.maximum(lb - z, 0.0).max()), float(np.maximum(z - ub, 0.0).max()))
    return stationarity, viol, comp
