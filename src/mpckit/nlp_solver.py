"""SQP solver for the NMPC program: quadratic cost, linear inequalities,
nonlinear equality constraints (the stacked dynamics residual)."""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import numerics
from .exceptions import ShapeError
from .numerics import (as_cost, as_matrix, as_rows, as_vector, block_diag,
                       finite_diff_jacobian, pad_inputs, quadratic)
from .qp_solver import QpProblem, QpStatus, QpWorkspace, SolverSettings, solve_qp

# Fixed SQP parameters: iteration cap, KKT and step-length tolerances,
# line-search backtracks, Armijo constant and the l1 penalty on elastic slack.
SQP_MAX_ITER = 100
SQP_TOL = 1e-6
STEP_TOL = 1e-8
LINE_SEARCH_MAX = 30
ARMIJO = 1e-4
ELASTIC_PENALTY = 1e4
STACKED = "a model's step, jac_x and jac_u must take stacked stages x (..., n), u (..., m)"


class NlpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass
class NlpProblem:
    """min z'Hz + q'z + r  s.t.  F z <= g,  residual(z) = 0."""

    H: np.ndarray
    q: Optional[np.ndarray] = None
    r: float = 0.0
    F: Optional[np.ndarray] = None
    g: Optional[np.ndarray] = None
    residual: Callable[[np.ndarray], np.ndarray] = None
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        self.H, self.q = as_cost(self.H, self.q)
        self.F, self.g = as_rows(self.F, self.g, self.d, "F")
        if self.residual is None:
            raise ShapeError("an equality residual map is required")

    @property
    def d(self):
        return self.H.shape[0]

    def objective(self, z):
        return float(quadratic(self.H, z) + self.q @ z + self.r)


@dataclass
class NlpSolution:
    z_star: np.ndarray
    objective: float
    status: NlpStatus
    iterations: int
    kkt_residual: float
    eq_violation: float
    elastic_used: bool = False
    # (merit before, merit after) per accepted step, at that step's penalty
    merit_history: list = None


def build_feq(model, x_k, N, N_C=None):
    """Stacked dynamics residual for the trajectory decision vector.

    z is ordered as all N+1 state blocks followed by the first N_C input
    blocks (default N); the inputs after the control horizon are zero.
    Returns (residual map, decision dimension). The residual's first block
    pins the initial state; block i+1 is x_{i+1} - f(x_i, u_i), from one
    model.step call on all stages.
    """
    n, m = model.n, model.m
    x_k = as_vector(x_k, "state", n)
    nX = n * (N + 1)
    d = nX + m * (N if N_C is None else N_C)

    def residual(z):
        z = as_vector(z, "decision vector", d)
        X = z[:nX].reshape(N + 1, n)
        F = _stages(model.step, X[:N], pad_inputs(z[nX:], N, m), (N, n))
        return np.concatenate([X[0] - x_k, (X[1:] - F).ravel()])

    return residual, d


def _stages(f, X, U, shape):
    """f(X, U), a model's step, jac_x or jac_u on all stages at once, of the given shape."""
    try:
        out = np.asarray(f(X, U), dtype=float)
    except (TypeError, ValueError, IndexError) as exc:
        raise ShapeError(f"{STACKED}: {exc}") from exc
    if out.shape != shape:
        raise ShapeError(f"{STACKED}: shape {out.shape} on {X.shape[0]} stages, not {shape}")
    return out


def build_feq_jacobian(model, N, N_C=None):
    """Jacobian of build_feq's residual, the same map at every x_k, since x_k
    enters the residual as a constant only: a copy of one template with the
    identity blocks in place, filled with every stage's df/dx and df/du from
    one model.jac_x and one model.jac_u call when the model has both, else
    from the n + m + 1 horizon steps of numerics.finite_diff_jacobian. The
    first call checks the model against stagewise calls, since a model
    written for one stage can give the (N, n) shape at N = n."""
    n, m = model.n, model.m
    N_C = N if N_C is None else N_C
    nX = n * (N + 1)
    d = nX + m * N_C
    analytic = model.jac_x is not None and model.jac_u is not None
    template = np.eye(nX, d)
    # flat positions of stage i's blocks -df/dx and, for i < N_C, -df/du in J
    i, r, c = np.ogrid[:N, :n, :n]
    at_x = ((i + 1) * n + r) * d + i * n + c
    i, r, c = np.ogrid[:N_C, :n, :m]
    at_u = ((i + 1) * n + r) * d + nX + i * m + c
    maps = [(model.step, (N, n))]
    if analytic:
        maps += [(model.jac_x, (N, n, n)), (model.jac_u, (N, n, m))]
    checked = False

    def jacobian(z):
        nonlocal checked
        z = as_vector(z, "z")
        X = z[:nX].reshape(N + 1, n)[:N]
        U = pad_inputs(z[nX:], N, m)
        if not checked:
            for f, shape in maps:
                stagewise = [f(x, u) for x, u in zip(X, U)]
                if not np.allclose(_stages(f, X, U, shape), stagewise,
                                   rtol=1e-9, atol=1e-12, equal_nan=True):
                    raise ShapeError(f"{STACKED}: other values than stage by stage")
            checked = True
        if analytic:
            A, B = _stages(model.jac_x, X, U, (N, n, n)), _stages(model.jac_u, X, U, (N, n, m))
        else:
            # through the module, not this module's finite_diff_jacobian name
            D = numerics.finite_diff_jacobian(
                lambda V: _stages(model.step, V[:, :n], V[:, n:], (N, n)), np.hstack([X, U]))
            A, B = D[:, :, :n], D[:, :, n:]
        J = template.copy()
        J.flat[at_x] = -A
        J.flat[at_u] = -B[:N_C]
        return J

    return jacobian


def solve_nlp(p, z0, settings=None, workspace=None):
    """SQP with an l1 merit line search; subproblems go through solve_qp.

    Infeasible linearizations are retried with elastic slack on the
    equality rows (flagged in the returned solution). ``settings`` apply to
    every QP subproblem. ``workspace`` is a QpWorkspace for the plain
    subproblems, as in solve_qp: they share p.H and p.F, so its H/F part is
    built once, kept across calls that pass it (an NMPC closed loop's steps),
    and only its F_eq part follows each iteration's Jacobian. Without one
    the call builds its own. The elastic subproblem, whose H is larger,
    builds a workspace each time.
    """
    s = settings or SolverSettings()
    ws = workspace if workspace is not None else QpWorkspace()
    z = as_vector(z0, "z0").copy()
    if z.shape[0] != p.d:
        raise ShapeError(f"z0 has length {z.shape[0]}, expected {p.d}")
    d = p.d
    n_in = p.F.shape[0]

    mu = 10.0
    elastic_used = False
    qp_warm = None
    status = NlpStatus.MAX_ITERATIONS
    merit_history = []
    it = 0
    c = as_vector(p.residual(z))
    kkt = np.inf
    for it in range(1, SQP_MAX_ITER + 1):
        if p.jacobian is not None:
            J = as_matrix(p.jacobian(z))
        else:
            J = finite_diff_jacobian(p.residual, z)

        grad = 2.0 * p.H @ z + p.q
        slack = p.g - p.F @ z
        # subproblem in the step: min s'Hs + (2Hz+q)'s  s.t. Fs <= g-Fz, Js = -c
        sub = QpProblem(H=p.H, q=grad, F=p.F, g=slack, F_eq=J, g_eq=-c)
        sol = solve_qp(sub, warm=qp_warm, settings=s, workspace=ws)
        if sol.status is QpStatus.INFEASIBLE:
            elastic_used = True
            sol = _solve_elastic(p, grad, slack, J, c, s)
        step = sol.z_star[:d]
        # the multipliers of p.F lead and those of J close the duals, in the
        # elastic subproblem too
        lam = sol.duals[:n_in]
        nu = sol.duals[sol.duals.shape[0] - J.shape[0]:]
        qp_warm = sol if sol.z_star.shape[0] == d else None

        mu = max(10.0, 2.0 * float(np.abs(nu).max(initial=0.0)), mu)
        c_norm1 = float(np.abs(c).sum())
        phi0 = p.objective(z) + mu * c_norm1
        # directional derivative of the merit function along the step
        dderiv = float(grad @ step) - mu * c_norm1
        t = 1.0
        accepted = False
        for _ in range(LINE_SEARCH_MAX):
            z_try = z + t * step
            c_try = as_vector(p.residual(z_try))
            phi_try = p.objective(z_try) + mu * float(np.abs(c_try).sum())
            if phi_try <= phi0 + ARMIJO * t * min(dderiv, 0.0):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            status = NlpStatus.LINE_SEARCH_FAILURE
            break
        merit_history.append((phi0, phi_try))
        z = z_try
        c = c_try

        eq_violation = float(np.abs(c).max(initial=0.0))
        # J is the accepted step's, not re-evaluated at the new point
        # (first-order accurate)
        kkt = float(np.abs(2.0 * p.H @ z + p.q + p.F.T @ lam + J.T @ nu).max())
        if eq_violation <= SQP_TOL and \
                (float(np.abs(t * step).max()) <= STEP_TOL or kkt <= SQP_TOL):
            status = NlpStatus.OPTIMAL
            break

    eq_violation = float(np.abs(c).max(initial=0.0))
    return NlpSolution(
        z_star=z,
        objective=p.objective(z),
        status=status,
        iterations=it,
        kkt_residual=kkt,
        eq_violation=eq_violation,
        elastic_used=elastic_used,
        merit_history=merit_history,
    )


def _solve_elastic(p, grad, slack, J, c, s):
    """Relaxed subproblem: J step + c = e_plus - e_minus, penalized l1 slack.

    The slack bounds e_plus, e_minus >= 0 are F rows after p.F's, so the
    F_eq multipliers are the last J.shape[0] duals, as in the plain
    subproblem.
    """
    e = J.shape[0]
    # tiny curvature keeps H PSD on the slack block
    H = block_diag(p.H, 1e-8 * np.eye(2 * e))
    q = np.concatenate([grad, np.full(2 * e, ELASTIC_PENALTY)])
    F = block_diag(p.F, -np.eye(2 * e))
    g = np.concatenate([slack, np.zeros(2 * e)])
    F_eq = np.hstack([J, -np.eye(e), np.eye(e)])
    return solve_qp(QpProblem(H=H, q=q, F=F, g=g, F_eq=F_eq, g_eq=-c), settings=s)
