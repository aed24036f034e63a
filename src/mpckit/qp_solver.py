"""Convex QP solver based on operator splitting (ADMM) with polishing.

Problem form, matching the rest of the toolkit (note: no 1/2 factor):

    minimize    z' H z + q' z + r
    subject to  F z <= g,  F_eq z = g_eq

A bound on z is a row of F like any other. Internally the rows are stacked
as A = [F; F_eq], u = [g; g_eq], and the solver alternates one d x d linear
solve with P + sigma I + A' diag(rho) A (OSQP's reduced form of the KKT
system) with a projection onto the rows: min(., g) on F, g_eq on F_eq. The
step size is rho = rho_base s, s a fixed per-row scale, so the reduced matrix
is P + sigma I + rho_base G with the Gram matrix G = A' diag(s) A formed
once; a change of rho_base costs one scaled add and one LU. A QpWorkspace
keeps what depends on H, F and F_eq alone across the solves that share them,
as the steps of a closed loop do.

F and F_eq may be scipy.sparse CSR arrays, as the sparse LMPC form builds
them; A is then CSR too and every product with A or A' costs its non-zeros.
G is densified once, for LAPACK's LU of the reduced matrix; polishing borders
one dense LU of its KKT system's equality block by the active F rows.

ADMM's lasting output is an active set: solve_qp polishes on its active rows
(OSQP, section 4) and returns that point once it passes the termination test.
"""

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs

from .exceptions import NonFiniteError, ShapeError, SingularMatrixError
from .numerics import SYMMETRY_TOL, as_cost, as_rows, as_vector

# Fixed ADMM parameters, as in OSQP (Stellato et al., Math. Prog. Comp. 2020):
# initial step size, primal regularization, relaxation, iterations between
# termination checks (residuals, certificate) and between step-size updates,
# and the tolerance of the infeasibility certificate. The step size is
# rebalanced at every second check: an MPC step's QP typically converges
# within 50 iterations, and a sparser schedule leaves it at the initial RHO.
# The update interval is fixed when the module loads, not read from
# CHECK_EVERY at each check: checking termination at every iteration then
# leaves the iterates unchanged.
RHO = 0.1
SIGMA = 1e-6
ALPHA = 1.6
CHECK_EVERY = 5
RHO_UPDATE_INTERVAL = 2 * CHECK_EVERY
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


@dataclass(frozen=True)
class SolverSettings:
    """Stopping tolerances and iteration cap of the QP (ADMM) solver.

    solve_nlp passes the same settings on to each of its QP subproblems.
    A NaN, negative or infinite tolerance, or a max_iter below 1, raises ValueError.
    """

    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iter: int = 20000

    def __post_init__(self):
        # a NaN fails both; an infinite tolerance would accept any iterate
        # as optimal; with max_iter >= 1 every solve ends on a check
        for key in ("eps_abs", "eps_rel"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be >= 0 and finite, got {getattr(self, key)}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


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
    """The very same array, or two blocks of no rows on one width."""
    return a is b or (a.shape[0] == 0 and a.shape == b.shape)


def _dense(M):
    """M as a dense ndarray."""
    return M.toarray() if sparse.issparse(M) else M


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


def _factor(G, P_sigma, rho_base):
    """LU factor of the reduced matrix P + SIGMA I + A' diag(rho_base s) A
    as rho_base G + P_sigma, G = A' diag(s) A: no product with A.

    QpWorkspace.build has tested H, F and F_eq for finiteness and P_sigma
    for definiteness, so the matrix is regular; a rho_base G that overflows
    still reaches lu_factor, which rejects it.
    """
    M = rho_base * G
    M += P_sigma
    return lu_factor(M)


class QpWorkspace:
    """What a solve takes from H, F and F_eq alone: the stacked rows
    A = [F; F_eq] and their transpose At (a view of a dense A, a CSR copy of
    a sparse one), the per-row step-size scale s (the F_eq rows get 1e3),
    P = 2H, P_sigma = P + SIGMA I, the dense Gram matrix G = A' diag(s) A,
    the factor of the reduced matrix at rho = RHO s and, once a solve has
    polished, keq: the LU of the polish system's equality block (see
    _polish).

    solve_qp builds it on first use and reuses it while H, F and F_eq are
    the very arrays it was built from. Nothing in it depends on a solve's
    data or iterates, so a reused workspace gives the same bits as a fresh
    one. A build checks its input before its first factor: NaN or infinity
    in H, F or F_eq raises NonFiniteError, an H that is not symmetric to
    SYMMETRY_TOL raises ShapeError, and a P + SIGMA I with no Cholesky
    factor raises SingularMatrixError, since the rows can make the reduced
    matrix regular for an H that is not positive semidefinite, and ADMM
    would then diverge; a G that overflows makes the factor at RHO raise
    NonFiniteError. A build that raises leaves the workspace as it was.
    """

    def __init__(self):
        self.H = self.F = self.F_eq = None

    def fits(self, p):
        return (self.H is p.H and _same_block(self.F, p.F)
                and _same_block(self.F_eq, p.F_eq))

    def build(self, p):
        rows_sparse = sparse.issparse(p.F) or sparse.issparse(p.F_eq)
        if rows_sparse:
            A = sparse.vstack([p.F, p.F_eq], format="csr")
            At = A.T.tocsr()
        else:
            A = np.vstack([p.F, p.F_eq])
            At = A.T
        if not (np.isfinite(p.H).all() and np.isfinite(A.data if rows_sparse else A).all()):
            raise NonFiniteError("NaN or infinity in H, F or F_eq")
        if np.abs(p.H - p.H.T).max() > SYMMETRY_TOL:
            raise ShapeError(f"H must be symmetric (asymmetry > {SYMMETRY_TOL})")
        P = 2.0 * p.H
        P_sigma = P + SIGMA * np.eye(p.d)
        if _potrf(P_sigma)[1] > 0:
            raise SingularMatrixError("P + sigma I has no Cholesky factor: "
                                      "H is not positive semidefinite")
        rho_scale = np.repeat([1.0, 1e3], [p.F.shape[0], p.F_eq.shape[0]])
        G = _dense((At * rho_scale) @ A)
        lu = _factor(G, P_sigma, RHO)
        (self.H, self.F, self.F_eq, self.A, self.At, self.P, self.P_sigma, self.G,
         self.rho_scale, self.rho, self.lu, self.keq) = \
            p.H, p.F, p.F_eq, A, At, P, P_sigma, G, rho_scale, RHO * rho_scale, lu, None


def _violation(r, n_in):
    """Primal violation of F x <= g, F_eq x = g_eq from r = A x - u, the
    first n_in rows those of F."""
    return max(float(r[:n_in].max(initial=0.0)), float(np.abs(r[n_in:]).max(initial=0.0)))


def solve_qp(p, warm=None, settings=None, workspace=None):
    """Solve the QP by ADMM; returns a QpSolution.

    ``warm`` may be a primal vector or a previous QpSolution (primal and
    dual warm start). ``workspace`` is a QpWorkspace kept between solves of
    problems that share H, F and F_eq (a closed loop's steps); without one
    the solve builds its own. A warm start of the wrong length raises
    ShapeError. Identical inputs produce bit-identical iterates, with or
    without a workspace. Termination is tested every CHECK_EVERY iterations
    and at max_iter, so a solve stops at a multiple of CHECK_EVERY or at
    max_iter. At convergence and at the checks numbered by a power of two,
    the solve polishes on the iterate's active rows unless it polished on
    the same rows last; the first polished point that passes (_polish), or
    else a converged iterate, is OPTIMAL, and ``iterations`` counts the ADMM
    iterations run before it. Raises NonFiniteError when H, F, F_eq, q, the
    warm start or the start rows (min(F z0, g), g_eq) hold a NaN or an
    infinity, ShapeError when H is not symmetric and SingularMatrixError
    when it is not positive semidefinite; the workspace build tests H, F and
    F_eq (QpWorkspace). The reported residuals are the primal violation and
    the stationarity of the returned (z_star, duals). INFEASIBLE needs
    OSQP's certificate: the last dual step, its F rows projected onto >= 0
    and scaled to max-norm 1, is an e with |A'e| <= EPS_INFEASIBLE and
    u'e <= -EPS_INFEASIBLE.
    """
    s = settings or SolverSettings()
    d, n_in = p.d, p.F.shape[0]
    u = np.concatenate([p.g, p.g_eq])
    ws = workspace if workspace is not None else QpWorkspace()
    if not ws.fits(p):
        ws.build(p)
    A, At, P, rho_scale = ws.A, ws.At, ws.P, ws.rho_scale
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
    z = np.minimum(A @ x, u)
    z[n_in:] = p.g_eq
    if not np.isfinite(z).all():
        raise NonFiniteError("NaN or infinity in the start rows min(F z0, g), g_eq")

    rho_base = RHO
    lu, rho = ws.lu, ws.rho
    q_norm = float(np.abs(q).max(initial=0.0))

    status, tried, polished = QpStatus.MAX_ITERATIONS, None, None
    for it in range(1, s.max_iter + 1):
        x_t = lu_solve(lu, SIGMA * x - q + At @ (rho * z - y))
        x = ALPHA * x_t + (1.0 - ALPHA) * x
        az = ALPHA * (A @ x_t) + (1.0 - ALPHA) * z
        z = np.minimum(az + y / rho, u)
        z[n_in:] = p.g_eq
        y_prev = y
        y = y + rho * (az - z)
        if it % CHECK_EVERY and it != s.max_iter:
            continue

        # convergence check
        ax = A @ x
        px = P @ x
        aty = At @ y
        r_prim = float(np.abs(ax - z).max(initial=0.0))
        r_dual = float(np.abs(px + q + aty).max())
        scale_prim = max(float(np.abs(ax).max(initial=0.0)), float(np.abs(z).max(initial=0.0)))
        scale_dual = max(float(np.abs(px).max()), q_norm, float(np.abs(aty).max()))
        converged = _accepted(s, r_prim, scale_prim, r_dual, scale_dual)
        # polish at convergence and at checks 1, 2, 4, ...: about log2(checks)
        # attempts if it never converges; the same rows again give the same point
        c = it // CHECK_EVERY
        if converged or (it % CHECK_EVERY == 0 and c & (c - 1) == 0):
            idx = _active_rows(ax[:n_in], p.g, y[:n_in])
            if not np.array_equal(idx, tried):
                tried, polished = idx, _polish(p, ws, s, u, idx)
        if converged or polished:
            status = QpStatus.OPTIMAL
            break

        # certificate: the dual step on F projected onto >= 0; g may be inf where e = 0
        dy = y - y_prev
        dy[:n_in] = np.maximum(dy[:n_in], 0.0)
        dy_norm = float(np.abs(dy).max(initial=0.0))
        if dy_norm > 1e-14:
            e = dy / dy_norm
            if float(np.where(e != 0, u, 0.0) @ e) <= -EPS_INFEASIBLE \
                    and float(np.abs(At @ e).max()) <= EPS_INFEASIBLE:
                status = QpStatus.INFEASIBLE
                break

        # residual-balancing step-size update
        if it % RHO_UPDATE_INTERVAL == 0:
            ratio = np.sqrt((r_prim / max(scale_prim, 1e-10))
                            / max(r_dual / max(scale_dual, 1e-10), 1e-16))
            new_base = float(min(max(rho_base * ratio, 1e-6), 1e6))
            if new_base > 5.0 * rho_base or new_base < rho_base / 5.0:
                rho_base = new_base
                rho = rho_base * rho_scale
                lu = _factor(ws.G, ws.P_sigma, rho_base)

    # every exit follows a check, whose A x, P x and A'y are those of (x, y)
    x, y, (prim, dual) = polished or (x, y, (_violation(ax - u, n_in), r_dual))
    return QpSolution(
        z_star=x,
        objective=p.objective(x),
        status=status,
        iterations=it,
        primal_residual=prim,
        dual_residual=dual,
        duals=y,
    )


def _active_rows(ax, g, y):
    """Indices of the F rows a polish treats as active, from A x, the bounds
    g and the multipliers y of those rows: a multiplier above 1e-9, or A x
    within 1e-7 + 1e-5 |g| of a finite g. These are the rows of
    (y > 1e-9) | np.isclose(ax, g, atol=1e-7), without np.isclose's fixed
    cost; a row with g = +inf or -inf is never at its bound."""
    near = (np.abs(ax - g) <= 1e-7 + 1e-5 * np.abs(g)) & np.isfinite(g)
    return np.flatnonzero((y > 1e-9) | near)


def _accepted(s, r_prim, scale_prim, r_dual, scale_dual):
    """The termination test of ADMM iterates and polished points alike."""
    return (r_prim <= s.eps_abs + s.eps_rel * scale_prim
            and r_dual <= s.eps_abs + s.eps_rel * scale_dual)


def _polish(p, ws, s, u, idx):
    """(x, y, (prim, dual)): the KKT point on every F_eq row and the F rows
    idx, with prim and dual its max-norm violation of F x <= g,
    F_eq x = g_eq and of stationarity P x + q + A'y, when it passes
    _accepted with the scales of its own A x, P x and A'y and its F-row
    multipliers are >= -1e-7; else None.

    The regularized KKT system [K_eq, B'; B, -dI], where
    K_eq = [P + dI, F_eq'; F_eq, -dI] and B holds the k rows idx, gives a
    candidate, refined against the unregularized system until its residual
    there is within 1e-12, for at most three rounds; A x and P x + q + A'y
    of each candidate give that residual and its residuals and scales. Block
    elimination solves it with the LU of K_eq, made at the first polish and
    kept in ws.keq, and for k > 0 W = K_eq^-1 [B 0]' and the LU of
    S = -dI - [B 0] W; a SingularMatrixError from a factor gives None.
    """
    d, P, A, n_in = p.d, ws.P, ws.A, p.F.shape[0]
    n0, delta = d + A.shape[0] - n_in, 1e-9
    rows, k = np.concatenate([np.arange(n_in, A.shape[0]), idx]), len(idx)
    try:
        if ws.keq is None:
            K = np.diag(np.repeat([delta, -delta], [d, n0 - d]))
            K[:d, :d] += P
            K[d:, :d] = _dense(A[n_in:])
            K[:d, d:] = K[d:, :d].T
            ws.keq = lu_factor(K)
        keq = ws.keq
        if k:
            B = _dense(A[idx])
            W = lu_solve(keq, np.vstack([B.T, np.zeros((n0 - d, k))]))
            s_lu = lu_factor(-delta * np.eye(k) - B @ W[:d])
    except SingularMatrixError:
        return None

    def solve(r):
        t = lu_solve(keq, r[:n0])
        if not k:
            return t
        w = lu_solve(s_lu, r[n0:] - B @ t[:d])
        return np.concatenate([t - W @ w, w])

    sol = solve(np.concatenate([-p.q, u[rows]]))
    yh = np.zeros(A.shape[0])
    for rounds in range(4):
        xh = sol[:d]
        yh[rows] = sol[d:]
        ax, px, aty = A @ xh, P @ xh, ws.At @ yh
        r_prim = ax - u
        r_dual = px + p.q + aty
        # the residual against the unregularized system
        res = -np.concatenate([r_dual, r_prim[rows]])
        if rounds == 3 or np.abs(res).max() <= 1e-12:
            break
        sol = sol + solve(res)
    prim, dual = _violation(r_prim, n_in), float(np.abs(r_dual).max())
    scale_dual = max(float(np.abs(px).max()), float(np.abs(p.q).max()), float(np.abs(aty).max()))
    if np.all(yh[:n_in] >= -1e-7) \
            and _accepted(s, prim, float(np.abs(ax).max(initial=0.0)), dual, scale_dual):
        return xh, yh, (prim, dual)
    return None


def kkt_residuals(p, z, duals):
    """Infinity norms of stationarity, primal violation and complementarity.

    ``duals`` holds the multipliers of the F rows, then of the F_eq rows, as
    in QpSolution.duals. The complementarity skips the F rows whose
    multiplier is zero, so a row with g = +inf adds nothing, and a nonzero
    multiplier on one reads inf.
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
    active = lam != 0
    comp = float(np.abs(lam[active] * slack[active]).max(initial=0.0))
    return stationarity, viol, comp
