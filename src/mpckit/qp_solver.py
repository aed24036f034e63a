"""Convex QP solver based on operator splitting (ADMM) with polishing.

Problem form, matching the rest of the toolkit (note: no 1/2 factor):

    minimize    z' H z + q' z + r
    subject to  F z <= g,  F_eq z = g_eq

A bound on z is a row of F like any other. Internally the rows are stacked
as A = [F; F_eq], u = [g; g_eq], and the solver alternates one d x d linear
solve with P + sigma I + A' diag(rho) A (OSQP's reduced form of the KKT
system) with a projection onto the rows: min(., g) on F, g_eq on F_eq. The
step size is rho = rho_base s, s a fixed per-row scale, so the reduced matrix
is P + sigma I + rho_base G with the Gram matrix G = A' diag(s) A, formed
when ADMM first runs; a change of rho_base costs one scaled add and one LU.
A QpWorkspace keeps what depends on H and F, and what F_eq adds, across the
solves that share them: the steps of a closed loop, or an SQP loop's
subproblems, whose linearized dynamics F_eq change while H and F do not.

H, F and F_eq may be scipy.sparse CSR arrays, as the sparse LMPC form builds
all three; A is then CSR too, and every product with A, A' or P = 2H costs
their non-zeros. A CSR H is tested for definiteness by a sparse LDL' of
P + SIGMA I, whose dense copy is made, as G is, only when ADMM first runs,
for LAPACK's LU of the reduced matrix. Polishing borders one LU of its KKT
system's equality block K_eq by the active F rows. K_eq is stored as A is:
sparse rows give a CSC K_eq, factored by SuperLU in a static minimum-degree
order, dense rows a dense one, factored by LAPACK. Next to a sparse K_eq's
factor the workspace keeps the K_eq column of every F row a polish has
taken, so each row is solved once per factor, not once per polish; SuperLU
gives a column the same bits alone or in a batch, LAPACK's getrs does not,
so a dense K_eq solves its active rows at every polish.

ADMM's lasting output is an active set: solve_qp polishes on its active rows
(OSQP, section 4) and returns that point once it passes the termination test.
It first polishes on the start's active rows (round 0), since consecutive MPC
steps mostly share theirs. A rejected polished point is still a KKT point of
its rows, and its violated rows and negative multipliers name the next set to
try: up to ACTIVE_SET_ROUNDS primal-dual active-set rounds polish on those
before ADMM runs, so most MPC steps need no ADMM iteration at all. When they
fail, phase-I's slack LP on the QP's rows (HiGHS) may prove the QP infeasible:
INFEASIBLE comes only from LP multipliers that pass a Farkas check (_certified).
"""

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from types import SimpleNamespace
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.linalg import get_lapack_funcs
from scipy.sparse.linalg import splu

from .exceptions import NonFiniteError, ShapeError, SingularMatrixError
from .numerics import SYMMETRY_TOL, as_cost, as_rows, as_vector, quadratic

# Fixed ADMM parameters, as in OSQP (Stellato et al., Math. Prog. Comp. 2020):
# initial step size, primal regularization, relaxation, iterations between
# termination checks and between step-size updates. The step size is
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
# Primal-dual active-set rounds after a failed round 0 (Hintermueller, Ito and
# Kunisch, SIAM J. Optim. 2002): over the seed-1 benchmark episodes a pendulum
# SQP subproblem needs one or two, a cold LMPC step one to seven; the cap bounds
# what a QP whose rounds do not settle, an infeasible one say, pays before the LP.
ACTIVE_SET_ROUNDS = 20
# a certificate y for rows M z <= b needs max|M'y| <= CERTIFICATE_TOL max|M| sum|y|
CERTIFICATE_TOL = 1e-9
# scipy.optimize.linprog's status codes
LP_STATUS = ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical_difficulties")
# linprog(method="highs")'s code for a HiGHS model status; any other is 4
_MODEL_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kModelError": 2,
                 "kInfeasible": 2, "kUnbounded": 3}
# the HiGHS options linprog(method="highs") sets: presolve, the dual simplex
# (simplex strategy 1), no debugging and no output
HIGHS_OPTIONS = {"presolve": "on", "simplex_strategy": 1, "highs_debug_level": 0,
                 "output_flag": False, "log_to_console": False}

# LAPACK's double-precision LU routines, looked up once: scipy.linalg's
# lu_factor/lu_solve look them up again, behind a batching wrapper, on every
# call, which costs several times the solve itself at the sizes of an MPC step.
# Cholesky (potrf) tests a dense P + SIGMA I for definiteness once per workspace.
_getrf, _getrs, _potrf = get_lapack_funcs(("getrf", "getrs", "potrf"), (np.empty(0),))
# SuperLU (splu) settings for a scipy.sparse matrix, in practice the sparse
# form's quasi-definite K_eq = [P + dI, F_eq'; F_eq, -dI] (see _polish; Vanderbei,
# SIAM J. Optim. 1995). As in OSQP, it is ordered cheaply before its numeric
# factor: lu_factor orders rows and columns alike by a stable argsort of the
# column counts, a static minimum-degree order, and factors in that order in
# symmetric mode. On a benchmark pool system's 584-row K_eq, L + U hold 28.9k
# non-zeros, the fill of SuperLU's minimum-degree ordering of A' + A, whose
# analysis took about 70% of that factor's time, and against 56k under splu's
# default COLAMD, which orders the columns of A'A. A diagonal pivot is kept
# while it is at least SPLU_PIVOT_THRESH times the largest entry of its column.
# From 0 to 0.1 the fill and the residual (4e-14) held in the static order;
# under the minimum-degree order the -1e-9 pivots of the -dI block lost digits
# at 0 (residual 2e-7). At 1, partial pivoting, the fill rose to 41.7k.
SPLU_PIVOT_THRESH = 0.1


class QpStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverSettings:
    """Stopping tolerances and iteration cap of the QP (ADMM) solver.

    max_iter caps ADMM iterations only: round 0, the active-set rounds and
    the LP before ADMM (solve_qp) do not count against it, and a QP they
    end reports 0 iterations. solve_nlp passes the same settings on to each of
    its QP subproblems.
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
        return float(quadratic(self.H, z) + self.q @ z + self.r)


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
    """LU factor of the square matrix M: for an ndarray, (lu, piv) by LAPACK
    getrf, as scipy.linalg.lu_factor gives it; for a scipy.sparse matrix, a
    _SparseLu: splu in symmetric mode with SPLU_PIVOT_THRESH, in NATURAL
    order, of M with rows and columns permuted alike by a stable argsort of
    M's column counts.

    Raises NonFiniteError when M holds a NaN or an infinity, and
    SingularMatrixError when a pivot is exactly zero.
    """
    if sparse.issparse(M):
        M = sparse.csc_array(M)
        if not np.isfinite(M.data).all():
            raise NonFiniteError("NaN or infinity in a matrix built from H, F or F_eq")
        perm = np.argsort(np.diff(M.indptr), kind="stable")
        try:
            lu = splu(M[perm][:, perm], permc_spec="NATURAL",
                      diag_pivot_thresh=SPLU_PIVOT_THRESH, options={"SymmetricMode": True})
        except RuntimeError as err:  # SuperLU's "Factor is exactly singular"
            raise SingularMatrixError(f"sparse LU: {err}") from None
        return _SparseLu(lu, perm)
    if not np.isfinite(M).all():
        raise NonFiniteError("NaN or infinity in a matrix built from H, F or F_eq")
    lu, piv, info = _getrf(M)
    if info > 0:
        raise SingularMatrixError(f"LU pivot {info} is exactly zero")
    return lu, piv


class _SparseLu:
    """lu_factor's factor of a sparse M: lu, SuperLU's factor of M with rows
    and columns permuted alike by perm, whose lu.nnz counts L's and U's
    non-zeros, and M's shape."""

    def __init__(self, lu, perm):
        self.lu, self.perm, self.shape = lu, perm, lu.shape
        self.iperm = np.argsort(perm)

    def solve(self, b):
        """x with M x = b, for b of one or more columns: b gathered into perm's
        order, solved, and the solution gathered back."""
        return self.lu.solve(b[self.perm])[self.iperm]


def lu_solve(lu_piv, b):
    """x with M x = b from the factor lu_factor(M): by LAPACK getrs from
    (lu, piv), by the _SparseLu's solve from a sparse M's factor."""
    if isinstance(lu_piv, tuple):
        return _getrs(*lu_piv, b)[0]
    return lu_piv.solve(b)


def _definite(M):
    """Whether the symmetric scipy.sparse M is positive definite, by an LDL'
    without pivoting: splu in symmetric mode and NATURAL order with
    diag_pivot_thresh=0 takes every nonzero diagonal pivot, so M is positive
    definite when perm_r stays the identity and U's diagonal, the pivots, is
    positive (Sylvester's criterion). A NaN pivot is not positive."""
    try:
        lu = splu(sparse.csc_array(M), permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError:  # an exactly zero pivot column
        return False
    return bool(np.array_equal(lu.perm_r, np.arange(M.shape[0])) and (lu.U.diagonal() > 0).all())


def _factor(G, P_sigma, rho_base):
    """LU factor of the reduced matrix P + SIGMA I + A' diag(rho_base s) A
    as rho_base G + P_sigma, G = A' diag(s) A: no product with A.

    QpWorkspace.build has tested H, F and F_eq for finiteness, P_sigma for
    definiteness and the diagonal at RHO, so the matrix is regular; a
    rho_base G that overflows at a larger rho_base still reaches lu_factor,
    which rejects it.
    """
    M = rho_base * G
    M += P_sigma
    return lu_factor(M)


class QpWorkspace:
    """What a solve takes from H, F and F_eq alone, in two parts.

    The H/F part, kept while H and F are the very arrays it was built from:
    P = 2H, a CSR array when H is one, and P_sigma = P + SIGMA I, dense,
    after H and F are tested for NaN or infinity (NonFiniteError), H for
    symmetry to SYMMETRY_TOL (ShapeError), on its non-zeros when it is
    sparse, and P + SIGMA I for definiteness (SingularMatrixError: the rows
    can make the reduced matrix regular for an H that is not positive
    semidefinite, and ADMM would then diverge). A dense H's P_sigma is made
    here and tested by a Cholesky factor (potrf); a CSR H's P + SIGMA I is
    tested sparse, by _definite, and P_sigma stays None until ADMM first runs.
    The F_eq part, rebuilt when F_eq changes too: the stacked rows
    A = [F; F_eq] and their transpose At (a view of a dense A, a CSR copy of
    a sparse one), after F_eq is tested for NaN or infinity, and the per-row
    step-size scale s (the F_eq rows get 1e3). Its build also tests the
    diagonal of the reduced matrix at RHO, which bounds every entry of that
    positive definite matrix, so a Gram matrix that overflows raises
    NonFiniteError before any solve.
    Solves fill the rest on first use: keq, lu_factor's factor of the
    polish system's equality block (see _polish), a _SparseLu for sparse
    rows and (lu, piv) for dense ones; with a _SparseLu, keq_cols, a dict
    from each F row i a polish has taken to (F_i, W_i), a dense copy of the
    row and its K_eq column, None for dense rows; and, once ADMM runs, a
    CSR H's dense P_sigma, the dense Gram matrix G = A' diag(s) A and lu,
    the factor of the reduced matrix at RHO. keq_cols is dropped with keq.

    solve_qp calls build(p) at every solve, and build returns at once while
    H, F and F_eq are the very arrays it was built from. Which rows
    keq_cols holds depends on the solves made, but no value in the
    workspace depends on a solve's data or iterates: a kept column has the
    bits of a fresh solve of K_eq for that row, so a reused workspace gives
    the same bits as a fresh one. A build that raises leaves the workspace
    as it was.
    """

    def __init__(self):
        self.H = self.F = self.F_eq = None

    def build(self, p):
        kept = self.H is p.H and _same_block(self.F, p.F)
        if kept and _same_block(self.F_eq, p.F_eq):
            return
        if not all(np.isfinite(M.data if sparse.issparse(M) else M).all()
                   for M in ((p.F_eq,) if kept else (p.H, p.F, p.F_eq))):
            raise NonFiniteError("NaN or infinity in H, F or F_eq")
        if kept:
            P, P_sigma = self.P, self.P_sigma
        else:
            if abs(p.H - p.H.T).max() > SYMMETRY_TOL:
                raise ShapeError(f"H must be symmetric (asymmetry > {SYMMETRY_TOL})")
            P = 2.0 * p.H
            if sparse.issparse(P):
                P_sigma = None
                definite = _definite(P + SIGMA * sparse.eye_array(p.d, format="csr"))
            else:
                P_sigma = P + SIGMA * np.eye(p.d)
                definite = _potrf(P_sigma)[1] == 0
            if not definite:
                raise SingularMatrixError("P + sigma I is not positive definite: "
                                          "H is not positive semidefinite")
        if sparse.issparse(p.F) or sparse.issparse(p.F_eq):
            A = sparse.vstack([p.F, p.F_eq], format="csr")
            At = A.T.tocsr()
        else:
            A = np.vstack([p.F, p.F_eq])
            At = A.T
        rho_scale = np.repeat([1.0, 1e3], [p.F.shape[0], p.F_eq.shape[0]])
        if not np.isfinite(RHO * ((At ** 2) @ rho_scale) + (P.diagonal() + SIGMA)).all():
            raise NonFiniteError("NaN or infinity in a matrix built from H, F or F_eq")
        (self.H, self.F, self.F_eq, self.A, self.At, self.P, self.P_sigma,
         self.rho_scale, self.G, self.lu, self.keq, self.keq_cols) = \
            p.H, p.F, p.F_eq, A, At, P, P_sigma, rho_scale, None, None, None, None


def _violation(r, n_in):
    """Primal violation of F x <= g, F_eq x = g_eq from r = A x - u, the
    first n_in rows those of F."""
    return max(float(r[:n_in].max(initial=0.0)), float(np.abs(r[n_in:]).max(initial=0.0)))


def solve_qp(p, warm=None, settings=None, workspace=None):
    """Solve the QP by polishing on active sets, then by ADMM, after an LP
    that may prove it infeasible; returns a QpSolution.

    ``warm`` may be a primal vector or a previous QpSolution (primal and
    dual warm start); a cold start is (0, 0). ``workspace`` is a QpWorkspace
    kept between solves of problems that share H, F and F_eq (a closed
    loop's steps); without one the solve builds its own. A warm start of the
    wrong length raises ShapeError. Identical inputs produce bit-identical
    iterates, with or without a workspace.

    Round 0 polishes on the start's active rows (_active_rows). Each of up
    to ACTIVE_SET_ROUNDS later rounds polishes on the F rows that the last
    rejected polished point (x, y) names, y_i + (F_i x - g_i) > 0 at a
    finite g_i: a primal-dual active-set step. The rounds end at the first
    point that passes (_polish), OPTIMAL after 0 iterations, or at a set
    tried before. Then phase-I's slack LP, min s subject to F z - s <= g on
    the rows with finite g and |F_eq z - g_eq| <= s, ends the solve
    INFEASIBLE after 0 iterations if its s exceeds eps_abs and its row
    multipliers pass _certified: z_star is the LP's point and duals the
    certificate over [F; F_eq], 0 on the rows with g = inf.
    Otherwise ADMM runs from the start, and termination is
    tested every CHECK_EVERY iterations and at max_iter, so a solve stops at
    a multiple of CHECK_EVERY or at max_iter. At convergence and at the
    checks numbered by a power of two, the solve polishes on the iterate's
    active rows unless it has polished on the same rows before; the first
    polished point that passes, or else a converged iterate, is OPTIMAL.
    ``iterations`` counts ADMM iterations only, and max_iter caps them
    alone. Raises NonFiniteError when H, F, F_eq, q, the warm start or the
    start rows (min(F z0, g), g_eq) hold a NaN or an infinity, ShapeError
    when H is not symmetric and SingularMatrixError when it is not positive
    semidefinite; the workspace build tests H, F and F_eq (QpWorkspace).
    The reported residuals are the primal violation and the stationarity of
    the returned (z_star, duals).
    """
    s = settings or SolverSettings()
    d, n_in = p.d, p.F.shape[0]
    u = np.concatenate([p.g, p.g_eq])
    ws = workspace if workspace is not None else QpWorkspace()
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
    ax = A @ x
    z = np.minimum(ax, u)
    z[n_in:] = p.g_eq
    if not np.isfinite(z).all():
        raise NonFiniteError("NaN or infinity in the start rows min(F z0, g), g_eq")

    # round 0 on the start's active rows, which consecutive MPC steps mostly
    # share (Ferreau, Bock and Diehl 2008), then the active-set rounds on the
    # rows each rejected point names; tried holds every set polished
    idx, tried, rejected = _active_rows(ax[:n_in], p.g, y[:n_in]), set(), []
    for _ in range(ACTIVE_SET_ROUNDS + 1):
        tried.add(idx.tobytes())
        polished = _polish(p, ws, s, u, idx, rejected)
        if polished:
            x, y, (prim, dual) = polished
            return QpSolution(x, p.objective(x), QpStatus.OPTIMAL, 0, prim, dual, y)
        if not rejected:
            break
        idx = np.flatnonzero((rejected.pop() > 0) & np.isfinite(p.g))
        if idx.tobytes() in tried:
            break

    # the rounds cannot settle on an infeasible QP; the LP splits F_eq z = g_eq in two
    fin, k = np.flatnonzero(np.isfinite(p.g)), m - n_in
    rows = (sparse.vstack if sparse.issparse(A) else np.vstack)([p.F[fin], p.F_eq, -p.F_eq])
    b = np.concatenate([p.g[fin], p.g_eq, -p.g_eq])
    status, xs, mu = _solve_lp(SimpleNamespace(highs=_highs_core()._Highs(), lp=_highs_lp(rows)), b)
    # a slack within eps_abs leaves a point that ADMM's accept test may take
    if status == "optimal" and xs[d] > s.eps_abs and _certified(rows, b, -mu):
        x, y, j = xs[:d], np.zeros(m), fin.size
        y[fin], y[n_in:] = -mu[:j], mu[j + k:] - mu[j:j + k]
        return QpSolution(x, p.objective(x), QpStatus.INFEASIBLE, 0, _violation(A @ x - u, n_in),
                          float(np.abs(P @ x + q + At @ y).max()), y)

    rho_base = RHO
    if ws.lu is None:
        if ws.P_sigma is None:
            ws.P_sigma = P.toarray() + SIGMA * np.eye(d)
        G = _dense((At * rho_scale) @ A)
        ws.G, ws.lu = G, _factor(G, ws.P_sigma, RHO)
    lu, rho = ws.lu, RHO * rho_scale
    q_norm = float(np.abs(q).max(initial=0.0))

    for it in range(1, s.max_iter + 1):
        x_t = lu_solve(lu, SIGMA * x - q + At @ (rho * z - y))
        x = ALPHA * x_t + (1.0 - ALPHA) * x
        az = ALPHA * (A @ x_t) + (1.0 - ALPHA) * z
        z = np.minimum(az + y / rho, u)
        z[n_in:] = p.g_eq
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
            if idx.tobytes() not in tried:
                tried.add(idx.tobytes())
                polished = _polish(p, ws, s, u, idx)
        if converged or polished:
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
        status=QpStatus.OPTIMAL if converged or polished else QpStatus.MAX_ITERATIONS,
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


def _polish(p, ws, s, u, idx, rejected=None):
    """(x, y, (prim, dual)): the KKT point on every F_eq row and the F rows
    idx, with prim and dual its max-norm violation of F x <= g,
    F_eq x = g_eq and of stationarity P x + q + A'y, when it passes
    _accepted with the scales of its own A x, P x and A'y and its F-row
    multipliers are >= -1e-7; else None. A point that fails appends
    y + (F x - g) over the F rows to the list ``rejected``, when one is
    given: the active-set rounds of solve_qp take their next rows from it.

    The regularized KKT system [K_eq, B'; B, -dI], where
    K_eq = [P + dI, F_eq'; F_eq, -dI] and B holds the k rows idx, gives a
    candidate, refined against the unregularized system until its residual
    there is within 1e-12, for at most three rounds; A x and P x + q + A'y
    of each candidate give that residual and its residuals and scales. Block
    elimination solves it with the LU of K_eq, made at the first polish and
    kept in ws.keq, and for k > 0 W = K_eq^-1 [B 0]' and the LU of
    S = -dI - [B 0] W; a SingularMatrixError from a factor gives None.
    K_eq is a scipy.sparse CSC matrix when A is sparse, assembled in one
    pass from the entries of P and F_eq and factored by SuperLU in
    lu_factor's static order, and an ndarray otherwise; B, W and S are
    dense and C-ordered. A sparse K_eq's polish solves K_eq in one batch for
    the rows idx that ws.keq_cols does not hold yet, keeps each one's dense
    row and column there, and gathers B and W from it: SuperLU solves each
    column of a batch as it solves that column alone, so W has the bits of
    one solve for all k rows. A dense K_eq's polish solves all k rows, since
    LAPACK's getrs rounds a column in a batch otherwise than alone.
    P x costs P's non-zeros when H is sparse.
    """
    d, P, A, n_in = p.d, ws.P, ws.A, p.F.shape[0]
    n0, delta = d + A.shape[0] - n_in, 1e-9
    rows, k = np.concatenate([np.arange(n_in, A.shape[0]), idx]), len(idx)
    try:
        if ws.keq is None:
            diag = np.repeat([delta, -delta], [d, n0 - d])
            if sparse.issparse(A):
                # one COO pass over P's and F_eq's entries, F_eq's twice, and
                # the diagonal, which the conversion adds to P's
                Pc, Fc, i = sparse.coo_array(P), A[n_in:].tocoo(), np.arange(n0)
                K = sparse.csc_array((np.concatenate([Pc.data, Fc.data, Fc.data, diag]),
                                      (np.concatenate([Pc.row, Fc.row + d, Fc.col, i]),
                                       np.concatenate([Pc.col, Fc.col, Fc.row + d, i]))),
                                     shape=(n0, n0))
            else:
                K = np.diag(diag)
                K[:d, :d] += _dense(P)
                K[d:, :d] = A[n_in:]
                K[:d, d:] = K[d:, :d].T
            ws.keq = lu_factor(K)
            if sparse.issparse(A):
                ws.keq_cols = {}
        keq, cols = ws.keq, ws.keq_cols
        if k:
            if cols is None:
                B = A[idx]
                W = lu_solve(keq, np.vstack([B.T, np.zeros((n0 - d, k))]))
            else:
                # one batch for the rows no polish on this factor has solved yet
                taken = idx.tolist()
                new = [i for i in taken if i not in cols]
                if new:
                    B = A[new].toarray()
                    W = lu_solve(keq, np.vstack([B.T, np.zeros((n0 - d, len(new)))]))
                    cols.update(zip(new, zip(B, W.T)))
                B = np.array([cols[i][0] for i in taken])
                W = np.stack([cols[i][1] for i in taken], axis=1)
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
    if rejected is not None:
        rejected.append(yh[:n_in] + r_prim[:n_in])
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
    viol = _violation(np.concatenate([slack, p.F_eq @ z - p.g_eq]), n_in)
    active = lam != 0
    comp = float(np.abs(lam[active] * slack[active]).max(initial=0.0))
    return stationarity, viol, comp


def _highs_core():
    """SciPy's HiGHS binding, imported on first use, since scipy.optimize
    adds 0.3 s to mpckit's import."""
    from scipy.optimize._highspy import _core
    return _core


def _highs_lp(rows):
    """A new HighsLp of phase-I's slack LP, min s over (z, s) subject to
    [rows, -1] (z, s) <= b, z free and s >= -1, without its row upper bounds
    b, which each solve sets; rows is a dense or CSR block. Its CSC matrix
    holds the non-zeros of [rows, -1] only, with no dense copy of CSR rows."""
    core = _highs_core()
    n_rows, nz = rows.shape
    A = sparse.hstack([sparse.csc_array(rows), sparse.csc_array(-np.ones((n_rows, 1)))],
                      format="csc")
    A.eliminate_zeros()
    lp = core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nz + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = n_rows
    lp.a_matrix_.format_ = core.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
    lp.col_cost_, lp.col_upper_ = np.append(np.zeros(nz), 1.0), np.full(nz + 1, np.inf)
    # s >= -1 keeps the LP bounded, since a slack below -1 is equally conclusive
    lp.col_lower_, lp.row_lower_ = np.append(np.full(nz, -np.inf), -1.0), np.full(n_rows, -np.inf)
    return lp


@lru_cache(maxsize=1)
def _highs_options(items):
    """One HighsOptions set to the (name, value) items, made once per process."""
    options = _highs_core().HighsOptions()
    for name, value in items:
        setattr(options, name, value)
    return options


def _solve_lp(kept, b):
    """Run the HiGHS instance kept.highs under HIGHS_OPTIONS on the HighsLp
    kept.lp with row upper bounds b: (status, x, row duals), the last two
    None unless the status is optimal. passModel clears the solver's state,
    so each run starts cold, as a fresh _Highs does, under the options in
    force at the call. This is linprog(method="highs") without its per-call
    wrapping: checked inputs, options validated anew, a dense-to-CSC
    conversion and parsing."""
    kept.lp.row_upper_ = b
    kept.highs.passOptions(_highs_options(tuple(HIGHS_OPTIONS.items())))
    kept.highs.passModel(kept.lp)
    kept.highs.run()
    status = kept.highs.getModelStatus()
    if status != _highs_core().HighsModelStatus.kOptimal:
        return _lp_status(status), None, None
    solution = kept.highs.getSolution()
    return "optimal", np.array(solution.col_value), np.array(solution.row_dual)


def _lp_status(model_status):
    """linprog(method="highs")'s status string for a HiGHS model status."""
    return LP_STATUS[_MODEL_STATUS.get(model_status.name, 4)]


def _certified(rows, b, y):
    """Whether y proves that no z has rows z <= b (Farkas): y >= 0, y'b < 0
    and rows'y = 0 to CERTIFICATE_TOL; the slack LP's negated row duals have y'b = -s."""
    return (np.all(y >= 0.0) and y @ b < 0.0 and np.abs(rows.T @ y).max(initial=0.0)
            <= CERTIFICATE_TOL * abs(rows).max() * np.abs(y).sum())
