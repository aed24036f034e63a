"""Receding-horizon loops for linear and nonlinear MPC, with set-point tracking."""

import copy
import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .condense import (assemble_condensed_qp, assemble_sparse_qp,
                       build_prediction, build_weights, condensed_blocks,
                       sparse_blocks, stack_constraints, trajectory_blocks)
from .exceptions import (InfeasibleStepError, InvalidHorizonError, InvalidWeightError,
                         NonFiniteError, ReferenceInfeasibleError, ShapeError)
from .model import (LtiModel, NonlinearModel, Polytope, empty_polytope,
                    polytope_contains, steady_state_input_lti,
                    steady_state_input_nonlinear)
from .nlp_solver import NlpProblem, build_feq, build_feq_jacobian, solve_nlp
from .numerics import as_symmetric, as_vector, pad_inputs
from .qp_solver import QpStatus, QpWorkspace, SolverSettings, solve_qp

SPARSE = "sparse"
CONDENSED = "condensed"


@dataclass
class MpcConfig:
    """The finite-horizon problem of one step: horizons, weights, constraint
    sets and solver options; N_T is the length of a closed loop."""

    N: int
    N_T: int
    Q: np.ndarray
    R: np.ndarray
    N_C: Optional[int] = None
    Q_N: Optional[np.ndarray] = None
    X_set: Optional[Polytope] = None
    U_set: Optional[Polytope] = None
    terminal_set: Optional[Polytope] = None
    formulation: str = CONDENSED    # LMPC's; NMPC always solves the trajectory form
    settings: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.N_C is None:
            self.N_C = self.N
        if self.N < 1:
            raise InvalidHorizonError(f"prediction horizon must be >= 1, got {self.N}")
        if self.N == 1:
            warnings.warn("prediction horizon N=1 is below the usual 2 <= N <= N_T range")
        if self.N > self.N_T:
            raise InvalidHorizonError(f"N={self.N} exceeds N_T={self.N_T}")
        if not 1 <= self.N_C <= self.N:
            raise InvalidHorizonError(f"control horizon must satisfy 1 <= N_C <= N, got {self.N_C}")
        if self.formulation not in (SPARSE, CONDENSED):
            raise ValueError(f"unknown formulation {self.formulation!r}")
        self.Q = as_symmetric(self.Q, "Q")
        self.R = as_symmetric(self.R, "R")
        if np.linalg.eigvalsh(self.R).min() <= 0:
            raise InvalidWeightError("R must be positive definite")
        q_eigs = np.linalg.eigvalsh(self.Q)
        if q_eigs.min() < -1e-10:
            raise InvalidWeightError("Q must be positive semidefinite")
        if q_eigs.min() <= 1e-12:
            warnings.warn("Q is only positive semidefinite")
        if self.Q_N is None:
            self.Q_N = self.Q.copy()
        else:
            self.Q_N = as_symmetric(self.Q_N, "Q_N")
            if self.Q_N.shape != self.Q.shape:
                raise InvalidWeightError(f"Q_N shape {self.Q_N.shape} != Q shape {self.Q.shape}")
            if np.linalg.eigvalsh(self.Q_N).min() < -1e-10:
                raise InvalidWeightError("Q_N must be positive semidefinite")
        # no set is the set of no rows
        if self.X_set is None:
            self.X_set = empty_polytope(self.n)
        if self.U_set is None:
            self.U_set = empty_polytope(self.m)
        for name, P, dim in (("X_set (F_x)", self.X_set, self.n),
                             ("U_set (F_u)", self.U_set, self.m),
                             ("terminal_set (F)", self.terminal_set, self.n)):
            if P is not None and P.dim != dim:
                raise ShapeError(f"{name} has {P.dim} columns, expected {dim}")

    @property
    def n(self):
        return self.Q.shape[0]

    @property
    def m(self):
        return self.R.shape[0]

    def check_sizes(self, model, x):
        """Raise ShapeError unless the model's n and m and the state x match Q
        and R, and NonFiniteError unless x is finite."""
        if (model.n, model.m, x.shape[0]) != (self.n, self.m, self.n):
            raise ShapeError(f"model (n = {model.n}, m = {model.m}) or state (length "
                             f"{x.shape[0]}) does not match Q and R (n = {self.n}, m = {self.m})")
        if not np.isfinite(x).all():
            raise NonFiniteError(f"state {x} has a NaN or infinite entry")


@dataclass
class MpcStepResult:
    u_k: np.ndarray
    U_star: np.ndarray      # (N, m)
    X_star: np.ndarray      # (N+1, n)
    J_star: float
    solver_status: object
    iterations: int
    solution: object = None  # raw solver output: status, duals and residuals


class Rows:
    """Rows appended to an array made for count of them, read as a list of
    rows (an index gives a row, a slice a list) or by np.asarray as one array."""

    __slots__ = ("array", "n")

    def __init__(self, count, width):
        self.array, self.n = np.empty((count, width)), 0

    def append(self, row):
        self.array[self.n] = row
        self.n += 1

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        rows = self.array[:self.n]
        return list(rows[i]) if isinstance(i, slice) else rows[i]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array[:self.n], dtype=dtype, copy=copy)


@dataclass(slots=True)
class Trajectory:
    states: List[np.ndarray] = field(default_factory=list)
    inputs: List[np.ndarray] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    statuses: List[object] = field(default_factory=list)
    iterations: List[int] = field(default_factory=list)

    def __len__(self):
        return len(self.inputs)


class _Workspace:
    """The x_k-independent parts of one closed loop's trajectory QP.

    run_closed_loop creates one per loop and its first step fills it, not
    the loop's set-up:
    - ``pm``: LMPC's prediction matrices;
    - ``blocks``: LMPC's constant blocks over the control horizon N_C
      (condensed_blocks or sparse_blocks), or NMPC's cost and inequality
      blocks (H, F, g) of trajectory_blocks, H and F made dense for the
      dense Jacobian rows, with the Jacobian map of build_feq_jacobian;
    - ``qp``: the loop's QpWorkspace. LMPC's steps share all of it; NMPC's
      SQP subproblems share its H/F part (P and the checks of H and F), and
      each rebuilds its F_eq part from that iteration's Jacobian.
    Later steps only evaluate the blocks at x_k. A step called without one
    builds everything afresh.
    """

    def __init__(self):
        self.pm = self.blocks = None
        self.qp = QpWorkspace()


def lmpc_step(model, cfg, x_k, warm=None, _ws=None):
    """One LMPC solve of the regulation problem, which steers x_k toward the
    origin: returns the applied input and the full predicted sequences. A
    set point is tracked by run_closed_loop's reference (tracking_transform)."""
    x_k = as_vector(x_k, "x_k")
    cfg.check_sizes(model, x_k)
    ws = _ws if _ws is not None else _Workspace()
    sparse = cfg.formulation == SPARSE
    if ws.blocks is None:
        ws.pm = build_prediction(model, cfg.N)
        if sparse:
            ws.blocks = sparse_blocks(ws.pm, *_trajectory_blocks(cfg))
        else:
            w = build_weights(cfg.Q, cfg.R, cfg.Q_N, cfg.N)
            c = stack_constraints(cfg.X_set, cfg.U_set, cfg.terminal_set, cfg.N)
            ws.blocks = condensed_blocks(ws.pm, w, c, cfg.N_C)
    pm = ws.pm
    nX = pm.n * (pm.N + 1)
    qp = (assemble_sparse_qp if sparse else assemble_condensed_qp)(ws.blocks, x_k)
    sol = solve_qp(qp, warm=warm, settings=cfg.settings, workspace=ws.qp)
    if sol.status is QpStatus.INFEASIBLE:
        raise InfeasibleStepError("LMPC problem infeasible", state=x_k, certificate=sol.duals)
    U = pad_inputs(sol.z_star[nX:] if sparse else sol.z_star, pm.N, pm.m)
    X = sol.z_star[:nX] if sparse else pm.A_X @ x_k + pm.B_U @ U.ravel()
    # the condensed objective includes the carried constant r_k
    return _step_result(U, X.reshape(pm.N + 1, pm.n), sol)


def nmpc_step(model, cfg, x_k, warm=None, _ws=None):
    """One NMPC solve via SQP on the trajectory decision vector, of the
    regulation problem as lmpc_step's."""
    x_k = as_vector(x_k, "x_k")
    cfg.check_sizes(model, x_k)
    n, m, N = model.n, model.m, cfg.N
    residual, d = build_feq(model, x_k, N, cfg.N_C)
    ws = _ws if _ws is not None else _Workspace()
    if ws.blocks is None:
        H, F, g = _trajectory_blocks(cfg)
        ws.blocks = (H.toarray(), F.toarray(), g, build_feq_jacobian(model, N, cfg.N_C))
    H, F, g, jacobian = ws.blocks
    nX = n * (N + 1)
    p = NlpProblem(H=H, F=F, g=g, residual=residual, jacobian=jacobian)
    if warm is None:
        warm = np.concatenate([np.tile(x_k, N + 1), np.zeros(d - nX)])
    # solve_nlp raises ShapeError on a warm start of the wrong length
    sol = solve_nlp(p, warm, settings=cfg.settings, workspace=ws.qp)
    return _step_result(pad_inputs(sol.z_star[nX:], N, m),
                        sol.z_star[:nX].reshape(N + 1, n), sol)


def _trajectory_blocks(cfg):
    """trajectory_blocks of cfg's weights, sets and horizons."""
    return trajectory_blocks(cfg.Q, cfg.R, cfg.Q_N, cfg.X_set, cfg.U_set, cfg.terminal_set,
                             cfg.N, cfg.N_C)


def _step_result(U, X, sol):
    """The step of a QP or NLP solution with inputs U (N, m), the inputs after
    the control horizon zero, and states X (N+1, n)."""
    return MpcStepResult(u_k=U[0].copy(), U_star=U, X_star=X, J_star=sol.objective,
                         solver_status=sol.status, iterations=sol.iterations,
                         solution=sol)


def tracking_transform(cfg, model, x_r):
    """The regulation problem of tracking the steady state x_r.

    Returns (u_r, inner_cfg, error-dynamics model): the steady input, cfg
    with X_set, U_set and the terminal set shifted into error coordinates
    x - x_r, u - u_r, and the model that steps the error. An LtiModel is its
    own error model: x - x_r steps by A and B when x_r = A x_r + B u_r.
    An x_r of the wrong length raises ShapeError, and one holding a NaN or
    an infinity raises NonFiniteError before any arithmetic.
    """
    x_r = as_vector(x_r, "reference (x_r)", cfg.n)
    if not np.isfinite(x_r).all():
        raise NonFiniteError(f"reference (x_r) {x_r} has a NaN or infinite entry")
    X_set, U_set, T = cfg.X_set, cfg.U_set, cfg.terminal_set
    if not polytope_contains(X_set, x_r):
        raise ReferenceInfeasibleError("reference state lies outside the state constraint set")
    if isinstance(model, LtiModel):
        u_r = steady_state_input_lti(model, x_r)
        err_model = model
    else:
        u_r = steady_state_input_nonlinear(model, x_r)
        err_model = NonlinearModel(
            n=model.n, m=model.m,
            step=lambda xe, ue: model.step(xe + x_r, ue + u_r) - x_r,
            jac_x=(lambda xe, ue: model.jac_x(xe + x_r, ue + u_r)) if model.jac_x else None,
            jac_u=(lambda xe, ue: model.jac_u(xe + x_r, ue + u_r)) if model.jac_u else None,
        )
    if not polytope_contains(U_set, u_r):
        raise ReferenceInfeasibleError(
            "steady-state input for the reference violates the input constraints")
    # only the sets move; a copy, not replace(), since cfg is validated and
    # MpcConfig.__post_init__ would repeat its warnings and eigenvalues
    inner_cfg = copy.copy(cfg)
    inner_cfg.X_set = Polytope(X_set.F, X_set.g - X_set.F @ x_r)
    inner_cfg.U_set = Polytope(U_set.F, U_set.g - U_set.F @ u_r)
    inner_cfg.terminal_set = None if T is None else Polytope(T.F, T.g - T.F @ x_r)
    return u_r, inner_cfg, err_model


def run_closed_loop(model, cfg, x_0, reference=None):
    """Simulate the receding-horizon loop for N_T steps.

    With a reference x_r the loop tracks it: every step solves the regulation
    problem of tracking_transform in error coordinates x - x_r, u - u_r, and
    the trajectory records states and inputs in original coordinates, in
    which X_set, U_set and the terminal set are given. Each step after the
    first is warm-started from the previous one (_next_warm). An infeasible
    step raises InfeasibleStepError carrying the partial trajectory, the
    failing state and its QP's certificate.
    """
    x_0 = as_vector(x_0, "x_0")
    cfg.check_sizes(model, x_0)
    is_lti = isinstance(model, LtiModel)
    solve = lmpc_step if is_lti else nmpc_step

    # adding -0.0 leaves every float as it is, signed zeros included
    x_r, u_r = np.full(cfg.n, -0.0), np.full(cfg.m, -0.0)
    inner_cfg, inner_model = cfg, model
    if reference is not None:
        # The plant is the same model the controller predicts with: in
        # tracking mode that is the error-coordinate model, so the loop
        # simulates in error coordinates and translates back for the record.
        x_r = as_vector(reference, "reference (x_r)", cfg.n)
        u_r, inner_cfg, inner_model = tracking_transform(cfg, model, x_r)

    ws = _Workspace()
    traj = Trajectory(states=Rows(cfg.N_T + 1, cfg.n), inputs=Rows(cfg.N_T, cfg.m))
    xe = x_0 - x_r
    traj.states.append(xe + x_r)
    warm = None
    for k in range(cfg.N_T):
        try:
            step = solve(inner_model, inner_cfg, xe, warm=warm, _ws=ws)
        except InfeasibleStepError as err:
            raise InfeasibleStepError(
                f"closed loop infeasible at step {k}", state=xe + x_r, step=k,
                trajectory=traj, certificate=err.certificate) from err
        xe = as_vector(inner_model.step(xe, step.u_k))
        traj.states.append(xe + x_r)
        traj.inputs.append(step.u_k + u_r)
        traj.costs.append(step.J_star)
        traj.statuses.append(step.solver_status)
        traj.iterations.append(step.iterations)
        warm = _next_warm(step, inner_cfg, inner_model, is_lti)
    return traj


def _next_warm(step, cfg, model, is_lti):
    """Shift the step-k solution one block forward as the k+1 initial guess.

    Only the primal trajectory is passed on: solve_qp first polishes on the
    rows at their bounds in the shifted trajectory (round 0), which are
    mostly the next step's active rows, and its active-set rounds correct
    the rest, so an LMPC step is usually solved by one polish and its
    ``iterations`` (ADMM iterations only) read 0. Shifted multipliers saved
    an NMPC step's first SQP subproblem only 2-6% of the ADMM iterations.
    """
    X_s = np.vstack([step.X_star[1:], step.X_star[-1]]).ravel()
    U_s = np.vstack([step.U_star[1:], np.zeros((1, model.m))]).ravel()[:model.m * cfg.N_C]
    if is_lti and cfg.formulation == CONDENSED:
        return U_s
    return np.concatenate([X_s, U_s])
