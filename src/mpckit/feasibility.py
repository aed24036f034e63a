"""Feasible-set diagnostics and the Lyapunov decrease monitor."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .condense import build_prediction, condensed_rows, stack_constraints
from .model import polytope_contains
from .numerics import as_vector, pad_inputs
from .qp_solver import QpProblem, QpStatus, solve_qp

FEASIBILITY_TOL = 1e-8
PHASE1_SLACK_TOL = 1e-6
LYAPUNOV_FLOOR = 1e-9


@dataclass
class FeasibilityReport:
    feasible: bool
    phase1_slack: float
    witness: Optional[np.ndarray] = None   # (N, m) input sequence
    # phase-I solver status; None when x_k lies outside X_set and no solve ran.
    # At MAX_ITERATIONS the verdict rests on an unconverged slack.
    status: Optional[QpStatus] = None


@dataclass
class LyapunovReport:
    values: List[float]
    deltas: List[float]
    violations: List[int]


def is_control_sequence_feasible(model, cfg, x_k, U, tol=FEASIBILITY_TOL):
    """Roll out U from x_k; true iff all inputs and predicted states stay in
    their sets (terminal state checked against the terminal set if given)."""
    x_k = as_vector(x_k, "x_k")
    U = np.asarray(U, dtype=float).reshape(cfg.N, -1)
    x = x_k.copy()
    if not polytope_contains(cfg.X_set, x, tol):
        return False
    for i in range(cfg.N):
        if not polytope_contains(cfg.U_set, U[i], tol):
            return False
        x = as_vector(model.step(x, U[i]))
        last = i == cfg.N - 1
        target = cfg.terminal_set if (last and cfg.terminal_set is not None) else cfg.X_set
        if not polytope_contains(target, x, tol):
            return False
    return True


def is_state_feasible(model, cfg, x_k):
    """Phase-I slack program deciding whether some input sequence keeps the
    N-step prediction inside the constraint sets. The inputs after the
    control horizon N_C are fixed to zero, as in lmpc_step, and the witness
    holds them as zeros. LTI models only."""
    x_k = as_vector(x_k, "x_k")
    cfg.check_sizes(model, x_k)
    if not polytope_contains(cfg.X_set, x_k, FEASIBILITY_TOL):
        return FeasibilityReport(feasible=False, phase1_slack=np.inf, witness=None)
    pm = build_prediction(model, cfg.N)
    c = stack_constraints(cfg.X_set, cfg.U_set, cfg.terminal_set, cfg.N)
    # decision vector (U, s): minimize s (plus tiny regularization on U)
    # subject to F U - s <= g0 - G x_k; the last row, -s <= 1, keeps the program
    # bounded, since a slack below -1 is equally conclusive
    F_U, g0, G = condensed_rows(pm, c, cfg.N_C)
    nU = F_U.shape[1]
    F = np.block([[F_U, -np.ones((F_U.shape[0], 1))],
                  [np.zeros((1, nU)), -np.ones((1, 1))]])
    q = np.zeros(nU + 1)
    q[nU] = 1.0
    sol = solve_qp(QpProblem(H=1e-8 * np.eye(nU + 1), q=q, F=F,
                             g=np.append(g0 - G @ x_k, 1.0)), settings=cfg.settings)
    slack = float(sol.z_star[nU])
    feasible = sol.status is not QpStatus.INFEASIBLE and slack <= PHASE1_SLACK_TOL
    witness = pad_inputs(sol.z_star[:nU], pm.N, pm.m) if feasible else None
    return FeasibilityReport(feasible=feasible, phase1_slack=max(slack, 0.0),
                             witness=witness, status=sol.status)


def persistent_feasibility_check(traj, model, cfg):
    """is_state_feasible at every visited state of a closed-loop trajectory."""
    return [is_state_feasible(model, cfg, x) for x in traj.states]


def lyapunov_monitor(traj, floor=LYAPUNOV_FLOOR):
    """Consecutive differences of the per-step optimal costs.

    A violation is a non-decrease (delta >= -1e-12) at a point where the
    cost is still above the absolute floor; below the floor solver noise
    dominates and deltas are ignored.
    """
    values = [float(v) for v in traj.costs]
    deltas = [values[k + 1] - values[k] for k in range(len(values) - 1)]
    violations = [k for k, dv in enumerate(deltas)
                  if dv >= -1e-12 and values[k] > floor]
    return LyapunovReport(values=values, deltas=deltas, violations=violations)
