"""Feasible-set diagnostics and the Lyapunov decrease monitor."""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

# build_prediction and stack_constraints are called through this module's
# names, and solve_qp stays importable although phase-I no longer calls it:
# bench/spans.py patches all three here by name, and bench/run.py solve_qp
from .condense import build_prediction, condensed_rows, stack_constraints
from .exceptions import ShapeError
from .model import LtiModel, polytope_contains
from .numerics import as_vector, pad_inputs
from .qp_solver import solve_qp  # noqa: F401

FEASIBILITY_TOL = 1e-8
PHASE1_SLACK_TOL = 1e-6
# an infeasibility certificate y needs max|F_U'y| <= CERTIFICATE_TOL max|F_U| sum|y|
CERTIFICATE_TOL = 1e-9
LYAPUNOV_FLOOR = 1e-9
# scipy.optimize.linprog's status codes
LP_STATUS = ("optimal", "iteration_limit", "infeasible", "unbounded", "numerical_difficulties")


@dataclass
class FeasibilityReport:
    feasible: bool
    phase1_slack: float
    witness: Optional[np.ndarray] = None   # (N, m) inputs that roll out inside the sets
    # y >= 0 over the phase-I rows F_U U <= g0 - G x_k with F_U'y = 0 and
    # y'(g0 - G x_k) < 0, so that no input sequence meets them (Farkas)
    certificate: Optional[np.ndarray] = None
    # None when x_k lies outside X_set and no LP ran; "optimal" when the LP
    # ended optimal and its witness or certificate passed its check; else the
    # LP's status or "witness_rejected"/"certificate_rejected"
    status: Optional[str] = None

    @property
    def conclusive(self):
        """False when the verdict rests on an LP that did not end optimal or
        on a witness or certificate that failed its check."""
        return self.status in (None, "optimal")


@dataclass
class LyapunovReport:
    values: List[float]
    deltas: List[float]
    violations: List[int]


def is_control_sequence_feasible(model, cfg, x_k, U, tol=FEASIBILITY_TOL):
    """Roll out U from x_k; true iff all inputs and predicted states stay in
    their sets (terminal state checked against the terminal set if given)."""
    x_k = as_vector(x_k, "x_k")
    cfg.check_sizes(model, x_k)
    U = np.asarray(U, dtype=float)
    if U.size != cfg.N * cfg.m:
        raise ShapeError(f"U has {U.size} entries, expected N m = {cfg.N * cfg.m}")
    U = U.reshape(cfg.N, cfg.m)
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
    """Phase-I linear program deciding whether some input sequence keeps the
    N-step prediction inside the constraint sets, solved by HiGHS. The
    inputs after the control horizon N_C are fixed to zero, as in lmpc_step,
    and the witness holds them as zeros. A feasible verdict carries a
    witness that rolls out inside the sets, an infeasible one a checked
    certificate; a report that is not conclusive is never feasible. LTI
    models only."""
    return _phase1(model, cfg, [x_k])[0]


def persistent_feasibility_check(traj, model, cfg):
    """is_state_feasible at every visited state of a closed-loop trajectory."""
    return _phase1(model, cfg, traj.states)


def _phase1(model, cfg, states):
    """Phase-I reports for states under one config. The rows depend on the
    config only, so they are built once, for the first state in X_set."""
    reports, rows = [], None
    for x_k in states:
        x_k = as_vector(x_k, "x_k")
        cfg.check_sizes(model, x_k)
        if not isinstance(model, LtiModel):
            raise TypeError(f"phase-I feasibility needs an LtiModel, got {type(model).__name__}")
        if not polytope_contains(cfg.X_set, x_k, FEASIBILITY_TOL):
            reports.append(FeasibilityReport(feasible=False, phase1_slack=np.inf))
            continue
        if rows is None:
            rows = _phase1_rows(model, cfg)
        reports.append(_phase1_lp(model, cfg, rows, x_k))
    return reports


def _phase1_rows(model, cfg):
    """(A, g0, G): the rows A (U, s) <= g0 - G x_k, which are condensed_rows'
    F_U U <= g0 - G x_k with the slack column -1 appended."""
    pm = build_prediction(model, cfg.N)
    c = stack_constraints(cfg.X_set, cfg.U_set, cfg.terminal_set, cfg.N)
    F_U, g0, G = condensed_rows(pm, c, cfg.N_C)
    return np.hstack([F_U, -np.ones((F_U.shape[0], 1))]), g0, G


def _phase1_lp(model, cfg, rows, x_k):
    """Minimize s over (U, s) with HiGHS; check the verdict before reporting it."""
    from scipy.optimize import linprog   # scipy.optimize adds 0.3 s to mpckit's import
    A, g0, G = rows
    b = g0 - G @ x_k
    nU = A.shape[1] - 1
    # s >= -1 keeps the LP bounded, since a slack below -1 is equally conclusive
    res = linprog(np.append(np.zeros(nU), 1.0), A_ub=A, b_ub=b,
                  bounds=[(None, None)] * nU + [(-1.0, None)], method="highs")
    if res.status != 0:
        return FeasibilityReport(False, np.nan, status=LP_STATUS[res.status])
    slack = float(res.x[nU])
    if slack <= PHASE1_SLACK_TOL:
        witness = pad_inputs(res.x[:nU], cfg.N, cfg.m)
        ok = is_control_sequence_feasible(model, cfg, x_k, witness, tol=PHASE1_SLACK_TOL)
        return FeasibilityReport(ok, max(slack, 0.0), witness if ok else None,
                                 status="optimal" if ok else "witness_rejected")
    # by LP duality the row multipliers y have y'b = -s < 0
    y = -res.ineqlin.marginals
    F_U = A[:, :nU]
    ok = (np.all(y >= 0.0) and y @ b < 0.0 and np.abs(F_U.T @ y).max(initial=0.0)
          <= CERTIFICATE_TOL * np.abs(F_U).max(initial=0.0) * np.abs(y).sum())
    return FeasibilityReport(False, slack, certificate=y if ok else None,
                             status="optimal" if ok else "certificate_rejected")


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
