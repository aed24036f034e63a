"""Feasible-set diagnostics and the Lyapunov decrease monitor."""

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional

import numpy as np
from scipy import sparse

# build_prediction and stack_constraints are called through this module's
# names, and solve_qp stays importable although phase-I no longer calls it:
# bench/spans.py patches all three here by name, and bench/run.py solve_qp
from .condense import build_prediction, condensed_rows, stack_constraints
from .exceptions import NonFiniteError, ShapeError
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
# linprog(method="highs")'s code for a HiGHS model status; any other is 4
_MODEL_STATUS = {"kOptimal": 0, "kTimeLimit": 1, "kIterationLimit": 1, "kModelError": 2,
                 "kInfeasible": 2, "kUnbounded": 3}
# the HiGHS options linprog(method="highs") sets: presolve, the dual simplex
# (simplex strategy 1), no debugging and no output
HIGHS_OPTIONS = {"presolve": "on", "simplex_strategy": 1, "highs_debug_level": 0,
                 "output_flag": False, "log_to_console": False}


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
    their sets (terminal state in the terminal set if given), one product a set."""
    x_k = as_vector(x_k, "x_k")
    cfg.check_sizes(model, x_k)
    U = np.asarray(U, dtype=float)
    if U.size != cfg.N * cfg.m:
        raise ShapeError(f"U has {U.size} entries, expected N m = {cfg.N * cfg.m}")
    U = U.reshape(cfg.N, cfg.m)
    X = np.empty((cfg.N + 1, cfg.n))
    X[0] = x_k
    for i in range(cfg.N):
        X[i + 1] = model.step(X[i], U[i])
    T = cfg.terminal_set
    return (polytope_contains(cfg.U_set, U, tol)
            and polytope_contains(cfg.X_set, X if T is None else X[:-1], tol)
            and (T is None or polytope_contains(T, X[-1], tol)))


def is_state_feasible(model, cfg, x_k):
    """Phase-I linear program deciding whether some input sequence keeps the
    N-step prediction inside the constraint sets. HiGHS solves it through
    SciPy's bundled binding with the settings of linprog(method="highs"),
    so with linprog's answers, but without linprog's per-call wrapping,
    which took half of a check's time (BENCH_32.json). The
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
    """(lp, F_U, g0, G): the LP min s over (U, s) subject to the rows
    F_U U - s <= g0 - G x_k (condensed_rows' rows with the slack column -1
    appended), U free and s >= -1, as a HiGHS model whose row upper bounds
    are left for each state to set."""
    from scipy.optimize._highspy import _core   # see _solve_lp
    pm = build_prediction(model, cfg.N)
    c = stack_constraints(cfg.X_set, cfg.U_set, cfg.terminal_set, cfg.N)
    F_U, g0, G = condensed_rows(pm, c, cfg.N_C)
    if not np.isfinite(F_U).all():
        raise NonFiniteError("phase-I rows F_U are not finite")
    rows, nU = F_U.shape
    A = sparse.csc_array(np.hstack([F_U, -np.ones((rows, 1))]))
    lp = _core.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = nU + 1
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A.indptr, A.indices, A.data
    lp.col_cost_ = np.append(np.zeros(nU), 1.0)
    # s >= -1 keeps the LP bounded, since a slack below -1 is equally conclusive
    lp.col_lower_ = np.append(np.full(nU, -np.inf), -1.0)
    lp.col_upper_ = np.full(nU + 1, np.inf)
    lp.row_lower_ = np.full(rows, -np.inf)
    return lp, F_U, g0, G


@lru_cache(maxsize=1)
def _highs_options(items):
    """One HighsOptions set to the (name, value) items, made once per process."""
    from scipy.optimize._highspy import _core
    options = _core.HighsOptions()
    for name, value in items:
        setattr(options, name, value)
    return options


def _solve_lp(lp, b):
    """Run a fresh HiGHS under HIGHS_OPTIONS on lp with row upper bounds b:
    (status, x, row duals), the last two None unless the status is optimal.

    This is what linprog(method="highs") runs, without its per-call
    wrapping: checked inputs, options validated anew, a dense-to-CSC
    conversion and parsed results. scipy.optimize adds 0.3 s to mpckit's
    import, so its HiGHS binding is imported on first use."""
    from scipy.optimize._highspy import _core
    lp.row_upper_ = b
    highs = _core._Highs()
    highs.passOptions(_highs_options(tuple(HIGHS_OPTIONS.items())))
    highs.passModel(lp)
    highs.run()
    status = highs.getModelStatus()
    if status != _core.HighsModelStatus.kOptimal:
        return _lp_status(status), None, None
    solution = highs.getSolution()
    return "optimal", np.array(solution.col_value), np.array(solution.row_dual)


def _lp_status(model_status):
    """linprog(method="highs")'s status string for a HiGHS model status."""
    return LP_STATUS[_MODEL_STATUS.get(model_status.name, 4)]


def _phase1_lp(model, cfg, rows, x_k):
    """Minimize s over (U, s) with HiGHS; check the verdict before reporting it."""
    lp, F_U, g0, G = rows
    b = g0 - G @ x_k
    if not np.isfinite(b).all():
        raise NonFiniteError("phase-I row bounds g0 - G x_k are not finite")
    status, x, mu = _solve_lp(lp, b)
    if status != "optimal":
        return FeasibilityReport(False, np.nan, status=status)
    nU = F_U.shape[1]
    slack = float(x[nU])
    if slack <= PHASE1_SLACK_TOL:
        witness = pad_inputs(x[:nU], cfg.N, cfg.m)
        ok = is_control_sequence_feasible(model, cfg, x_k, witness, tol=PHASE1_SLACK_TOL)
        return FeasibilityReport(ok, max(slack, 0.0), witness if ok else None,
                                 status="optimal" if ok else "witness_rejected")
    # by LP duality the row multipliers y have y'b = -s < 0
    y = -mu
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
