"""Feasible-set diagnostics and the Lyapunov decrease monitor."""

import threading
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

# build_prediction and stack_constraints are called through this module's
# names, and solve_qp stays importable although phase-I does not call it:
# bench/spans.py patches all three here by name, and bench/run.py solve_qp.
# A thread keeps the phase-I rows of the last config it checked (_Kept), so a
# scan's traced condense.build_ms reads about 0. The LP helpers are qp_solver's.
from .condense import build_prediction, condensed_rows, stack_constraints
from .exceptions import NonFiniteError, ShapeError
from .model import LtiModel, polytope_contains
from .numerics import as_vector, pad_inputs
from .qp_solver import (CERTIFICATE_TOL, HIGHS_OPTIONS, LP_STATUS, _certified,  # noqa: F401
                        _highs_core, _highs_lp, _highs_options, _lp_status, _solve_lp, solve_qp)

FEASIBILITY_TOL = 1e-8
PHASE1_SLACK_TOL = 1e-6
LYAPUNOV_FLOOR = 1e-9


@dataclass
class FeasibilityReport:
    feasible: bool
    phase1_slack: float
    witness: Optional[np.ndarray] = None   # (N, m) inputs that roll out inside the sets
    # a Farkas certificate (_certified) that no U meets F_U U <= g0 - G x_k
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
    N-step prediction inside the constraint sets, solved by HiGHS through
    SciPy's binding with linprog(method="highs")'s settings, so with its
    answers. Each thread keeps one entry for the last config it checked:
    content key, rows, a HiGHS instance and a HighsLp, so a check under that
    config only sets the row bounds; HIGHS_OPTIONS is read at every check.
    The inputs after the control horizon N_C are fixed to zero, as in
    lmpc_step. A feasible verdict carries a witness that rolls out inside
    the sets, an infeasible one a checked certificate; a report that is not
    conclusive is never feasible. LTI models only."""
    return _phase1(model, cfg, [x_k])[0]


def persistent_feasibility_check(traj, model, cfg):
    """is_state_feasible at every visited state of a closed-loop trajectory."""
    return _phase1(model, cfg, traj.states)


def _phase1(model, cfg, states):
    """Phase-I reports for states under one config: all states are checked,
    then the model kind, then the rows are fetched once, for the first state
    in X_set (_cached_rows); a state outside X_set builds nothing."""
    states = [as_vector(x_k, "x_k") for x_k in states]
    for x_k in states:
        cfg.check_sizes(model, x_k)
    if not isinstance(model, LtiModel):
        raise TypeError(f"phase-I feasibility needs an LtiModel, got {type(model).__name__}")
    reports, kept = [], None
    for x_k in states:
        if not polytope_contains(cfg.X_set, x_k, FEASIBILITY_TOL):
            reports.append(FeasibilityReport(feasible=False, phase1_slack=np.inf))
            continue
        if kept is None:
            kept = _cached_rows(model, cfg)
        reports.append(_phase1_lp(model, cfg, kept, x_k))
    return reports


class _Kept(NamedTuple):
    """What a thread keeps for the last config it checked: its content key
    and rows (_cached_rows), and the _Highs that solves its LP with the
    HighsLp lp (_highs_lp), whose row bounds each check sets."""
    key: tuple
    F_U: np.ndarray
    g0: np.ndarray
    G: np.ndarray
    highs: object
    lp: object


# per thread, the one _Kept entry: a scan, a trajectory check and the CLI
# check consecutive states of one config, and no thread writes another's
_kept = threading.local()


def _cached_rows(model, cfg):
    """The calling thread's _Kept entry for (model, cfg), built again only
    when its key differs from the last config's: N, N_C and every array the
    rows are built from, each with its shape, dtype and bytes, so an in-place
    edit changes it. The rows, condensed_rows' F_U U <= g0 - G x_k, are made
    read-only, since every later check under the config reads them."""
    T = cfg.terminal_set
    arrays = [model.A, model.B, cfg.X_set.F, cfg.X_set.g, cfg.U_set.F, cfg.U_set.g]
    if T is not None:
        arrays += [T.F, T.g]
    key = (cfg.N, cfg.N_C) + tuple((a.shape, a.dtype.str, a.tobytes()) for a in arrays)
    kept = getattr(_kept, "entry", None)
    if kept is None or kept.key != key:
        pm = build_prediction(model, cfg.N)
        c = stack_constraints(cfg.X_set, cfg.U_set, T, cfg.N)
        F_U, g0, G = condensed_rows(pm, c, cfg.N_C)
        if not np.isfinite(F_U).all():
            raise NonFiniteError("phase-I rows F_U are not finite")
        for a in (F_U, g0, G):
            a.setflags(write=False)
        kept = _kept.entry = _Kept(key, F_U, g0, G, _highs_core()._Highs(), _highs_lp(F_U))
    return kept


def _phase1_lp(model, cfg, kept, x_k):
    """Minimize s over (U, s) with HiGHS; check the verdict before reporting it."""
    b = kept.g0 - kept.G @ x_k
    if not np.isfinite(b).all():
        raise NonFiniteError("phase-I row bounds g0 - G x_k are not finite")
    status, x, mu = _solve_lp(kept, b)
    if status != "optimal":
        return FeasibilityReport(False, np.nan, status=status)
    slack = float(x[-1])
    if slack <= PHASE1_SLACK_TOL:
        witness = pad_inputs(x[:-1], cfg.N, cfg.m)
        ok = is_control_sequence_feasible(model, cfg, x_k, witness, tol=PHASE1_SLACK_TOL)
        return FeasibilityReport(ok, max(slack, 0.0), witness if ok else None,
                                 status="optimal" if ok else "witness_rejected")
    ok = _certified(kept.F_U, b, -mu)
    return FeasibilityReport(False, slack, certificate=-mu if ok else None,
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
