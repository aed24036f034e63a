"""Command-line harness: experiment configs, bundled demos, CSV and SVG output.

Config files are JSON objects with the keys documented in parse_config.
CSV format (bit-exact): header ``k,x1,...,xn,u1,...,um,J_star,status,iterations``,
one row per step k = 0..N_T-1 plus a final state-only row for k = N_T,
reals printed with 17 significant digits, LF line endings.
"""

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import __version__
from .controller import MpcConfig, run_closed_loop
from .exceptions import (ConfigError, InfeasibleStepError, MpcError,
                         ReferenceInfeasibleError)
from .feasibility import is_state_feasible
from .model import (LtiModel, PendulumParams, Polytope, lti_as_nonlinear,
                    pendulum_model)
from .nlp_solver import NlpStatus
from .qp_solver import QpStatus, SolverSettings

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

_PENDULUM_KEYS = tuple(f.name for f in fields(PendulumParams))


@dataclass
class ExperimentConfig:
    model: object            # LtiModel or NonlinearModel
    mpc: MpcConfig
    initial_state: np.ndarray
    name: str = "experiment"
    reference: np.ndarray | None = None      # x_r, tracked by run_closed_loop


def _finite_array(obj, key):
    try:
        a = np.asarray(obj, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must hold JSON numbers only")
    # numpy alone would also read "0.9" and true as numbers
    leaves = [obj]
    for _ in range(a.ndim):
        leaves = chain.from_iterable(leaves)
    if not set(map(type, leaves)) <= {int, float}:
        raise ConfigError(f"{key} must hold JSON numbers only")
    if not np.isfinite(a).all():
        raise ConfigError(f"{key} must be finite (no NaN or infinity)")
    return a


def _matrix(obj, key):
    M = _finite_array(obj, key)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    if M.ndim != 2:
        raise ConfigError(f"{key} must be a nested row-major array (matrix)")
    return M


def _vector(obj, key):
    v = _finite_array(obj, key)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ConfigError(f"{key} must be a flat array (vector)")
    return v


def _number(obj, key):
    # float() alone would also take "0.1" and true
    if type(obj) not in (int, float):
        raise ConfigError(f"{key} must be a JSON number, got {obj!r}")
    if not math.isfinite(obj):
        raise ConfigError(f"{key} must be finite (no NaN or infinity)")
    return float(obj)


def _object(obj, key, known=None):
    """obj as a config section; with ``known``, any other key in it is an error."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{key} must be an object")
    unknown = [k for k in obj if known is not None and k not in known]
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {key}")
    return obj


def _integer(obj, key):
    # bool is an int subclass, and JSON true is not a count
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{key} must be an integer, got {obj!r}")
    return obj


def _polytope(section, fkey, gkey, what):
    if fkey not in section and gkey not in section:
        return None
    if fkey not in section or gkey not in section:
        raise ConfigError(f"constraints need both {fkey} and {gkey} for the {what} set")
    return Polytope(_matrix(section[fkey], fkey), _vector(section[gkey], gkey))


def parse_config(text):
    """Parse and validate a JSON experiment document into an ExperimentConfig.

    A key that its section does not read raises ConfigError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("top-level config must be an object")
    try:
        return _experiment(doc)
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing required key {exc.args[0]!r}")
    except (MpcError, ValueError, TypeError, AttributeError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}")


def _experiment(doc):
    _object(doc, "config", ("name", "model", "horizon", "weights", "constraints", "solver",
                            "reference", "initial_state"))
    try:
        model_sec = _object(doc["model"], "model")
        horizon = _object(doc["horizon"], "horizon", ("N", "N_T", "N_C"))
        weights = _object(doc["weights"], "weights", ("Q", "R", "Q_N"))
        x0 = _vector(doc["initial_state"], "initial_state")
    except KeyError as exc:
        raise ConfigError(f"missing required section {exc.args[0]!r}")

    kind = model_sec.get("kind")
    if kind == "pendulum":
        _object(model_sec, "model", ("kind",) + _PENDULUM_KEYS)
        model = pendulum_model(PendulumParams(**{
            key: _number(model_sec[key], key) for key in _PENDULUM_KEYS if key in model_sec}))
    elif kind in ("lti", "lti-as-nonlinear"):
        _object(model_sec, "model", ("kind", "A", "B"))
        model = LtiModel(_matrix(model_sec["A"], "A"), _matrix(model_sec["B"], "B"))
        if kind == "lti-as-nonlinear":
            model = lti_as_nonlinear(model)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    constraints = _object(doc.get("constraints", {}), "constraints",
                          ("F_x", "g_x", "F_u", "g_u", "terminal"))
    X_set = _polytope(constraints, "F_x", "g_x", "state")
    U_set = _polytope(constraints, "F_u", "g_u", "input")
    terminal = None
    if "terminal" in constraints:
        t = _object(constraints["terminal"], "constraints.terminal", ("F", "g"))
        terminal = Polytope(_matrix(t["F"], "terminal.F"), _vector(t["g"], "terminal.g"))

    solver = _object(doc.get("solver", {}), "solver",
                     ("formulation", "eps_abs", "eps_rel", "max_iter"))
    limits = {key: _number(solver[key], f"solver.{key}")
              for key in ("eps_abs", "eps_rel") if key in solver}
    if "max_iter" in solver:
        limits["max_iter"] = _integer(solver["max_iter"], "solver.max_iter")
    try:
        settings = SolverSettings(**limits)
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}")

    reference = doc.get("reference")
    x_r = None
    if reference is not None:
        x_r = _vector(_object(reference, "reference", ("x_r",))["x_r"], "x_r")
        if x_r.shape[0] != model.n:
            raise ConfigError(f"reference (x_r) has length {x_r.shape[0]}, expected {model.n}")

    Q, R = _matrix(weights["Q"], "Q"), _matrix(weights["R"], "R")
    # a Q or R that is not square is MpcConfig's to reject
    for key, M, dim, what in (("Q", Q, model.n, "states"), ("R", R, model.m, "inputs")):
        if M.shape[0] == M.shape[1] and M.shape[0] != dim:
            raise ConfigError(f"{key} is {M.shape[0]}x{M.shape[1]}, but the model has {dim} {what}")

    mpc = MpcConfig(
        N=_integer(horizon["N"], "horizon.N"),
        N_T=_integer(horizon["N_T"], "horizon.N_T"),
        N_C=_integer(horizon["N_C"], "horizon.N_C") if "N_C" in horizon else None,
        Q=Q,
        R=R,
        Q_N=_matrix(weights["Q_N"], "Q_N") if "Q_N" in weights else None,
        X_set=X_set,
        U_set=U_set,
        terminal_set=terminal,
        formulation=solver.get("formulation", "condensed"),
        settings=settings,
    )

    n = mpc.n
    if x0.shape[0] != n:
        raise ConfigError(f"initial_state has dimension {x0.shape[0]}, model has {n}")
    name = doc.get("name", "experiment")
    if not isinstance(name, str):
        raise ConfigError(f"name must be a JSON string, got {name!r}")
    return ExperimentConfig(model=model, mpc=mpc, initial_state=x0, name=name, reference=x_r)


def _fmt(x):
    return format(float(x), ".17g")


def write_csv(traj, n, m, path):
    """Write the trajectory in the documented CSV layout."""
    header = ["k"] + [f"x{i+1}" for i in range(n)] + [f"u{j+1}" for j in range(m)] \
        + ["J_star", "status", "iterations"]
    lines = [",".join(header)]
    steps = len(traj.inputs)
    for k in range(steps):
        cells = [str(k)]
        cells += [_fmt(v) for v in traj.states[k]]
        cells += [_fmt(v) for v in traj.inputs[k]]
        cells += [_fmt(traj.costs[k]), traj.statuses[k].value, str(traj.iterations[k])]
        lines.append(",".join(cells))
    if len(traj.states) > steps:
        cells = [str(steps)] + [_fmt(v) for v in traj.states[steps]]
        cells += [""] * m + ["", "", ""]
        lines.append(",".join(cells))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a trajectory CSV back into (states, inputs, costs) arrays."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    header = rows[0]
    n = sum(1 for h in header if h.startswith("x"))
    m = sum(1 for h in header if h.startswith("u"))
    states, inputs, costs = [], [], []
    for row in rows[1:]:
        states.append([float(v) for v in row[1:1 + n]])
        if row[1 + n] != "":
            inputs.append([float(v) for v in row[1 + n:1 + n + m]])
            costs.append(float(row[1 + n + m]))
    return np.array(states), np.array(inputs), np.array(costs)


def _check_writable(path):
    """Raise the OSError that writing path would raise, before a closed loop
    runs. A writable file or FIFO is not opened, so a file keeps its
    contents and a FIFO's reader its input; a file made to test the path is
    removed again."""
    if os.access(path, os.W_OK) and not os.path.isdir(path):
        return
    existed = os.path.lexists(path)     # a symbolic link to no file
    os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
    if not existed:
        os.remove(path)


def run_experiment(cfg, out_path=None):
    """Run the closed loop and return a summary dict; with out_path the CSV
    is written there, and a path that cannot be written raises OSError
    before the loop runs."""
    if out_path:
        _check_writable(out_path)
    model = cfg.model
    n = cfg.mpc.n
    m = cfg.mpc.m
    t0 = time.perf_counter()
    aborted_at = None
    try:
        traj = run_closed_loop(model, cfg.mpc, cfg.initial_state, cfg.reference)
    except InfeasibleStepError as err:
        traj = err.trajectory
        aborted_at = err.step
    wall = time.perf_counter() - t0
    if out_path:
        write_csv(traj, n, m, out_path)
    X = np.array(traj.states).reshape(-1, n)
    U = np.array(traj.inputs).reshape(-1, m)
    # no rows or no steps is no violation
    violation = max(float((P.F @ V.T - P.g[:, None]).max(initial=0.0))
                    for P, V in ((cfg.mpc.X_set, X), (cfg.mpc.U_set, U)))
    return {
        "name": cfg.name,
        "steps": len(traj.inputs),
        "final_state": traj.states[-1].tolist() if traj.states else None,
        "max_constraint_violation": violation,
        "total_cost": float(sum(traj.costs)),
        "total_iterations": int(sum(traj.iterations)),
        "non_optimal_steps": sum(s not in (QpStatus.OPTIMAL, NlpStatus.OPTIMAL)
                                 for s in traj.statuses),
        "wall_time_s": wall,
        "aborted_at": aborted_at,
        "trajectory": traj,
    }


def emit_plot(traj, out_path, X_set=None, U_set=None):
    """Write a static SVG: states vs. k on top, inputs vs. k below.

    Constraint bounds (axis-aligned rows of the sets) appear as dashed lines.
    """
    if not traj.states or not traj.inputs:
        raise ValueError("cannot plot an empty trajectory")
    X = np.array(traj.states)
    U = np.array(traj.inputs)
    width, height = 640, 480
    panel_h = 200
    margin = 50
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def bounds_of(P):
        # axis-aligned rows +/- e_i yield horizontal bound lines
        out = []
        if P is None:
            return out
        for row, gv in zip(P.F, P.g):
            nz = np.flatnonzero(row)
            if len(nz) == 1 and abs(abs(row[nz[0]]) - 1.0) < 1e-12:
                out.append(gv / row[nz[0]])
        return out

    def panel(series, y_top, title, bound_vals):
        k = np.arange(series.shape[0])
        lo = min(series.min(), min(bound_vals, default=series.min()))
        hi = max(series.max(), max(bound_vals, default=series.max()))
        if hi - lo < 1e-12:
            hi = lo + 1.0
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        x_of = lambda kk: margin + (width - 2 * margin) * (kk / max(len(k) - 1, 1))
        y_of = lambda v: y_top + panel_h - panel_h * ((v - lo) / (hi - lo))
        parts = [f'<text x="{margin}" y="{y_top - 8}" font-size="13">{title}</text>',
                 f'<rect x="{margin}" y="{y_top}" width="{width - 2 * margin}" '
                 f'height="{panel_h}" fill="none" stroke="#888"/>']
        for b in bound_vals:
            yb = y_of(b)
            parts.append(f'<line x1="{margin}" y1="{yb:.2f}" x2="{width - margin}" '
                         f'y2="{yb:.2f}" stroke="#555" stroke-dasharray="6,4"/>')
        for j in range(series.shape[1]):
            pts = " ".join(f"{x_of(kk):.2f},{y_of(series[kk, j]):.2f}" for kk in k)
            color = palette[j % len(palette)]
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        return parts

    body = ['<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']
    body += panel(X, 30, "states", bounds_of(X_set))
    body += panel(U, 30 + panel_h + 50, "inputs", bounds_of(U_set))
    body.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(body) + "\n")


# ---------------------------------------------------------------------------
# Bundled demos: LTI and pendulum closed loops, stabilization and tracking.

_LTI_DEMO_MODEL = {"kind": "lti", "A": [[0.9, 0.2], [-0.4, 0.8]], "B": [[0.1], [0.01]]}
_LTI_DEMO_CONSTRAINTS = {
    "F_x": [[1, 0], [0, 1], [-1, 0], [0, -1]], "g_x": [10, 10, 10, 10],
    "F_u": [[1], [-1]], "g_u": [1, 1],
}
_PENDULUM_MODEL = {"kind": "pendulum", "M": 1.0, "B_fric": 1.0, "l": 1.0,
                   "g_grav": 9.8, "T": 0.1}
_PENDULUM_CONSTRAINTS = {
    "F_x": [[1, 0], [0, 1], [-1, 0], [0, -1]], "g_x": [5, 5, 5, 5],
    "F_u": [[1], [-1]], "g_u": [0.1, 0.0],
}

DEMOS = {
    "lmpc-stabilize": {
        "name": "lmpc-stabilize",
        "model": _LTI_DEMO_MODEL,
        "horizon": {"N": 5, "N_T": 50},
        "weights": {"Q": [[1, 0], [0, 1]], "R": [[1]]},
        "constraints": _LTI_DEMO_CONSTRAINTS,
        "initial_state": [10, 5],
    },
    # N_T = 60: the tracking error decays by ~0.875 per step and needs a few
    # extra instants beyond 50 to land within 1e-2 of the set point.
    "lmpc-track": {
        "name": "lmpc-track",
        "model": _LTI_DEMO_MODEL,
        "horizon": {"N": 5, "N_T": 60},
        "weights": {"Q": [[1, 0], [0, 1]], "R": [[1]]},
        "constraints": _LTI_DEMO_CONSTRAINTS,
        "reference": {"x_r": [3, 2]},
        "initial_state": [10, 5],
    },
    "nmpc-stabilize": {
        "name": "nmpc-stabilize",
        "model": _PENDULUM_MODEL,
        "horizon": {"N": 5, "N_T": 50},
        "weights": {"Q": [[1, 0], [0, 1]], "R": [[1]]},
        "constraints": _PENDULUM_CONSTRAINTS,
        "initial_state": [2, 1],
    },
    # Input ceiling raised to 5 so the steady torque 4.69 is admissible; the
    # pendulum needs a longer run and horizon to settle on the set point.
    "nmpc-track": {
        "name": "nmpc-track",
        "model": _PENDULUM_MODEL,
        "horizon": {"N": 10, "N_T": 200},
        "weights": {"Q": [[1, 0], [0, 1]], "R": [[1]]},
        "constraints": dict(_PENDULUM_CONSTRAINTS, g_u=[5, 0.0]),
        "reference": {"x_r": [0.5, 0]},
        "initial_state": [2, 1],
    },
}


def demo_config(name):
    if name not in DEMOS:
        raise ConfigError(f"unknown demo {name!r}; choose from {sorted(DEMOS)}")
    return parse_config(json.dumps(DEMOS[name]))


def _check_feasibility(cfg, state):
    """Print the phase-I verdict on the comma-separated state for an LTI
    config; returns EXIT_SOLVER when the verdict is not conclusive."""
    if not isinstance(cfg.model, LtiModel):
        raise ConfigError("check-feasibility supports LTI models only")
    try:
        x = [float(v) for v in state.split(",")]
    except ValueError:
        raise ConfigError("--state must be a numeric array")
    x = _vector(x, "--state")
    if x.shape[0] != cfg.mpc.n:
        raise ConfigError(f"--state has dimension {x.shape[0]}, model has {cfg.mpc.n}")
    report = is_state_feasible(cfg.model, cfg.mpc, x)
    print(f"feasible: {report.feasible}")
    print(f"phase1_slack: {report.phase1_slack}")
    if report.status is not None:
        print(f"phase1_status: {report.status}")
    if report.witness is not None:
        print(f"witness: {report.witness.ravel().tolist()}")
    if report.certificate is not None:
        print(f"certificate: {report.certificate.tolist()}")
    if not report.conclusive:
        print(f"solver failure: the phase-I verdict is not conclusive ({report.status})",
              file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


# arithmetic that overflows, on numbers a config may hold (say 1e308 in F_x),
# raises FloatingPointError, a solver failure, rather than warning and going on
@np.errstate(over="raise", invalid="raise", divide="raise")
def main(argv=None):
    parser = argparse.ArgumentParser(prog="mpc", description="MPC experiment harness")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="trajectory CSV path")
    p_run.add_argument("--plot", default=None, help="SVG plot path")

    p_demo = sub.add_parser("demo", help="run a bundled demo")
    p_demo.add_argument("which", choices=sorted(DEMOS))
    p_demo.add_argument("--out", default=None)
    p_demo.add_argument("--plot", default=None)

    p_feas = sub.add_parser("check-feasibility",
                            help="phase-I feasibility of a state for a config")
    p_feas.add_argument("--config", required=True)
    p_feas.add_argument("--state", required=True,
                        help="comma-separated state vector")

    args = parser.parse_args(argv)

    try:
        if args.command == "demo":
            cfg = demo_config(args.which)
        else:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        if args.command == "check-feasibility":
            return _check_feasibility(cfg, args.state)
        if args.plot:
            _check_writable(args.plot)
        summary = run_experiment(cfg, out_path=args.out)
        traj = summary.pop("trajectory")
        for key, value in summary.items():
            print(f"{key}: {value}")
        if args.plot:
            if traj.inputs:
                emit_plot(traj, args.plot, X_set=cfg.mpc.X_set, U_set=cfg.mpc.U_set)
            else:
                print("empty trajectory, no plot written", file=sys.stderr)
    # a reference outside X_set or U_set is found before any solve
    except (OSError, ConfigError, ReferenceInfeasibleError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MpcError, FloatingPointError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if summary["aborted_at"] is not None:
        return EXIT_INFEASIBLE
    if summary["non_optimal_steps"]:
        print(f"solver failure: {summary['non_optimal_steps']} of {summary['steps']} "
              "steps applied the input of a non-optimal solve", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
