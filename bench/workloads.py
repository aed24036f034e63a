"""Seeded workload inputs.

Every input is a plain JSON experiment document (plus, for the pendulum,
whether the model's analytic Jacobian is withheld) or a state vector, drawn
from ``numpy.random.default_rng([seed, stream, index])`` so that the same
seed always yields the same inputs and the k-th input does not depend on how
many inputs a run consumed before it.

Runs repeat whole cycles of work, so that every run of a workload does
the same mix: an LMPC cycle is one episode on each system of a fixed pool,
a scan cycle is one pass over a fixed set of states. The seed draws the
initial states and the order of the scan. The scanned states themselves are
fixed: shifting them by a tenth of a grid cell changed a pass's phase-I
time by up to 2x, since iteration counts are very sensitive to how close a
state lies to a degenerate one.
Per-op cost varies widely between systems (the number of warm steps that
refactorize has a coefficient of variation of about 0.6 across systems)
and across scanned states (from 100 to 20 000 ADMM iterations), and a run
holds only 8 to 30 episodes or a few hundred checks: drawn afresh per
seed, they would make the seed-to-seed spread a property of the draw.
"""

import numpy as np

LMPC_N, LMPC_M, LMPC_H = 12, 4, 20   # states, inputs, prediction horizon
LMPC_STEPS = 20                      # closed-loop steps per episode (N_T)
LMPC_POOL = 4                        # systems in the LMPC pool (one cycle)
POOL_SEED = 0
PEND_H = 10
PEND_STEPS = 30
PEND_CYCLE = 6                       # stabilize/track x analytic/finite-difference

# The bundled two-state demo system (README) used by the feasibility scan.
DEMO_A = [[0.9, 0.2], [-0.4, 0.8]]
DEMO_B = [[0.1], [0.01]]
DEMO_X_BOX, DEMO_U_BOX, DEMO_H = 10.0, 1.0, 5
SCAN_N, SCAN_M, SCAN_H = 4, 2, 4     # the seeded four-state system
SCAN_X_BOX, SCAN_U_BOX = 5.0, 1.0
SCAN_MARGIN = 1.1                    # states are drawn from 1.1 x the state box
# demo states: cell centres of an 11 x 11 grid over the enlarged box, shifted
# by a quarter cell, since unshifted the outer ring lies on the faces of the
# state box, where the phase-I verdict is degenerate and cannot be judged
SCAN_GRID = 11
SCAN_SHIFT = 0.25
SCAN_SYS_STATES = 16  # four-state system states: a fixed Latin hypercube


def rng(seed, stream, index):
    return np.random.default_rng([seed, stream, index])


def box(dim, bound):
    return np.vstack([np.eye(dim), -np.eye(dim)]).tolist(), [bound] * (2 * dim)


def lti_doc(A, B, N, N_T, x0, x_box, u_box, R=1.0, formulation="condensed"):
    n, m = len(A), len(B[0])
    F_x, g_x = box(n, x_box)
    F_u, g_u = box(m, u_box)
    return {
        "model": {"kind": "lti", "A": A, "B": B},
        "horizon": {"N": N, "N_T": N_T},
        "weights": {"Q": np.eye(n).tolist(), "R": (R * np.eye(m)).tolist()},
        "constraints": {"F_x": F_x, "g_x": g_x, "F_u": F_u, "g_u": g_u},
        "solver": {"formulation": formulation},
        "initial_state": list(x0),
    }


def random_lti(r, n, m, radius_lo, radius_hi):
    """A with spectral radius drawn from [radius_lo, radius_hi], B ~ N(0, 1/n)."""
    A = r.standard_normal((n, n))
    A *= r.uniform(radius_lo, radius_hi) / np.abs(np.linalg.eigvals(A)).max()
    B = r.standard_normal((n, m)) / np.sqrt(n)
    return A.tolist(), B.tolist()


def lmpc_episode(seed, i, formulation):
    """Episode i: a pool system, (n, m, N) = (12, 4, 20) near marginal
    stability with |x| <= 10, |u| <= 1, from a random initial state.

    The initial state is drawn from the box |x| <= 4 and scaled down where
    needed so that the free response (u = 0) stays within 90% of the state
    box over the horizon; the first step's problem is then feasible. From
    infeasible initial states mpckit finds no infeasibility certificate:
    each step runs to the 20 000-iteration cap (10 to 25 s) and its input is
    applied anyway, which does not fit in a timed run.

    The system and initial state do not depend on the formulation, so the
    condensed and sparse workloads see the same problems.
    """
    A, B = random_lti(rng(POOL_SEED, 1, i % LMPC_POOL), LMPC_N, LMPC_M, 0.95, 1.02)
    d = 4.0 * rng(seed, 1, i).uniform(-1.0, 1.0, LMPC_N)
    peak, v = 0.0, d
    for _ in range(LMPC_H):
        v = np.asarray(A) @ v
        peak = max(peak, float(np.abs(v).max()))
    x0 = (d * min(1.0, 0.9 * 10.0 / peak)).tolist()
    doc = lti_doc(A, B, LMPC_H, LMPC_STEPS, x0, 10.0, 1.0, R=0.1,
                  formulation=formulation)
    return {"doc": doc, "fd": False}


PEND_PARAMS = {"M": 1.0, "B_fric": 1.0, "l": 1.0, "g_grav": 9.8, "T": 0.1}


def pendulum_episode(seed, i):
    """Episode i alternates stabilize and track; every third withholds the
    analytic Jacobian, so a cycle of PEND_CYCLE episodes has each mix.

    Initial states are drawn from |x| <= 1. From larger initial angles
    (|x1| around 1.6 and above) single SQP steps were seen to take 2 to 20 s,
    longer than a whole run, so they are outside this workload.
    """
    r = rng(seed, 2, i)
    track = i % 2 == 1
    x0 = r.uniform(-1.0, 1.0, 2).tolist()
    doc = {
        "model": dict(kind="pendulum", **PEND_PARAMS),
        "horizon": {"N": PEND_H, "N_T": PEND_STEPS},
        "weights": {"Q": [[1, 0], [0, 1]], "R": [[1]]},
        # the bundled demos' limits: 0 <= u <= 0.1 to stabilize, 0 <= u <= 5 to track
        "constraints": {"F_x": [[1, 0], [0, 1], [-1, 0], [0, -1]], "g_x": [5, 5, 5, 5],
                        "F_u": [[1], [-1]], "g_u": [5.0 if track else 0.1, 0.0]},
        "initial_state": x0,
    }
    if track:
        # the steady torque M l g sin(x_r1) stays below the 5.0 ceiling
        doc["reference"] = {"x_r": [float(r.uniform(0.1, 0.5)), 0.0]}
    return {"doc": doc, "fd": i % 3 == 2}


def scan_cycle(seed):
    """One pass of the feasibility scan: [(doc, states), ...] for the demo
    system (a shifted grid over 1.1 x its state box) and a fixed
    four-state system (a Latin hypercube over 1.1 x its box), in an order
    drawn from the seed."""
    r = rng(seed, 3, 0)
    demo = lti_doc(DEMO_A, DEMO_B, DEMO_H, DEMO_H, [0.0, 0.0], DEMO_X_BOX, DEMO_U_BOX)
    g = SCAN_GRID
    cells = np.array([(a, b) for a in range(g) for b in range(g)], float)
    demo_states = (-1.0 + 2.0 * (cells + 0.5 + SCAN_SHIFT) / g) * SCAN_MARGIN * DEMO_X_BOX
    fixed = rng(POOL_SEED, 3, 0)
    A, B = random_lti(fixed, SCAN_N, SCAN_M, 0.9, 1.0)
    sys4 = lti_doc(A, B, SCAN_H, SCAN_H, [0.0] * SCAN_N, SCAN_X_BOX, SCAN_U_BOX)
    k = SCAN_SYS_STATES
    strata = np.stack([fixed.permutation(k) for _ in range(SCAN_N)], axis=1)
    sys_states = (-1.0 + 2.0 * (strata + 0.5) / k) * SCAN_MARGIN * SCAN_X_BOX
    return [(demo, demo_states[r.permutation(len(demo_states))]),
            (sys4, sys_states[r.permutation(k)])]
