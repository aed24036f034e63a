"""Print how much of an LMPC closed loop's step time its first step takes.

    python3 scripts/first_step.py

Run from the repository root; mpckit is imported from ./src and the
episodes from bench/workloads.py, as scripts/seed_hashes.py does. For each
LMPC form, seed-1 episodes 0-15 run through cli.parse_config and
cli.run_experiment, PASSES times over. Every controller.lmpc_step call is
timed, and a loop's first step, the one that builds the loop's blocks and
QP workspace, is told apart from its later steps. Each line gives the
median first-step time, the median later-step time and the first steps'
share of all step time. The sparse form's line adds, from episode 0's loop
workspace, the rows of the polish system's equality block K_eq and the
L + U non-zeros of its sparse LU factor, and, after the loop, how many of
its F rows have a kept K_eq column: each is one column solve the loop made.
These counts do not depend on the host; they are printed next to the wall
times.

The times are wall times of one process on the host it runs on, with one
BLAS thread; they are for comparing two trees on one host, not constants.
"""

import os

# One BLAS thread, set before numpy is first imported, as bench/run.py does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json
import sys
from time import perf_counter

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from mpckit import cli, controller  # noqa: E402

SEED = 1
EPISODES = 16
PASSES = 2
FORMS = ("sparse", "condensed")


def step_times(form):
    """(first-step times, later-step times) in ms over the form's episodes,
    and the QP workspace of episode 0's loop."""
    first, later, loops = [], [], []
    step = controller.lmpc_step

    def timed(model, cfg, x_k, warm=None, _ws=None):
        is_first = _ws is None or _ws.blocks is None
        t0 = perf_counter()
        out = step(model, cfg, x_k, warm=warm, _ws=_ws)
        (first if is_first else later).append(1e3 * (perf_counter() - t0))
        if is_first and not loops:
            loops.append(_ws.qp)
        return out

    controller.lmpc_step = timed
    try:
        for _ in range(PASSES):
            for i in range(EPISODES):
                spec = workloads.lmpc_episode(SEED, i, form)
                cli.run_experiment(cli.parse_config(json.dumps(spec["doc"])))
    finally:
        controller.lmpc_step = step
    return np.array(first), np.array(later), loops[0]


def main():
    for form in FORMS:
        first, later, qp = step_times(form)
        share = first.sum() / (first.sum() + later.sum())
        fill = (f"; episode 0's K_eq: {qp.keq.shape[0]} rows, L + U {qp.keq.lu.nnz} non-zeros, "
                f"{len(qp.keq_cols)} of {qp.F.shape[0]} F rows' columns kept"
                if form == "sparse" else "")
        print(f"{form} seed-1 episodes 0-{EPISODES - 1} x {PASSES}: "
              f"first step {np.median(first):.3f} ms (median of {first.size}), "
              f"later steps {np.median(later):.3f} ms (median of {later.size}), "
              f"first steps' share of step time {100 * share:.0f}%{fill}")


if __name__ == "__main__":
    main()
