"""Print sha256 prefixes of the seed-1 benchmark episodes' closed loops.

    python3 scripts/seed_hashes.py

Run from the repository root; mpckit is imported from ./src and the
episodes from bench/workloads.py, as bench/run.py builds them. Each line
hashes one episode family: LMPC episodes 0-15 in the condensed and in the
sparse form, and pendulum episodes 0-23, every third with its analytic
Jacobian withheld. Each episode runs through cli.parse_config and
cli.run_experiment; its states, then its inputs, as float64 arrays in C
order, feed one sha256 per family, episode by episode. Each LMPC family
adds a line that hashes every step's QpSolution: its z_star, its duals
and its objective, step by step, episode by episode. A solution carries
what the applied states and inputs do not: the multipliers and the
unapplied part of the predicted trajectory.

The bits depend on the host's BLAS build, so a hash is a check of one host
against itself (before and after a change), not a portable constant. They
depend on BLAS's thread count as well: the script pins one thread, as
bench/run.py does, and with two threads the sparse form hashes otherwise.
"""

import os

# One BLAS thread, set before numpy is first imported, as bench/run.py does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import dataclasses
import hashlib
import json
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from mpckit import cli, controller  # noqa: E402

SEED = 1
LMPC_EPISODES = 16
PEND_EPISODES = 24


def trajectory(spec):
    """(states, inputs) of one episode as float64 arrays."""
    cfg = cli.parse_config(json.dumps(spec["doc"]))
    if spec["fd"]:
        cfg.model = dataclasses.replace(cfg.model, jac_x=None, jac_u=None)
    traj = cli.run_experiment(cfg)["trajectory"]
    return (np.array(traj.states, dtype=np.float64),
            np.array(traj.inputs, dtype=np.float64))


def family_hashes(specs):
    """The sha256 of the family's states and inputs, and that of its steps'
    QpSolutions (z_star, duals, objective) from every controller.lmpc_step
    call; the second hashes nothing for a pendulum family."""
    h, solutions = hashlib.sha256(), hashlib.sha256()
    step = controller.lmpc_step

    def hashed(model, cfg, x_k, warm=None, _ws=None):
        out = step(model, cfg, x_k, warm=warm, _ws=_ws)
        sol = out.solution
        for arr in (sol.z_star, sol.duals, np.float64(sol.objective)):
            solutions.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return out

    controller.lmpc_step = hashed
    try:
        for spec in specs:
            for arr in trajectory(spec):
                h.update(np.ascontiguousarray(arr).tobytes())
    finally:
        controller.lmpc_step = step
    return h.hexdigest(), solutions.hexdigest()


def main():
    families = {
        "condensed": [workloads.lmpc_episode(SEED, i, "condensed")
                      for i in range(LMPC_EPISODES)],
        "sparse": [workloads.lmpc_episode(SEED, i, "sparse")
                   for i in range(LMPC_EPISODES)],
        "pendulum": [workloads.pendulum_episode(SEED, i) for i in range(PEND_EPISODES)],
    }
    for name, specs in families.items():
        states, solutions = family_hashes(specs)
        print(f"{name} seed-1 episodes 0-{len(specs) - 1}: sha256 {states[:8]}")
        if name != "pendulum":
            print(f"{name} seed-1 episodes 0-{len(specs) - 1} QP solutions: "
                  f"sha256 {solutions[:8]}")


if __name__ == "__main__":
    main()
