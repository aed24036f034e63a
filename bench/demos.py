"""Demo readout: wall time and solver work of the four bundled demos.

    python3 bench/demos.py

Run from the repository root. Prints one Markdown table row per demo: the
median closed-loop wall time of REPEATS untraced runs, and the QP solves, LU
factorizations and LU solves counted in one traced run. Informational only;
nothing here is gated.
"""

import os
import statistics

import run
from spans import Tracer

DEMO_NAMES = ("lmpc-stabilize", "lmpc-track", "nmpc-stabilize", "nmpc-track")
REPEATS = 5    # the ROADMAP baseline table gives medians of 5 runs


def main():
    mods, _ = run.load_mpckit(os.getcwd())
    cli = mods.cli
    print("| demo | steps | median wall | min-max wall | QP solves | LU factor | LU solves |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name in DEMO_NAMES:
        walls = []
        for _ in range(REPEATS):
            summary = cli.run_experiment(cli.demo_config(name))
            walls.append(summary["wall_time_s"])
        tracer = Tracer(mods)
        with tracer:
            cli.run_experiment(cli.demo_config(name))
        spans = tracer.spans
        qp = sum(s.name == "qp_solver.solve_qp" for s in spans)
        factors = sum(s.name == "qp_solver.lu_factor" for s in spans)
        solves = sum(s.leaf_calls("qp_solver.lu_solve") for s in spans)
        print(f"| {name} | {summary['steps']} | {1e3 * statistics.median(walls):.0f} ms "
              f"| {1e3 * min(walls):.0f}-{1e3 * max(walls):.0f} ms "
              f"| {qp} | {factors} | {solves:,} |")


if __name__ == "__main__":
    main()
