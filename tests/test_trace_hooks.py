"""The traced benchmark (bench/spans.py) patches mpckit module attributes by
name; a module that stops importing one of them must fail here rather than
in a traced benchmark run."""

import argparse
import dataclasses
import json
import os
import sys

from mpckit import cli, controller, feasibility, nlp_solver, qp_solver
from test_cli import SMALL_CONFIG

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
from spans import Tracer  # noqa: E402

MODS = argparse.Namespace(controller=controller, nlp_solver=nlp_solver,
                          qp_solver=qp_solver, feasibility=feasibility, cli=cli)


def test_tracer_installs_and_restores():
    lmpc = cli.parse_config(json.dumps(SMALL_CONFIG))
    nmpc = cli.parse_config(json.dumps(dict(SMALL_CONFIG, model=dict(
        SMALL_CONFIG["model"], kind="lti-as-nonlinear"))))
    sparse = cli.parse_config(json.dumps(dict(SMALL_CONFIG, solver={"formulation": "sparse"})))
    before = {name: dict(vars(mod)) for name, mod in vars(MODS).items()}
    with Tracer(MODS) as tracer:
        cli.run_experiment(lmpc)
        cli.run_experiment(nmpc)
        feasibility.is_state_feasible(lmpc.model, lmpc.mpc, lmpc.initial_state)
        tracer.episode = 1
        cli.run_experiment(sparse)
    names = {sp.name for sp in tracer.spans}
    assert {"controller.lmpc_step", "controller.nmpc_step", "qp_solver.solve_qp",
            "nlp_solver.solve_nlp", "condense.assemble", "condense.build",
            "qp_solver.lu_factor"} <= names
    # each sparse-form step assembles its QP through controller's name, or
    # the benchmark's condense.assemble_ms reads 0 on lmpc-sparse
    sparse_spans = [sp for sp in tracer.spans if sp.episode == 1]
    steps = {sp.id for sp in sparse_spans if sp.name == "controller.lmpc_step"}
    assembled = [sp.parent for sp in sparse_spans if sp.name == "condense.assemble"]
    assert len(steps) == sparse.mpc.N_T and sorted(assembled) == sorted(steps)
    for name, mod in vars(MODS).items():
        for attr, value in before[name].items():
            assert getattr(mod, attr) is value, f"{name}.{attr} not restored"


def test_tracking_records_steady_state():
    """tracking_transform must reach the steady-state solvers through
    controller's names, or the benchmark's model.steady_state_ms reads 0."""
    lti = cli.parse_config(json.dumps(dict(SMALL_CONFIG, reference={"x_r": [3, 2]})))
    pendulum = cli.parse_config(json.dumps(dict(cli.DEMOS["nmpc-track"],
                                                horizon={"N": 3, "N_T": 3})))
    with Tracer(MODS) as tracer:
        pendulum.model = tracer.wrap_model(pendulum.model)
        for exp in (lti, pendulum):
            tracer.episode += 1
            cli.run_experiment(exp)
    steady = [sp.episode for sp in tracer.spans if sp.name == "model.steady_state"]
    assert steady == [0, 1]
    assert any(sp.leaf_calls("model.step") for sp in tracer.spans if sp.episode == 1)


def test_derivative_free_jacobian_is_traced():
    """A model without jac_x/jac_u gets its Jacobian from build_feq_jacobian,
    so the benchmark's nlp_solver.jacobian_ms holds the finite differences."""
    exp = cli.parse_config(json.dumps(dict(cli.DEMOS["nmpc-stabilize"],
                                           horizon={"N": 4, "N_T": 4})))
    exp.model = dataclasses.replace(exp.model, jac_x=None, jac_u=None)
    with Tracer(MODS) as tracer:
        exp.model = tracer.wrap_model(exp.model)
        cli.run_experiment(exp)
    names = [sp.name for sp in tracer.spans]
    assert "nlp_solver.jacobian" in names
    assert "numerics.finite_diff_jacobian" not in names
    assert all(sp.leaf_calls("model.step") for sp in tracer.spans
               if sp.name == "nlp_solver.jacobian")
