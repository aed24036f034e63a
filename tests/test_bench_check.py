"""The benchmark's correctness gate (bench/check.py) evaluates mpckit's
multipliers through kkt_residuals; a change to the layout of
QpSolution.duals must fail here rather than in a benchmark run."""

import argparse
import json
import os
import sys

import numpy as np
import pytest

from mpckit import cli, lmpc_step, qp_solver
from test_cli import SMALL_CONFIG

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import check  # noqa: E402


@pytest.mark.parametrize("formulation", ["condensed", "sparse"])
def test_lmpc_step_passes_gate(formulation):
    doc = dict(SMALL_CONFIG, solver={"formulation": formulation})
    cfg = cli.parse_config(json.dumps(doc))
    x_k = np.asarray(doc["initial_state"], float)
    step = lmpc_step(cfg.model, cfg.mpc, x_k)
    verdict = check.check_lmpc(argparse.Namespace(qp_solver=qp_solver), doc, x_k, step)
    assert verdict is not None and not verdict["wrong"], verdict
