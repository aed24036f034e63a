import json
import os
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from mpckit import (InfeasibleStepError, InvalidHorizonError,
                    InvalidWeightError, MpcConfig, NonFiniteError, ReferenceInfeasibleError,
                    ShapeError, SolverSettings, Trajectory, is_control_sequence_feasible,
                    is_state_feasible, lmpc_step, lti_as_nonlinear, nmpc_step,
                    persistent_feasibility_check, run_closed_loop, tracking_transform)
from mpckit import cli, controller, nlp_solver, qp_solver
from mpckit.condense import (build_prediction, build_weights, condensed_blocks,
                             stack_constraints)
from mpckit.model import (LtiModel, NonlinearModel, PendulumParams, Polytope,
                          box_polytope, lti_step, pendulum_model, pendulum_step,
                          polytope_contains)
from mpckit.numerics import finite_diff_jacobian

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import workloads  # noqa: E402


def _scalar_cfg(**kw):
    args = dict(N=1, N_T=3, Q=[[1.0]], R=[[1.0]])
    args.update(kw)
    return MpcConfig(**args)


def _demo_cfg(lti_demo_sets, **kw):
    X_set, U_set = lti_demo_sets
    args = dict(N=5, N_T=50, Q=np.eye(2), R=[[1.0]], X_set=X_set, U_set=U_set)
    args.update(kw)
    return MpcConfig(**args)


class TestMpcConfig:
    def test_defaults(self):
        with pytest.warns(UserWarning):
            cfg = _scalar_cfg()
        assert cfg.N_C == cfg.N
        assert np.allclose(cfg.Q_N, cfg.Q)

    def test_horizon_one_warns(self):
        with pytest.warns(UserWarning):
            MpcConfig(N=1, N_T=5, Q=[[1.0]], R=[[1.0]])

    def test_n_exceeding_nt_rejected(self):
        with pytest.raises(InvalidHorizonError):
            MpcConfig(N=6, N_T=5, Q=[[1.0]], R=[[1.0]])

    def test_control_horizon_bounds(self):
        for N_C in (0, 4):
            with pytest.raises(InvalidHorizonError):
                MpcConfig(N=3, N_T=5, N_C=N_C, Q=[[1.0]], R=[[1.0]])

    def test_r_must_be_positive_definite(self):
        with pytest.raises(InvalidWeightError):
            MpcConfig(N=2, N_T=5, Q=[[1.0]], R=[[0.0]])

    def test_semidefinite_q_warns(self):
        with pytest.warns(UserWarning):
            MpcConfig(N=2, N_T=5, Q=[[0.0]], R=[[1.0]])

    def test_indefinite_q_rejected(self):
        with pytest.raises(InvalidWeightError):
            MpcConfig(N=2, N_T=5, Q=[[-1.0]], R=[[1.0]])
        with pytest.raises(InvalidWeightError):
            MpcConfig(N=2, N_T=5, Q=[[1.0]], R=[[1.0]], Q_N=[[-10.0]])
        # Q_N has the same tolerance as Q: tiny negative round-off is accepted
        MpcConfig(N=2, N_T=5, Q=[[1.0]], R=[[1.0]], Q_N=[[-1e-11]])

    def test_non_square_weights_rejected(self):
        with pytest.raises(InvalidWeightError, match=r"Q must be square, got \(1, 2\)"):
            MpcConfig(N=2, N_T=5, Q=[[1.0, 0.0]], R=[[1.0]])
        with pytest.raises(InvalidWeightError, match=r"R must be square, got \(1, 2\)"):
            MpcConfig(N=2, N_T=5, Q=np.eye(2), R=[[1.0, 0.0]])

    def test_unknown_formulation(self):
        with pytest.raises(ValueError):
            MpcConfig(N=2, N_T=5, Q=[[1.0]], R=[[1.0]], formulation="dense")

    def test_terminal_weight_shape_checked(self):
        with pytest.raises(InvalidWeightError, match=r"Q_N shape \(1, 1\) != Q shape \(2, 2\)"):
            MpcConfig(N=2, N_T=5, Q=np.eye(2), R=[[1.0]], Q_N=[[1.0]])


class TestLmpcStep:
    def test_scalar_hand_optimum(self):
        model = LtiModel([[1.0]], [[1.0]])
        with pytest.warns(UserWarning):
            cfg = _scalar_cfg()
        step = lmpc_step(model, cfg, [1.0])
        assert abs(step.u_k[0] + 0.5) < 1e-6
        assert abs(step.J_star - 1.5) < 1e-6

    def test_scalar_clipped_by_input_box(self):
        model = LtiModel([[1.0]], [[1.0]])
        with pytest.warns(UserWarning):
            cfg = _scalar_cfg(U_set=box_polytope(0.3))
        step = lmpc_step(model, cfg, [1.0])
        assert abs(step.u_k[0] + 0.3) < 1e-6

    def test_origin_is_fixed(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        step = lmpc_step(lti_demo_model, cfg, [0.0, 0.0])
        assert np.abs(step.u_k).max() < 1e-6
        assert abs(step.J_star) < 1e-8

    def test_first_block_identity(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        step = lmpc_step(lti_demo_model, cfg, [10.0, 5.0])
        assert np.allclose(step.u_k, step.U_star[0])
        assert step.X_star.shape == (6, 2)

    def test_sparse_matches_condensed(self, lti_demo_model, lti_demo_sets):
        tight = SolverSettings(eps_abs=1e-8, eps_rel=1e-8)
        cond = _demo_cfg(lti_demo_sets, settings=tight)
        sparse = _demo_cfg(lti_demo_sets, formulation="sparse", settings=tight)
        for x in ([10.0, 5.0], [-3.0, 7.0], [0.5, -0.5]):
            u_c = lmpc_step(lti_demo_model, cond, x).u_k
            u_s = lmpc_step(lti_demo_model, sparse, x).u_k
            assert np.abs(u_c - u_s).max() < 1e-5

    @pytest.mark.parametrize("N_C", [1, 2, 3])
    def test_sparse_matches_condensed_control_horizon(self, lti_demo_model,
                                                      lti_demo_sets, N_C):
        tight = SolverSettings(eps_abs=1e-8, eps_rel=1e-8)
        cond = lmpc_step(lti_demo_model, _demo_cfg(lti_demo_sets, N_C=N_C, settings=tight),
                         [5.0, 2.0])
        sparse = lmpc_step(lti_demo_model, _demo_cfg(lti_demo_sets, N_C=N_C, settings=tight,
                                                     formulation="sparse"), [5.0, 2.0])
        assert np.abs(sparse.U_star[N_C:]).max() == 0.0
        assert np.abs(sparse.U_star - cond.U_star).max() < 1e-5
        assert np.abs(sparse.X_star - cond.X_star).max() < 1e-5
        assert abs(sparse.J_star - cond.J_star) < 1e-5 * abs(cond.J_star)

    def test_infeasible_state_raises(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        with pytest.raises(InfeasibleStepError):
            lmpc_step(lti_demo_model, cfg, [20.0, 0.0])

    @staticmethod
    def _pool_at(form, i, scale, **solver):
        """The experiment document of benchmark pool system i at scale times
        its seed-1 initial state, clipped to 9.9 inside the state box
        |x| <= 10, with the solver settings given, and its config."""
        doc = workloads.lmpc_episode(1, i, form)["doc"]
        doc["initial_state"] = np.clip(scale * np.array(doc["initial_state"]), -9.9, 9.9).tolist()
        doc["solver"].update(solver)
        return doc, cli.parse_config(json.dumps(doc))

    @classmethod
    def _certified_pool_state(cls, form, i):
        """_pool_at at 3x the seed-1 state, or 10x for system 4, whose 3x
        state phase-I finds feasible, after checking that phase-I certifies
        that state infeasible."""
        doc, cfg = cls._pool_at(form, i, 10.0 if i == 4 else 3.0)
        report = is_state_feasible(cfg.model, cfg.mpc, cfg.initial_state)
        assert report.conclusive and not report.feasible and report.certificate is not None
        return doc, cfg

    @staticmethod
    def _recorded_solves(monkeypatch):
        """Record each (QpProblem, QpSolution) of lmpc_step's solve_qp calls."""
        calls, solve = [], controller.solve_qp

        def recording(p, *args, **kw):
            calls.append((p, solve(p, *args, **kw)))
            return calls[-1][1]

        monkeypatch.setattr(controller, "solve_qp", recording)
        return calls

    @pytest.mark.parametrize("form, i", [(form, i) for form in ("condensed", "sparse")
                                         for i in range(8)])
    def test_certified_infeasible_state_raises(self, tmp_path, monkeypatch, form, i):
        # a benchmark pool system at a state phase-I certifies infeasible,
        # run through mpc run: the first step's QP ends infeasible too, proven
        # by the LP on its own rows before any ADMM iteration, and the step
        # raises InfeasibleStepError with that certificate
        doc, cfg = self._certified_pool_state(form, i)
        calls, errors, run = self._recorded_solves(monkeypatch), [], cli.run_closed_loop

        def recording_run(*args):
            try:
                return run(*args)
            except InfeasibleStepError as err:
                errors.append(err)
                raise

        monkeypatch.setattr(cli, "run_closed_loop", recording_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_INFEASIBLE
        (_, sol), = calls
        (err,) = errors
        assert (sol.status, sol.iterations) == (qp_solver.QpStatus.INFEASIBLE, 0)
        assert err.step == 0 and err.certificate is sol.duals

    def test_certified_infeasible_sparse_pool_system_3(self, monkeypatch):
        # the state whose step ADMM's certificate never ended: the certificate
        # the step raises with proves, by this test's own arithmetic, that
        # the step's QP has no solution (Farkas)
        _, cfg = self._certified_pool_state("sparse", 3)
        calls = self._recorded_solves(monkeypatch)
        with pytest.raises(InfeasibleStepError) as err:
            lmpc_step(cfg.model, cfg.mpc, cfg.initial_state)
        (p, sol), = calls
        assert sol.iterations == 0
        F, F_eq = p.F.toarray(), p.F_eq.toarray()
        y = err.value.certificate
        lam, nu = y[:F.shape[0]], y[F.shape[0]:]
        finite = np.isfinite(p.g)
        assert lam.min() >= 0.0 and np.all(lam[~finite] == 0.0)
        margin = p.g[finite] @ lam[finite] + p.g_eq @ nu
        assert margin < -0.1
        assert np.abs(F.T @ lam + F_eq.T @ nu).max() <= 1e-12 * np.abs(y).sum()

    def test_sparse_pool_system_3_polish_attempts(self, monkeypatch):
        # a feasible step that no polished point ends: with zero tolerances
        # only an exact KKT point passes, so round 0 and the active-set
        # rounds, which hand _polish a list for the rejected point, polish at
        # most 1 + ACTIVE_SET_ROUNDS times, the LP finds the rows feasible,
        # and ADMM then polishes at most at the checks numbered by a power of
        # two up to the iteration cap
        _, cfg = self._pool_at("sparse", 3, 1.0, eps_abs=0.0, eps_rel=0.0, max_iter=600)
        assert is_state_feasible(cfg.model, cfg.mpc, cfg.initial_state).feasible
        in_rounds, at_checks = [], []
        polish = qp_solver._polish

        def counted(*args):
            (in_rounds if len(args) == 6 else at_checks).append(1)
            return polish(*args)

        monkeypatch.setattr(qp_solver, "_polish", counted)
        calls = self._recorded_solves(monkeypatch)
        lmpc_step(cfg.model, cfg.mpc, cfg.initial_state)
        (_, sol), = calls
        assert sol.status is qp_solver.QpStatus.MAX_ITERATIONS
        checks = sol.iterations // qp_solver.CHECK_EVERY
        assert checks > 100
        assert 1 <= len(in_rounds) <= qp_solver.ACTIVE_SET_ROUNDS + 1
        assert len(at_checks) <= int(np.log2(checks)) + 1

    def test_control_horizon_zero_tail(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_C=2)
        step = lmpc_step(lti_demo_model, cfg, [5.0, 2.0])
        assert np.abs(step.U_star[2:]).max() == 0.0

    def test_control_horizon_zero_tail_outside_input_set(self, lti_demo_model,
                                                          lti_demo_sets):
        # 0.5 <= u <= 1 excludes the zero inputs after N_C: their rows are all
        # zero with g < 0, and they must certify infeasibility
        U_set = Polytope([[1.0], [-1.0]], [1.0, -0.5])
        cfg = _demo_cfg(lti_demo_sets, N_C=2, U_set=U_set)
        with pytest.raises(InfeasibleStepError):
            lmpc_step(lti_demo_model, cfg, [5.0, 2.0])


class TestNmpcStep:
    def test_pendulum_equilibrium(self, pendulum, pendulum_sets):
        X_set, U_set = pendulum_sets
        cfg = MpcConfig(N=5, N_T=50, Q=np.eye(2), R=[[1.0]],
                        X_set=X_set, U_set=U_set)
        step = nmpc_step(pendulum, cfg, [0.0, 0.0])
        assert np.abs(step.u_k).max() < 1e-6

    def test_pendulum_respects_bounds(self, pendulum, pendulum_sets):
        X_set, U_set = pendulum_sets
        cfg = MpcConfig(N=5, N_T=50, Q=np.eye(2), R=[[1.0]],
                        X_set=X_set, U_set=U_set)
        step = nmpc_step(pendulum, cfg, [2.0, 1.0])
        assert -1e-6 <= step.u_k[0] <= 0.1 + 1e-6
        assert np.abs(step.X_star).max() <= 5 + 1e-6

    def test_affine_model_matches_lmpc(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N=3)
        u_lin = lmpc_step(lti_demo_model, cfg, [4.0, -2.0]).u_k
        u_nl = nmpc_step(lti_as_nonlinear(lti_demo_model), cfg, [4.0, -2.0]).u_k
        assert np.abs(u_lin - u_nl).max() < 1e-5

    @pytest.mark.parametrize("N_C", [1, 2, 3])
    def test_control_horizon_matches_lmpc(self, lti_demo_model, lti_demo_sets, N_C):
        # at N_C = 2 both give U = (-1, -1, 0, 0, 0); an SQP that moves all N
        # inputs gives (-1, -1, -0.947, -0.404, -0.069)
        tight = SolverSettings(eps_abs=1e-8, eps_rel=1e-8)
        cfg = _demo_cfg(lti_demo_sets, N_C=N_C, settings=tight)
        lin = lmpc_step(lti_demo_model, cfg, [5.0, 2.0])
        nl = nmpc_step(lti_as_nonlinear(lti_demo_model), cfg, [5.0, 2.0])
        assert np.abs(nl.U_star[N_C:]).max() == 0.0
        assert np.abs(nl.U_star - lin.U_star).max() < 1e-5
        assert np.abs(nl.X_star - lin.X_star).max() < 1e-5

    def test_control_horizon_closed_loop(self, lti_demo_model, lti_demo_sets, monkeypatch):
        # the shifted warm start keeps the N_C-input decision vector, so every
        # step after the first starts from it
        cfg = _demo_cfg(lti_demo_sets, N_C=2, N_T=5)
        warms = []
        nmpc_step = controller.nmpc_step

        def recorded(*args, warm=None, **kw):
            warms.append(None if warm is None else warm.shape)
            return nmpc_step(*args, warm=warm, **kw)

        monkeypatch.setattr(controller, "nmpc_step", recorded)
        lin = run_closed_loop(lti_demo_model, cfg, [5.0, 2.0])
        nl = run_closed_loop(lti_as_nonlinear(lti_demo_model), cfg, [5.0, 2.0])
        # z = (6 states of 2, 2 inputs of 1)
        assert warms == [None] + [(14,)] * 4
        assert np.abs(np.array(nl.inputs) - np.array(lin.inputs)).max() < 1e-5

    @pytest.mark.parametrize("kw", [
        {},
        {"reference": [0.3, 0.0], "U_set": Polytope([[1.0], [-1.0]], [5.0, 0.0])},
        {"N_C": 4},
    ], ids=["stabilize", "track", "N_C=4"])
    def test_derivative_free_matches_column_differences(self, pendulum_sets, monkeypatch, kw):
        # a model without jac_x/jac_u gives the loop of the same model whose
        # jac_x/jac_u are the finite differences of its step, bit for bit,
        # and the analytic pendulum's statuses and iterations
        X_set, U_set = pendulum_sets
        args = dict(N=10, N_T=10, Q=np.eye(2), R=[[1.0]], X_set=X_set, U_set=U_set)
        args.update(kw)
        x_r = args.pop("reference", None)
        cfg = MpcConfig(**args)
        p = PendulumParams()
        model = NonlinearModel(n=2, m=1, step=lambda x, u: pendulum_step(p, x, u))
        free = run_closed_loop(model, cfg, [0.6, -0.4], x_r)
        analytic = run_closed_loop(pendulum_model(p), cfg, [0.6, -0.4], x_r)

        def with_differences(build):
            # the model here is the loop's inner one, in error coordinates
            # when tracking; D differences one stage at a time
            def build_explicit(inner, *args):
                def D(x, u):
                    if np.ndim(x) == 2:
                        return np.array([D(*stage) for stage in zip(x, u)])
                    return finite_diff_jacobian(lambda v: inner.step(v[:2], v[2:]),
                                                np.concatenate([x, u]))
                return build(replace(inner, jac_x=lambda x, u: D(x, u)[..., :2],
                                     jac_u=lambda x, u: D(x, u)[..., 2:]), *args)
            return build_explicit

        monkeypatch.setattr(controller, "build_feq_jacobian",
                            with_differences(controller.build_feq_jacobian))
        explicit = run_closed_loop(model, cfg, [0.6, -0.4], x_r)
        assert np.array_equal(np.array(free.states), np.array(explicit.states))
        assert np.array_equal(np.array(free.inputs), np.array(explicit.inputs))
        assert free.statuses == explicit.statuses == analytic.statuses
        assert free.iterations == explicit.iterations == analytic.iterations

    def test_wrong_length_warm_start_rejected(self, lti_demo_model, lti_demo_sets):
        # z = (4 states of 2, 3 inputs of 1) has 11 entries
        cfg = _demo_cfg(lti_demo_sets, N=3)
        with pytest.raises(ShapeError, match="length 10, expected 11"):
            nmpc_step(lti_as_nonlinear(lti_demo_model), cfg, [4.0, -2.0], warm=np.zeros(10))
        with pytest.raises(ShapeError, match="3 primal and 28 dual entries, expected 4 and 28"):
            lmpc_step(lti_demo_model, _demo_cfg(lti_demo_sets, N=4), [4.0, -2.0],
                      warm=np.zeros(3))


class TestTrackingTransform:
    def test_demo_reference(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        u_r, inner, err_model = tracking_transform(cfg, lti_demo_model, [3, 2])
        assert abs(u_r[0] - 0.59) < 5e-3
        assert err_model is lti_demo_model
        assert np.allclose(inner.U_set.g, [1 - u_r[0], 1 + u_r[0]])
        assert np.allclose(inner.X_set.g, [7, 8, 13, 12])
        assert inner.terminal_set is None

    def test_zero_reference_leaves_sets(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        u_r, inner, _ = tracking_transform(cfg, lti_demo_model, [0, 0])
        assert np.abs(u_r).max() < 1e-12
        assert np.allclose(inner.X_set.g, cfg.X_set.g)
        assert np.allclose(inner.U_set.g, cfg.U_set.g)

    def test_terminal_set_shifted(self, lti_demo_model, lti_demo_sets):
        # the terminal set is given in original coordinates, like X_set, and
        # moves with it; the rest of the problem is cfg's
        x_r = np.array([0.11, -0.195])
        terminal = Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                            np.array([0.16, -0.145, -0.06, 0.245]))
        cfg = _demo_cfg(lti_demo_sets, N=10, terminal_set=terminal)
        _, inner, _ = tracking_transform(cfg, lti_demo_model, x_r)
        assert np.array_equal(inner.terminal_set.F, terminal.F)
        assert np.allclose(inner.terminal_set.g, [0.05] * 4, rtol=0.0, atol=1e-15)
        assert polytope_contains(inner.terminal_set, [0.0, 0.0])
        assert not polytope_contains(inner.terminal_set, [0.06, 0.0])
        assert (inner.N, inner.N_T, inner.formulation) == (cfg.N, cfg.N_T, cfg.formulation)
        assert cfg.terminal_set is terminal

    def test_no_second_validation(self, lti_demo_model, lti_demo_sets):
        # N = 1 and a semidefinite Q warn once, when cfg is made; the shifted
        # problem is cfg's with its sets moved, so tracking warns no more
        with pytest.warns(UserWarning) as made:
            cfg = _demo_cfg(lti_demo_sets, N=1, N_T=5, Q=np.diag([1.0, 0.0]))
        assert len(made) == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u_r, inner, _ = tracking_transform(cfg, lti_demo_model, [0.11, -0.195])
            traj = run_closed_loop(lti_demo_model, cfg, [1.0, 0.5], [0.11, -0.195])
        assert len(traj.inputs) == 5
        assert inner.Q is cfg.Q and inner.R is cfg.R and inner.Q_N is cfg.Q_N
        assert np.array_equal(inner.U_set.g, cfg.U_set.g - cfg.U_set.F @ u_r)

    def test_wrong_length_reference_rejected(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=5)
        for entry in (lambda: tracking_transform(cfg, lti_demo_model, [3, 2, 1]),
                      lambda: run_closed_loop(lti_demo_model, cfg, [1.0, 0.5], [3, 2, 1])):
            with pytest.raises(ShapeError, match=r"reference \(x_r\) has dimension 3, expected 2"):
                entry()

    def test_pendulum_reference(self, pendulum, pendulum_sets):
        X_set, _ = pendulum_sets
        U_set = Polytope([[1.0], [-1.0]], [5.0, 0.0])
        cfg = MpcConfig(N=5, N_T=50, Q=np.eye(2), R=[[1.0]],
                        X_set=X_set, U_set=U_set)
        u_r, inner, err_model = tracking_transform(cfg, pendulum, [0.5, 0])
        assert abs(u_r[0] - 4.6974) < 1e-2
        assert np.allclose(inner.U_set.g, [5.0 - u_r[0], u_r[0]])
        assert err_model is not None
        # error dynamics have a fixed point at the origin
        assert np.abs(err_model.step(np.zeros(2), np.zeros(1))).max() < 1e-9

    def test_reference_outside_state_set(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        with pytest.raises(ReferenceInfeasibleError):
            tracking_transform(cfg, lti_demo_model, [11, 0])

    def test_steady_input_outside_input_set(self, pendulum, pendulum_sets):
        X_set, U_set = pendulum_sets  # input capped at 0.1, u_r would be 4.7
        cfg = MpcConfig(N=5, N_T=50, Q=np.eye(2), R=[[1.0]],
                        X_set=X_set, U_set=U_set)
        with pytest.raises(ReferenceInfeasibleError):
            tracking_transform(cfg, pendulum, [0.5, 0])


class TestRunClosedLoop:
    def test_scalar_halving_law(self):
        model = LtiModel([[1.0]], [[1.0]])
        with pytest.warns(UserWarning):
            cfg = _scalar_cfg(N_T=3)
        traj = run_closed_loop(model, cfg, [1.0])
        states = np.array(traj.states).ravel()
        assert np.abs(states - [1, 0.5, 0.25, 0.125]).max() < 1e-6

    # every entry point that takes a model and a state checks both against
    # Q and R; the run_closed_loop cases keep their original ids
    @pytest.mark.parametrize("entry, model, x_0", [
        pytest.param(entry, model, x_0,
                     id=case if entry is run_closed_loop else f"{entry.__name__} {case}")
        for entry in (run_closed_loop, lmpc_step, nmpc_step, is_state_feasible)
        for case, model, x_0 in (
            ("m=2", LtiModel(np.eye(2), np.eye(2)), [0.0, 0.0]),
            ("n=1", LtiModel([[1.0]], [[1.0]]), [0.0]),
            ("nonlinear m=2", lti_as_nonlinear(LtiModel(np.eye(2), np.eye(2))), [0.0, 0.0]),
            ("x_0 of length 1", LtiModel([[0.9, 0.2], [-0.4, 0.8]], [[0.1], [0.01]]), [1.0]),
        )])
    def test_dimension_mismatch(self, entry, model, x_0, lti_demo_sets):
        # Q and R size the controller for n = 2, m = 1
        with pytest.raises(ShapeError, match=r"does not match Q and R \(n = 2, m = 1\)"):
            entry(model, _demo_cfg(lti_demo_sets, N_T=5), x_0)

    # every entry point that takes a state refuses a NaN or an infinity in it
    # before any arithmetic, so without a warning
    @pytest.mark.parametrize("x_0", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("entry", [
        lambda lti, pend, cfg, x: run_closed_loop(lti, cfg, x),
        lambda lti, pend, cfg, x: lmpc_step(lti, cfg, x),
        lambda lti, pend, cfg, x: nmpc_step(pend, cfg, x),
        lambda lti, pend, cfg, x: is_state_feasible(lti, cfg, x),
        lambda lti, pend, cfg, x: persistent_feasibility_check(Trajectory(states=[x]), lti, cfg),
        lambda lti, pend, cfg, x: is_control_sequence_feasible(lti, cfg, x, np.zeros((5, 1))),
    ], ids=["run_closed_loop", "lmpc_step", "nmpc_step", "is_state_feasible",
            "persistent_feasibility_check", "is_control_sequence_feasible"])
    def test_non_finite_state(self, entry, x_0, lti_demo_model, pendulum, lti_demo_sets):
        with pytest.raises(NonFiniteError, match="has a NaN or infinite entry"):
            entry(lti_demo_model, pendulum, _demo_cfg(lti_demo_sets, N_T=5), np.array(x_0))

    # a reference holding a NaN or an infinity is refused as such, before
    # the containment test, which called a NaN outside X_set and warned on
    # an infinity
    @pytest.mark.parametrize("x_r", [[np.nan, 0.0], [np.inf, 0.0], [-np.inf, 0.0]],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", ["lti", "pendulum"])
    def test_non_finite_reference(self, kind, x_r, lti_demo_model, lti_demo_sets, pendulum,
                                  pendulum_sets):
        model, sets = (lti_demo_model, lti_demo_sets) if kind == "lti" else (pendulum, pendulum_sets)
        with pytest.raises(NonFiniteError, match=r"reference \(x_r\) .* has a NaN or infinite entry"):
            run_closed_loop(model, _demo_cfg(sets, N_T=5), [0.0, 0.0], reference=x_r)

    def test_origin_stays_at_origin(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=5)
        traj = run_closed_loop(lti_demo_model, cfg, [0.0, 0.0])
        assert np.abs(np.array(traj.states)).max() < 1e-6
        assert np.abs(np.array(traj.inputs)).max() < 1e-6

    def test_plant_consistency(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=10)
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        for k in range(len(traj)):
            nxt = lti_step(lti_demo_model, traj.states[k], traj.inputs[k])
            assert np.abs(nxt - traj.states[k + 1]).max() <= 1e-12

    @pytest.mark.parametrize("demo, x_r, N_T", [
        ("lmpc-stabilize", [0.11, -0.195], 20),    # the steady state of u_r = 0.5
        ("nmpc-track", None, 20),
    ])
    def test_tracking_replays_through_plant(self, demo, x_r, N_T):
        # a tracking loop toward a steady reference records the plant's
        # trajectory: its inputs, applied by model.step from the initial
        # state, give back its states
        exp = cli.demo_config(demo)
        x_r = exp.reference if x_r is None else x_r
        traj = run_closed_loop(exp.model, replace(exp.mpc, N_T=N_T), exp.initial_state, x_r)
        assert len(traj) == N_T and x_r is not None
        x = np.asarray(traj.states[0])
        for u, recorded in zip(traj.inputs, traj.states[1:]):
            x = exp.model.step(x, u)
            assert np.abs(x - recorded).max() <= 1e-12

    def test_trajectory_lengths(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=10)
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        assert len(traj.states) == 11
        assert len(traj.inputs) == len(traj.costs) == 10
        assert len(traj) == 10
        # the recorded rows read as a list of 1-D arrays and as one array
        rows = [traj.states[k] for k in range(11)]
        assert all(isinstance(x, np.ndarray) and x.shape == (2,) for x in rows)
        assert np.array_equal(traj.states[-1], rows[10])
        assert isinstance(traj.states[3:5], list) and len(traj.states[3:5]) == 2
        assert np.array_equal(np.asarray(traj.states), np.vstack(rows))
        assert np.array_equal(np.asarray(traj.inputs), np.vstack(list(traj.inputs)))

    def test_warm_start_equivalence(self, lti_demo_model, lti_demo_sets, monkeypatch):
        cfg = _demo_cfg(lti_demo_sets, N_T=15)
        warm = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        # a cold loop: every step starts from no guess
        monkeypatch.setattr(controller, "_next_warm", lambda *args: None)
        cold = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        U_w = np.array(warm.inputs)
        U_c = np.array(cold.inputs)
        assert np.abs(U_w - U_c).max() <= 1e-4

    def test_tracking_original_coordinate_constraints(self, lti_demo_model,
                                                      lti_demo_sets):
        X_set, U_set = lti_demo_sets
        cfg = _demo_cfg(lti_demo_sets, N_T=40)
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0], [3, 2])
        X = np.array(traj.states)
        U = np.array(traj.inputs)
        assert float((X_set.F @ X.T - X_set.g[:, None]).max()) <= 1e-6
        assert float((U_set.F @ U.T - U_set.g[:, None]).max()) <= 1e-8
        # error decays toward the set point
        final_err = np.abs(X[-1] - [3, 2]).max()
        first_err = np.abs(X[0] - [3, 2]).max()
        assert final_err < 0.05 * first_err

    def test_tracking_terminal_set_in_original_coordinates(self, lti_demo_model,
                                                           lti_demo_sets):
        # |x - x_r| <= 0.05 around the steady state x_r of u_r = 0.5: the loop
        # reads the terminal set where phase-I does, in original coordinates
        x_r = np.array([0.11, -0.195])
        terminal = Polytope(np.vstack([np.eye(2), -np.eye(2)]),
                            np.array([0.16, -0.145, -0.06, 0.245]))
        cfg = _demo_cfg(lti_demo_sets, N=10, N_T=60, terminal_set=terminal)
        assert is_state_feasible(lti_demo_model, cfg, [1.0, 0.5]).feasible
        traj = run_closed_loop(lti_demo_model, cfg, [1.0, 0.5], x_r)
        assert len(traj) == 60
        assert np.abs(traj.states[-1] - x_r).max() <= 1e-3

    def test_infeasible_start_aborts_with_partial(self, lti_demo_model,
                                                  lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=5)
        with pytest.raises(InfeasibleStepError) as err:
            run_closed_loop(lti_demo_model, cfg, [20.0, 0.0])
        assert err.value.step == 0
        assert err.value.trajectory is not None
        assert len(err.value.trajectory.inputs) == 0 and not err.value.trajectory.inputs
        assert np.asarray(err.value.trajectory.inputs).shape == (0, 1)
        assert np.allclose(err.value.state, [20, 0])


class TestLoopWorkspace:
    """run_closed_loop builds each loop's QP once and reuses it per step."""

    @pytest.mark.parametrize("kw", [
        {},
        {"formulation": "sparse"},
        {"N_C": 2},
        {"reference": [3, 2]},
        {"reference": [3, 2], "formulation": "sparse"},
    ])
    def test_matches_fresh_steps(self, lti_demo_model, lti_demo_sets, monkeypatch, kw):
        kw = dict(kw)
        x_r = kw.pop("reference", None)
        cfg = _demo_cfg(lti_demo_sets, N_T=20, **kw)
        kept = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0], x_r)
        step = controller.lmpc_step

        def fresh_step(model, cfg, x_k, warm=None, _ws=None):
            return step(model, cfg, x_k, warm=warm)

        monkeypatch.setattr(controller, "lmpc_step", fresh_step)
        fresh = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0], x_r)
        assert np.array_equal(np.array(kept.states), np.array(fresh.states))
        assert np.array_equal(np.array(kept.inputs), np.array(fresh.inputs))
        assert kept.costs == fresh.costs
        assert kept.statuses == fresh.statuses
        assert kept.iterations == fresh.iterations

    @pytest.mark.parametrize("N_C", [None, 2], ids=["N_C=N", "N_C=2"])
    def test_factor_at_initial_rho_once_per_loop(self, monkeypatch, N_C):
        # the reduced matrix at RHO is factored when ADMM first runs: never in
        # the lmpc-stabilize loop, whose steps all end on a polished point,
        # and once in the loop when polishing is off and every step runs ADMM
        exp = cli.demo_config("lmpc-stabilize")
        cfg = replace(exp.mpc, N_C=N_C)
        factored = []

        def recording_lu_factor(M, *args, **kwargs):
            factored.append(np.array(M))
            return lu_factor(M, *args, **kwargs)

        lu_factor = qp_solver.lu_factor
        monkeypatch.setattr(qp_solver, "lu_factor", recording_lu_factor)
        pm = build_prediction(exp.model, cfg.N)
        w = build_weights(cfg.Q, cfg.R, cfg.Q_N, cfg.N)
        c = stack_constraints(cfg.X_set, cfg.U_set, None, cfg.N)
        H, _, _, F, _, _ = condensed_blocks(pm, w, c, cfg.N_C)
        at_rho = 2.0 * H + qp_solver.SIGMA * np.eye(H.shape[0]) \
            + qp_solver.RHO * F.T @ F
        counts = []
        for polish in (qp_solver._polish, lambda *args: None):
            monkeypatch.setattr(qp_solver, "_polish", polish)
            factored.clear()
            traj = run_closed_loop(exp.model, cfg, exp.initial_state)
            assert len(traj) == 50
            counts.append(sum(np.allclose(M, at_rho, rtol=1e-12, atol=0.0)
                              for M in factored if M.shape == at_rho.shape))
        assert counts == [0, 1]

    @pytest.mark.parametrize("form", ["condensed", "sparse"])
    @pytest.mark.parametrize("N_C", [None, 5], ids=["N_C=N", "N_C=5"])
    def test_gram_matrix_once_per_loop(self, lti_12_4, monkeypatch, form, N_C):
        # the loop refactors the reduced matrix at adapted step sizes, all
        # from the Gram matrix its first step formed; no polish is accepted,
        # so neither round 0 nor the active-set rounds end a step, and every
        # step runs ADMM
        monkeypatch.setattr(qp_solver, "_polish", lambda *args: None)
        model, X_set, U_set, x0 = lti_12_4
        cfg = MpcConfig(N=20, N_T=20, N_C=N_C, Q=np.eye(12), R=0.1 * np.eye(4),
                        X_set=X_set, U_set=U_set, formulation=form)
        step, factor = controller.lmpc_step, qp_solver._factor
        grams, rho_bases = [], []

        def recording_step(model, cfg, x_k, warm=None, _ws=None):
            out = step(model, cfg, x_k, warm=warm, _ws=_ws)
            grams.append(_ws.qp.G)
            return out

        monkeypatch.setattr(controller, "lmpc_step", recording_step)
        monkeypatch.setattr(qp_solver, "_factor",
                            lambda G, P_sigma, rho_base:
                            rho_bases.append(rho_base) or factor(G, P_sigma, rho_base))
        run_closed_loop(model, cfg, x0)
        assert len(grams) == 20 and all(G is grams[0] for G in grams)
        assert rho_bases[0] == qp_solver.RHO and len(rho_bases) > 1

    def test_sparse_loop_reuses_polish_factor(self, lti_12_4, monkeypatch):
        # the kept polish factor gives the bits of fresh ones, with fewer
        # factors: the loop factors K_eq = [P + dI, F_eq'; F_eq, -dI] once and
        # borders it by a k x k factor at each polish on k input bounds; no
        # polish matrix is larger than K_eq
        model, X_set, U_set, x0 = lti_12_4
        cfg = MpcConfig(N=20, N_T=20, Q=np.eye(12), R=0.1 * np.eye(4), X_set=X_set,
                        U_set=U_set, formulation="sparse")
        d, n_eq = 12 * 21 + 4 * 20, 12 * 21
        step, lu_factor = controller.lmpc_step, qp_solver.lu_factor
        runs = []
        for fresh in (False, True):
            sols, sizes = [], []

            def recording_step(model, cfg, x_k, warm=None, _ws=None):
                out = step(model, cfg, x_k, warm=warm, _ws=None if fresh else _ws)
                sols.append(out.solution)
                return out

            def counting_lu_factor(M):
                sizes.append(M.shape[0])
                return lu_factor(M)

            monkeypatch.setattr(controller, "lmpc_step", recording_step)
            monkeypatch.setattr(qp_solver, "lu_factor", counting_lu_factor)
            run_closed_loop(model, cfg, x0)
            runs.append((sols, sizes))
        (kept, kept_sizes), (fresh, fresh_sizes) = runs
        assert len(kept) == len(fresh) == 20
        for a, b in zip(kept, fresh):
            assert np.array_equal(a.z_star, b.z_star)
            assert np.array_equal(a.duals, b.duals)
            assert a.iterations == b.iterations
        assert kept_sizes.count(d + n_eq) == 1
        assert fresh_sizes.count(d + n_eq) == 20
        assert max(kept_sizes + fresh_sizes) == d + n_eq
        kept_polish, fresh_polish = (sum(n != d for n in sizes) for sizes in (kept_sizes, fresh_sizes))
        assert any(n < d for n in kept_sizes)
        assert kept_polish < fresh_polish

    @pytest.mark.parametrize("form", ["condensed", "sparse"])
    def test_workspace_keeps_no_solve_history(self, monkeypatch, form):
        # the lmpc-stabilize loop polishes on the same non-empty active set
        # at several steps; its QP workspace holds only what the build sets,
        # K_eq's factor, the very object lu_factor returned for it, and, in
        # the sparse form only, the K_eq columns of the F rows its polishes
        # took, each a fresh solve's bits; G and the factor at RHO stay
        # unformed since no step runs ADMM, and each step equals a
        # fresh-workspace step
        exp = cli.demo_config("lmpc-stabilize")
        cfg = replace(exp.mpc, formulation=form)
        step, lu_factor = controller.lmpc_step, qp_solver.lu_factor
        fields = {"H", "F", "F_eq", "A", "At", "P", "P_sigma", "G", "rho_scale", "lu", "keq",
                  "keq_cols"}
        active_sets, factors, kept = [], [], set()
        monkeypatch.setattr(qp_solver, "lu_factor",
                            lambda M: factors.append(lu_factor(M)) or factors[-1])

        def checked_step(model, cfg, x_k, warm=None, _ws=None):
            out = step(model, cfg, x_k, warm=warm, _ws=_ws)
            fresh = step(model, cfg, x_k, warm=warm)
            qp = _ws.qp
            assert set(vars(qp)) == fields
            assert any(qp.keq is f for f in factors)
            assert qp.G is None and qp.lu is None
            if form == "condensed":
                assert qp.keq_cols is None
            else:
                d = qp.P.shape[0]
                for i, (row, col) in qp.keq_cols.items():
                    assert np.array_equal(row, qp.F[[i]].toarray()[0])
                    rhs = np.concatenate([row, np.zeros(qp.keq.shape[0] - d)])
                    assert np.array_equal(col, qp_solver.lu_solve(qp.keq, rhs))
                kept.update(qp.keq_cols)
            for a, b in ((out.solution, fresh.solution), (out, fresh)):
                for key, value in vars(a).items():
                    if key != "solution":
                        assert np.array_equal(value, getattr(b, key)), key
            n_in = _ws.qp.F.shape[0]
            active_sets.append(tuple(np.flatnonzero(out.solution.duals[:n_in])))
            return out

        monkeypatch.setattr(controller, "lmpc_step", checked_step)
        traj = run_closed_loop(exp.model, cfg, exp.initial_state)
        assert len(traj) == len(active_sets) == 50
        repeated = [a for a in set(active_sets) if a and active_sets.count(a) > 1]
        assert repeated
        assert (len(kept) > 0) == (form == "sparse")

    def test_kept_keq_columns_solve_alone_and_in_batch(self, lti_12_4, monkeypatch):
        # a (12, 4, 20) sparse loop keeps the K_eq column W_i of every F row
        # its polishes took; SuperLU gives W_i the same bits solved alone, as
        # a 1-column block and inside one batch of all kept rows, which is
        # what lets a polish solve only the rows not yet kept
        model, X_set, U_set, x0 = lti_12_4
        cfg = MpcConfig(N=20, N_T=20, Q=np.eye(12), R=0.1 * np.eye(4), X_set=X_set,
                        U_set=U_set, formulation="sparse")
        step, loops = controller.lmpc_step, []

        def recording_step(model, cfg, x_k, warm=None, _ws=None):
            loops.append(_ws)
            return step(model, cfg, x_k, warm=warm, _ws=_ws)

        monkeypatch.setattr(controller, "lmpc_step", recording_step)
        run_closed_loop(model, cfg, x0)
        qp = loops[0].qp
        assert all(ws is loops[0] for ws in loops)
        rows, keq = sorted(qp.keq_cols), qp.keq
        assert len(rows) > 1
        d, n0 = qp.P.shape[0], keq.shape[0]
        rhs = np.vstack([qp.F[rows].toarray().T, np.zeros((n0 - d, len(rows)))])
        batch = qp_solver.lu_solve(keq, rhs)
        for c, i in enumerate(rows):
            row, col = qp.keq_cols[i]
            assert np.array_equal(row, rhs[:d, c])
            assert np.array_equal(col, qp_solver.lu_solve(keq, rhs[:, c]))
            assert np.array_equal(col, qp_solver.lu_solve(keq, rhs[:, [c]])[:, 0])
            assert np.array_equal(col, batch[:, c])

    @pytest.mark.parametrize("demo, form", [
        ("lmpc-stabilize", "sparse"),
        ("lmpc-track", "sparse"),
        ("lmpc-stabilize", "condensed"),
        ("nmpc-stabilize", None),
        ("nmpc-track", None),
    ])
    def test_keq_stored_as_rows_are(self, monkeypatch, demo, form):
        # the sparse form's CSR rows give a scipy.sparse K_eq, factored once
        # per loop; every other factor there (S of the bordered polish) and
        # every factor of a condensed or NMPC loop, whose rows are dense,
        # takes an ndarray
        exp = cli.demo_config(demo)
        cfg = exp.mpc if form is None else replace(exp.mpc, formulation=form)
        lu_factor, factored = qp_solver.lu_factor, []
        monkeypatch.setattr(qp_solver, "lu_factor",
                            lambda M: factored.append(M) or lu_factor(M))
        controller.run_closed_loop(exp.model, cfg, exp.initial_state, exp.reference)
        stored = [M for M in factored if sparse.issparse(M)]
        assert factored and all(sparse.issparse(M) or isinstance(M, np.ndarray)
                                for M in factored)
        if form == "sparse":
            n, m = cfg.n, cfg.m
            keq_rows = n * (cfg.N + 1) + m * cfg.N + n * (cfg.N + 1)
            assert [M.shape for M in stored] == [(keq_rows, keq_rows)]
        else:
            assert stored == []

    @pytest.mark.parametrize("n, N, mmd_fill", [(12, 20, 28912), (24, 40, 197404)],
                             ids=["pool-system-0", "24-4-40"])
    def test_keq_fill_at_most_minimum_degree(self, monkeypatch, n, N, mmd_fill):
        # the sparse form's K_eq factor in lu_factor's static order holds no
        # more L + U non-zeros than SuperLU's minimum-degree ordering of
        # A' + A gives on the same K_eq: benchmark pool system 0, and a
        # (24, 4, 40) system drawn as the pool's are
        if n == 12:
            doc = workloads.lmpc_episode(1, 0, "sparse")["doc"]
        else:
            A, B = workloads.random_lti(workloads.rng(0, 1, 0), n, 4, 0.95, 1.02)
            doc = workloads.lti_doc(A, B, N, N, np.zeros(n), 10.0, 1.0, R=0.1,
                                    formulation="sparse")
        exp = cli.parse_config(json.dumps(doc))
        lu_factor, factored = qp_solver.lu_factor, []
        monkeypatch.setattr(qp_solver, "lu_factor",
                            lambda M: factored.append(M) or lu_factor(M))
        ws = controller._Workspace()
        lmpc_step(exp.model, exp.mpc, exp.initial_state, _ws=ws)
        K = factored[0]
        rows = 2 * n * (N + 1) + 4 * N
        assert sparse.issparse(K) and K.shape == (rows, rows) and ws.qp.keq.shape == K.shape
        mmd = splu(sparse.csc_array(K), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=qp_solver.SPLU_PIVOT_THRESH, options={"SymmetricMode": True})
        assert mmd.nnz == mmd_fill
        assert ws.qp.keq.lu.nnz <= mmd_fill

    @pytest.mark.parametrize("polish", [True, False], ids=["polish", "no-polish"])
    @pytest.mark.parametrize("jacobian", ["analytic", "finite-difference"])
    @pytest.mark.parametrize("demo", ["nmpc-stabilize", "nmpc-track"])
    def test_nmpc_steps_match_fresh_steps(self, monkeypatch, demo, jacobian, polish):
        # one QP workspace serves the whole NMPC loop: each step equals the
        # same step with a fresh workspace, bit for bit; H and F are checked
        # (potrf) once per loop, and the reduced matrix at RHO is factored
        # once by each subproblem that reaches ADMM and by no other; with
        # polishing on, none does, and with it off (a 10-step loop) all do
        exp = cli.demo_config(demo)
        model, cfg = exp.model, exp.mpc
        if jacobian == "finite-difference":
            model = replace(model, jac_x=None, jac_u=None)
        if not polish:
            monkeypatch.setattr(qp_solver, "_polish", lambda *args: None)
            cfg = replace(cfg, N_T=10)
        step, potrf, factor, solve = (controller.nmpc_step, qp_solver._potrf,
                                      qp_solver._factor, nlp_solver.solve_qp)
        potrfs, at_rho, admm, kept = [], [], [], [True]
        monkeypatch.setattr(qp_solver, "_potrf", lambda M: kept[0] and potrfs.append(1) or potrf(M))
        monkeypatch.setattr(qp_solver, "_factor", lambda G, P_sigma, rho_base: (
            kept[0] and rho_base == qp_solver.RHO and at_rho.append(1)
            or factor(G, P_sigma, rho_base)))

        def counted_solve(*args, **kw):
            sol = solve(*args, **kw)
            if kept[0] and sol.iterations > 0:
                admm.append(1)
            return sol

        def checked_step(model, cfg, x_k, warm=None, _ws=None):
            kept[0] = True
            out = step(model, cfg, x_k, warm=warm, _ws=_ws)
            kept[0] = False
            fresh = step(model, cfg, x_k, warm=warm)
            for a, b in ((out.solution, fresh.solution), (out, fresh)):
                for key, value in vars(a).items():
                    if key != "solution":
                        assert np.array_equal(value, getattr(b, key)), key
            return out

        monkeypatch.setattr(nlp_solver, "solve_qp", counted_solve)
        monkeypatch.setattr(controller, "nmpc_step", checked_step)
        traj = run_closed_loop(model, cfg, exp.initial_state, exp.reference)
        assert len(traj) == cfg.N_T
        assert len(potrfs) == 1
        assert len(at_rho) == len(admm)
        assert len(admm) == (0 if polish else sum(traj.iterations))

    def test_nan_jacobian_at_a_later_step_rejected(self, pendulum_sets):
        # the loop's workspace keeps its H/F part, and still tests each
        # subproblem's F_eq, the Jacobian rows, for NaN
        base = pendulum_model(PendulumParams())
        nan = [False]
        model = replace(base, jac_x=lambda x, u: np.full_like(base.jac_x(x, u), np.nan)
                        if nan[0] else base.jac_x(x, u))
        cfg = _demo_cfg(pendulum_sets, N_T=8)
        ws, x = controller._Workspace(), np.array([0.6, -0.4])
        for _ in range(3):
            x = model.step(x, nmpc_step(model, cfg, x, _ws=ws).u_k)
        H = ws.qp.H
        nan[0] = True
        with pytest.raises(NonFiniteError, match="NaN or infinity in H, F or F_eq"):
            nmpc_step(model, cfg, x, _ws=ws)
        assert ws.qp.H is H is ws.blocks[0]

    @pytest.mark.parametrize("kind", ["condensed", "sparse", "nmpc", "nmpc-derivative-free"])
    def test_builders_once_per_loop(self, lti_demo_sets, pendulum_sets, monkeypatch, kind):
        # a step evaluates the kept blocks at x_k: every x_k-independent
        # builder runs at the loop's first step only. The dense stacks of
        # build_weights and stack_constraints serve the condensed form alone;
        # the sparse form and NMPC take trajectory_blocks' CSR blocks
        builders = ("build_prediction", "build_weights", "stack_constraints",
                    "trajectory_blocks", "build_feq_jacobian")
        calls = dict.fromkeys(builders, 0)

        def counted(name, build):
            def call(*args, **kwargs):
                calls[name] += 1
                return build(*args, **kwargs)
            return call

        for name in builders:
            monkeypatch.setattr(controller, name, counted(name, getattr(controller, name)))
        if kind in ("condensed", "sparse"):
            model, x_0 = LtiModel([[0.9, 0.2], [-0.4, 0.8]], [[0.1], [0.01]]), [10.0, 5.0]
            cfg = _demo_cfg(lti_demo_sets, N_T=20, formulation=kind)
        else:
            p = PendulumParams()
            model, x_0 = pendulum_model(p), [0.6, -0.4]
            if kind == "nmpc-derivative-free":
                model = NonlinearModel(n=2, m=1, step=lambda x, u: pendulum_step(p, x, u))
            cfg = _demo_cfg(pendulum_sets, N_T=8)
        traj = run_closed_loop(model, cfg, x_0)
        assert len(traj) == cfg.N_T
        nmpc, condensed = kind.startswith("nmpc"), kind == "condensed"
        assert calls == {"build_prediction": int(not nmpc), "build_weights": int(condensed),
                         "stack_constraints": int(condensed),
                         "trajectory_blocks": int(not condensed),
                         "build_feq_jacobian": int(nmpc)}


class TestDualWarmStart:
    """A closed loop warm-starts each step from the previous step's primal
    trajectory, shifted one stage, and passes no multipliers: solve_qp's
    round 0 polishes on the rows that trajectory holds at their bounds."""

    @pytest.mark.parametrize("form", ["condensed", "sparse"])
    def test_fewer_iterations_same_inputs(self, lti_12_4, monkeypatch, form):
        # no step runs an ADMM iteration, warm or cold: the active-set rounds
        # finish every cold step, so the work a warm start saves is polishes
        model, X_set, U_set, x0 = lti_12_4
        cfg = MpcConfig(N=20, N_T=20, Q=np.eye(12), R=0.1 * np.eye(4), X_set=X_set,
                        U_set=U_set, formulation=form)
        polish, solve, polishes, per_step = qp_solver._polish, controller.solve_qp, [], []

        def counted_solve(*args, **kw):
            before = len(polishes)
            sol = solve(*args, **kw)
            per_step.append(len(polishes) - before)
            return sol

        monkeypatch.setattr(qp_solver, "_polish", lambda *args: polishes.append(1) or polish(*args))
        monkeypatch.setattr(controller, "solve_qp", counted_solve)
        warm = run_closed_loop(model, cfg, x0)
        warm_polishes, per_step = per_step, []
        monkeypatch.setattr(controller, "_next_warm", lambda *args: None)
        cold = run_closed_loop(model, cfg, x0)
        cold_polishes = per_step
        assert not any(warm.iterations) and not any(cold.iterations)
        assert sum(warm_polishes) < sum(cold_polishes)
        # the shifted trajectory holds the next step's active rows at every step
        assert warm_polishes[0] > 1 and all(n == 1 for n in warm_polishes[1:])
        assert np.abs(np.array(warm.inputs) - np.array(cold.inputs)).max() <= 1e-4

    @pytest.mark.parametrize("kind", ["lti", "nonlinear"])
    def test_warm_start_kinds(self, lti_demo_model, lti_demo_sets, monkeypatch, kind):
        model = lti_demo_model if kind == "lti" else lti_as_nonlinear(lti_demo_model)
        name = "lmpc_step" if kind == "lti" else "nmpc_step"
        step, warms, steps = getattr(controller, name), [], []

        def recorded(*args, warm=None, **kw):
            warms.append(warm)
            steps.append(step(*args, warm=warm, **kw))
            return steps[-1]

        monkeypatch.setattr(controller, name, recorded)
        for form in ["condensed", "sparse"]:
            warms.clear()
            steps.clear()
            cfg = _demo_cfg(lti_demo_sets, N_C=3, N_T=5, formulation=form)
            run_closed_loop(model, cfg, [5.0, 2.0])
            assert warms[0] is None
            for prev, warm in zip(steps, warms[1:]):
                # z = (6 states of 2, 3 inputs of 1); LMPC's condensed form
                # takes the 3 inputs alone, NMPC always the whole trajectory
                z = np.concatenate([prev.X_star[1:].ravel(), prev.X_star[-1],
                                    prev.U_star[1:4].ravel()])
                assert isinstance(warm, np.ndarray)
                assert np.array_equal(warm, z[12:] if (kind, form) == ("lti", "condensed") else z)
