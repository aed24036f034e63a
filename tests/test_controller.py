from dataclasses import replace

import numpy as np
import pytest

from mpckit import (InfeasibleStepError, InvalidHorizonError,
                    InvalidWeightError, MpcConfig, ReferenceInfeasibleError,
                    ShapeError, SolverSettings, is_state_feasible, lmpc_step, lti_as_nonlinear,
                    nmpc_step, run_closed_loop, tracking_transform)
from mpckit import cli, controller, qp_solver
from mpckit.condense import (build_prediction, build_weights, condensed_blocks,
                             stack_constraints)
from mpckit.model import LtiModel, Polytope, box_polytope, lti_step


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
        assert cfg.warm_start

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
        u_r, X_shift, U_shift, err_model = tracking_transform(
            cfg, lti_demo_model, [3, 2])
        assert abs(u_r[0] - 0.59) < 5e-3
        assert err_model is lti_demo_model
        assert np.allclose(U_shift.g, [1 - u_r[0], 1 + u_r[0]])
        assert np.allclose(X_shift.g, [7, 8, 13, 12])

    def test_zero_reference_leaves_sets(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        u_r, X_shift, U_shift, _ = tracking_transform(cfg, lti_demo_model, [0, 0])
        assert np.abs(u_r).max() < 1e-12
        assert np.allclose(X_shift.g, cfg.X_set.g)
        assert np.allclose(U_shift.g, cfg.U_set.g)

    def test_pendulum_reference(self, pendulum, pendulum_sets):
        X_set, _ = pendulum_sets
        U_set = Polytope([[1.0], [-1.0]], [5.0, 0.0])
        cfg = MpcConfig(N=5, N_T=50, Q=np.eye(2), R=[[1.0]],
                        X_set=X_set, U_set=U_set)
        u_r, _, U_shift, err_model = tracking_transform(cfg, pendulum, [0.5, 0])
        assert abs(u_r[0] - 4.6974) < 1e-2
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

    def test_trajectory_lengths(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=10)
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        assert len(traj.states) == 11
        assert len(traj.inputs) == len(traj.costs) == 10
        assert len(traj) == 10

    def test_warm_start_equivalence(self, lti_demo_model, lti_demo_sets):
        warm = run_closed_loop(lti_demo_model,
                               _demo_cfg(lti_demo_sets, N_T=15), [10.0, 5.0])
        cold = run_closed_loop(
            lti_demo_model,
            _demo_cfg(lti_demo_sets, N_T=15, warm_start=False), [10.0, 5.0])
        U_w = np.array(warm.inputs)
        U_c = np.array(cold.inputs)
        assert np.abs(U_w - U_c).max() <= 1e-4

    def test_tracking_original_coordinate_constraints(self, lti_demo_model,
                                                      lti_demo_sets):
        X_set, U_set = lti_demo_sets
        cfg = _demo_cfg(lti_demo_sets, N_T=40, reference=[3, 2])
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        X = np.array(traj.states)
        U = np.array(traj.inputs)
        assert float((X_set.F @ X.T - X_set.g[:, None]).max()) <= 1e-6
        assert float((U_set.F @ U.T - U_set.g[:, None]).max()) <= 1e-8
        # error decays toward the set point
        final_err = np.abs(X[-1] - [3, 2]).max()
        first_err = np.abs(X[0] - [3, 2]).max()
        assert final_err < 0.05 * first_err

    def test_infeasible_start_aborts_with_partial(self, lti_demo_model,
                                                  lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=5)
        with pytest.raises(InfeasibleStepError) as err:
            run_closed_loop(lti_demo_model, cfg, [20.0, 0.0])
        assert err.value.step == 0
        assert err.value.trajectory is not None
        assert len(err.value.trajectory.inputs) == 0
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
        cfg = _demo_cfg(lti_demo_sets, N_T=20, **kw)
        kept = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        step = controller.lmpc_step

        def fresh_step(model, cfg, x_k, warm=None, _ws=None):
            return step(model, cfg, x_k, warm=warm)

        monkeypatch.setattr(controller, "lmpc_step", fresh_step)
        fresh = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        assert np.array_equal(np.array(kept.states), np.array(fresh.states))
        assert np.array_equal(np.array(kept.inputs), np.array(fresh.inputs))
        assert kept.costs == fresh.costs
        assert kept.statuses == fresh.statuses
        assert kept.iterations == fresh.iterations

    @pytest.mark.parametrize("N_C", [None, 2], ids=["N_C=N", "N_C=2"])
    def test_factor_at_initial_rho_once_per_loop(self, monkeypatch, N_C):
        exp = cli.demo_config("lmpc-stabilize")
        cfg = replace(exp.mpc, N_C=N_C)
        factored = []

        def recording_lu_factor(M, *args, **kwargs):
            factored.append(np.array(M))
            return lu_factor(M, *args, **kwargs)

        lu_factor = qp_solver.lu_factor
        monkeypatch.setattr(qp_solver, "lu_factor", recording_lu_factor)
        traj = run_closed_loop(exp.model, cfg, exp.initial_state)
        pm = build_prediction(exp.model, cfg.N)
        w = build_weights(cfg.Q, cfg.R, cfg.Q_N, cfg.N)
        c = stack_constraints(cfg.X_set, cfg.U_set, None, cfg.N)
        H, _, _, F, _, _ = condensed_blocks(pm, w, c, cfg.N_C)
        at_rho = 2.0 * H + qp_solver.SIGMA * np.eye(H.shape[0]) \
            + qp_solver.RHO * F.T @ F
        assert len(traj) == 50
        assert sum(np.allclose(M, at_rho, rtol=1e-12, atol=0.0)
                   for M in factored if M.shape == at_rho.shape) == 1
