import numpy as np
import pytest

from mpckit import (InfeasibleStepError, MpcConfig, QpStatus, ShapeError,
                    SolverSettings, Trajectory, is_control_sequence_feasible, is_state_feasible,
                    lmpc_step, lyapunov_monitor, persistent_feasibility_check,
                    run_closed_loop)
from mpckit import feasibility
from mpckit.condense import build_prediction, condensed_rows, stack_constraints
from mpckit.model import LtiModel, Polytope, box_polytope


def _demo_cfg(lti_demo_sets, **kw):
    X_set, U_set = lti_demo_sets
    args = dict(N=5, N_T=50, Q=np.eye(2), R=[[1.0]], X_set=X_set, U_set=U_set)
    args.update(kw)
    return MpcConfig(**args)


def _scalar_cfg(x_bound, u_bound, N=1):
    with pytest.warns(UserWarning) if N == 1 else _null():
        return MpcConfig(N=N, N_T=max(N, 2), Q=[[1.0]], R=[[1.0]],
                         X_set=box_polytope(x_bound),
                         U_set=box_polytope(u_bound))


class _null:
    def __enter__(self):
        return self

    def __exit__(self, *a):
        return False


class TestControlSequenceFeasible:
    def test_origin_zero_sequence(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        assert is_control_sequence_feasible(lti_demo_model, cfg, [0, 0],
                                            np.zeros((5, 1)))

    def test_input_bound_violation(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        U = np.zeros((5, 1))
        U[2, 0] = 2.0
        assert not is_control_sequence_feasible(lti_demo_model, cfg, [0, 0], U)

    def test_state_leaves_box(self):
        model = LtiModel([[1.0]], [[1.0]])
        cfg = _scalar_cfg(10, 100)
        assert not is_control_sequence_feasible(model, cfg, [9.5], [[1.0]])

    def test_terminal_set_checked(self, lti_demo_model, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        cfg = MpcConfig(N=2, N_T=5, Q=np.eye(2), R=[[1.0]], X_set=X_set,
                        U_set=U_set, terminal_set=box_polytope(1e-6, 2))
        assert not is_control_sequence_feasible(lti_demo_model, cfg, [5, 0],
                                                np.zeros((2, 1)))

    @pytest.mark.parametrize("shape", [(4, 1), (6,), (5, 2)])
    def test_wrong_sequence_size(self, lti_demo_model, lti_demo_sets, shape):
        with pytest.raises(ShapeError, match=r"U has \d+ entries, expected N m = 5"):
            is_control_sequence_feasible(lti_demo_model, _demo_cfg(lti_demo_sets),
                                         [0, 0], np.zeros(shape))

    @pytest.mark.parametrize("model, x_k", [
        (LtiModel(np.eye(2), np.eye(2)), [0.0, 0.0]),
        (LtiModel([[0.9, 0.2], [-0.4, 0.8]], [[0.1], [0.01]]), [0.0]),
    ], ids=["m=2", "x_k of length 1"])
    def test_dimension_mismatch(self, lti_demo_sets, model, x_k):
        with pytest.raises(ShapeError, match=r"does not match Q and R \(n = 2, m = 1\)"):
            is_control_sequence_feasible(model, _demo_cfg(lti_demo_sets), x_k,
                                         np.zeros((5, 1)))


class TestStateFeasible:
    def test_nonlinear_model_rejected(self, pendulum, lti_demo_sets):
        with pytest.raises(TypeError, match="needs an LtiModel, got NonlinearModel"):
            is_state_feasible(pendulum, _demo_cfg(lti_demo_sets), [0.0, 0.0])

    def test_interior_state(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        report = is_state_feasible(lti_demo_model, cfg, [0, 0])
        assert report.feasible
        assert report.phase1_slack <= 1e-6
        assert report.witness is not None

    def test_uncontrollable_infeasible(self):
        model = LtiModel([[2.0]], [[0.0]])
        cfg = _scalar_cfg(10, 100)
        report = is_state_feasible(model, cfg, [6.0])
        assert not report.feasible
        assert report.witness is None

    def test_controllable_with_witness(self):
        model = LtiModel([[2.0]], [[1.0]])
        cfg = _scalar_cfg(10, 100)
        report = is_state_feasible(model, cfg, [6.0])
        assert report.feasible
        assert -22 - 1e-6 <= report.witness[0, 0] <= -2 + 1e-6

    def test_state_outside_x_immediately_infeasible(self, lti_demo_model,
                                                    lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        report = is_state_feasible(lti_demo_model, cfg, [10.5, 0])
        assert not report.feasible
        assert report.witness is None

    def test_control_horizon(self, lti_demo_model, lti_demo_sets):
        # with N_C = 2 the inputs u_2..u_4 are zero; 0.5 <= u <= 1 excludes
        # them, and lmpc_step finds the state infeasible too
        cfg = _demo_cfg(lti_demo_sets, N_C=2, U_set=Polytope([[1.0], [-1.0]], [1.0, -0.5]))
        assert not is_state_feasible(lti_demo_model, cfg, [5.0, 2.0]).feasible
        with pytest.raises(InfeasibleStepError):
            lmpc_step(lti_demo_model, cfg, [5.0, 2.0])
        report = is_state_feasible(lti_demo_model, _demo_cfg(lti_demo_sets, N_C=2),
                                   [5.0, 2.0])
        assert report.feasible and report.witness.shape == (5, 1)
        assert np.abs(report.witness[2:]).max() == 0.0

    def test_witness_consistency(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = rng.uniform(-9, 9, size=2)
            report = is_state_feasible(lti_demo_model, cfg, x)
            if report.feasible:
                assert is_control_sequence_feasible(
                    lti_demo_model, cfg, x, report.witness, tol=1e-5)

    def test_deep_interior_always_feasible(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        rng = np.random.default_rng(18)
        for _ in range(10):
            x = rng.uniform(-0.5, 0.5, size=2)
            assert is_state_feasible(lti_demo_model, cfg, x).feasible

    def test_phase1_uses_solver_settings(self, lti_demo_model, lti_demo_sets,
                                         monkeypatch):
        iterations = []
        solve_qp = feasibility.solve_qp

        def recording_solve_qp(*args, **kwargs):
            sol = solve_qp(*args, **kwargs)
            iterations.append(sol.iterations)
            return sol

        monkeypatch.setattr(feasibility, "solve_qp", recording_solve_qp)
        cfg = _demo_cfg(lti_demo_sets, settings=SolverSettings(max_iter=5))
        is_state_feasible(lti_demo_model, cfg, [9.9, 9.9])
        assert iterations and max(iterations) <= 5

    def test_phase1_rows_are_condensed_rows(self, lti_demo_model, lti_demo_sets,
                                            monkeypatch):
        problems = []
        solve_qp = feasibility.solve_qp

        def recording_solve_qp(p, **kwargs):
            problems.append(p)
            return solve_qp(p, **kwargs)

        monkeypatch.setattr(feasibility, "solve_qp", recording_solve_qp)
        cfg = _demo_cfg(lti_demo_sets, N_C=2)
        x = np.array([5.0, 2.0])
        is_state_feasible(lti_demo_model, cfg, x)
        pm = build_prediction(lti_demo_model, cfg.N)
        c = stack_constraints(cfg.X_set, cfg.U_set, None, cfg.N)
        F, g0, G = condensed_rows(pm, c, cfg.N_C)
        (p,) = problems
        # (U, s) with F U - s <= g0 - G x_k, then the row -s <= 1
        assert np.array_equal(p.F[:-1, :-1], F) and np.all(p.F[:, -1] == -1.0)
        assert np.array_equal(p.g[:-1], g0 - G @ x) and p.g[-1] == 1.0

    def test_phase1_status_reported(self, lti_demo_model, lti_demo_sets):
        # a 5-iteration cap leaves the slack unconverged at a state that is
        # infeasible (slack 0.39) when the solve runs to optimality
        x = [-9.9, -8.1]
        capped = is_state_feasible(
            lti_demo_model, _demo_cfg(lti_demo_sets, settings=SolverSettings(max_iter=5)), x)
        assert capped.status is QpStatus.MAX_ITERATIONS
        assert capped.feasible  # the verdict rule itself is unchanged
        full = is_state_feasible(lti_demo_model, _demo_cfg(lti_demo_sets), x)
        assert full.status is QpStatus.OPTIMAL
        assert not full.feasible and full.phase1_slack == pytest.approx(0.3909, abs=1e-3)
        outside = is_state_feasible(lti_demo_model, _demo_cfg(lti_demo_sets), [11.0, 0.0])
        assert outside.status is None and not outside.feasible

    def test_monotone_in_horizon(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = float(rng.uniform(1.1, 3.0))
            b = float(rng.uniform(0.0, 0.5))
            model = LtiModel([[a]], [[b]])
            short = MpcConfig(N=2, N_T=6, Q=[[1.0]], R=[[1.0]],
                              X_set=box_polytope(5), U_set=box_polytope(1))
            long = MpcConfig(N=4, N_T=6, Q=[[1.0]], R=[[1.0]],
                             X_set=box_polytope(5), U_set=box_polytope(1))
            x = float(rng.uniform(-5, 5))
            if not is_state_feasible(model, short, [x]).feasible:
                assert not is_state_feasible(model, long, [x]).feasible


class TestPersistentFeasibility:
    def test_demo_trajectory_all_feasible(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets, N_T=20)
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        reports = persistent_feasibility_check(traj, lti_demo_model, cfg)
        assert len(reports) == 21
        assert all(r.feasible for r in reports)

    def test_synthetic_violation_detected(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        traj = Trajectory(states=[np.array([0.0, 0.0]), np.array([11.0, 0.0])])
        reports = persistent_feasibility_check(traj, lti_demo_model, cfg)
        assert reports[0].feasible and not reports[1].feasible

    def test_single_state_trajectory(self, lti_demo_model, lti_demo_sets):
        cfg = _demo_cfg(lti_demo_sets)
        traj = Trajectory(states=[np.array([1.0, 1.0])])
        assert len(persistent_feasibility_check(traj, lti_demo_model, cfg)) == 1


    def test_nonlinear_model_rejected(self, pendulum, lti_demo_sets):
        traj = Trajectory(states=[np.zeros(2)])
        with pytest.raises(TypeError, match="needs an LtiModel, got NonlinearModel"):
            persistent_feasibility_check(traj, pendulum, _demo_cfg(lti_demo_sets))


class TestLyapunovMonitor:
    def test_strictly_decreasing(self):
        report = lyapunov_monitor(Trajectory(costs=[5.0, 3.0, 2.0]))
        assert report.violations == []
        assert report.deltas == [-2.0, -1.0]

    def test_increase_flagged(self):
        report = lyapunov_monitor(Trajectory(costs=[5.0, 6.0, 2.0]))
        assert report.violations == [0]

    def test_noise_below_floor_ignored(self):
        report = lyapunov_monitor(Trajectory(costs=[5.0, 1e-10, 2e-10]))
        assert report.violations == []

    def test_lengths(self):
        report = lyapunov_monitor(Trajectory(costs=[3.0, 1.0]))
        assert len(report.deltas) == len(report.values) - 1
