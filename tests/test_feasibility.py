import numpy as np
import pytest
import scipy.optimize

from mpckit import (InfeasibleStepError, MpcConfig, ShapeError,
                    SolverSettings, Trajectory, is_control_sequence_feasible, is_state_feasible,
                    lmpc_step, lyapunov_monitor, persistent_feasibility_check,
                    run_closed_loop)
from mpckit import cli, feasibility
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


def _record_linprog(monkeypatch, change=None):
    """Record each linprog call of phase-I; change(res) may alter the result."""
    calls = []
    linprog = scipy.optimize.linprog

    def recording_linprog(cost, **kwargs):
        calls.append((cost, kwargs))
        res = linprog(cost, **kwargs)
        return res if change is None else change(res)

    monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
    return calls


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

    def test_phase1_ignores_solver_settings(self, lti_demo_model, lti_demo_sets):
        # phase-I is an LP solved by HiGHS: the ADMM cap and tolerances do not
        # govern it, and a 5-iteration cap leaves (-9.9, -8.1) infeasible
        x = [-9.9, -8.1]
        capped = is_state_feasible(lti_demo_model, _demo_cfg(
            lti_demo_sets, settings=SolverSettings(max_iter=5, eps_abs=1e-2, eps_rel=1e-2)), x)
        full = is_state_feasible(lti_demo_model, _demo_cfg(lti_demo_sets), x)
        assert capped.conclusive and not capped.feasible
        assert capped.phase1_slack == full.phase1_slack
        assert np.array_equal(capped.certificate, full.certificate)

    def test_phase1_rows_are_condensed_rows(self, lti_demo_model, lti_demo_sets,
                                            monkeypatch):
        calls = _record_linprog(monkeypatch)
        cfg = _demo_cfg(lti_demo_sets, N_C=2)
        x = np.array([5.0, 2.0])
        is_state_feasible(lti_demo_model, cfg, x)
        pm = build_prediction(lti_demo_model, cfg.N)
        c = stack_constraints(cfg.X_set, cfg.U_set, None, cfg.N)
        F, g0, G = condensed_rows(pm, c, cfg.N_C)
        ((cost, kw),) = calls
        # minimize s over (U, s) with F U - s <= g0 - G x_k and s >= -1
        assert np.array_equal(cost, np.append(np.zeros(F.shape[1]), 1.0))
        A = kw["A_ub"]
        assert np.array_equal(A[:, :-1], F) and np.all(A[:, -1] == -1.0)
        assert np.array_equal(kw["b_ub"], g0 - G @ x)
        assert kw["bounds"] == [(None, None)] * F.shape[1] + [(-1.0, None)]
        assert kw["method"] == "highs"

    def test_phase1_status_reported(self, lti_demo_model, lti_demo_sets, monkeypatch):
        cfg = _demo_cfg(lti_demo_sets)
        full = is_state_feasible(lti_demo_model, cfg, [-9.9, -8.1])
        assert full.status == "optimal" and full.conclusive
        assert not full.feasible and full.phase1_slack == pytest.approx(0.3909, abs=1e-3)
        assert is_state_feasible(lti_demo_model, cfg, [0.0, 0.0]).status == "optimal"
        # a state outside X_set is answered without an LP
        calls = _record_linprog(monkeypatch)
        outside = is_state_feasible(lti_demo_model, cfg, [11.0, 0.0])
        assert outside.status is None and outside.conclusive and not outside.feasible
        assert calls == []

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


class TestPhase1Verdicts:
    """Each verdict carries what proves it: a witness that rolls out inside
    the sets, or a certificate y >= 0 with F_U'y = 0 and y'(g0 - G x_k) < 0."""

    def test_grid_verdicts_check_themselves(self):
        demo = cli.demo_config("lmpc-stabilize")
        cfg = demo.mpc
        F, g0, G = condensed_rows(build_prediction(demo.model, cfg.N),
                                  stack_constraints(cfg.X_set, cfg.U_set, None, cfg.N), cfg.N_C)
        verdicts = {True: 0, False: 0}
        for x in np.stack(np.meshgrid(*[np.linspace(-9.75, 9.75, 14)] * 2), -1).reshape(-1, 2):
            report = is_state_feasible(demo.model, cfg, x)
            assert report.conclusive
            verdicts[report.feasible] += 1
            if report.feasible:
                assert report.certificate is None
                assert is_control_sequence_feasible(demo.model, cfg, x, report.witness,
                                                    tol=feasibility.PHASE1_SLACK_TOL)
                continue
            y, b = report.certificate, g0 - G @ x
            assert report.witness is None
            assert np.all(y >= 0.0)
            assert np.abs(F.T @ y).max() <= 1e-9 * y.sum()
            assert y @ b < 0.0
            # strong duality: y'b = -s*
            assert y @ b == pytest.approx(-report.phase1_slack, rel=1e-9)
        assert verdicts[True] > 0 and verdicts[False] > 0

    def test_state_that_capped_admm(self):
        # the LP optimum at (8.5, -9.5); the ADMM phase-I stopped at its
        # 20,000-iteration cap here, at 1.0181
        demo = cli.demo_config("lmpc-stabilize")
        report = is_state_feasible(demo.model, demo.mpc, [8.5, -9.5])
        assert report.conclusive and not report.feasible
        assert report.phase1_slack == pytest.approx(1.0190, abs=1e-4)
        assert report.certificate is not None

    @pytest.mark.parametrize("x, change, status", [
        ([-9.9, -8.1], None, "iteration_limit"),
        ([9.0, 9.0], None, "iteration_limit"),
        # changes to the marginals mu = -y; the last three each break one check
        ([-9.9, -8.1], lambda mu: -mu, "certificate_rejected"),
        # y_0 = -1 on row 0 (x_0 in X_set), which has no input columns
        ([8.5, -9.5], lambda mu: np.where(np.arange(mu.size) == 0, 1.0, mu),
         "certificate_rejected"),
        # y grows by 0.5 on the last row, -u_4 <= 1: F_U'y = (0, ..., 0, -0.5)
        # and y'b = -1.019 + 0.5
        ([8.5, -9.5], lambda mu: mu - 0.5 * (np.arange(mu.size) == mu.size - 1),
         "certificate_rejected"),
        ([8.5, -9.5], lambda mu: 0.0 * mu, "certificate_rejected"),
        ([0.0, 0.0], "witness", "witness_rejected"),
    ], ids=["capped-infeasible", "capped-feasible", "negated", "negative-entry",
            "input-row", "zeroed", "witness"])
    def test_unchecked_verdict_not_conclusive(self, lti_demo_model, lti_demo_sets,
                                              monkeypatch, x, change, status):
        def tamper(res):
            if change == "witness":
                res.x[0] += 5.0   # u_0 leaves |u| <= 1
            else:
                res.ineqlin.marginals = change(res.ineqlin.marginals)
            return res

        if change is None:
            # HiGHS itself, stopped after one simplex iteration
            real = scipy.optimize.linprog
            monkeypatch.setattr(scipy.optimize, "linprog",
                                lambda cost, **kw: real(cost, options={"maxiter": 1}, **kw))
        else:
            _record_linprog(monkeypatch, tamper)
        report = is_state_feasible(lti_demo_model, _demo_cfg(lti_demo_sets), x)
        assert report.status == status and not report.conclusive
        assert not report.feasible
        assert report.witness is None and report.certificate is None


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

    def test_rows_built_once_per_trajectory(self, lti_demo_model, lti_demo_sets,
                                            monkeypatch):
        builds = []
        build = feasibility.build_prediction

        def counting_build(*args):
            builds.append(1)
            return build(*args)

        monkeypatch.setattr(feasibility, "build_prediction", counting_build)
        cfg = _demo_cfg(lti_demo_sets, N_T=20)
        traj = run_closed_loop(lti_demo_model, cfg, [10.0, 5.0])
        builds.clear()
        reports = persistent_feasibility_check(traj, lti_demo_model, cfg)
        assert len(reports) == 21 and builds == [1]
        builds.clear()
        is_state_feasible(lti_demo_model, cfg, [11.0, 0.0])
        assert builds == []

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
