import math
from dataclasses import replace

import numpy as np
import pytest

from mpckit import (MpcConfig, NlpProblem, NlpStatus, QpProblem, ShapeError,
                    build_feq, build_feq_jacobian, lti_as_nonlinear, nmpc_step,
                    run_closed_loop, solve_nlp, solve_qp, tracking_transform)
from mpckit.model import LtiModel, NonlinearModel, PendulumParams, pendulum_model, pendulum_step
from mpckit.nlp_solver import SQP_TOL
from mpckit.numerics import finite_diff_jacobian


def _rollout_z(model, x_k, U):
    """Decision vector encoding the exact rollout of U from x_k."""
    X = [np.asarray(x_k, dtype=float)]
    for u in U:
        X.append(np.asarray(model.step(X[-1], np.atleast_1d(u)), dtype=float))
    return np.concatenate([np.concatenate(X), np.ravel(U)])


LTI_3_2 = LtiModel([[0.9, 0.2, 0.0], [-0.4, 0.8, 0.1], [0.0, 0.3, 1.1]],
                   [[0.1, 0.0], [0.01, 0.2], [0.0, 0.5]])


def _step_only(kind):
    """The forward-Euler pendulum or an n = 3, m = 2 LTI system, as a model
    with a step function and no Jacobians."""
    if kind == "pendulum":
        p = PendulumParams()
        return NonlinearModel(n=2, m=1, step=lambda x, u: pendulum_step(p, x, u))
    return NonlinearModel(n=3, m=2, step=LTI_3_2.step)


class TestBuildFeq:
    def test_consistent_trajectory_has_zero_residual(self, pendulum):
        rng = np.random.default_rng(14)
        U = rng.uniform(0, 0.1, size=(3, 1))
        residual, d = build_feq(pendulum, [2, 1], 3)
        z = _rollout_z(pendulum, [2, 1], U)
        assert z.shape == (d,)
        assert np.abs(residual(z)).max() < 1e-12

    def test_initial_block_mismatch(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 2)
        z = _rollout_z(pendulum, [3, 1], np.zeros((2, 1)))
        assert np.allclose(residual(z)[:2], [1, 0])

    def test_dynamics_block_value(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 1)
        z = np.array([2.0, 1.0, 0.0, 0.0, 0.0])  # X0=x_k, X1=0, u=0
        expect = -pendulum_step(PendulumParams(), [2, 1], [0])
        block = residual(z)[2:4]
        assert np.abs(block - expect).max() < 1e-12
        assert abs(block[0] + 2.1) < 1e-12
        assert abs(block[1] + 0.00889) < 1e-4

    def test_wrong_length_rejected(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 2)
        with pytest.raises(ShapeError):
            residual(np.zeros(d + 1))

    def test_analytic_jacobian_matches_finite_differences(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 3)
        jacobian = build_feq_jacobian(pendulum, 3)
        rng = np.random.default_rng(15)
        z = rng.normal(size=d)
        assert np.abs(jacobian(z) - finite_diff_jacobian(residual, z)).max() < 1e-6

    def test_control_horizon(self, pendulum):
        # z ends in the first N_C inputs; the later ones are zero
        x_k = np.array([0.3, -0.2])
        z = _rollout_z(pendulum, x_k, [0.4, -0.1, 0.0, 0.0])
        d_full, d = 2 * 5 + 4, 2 * 5 + 2
        residual, dim = build_feq(pendulum, x_k, 4, N_C=2)
        full, _ = build_feq(pendulum, x_k, 4)
        assert dim == d
        assert np.array_equal(residual(z[:d]), full(z))
        J = build_feq_jacobian(pendulum, 4, N_C=2)(z[:d])
        J_full = build_feq_jacobian(pendulum, 4)(z)
        assert J_full.shape == (10, d_full)
        assert np.array_equal(J, J_full[:, :d])

    @pytest.mark.parametrize("N, N_C", [(1, 1), (2, 1), (3, 2), (10, 10), (10, 4)])
    @pytest.mark.parametrize("kind", ["pendulum", "lti"])
    def test_derivative_free_jacobian_matches_finite_differences(self, kind, N, N_C):
        # stage i's blocks are -finite_diff_jacobian of model.step at
        # (x_i, u_i), bit for bit; the identity blocks are exact
        model = _step_only(kind)
        n, m = model.n, model.m
        rng = np.random.default_rng(17)
        x_k = rng.uniform(-2.0, 2.0, n)
        _, d = build_feq(model, x_k, N, N_C)
        # |z_c| below 1 in every third entry and above 1 elsewhere, so that
        # h = sqrt(eps) max(1, |z_c|) differs between columns
        scale = np.where(np.arange(d) % 3 == 0, 0.5, 4.0)
        z = rng.choice([-1.0, 1.0], d) * scale * rng.uniform(0.5, 1.0, d)
        J = build_feq_jacobian(model, N, N_C)(z)
        nX = n * (N + 1)
        assert J.shape == (nX, d)
        X = z[:nX].reshape(N + 1, n)
        U = np.zeros((N, m))
        U[:N_C] = z[nX:].reshape(N_C, m)
        rest = J.copy()
        rest[:n, :n] = 0.0
        assert J[:n, :n].tobytes() == np.eye(n).tobytes()
        for i in range(N):
            rows = slice((i + 1) * n, (i + 2) * n)
            D = finite_diff_jacobian(lambda v: model.step(v[:n], v[n:]),
                                     np.concatenate([X[i], U[i]]))
            blocks = [(rows, np.eye(n)), (slice(i * n, (i + 1) * n), -D[:, :n])]
            if i < N_C:
                blocks.append((slice(nX + i * m, nX + (i + 1) * m), -D[:, n:]))
            for cols, expect in blocks:
                assert J[rows, cols].tobytes() == expect.tobytes()
                rest[rows, cols] = 0.0
        assert not rest.any()

    @pytest.mark.parametrize("N, N_C", [(2, 2), (10, 10), (10, 4)])
    @pytest.mark.parametrize("kind", ["pendulum", "lti"])
    def test_derivative_free_jacobian_step_count(self, kind, N, N_C):
        # one horizon step at (X, U) and one per coordinate of (x_i, u_i),
        # moved at every stage at once: n + m + 1 horizon steps and no
        # stagewise ones, where one residual per column costs d + 1; the
        # first call also checks the model against N stagewise steps
        plant = _step_only(kind)
        steps = []

        def step(x, u):
            steps.append(np.ndim(x))
            return plant.step(x, u)

        model = NonlinearModel(plant.n, plant.m, step=step)
        x_k = np.full(model.n, 0.5)
        residual, d = build_feq(model, x_k, N, N_C)
        jacobian = build_feq_jacobian(model, N, N_C)
        z = np.linspace(-2.0, 2.0, d)
        jacobian(z)
        assert sorted(steps) == [1] * N + [2] * (model.n + model.m + 2)
        for _ in range(2):
            steps.clear()
            jacobian(z)
            assert steps == [2] * (model.n + model.m + 1)
        if kind == "pendulum":
            assert len(steps) == 4
        steps.clear()
        finite_diff_jacobian(residual, z)
        assert steps == [2] * (d + 1)


def _stagewise_residual(model, x_k, N, N_C, z):
    """build_feq's residual from one model.step call per stage."""
    n, m = model.n, model.m
    nX = n * (N + 1)
    X = z[:nX].reshape(N + 1, n)
    U = np.zeros((N, m))
    U[:N_C] = z[nX:].reshape(N_C, m)
    blocks = [X[0] - x_k] + [X[i + 1] - model.step(X[i], U[i]) for i in range(N)]
    return np.concatenate(blocks)


def _stagewise_jacobian(model, N, N_C, z):
    """build_feq_jacobian's Jacobian from one jac_x and one jac_u call per
    stage, or from finite_diff_jacobian of one model.step per stage."""
    n, m = model.n, model.m
    nX = n * (N + 1)
    X = z[:nX].reshape(N + 1, n)
    U = np.zeros((N, m))
    U[:N_C] = z[nX:].reshape(N_C, m)
    J = np.zeros((nX, nX + m * N_C))
    J[:, :nX] = np.eye(nX)
    for i in range(N):
        if model.jac_x is not None:
            A, B = model.jac_x(X[i], U[i]), model.jac_u(X[i], U[i])
        else:
            D = finite_diff_jacobian(lambda v: model.step(v[:n], v[n:]),
                                     np.concatenate([X[i], U[i]]))
            A, B = D[:, :n], D[:, n:]
        rows = slice((i + 1) * n, (i + 2) * n)
        J[rows, i * n:(i + 1) * n] = -A
        if i < N_C:
            J[rows, nX + i * m:nX + (i + 1) * m] = -B
    return J


def _tracking_pendulum(p):
    cfg = MpcConfig(N=5, N_T=5, Q=np.eye(2), R=[[1.0]])
    return tracking_transform(cfg, pendulum_model(p), [0.3, 0.0])[2]


class TestStackedStages:
    @pytest.mark.parametrize("N, N_C", [(1, 1), (2, 2), (10, 10), (10, 4)])
    @pytest.mark.parametrize("kind", ["pendulum", "pendulum-fd", "lti-as-nonlinear",
                                      "tracking", "tracking-fd"])
    def test_bits_of_stagewise_reference(self, kind, N, N_C):
        # one horizon evaluation gives the bits of one call per stage
        p = PendulumParams()
        model = {"pendulum": lambda: pendulum_model(p),
                 "pendulum-fd": lambda: replace(pendulum_model(p), jac_x=None, jac_u=None),
                 "lti-as-nonlinear": lambda: lti_as_nonlinear(LTI_3_2),
                 "tracking": lambda: _tracking_pendulum(p),
                 "tracking-fd": lambda: replace(_tracking_pendulum(p), jac_x=None, jac_u=None),
                 }[kind]()
        rng = np.random.default_rng(29)
        x_k = rng.uniform(-1.0, 1.0, model.n)
        residual, d = build_feq(model, x_k, N, N_C)
        jacobian = build_feq_jacobian(model, N, N_C)
        for _ in range(3):
            z = rng.choice([-1.0, 1.0], d) * rng.uniform(0.2, 3.0, d)
            assert residual(z).tobytes() == _stagewise_residual(model, x_k, N, N_C, z).tobytes()
            assert jacobian(z).tobytes() == _stagewise_jacobian(model, N, N_C, z).tobytes()

    @staticmethod
    def _per_stage(sin, analytic):
        """The pendulum as a model written for one stage: x[0], and math.sin
        or np.sin."""
        p = PendulumParams()

        def step(x, u):
            return np.array([x[0] + p.T * x[1],
                             x[1] + p.T * (-p.g_grav * sin(x[0]) - x[1] + u[0])])

        def jac_x(x, u):
            return np.array([[1.0, p.T], [-p.T * p.g_grav * math.cos(x[0]), 1.0 - p.T]])

        if not analytic:
            return NonlinearModel(n=2, m=1, step=step)
        return NonlinearModel(n=2, m=1, step=step, jac_x=jac_x,
                              jac_u=lambda x, u: np.array([[0.0], [p.T]]))

    @pytest.mark.parametrize("analytic", [True, False], ids=["analytic", "fd"])
    @pytest.mark.parametrize("sin", [math.sin, np.sin], ids=["math", "numpy"])
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_per_stage_model_rejected(self, pendulum_sets, sin, analytic, N):
        # N = n = 2 with np.sin: the per-stage step gives the (N, n) shape
        model = self._per_stage(sin, analytic)
        X_set, U_set = pendulum_sets
        cfg = MpcConfig(N=N, N_T=N, Q=np.eye(2), R=[[1.0]], X_set=X_set, U_set=U_set)
        # the stagewise model itself is right, one state at a time
        x, u = np.array([0.6, -0.4]), np.array([0.05])
        assert np.allclose(model.step(x, u), pendulum_model().step(x, u), rtol=1e-15)
        with pytest.raises(ShapeError, match="stacked stages"):
            nmpc_step(model, cfg, x)
        with pytest.raises(ShapeError, match="stacked stages"):
            run_closed_loop(model, cfg, x)
        residual, d = build_feq(model, x, N)
        with pytest.raises(ShapeError, match="stacked stages"):
            build_feq_jacobian(model, N)(np.linspace(-1.0, 1.0, d))

    def test_readme_custom_model(self, pendulum_sets):
        # the README's custom model, as it is written there
        step = lambda x, u: np.stack([x[..., 0] + 0.1 * x[..., 1], x[..., 1] + 0.1 * (u[..., 0] - np.sin(x[..., 0]))], axis=-1)  # noqa: E501, E731
        model = NonlinearModel(n=2, m=1, step=step)
        X_set, U_set = pendulum_sets
        cfg = MpcConfig(N=5, N_T=5, Q=np.eye(2), R=[[1.0]], X_set=X_set, U_set=U_set)
        traj = run_closed_loop(model, cfg, [0.5, 0.0])
        assert all(s is NlpStatus.OPTIMAL for s in traj.statuses)


class TestSolveNlp:
    def test_affine_residual_matches_qp(self):
        rng = np.random.default_rng(16)
        M = rng.normal(size=(3, 3))
        H = M @ M.T + 0.5 * np.eye(3)
        q = rng.normal(size=3)
        F_eq = rng.normal(size=(1, 3))
        g_eq = rng.normal(size=1)
        qp_sol = solve_qp(QpProblem(H=H, q=q, F_eq=F_eq, g_eq=g_eq))
        nlp = NlpProblem(H=H, q=q, residual=lambda z: F_eq @ z - g_eq)
        nlp_sol = solve_nlp(nlp, np.zeros(3))
        assert abs(nlp_sol.objective - qp_sol.objective) <= 1e-6

    def test_hyperbola_constraint(self):
        nlp = NlpProblem(H=np.eye(2),
                         residual=lambda z: np.array([z[0] * z[1] - 1.0]))
        sol = solve_nlp(nlp, np.array([2.0, 0.4]))
        assert sol.status is NlpStatus.OPTIMAL
        assert np.abs(sol.z_star - [1, 1]).max() < 1e-5
        assert abs(sol.objective - 2.0) < 1e-6

    def test_equilibrium_subproblem(self, pendulum):
        residual, d = build_feq(pendulum, [0, 0], 3)
        jacobian = build_feq_jacobian(pendulum, 3)
        nX = 2 * 4
        F = np.zeros((2 * 3, d))
        g = np.zeros(2 * 3)
        for i in range(3):  # 0 <= u_i <= 0.1
            F[2 * i, nX + i] = 1.0
            g[2 * i] = 0.1
            F[2 * i + 1, nX + i] = -1.0
        nlp = NlpProblem(H=np.eye(d), F=F, g=g, residual=residual,
                         jacobian=jacobian)
        sol = solve_nlp(nlp, np.zeros(d))
        assert np.abs(sol.z_star).max() < 1e-6

    def test_optimal_satisfies_constraints(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 4)
        jacobian = build_feq_jacobian(pendulum, 4)
        nX = 2 * 5
        F = np.zeros((2 * 4, d))
        g = np.zeros(2 * 4)
        for i in range(4):
            F[2 * i, nX + i] = 1.0
            g[2 * i] = 0.1
            F[2 * i + 1, nX + i] = -1.0
        nlp = NlpProblem(H=np.eye(d), F=F, g=g, residual=residual,
                         jacobian=jacobian)
        z0 = np.concatenate([np.tile([2.0, 1.0], 5), np.zeros(4)])
        sol = solve_nlp(nlp, z0)
        assert sol.eq_violation <= 1e-6
        assert float(np.max(F @ sol.z_star - g)) <= 1e-6

    def test_merit_non_increasing(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 4)
        nlp = NlpProblem(H=np.eye(d), residual=residual)
        z0 = np.concatenate([np.tile([2.0, 1.0], 5), np.zeros(4)])
        sol = solve_nlp(nlp, z0)
        assert sol.merit_history
        for before, after in sol.merit_history:
            assert after <= before + 1e-10

    def test_analytic_vs_finite_difference_jacobian(self, pendulum):
        residual, d = build_feq(pendulum, [2, 1], 4)
        jacobian = build_feq_jacobian(pendulum, 4)
        z0 = np.concatenate([np.tile([2.0, 1.0], 5), np.zeros(4)])
        with_jac = solve_nlp(NlpProblem(H=np.eye(d), residual=residual,
                                        jacobian=jacobian), z0)
        without = solve_nlp(NlpProblem(H=np.eye(d), residual=residual), z0)
        assert np.abs(with_jac.z_star - without.z_star).max() < 1e-4

    def test_elastic_relaxation_on_inconsistent_linearization(self):
        # equality pins z = 5 while the inequality demands z <= 0: every
        # linearized subproblem is infeasible and the elastic path engages
        nlp = NlpProblem(H=[[1.0]], F=[[1.0]], g=[0.0],
                         residual=lambda z: np.array([z[0] - 5.0]))
        sol = solve_nlp(nlp, np.zeros(1))
        assert sol.elastic_used

    def test_elastic_penalty_from_equality_multipliers(self):
        # the first subproblem is infeasible; the merit penalty comes from
        # the multipliers of the linearized equalities, not of the elastic
        # slack rows, which would give a first merit of 280000
        nlp = NlpProblem(H=np.eye(2), F=[[1.0, 1.0], [-1.0, 0.0]], g=[1.0, 0.0],
                         residual=lambda z: np.array([z[0] ** 2 + z[1] - 4.0,
                                                      z[0] - z[1] - 3.0]))
        sol = solve_nlp(nlp, np.zeros(2))
        assert sol.elastic_used
        assert sol.merit_history[0] == pytest.approx((140000.0000014, 20005.0000002),
                                                     rel=1e-12)

    def test_empty_inequality_block(self):
        residual = lambda z: np.array([z[0] * z[1] - 1.0])
        none = solve_nlp(NlpProblem(H=np.eye(2), residual=residual), np.array([2.0, 0.4]))
        empty = solve_nlp(NlpProblem(H=np.eye(2), F=np.zeros((0, 2)), g=np.zeros(0),
                                     residual=residual), np.array([2.0, 0.4]))
        assert empty.status is NlpStatus.OPTIMAL
        assert np.array_equal(empty.z_star, none.z_star)

    def test_small_step_not_optimal_while_equalities_violated(self):
        # the steep residual 1e18 z^3 makes steps below STEP_TOL long before
        # the residual falls below SQP_TOL
        nlp = NlpProblem(H=[[1.0]], residual=lambda z: np.array([1e18 * z[0] ** 3]),
                         jacobian=lambda z: np.array([[3e18 * z[0] ** 2]]))
        sol = solve_nlp(nlp, np.array([1e-7]))
        assert sol.status is NlpStatus.OPTIMAL
        assert sol.eq_violation <= SQP_TOL

    @pytest.mark.parametrize("H, q", [(np.eye(2), [1.0, 2.0, 3.0]),
                                      ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], None)],
                             ids=["q_length", "H_not_square"])
    def test_cost_shape_rejected(self, H, q):
        # both problem classes check their cost the same way
        with pytest.raises(ShapeError):
            QpProblem(H=H, q=q)
        with pytest.raises(ShapeError):
            NlpProblem(H=H, q=q, residual=lambda z: z)

    def test_missing_residual_rejected(self):
        with pytest.raises(ShapeError):
            NlpProblem(H=np.eye(2))

    def test_wrong_z0_length(self):
        nlp = NlpProblem(H=np.eye(2), residual=lambda z: np.zeros(1))
        with pytest.raises(ShapeError):
            solve_nlp(nlp, np.zeros(3))
