import numpy as np
import pytest

from mpckit import (NlpProblem, NlpStatus, QpProblem, ShapeError,
                    build_feq, build_feq_jacobian, solve_nlp, solve_qp)
from mpckit.model import LtiModel, NonlinearModel, PendulumParams, pendulum_model, pendulum_step
from mpckit.nlp_solver import SQP_TOL
from mpckit.numerics import finite_diff_jacobian


def _rollout_z(model, x_k, U):
    """Decision vector encoding the exact rollout of U from x_k."""
    X = [np.asarray(x_k, dtype=float)]
    for u in U:
        X.append(np.asarray(model.step(X[-1], np.atleast_1d(u)), dtype=float))
    return np.concatenate([np.concatenate(X), np.ravel(U)])


def _step_only(kind):
    """The forward-Euler pendulum or an n = 3, m = 2 LTI system, as a model
    with a step function and no Jacobians."""
    if kind == "pendulum":
        p = PendulumParams()
        return NonlinearModel(n=2, m=1, step=lambda x, u: pendulum_step(p, x, u))
    lti = LtiModel([[0.9, 0.2, 0.0], [-0.4, 0.8, 0.1], [0.0, 0.3, 1.1]],
                   [[0.1, 0.0], [0.01, 0.2], [0.0, 0.5]])
    return NonlinearModel(n=3, m=2, step=lti.step)


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
        # one step at (x_i, u_i) and one per coordinate of (x_i, u_i), or of
        # x_i alone after the control horizon, where u_i is no decision:
        # (n + m + 1) N_C + (n + 1)(N - N_C) steps, where one residual per
        # column costs (d + 1) N
        plant = _step_only(kind)
        steps = []

        def step(x, u):
            steps.append(1)
            return plant.step(x, u)

        model = NonlinearModel(plant.n, plant.m, step=step)
        x_k = np.full(model.n, 0.5)
        residual, d = build_feq(model, x_k, N, N_C)
        jacobian = build_feq_jacobian(model, N, N_C)
        z = np.linspace(-2.0, 2.0, d)
        steps.clear()
        jacobian(z)
        assert len(steps) == (model.n + model.m + 1) * N_C + (model.n + 1) * (N - N_C)
        if (kind, N) == ("pendulum", 10):
            assert len(steps) == {10: 40, 4: 34}[N_C]
        steps.clear()
        finite_diff_jacobian(residual, z)
        assert len(steps) == (d + 1) * N


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
