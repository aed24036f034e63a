import math

import numpy as np
import pytest

from mpckit import ShapeError, SingularMatrixError, SteadyStateError
from mpckit.model import (LtiModel, NonlinearModel, PendulumParams, Polytope,
                          box_polytope, empty_polytope, lti_as_nonlinear,
                          lti_step, pendulum_model, pendulum_step,
                          polytope_contains, steady_state_input_lti,
                          steady_state_input_nonlinear)


class TestTypes:
    def test_lti_dimensions(self, lti_demo_model):
        assert lti_demo_model.n == 2
        assert lti_demo_model.m == 1

    def test_lti_rejects_nonsquare_a(self):
        with pytest.raises(ShapeError):
            LtiModel([[1, 0]], [[1]])

    def test_lti_rejects_mismatched_b(self):
        with pytest.raises(ShapeError):
            LtiModel(np.eye(2), [[1]])

    def test_nonlinear_rejects_bad_dims(self):
        with pytest.raises(ShapeError):
            NonlinearModel(n=0, m=1, step=lambda x, u: x)

    def test_pendulum_params_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(M=0.0)
        with pytest.raises(ValueError):
            PendulumParams(T=-0.1)

    def test_polytope_row_mismatch(self):
        with pytest.raises(ShapeError):
            Polytope([[1, 0]], [1, 2])

    def test_box_and_empty(self):
        P = box_polytope(10, dim=2)
        assert P.rows == 4 and P.dim == 2
        E = empty_polytope(3)
        assert E.rows == 0 and E.dim == 3
        assert polytope_contains(E, [100, 0, -5])


class TestLtiModel:
    def test_nonlinear_interface(self, lti_demo_model):
        rng = np.random.default_rng(0)
        wrapped = lti_as_nonlinear(lti_demo_model)
        for _ in range(20):
            x, u = rng.normal(size=2), rng.normal(size=1)
            expected = lti_step(lti_demo_model, x, u)
            assert np.array_equal(lti_demo_model.step(x, u), expected)
            assert np.array_equal(wrapped.step(x, u), expected)
            assert np.array_equal(lti_demo_model.jac_x(x, u), lti_demo_model.A)
            assert np.array_equal(lti_demo_model.jac_u(x, u), lti_demo_model.B)


class TestLtiStep:
    def test_demo_free_response(self, lti_demo_model):
        assert np.allclose(lti_step(lti_demo_model, [10, 5], [0]), [10, 0])

    def test_origin(self, lti_demo_model):
        assert np.allclose(lti_step(lti_demo_model, [0, 0], [0]), [0, 0])

    def test_forced_response(self, lti_demo_model):
        assert np.allclose(lti_step(lti_demo_model, [0, 0], [1]), [0.1, 0.01])

    def test_shape_errors(self, lti_demo_model):
        with pytest.raises(ShapeError):
            lti_step(lti_demo_model, [1, 2, 3], [0])
        with pytest.raises(ShapeError):
            lti_step(lti_demo_model, [1, 2], [0, 0])

    def test_stacked_stages_have_the_bits_of_each_stage(self, lti_12_4):
        # A @ x per stage, not x @ A.T, whose bits differ
        model = lti_12_4[0]
        rng = np.random.default_rng(29)
        X, U = rng.normal(size=(20, 12)), rng.normal(size=(20, 4))
        stages = np.array([model.A @ x + model.B @ u for x, u in zip(X, U)])
        assert model.step(X, U).tobytes() == stages.tobytes()
        assert model.step(X[0], U[0]).tobytes() == stages[0].tobytes()
        assert model.step(X.reshape(4, 5, 12), U.reshape(4, 5, 4)).shape == (4, 5, 12)
        assert np.array_equal(model.jac_x(X, U), np.broadcast_to(model.A, (20, 12, 12)))
        assert np.array_equal(model.jac_u(X, U), np.broadcast_to(model.B, (20, 12, 4)))


class TestPendulumModel:
    def test_stacked_stages_have_the_bits_of_each_stage(self, pendulum):
        rng = np.random.default_rng(29)
        X, U = rng.uniform(-3.0, 3.0, (30, 2)), rng.uniform(-5.0, 5.0, (30, 1))
        for f in (pendulum.step, pendulum.jac_x, pendulum.jac_u):
            stages = np.array([f(x, u) for x, u in zip(X, U)])
            assert f(X, U).tobytes() == stages.tobytes()
        # the step of one state: the forward-Euler map with math.sin
        p = PendulumParams()
        for x, u in zip(X, U):
            expect = [x[0] + p.T * x[1], x[1] + p.T * (-p.g_grav * math.sin(x[0]) - x[1] + u[0])]
            assert pendulum.step(x, u).tolist() == expect

    def test_wrong_dimension_rejected(self, pendulum):
        with pytest.raises(ShapeError, match="state has dimension 3"):
            pendulum.step(np.zeros((4, 3)), np.zeros((4, 1)))
        with pytest.raises(ShapeError, match="input has dimension 2"):
            pendulum.step(np.zeros(2), np.zeros(2))


class TestPendulumStep:
    def test_equilibrium(self):
        p = PendulumParams()
        assert np.allclose(pendulum_step(p, [0, 0], [0]), [0, 0])

    def test_from_initial_condition(self):
        p = PendulumParams()
        out = pendulum_step(p, [2, 1], [0])
        assert abs(out[0] - 2.1) < 1e-12
        assert abs(out[1] - 0.00889) < 1e-4

    def test_near_fixed_point_at_reference(self):
        p = PendulumParams()
        out = pendulum_step(p, [0.5, 0], [4.69])
        assert np.abs(out - [0.5, 0]).max() < 2e-3

    def test_exact_fixed_point(self):
        p = PendulumParams()
        u = p.M * p.g_grav * p.l * math.sin(0.5)
        out = pendulum_step(p, [0.5, 0], [u])
        assert np.abs(out - [0.5, 0]).max() < 1e-12

    def test_wrapped_model_jacobians_match_finite_differences(self):
        from mpckit.numerics import finite_diff_jacobian
        model = pendulum_model()
        x = np.array([0.7, -0.3])
        u = np.array([1.2])
        Jx = finite_diff_jacobian(lambda v: model.step(v, u), x)
        Ju = finite_diff_jacobian(lambda v: model.step(x, v), u)
        assert np.abs(model.jac_x(x, u) - Jx).max() < 1e-6
        assert np.abs(model.jac_u(x, u) - Ju).max() < 1e-6


class TestPolytopeContains:
    def test_boundary_point(self):
        box = box_polytope(10, dim=2)
        assert polytope_contains(box, [10, 5])

    def test_outside(self):
        box = box_polytope(10, dim=2)
        assert not polytope_contains(box, [10.5, 0], tol=1e-9)

    def test_interior(self):
        box = box_polytope(10, dim=2)
        assert polytope_contains(box, [0, 0])

    def test_monotone_in_tol(self):
        box = box_polytope(1, dim=2)
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.uniform(-1.5, 1.5, size=2)
            t1, t2 = sorted(rng.uniform(0, 0.5, size=2))
            if polytope_contains(box, v, t1):
                assert polytope_contains(box, v, t2)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            polytope_contains(box_polytope(1, dim=2), [1, 2, 3])

    def test_stacked_points(self):
        # every point is tested with the bits of its own F v
        rng = np.random.default_rng(29)
        P = Polytope(rng.normal(size=(7, 3)), rng.uniform(0.5, 1.0, 7))
        V = rng.uniform(-0.4, 0.4, (50, 3))
        inside = [polytope_contains(P, v) for v in V]
        assert 0 < sum(inside) < len(V)
        assert polytope_contains(P, V) is all(inside)
        assert polytope_contains(P, V[np.array(inside)]) is True
        assert polytope_contains(P, V.reshape(5, 10, 3)) is False
        assert polytope_contains(empty_polytope(3), V) is True
        with pytest.raises(ShapeError):
            polytope_contains(P, V[:, :2])


class TestSteadyStateLti:
    def test_demo_reference(self, lti_demo_model):
        u_r = steady_state_input_lti(lti_demo_model, [3, 2])
        assert abs(u_r[0] - 0.59) < 5e-3

    def test_origin(self, lti_demo_model):
        assert np.allclose(steady_state_input_lti(lti_demo_model, [0, 0]), [0])

    def test_scalar(self):
        model = LtiModel([[0.5]], [[1.0]])
        assert np.allclose(steady_state_input_lti(model, [4]), [2])

    def test_zero_b_rejected(self):
        model = LtiModel([[0.5]], [[0.0]])
        with pytest.raises(SingularMatrixError):
            steady_state_input_lti(model, [1])

    def test_least_squares_optimality_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            model = LtiModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
            x_r = rng.normal(size=n)
            u_r = steady_state_input_lti(model, x_r)
            rhs = (np.eye(n) - model.A) @ x_r
            expect = np.linalg.lstsq(model.B, rhs, rcond=None)[0]
            assert abs(np.linalg.norm(model.B @ u_r - rhs)
                       - np.linalg.norm(model.B @ expect - rhs)) < 1e-8


class TestSteadyStateNonlinear:
    def test_pendulum_reference(self, pendulum):
        u_r = steady_state_input_nonlinear(pendulum, [0.5, 0])
        assert abs(u_r[0] - 4.6974) < 1e-2

    def test_unforced_equilibrium(self, pendulum):
        assert np.abs(steady_state_input_nonlinear(pendulum, [0, 0])).max() < 1e-8

    def test_horizontal(self, pendulum):
        u_r = steady_state_input_nonlinear(pendulum, [math.pi / 2, 0])
        assert abs(u_r[0] - 9.8) < 1e-4

    def test_finite_difference_fallback(self):
        p = PendulumParams()
        model = NonlinearModel(n=2, m=1, step=lambda x, u: pendulum_step(p, x, u))
        u_r = steady_state_input_nonlinear(model, [0.5, 0])
        assert abs(u_r[0] - 4.6984) < 1e-2

    def test_unreachable_reference_raises(self, pendulum):
        # no constant torque holds a nonzero angular velocity
        with pytest.raises(SteadyStateError) as err:
            steady_state_input_nonlinear(pendulum, [0.0, 1.0])
        assert err.value.residual > 0

    def test_lti_wrapper_consistency(self, lti_demo_model):
        # x_r = (I - A)^{-1} B is the exact steady state for u = 1
        x_r = np.linalg.solve(np.eye(2) - lti_demo_model.A,
                              lti_demo_model.B[:, 0])
        wrapped = lti_as_nonlinear(lti_demo_model)
        u_nl = steady_state_input_nonlinear(wrapped, x_r)
        u_lin = steady_state_input_lti(lti_demo_model, x_r)
        assert abs(u_nl[0] - 1.0) < 1e-6
        assert abs(u_lin[0] - 1.0) < 1e-6
