import numpy as np
import pytest
import scipy.linalg

from mpckit import ShapeError, SingularMatrixError
from mpckit.numerics import block_diag, finite_diff_jacobian, pseudo_inverse_apply


class TestBlockDiag:
    def test_matches_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            # sizes from 0: blocks with no rows or no columns included
            blocks = [rng.normal(size=tuple(rng.integers(0, 4, size=2)))
                      for _ in range(int(rng.integers(1, 6)))]
            assert np.array_equal(block_diag(*blocks), scipy.linalg.block_diag(*blocks))

    def test_empty_row_block(self):
        out = block_diag(np.zeros((0, 3)), -np.eye(2))
        assert np.array_equal(out, scipy.linalg.block_diag(np.zeros((0, 3)), -np.eye(2)))
        assert out.shape == (2, 5)


class TestPseudoInverseApply:
    def test_exactly_solvable(self):
        assert np.allclose(pseudo_inverse_apply([[1], [0]], [5, 0]), [5])

    def test_tall_least_squares(self):
        out = pseudo_inverse_apply([[0.1], [0.01]], [-0.1, 1.6])
        assert abs(out[0] - 0.5941) < 1e-3

    def test_identity(self):
        assert np.allclose(pseudo_inverse_apply(np.eye(2), [3, 2]), [3, 2])

    def test_zero_matrix(self):
        with pytest.raises(SingularMatrixError):
            pseudo_inverse_apply([[0.0], [0.0]], [1, 2])

    def test_matches_lstsq_on_full_column_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows = int(rng.integers(2, 8))
            cols = int(rng.integers(1, rows + 1))
            M = rng.normal(size=(rows, cols))
            b = rng.normal(size=rows)
            expect = np.linalg.lstsq(M, b, rcond=None)[0]
            got = pseudo_inverse_apply(M, b)
            assert np.abs(got - expect).max() <= 1e-9 * max(1.0, np.abs(expect).max())

    def test_rank_deficient_falls_back(self):
        # column space is one-dimensional; the normal equations are singular
        M = np.array([[1.0, 1.0], [1.0, 1.0]])
        got = pseudo_inverse_apply(M, [2.0, 2.0])
        assert np.allclose(M @ got, [2.0, 2.0])


class TestFiniteDiffJacobian:
    def test_identity_map(self):
        J = finite_diff_jacobian(lambda z: z, np.array([1.0, 2.0]))
        assert np.abs(J - np.eye(2)).max() < 1e-7

    def test_product(self):
        J = finite_diff_jacobian(lambda z: np.array([z[0] * z[1]]),
                                 np.array([2.0, 3.0]))
        assert np.abs(J - [[3.0, 2.0]]).max() < 1e-5

    def test_square(self):
        J = finite_diff_jacobian(lambda z: np.array([z[0] ** 2]), np.array([1.0]))
        assert abs(J[0, 0] - 2.0) < 1e-6

    def test_polynomial_random_points(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = rng.uniform(-10, 10, size=3)

            def f(v):
                return np.array([v[0] ** 2 + v[1], v[1] * v[2], v[2] ** 3])

            analytic = np.array([
                [2 * z[0], 1.0, 0.0],
                [0.0, z[2], z[1]],
                [0.0, 0.0, 3 * z[2] ** 2],
            ])
            J = finite_diff_jacobian(f, z)
            assert np.abs(J - analytic).max() < 1e-5

    def test_stacked_points_have_the_bits_of_each_point(self):
        # k + 1 calls of f for all points, |z| above and below 1
        rng = np.random.default_rng(29)
        Z = rng.choice([-1.0, 1.0], (6, 3)) * rng.uniform(0.1, 4.0, (6, 3))
        calls = []

        def f(v):
            calls.append(v.shape)
            return np.stack([v[..., 0] ** 2 + v[..., 1], np.sin(v[..., 1] * v[..., 2])], axis=-1)

        J = finite_diff_jacobian(f, Z)
        assert calls == [(6, 3)] * 4
        assert J.shape == (6, 2, 3)
        for z, Jz in zip(Z, J):
            assert Jz.tobytes() == finite_diff_jacobian(f, z).tobytes()

    def test_output_shape_checked(self):
        with pytest.raises(ShapeError):
            finite_diff_jacobian(lambda v: v.sum(), np.ones(3))
        with pytest.raises(ShapeError):
            finite_diff_jacobian(lambda v: v[0], np.ones((4, 3)))
