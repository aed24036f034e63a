import numpy as np
import pytest
from scipy import sparse

from mpckit import (InvalidHorizonError, InvalidWeightError, QpProblem,
                    ShapeError, solve_qp)
from mpckit.condense import (assemble_condensed_qp, assemble_sparse_qp,
                             build_prediction, build_weights, condensed_blocks,
                             condensed_rows, sparse_blocks, stack_constraints,
                             trajectory_blocks)
from mpckit.model import (LtiModel, Polytope, box_polytope, empty_polytope,
                          lti_step)
from mpckit.numerics import block_diag


def _scalar_setup(N=1, x_k=1.0):
    """A=B=Q=Q_N=R=1 with no constraints: the smallest assembly."""
    model = LtiModel([[1.0]], [[1.0]])
    pm = build_prediction(model, N)
    w = build_weights([[1.0]], [[1.0]], [[1.0]], N)
    c = stack_constraints(empty_polytope(1), empty_polytope(1), None, N)
    return model, pm, w, c, np.array([x_k])


def _sparse_form(pm, X_set, U_set, N_C=None):
    """sparse_blocks on trajectory_blocks' CSR blocks, with identity weights."""
    Q, R = np.eye(pm.n), np.eye(pm.m)
    return sparse_blocks(pm, *trajectory_blocks(Q, R, Q, X_set, U_set, None, pm.N,
                                                pm.N if N_C is None else N_C))


class TestBuildPrediction:
    def test_one_step(self, lti_demo_model):
        pm = build_prediction(lti_demo_model, 1)
        assert np.allclose(pm.A_X, np.vstack([np.eye(2), lti_demo_model.A]))
        assert np.allclose(pm.B_U, np.vstack([np.zeros((2, 1)), lti_demo_model.B]))

    def test_two_step_blocks(self, lti_demo_model):
        pm = build_prediction(lti_demo_model, 2)
        assert np.allclose(pm.A_X[4:6], [[0.73, 0.34], [-0.68, 0.56]])
        assert np.allclose(pm.B_U[4:6, 0], [0.092, -0.032])
        assert np.allclose(pm.B_U[4:6, 1:2], lti_demo_model.B)

    def test_identity_dynamics(self):
        model = LtiModel(np.eye(2), [[1, 0], [0, 1]])
        pm = build_prediction(model, 3)
        for i in range(4):
            assert np.allclose(pm.A_X[2 * i:2 * i + 2], np.eye(2))

    def test_zero_horizon_rejected(self, lti_demo_model):
        with pytest.raises(InvalidHorizonError):
            build_prediction(lti_demo_model, 0)

    def test_forced_blocks_are_powers_times_B(self):
        # block (i, j) of B_U is A^(i-j-1) B, bit for bit, and zero for j >= i
        rng = np.random.default_rng(9)
        n, m, N = 3, 2, 6
        model = LtiModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
        pm = build_prediction(model, N)
        for i in range(N + 1):
            for j in range(N):
                block = pm.B_U[i * n:(i + 1) * n, j * m:(j + 1) * m]
                if j < i:
                    k = i - j - 1
                    assert np.array_equal(block, pm.A_X[k * n:(k + 1) * n] @ model.B)
                else:
                    assert not block.any()

    def test_prediction_consistency_random(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            N = int(rng.integers(1, 7))
            model = LtiModel(rng.normal(size=(n, n)), rng.normal(size=(n, m)))
            x = rng.normal(size=n)
            U = rng.normal(size=(N, m))
            pm = build_prediction(model, N)
            X = pm.A_X @ x + pm.B_U @ U.ravel()
            sim = x.copy()
            assert np.abs(X[:n] - sim).max() <= 1e-10
            for i in range(N):
                sim = lti_step(model, sim, U[i])
                assert np.abs(X[(i + 1) * n:(i + 2) * n] - sim).max() <= 1e-10


class TestBuildWeights:
    def test_demo_identity_weights(self):
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 5)
        assert np.allclose(w.Q_X, np.eye(12))
        assert np.allclose(w.R_U, np.eye(5))

    def test_smallest_assembly(self):
        w = build_weights([[2.0]], [[4.0]], [[3.0]], 1)
        assert np.allclose(w.Q_X, np.diag([2.0, 3.0]))
        assert np.allclose(w.R_U, [[4.0]])

    def test_zero_terminal_weight(self):
        w = build_weights(np.eye(2), [[1.0]], np.zeros((2, 2)), 2)
        assert np.allclose(w.Q_X[4:, 4:], 0.0)
        assert np.linalg.eigvalsh(w.Q_X).min() >= -1e-12

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidWeightError):
            build_weights([[1, 1e-3], [0, 1]], [[1.0]], np.eye(2), 2)

    def test_zero_horizon_rejected(self):
        with pytest.raises(InvalidHorizonError, match="horizon must be >= 1, got 0"):
            build_weights(np.eye(2), [[1.0]], np.eye(2), 0)

    def test_terminal_weight_shape_checked(self):
        with pytest.raises(InvalidWeightError, match=r"Q_N shape \(3, 3\) != Q shape \(2, 2\)"):
            build_weights(np.eye(2), [[1.0]], np.eye(3), 2)


class TestStackConstraints:
    def test_demo_replication(self, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        c = stack_constraints(X_set, U_set, None, 2)
        assert c.F_X.shape == (12, 6)
        assert np.allclose(c.g_X, 10.0)
        assert c.F_U.shape == (4, 2)
        assert np.allclose(c.g_U, 1.0)

    def test_one_step_unit_boxes(self):
        c = stack_constraints(box_polytope(1, 2), box_polytope(1, 1), None, 1)
        assert c.F_X.shape == (8, 4)
        assert c.F_U.shape == (2, 1)

    def test_terminal_block_substitution(self, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        terminal = Polytope(np.eye(2), [0.5, 0.5])
        c = stack_constraints(X_set, U_set, terminal, 2)
        assert np.allclose(c.g_X[-2:], 0.5)
        assert np.allclose(c.F_X[-2:, 4:], np.eye(2))

    def test_terminal_dimension_mismatch(self, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        with pytest.raises(ShapeError):
            stack_constraints(X_set, U_set, box_polytope(1, 3), 2)

    def test_zero_horizon_rejected(self, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        with pytest.raises(InvalidHorizonError, match="horizon must be >= 1, got 0"):
            stack_constraints(X_set, U_set, None, 0)


class TestAssembleSparseQp:
    def test_structure(self, lti_demo_model, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        pm = build_prediction(lti_demo_model, 3)
        qp = assemble_sparse_qp(_sparse_form(pm, X_set, U_set), [1.0, -1.0])
        H = qp.H.toarray()
        assert np.allclose(H, H.T)
        assert np.linalg.eigvalsh(H).min() >= -1e-12
        assert qp.F_eq.shape[0] == 2 * 4

    def test_scalar_substitution(self):
        _, pm, _, _, x = _scalar_setup()
        qp = assemble_sparse_qp(_sparse_form(pm, empty_polytope(1), empty_polytope(1)), x)
        assert np.allclose(qp.F_eq.toarray(), [[1, 0, 0], [0, 1, -1]])
        assert np.allclose(qp.g_eq, [1, 1])

    def test_zero_state(self):
        _, pm, _, _, _ = _scalar_setup()
        qp = assemble_sparse_qp(_sparse_form(pm, empty_polytope(1), empty_polytope(1)), [0.0])
        assert np.allclose(qp.g_eq, 0.0)

    @pytest.mark.parametrize("x_k", [[1.0], [1.0, -1.0, 0.0]])
    @pytest.mark.parametrize("form", ["sparse", "condensed"])
    def test_wrong_state_length_rejected(self, lti_demo_model, lti_demo_sets, form, x_k):
        # the blocks of both forms hold n = 2 columns for x_k
        X_set, U_set = lti_demo_sets
        pm = build_prediction(lti_demo_model, 3)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 3)
        c = stack_constraints(X_set, U_set, None, 3)
        blocks, assemble = {
            "sparse": (_sparse_form(pm, X_set, U_set, N_C=2), assemble_sparse_qp),
            "condensed": (condensed_blocks(pm, w, c, 2), assemble_condensed_qp)}[form]
        with pytest.raises(ShapeError, match=f"state has dimension {len(x_k)}, expected 2"):
            assemble(blocks, x_k)


class TestTrajectoryBlocks:
    """sparse_blocks' CSR H, F and F_eq, from trajectory_blocks, store what
    csr_array of the dense stacks stores: every non-zero and no zero."""

    @staticmethod
    def _dense_stacks(pm, Q, R, Q_N, X_set, U_set, terminal, N_C):
        # H, F, g and F_eq as numerics.block_diag stacks them, the reference
        w = build_weights(Q, R, Q_N, pm.N)
        c = stack_constraints(X_set, U_set, terminal, pm.N)
        n_u = pm.m * N_C
        return (block_diag(w.Q_X, w.R_U[:n_u, :n_u]), block_diag(c.F_X, c.F_U[:, :n_u]),
                np.concatenate([c.g_X, c.g_U]),
                np.hstack([np.eye(pm.n * (pm.N + 1)), -pm.B_U[:, :n_u]]))

    @pytest.mark.parametrize("case", ["full-horizon", "control-horizon", "terminal-set",
                                      "empty-X_set", "empty-U_set", "non-diagonal-Q"])
    def test_csr_equals_dense_stacks(self, case):
        rng = np.random.default_rng(17)
        n, m, N = 3, 2, 5
        pm = build_prediction(LtiModel(0.5 * rng.standard_normal((n, n)),
                                       rng.standard_normal((n, m))), N)
        # rows with exact zeros in them, which no block may store
        X_set = Polytope(np.array([[1.0, 0.0, -2.0], [0.0, 3.0, 0.0], [-1.0, 0.5, 0.0]]),
                         [1.0, 2.0, 3.0])
        U_set, terminal, N_C = box_polytope(1.0, m), None, N
        Q, R = np.diag([1.0, 0.0, 2.0]), np.diag([0.5, 1.5])
        Q_N = Q
        if case == "control-horizon":
            N_C = 2
        elif case == "terminal-set":
            terminal = Polytope(np.array([[0.0, 1.0, 1.0]]), [0.25])
        elif case == "empty-X_set":
            X_set = empty_polytope(n)
        elif case == "empty-U_set":
            U_set = empty_polytope(m)
        elif case == "non-diagonal-Q":
            Q = np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
            Q_N = 3.0 * Q + np.diag([0.0, 1.0, 0.0])
            R = np.array([[1.0, -0.25], [-0.25, 1.0]])
        H, F, g, F_eq, A_X = sparse_blocks(
            pm, *trajectory_blocks(Q, R, Q_N, X_set, U_set, terminal, N, N_C))
        ref = self._dense_stacks(pm, Q, R, Q_N, X_set, U_set, terminal, N_C)
        for M, dense in zip((H, F, F_eq), ref[:2] + ref[3:]):
            expected = sparse.csr_array(dense)
            assert isinstance(M, sparse.csr_array) and M.shape == expected.shape
            assert np.array_equal(M.indptr, expected.indptr)
            assert np.array_equal(M.indices, expected.indices)
            assert np.array_equal(M.data, expected.data)
            assert np.all(M.data != 0.0)
        assert np.array_equal(g, ref[2]) and A_X is pm.A_X

    @pytest.mark.parametrize("N, N_C", [(3, 0), (3, 4), (0, 0)])
    def test_horizons_rejected(self, N, N_C):
        with pytest.raises(InvalidHorizonError, match="1 <= N_C <= N"):
            trajectory_blocks([[1.0]], [[1.0]], [[1.0]], empty_polytope(1), empty_polytope(1),
                              None, N, N_C)


class TestAssembleCondensedQp:
    def test_scalar_hand_kkt(self):
        _, pm, w, c, x = _scalar_setup()
        qp = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), x)
        assert np.allclose(qp.H, [[2.0]])
        assert np.allclose(qp.q, [2.0])
        sol = solve_qp(qp)
        assert abs(sol.z_star[0] + 0.5) < 1e-6

    def test_zero_state(self):
        _, pm, w, c, _ = _scalar_setup()
        qp = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), [0.0])
        assert np.allclose(qp.q, 0.0)
        assert qp.r == 0.0

    def test_gram_structure(self, lti_demo_model):
        pm = build_prediction(lti_demo_model, 4)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 4)
        c = stack_constraints(empty_polytope(2), empty_polytope(1), None, 4)
        qp = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), [1.0, 1.0])
        assert np.linalg.eigvalsh(qp.H - w.R_U).min() >= -1e-10
        assert np.linalg.eigvalsh(qp.H).min() > 0

    def test_cost_equality_with_sparse(self, lti_demo_model, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        rng = np.random.default_rng(6)
        pm = build_prediction(lti_demo_model, 4)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 4)
        c = stack_constraints(X_set, U_set, None, 4)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            U = rng.uniform(-1, 1, size=4)
            sf = assemble_sparse_qp(_sparse_form(pm, X_set, U_set), x)
            cond = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), x)
            X = pm.A_X @ x + pm.B_U @ U
            z = np.concatenate([X, U])
            assert abs(sf.objective(z) - cond.objective(U)) \
                <= 1e-9 * max(1.0, abs(cond.objective(U)))

    def test_constraint_equivalence(self, lti_demo_model, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        rng = np.random.default_rng(7)
        pm = build_prediction(lti_demo_model, 3)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 3)
        c = stack_constraints(X_set, U_set, None, 3)
        for _ in range(30):
            x = rng.uniform(-8, 8, size=2)
            U = rng.uniform(-1.5, 1.5, size=3)
            sf = assemble_sparse_qp(_sparse_form(pm, X_set, U_set), x)
            cond = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), x)
            X = pm.A_X @ x + pm.B_U @ U
            z = np.concatenate([X, U])
            ok_sparse = bool(np.all(sf.F @ z <= sf.g + 1e-10))
            ok_cond = bool(np.all(cond.F @ U <= cond.g + 1e-10))
            assert ok_sparse == ok_cond


class TestParametricForm:
    @staticmethod
    def _close(a, b):
        return np.abs(a - b).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(b).max(initial=0.0))

    def test_matches_direct_substitution(self):
        # q, r and g from the gains equal the states substituted at x_k
        rng = np.random.default_rng(41)
        for trial in range(30):
            n, m, N = (int(v) for v in rng.integers(1, [5, 4, 7]))
            N_C = int(rng.integers(1, N + 1))
            model = LtiModel(0.6 * rng.standard_normal((n, n)), rng.standard_normal((n, m)))
            M = rng.standard_normal((n, n))
            pm = build_prediction(model, N)
            w = build_weights(M @ M.T, np.eye(m) + 0.1 * np.diag(rng.random(m)),
                              2.0 * M @ M.T, N)
            X_set = Polytope(rng.standard_normal((3, n)), rng.uniform(1.0, 2.0, 3))
            terminal = box_polytope(0.5, n) if trial % 2 else None
            c = stack_constraints(X_set, box_polytope(1.0, m), terminal, N)
            x = rng.standard_normal(n)
            qp = assemble_condensed_qp(condensed_blocks(pm, w, c, N_C), x)
            k = m * N_C
            X_free = pm.A_X @ x
            assert qp.d == k
            assert self._close(qp.q, (2.0 * pm.B_U.T @ (w.Q_X @ X_free))[:k])
            assert self._close(np.array([qp.r]), np.array([X_free @ w.Q_X @ X_free]))
            assert self._close(qp.g, np.concatenate([c.g_X - c.F_X @ X_free, c.g_U]))
            assert np.array_equal(qp.F, np.vstack([c.F_X @ pm.B_U, c.F_U])[:, :k])
            F, g0, G = condensed_rows(pm, c, N_C)
            assert np.array_equal(qp.F, F) and np.array_equal(qp.g, g0 - G @ x)


class TestControlHorizon:
    def test_decision_length(self, lti_demo_model, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        pm = build_prediction(lti_demo_model, 5)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 5)
        c = stack_constraints(X_set, U_set, None, 5)
        qp = assemble_condensed_qp(condensed_blocks(pm, w, c, 2), [1.0, 1.0])
        assert qp.d == 2
        # every row is kept, those of the zero tail included
        assert qp.F.shape[0] == c.F_X.shape[0] + c.F_U.shape[0]

    def test_matches_zero_tail_optimum(self):
        # terminal-only weighting: the N_C = 2 problem equals optimizing over
        # (u0, u1) with the remaining inputs pinned to zero
        model = LtiModel([[1.0]], [[1.0]])
        N = 4
        pm = build_prediction(model, N)
        w = build_weights([[0.0]], [[0.1]], [[1.0]], N)
        c = stack_constraints(empty_polytope(1), empty_polytope(1), None, N)
        qp = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), [3.0])
        red = assemble_condensed_qp(condensed_blocks(pm, w, c, 2), [3.0])
        sol = solve_qp(red)

        def zero_tail_cost(u0, u1):
            U = np.array([u0, u1, 0.0, 0.0])
            return qp.objective(U)

        # brute-force grid around the solver's answer
        best = min(
            zero_tail_cost(u0, u1)
            for u0 in np.linspace(-3, 1, 161)
            for u1 in np.linspace(-3, 1, 161))
        assert sol.objective <= best + 1e-6
