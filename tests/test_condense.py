import numpy as np
import pytest

from mpckit import (InvalidHorizonError, InvalidWeightError, QpProblem,
                    ShapeError, solve_qp)
from mpckit.condense import (assemble_condensed_qp, assemble_sparse_qp,
                             build_prediction, build_weights, condensed_blocks,
                             condensed_rows, shift_duals, sparse_blocks,
                             stack_constraints)
from mpckit.controller import MpcConfig, lmpc_step
from mpckit.model import (LtiModel, Polytope, box_polytope, empty_polytope,
                          lti_step)


def _scalar_setup(N=1, x_k=1.0):
    """A=B=Q=Q_N=R=1 with no constraints: the smallest assembly."""
    model = LtiModel([[1.0]], [[1.0]])
    pm = build_prediction(model, N)
    w = build_weights([[1.0]], [[1.0]], [[1.0]], N)
    c = stack_constraints(empty_polytope(1), empty_polytope(1), None, N)
    return model, pm, w, c, np.array([x_k])


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


class TestShiftDuals:
    """shift_duals against blocks split and shifted by hand, on the
    multipliers of real LMPC steps."""

    @staticmethod
    def _by_hand(y, p_x, p_t, p_u, n_dyn, N):
        # split y into its blocks, then drop each run's first stage block and
        # close it with zeros; the terminal block stays
        cuts = np.cumsum([p_x] * N + [p_t] + [p_u] * N + [n_dyn] * (N + 1 if n_dyn else 0))
        blocks = np.split(y, cuts[:-1])
        X, T, U, D = blocks[:N], blocks[N], blocks[N + 1:2 * N + 1], blocks[2 * N + 1:]
        shifted = (X[1:] + [np.zeros(p_x)] + [T] + U[1:] + [np.zeros(p_u)]
                   + (D[1:] + [np.zeros(n_dyn)] if D else []))
        return np.concatenate(shifted)

    @pytest.mark.parametrize("form", ["condensed", "sparse"])
    @pytest.mark.parametrize("case", ["triangle terminal", "N_C < N", "empty X_set"])
    def test_matches_hand_shift(self, lti_demo_model, lti_demo_sets, form, case):
        X_set, U_set = lti_demo_sets
        N, N_C, terminal = 4, 4, None
        if case == "triangle terminal":
            # three rows where X_set has four
            terminal = Polytope([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]], [0.5, 0.5, 0.5])
        elif case == "N_C < N":
            N_C = 2
        else:
            X_set = empty_polytope(2)
        cfg = MpcConfig(N=N, N_T=10, N_C=N_C, Q=np.eye(2), R=[[1.0]], X_set=X_set,
                        U_set=U_set, terminal_set=terminal, formulation=form)
        step = lmpc_step(lti_demo_model, cfg, [1.0, 0.5])
        p_x, p_u = X_set.F.shape[0], U_set.F.shape[0]
        p_t = (terminal or X_set).F.shape[0]
        n_dyn = 2 if form == "sparse" else 0
        y = np.arange(1.0, step.solution.duals.shape[0] + 1)
        assert y.shape[0] == N * p_x + p_t + N * p_u + n_dyn * (N + 1)
        expected = self._by_hand(y, p_x, p_t, p_u, n_dyn, N)
        assert np.array_equal(shift_duals(y, X_set, U_set, terminal, N), expected)

    def test_wrong_length_rejected(self, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        # at N = 3: 3 x 4 + 4 + 3 x 2 = 22 inequality rows, then 4 dynamics blocks
        for length in (21, 22 + 4 * 2 + 1, 22 - 4):
            with pytest.raises(ShapeError):
                shift_duals(np.zeros(length), X_set, U_set, None, 3)


class TestAssembleSparseQp:
    def test_structure(self, lti_demo_model, lti_demo_sets):
        X_set, U_set = lti_demo_sets
        pm = build_prediction(lti_demo_model, 3)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 3)
        c = stack_constraints(X_set, U_set, None, 3)
        qp = assemble_sparse_qp(sparse_blocks(pm, w, c, pm.N), [1.0, -1.0])
        assert np.allclose(qp.H, qp.H.T)
        assert np.linalg.eigvalsh(qp.H).min() >= -1e-12
        assert qp.F_eq.shape[0] == 2 * 4

    def test_scalar_substitution(self):
        _, pm, w, c, x = _scalar_setup()
        qp = assemble_sparse_qp(sparse_blocks(pm, w, c, pm.N), x)
        assert np.allclose(qp.F_eq.toarray(), [[1, 0, 0], [0, 1, -1]])
        assert np.allclose(qp.g_eq, [1, 1])

    def test_zero_state(self):
        _, pm, w, c, _ = _scalar_setup()
        qp = assemble_sparse_qp(sparse_blocks(pm, w, c, pm.N), [0.0])
        assert np.allclose(qp.g_eq, 0.0)

    @pytest.mark.parametrize("x_k", [[1.0], [1.0, -1.0, 0.0]])
    @pytest.mark.parametrize("form", ["sparse", "condensed"])
    def test_wrong_state_length_rejected(self, lti_demo_model, lti_demo_sets, form, x_k):
        # the blocks of both forms hold n = 2 columns for x_k
        X_set, U_set = lti_demo_sets
        pm = build_prediction(lti_demo_model, 3)
        w = build_weights(np.eye(2), [[1.0]], np.eye(2), 3)
        c = stack_constraints(X_set, U_set, None, 3)
        blocks, assemble = {"sparse": (sparse_blocks, assemble_sparse_qp),
                            "condensed": (condensed_blocks, assemble_condensed_qp)}[form]
        with pytest.raises(ShapeError, match=f"state has dimension {len(x_k)}, expected 2"):
            assemble(blocks(pm, w, c, 2), x_k)


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
            sparse = assemble_sparse_qp(sparse_blocks(pm, w, c, pm.N), x)
            cond = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), x)
            X = pm.A_X @ x + pm.B_U @ U
            z = np.concatenate([X, U])
            assert abs(sparse.objective(z) - cond.objective(U)) \
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
            sparse = assemble_sparse_qp(sparse_blocks(pm, w, c, pm.N), x)
            cond = assemble_condensed_qp(condensed_blocks(pm, w, c, pm.N), x)
            X = pm.A_X @ x + pm.B_U @ U
            z = np.concatenate([X, U])
            ok_sparse = bool(np.all(sparse.F @ z <= sparse.g + 1e-10))
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
