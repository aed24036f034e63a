import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mpckit import (MpcError, NonFiniteError, QpProblem, QpSolution, QpStatus, ShapeError,
                    SingularMatrixError, SolverSettings, kkt_residuals, solve_qp)
from mpckit import qp_solver
from mpckit.condense import (assemble_sparse_qp, build_prediction, build_weights,
                             sparse_blocks, stack_constraints)
from mpckit.qp_solver import _dense
from qp_oracle import random_strictly_convex_qp, solve_oracle


class TestProblemValidation:
    def test_asymmetric_h_rejected(self, monkeypatch):
        # by the workspace build, before its first factor
        factored = []
        monkeypatch.setattr(qp_solver, "lu_factor", factored.append)
        with pytest.raises(ShapeError, match="symmetric"):
            solve_qp(QpProblem(H=[[1, 1e-3], [0, 1]]))
        assert factored == []

    def test_asymmetric_h_rejected_with_reused_workspace(self):
        ws = qp_solver.QpWorkspace()
        F, g = np.vstack([np.eye(2), -np.eye(2)]), np.ones(4)
        assert solve_qp(QpProblem(H=np.eye(2), F=F, g=g), workspace=ws).status \
            is QpStatus.OPTIMAL
        with pytest.raises(ShapeError, match="symmetric"):
            solve_qp(QpProblem(H=[[1, 1e-3], [0, 1]], F=F, g=g), workspace=ws)

    def test_inconsistent_inequalities(self):
        with pytest.raises(ShapeError):
            QpProblem(H=np.eye(2), F=[[1, 0]], g=[1, 2])

    def test_objective_convention(self):
        p = QpProblem(H=[[2.0]], q=[3.0], r=1.0)
        # z'Hz + q'z + r, with no 1/2 factor
        assert p.objective(np.array([2.0])) == pytest.approx(8 + 6 + 1)


class TestSolveQp:
    def test_unconstrained(self):
        sol = solve_qp(QpProblem(H=np.eye(2), q=[-2, -2]))
        assert sol.status is QpStatus.OPTIMAL
        assert np.abs(sol.z_star - [1, 1]).max() < 1e-6
        assert abs(sol.objective + 2) < 1e-8

    def test_singular_unconstrained_polished_to_newton_point(self):
        # H = diag(1, 0) is singular; the KKT solve on the empty active set,
        # refined against P itself, lands on the Newton point rather than
        # stopping at the ADMM iterate
        sol = solve_qp(QpProblem(H=np.diag([1.0, 0.0]), q=[1.0, 0.0]))
        assert sol.status is QpStatus.OPTIMAL
        assert np.abs(sol.z_star - [-0.5, 0.0]).max() <= 1e-9

    def test_active_bound(self):
        sol = solve_qp(QpProblem(H=[[1.0]], F=[[-1.0]], g=[-1.0]))
        assert abs(sol.z_star[0] - 1.0) < 1e-6

    def test_equality_constrained(self):
        sol = solve_qp(QpProblem(H=np.eye(2), F_eq=[[1, 1]], g_eq=[2]))
        assert np.abs(sol.z_star - [1, 1]).max() < 1e-6

    def test_infeasible(self):
        p = QpProblem(H=[[1.0]], F=[[1.0], [-1.0]], g=[-1.0, -2.0])
        sol = solve_qp(p)
        assert sol.status is QpStatus.INFEASIBLE

    def test_infeasible_with_unbounded_row(self):
        # the row z <= inf takes no multiplier, so the certificate is zero on
        # it; u'e must skip that row rather than add inf * 0 = NaN
        p = QpProblem(H=[[1.0]], F=[[1.0], [-1.0], [1.0]], g=[-1.0, -2.0, np.inf])
        sol = solve_qp(p)
        assert sol.status is QpStatus.INFEASIBLE

    def test_box_bounds(self):
        # 0 <= z <= 1 as the rows z <= 1 and -z <= 0
        box = np.vstack([np.eye(2), -np.eye(2)])
        sol = solve_qp(QpProblem(H=np.eye(2), q=[-4, -4], F=box, g=[1, 1, 0, 0]))
        assert np.abs(sol.z_star - [1, 1]).max() < 1e-6

    def test_feasibility_at_optimal(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            p = random_strictly_convex_qp(rng)
            sol = solve_qp(p)
            assert sol.status is QpStatus.OPTIMAL
            if p.F.shape[0]:
                assert float(np.max(p.F @ sol.z_star - p.g)) <= 1e-5
            if p.F_eq.shape[0]:
                assert float(np.abs(p.F_eq @ sol.z_star - p.g_eq).max()) <= 1e-5

    def test_oracle_equivalence_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            p = random_strictly_convex_qp(rng, d_max=6, p_max=8, e_max=2)
            sol = solve_qp(p)
            _, obj = solve_oracle(p)
            assert abs(sol.objective - obj) <= 1e-5

    def test_warm_start_restart(self):
        rng = np.random.default_rng(10)
        p = random_strictly_convex_qp(rng)
        cold = solve_qp(p)
        warm = solve_qp(p, warm=cold)
        assert warm.iterations <= 10
        assert warm.iterations <= 2 * cold.iterations

    def test_primal_vector_warm_start(self):
        rng = np.random.default_rng(11)
        p = random_strictly_convex_qp(rng)
        cold = solve_qp(p)
        warm = solve_qp(p, warm=cold.z_star)
        assert np.abs(warm.z_star - cold.z_star).max() < 1e-5

    def test_determinism(self):
        rng = np.random.default_rng(12)
        p_data = random_strictly_convex_qp(rng)
        a = solve_qp(p_data)
        b = solve_qp(p_data)
        assert np.array_equal(a.z_star, b.z_star)
        assert np.array_equal(a.duals, b.duals)
        assert a.iterations == b.iterations

    def test_max_iterations_status(self):
        rng = np.random.default_rng(13)
        p = random_strictly_convex_qp(rng)
        sol = solve_qp(p, settings=SolverSettings(max_iter=2))
        assert sol.status is QpStatus.MAX_ITERATIONS
        assert sol.z_star.shape == (p.d,)

    @pytest.mark.parametrize("bad", [{"eps_abs": -1.0}, {"eps_abs": float("nan")},
                                     {"eps_rel": -1e-6}, {"eps_rel": float("nan")},
                                     {"max_iter": 0}, {"max_iter": -3},
                                     {"eps_abs": float("inf")}, {"eps_rel": float("inf")}])
    def test_unusable_settings_rejected(self, bad):
        # a negative tolerance would run every solve to the cap, an infinite
        # one would call any iterate optimal, and no iteration would leave
        # no check to end on
        key = next(iter(bad))
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            SolverSettings(**bad)
        assert SolverSettings(eps_abs=0.0, eps_rel=0.0, max_iter=1).max_iter == 1
        # nor can an assignment bypass the check
        with pytest.raises(dataclasses.FrozenInstanceError):
            SolverSettings().max_iter = 0

    def test_non_finite_inputs_rejected(self):
        p = QpProblem(H=np.eye(2), q=[1.0, np.nan], F=[[1.0, 0.0]], g=[1.0])
        bad = [(p, None),
               (QpProblem(H=np.eye(2), F=[[1.0, 0.0]], g=[np.nan]), None),
               (QpProblem(H=np.eye(2), F=[[1.0, 0.0]], g=[1.0]), [0.0, np.inf]),
               # a NaN passes the symmetry test of H; the workspace build rejects it
               (QpProblem(H=[[1.0, 0.0], [0.0, np.nan]]), None),
               (QpProblem(H=np.eye(2), F=[[np.inf, 0.0]], g=[1.0]), None),
               (QpProblem(H=np.eye(2), F_eq=[[1.0, -np.inf]], g_eq=[0.0]), None)]
        for problem, warm in bad:
            with pytest.raises(NonFiniteError) as info:
                solve_qp(problem, warm=warm)
            assert isinstance(info.value, MpcError) and isinstance(info.value, ValueError)

    def test_overflowing_reduced_matrix_rejected(self):
        # finite rows whose product F'F overflows: numpy warns of the
        # overflow, and lu_factor rejects the infinity it produced
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            solve_qp(QpProblem(H=np.eye(2), F=[[1e200, 0.0]], g=[1.0]))

    @pytest.mark.parametrize("problem", [
        QpProblem(H=-5e-7 * np.eye(2), q=[1.0, 1.0]),
        # the row on z_2 leaves the reduced matrix's first pivot at zero
        QpProblem(H=np.diag([-5e-7, 1.0]), q=[1.0, 1.0], F=[[0.0, 1.0]], g=[1.0]),
    ])
    def test_singular_reduced_matrix_rejected(self, problem):
        # P + sigma I is exactly zero along z_1: the solve stops at the
        # factor, not after max_iter iterations on NaN
        with pytest.raises(SingularMatrixError, match="not positive semidefinite"):
            solve_qp(problem)

    def test_nonconvex_h_with_regular_reduced_matrix_rejected(self):
        # the rows add rho to both pivots, so the LU factor exists; ADMM used
        # to diverge along z_1 and end at max_iter with z = [nan, nan]
        p = QpProblem(H=np.diag([-5e-7, 1.0]), q=[1.0, 1.0], F=np.eye(2), g=[1.0, 1.0])
        with pytest.raises(SingularMatrixError, match="H is not positive semidefinite"):
            solve_qp(p)

    def test_wrong_length_warm_start_rejected(self):
        p = QpProblem(H=np.eye(2), q=[1.0, 1.0], F=np.eye(2), g=[1.0, 1.0])
        sol = solve_qp(p)
        other = solve_qp(QpProblem(H=np.eye(3), F=np.eye(3), g=np.ones(3)))
        short_duals = QpSolution(z_star=sol.z_star, objective=0.0, status=QpStatus.OPTIMAL,
                                 iterations=0, primal_residual=0.0, dual_residual=0.0)
        for warm, lengths in (([0.0, 0.0, 0.0], "3 primal and 2 dual"),
                              (other, "3 primal and 3 dual"),
                              (short_duals, "2 primal and 0 dual")):
            with pytest.raises(ShapeError, match=f"{lengths} entries, expected 2 and 2"):
                solve_qp(p, warm=warm)

    def test_singular_polish_system_keeps_admm_iterate(self, monkeypatch):
        box = np.vstack([np.eye(2), -np.eye(2)])
        p = QpProblem(H=np.eye(2), q=[-4.0, -1.0], F=box, g=[1.0, 1.0, 0.0, 0.0])
        polished = solve_qp(p)
        lu_factor = qp_solver.lu_factor

        def singular_kkt(M):
            if M.shape[0] != p.d:     # the polish's k x k Schur complement (K_eq is d x d here)
                raise SingularMatrixError("singular")
            return lu_factor(M)

        monkeypatch.setattr(qp_solver, "lu_factor", singular_kkt)
        sol = solve_qp(p)
        monkeypatch.setattr(qp_solver, "_polish", lambda *args: None)
        unpolished = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert np.array_equal(sol.z_star, unpolished.z_star)
        assert np.array_equal(sol.duals, unpolished.duals)
        assert not np.array_equal(sol.z_star, polished.z_star)


class TestLuWrappers:
    def test_match_scipy(self):
        rng = np.random.default_rng(17)
        sizes = [int(k) for k in rng.integers(1, 81, size=50)] + [332]
        for d in sizes:
            M = rng.normal(size=(d, d))
            b = rng.normal(size=d)
            lu, piv = qp_solver.lu_factor(M)
            ref = scipy.linalg.lu_factor(M)
            assert np.array_equal(lu, ref[0]) and np.array_equal(piv, ref[1])
            assert np.array_equal(qp_solver.lu_solve((lu, piv), b),
                                  scipy.linalg.lu_solve(ref, b, check_finite=False))

    def test_zero_pivot(self):
        with pytest.raises(SingularMatrixError):
            qp_solver.lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestCheckInterval:
    # needs 102 iterations with a check at every iteration (105 by default)
    P = random_strictly_convex_qp(np.random.default_rng(141))

    @pytest.mark.parametrize("max_iter", [5, 10, 50, 55, 100])
    def test_same_iterates_as_checking_every_iteration(self, monkeypatch, max_iter):
        # with zero tolerances neither an iterate nor a polished point passes,
        # so every solve runs to its cap
        cap = SolverSettings(eps_abs=0.0, eps_rel=0.0, max_iter=max_iter)
        default = solve_qp(self.P, settings=cap)
        monkeypatch.setattr(qp_solver, "CHECK_EVERY", 1)
        every = solve_qp(self.P, settings=cap)
        assert default.status is every.status is QpStatus.MAX_ITERATIONS
        assert default.iterations == every.iterations == max_iter
        assert np.array_equal(default.z_star, every.z_star)
        assert np.array_equal(default.duals, every.duals)

    def test_iterations_fall_on_checks(self):
        rng = np.random.default_rng(16)
        infeasible = QpProblem(H=[[1.0]], F=[[1.0], [-1.0]], g=[-1.0, -2.0])
        problems = [random_strictly_convex_qp(rng) for _ in range(20)] + [infeasible]
        for max_iter in (7, 20000):
            for p in problems:
                sol = solve_qp(p, settings=SolverSettings(max_iter=max_iter))
                assert (sol.iterations % qp_solver.CHECK_EVERY == 0
                        or sol.iterations == max_iter), (max_iter, sol.iterations)

    def test_check_at_iteration_cap(self, monkeypatch):
        # a warm restart converges within 3 iterations, below CHECK_EVERY,
        # and the check at max_iter = 3 reports it
        cold = solve_qp(self.P)
        sol = solve_qp(self.P, warm=cold, settings=SolverSettings(max_iter=3))
        assert sol.status is QpStatus.OPTIMAL and sol.iterations == 3
        monkeypatch.setattr(qp_solver, "CHECK_EVERY", 1)
        assert solve_qp(self.P, warm=cold).iterations <= 3


def test_admm_factors_reduced_system(monkeypatch):
    # 40 rows on 3 variables, none active at the optimum: the ADMM step
    # factors only the d x d reduced matrix, and polishing on the empty
    # active set factors P + 1e-9 I once
    factored = []
    lu_factor = qp_solver.lu_factor

    def recording_lu_factor(M, *args, **kwargs):
        factored.append(M.copy())
        return lu_factor(M, *args, **kwargs)

    monkeypatch.setattr(qp_solver, "lu_factor", recording_lu_factor)
    rng = np.random.default_rng(15)
    F = rng.normal(size=(40, 3))
    g = np.abs(F).sum(axis=1) + 1.0   # every row holds with slack on |z| <= 1
    sol = solve_qp(QpProblem(H=np.eye(3), q=[-1.0, 0.5, 0.0], F=F, g=g))
    assert sol.status is QpStatus.OPTIMAL
    assert np.abs(sol.z_star - [0.5, -0.25, 0.0]).max() < 1e-6
    polish = 2.0 * np.eye(3) + 1e-9 * np.eye(3)
    reduced = [M for M in factored if not np.array_equal(M, polish)]
    assert reduced and all(M.shape == (3, 3) for M in reduced)
    assert len(factored) - len(reduced) == 1


# Entries are multiples of 1/8 in [-1, 1]: data on the scale of eps_abs
# (say a row scaled by 6e-8) is accepted within that absolute tolerance
# and so may differ from the exact oracle by design.
_ENTRIES = st.integers(-8, 8).map(lambda k: k / 8.0)


@st.composite
def _small_convex_qps(draw):
    """Strictly convex QPs with 1-6 inequality and 0-(d-1) equality rows;
    the right-hand sides are drawn freely, so some are infeasible."""
    d = draw(st.integers(1, 4))
    n_in = draw(st.integers(1, 6))
    n_eq = draw(st.integers(0, d - 1))
    M = draw(arrays(float, (d, d), elements=_ENTRIES))
    H = M @ M.T + 0.1 * np.eye(d)
    return QpProblem(
        H=0.5 * (H + H.T),
        q=draw(arrays(float, d, elements=_ENTRIES)),
        F=draw(arrays(float, (n_in, d), elements=_ENTRIES)),
        g=draw(arrays(float, n_in, elements=_ENTRIES)),
        F_eq=draw(arrays(float, (n_eq, d), elements=_ENTRIES)) if n_eq else None,
        g_eq=draw(arrays(float, n_eq, elements=_ENTRIES)) if n_eq else None,
    )


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_small_convex_qps())
def test_matches_oracle_on_random_qps(p):
    sol = solve_qp(p)
    z_oracle, obj_oracle = solve_oracle(p)
    if z_oracle is None:
        assert sol.status is not QpStatus.OPTIMAL
    else:
        assert sol.status is QpStatus.OPTIMAL
        assert abs(sol.objective - obj_oracle) <= 1e-5
        # the solver's own report agrees with the evaluator the benchmark uses
        stationarity, violation, _ = kkt_residuals(p, sol.z_star, sol.duals)
        scale = max(1.0, float(np.abs(2.0 * p.H @ sol.z_star).max()),
                    float(np.abs(p.q).max()), float(np.abs(sol.duals).max(initial=0.0)))
        assert abs(sol.primal_residual - violation) <= 1e-12 * scale
        assert abs(sol.dual_residual - stationarity) <= 1e-12 * scale


class TestStepSizeUpdate:
    """The residual-balancing step-size update (every RHO_UPDATE_INTERVAL
    iterations, taken only beyond a factor of 5) converges on these
    problems. The rule is not proven free of cycles; these are the cases
    checked."""

    def test_rho_limit_cycle(self):
        # with an update every 50 iterations rho cycled between two values
        # here and the solve never converged
        p = QpProblem(H=[[0.9125, 0.03125], [0.03125, 1.25625]], q=[0.5, 0.125],
                      F=[[0.625, 0.875], [0.625, 0.125], [0.25, -0.125], [0.125, 0.125]],
                      g=[-0.375, -0.875, -0.375, -0.375], F_eq=[[0.25, 0.625]], g_eq=[0.125])
        _, obj_oracle = solve_oracle(p)
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert abs(sol.objective - obj_oracle) <= 1e-5

    def test_no_random_qp_at_iteration_cap(self):
        # with an update every 50 iterations draws 227, 907 and 941 ran to
        # the 20,000-iteration cap; every optimal draw is polished to a
        # largest residual of 1e-12 max(1, |q|)
        rng = np.random.default_rng(123)
        capped, inaccurate = [], []
        for k in range(1500):
            p = random_strictly_convex_qp(rng)
            sol = solve_qp(p)
            if sol.status is QpStatus.MAX_ITERATIONS:
                capped.append(k)
            elif sol.status is QpStatus.OPTIMAL and max(sol.primal_residual, sol.dual_residual) \
                    > 1e-12 * max(1.0, float(np.abs(p.q).max())):
                inaccurate.append(k)
        assert capped == [] and inaccurate == []


class TestOpenDefects:
    """Wrong answers the solver still gives. Each test states the right
    answer and is a strict xfail, so the fix that makes it pass must also
    remove its marker."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="absolute tolerances on unscaled rows ignore a row whose "
                              "coefficients are near eps_abs")
    def test_unscaled_row(self):
        # the exact optimum is 0 at the origin; the absolute test accepts (-5, -5)
        sol = solve_qp(QpProblem(H=0.1 * np.eye(2), q=[1.0, 1.0], F_eq=[[6e-8, 6e-8]],
                                 g_eq=[0.0]))
        assert sol.status is not QpStatus.OPTIMAL or abs(sol.objective) <= 1e-6

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="no unboundedness certificate: an unbounded QP runs to max_iter")
    def test_unbounded(self):
        # z <= 1 and minimize z: unbounded below
        sol = solve_qp(QpProblem(H=[[0.0]], q=[1.0], F=[[1.0]], g=[1.0]))
        assert sol.iterations < SolverSettings().max_iter


class TestWorkspace:
    def _same(self, a, b):
        return (np.array_equal(a.z_star, b.z_star) and np.array_equal(a.duals, b.duals)
                and a.iterations == b.iterations and a.status is b.status)

    def test_reuse_and_rebuild(self, monkeypatch):
        factors = []
        lu_factor = qp_solver.lu_factor

        def counting_lu_factor(M, *args, **kwargs):
            factors.append(M.shape)
            return lu_factor(M, *args, **kwargs)

        monkeypatch.setattr(qp_solver, "lu_factor", counting_lu_factor)
        H = np.array([[2.0, 0.5], [0.5, 1.0]])
        F = np.array([[1.0, 1.0], [-1.0, 0.0]])
        ws = qp_solver.QpWorkspace()
        first = QpProblem(H=H, q=[-4.0, -2.0], F=F, g=[1.0, 0.5])
        assert self._same(solve_qp(first, workspace=ws), solve_qp(first))
        # same H and F arrays, new q and g: the workspace is reused
        moved = QpProblem(H=H, q=[1.0, -3.0], F=F, g=[0.5, 0.2])
        factors.clear()
        kept = solve_qp(moved, workspace=ws)
        reused = len(factors)
        assert self._same(kept, solve_qp(moved))
        # a fresh solve makes the reused one's factors, plus the reduced
        # matrix at RHO and the polish factor of K_eq = P + 1e-9 I
        assert len(factors) == 2 * reused + 2
        # equal values in other arrays, or other values, get a fresh build
        for p in (QpProblem(H=H.copy(), q=[1.0, -3.0], F=F, g=[0.5, 0.2]),
                  QpProblem(H=H, q=[1.0, -3.0], F=2.0 * F, g=[0.5, 0.2]),
                  QpProblem(H=H, q=[1.0, -3.0], F=F, g=[0.5, 0.2], F_eq=[[1.0, -1.0]],
                            g_eq=[0.0])):
            factors.clear()
            got = solve_qp(p, workspace=ws)
            built = len(factors)
            assert ws.H is p.H and ws.F is p.F and ws.F_eq is p.F_eq
            assert self._same(got, solve_qp(p))
            assert built == len(factors) - built

    def test_failed_build_is_not_reused(self):
        # a build that raises must not leave the workspace fitting the problem
        ws = qp_solver.QpWorkspace()
        p = QpProblem(H=np.diag([-5e-7, 1.0]), q=[1.0, 1.0], F=np.eye(2), g=[1.0, 1.0])
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match="H is not positive semidefinite"):
                solve_qp(p, workspace=ws)
        assert not ws.fits(p)
        # a Gram matrix F'F that overflows fails the factor at RHO; the
        # workspace still fits the problem solved before it, with that
        # problem's rows and factors, not the failed build's
        ok = QpProblem(H=np.eye(2), q=[-4.0, 1.0], F=np.eye(2), g=[1.0, 1.0])
        solve_qp(ok, workspace=ws)
        big = QpProblem(H=np.eye(2), F=[[1e200, 0.0]], g=[1.0])
        for _ in range(2):
            with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
                solve_qp(big, workspace=ws)
        assert not ws.fits(big) and ws.fits(ok)
        assert self._same(solve_qp(ok, workspace=ws), solve_qp(ok))


def _sparse_rows(p):
    """The QP p with F and F_eq as CSR arrays."""
    return QpProblem(H=p.H, q=p.q, r=p.r, F=sparse.csr_array(p.F), g=p.g,
                     F_eq=sparse.csr_array(p.F_eq), g_eq=p.g_eq)


def _sparse_form_qp(lti_12_4, N=20):
    """The sparse-form LMPC QP of the (12, 4) system at its initial state."""
    model, X_set, U_set, x0 = lti_12_4
    pm = build_prediction(model, N)
    w = build_weights(np.eye(12), 0.1 * np.eye(4), np.eye(12), N)
    c = stack_constraints(X_set, U_set, None, N)
    return assemble_sparse_qp(sparse_blocks(pm, w, c, N), x0)


def _dense_rows(p):
    return QpProblem(H=p.H, q=p.q, r=p.r, F=p.F.toarray(), g=p.g,
                     F_eq=p.F_eq.toarray(), g_eq=p.g_eq)


def _pairs(lti_12_4):
    """(dense, CSR) row forms of the oracle's random QPs and of one
    (12, 4, 20) sparse-form QP."""
    rng = np.random.default_rng(31)
    pairs = [(p, _sparse_rows(p)) for p in (random_strictly_convex_qp(rng) for _ in range(60))]
    sf = _sparse_form_qp(lti_12_4)
    return pairs + [(_dense_rows(sf), sf)]


def _rel_close(a, b, rel):
    """max|a - b| <= rel max|b|: equal entries when b is zero."""
    return float(np.abs(a - b).max(initial=0.0)) <= rel * float(np.abs(b).max(initial=0.0))


class TestSparseRows:
    """F and F_eq as CSR arrays give the dense rows' answers, to rounding."""

    def test_solutions_match_dense_rows(self, lti_12_4):
        for dense, csr in _pairs(lti_12_4):
            a, b = solve_qp(dense), solve_qp(csr)
            assert b.status is a.status
            assert _rel_close(b.z_star, a.z_star, 1e-9)
            assert _rel_close(b.duals, a.duals, 1e-9)

    def test_reduced_matrices_match_dense_rows(self, lti_12_4, monkeypatch):
        reduced = []
        monkeypatch.setattr(qp_solver, "lu_factor", lambda M: reduced.append(M) or (M, None))
        for dense, csr in _pairs(lti_12_4):
            for p in (dense, csr):
                qp_solver.QpWorkspace().build(p)
            assert reduced[-2].shape == (dense.d, dense.d)
            assert _rel_close(reduced[-1], reduced[-2], 1e-12)

    def test_reduced_matrices_at_every_rho(self, lti_12_4, monkeypatch):
        # RHO far from balance forces step-size updates; every reduced matrix
        # factored, at the build and at each update, is P + sigma I +
        # A' diag(rho) A formed explicitly from the dense rows
        monkeypatch.setattr(qp_solver, "RHO", 1e-5)
        rho_bases, factored = [], []
        factor, lu_factor = qp_solver._factor, qp_solver.lu_factor
        monkeypatch.setattr(qp_solver, "_factor",
                            lambda G, P_sigma, rho_base:
                            rho_bases.append(rho_base) or factor(G, P_sigma, rho_base))
        monkeypatch.setattr(qp_solver, "lu_factor",
                            lambda M: factored.append(M.copy()) or lu_factor(M))
        # no ADMM iterate passes zero tolerances, and no polish runs: the
        # polished point of a one-variable QP can be exact and pass them
        monkeypatch.setattr(qp_solver, "_polish", lambda *args: None)
        settings = SolverSettings(eps_abs=0.0, eps_rel=0.0, max_iter=200)
        for dense, csr in _pairs(lti_12_4)[::6]:
            A = np.vstack([dense.F, dense.F_eq])
            scale = np.repeat([1.0, 1e3], [dense.F.shape[0], dense.F_eq.shape[0]])
            for p in (dense, csr):
                rho_bases.clear()
                factored.clear()
                solve_qp(p, settings=settings)
                assert len(rho_bases) > 1 and len(factored) == len(rho_bases)
                assert rho_bases[0] == 1e-5
                for rho_base, M in zip(rho_bases, factored):
                    ref = 2.0 * p.H + qp_solver.SIGMA * np.eye(p.d) \
                        + A.T @ (rho_base * scale[:, None] * A)
                    assert _rel_close(M, ref, 1e-12)

    def test_csr_block_kept_as_is(self, lti_12_4):
        p = _sparse_form_qp(lti_12_4, N=3)
        assert isinstance(p.F, sparse.csr_array) and isinstance(p.F_eq, sparse.csr_array)
        again = QpProblem(H=p.H, q=p.q, F=p.F, g=p.g, F_eq=p.F_eq, g_eq=p.g_eq)
        assert again.F is p.F and again.F_eq is p.F_eq
        ws = qp_solver.QpWorkspace()
        ws.build(p)
        assert ws.fits(again)
        assert isinstance(ws.A, sparse.csr_array) and isinstance(ws.At, sparse.csr_array)
        assert np.array_equal(ws.At.toarray(), ws.A.toarray().T)
        # other sparse formats and dtypes become float CSR arrays
        F = sparse.coo_matrix(np.array([[1, 0], [0, 2]], dtype=np.int32))
        converted = QpProblem(H=np.eye(2), F=F, g=[1.0, 1.0]).F
        assert isinstance(converted, sparse.csr_array) and converted.dtype == float
        assert np.array_equal(converted.toarray(), [[1.0, 0.0], [0.0, 2.0]])

    def test_sparse_block_shape_checked(self):
        with pytest.raises(ShapeError):
            QpProblem(H=np.eye(2), F=sparse.csr_array(np.eye(3)), g=np.ones(3))
        with pytest.raises(ShapeError):
            QpProblem(H=np.eye(2), F_eq=sparse.csr_array(np.eye(2)), g_eq=np.ones(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sparse_rows_rejected(self, bad):
        F = sparse.csr_array(np.array([[1.0, 0.0], [bad, 1.0]]))
        with pytest.raises(NonFiniteError):
            solve_qp(QpProblem(H=np.eye(2), F=F, g=[1.0, 1.0]))
        with pytest.raises(NonFiniteError):
            solve_qp(QpProblem(H=np.eye(2), F_eq=F, g_eq=[1.0, 1.0]))

    def test_kkt_residuals_match_dense_rows(self, lti_12_4):
        rng = np.random.default_rng(5)
        for dense, csr in _pairs(lti_12_4):
            z = rng.normal(size=dense.d)
            duals = rng.normal(size=dense.F.shape[0] + dense.F_eq.shape[0])
            assert kkt_residuals(csr, z, duals) \
                == pytest.approx(kkt_residuals(dense, z, duals), rel=1e-12, abs=0.0)


class TestPolishFactor:
    """The workspace keeps the LU of the polish system's equality block K_eq,
    a function of H and F_eq, and nothing that depends on the active rows."""

    def _box(self, scale):
        # scaling the rows and bounds moves no optimum and no active row, but
        # changes A and with it K_eq = [P + dI, F_eq'; F_eq, -dI]; the optimum
        # (1, 0.5) has the bound z1 <= 1 active
        F = scale * np.vstack([np.eye(2), -np.eye(2)])
        return QpProblem(H=np.eye(2), q=[-4.0, -1.0], F=F, g=scale * np.array([1.0, 1.0, 0.0, 0.0]),
                         F_eq=scale * np.array([[1.0, -1.0]]), g_eq=scale * np.array([0.5]))

    def test_rebuild_drops_kept_factor(self):
        ws = qp_solver.QpWorkspace()
        solve_qp(self._box(1.0), workspace=ws)
        kept = ws.keq
        other = self._box(2.0)
        got = solve_qp(other, workspace=ws)
        fresh_ws = qp_solver.QpWorkspace()
        fresh = solve_qp(other, workspace=fresh_ws)
        assert ws.keq is not kept and not np.array_equal(ws.keq[0], kept[0])
        assert np.array_equal(ws.keq[0], fresh_ws.keq[0])
        assert np.array_equal(got.z_star, fresh.z_star)
        assert np.array_equal(got.duals, fresh.duals)
        assert got.iterations == fresh.iterations

    def test_factor_that_raised_is_not_kept(self, monkeypatch):
        # one active F row: the polish factors the 3 x 3 K_eq, then the 1 x 1
        # S; a raise from K_eq keeps no keq, and S is never kept
        p = self._box(1.0)
        lu_factor = qp_solver.lu_factor
        for singular in (p.d + 1, 1):
            def singular_kkt(M):
                if M.shape[0] == singular:
                    raise SingularMatrixError("singular")
                return lu_factor(M)

            ws = qp_solver.QpWorkspace()
            monkeypatch.setattr(qp_solver, "lu_factor", singular_kkt)
            solve_qp(p, workspace=ws)
            assert (ws.keq is None) == (singular == p.d + 1)
            monkeypatch.setattr(qp_solver, "lu_factor", lu_factor)
            got, fresh = solve_qp(p, workspace=ws), solve_qp(p)
            assert np.array_equal(got.z_star, fresh.z_star)
            assert np.array_equal(got.duals, fresh.duals)


def _built(p):
    """A workspace built for p, and solve_qp's row bounds u = [g; g_eq]."""
    ws = qp_solver.QpWorkspace()
    ws.build(p)
    return ws, np.concatenate([p.g, p.g_eq])


def _residuals(ws, q, u, x, y):
    """Reference residuals of (x, y): the primal violation of F x <= g,
    F_eq x = g_eq (u = [g; g_eq]) and the stationarity |P x + q + A'y|, with
    A and P from the workspace ws."""
    return (qp_solver._violation(ws.A @ x - u, ws.F.shape[0]),
            float(np.abs(ws.P @ x + q + ws.At @ y).max()))


def _polish_at(p, ws, u, x, y):
    """qp_solver._polish on the active rows of the iterate (x, y), as a
    termination check of solve_qp finds them; the iterate and its residuals
    when the polished point fails the accept test."""
    n_in = p.F.shape[0]
    idx = qp_solver._active_rows((ws.A @ x)[:n_in], p.g, y[:n_in])
    return qp_solver._polish(p, ws, SolverSettings(), u, idx) \
        or (x, y, _residuals(ws, p.q, u, x, y))


def _polish(p, x, y):
    """qp_solver._polish of the iterate (x, y) with a fresh workspace."""
    return _polish_at(p, *_built(p), np.asarray(x, dtype=float), np.asarray(y, dtype=float))[:2]


class TestPolishRule:
    """One KKT solve on the active rows: every F_eq row, and the F rows with
    a positive multiplier or at their bound."""

    def test_active_rows_match_isclose_rule(self):
        # A x at 0, 0.5, 1 and 2 tolerances 1e-7 + 1e-5 |g| from g, and one
        # ulp either side of the tolerance; bounds at 0 (tolerance exactly
        # 1e-7) and at +-inf; multipliers at, below and above 1e-9
        rng = np.random.default_rng(25)
        g = rng.normal(scale=10.0, size=2000)
        g[::9], g[1::9], g[2::13] = 0.0, np.inf, -np.inf
        finite_g = np.where(np.isfinite(g), g, 0.0)
        tol = 1e-7 + 1e-5 * np.abs(finite_g)
        side = rng.choice([-1.0, 1.0], size=g.size)
        ax = finite_g + side * tol * rng.choice([0.0, 0.5, 1.0, 2.0], size=g.size)
        ax[3::7] = np.nextafter(ax[3::7], rng.choice([-np.inf, np.inf], size=ax[3::7].size))
        ax[g == np.inf] = rng.normal(size=int((g == np.inf).sum()))
        y = rng.choice([0.0, 1e-9, np.nextafter(1e-9, 1.0), np.nextafter(1e-9, 0.0), 1.0, -1.0],
                       size=g.size)
        expected = np.flatnonzero((y > 1e-9) | np.isclose(ax, g, atol=1e-7))
        assert np.array_equal(qp_solver._active_rows(ax, g, y), expected)
        at_bound = np.isclose(ax, g, atol=1e-7)
        assert 0 < at_bound.sum() < np.isfinite(g).sum()
        assert (at_bound & (np.abs(ax - g) == 1e-7 + 1e-5 * np.abs(g))).any()

    def test_equality_multiplier_takes_either_sign(self):
        # the minimizer (0.5, -0.5) has multiplier 1; the iterate misses the
        # row by 1e-6 with a multiplier of the other sign
        p = QpProblem(H=np.eye(2), q=[-2.0, 0.0], F_eq=[[1.0, 1.0]], g_eq=[0.0])
        x, y = _polish(p, [0.5, -0.5 + 1e-6], [-1e-3])
        assert np.abs(x - [0.5, -0.5]).max() <= 1e-12
        assert np.abs(y - [1.0]).max() <= 1e-12

    def test_exact_minimizer_kept_when_its_objective_rounds_higher(self):
        # search for an iterate 1e-9 from the minimizer of a QP whose bounds
        # at +-100 are all inactive, with an objective that rounds lower
        rng = np.random.default_rng(3)
        box = np.vstack([np.eye(4), -np.eye(4)])
        for _ in range(100):
            M = rng.normal(size=(4, 4))
            p = QpProblem(H=M @ M.T + np.eye(4), q=rng.normal(size=4), F=box, g=np.full(8, 100.0))
            z = np.linalg.solve(2.0 * p.H, -p.q)
            x = z + 1e-9 * rng.normal(size=4)
            if p.objective(x) < p.objective(z):
                break
        else:
            pytest.fail("no iterate whose objective rounds below the minimizer's")
        xh, yh = _polish(p, x, np.zeros(8))
        assert kkt_residuals(p, xh, yh)[0] <= 1e-12

    def test_unconstrained_polish_factor_kept(self, monkeypatch):
        # two solves on one workspace polish on the same (empty) active set
        factored = []
        lu_factor = qp_solver.lu_factor

        def recording_lu_factor(M):
            factored.append(M.copy())
            return lu_factor(M)

        monkeypatch.setattr(qp_solver, "lu_factor", recording_lu_factor)
        ws, H = qp_solver.QpWorkspace(), np.diag([1.0, 2.0])
        for q in ([-2.0, 1.0], [1.0, 3.0]):
            p = QpProblem(H=H, q=q)
            sol = solve_qp(p, workspace=ws)
            assert sol.status is QpStatus.OPTIMAL
            assert kkt_residuals(p, sol.z_star, sol.duals)[0] <= 1e-12
        polish = 2.0 * H + 1e-9 * np.eye(2)
        assert sum(np.array_equal(M, polish) for M in factored) == 1


def _kkt_point_qp(rng, d, rank, n_eq, k, n_free):
    """A QP with H of the given rank, n_eq equality rows, k F rows active
    with positive multipliers and n_free F rows inactive, and its KKT point
    (z, multipliers of [F; F_eq])."""
    M = rng.normal(size=(d, rank))
    F, F_eq, z = rng.normal(size=(k + n_free, d)), rng.normal(size=(n_eq, d)), rng.normal(size=d)
    duals = np.concatenate([rng.uniform(0.5, 2.0, k), np.zeros(n_free), rng.normal(size=n_eq)])
    g = F @ z + np.concatenate([np.zeros(k), rng.uniform(0.5, 2.0, n_free)])
    H = M @ M.T
    q = -(2.0 * H @ z + np.vstack([F, F_eq]).T @ duals)
    return QpProblem(H=H, q=q, F=F, g=g, F_eq=F_eq, g_eq=F_eq @ z), z, duals


class TestBorderedPolish:
    """The polish solves its KKT system by block elimination on one factor
    of the equality block K_eq and a k x k factor per active set."""

    @pytest.mark.parametrize("n_eq, k", [(0, 0), (3, 0), (0, 3), (3, 2)])
    def test_back_substitutions(self, monkeypatch, n_eq, k):
        # the first refinement round brings a well-conditioned polish to
        # rounding level, so it stops there: two back-substitutions with K_eq
        # for k = 0, and for k > 0 one k-column solve for W and two bordered
        # solves, each one with K_eq and one with S; with the objective scaled
        # by 1e6 (the same KKT point, 1e6 times the multipliers) the residual
        # stays above 1e-12 and the polish stops after its three rounds
        rng = np.random.default_rng(25 + 10 * n_eq + k)
        lu_solve = qp_solver.lu_solve
        for scale, bordered in ((1.0, 2), (1e6, 4)):
            p, z, duals = _kkt_point_qp(rng, 8, 8, n_eq, k, 4)
            p = QpProblem(H=scale * p.H, q=scale * p.q, F=p.F, g=p.g, F_eq=p.F_eq, g_eq=p.g_eq)
            ws, u = _built(p)
            calls = []
            monkeypatch.setattr(qp_solver, "lu_solve",
                                lambda lu, b: calls.append((lu, b.shape)) or lu_solve(lu, b))
            y = scale * (duals + 1e-9 * rng.normal(size=duals.shape[0]) * (duals != 0))
            xh = _polish_at(p, ws, u, z + 1e-9 * rng.normal(size=8), y)[0]
            monkeypatch.setattr(qp_solver, "lu_solve", lu_solve)
            assert np.abs(xh - z).max() <= 1e-10    # the polished point was kept
            keq = [shape for lu, shape in calls if lu is ws.keq]
            others = [shape for lu, shape in calls if lu is not ws.keq]
            assert keq == ([(8 + n_eq, k)] if k else []) + [(8 + n_eq,)] * bordered
            assert others == ([(k,)] * bordered if k else [])

    @pytest.mark.parametrize("rows", ["dense", "csr"])
    @pytest.mark.parametrize("rank, n_eq, k", [(3, 3, 3), (4, 0, 4), (2, 5, 1)])
    def test_matches_dense_kkt_solve(self, monkeypatch, rows, rank, n_eq, k):
        # rank-deficient H; the iterate is 1e-9 from the KKT point, so the
        # active rows are the k F rows and every F_eq row
        rng = np.random.default_rng(20 + 10 * rank + n_eq)
        lu_factor = qp_solver.lu_factor
        for _ in range(10):
            p, z, duals = _kkt_point_qp(rng, 8, rank, n_eq, k, 4)
            if rows == "csr":
                p = _sparse_rows(p)
            ws, u = _built(p)
            sizes = []
            monkeypatch.setattr(qp_solver, "lu_factor",
                                lambda M: sizes.append(M.shape[0]) or lu_factor(M))
            y = duals + 1e-9 * rng.normal(size=duals.shape[0]) * (duals != 0)
            xh, yh, _ = _polish_at(p, ws, u, z + 1e-9 * rng.normal(size=8), y)
            monkeypatch.setattr(qp_solver, "lu_factor", lu_factor)
            assert sizes == [8 + n_eq, k]
            act = np.r_[0:k, k + 4:k + 4 + n_eq]
            A_act = np.vstack([_dense(p.F), _dense(p.F_eq)])[act]
            K = np.block([[2.0 * p.H, A_act.T], [A_act, np.zeros((len(act), len(act)))]])
            ref = np.linalg.solve(K, np.concatenate([-p.q, u[act]]))
            assert np.abs(xh - ref[:8]).max() <= 1e-10
            assert np.abs(yh[act] - ref[8:]).max() <= 1e-10
            assert not yh[k:k + 4].any()

    def test_reported_residuals_are_the_returned_points(self, monkeypatch):
        # solve_qp reports the residuals that _polish compared in its accept
        # test: the ADMM iterate's come from the check that stopped the loop,
        # and the polished point's from the products its last refinement
        # round tested; they equal the reference _residuals of the returned
        # point, whether the polished point is kept or the ADMM iterate is
        def fresh(p, x, y):
            ws, u = _built(p)
            return _residuals(ws, p.q, u, x, y)

        rng = np.random.default_rng(4)
        for q in [random_strictly_convex_qp(rng) for _ in range(10)]:
            for rows in (q, _sparse_rows(q)):
                polished = solve_qp(rows)
                assert polished.status is QpStatus.OPTIMAL
                assert polished.dual_residual <= 1e-12    # the polished point was kept
                assert (polished.primal_residual, polished.dual_residual) \
                    == fresh(rows, polished.z_star, polished.duals)
        # min z^2 + 2z has its minimizer -1 inside z <= 0.5; polishing the
        # iterate 0.5 on that row gives the multiplier -3, which fails the
        # sign test
        one = QpProblem(H=np.eye(1), q=[2.0], F=[[1.0]], g=[0.5])
        x, y, res = _polish_at(one, *_built(one), np.array([0.5]), np.array([0.0]))
        assert np.array_equal(x, [0.5]) and np.array_equal(y, [0.0])
        assert res == fresh(one, x, y)
        # an ADMM iterate kept unpolished, or one that ends at the iteration
        # cap or with a certificate, reports the residuals of the check that
        # stopped the loop: the same bits as _residuals, for dense and CSR rows
        monkeypatch.setattr(qp_solver, "_polish", lambda *args: None)
        rng = np.random.default_rng(16)
        infeasible = QpProblem(H=[[1.0]], F=[[1.0], [-1.0]], g=[-1.0, -2.0])
        statuses = set()
        for q in [random_strictly_convex_qp(rng) for _ in range(20)] + [infeasible]:
            for rows in (q, _sparse_rows(q)):
                for max_iter in (1, 7, 20000):
                    admm = solve_qp(rows, settings=SolverSettings(max_iter=max_iter))
                    statuses.add(admm.status)
                    assert (admm.primal_residual, admm.dual_residual) \
                        == fresh(rows, admm.z_star, admm.duals)
        assert statuses == set(QpStatus)


def _recorded_polishes(monkeypatch):
    """Record each qp_solver._polish call as (active F rows, its result)."""
    calls, polish = [], qp_solver._polish

    def recording(p, ws, s, u, idx):
        calls.append((idx, polish(p, ws, s, u, idx)))
        return calls[-1][1]

    monkeypatch.setattr(qp_solver, "_polish", recording)
    return calls


class TestPolishAtChecks:
    """solve_qp polishes at convergence and at the termination checks
    numbered by a power of two, and returns the first polished point that
    passes the termination test."""

    def test_wrong_first_active_set_runs_on(self, monkeypatch):
        # the rows active at the first check (iteration CHECK_EVERY) are not
        # the optimum's: that polished point fails, ADMM runs on, and a later
        # active set gives the oracle's answer
        calls = _recorded_polishes(monkeypatch)
        rng = np.random.default_rng(7)
        wrong_first = 0
        for _ in range(40):
            p = random_strictly_convex_qp(rng)
            calls.clear()
            sol = solve_qp(p)
            if calls[0][1] is not None:
                continue
            wrong_first += 1
            z, obj = solve_oracle(p)
            assert sol.status is QpStatus.OPTIMAL and sol.iterations > qp_solver.CHECK_EVERY
            assert sol.z_star is calls[-1][1][0]
            assert np.abs(sol.z_star - z).max() <= 1e-9
            assert abs(sol.objective - obj) <= 1e-9 * max(1.0, abs(obj))
        assert wrong_first >= 5

    @pytest.mark.parametrize("eps", [1e-6, 1e-3])
    def test_accepted_point_passes_termination_test(self, monkeypatch, eps):
        # every polished point returned passes eps_abs + eps_rel scale with
        # the scales of its own A x, P x and A'y, and has F-row multipliers
        # >= -1e-7; most pass before ADMM's own iterate would
        calls = _recorded_polishes(monkeypatch)
        settings = SolverSettings(eps_abs=eps, eps_rel=eps)
        rng = np.random.default_rng(8)
        accepted = 0
        for q in [random_strictly_convex_qp(rng) for _ in range(100)]:
            for p in (q, _sparse_rows(q)):
                calls.clear()
                sol = solve_qp(p, settings=settings)
                if not calls or calls[-1][1] is None:
                    continue
                accepted += 1
                assert sol.status is QpStatus.OPTIMAL and sol.z_star is calls[-1][1][0]
                stationarity, violation, _ = kkt_residuals(p, sol.z_star, sol.duals)
                A = np.vstack([_dense(p.F), _dense(p.F_eq)])
                scale_dual = max(float(np.abs(2.0 * p.H @ sol.z_star).max()),
                                 float(np.abs(p.q).max()), float(np.abs(A.T @ sol.duals).max()))
                assert violation <= eps + eps * float(np.abs(A @ sol.z_star).max(initial=0.0))
                assert stationarity <= eps + eps * scale_dual
                assert sol.duals[:p.F.shape[0]].min(initial=0.0) >= -1e-7
        assert accepted >= 150


class TestKktResiduals:
    def test_unconstrained_optimum(self):
        p = QpProblem(H=np.eye(2), q=[-2, -2])
        stat, prim, comp = kkt_residuals(p, np.array([1.0, 1.0]), np.zeros(0))
        assert stat <= 1e-9 and prim <= 1e-9 and comp <= 1e-9

    def test_primal_violation(self):
        p = QpProblem(H=[[1.0]], F=[[-1.0]], g=[-1.0])
        stat, prim, comp = kkt_residuals(p, np.array([0.0]), np.array([0.0]))
        assert prim == pytest.approx(1.0)

    def test_equality_multiplier(self):
        p = QpProblem(H=np.eye(2), F_eq=[[1, 1]], g_eq=[2])
        stat, prim, comp = kkt_residuals(p, np.array([1.0, 1.0]),
                                         np.array([-2.0]))
        assert stat <= 1e-9 and prim <= 1e-9

    def test_bound_multipliers(self):
        # the upper bounds z <= 1 are F rows
        p = QpProblem(H=np.eye(2), q=[-4, 0], F=np.eye(2), g=[1, 1])
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert np.allclose(sol.z_star, [1, 0]) and np.allclose(sol.duals, [2, 0])
        stat, prim, comp = kkt_residuals(p, sol.z_star, sol.duals)
        assert stat <= 1e-9 and prim <= 1e-9 and comp <= 1e-9
        # a multiplier on a bound row that is not active breaks complementarity
        stat, _, comp = kkt_residuals(p, np.array([0.5, 0.0]), np.array([3.0, 0.0]))
        assert stat == pytest.approx(0.0) and comp == pytest.approx(1.5)
        with pytest.raises(ShapeError):
            kkt_residuals(p, sol.z_star, np.array([2.0]))

    def test_row_without_bound(self):
        # g = +inf on the second row: its zero multiplier adds nothing to the
        # complementarity, not 0 * inf, and a nonzero one reads inf
        p = QpProblem(H=np.eye(2), q=[-2.0, -2.0], F=np.eye(2), g=[0.5, np.inf])
        z = np.array([0.5, 1.0])
        assert kkt_residuals(p, z, np.array([1.0, 0.0])) == (0.0, 0.0, 0.0)
        assert kkt_residuals(p, z, np.array([1.0, 1.0]))[2] == np.inf

    def test_dimension_check(self):
        p = QpProblem(H=np.eye(2), F=[[1, 0]], g=[1])
        with pytest.raises(ShapeError):
            kkt_residuals(p, np.zeros(2), np.zeros(0))
