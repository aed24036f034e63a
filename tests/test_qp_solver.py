import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mpckit import (MpcError, NonFiniteError, QpProblem, QpSolution, QpStatus, ShapeError,
                    SingularMatrixError, SolverSettings, kkt_residuals, solve_qp)
from mpckit import qp_solver
from mpckit.qp_solver import _support
from qp_oracle import random_strictly_convex_qp, solve_oracle


class TestProblemValidation:
    def test_asymmetric_h_rejected(self):
        with pytest.raises(ShapeError):
            QpProblem(H=[[1, 1e-3], [0, 1]])

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
        # H = diag(1, 0) is singular; polishing takes the regularized Newton
        # point rather than stopping at the ADMM iterate
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
            if M.shape[0] != p.d:     # the (d + n_active)-row polish KKT matrix
                raise SingularMatrixError("singular")
            return lu_factor(M)

        monkeypatch.setattr(qp_solver, "lu_factor", singular_kkt)
        sol = solve_qp(p)
        monkeypatch.setattr(qp_solver, "_polish", lambda p, A, l, u, x, y: (x, y))
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
    P = random_strictly_convex_qp(np.random.default_rng(39))

    @pytest.mark.parametrize("max_iter", [5, 10, 50, 55, 100])
    def test_same_iterates_as_checking_every_iteration(self, monkeypatch, max_iter):
        cap = SolverSettings(max_iter=max_iter)
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
    # 40 rows on 3 variables, none active at the optimum, so polishing
    # factors nothing and every factorization is the ADMM step's
    shapes = []
    lu_factor = qp_solver.lu_factor

    def recording_lu_factor(M, *args, **kwargs):
        shapes.append(M.shape)
        return lu_factor(M, *args, **kwargs)

    monkeypatch.setattr(qp_solver, "lu_factor", recording_lu_factor)
    rng = np.random.default_rng(15)
    F = rng.normal(size=(40, 3))
    g = np.abs(F).sum(axis=1) + 1.0   # every row holds with slack on |z| <= 1
    sol = solve_qp(QpProblem(H=np.eye(3), q=[-1.0, 0.5, 0.0], F=F, g=g))
    assert sol.status is QpStatus.OPTIMAL
    assert np.abs(sol.z_star - [0.5, -0.25, 0.0]).max() < 1e-6
    assert shapes and all(shape == (3, 3) for shape in shapes)


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


class TestOpenDefects:
    """Wrong answers the solver still gives. Each test states the right
    answer and is a strict xfail, so the fix that makes it pass must also
    remove its marker."""

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the residual-balancing rho update cycles between two "
                              "values and the solve never converges")
    def test_rho_limit_cycle(self):
        p = QpProblem(H=[[0.9125, 0.03125], [0.03125, 1.25625]], q=[0.5, 0.125],
                      F=[[0.625, 0.875], [0.625, 0.125], [0.25, -0.125], [0.125, 0.125]],
                      g=[-0.375, -0.875, -0.375, -0.375], F_eq=[[0.25, 0.625]], g_eq=[0.125])
        _, obj_oracle = solve_oracle(p)
        sol = solve_qp(p)
        assert sol.status is QpStatus.OPTIMAL
        assert abs(sol.objective - obj_oracle) <= 1e-5

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


def test_certificate_support_matches_loop():
    # the row-by-row loop the vectorized support function replaced
    def support_loop(e, l, u):
        total = 0.0
        for ei, li, ui in zip(e, l, u):
            if ei > 0:
                if np.isinf(ui):
                    return np.inf
                total += ui * ei
            elif ei < 0:
                if np.isinf(li):
                    return np.inf
                total += li * ei
        return total

    rng = np.random.default_rng(14)
    for _ in range(200):
        m = int(rng.integers(1, 30))
        l = rng.normal(size=m) - 1.0
        u = l + rng.uniform(0.0, 2.0, size=m)
        l[rng.random(m) < 0.2] = -np.inf
        u[rng.random(m) < 0.2] = np.inf
        e = rng.normal(size=m) * (rng.random(m) < 0.7)
        e /= max(np.abs(e).max(), 1e-300)
        want = support_loop(e, l, u)
        got = _support(e, l, u)
        if np.isinf(want):
            assert got == want
        else:
            assert abs(got - want) <= 1e-12 * max(1.0, np.abs(l[np.isfinite(l)]).sum()
                                                  + np.abs(u[np.isfinite(u)]).sum())


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
        assert len(factors) == 2 * reused + 1
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

    def test_dimension_check(self):
        p = QpProblem(H=np.eye(2), F=[[1, 0]], g=[1])
        with pytest.raises(ShapeError):
            kkt_residuals(p, np.zeros(2), np.zeros(0))
