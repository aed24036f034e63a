"""Discrete-time system models, polytopic constraint sets and steady-state inputs."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ShapeError, SteadyStateError
from .numerics import as_matrix, as_vector, finite_diff_jacobian, pseudo_inverse_apply

DEFAULT_CONTAIN_TOL = 1e-8


@dataclass(frozen=True)
class LtiModel:
    """x_{k+1} = A x_k + B u_k, with the step and Jacobians of a NonlinearModel."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ShapeError(f"A must be square, got {A.shape}")
        if B.shape[0] != A.shape[0]:
            raise ShapeError(f"B must have {A.shape[0]} rows, got {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    def step(self, x, u):
        return lti_step(self, x, u)

    def jac_x(self, x, u):
        return self.A.copy()

    def jac_u(self, x, u):
        return self.B.copy()


@dataclass(frozen=True)
class NonlinearModel:
    """x_{k+1} = step(x_k, u_k) with optional analytic Jacobians.

    ``step`` must be a pure function returning a length-n vector.
    ``jac_x`` / ``jac_u``, when given, return the n-by-n and n-by-m
    Jacobians of ``step`` with respect to state and input.
    """

    n: int
    m: int
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_x: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    jac_u: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ShapeError(f"dimensions must be positive, got n={self.n}, m={self.m}")


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of the forward-Euler discretized pendulum."""

    M: float = 1.0
    B_fric: float = 1.0
    l: float = 1.0
    g_grav: float = 9.8
    T: float = 0.1

    def __post_init__(self):
        if self.M <= 0 or self.l <= 0 or self.T <= 0:
            raise ValueError("pendulum requires M > 0, l > 0, T > 0")


@dataclass(frozen=True)
class Polytope:
    """{v : F v <= g}."""

    F: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        g = as_vector(self.g, "g")
        if F.ndim != 2:
            raise ShapeError(f"F must be 2-D, got shape {F.shape}")
        if F.shape[1] < 1:
            raise ShapeError("polytope dimension must be at least 1")
        if F.shape[0] != g.shape[0]:
            raise ShapeError(f"F has {F.shape[0]} rows but g has {g.shape[0]}")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "g", g)

    @property
    def dim(self):
        return self.F.shape[1]

    @property
    def rows(self):
        return self.F.shape[0]


def empty_polytope(dim):
    """Unconstrained set of the given dimension (zero inequality rows)."""
    return Polytope(np.zeros((0, dim)), np.zeros(0))


def box_polytope(bound, dim=1):
    """|v_i| <= bound elementwise (scalar bound), as a Polytope."""
    F = np.vstack([np.eye(dim), -np.eye(dim)])
    g = np.full(2 * dim, float(bound))
    return Polytope(F, g)


def lti_step(model, x, u):
    """One step of the LTI dynamics: A x + B u."""
    x = as_vector(x, "x")
    u = as_vector(u, "u")
    if x.shape[0] != model.n:
        raise ShapeError(f"state has dimension {x.shape[0]}, expected {model.n}")
    if u.shape[0] != model.m:
        raise ShapeError(f"input has dimension {u.shape[0]}, expected {model.m}")
    return model.A @ x + model.B @ u


def pendulum_step(p, x, u):
    """Forward-Euler pendulum map.

    [x1 + T x2,
     x2 + T(-(g/l) sin(x1) - (B/(M l^2)) x2 + (1/(M l^2)) u)]
    """
    x = as_vector(x, "x")
    u = as_vector(u, "u")
    ml2 = p.M * p.l * p.l
    x1 = x[0] + p.T * x[1]
    x2 = x[1] + p.T * (-(p.g_grav / p.l) * math.sin(x[0])
                       - (p.B_fric / ml2) * x[1] + u[0] / ml2)
    return np.array([x1, x2])


def pendulum_model(p=None):
    """Pendulum wrapped as a NonlinearModel with analytic Jacobians."""
    if p is None:
        p = PendulumParams()
    ml2 = p.M * p.l * p.l

    def jac_x(x, u):
        return np.array([
            [1.0, p.T],
            [-p.T * (p.g_grav / p.l) * math.cos(x[0]), 1.0 - p.T * p.B_fric / ml2],
        ])

    def jac_u(x, u):
        return np.array([[0.0], [p.T / ml2]])

    return NonlinearModel(n=2, m=1,
                          step=lambda x, u: pendulum_step(p, x, u),
                          jac_x=jac_x, jac_u=jac_u)


def lti_as_nonlinear(model):
    """Wrap an LtiModel in the NonlinearModel interface."""
    return NonlinearModel(model.n, model.m, model.step, model.jac_x, model.jac_u)


def polytope_contains(P, v, tol=DEFAULT_CONTAIN_TOL):
    """True iff F v <= g + tol rowwise. Zero-row polytopes contain everything."""
    v = as_vector(v, "v")
    if v.shape[0] != P.dim:
        raise ShapeError(f"point has dimension {v.shape[0]}, polytope has {P.dim}")
    return bool(np.all(P.F @ v <= P.g + tol))


def steady_state_input_lti(model, x_r):
    """Steady input u_r solving x_r = A x_r + B u_r in the least-squares sense."""
    x_r = as_vector(x_r, "x_r")
    if x_r.shape[0] != model.n:
        raise ShapeError(f"reference has dimension {x_r.shape[0]}, expected {model.n}")
    rhs = (np.eye(model.n) - model.A) @ x_r
    return pseudo_inverse_apply(model.B, rhs)


def steady_state_input_nonlinear(model, x_r, u_guess=None,
                                 tol=1e-8, max_iter=100, max_halvings=20):
    """Steady input u_r with f(x_r, u_r) = x_r, by damped Gauss-Newton.

    Succeeds when the 2-norm residual drops to ``tol``; otherwise raises
    SteadyStateError carrying the final residual.
    """
    x_r = as_vector(x_r, "x_r")
    u = np.zeros(model.m) if u_guess is None else as_vector(u_guess, "u_guess").copy()

    def residual(uu):
        return as_vector(model.step(x_r, uu)) - x_r

    r = residual(u)
    rnorm = np.linalg.norm(r)
    for _ in range(max_iter):
        if rnorm <= tol:
            return u
        if model.jac_u is not None:
            J = as_matrix(model.jac_u(x_r, u), "jac_u")
        else:
            J = finite_diff_jacobian(residual, u)
        try:
            du = pseudo_inverse_apply(J, -r)
        except Exception as exc:
            raise SteadyStateError(f"Gauss-Newton step failed: {exc}", residual=rnorm)
        step = 1.0
        for _ in range(max_halvings):
            r_new = residual(u + step * du)
            if np.linalg.norm(r_new) < rnorm:
                break
            step *= 0.5
        else:
            raise SteadyStateError("line search stalled in steady-state solve", residual=rnorm)
        u = u + step * du
        r = r_new
        rnorm = np.linalg.norm(r)
    if rnorm <= tol:
        return u
    raise SteadyStateError(
        f"no steady-state input within {max_iter} iterations (residual {rnorm:.3e})",
        residual=rnorm)
