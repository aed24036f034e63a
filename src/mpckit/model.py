"""Discrete-time system models, polytopic constraint sets and steady-state inputs."""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import ShapeError, SteadyStateError
from .numerics import (as_matrix, as_points, as_vector, finite_diff_jacobian,
                       pseudo_inverse_apply)

DEFAULT_CONTAIN_TOL = 1e-8
# Damped Gauss-Newton for the nonlinear steady-state input, started at u = 0:
# residual 2-norm to reach, iterations, and step halvings per line search.
STEADY_TOL = 1e-8
STEADY_MAX_ITER = 100
STEADY_MAX_HALVINGS = 20


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
        return np.broadcast_to(self.A, np.shape(x)[:-1] + self.A.shape).copy()

    def jac_u(self, x, u):
        return np.broadcast_to(self.B, np.shape(x)[:-1] + self.B.shape).copy()


@dataclass(frozen=True)
class NonlinearModel:
    """x_{k+1} = step(x_k, u_k) with optional analytic Jacobians.

    Each map takes stacked stages x (..., n) and u (..., m), one state having
    no leading axis, so that NMPC evaluates a horizon in one call: ``step`` is
    pure and gives (..., n), ``jac_x`` / ``jac_u``, when given, the (..., n, n)
    and (..., n, m) Jacobians of ``step``. Write ``x[..., 0]`` and ``np.sin``,
    not ``x[0]`` and ``math.sin``, as the README's example does.
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
        # the step divides by M l^2 and l, which positive parameters such as
        # l = 1e-300 can still underflow to 0 or overflow
        ml2 = self.M * self.l * self.l
        if not (0 < ml2 < np.inf and 0 < self.T / ml2 < np.inf
                and 0 < self.g_grav / self.l < np.inf):
            raise ValueError("pendulum requires M l^2, T / (M l^2) and g_grav / l finite and > 0")


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
    """A x + B u of one state or of stacked stages, each stage by its own
    matrix-vector product, whose bits x @ A.T would not keep."""
    x, u = as_points(x, model.n, "state"), as_points(u, model.m, "input")
    return (model.A @ x[..., None])[..., 0] + (model.B @ u[..., None])[..., 0]


def pendulum_step(p, x, u):
    """Forward-Euler pendulum map, of one state or of stacked stages.

    [x1 + T x2,
     x2 + T(-(g/l) sin(x1) - (B/(M l^2)) x2 + (1/(M l^2)) u)]
    """
    # transposed, x[i] is coordinate i of all stages; of one state it is a
    # numpy scalar, whose arithmetic is faster than that of a 0-d array
    x, u = as_points(x, 2, "state").T, as_points(u, 1, "input").T
    ml2 = p.M * p.l * p.l
    return np.array([x[0] + p.T * x[1],
                     x[1] + p.T * (-(p.g_grav / p.l) * np.sin(x[0])
                                   - (p.B_fric / ml2) * x[1] + u[0] / ml2)]).T


def pendulum_model(p=None):
    """Pendulum wrapped as a NonlinearModel with analytic Jacobians."""
    if p is None:
        p = PendulumParams()
    ml2 = p.M * p.l * p.l
    # the entries that do not depend on (x, u)
    A = np.array([[1.0, p.T], [0.0, 1.0 - p.T * p.B_fric / ml2]])
    B = np.array([[0.0], [p.T / ml2]])

    def jac_x(x, u):
        x = as_points(x, 2, "state")
        J = np.empty(x.shape + (2,))
        J[...] = A
        J[..., 1, 0] = -p.T * (p.g_grav / p.l) * np.cos(x[..., 0])
        return J

    def jac_u(x, u):
        J = np.empty(np.shape(x)[:-1] + B.shape)
        J[...] = B
        return J

    return NonlinearModel(n=2, m=1,
                          step=lambda x, u: pendulum_step(p, x, u),
                          jac_x=jac_x, jac_u=jac_u)


def lti_as_nonlinear(model):
    """Wrap an LtiModel in the NonlinearModel interface."""
    return NonlinearModel(model.n, model.m, model.step, model.jac_x, model.jac_u)


def polytope_contains(P, v, tol=DEFAULT_CONTAIN_TOL):
    """True iff F v <= g + tol rowwise, for one point v or all stacked points
    v (..., dim), each by its own F v. Zero-row polytopes contain everything."""
    v = as_points(v, P.dim, "point")
    return bool(np.all((P.F @ v[..., None])[..., 0] <= P.g + tol))


def steady_state_input_lti(model, x_r):
    """Steady input u_r solving x_r = A x_r + B u_r in the least-squares sense."""
    x_r = as_vector(x_r, "reference", model.n)
    rhs = (np.eye(model.n) - model.A) @ x_r
    return pseudo_inverse_apply(model.B, rhs)


def steady_state_input_nonlinear(model, x_r):
    """Steady input u_r with f(x_r, u_r) = x_r, by damped Gauss-Newton from u = 0.

    Succeeds when the 2-norm residual drops to STEADY_TOL; otherwise raises
    SteadyStateError carrying the final residual.
    """
    x_r = as_vector(x_r, "x_r")
    u = np.zeros(model.m)

    def residual(uu):
        return as_vector(model.step(x_r, uu)) - x_r

    r = residual(u)
    rnorm = np.linalg.norm(r)
    for _ in range(STEADY_MAX_ITER):
        if rnorm <= STEADY_TOL:
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
        for _ in range(STEADY_MAX_HALVINGS):
            r_new = residual(u + step * du)
            if np.linalg.norm(r_new) < rnorm:
                break
            step *= 0.5
        else:
            raise SteadyStateError("line search stalled in steady-state solve", residual=rnorm)
        u = u + step * du
        r = r_new
        rnorm = np.linalg.norm(r)
    if rnorm <= STEADY_TOL:
        return u
    raise SteadyStateError(
        f"no steady-state input within {STEADY_MAX_ITER} iterations (residual {rnorm:.3e})",
        residual=rnorm)
