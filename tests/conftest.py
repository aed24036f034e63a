import numpy as np
import pytest

from mpckit.model import LtiModel, Polytope, box_polytope, pendulum_model


@pytest.fixture
def lti_demo_model():
    # the two-state system used throughout the closed-loop tests
    return LtiModel([[0.9, 0.2], [-0.4, 0.8]], [[0.1], [0.01]])


@pytest.fixture
def lti_demo_sets():
    Fx = np.vstack([np.eye(2), -np.eye(2)])
    gx = np.full(4, 10.0)
    Fu = np.array([[1.0], [-1.0]])
    gu = np.array([1.0, 1.0])
    return Polytope(Fx, gx), Polytope(Fu, gu)


@pytest.fixture
def pendulum():
    return pendulum_model()


@pytest.fixture
def pendulum_sets():
    Fx = np.vstack([np.eye(2), -np.eye(2)])
    gx = np.full(4, 5.0)
    Fu = np.array([[1.0], [-1.0]])
    gu = np.array([0.1, 0.0])
    return Polytope(Fx, gx), Polytope(Fu, gu)


@pytest.fixture
def lti_12_4():
    """A (12, 4) system at spectral radius 0.98 with |x| <= 10 and |u| <= 1,
    and an initial state: the size of the benchmark's LMPC systems, from which
    a horizon-20 loop has active input bounds for several steps."""
    r = np.random.default_rng(0)
    A = r.standard_normal((12, 12))
    A *= 0.98 / np.abs(np.linalg.eigvals(A)).max()
    B = r.standard_normal((12, 4)) / np.sqrt(12)
    return LtiModel(A, B), box_polytope(10.0, 12), box_polytope(1.0, 4), r.uniform(-2.0, 2.0, 12)
