"""Dense linear-algebra and differentiation kernels.

Matrices are 2-D float ndarrays in row-major order, vectors are 1-D float
ndarrays; a QP's H and row blocks may also be scipy.sparse CSR arrays
(as_cost, as_rows).
Everything here is a pure function of its inputs.
"""

import numpy as np
from scipy import sparse

from .exceptions import InvalidWeightError, ShapeError, SingularMatrixError

SYMMETRY_TOL = 1e-10


def as_matrix(M, name="matrix"):
    """Coerce to a 2-D float array, raising ShapeError on anything else."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"{name} must be 2-D with at least one row and column, got shape {A.shape}")
    return A


def as_vector(v, name="vector", dim=None):
    """Coerce to a 1-D float array, of dim entries when dim is given, raising
    ShapeError on anything else."""
    a = np.asarray(v, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1)
    if a.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise ShapeError(f"{name} has dimension {a.shape[0]}, expected {dim}")
    return a


def as_points(v, dim, name):
    """One point (dim,) or stacked points (..., dim) as a float array; a scalar is one point."""
    a = np.atleast_1d(np.asarray(v, dtype=float))
    if a.shape[-1] != dim:
        raise ShapeError(f"{name} has dimension {a.shape[-1]}, expected {dim}")
    return a


def as_symmetric(M, name):
    """Coerce a weight matrix, raising InvalidWeightError unless it is square
    and symmetric to SYMMETRY_TOL."""
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise InvalidWeightError(f"{name} must be square, got {M.shape}")
    if np.abs(M - M.T).max() > SYMMETRY_TOL:
        raise InvalidWeightError(f"{name} is not symmetric (asymmetry > {SYMMETRY_TOL})")
    return M


def as_cost(H, q):
    """Coerce the cost z'Hz + q'z: H square, q of matching length (zeros if
    None). A scipy.sparse H becomes a float CSR array (as_csr). H's symmetry
    is tested once per solver workspace (qp_solver.QpWorkspace.build), not
    here, since a closed loop passes the same H at every step."""
    H = as_csr(H, "H") if sparse.issparse(H) else as_matrix(H, "H")
    d = H.shape[0]
    if H.shape[1] != d or d < 1:
        raise ShapeError(f"H must be square with at least one row, got {H.shape}")
    q = np.zeros(d) if q is None else as_vector(q, "q")
    if q.shape[0] != d:
        raise ShapeError(f"q has length {q.shape[0]}, expected {d}")
    return H, q


def as_csr(M, name):
    """A scipy.sparse M as a 2-D float CSR array, the very same object when it
    is one already, so that a solver workspace keyed on it is kept."""
    if not (isinstance(M, sparse.csr_array) and M.dtype == float):
        M = sparse.csr_array(M, dtype=float)
    if M.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {M.shape}")
    return M


def as_rows(F, g, d, name="F"):
    """Coerce a row block F z <= g (or F z = g) on d variables to a (k, d)
    matrix and a length-k vector; a missing or empty F is a block of no rows.

    A scipy.sparse F becomes a float CSR array (as_csr). NaN or infinity in
    F, sparse or dense, is for qp_solver.QpWorkspace.build to reject, once
    per workspace.
    """
    if sparse.issparse(F):
        F = as_csr(F, name)
    elif F is not None and np.size(F):
        F = as_matrix(F, name)
    else:
        F = np.zeros((0, d))
    g = as_vector(g, name) if g is not None else np.zeros(0)
    if F.shape[1] != d or F.shape[0] != g.shape[0]:
        raise ShapeError(f"{name} has shape {F.shape} with {g.shape[0]} right-hand sides "
                         f"on {d} variables")
    return F, g


def quadratic(H, z):
    """z'Hz: z @ H @ z for an ndarray H, z @ (H z) for a scipy.sparse one,
    whose z @ H would build H's transpose."""
    return z @ (H @ z) if sparse.issparse(H) else z @ H @ z


def block_diag(*blocks):
    """The 2-D blocks on the diagonal of one zero matrix; a block may have no
    rows or no columns. With a scipy.sparse block among them, the result is a
    CSR array, by scipy.sparse.block_diag.

    Same result as scipy.linalg.block_diag, which costs several times more
    for the few small blocks of a horizon stack.
    """
    if any(sparse.issparse(B) for B in blocks):
        return sparse.block_diag(blocks, format="csr")
    out = np.zeros((sum(B.shape[0] for B in blocks), sum(B.shape[1] for B in blocks)))
    i = j = 0
    for B in blocks:
        out[i:i + B.shape[0], j:j + B.shape[1]] = B
        i += B.shape[0]
        j += B.shape[1]
    return out


def pad_inputs(U, N, m):
    """The (N, m) input sequence that starts with the inputs in U and is zero
    after them, as the inputs after a control horizon are."""
    out = np.zeros(N * m)
    out[:U.shape[0]] = U
    return out.reshape(N, m)


def pseudo_inverse_apply(M, b):
    """Least-squares solution of M y = b (minimum norm if M is rank deficient).

    Raises SingularMatrixError for an all-zero M.
    """
    M = as_matrix(M)
    b = as_vector(b)
    if M.shape[0] != b.shape[0]:
        raise ShapeError(f"matrix has {M.shape[0]} rows but right-hand side has {b.shape[0]}")
    if not np.any(M):
        raise SingularMatrixError("zero matrix has no meaningful least-squares solution")
    return np.linalg.lstsq(M, b, rcond=None)[0]


def finite_diff_jacobian(f, z):
    """Forward-difference Jacobian of f at z: column i is
    (f(z + h_i e_i) - f(z)) / h_i, h_i = sqrt(machine epsilon) * max(1, |z_i|).
    Stacked points z (..., k), which f maps to (..., r) at once, get their
    Jacobians (..., r, k), each with the bits of its own, from k + 1 calls."""
    z = as_vector(z) if np.ndim(z) < 2 else np.asarray(z, dtype=float)
    f0 = np.asarray(f(z), dtype=float)
    if f0.ndim != z.ndim or f0.shape[:-1] != z.shape[:-1]:
        raise ShapeError(f"f(z) has shape {f0.shape} for z of shape {z.shape}")
    h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(z))
    J = np.empty(f0.shape + z.shape[-1:])
    for i in range(z.shape[-1]):
        zp = z.copy()
        zp[..., i] += h[..., i]
        J[..., i] = (f(zp) - f0) / h[..., i, None]
    return J
