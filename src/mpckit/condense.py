"""Batch prediction matrices and sparse/condensed QP assembly for LMPC."""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .exceptions import InvalidHorizonError, InvalidWeightError, ShapeError
from .numerics import as_symmetric, as_vector, block_diag
from .qp_solver import QpProblem


@dataclass(frozen=True)
class PredictionMatrices:
    """X = A_X x_k + B_U U with A_X stacking I, A, ..., A^N."""

    A_X: np.ndarray
    B_U: np.ndarray
    N: int
    n: int
    m: int


@dataclass(frozen=True)
class StackedWeights:
    """Block-diagonal Q_X (N copies of Q then Q_N) and R_U (N copies of R)."""

    Q_X: np.ndarray
    R_U: np.ndarray


@dataclass(frozen=True)
class StackedConstraints:
    """Block-diagonal replication of the state/input polytopes over the horizon.

    F_X is N stage blocks of X_set's rows, then the terminal block (the
    terminal set's rows, or X_set's); F_U is N stage blocks of U_set's rows.
    """

    F_X: np.ndarray
    g_X: np.ndarray
    F_U: np.ndarray
    g_U: np.ndarray


def build_prediction(model, N):
    """Stack the free and forced response matrices over an N-step horizon."""
    if N < 1:
        raise InvalidHorizonError(f"prediction horizon must be >= 1, got {N}")
    n, m = model.n, model.m
    # powers[i] = A^i
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(model.A @ powers[-1])
    # block (i, j) of B_U is A^(i-j-1) B: column block j holds the first N - j
    # products from block row j + 1 down
    AB = np.vstack([P @ model.B for P in powers[:N]])
    B_U = np.zeros((n * (N + 1), m * N))
    for j in range(N):
        B_U[(j + 1) * n:, j * m:(j + 1) * m] = AB[:(N - j) * n]
    return PredictionMatrices(A_X=np.vstack(powers), B_U=B_U, N=N, n=n, m=m)


def build_weights(Q, R, Q_N, N):
    """Block-diagonal stacking of the stage and terminal weights."""
    if N < 1:
        raise InvalidHorizonError(f"horizon must be >= 1, got {N}")
    Q = as_symmetric(Q, "Q")
    R = as_symmetric(R, "R")
    Q_N = as_symmetric(Q_N, "Q_N")
    if Q_N.shape != Q.shape:
        raise InvalidWeightError(f"Q_N shape {Q_N.shape} != Q shape {Q.shape}")
    return StackedWeights(Q_X=block_diag(*[Q] * N, Q_N), R_U=block_diag(*[R] * N))


def stack_constraints(X_set, U_set, terminal, N):
    """Replicate the polytopes blockwise; the last state block may be terminal."""
    if N < 1:
        raise InvalidHorizonError(f"horizon must be >= 1, got {N}")
    if terminal is not None and terminal.dim != X_set.dim:
        raise ShapeError(f"terminal set dimension {terminal.dim} != state dimension {X_set.dim}")
    last = terminal if terminal is not None else X_set
    return StackedConstraints(F_X=block_diag(*[X_set.F] * N, last.F),
                              g_X=np.concatenate([np.tile(X_set.g, N), last.g]),
                              F_U=block_diag(*[U_set.F] * N),
                              g_U=np.tile(U_set.g, N))


def trajectory_blocks(Q, R, Q_N, X_set, U_set, terminal, N, N_C):
    """Cost H and inequality rows F z <= g over the trajectory z = (X, U),
    X the N + 1 states and U the first N_C inputs (the control horizon).

    H is block-diagonal with N copies of Q, then Q_N, then N_C copies of R;
    F holds N stage blocks of X_set's rows, the terminal set's rows (or
    X_set's), then N stage blocks of U_set's rows, those after N_C on no
    variable: F keeps every row. H and F are CSR arrays built from the stage
    blocks' non-zeros, with no dense matrix of the trajectory's size.
    """
    if not 1 <= N_C <= N:
        raise InvalidHorizonError(f"horizons must satisfy 1 <= N_C <= N, got N={N}, N_C={N_C}")
    last = terminal if terminal is not None else X_set
    H = _block_diag_csr((Q, N), (Q_N, 1), (R, N_C))
    F = _block_diag_csr((X_set.F, N), (last.F, 1), (U_set.F, N_C),
                        (U_set.F[:, :0], N - N_C))
    return H, F, np.concatenate([np.tile(X_set.g, N), last.g, np.tile(U_set.g, N)])


def _block_diag_csr(*repeats):
    """numerics.block_diag of k copies of B for each (B, k) in repeats, as the
    CSR array that csr_array of that matrix is: only the non-zeros, sorted by
    row and by column within a row."""
    data, indices, counts, j = [], [], [], 0
    for B, k in repeats:
        B = np.asarray(B, dtype=float)
        r, c = np.nonzero(B)
        data.append(np.tile(B[r, c], k))
        indices.append((j + c + B.shape[1] * np.arange(k)[:, None]).ravel())
        counts.append(np.tile(np.count_nonzero(B, axis=1), k))
        j += k * B.shape[1]
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
    return sparse.csr_array((np.concatenate(data), np.concatenate(indices), indptr),
                            shape=(indptr.size - 1, j))


def condensed_rows(pm, c, N_C):
    """Inequality rows F U <= g0 - G x_k over the first m N_C inputs, the
    states eliminated through the prediction.

    F keeps every row: a row left all zero is inert while its right-hand
    side is >= 0 and certifies infeasibility when it is not.
    """
    F = np.vstack([c.F_X @ pm.B_U, c.F_U])[:, :pm.m * N_C]
    G = np.vstack([c.F_X @ pm.A_X, np.zeros((c.F_U.shape[0], pm.n))])
    return F, np.concatenate([c.g_X, c.g_U]), G


def sparse_blocks(pm, H, F, g):
    """The x_k-independent blocks (H, F, g, F_eq, A_X) of assemble_sparse_qp.

    H, F and g are trajectory_blocks' over the same horizon, kept as they
    are: CSR arrays on z = (X, first m N_C inputs), so the QP solver works on
    their non-zeros. F_eq = [I, -B_U] restricted to those inputs is a CSR
    array too, of B_U's non-zeros. A_X maps x_k to the right-hand side of
    the dynamics rows.
    """
    nX = pm.n * (pm.N + 1)
    F_eq = sparse.hstack([sparse.eye_array(nX, format="csr"),
                          sparse.csr_array(-pm.B_U[:, :H.shape[0] - nX])], format="csr")
    return H, F, g, F_eq, pm.A_X


def condensed_blocks(pm, w, c, N_C):
    """The x_k-independent blocks (H, G_q, G_r, F, g0, G) of assemble_condensed_qp.

    The QP at x_k is U'HU + (G_q x_k)'U + x_k'G_r x_k subject to
    F U <= g0 - G x_k (condensed_rows). Inputs after the control horizon
    N_C are fixed to zero, so H, G_q and F keep the first m N_C inputs only.
    """
    QA = w.Q_X @ pm.A_X
    H = pm.B_U.T @ w.Q_X @ pm.B_U + w.R_U
    H = 0.5 * (H + H.T)
    keep = pm.m * N_C
    return (H[:keep, :keep], 2.0 * (pm.B_U.T @ QA)[:keep], pm.A_X.T @ QA,
            *condensed_rows(pm, c, N_C))


def assemble_sparse_qp(blocks, x_k):
    """The sparse-form QP at x_k: z = (X, U) with the dynamics as equality
    rows [I, -B_U] z = A_X x_k.

    ``blocks`` are sparse_blocks(pm, *trajectory_blocks(...)), built once
    per closed loop; only the right-hand side g_eq is evaluated at x_k.
    """
    H, F, g, F_eq, A_X = blocks
    x_k = as_vector(x_k, "state", A_X.shape[1])
    return QpProblem(H=H, q=np.zeros(H.shape[0]), F=F, g=g, F_eq=F_eq, g_eq=A_X @ x_k)


def assemble_condensed_qp(blocks, x_k):
    """The condensed-form QP at x_k, over the inputs U only, with the states
    eliminated through the prediction.

    ``blocks`` are condensed_blocks(pm, w, c, N_C), built once per closed
    loop; x_k enters only through the three gain products for q, r and g.
    """
    H, G_q, G_r, F, g0, G = blocks
    x_k = as_vector(x_k, "state", G.shape[1])
    return QpProblem(H=H, q=G_q @ x_k, r=float(x_k @ G_r @ x_k), F=F, g=g0 - G @ x_k)
