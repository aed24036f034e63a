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
    shift_duals moves multipliers along this layout.
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


def shift_duals(y, X_set, U_set, terminal, N):
    """The multipliers y of an LMPC step's rows moved one stage earlier, as
    the next step's dual warm start.

    y holds the multipliers of the rows [F_X; F_U] of stack_constraints(X_set,
    U_set, terminal, N) (both forms keep every row), then, in the sparse form,
    of the n(N + 1) dynamics rows [I, -B_U], one block per state. Each stage
    block takes the multipliers of the stage after it and the one vacated at
    the end gets zeros, as the shifted inputs do; the terminal block of F_X
    keeps its own. The N + 1 dynamics blocks shift as one run, since
    [I, -B_U] has no terminal rows: on eight (12, 4, 20) sparse-form loops,
    keeping the last block's own multipliers took 24.8 ADMM iterations per
    step, zeros 24.3.
    """
    y = as_vector(y, "duals")
    p_x, p_u = X_set.F.shape[0], U_set.F.shape[0]
    n_x = N * p_x + (terminal if terminal is not None else X_set).F.shape[0]
    n_ineq = n_x + N * p_u
    p_dyn = (y.shape[0] - n_ineq) // (N + 1)
    if p_dyn < 0 or y.shape[0] != n_ineq + p_dyn * (N + 1):
        raise ShapeError(f"{y.shape[0]} multipliers do not fit {n_ineq} inequality rows "
                         f"and {N + 1} dynamics blocks")
    out = np.zeros_like(y)
    # (first row, rows per block, blocks) of each run of stage blocks
    for lo, p, k in ((0, p_x, N), (n_x, p_u, N), (n_ineq, p_dyn, N + 1)):
        out[lo:lo + (k - 1) * p] = y[lo + p:lo + k * p]
    out[N * p_x:n_x] = y[N * p_x:n_x]
    return out


def trajectory_blocks(w, c, n_u=None):
    """Cost H and inequality rows F z <= g over the trajectory z = (X, U).

    With n_u, U is the first n_u inputs (the control horizon); F keeps
    every row.
    """
    H = block_diag(w.Q_X, w.R_U[:n_u, :n_u])
    F = block_diag(c.F_X, c.F_U[:, :n_u])
    return H, F, np.concatenate([c.g_X, c.g_U])


def condensed_rows(pm, c, N_C):
    """Inequality rows F U <= g0 - G x_k over the first m N_C inputs, the
    states eliminated through the prediction.

    F keeps every row: a row left all zero is inert while its right-hand
    side is >= 0 and certifies infeasibility when it is not.
    """
    F = np.vstack([c.F_X @ pm.B_U, c.F_U])[:, :pm.m * N_C]
    G = np.vstack([c.F_X @ pm.A_X, np.zeros((c.F_U.shape[0], pm.n))])
    return F, np.concatenate([c.g_X, c.g_U]), G


def sparse_blocks(pm, w, c, N_C):
    """The x_k-independent blocks (H, F, g, F_eq, A_X) of assemble_sparse_qp.

    As in condensed_blocks, inputs after the control horizon N_C are fixed
    to zero: z = (X, first m N_C inputs), and F keeps every row. F and F_eq
    are scipy.sparse CSR arrays, so the QP solver works on their non-zeros;
    H stays dense. A_X maps x_k to the right-hand side of the dynamics rows.
    """
    n_u = pm.m * N_C
    H, F, g = trajectory_blocks(w, c, n_u)
    F_eq = np.hstack([np.eye(pm.n * (pm.N + 1)), -pm.B_U[:, :n_u]])
    return H, sparse.csr_array(F), g, sparse.csr_array(F_eq), pm.A_X


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

    ``blocks`` are sparse_blocks(pm, w, c, N_C), built once per closed
    loop; only the right-hand side g_eq is evaluated at x_k.
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
