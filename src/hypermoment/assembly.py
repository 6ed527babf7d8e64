"""Quasilinear coefficient matrices of the moment system and the collision
source.

The system reads dw/dt + sum_d (u_d I + A^(d)) dw/dx_d = Q. The matrices
assembled here are the A^(d): the convective shift u_d I is split off, so
all entries are independent of u and the diagonal vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .index import (
    IndexSet,
    block_permutation,
    factorial,
    order,
    unit,
)
from .state import (
    CollisionModel,
    MomentState,
    _packing,
    _unpack,
    collision_coeffs_batch,
    free_values,
)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Dense N x N quasilinear matrix tied to the state it came from.

    direction is the 1-based spatial axis, or None for a directional
    combination.
    """

    entries: np.ndarray
    direction: Optional[int]
    regularized: bool
    state: MomentState

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def _shift(alpha, *steps):
    """Net multi-index offset; None when a component goes negative."""
    out = list(alpha)
    for sign, ax in steps:
        out[ax] += sign
    if min(out) < 0:
        return None
    return tuple(out)


def assemble(state: MomentState, d: int) -> CoefficientMatrix:
    """Unregularized matrix A^(d) for 1 <= d <= D."""
    D, M = state.D, state.M
    if not 1 <= d <= D:
        raise ValueError(f"direction must be in 1..{D}, got {d}")
    s = state.index_set
    r = s.rank0
    rho = state.rho
    th = state.theta_tensor
    f = state.f_value
    dx = d - 1

    A = np.zeros((s.N, s.N))
    e = [unit(D, i + 1) for i in range(D)]

    # density row: rho d(u_d)
    A[0, r(e[dx])] += rho

    # velocity rows: (1/rho) d(p_id), with the slot storing p_id/(1+delta_id)
    for i in range(D):
        pair = _shift(e[i], (+1, dx))
        A[r(e[i]), r(pair)] += (1 + (i == dx)) / rho

    # pressure rows, one per unordered pair, written for the slot p_ij/(1+d_ij)
    for i in range(D):
        for j in range(i, D):
            row = r(_shift(e[i], (+1, j)))
            norm = 1 + (i == j)
            A[row, r(e[dx])] += state.p[i, j] / norm
            A[row, r(e[j])] += state.p[i, dx] / norm
            A[row, r(e[i])] += state.p[j, dx] / norm
            if M >= 3:
                tri = _shift(e[i], (+1, j), (+1, dx))
                A[row, r(tri)] += factorial(tri) / norm

    # free coefficient rows
    for alpha in s.indices:
        if order(alpha) < 3:
            continue
        row = r(alpha)
        a_d1 = alpha[dx] + 1

        # transport couplings that stay among free coefficients
        for k in range(D):
            down = _shift(alpha, (-1, k))
            if down is not None and order(down) >= 3:
                A[row, r(down)] += th[dx, k]
        if order(alpha) < M:
            A[row, r(_shift(alpha, (+1, dx)))] += a_d1

        # scale-gradient couplings, ordered pairs for the density column
        acc = 0.0
        for i in range(D):
            for j in range(D):
                c = 0.0
                for k in range(D):
                    idx = _shift(alpha, (-1, i), (-1, j), (-1, k))
                    if idx is not None:
                        c += th[k, dx] * f(idx)
                idx = _shift(alpha, (-1, i), (-1, j), (+1, dx))
                if idx is not None:
                    c += a_d1 * f(idx)
                acc += th[i, j] * c
                if i <= j:
                    A[row, r(_shift(e[i], (+1, j)))] += c / rho
        A[row, 0] += -acc / (2 * rho)

        # velocity-gradient couplings
        for i in range(D):
            idx = _shift(alpha, (+1, dx), (-1, i))
            if idx is not None:
                A[row, r(e[i])] += a_d1 * f(idx)

        # scale-slot couplings from the basis advection
        for i in range(D):
            down = _shift(alpha, (-1, i))
            if down is not None:
                A[row, r(_shift(e[i], (+1, dx)))] += -f(down) * (1 + (i == dx)) / rho

        # heat-flux slot couplings
        for i in range(D):
            for j in range(i, D):
                down = _shift(alpha, (-1, i), (-1, j))
                if down is None:
                    continue
                val = f(down)
                if val != 0.0:
                    tri = _shift(e[i], (+1, j), (+1, dx))
                    A[row, r(tri)] += -factorial(tri) * val / ((1 + (i == j)) * rho)

    return CoefficientMatrix(entries=A, direction=d, regularized=False, state=state)


@lru_cache(maxsize=None)
def _correction_tables(D: int, M: int, d: int):
    """Gather tables of the order-M row walk of regularization_correction.

    Per top row alpha: its rank, the multiplier alpha_d + 1, and the ranks
    of alpha + e_d - e_i - e_j over all (i, j), of alpha + e_d - e_i over i,
    and of alpha + e_d - e_i - e_j over the pressure slots i <= j (rank N
    for a void index).
    """
    s = IndexSet(D, M)
    N = s.N
    dx = d - 1
    top = [a for a in s.indices if order(a) == M]

    def rank(alpha, *steps):
        idx = _shift(alpha, (+1, dx), *steps)
        return N if idx is None else s.rank0(idx)

    upper = list(zip(*np.triu_indices(D)))
    return (
        np.array([s.rank0(a) for a in top]),
        np.array([a[dx] + 1.0 for a in top]),
        np.array([[[rank(a, (-1, i), (-1, j)) for j in range(D)] for i in range(D)] for a in top]),
        np.array([[rank(a, (-1, i)) for i in range(D)] for a in top]),
        np.array([[rank(a, (-1, i), (-1, j)) for i, j in upper] for a in top]),
    )


def regularization_correction_batch(W: np.ndarray, D: int, M: int, d: int) -> np.ndarray:
    """Correction matrices (n, N, N) of the packed rows W (n, N): nonzero
    only in the order-M rows, at the density, velocity and pressure columns."""
    t = _packing(D, M)
    rows, c, dens, vel, pres = _correction_tables(D, M, d)
    rho, _, p = _unpack(W, D, M)
    fx = free_values(W, D, M)
    th = p / rho[:, None, None]
    A = np.zeros(W.shape + (t.N,))
    acc = (th[:, None] * fx[:, dens]).sum(axis=(-2, -1))
    A[:, rows, 0] = c * acc / (2 * rho[:, None])
    A[:, rows[:, None], t.vel] = -(c[:, None] * fx[:, vel])
    A[:, rows[:, None], t.upper_slots] = -(c[:, None] * fx[:, pres] / rho[:, None, None])
    return A


def path_integral(WL: np.ndarray, WR: np.ndarray, D: int, M: int, nodes, weights) -> np.ndarray:
    """Nonconservative first-axis term between the packed rows WL and WR
    (n, N): the integral over nu in [0, 1] of the regularization correction
    at (1 - nu) WL + nu WR applied to WR - WL, by the rule (nodes, weights)
    on [0, 1]. The path is linear in the packed variables, so every node is
    admissible. Nonzero only in the order-M rows.

    The solver's interface term and the jump condition of riemann.shock_check
    are both this integral, with different rules.
    """
    nodes = np.asarray(nodes, dtype=float)[:, None, None]
    K = nodes.shape[0]
    n, N = WL.shape
    W = ((1.0 - nodes) * WL + nodes * WR).reshape(K * n, N)
    corr = regularization_correction_batch(W, D, M, 1)
    terms = np.einsum("kab,kb->ka", corr, np.tile(WR - WL, (K, 1))).reshape(K, n, N)
    return (np.asarray(weights, dtype=float)[:, None, None] * terms).sum(axis=0)


def regularization_correction(state: MomentState, d: int) -> np.ndarray:
    """Matrix added to the order-M rows by the regularization; zero rows
    elsewhere, nonzero columns only at the density, velocity, and pressure
    slots."""
    return regularization_correction_batch(state.w[None], state.D, state.M, d)[0]


def regularize(matrix: CoefficientMatrix, state: MomentState) -> CoefficientMatrix:
    """Correct the order-M rows so the closed system becomes hyperbolic.

    Rows of order below M are returned bit-identical.
    """
    if matrix.regularized:
        raise ValueError("matrix is already regularized")
    if matrix.direction is None:
        raise ValueError("regularize needs a single-axis matrix")
    if matrix.state is not state and not np.array_equal(matrix.state.w, state.w):
        raise ValueError("matrix was assembled from a different state")
    A = matrix.entries + regularization_correction(state, matrix.direction)
    return CoefficientMatrix(
        entries=A, direction=matrix.direction, regularized=True, state=state
    )


def directional(state: MomentState, n, regularized: bool = True) -> CoefficientMatrix:
    """Matrix for propagation along the unit vector n, regularized unless
    asked otherwise."""
    n = np.asarray(n, dtype=float).reshape(state.D)
    if abs(np.linalg.norm(n) - 1.0) > 1e-10:
        raise ValueError(f"direction vector must have unit length, got |n|={np.linalg.norm(n)}")
    A = np.zeros((state.index_set.N, state.index_set.N))
    for d in range(1, state.D + 1):
        if n[d - 1] != 0.0:
            mat = assemble(state, d)
            if regularized:
                mat = regularize(mat, state)
            A += n[d - 1] * mat.entries
    return CoefficientMatrix(entries=A, direction=None, regularized=regularized, state=state)


@lru_cache(maxsize=None)
def _source_tables(D: int, M: int):
    """Ranks of the order >= 3 rows, the pressure slot of every ordered pair
    (i, j), and per row and pair the rank of alpha - e_i - e_j (N if void)."""
    s = IndexSet(D, M)
    e = [unit(D, i + 1) for i in range(D)]
    free = [a for a in s.indices if order(a) >= 3]
    pairs = [(i, j) for i in range(D) for j in range(D)]
    down = [[_shift(a, (-1, i), (-1, j)) for i, j in pairs] for a in free]
    return (
        np.array([s.rank0(a) for a in free], dtype=int),
        np.array([s.rank0(_shift(e[i], (+1, j))) for i, j in pairs]),
        np.array([[s.N if g is None else s.rank0(g) for g in row] for row in down], dtype=int)
        .reshape(len(free), len(pairs)),
    )


def source_batch(W: np.ndarray, D: int, M: int, model: CollisionModel) -> np.ndarray:
    """Relaxation right-hand sides (n, N) of the packed rows W (n, N)."""
    t = _packing(D, M)
    rows, slots, down = _source_tables(D, M)
    G = collision_coeffs_batch(W, D, M, model)
    fx = free_values(W, D, M)
    rho = W[:, 0][:, None]
    nu = model.nu
    S = np.zeros_like(W)
    S[:, t.upper_slots] = nu * G[:, t.upper_slots]
    val = G[:, rows] - fx[:, rows]
    for k, slot in enumerate(slots):
        val = val + G[:, slot][:, None] * fx[:, down[:, k]] / rho
    S[:, rows] = nu * val
    return S


def source(state: MomentState, model: CollisionModel) -> np.ndarray:
    """Right-hand side of the moment system for the relaxation operator.

    Density and velocity rows are zero (collision invariants); pressure
    slots relax toward the target second moments; free rows relax toward
    the target coefficients with the scale-coupling correction.
    """
    return source_batch(state.w[None], state.D, state.M, model)[0]


@dataclass(frozen=True)
class StructuralReport:
    """Diagnostics for the structural invariants of a coefficient matrix."""

    N: int
    direction: int
    max_abs_diagonal: float
    upper_violation_rows: tuple
    block_sizes: tuple
    expected_block_sizes: tuple
    max_upper_block_entry: float
    violations: tuple
    nonzero_count: int

    @property
    def ok(self) -> bool:
        return not self.violations


def structural_report(matrix: CoefficientMatrix) -> StructuralReport:
    if matrix.direction is None:
        raise ValueError("structural report needs a single-axis matrix")
    A = matrix.entries
    state = matrix.state
    s = state.index_set
    d = matrix.direction
    violations = []

    max_diag = float(np.max(np.abs(np.diag(A))))
    if max_diag != 0.0:
        violations.append(f"diagonal not exactly zero (max {max_diag})")

    upper_rows = []
    for i in range(s.N):
        if np.count_nonzero(A[i, i + 1 :]) > 1:
            upper_rows.append(i + 1)
    if upper_rows:
        violations.append(f"rows with more than one upper entry: {upper_rows}")

    perm = block_permutation(s, axis=d)
    B = perm.conjugate(A)
    sizes = tuple(size for _, _, size in perm.blocks)
    expected = tuple(s.M + 1 - order(h) for h, _, _ in perm.blocks)
    if sizes != expected:
        violations.append(f"block sizes {sizes} != expected {expected}")

    max_upper = 0.0
    for bi, (_, si, ni) in enumerate(perm.blocks):
        for _, sj, nj in perm.blocks[bi + 1 :]:
            blk = B[si : si + ni, sj : sj + nj]
            max_upper = max(max_upper, float(np.max(np.abs(blk))) if blk.size else 0.0)
    if max_upper != 0.0:
        violations.append(f"permuted form not block lower triangular (max {max_upper})")

    # diagonal blocks of hat order >= 3 are bidiagonal: theta_dd below,
    # integer superdiagonal above
    th_dd = state.theta_tensor[d - 1, d - 1]
    for h, si, ni in perm.blocks:
        if order(h) < 3:
            continue
        blk = B[si : si + ni, si : si + ni]
        for a in range(ni):
            for b in range(ni):
                val = blk[a, b]
                if b == a + 1:
                    if val != a + 1:
                        violations.append(f"block {h}: superdiagonal {val} != {a + 1}")
                elif b == a - 1:
                    if val != th_dd:
                        violations.append(f"block {h}: subdiagonal {val} != {th_dd}")
                elif val != 0.0:
                    violations.append(f"block {h}: unexpected entry at {(a, b)}")

    return StructuralReport(
        N=s.N,
        direction=d,
        max_abs_diagonal=max_diag,
        upper_violation_rows=tuple(upper_rows),
        block_sizes=sizes,
        expected_block_sizes=expected,
        max_upper_block_entry=max_upper,
        violations=tuple(violations),
        nonzero_count=int(np.count_nonzero(A)),
    )
