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

from .index import block_permutation, factorial, order, rank_array
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


def _term_values(terms: tuple, X: np.ndarray) -> np.ndarray:
    """Values (n, K) of compiled term groups (target, num, feat, den,
    den_feat) on the feature rows X (n, F) of _features: entry k is
    (num[k] X[feat[k]]) / (den[k] X[den_feat[k]]), the product and quotient
    its term's own expression computes, in the same order. A denominator
    that overflows (or is otherwise not finite) raises RuntimeError, with no
    overflow warning first."""
    _, num, feat, den, den_feat = terms
    with np.errstate(over="ignore"):
        q = den * X.take(den_feat, axis=1)
    if not np.isfinite(q).all():
        raise RuntimeError("a coefficient-matrix term has a denominator that is not finite (overflow)")
    return num * X.take(feat, axis=1) / q


@dataclass(frozen=True)
class _RowTables:
    """The row rules of A^(d) for one (D, M, d), compiled once.

    Per row alpha of order >= 3 (the ranks _Packing.free, in rank order):
    mult, alpha_d + 1; down2[i, j] and down3[i, j, k], the ranks of
    alpha - e_i - e_j and alpha - e_i - e_j - e_k; raised2[i, j], of
    alpha + e_d - e_i - e_j. The order-M rows start at top. Rank N stands
    for a void or out-of-set index: it reads a zero from free_values, and a
    term in its column is dropped when the groups are compiled.

    terms holds the term groups of A^(d) compiled for _term_values, with
    flat targets r N + c, group after group; correction those of its
    regularization correction, and regularized both, the correction last.
    """

    mult: np.ndarray
    down2: np.ndarray
    down3: np.ndarray
    raised2: np.ndarray
    top: int
    terms: tuple
    correction: tuple
    regularized: tuple


@lru_cache(maxsize=None)
def _row_tables(D: int, M: int, d: int) -> _RowTables:
    t = _packing(D, M)
    N = t.N
    free = np.array(t.free_alphas, dtype=int).reshape(-1, D)
    orders = free.sum(axis=1)
    E = np.eye(D, dtype=int)
    ed = E[d - 1]
    ones = free[:, None] - E
    pairs = free[:, None, None] - E[:, None] - E[None, :]
    mult = free @ ed + 1.0
    down1 = np.where(orders[:, None] > 3, rank_array(D, M, ones), N)  # alpha - e_k, order >= 3
    down2 = rank_array(D, M, pairs)
    raised1 = rank_array(D, M, ones + ed)
    raised2 = rank_array(D, M, pairs + ed)
    top = int(np.searchsorted(orders, M))
    # per pressure slot i <= j: e_i + e_j + e_d, its rank and factorial
    iu, ju = t.upper
    tri_alphas = E[iu] + E[ju] + ed
    tri = rank_array(D, M, tri_alphas)
    tri_fact = np.array([factorial(a) for a in tri_alphas.tolist()], dtype=float)
    pair_scale = 1.0 + ed  # 1 + delta_id

    # first feature column of each block of _features and assemble_batch
    nf, ntop, DD = len(free), len(free) - top, D * D
    ONE, RHO, P, TH, FX, CORR, C, ACC = np.cumsum([0, 1, 1, DD, DD, N + 1, ntop, nf * DD])

    def group(rows, cols, num, feat, den=1.0, den_feat=ONE):
        rows, cols, *rest = np.broadcast_arrays(rows, cols, num, feat, den, den_feat)
        return [a[cols < N] for a in [rows * N + cols] + rest]  # a void column has no entry

    def compile_(groups):
        target, num, feat, den, den_feat = (np.concatenate(col) for col in zip(*groups))
        return target, num.astype(float), feat, den.astype(float), den_feat

    dx, rows, r, slots, vel = d - 1, t.free[:, None], np.arange(nf), t.upper_slots, t.vel
    terms = [
        # density row: rho d(u_d)
        group(0, vel[dx], 1.0, RHO),
        # velocity rows: (1/rho) d(p_id), with the slot storing p_id/(1+delta_id)
        group(vel, t.pair[:, dx], pair_scale, ONE, 1.0, RHO),
        # pressure rows, one per unordered pair, written for the slot p_ij/(1+d_ij)
        group(slots, vel[dx], 1.0, P + iu * D + ju, t.norm),
        group(slots, vel[ju], 1.0, P + iu * D + dx, t.norm),
        group(slots, vel[iu], 1.0, P + ju * D + dx, t.norm),
        group(slots, tri, tri_fact, ONE, t.norm),
        # free coefficient rows: transport couplings that stay among free
        # coefficients
        group(rows, down1, 1.0, TH + dx * D + np.arange(D)),
        group(t.free, rank_array(D, M, free + ed), mult, ONE),
        # scale-gradient couplings, ordered pairs for the density column
        group(rows, slots, 1.0, C + r[:, None] * DD + iu * D + ju, 1.0, RHO),
        group(t.free, 0, -1.0, ACC + r, 2.0, RHO),
        # velocity-gradient couplings
        group(rows, vel, mult[:, None], FX + raised1),
        # scale-slot couplings from the basis advection
        group(rows, t.pair[:, dx], -pair_scale, FX + down1, 1.0, RHO),
        # heat-flux slot couplings
        group(rows, tri, -tri_fact, FX + down2[:, iu, ju], t.norm, RHO),
    ]
    # the correction of the order-M rows: density, velocity and pressure
    # columns, read from the raised columns alpha + e_d - e_i - e_j and
    # alpha + e_d - e_i
    correction = [
        group(t.free[top:], 0, mult[top:], CORR + np.arange(ntop), 2.0, RHO),
        group(rows[top:], vel, -mult[top:, None], FX + raised1[top:]),
        group(rows[top:], slots, -mult[top:, None], FX + raised2[top:, iu, ju], 1.0, RHO),
    ]
    return _RowTables(
        mult=mult,
        down2=down2,
        down3=rank_array(D, M, pairs[:, :, :, None] - E),
        raised2=raised2,
        top=top,
        terms=compile_(terms),
        correction=compile_(correction),
        regularized=compile_(terms + correction),
    )


def _features(W: np.ndarray, D: int, M: int, d: int):
    """Theta (n, D, D), free_values (n, N + 1) and the leading feature
    columns of the packed rows W (n, N): 1, rho, p, Theta, free_values and,
    per order-M row alpha, sum_ij Theta_ij f_{alpha + e_d - e_i - e_j}."""
    g = _row_tables(D, M, d)
    rho, _, p = _unpack(W, D, M)
    th = p / rho[:, None, None]
    fx = free_values(W, D, M)
    # a take, not an advanced index: the D x D sum adds in the order of its
    # memory layout, and only the take's C order lays out a row's block
    # alike in any batch, so the sum of a row does not depend on its batch
    corr = (th[:, None] * fx.take(g.raised2[g.top :], axis=1)).sum(axis=(-2, -1))
    n = W.shape[0]
    return th, fx, [np.ones((n, 1)), rho[:, None], p.reshape(n, -1), th.reshape(n, -1), fx, corr]


def assemble_batch(W: np.ndarray, D: int, M: int, d: int, regularized: bool = False) -> np.ndarray:
    """Matrices A^(d) (n, N, N) of the packed rows W (n, N), for 1 <= d <= D,
    plus their regularization correction when regularized.

    The scale-gradient sums are computed whole; every term value is then
    gathered from one feature row per state (_term_values), and one
    bincount over the flat targets of _row_tables sums them up. It
    adds each entry's terms in the order of the groups, the correction
    last, so the result is bitwise the sum of one scatter-add per group:
    with the correction, A^(d) + regularization_correction_batch.
    """
    if not 1 <= d <= D:
        raise ValueError(f"direction must be in 1..{D}, got {d}")
    N = _packing(D, M).N
    g = _row_tables(D, M, d)
    dx = d - 1
    n = W.shape[0]
    th, fx, cols = _features(W, D, M, d)
    c = sum(th[:, k, dx, None, None, None] * fx.take(g.down3[..., k], axis=1) for k in range(D))
    c = c + g.mult[:, None, None] * fx.take(g.raised2, axis=1)
    acc = sum(th[:, i, j, None] * c[:, :, i, j] for i in range(D) for j in range(D))
    X = np.concatenate(cols + [c.reshape(n, -1), acc], axis=1)
    terms = g.regularized if regularized else g.terms
    flat = (np.arange(n)[:, None] * N * N + terms[0]).ravel()
    return np.bincount(flat, _term_values(terms, X).ravel(), n * N * N).reshape(n, N, N)


def assemble(state: MomentState, d: int) -> CoefficientMatrix:
    """Unregularized matrix A^(d) for 1 <= d <= D."""
    A = assemble_batch(state.w[None], state.D, state.M, d)[0]
    return CoefficientMatrix(entries=A, direction=d, regularized=False, state=state)


def _correction_rows(W: np.ndarray, D: int, M: int, d: int, first: int) -> np.ndarray:
    """Rows first..N-1 (n, N - first, N) of regularization_correction_batch."""
    n, N = W.shape
    terms = _row_tables(D, M, d).correction
    X = np.concatenate(_features(W, D, M, d)[2], axis=1)
    C = np.zeros((n, N - first, N))
    C.reshape(n, -1)[:, terms[0] - first * N] = _term_values(terms, X)
    return C


def regularization_correction_batch(W: np.ndarray, D: int, M: int, d: int) -> np.ndarray:
    """Correction matrices (n, N, N) of the packed rows W (n, N): nonzero
    only in the order-M rows, at the density, velocity and pressure columns
    (the correction groups of _row_tables)."""
    return _correction_rows(W, D, M, d, 0)


def path_integral(WL: np.ndarray, WR: np.ndarray, D: int, M: int, nodes, weights) -> np.ndarray:
    """Nonconservative first-axis term between the packed rows WL and WR
    (n, N): the integral over nu in [0, 1] of the regularization correction
    at (1 - nu) WL + nu WR applied to WR - WL, by the rule (nodes, weights)
    on [0, 1]. The path is linear in the packed variables, so every node is
    admissible. Nonzero only in the order-M rows, the only ones built.

    The solver's interface term and the jump condition of riemann.shock_check
    are both this integral, with different rules. A rule of one node of
    weight 1 (the solver's midpoint) skips the tiling of WR - WL and the
    weighted sum over nodes, both identities there.
    """
    nodes = np.asarray(nodes, dtype=float)[:, None, None]
    weights = np.asarray(weights, dtype=float)
    K = nodes.shape[0]
    n, N = WL.shape
    W = ((1.0 - nodes) * WL + nodes * WR).reshape(K * n, N)
    first = _packing(D, M).span[M][0]
    one = K == 1 and weights.tolist() == [1.0]
    jump = WR - WL if one else np.tile(WR - WL, (K, 1))
    terms = np.zeros((K * n, N))
    terms[:, first:] = np.einsum("kab,kb->ka", _correction_rows(W, D, M, 1, first), jump)
    if one:
        return terms
    return (weights[:, None, None] * terms.reshape(K, n, N)).sum(axis=0)


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
            A += n[d - 1] * assemble_batch(state.w[None], state.D, state.M, d, regularized)[0]
    return CoefficientMatrix(entries=A, direction=None, regularized=regularized, state=state)


def source_batch(W: np.ndarray, D: int, M: int, model: CollisionModel) -> np.ndarray:
    """Relaxation right-hand sides (n, N) of the packed rows W (n, N)."""
    t = _packing(D, M)
    rows, slots = t.free, t.pair.ravel()
    down = _row_tables(D, M, 1).down2.reshape(len(rows), D * D)
    G = collision_coeffs_batch(W, D, M, model)
    fx = free_values(W, D, M)
    rho = W[:, 0][:, None]
    nu = model.nu
    S = np.zeros(W.shape)
    S[:, t.upper_slots] = nu * G.take(t.upper_slots, axis=1)
    val = G.take(rows, axis=1) - fx.take(rows, axis=1)
    coupling = G.take(slots, axis=1)[:, None] * fx.take(down, axis=1) / rho[:, :, None]
    for k in range(len(slots)):
        val = val + coupling[:, :, k]
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
    regularized: bool
    max_abs_diagonal: float
    upper_violation_rows: tuple
    block_sizes: tuple
    expected_block_sizes: tuple
    max_upper_block_entry: float
    nonzero_count: int
    violations: tuple

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

    upper_rows = (np.flatnonzero(np.count_nonzero(np.triu(A, 1), axis=1) > 1) + 1).tolist()
    if upper_rows:
        violations.append(f"rows with more than one upper entry: {upper_rows}")

    perm = block_permutation(s, axis=d)
    B = perm.conjugate(A)
    sizes = tuple(size for _, _, size in perm.blocks)
    expected = tuple(s.M + 1 - order(h) for h, _, _ in perm.blocks)

    block = np.repeat(np.arange(len(sizes)), sizes)  # the block of each permuted index
    max_upper = float(np.max(np.abs(B[block[:, None] < block]), initial=0.0))
    if max_upper != 0.0:
        violations.append(f"permuted form not block lower triangular (max {max_upper})")

    # diagonal blocks of hat order >= 3 are bidiagonal: theta_dd below,
    # integer superdiagonal above
    th_dd = state.theta_tensor[d - 1, d - 1]
    for h, si, ni in perm.blocks:
        if order(h) < 3:
            continue
        blk = B[si : si + ni, si : si + ni]
        row, col = np.indices(blk.shape)
        want = np.where(col == row + 1, col, np.where(col == row - 1, th_dd, 0.0))
        for a, b in np.argwhere(blk != want).tolist():
            if b == a + 1:
                violations.append(f"block {h}: superdiagonal {blk[a, b]} != {a + 1}")
            elif b == a - 1:
                violations.append(f"block {h}: subdiagonal {blk[a, b]} != {th_dd}")
            else:
                violations.append(f"block {h}: unexpected entry at {(a, b)}")

    return StructuralReport(
        N=s.N,
        direction=d,
        regularized=matrix.regularized,
        max_abs_diagonal=max_diag,
        upper_violation_rows=tuple(upper_rows),
        block_sizes=sizes,
        expected_block_sizes=expected,
        max_upper_block_entry=max_upper,
        nonzero_count=int(np.count_nonzero(A)),
        violations=tuple(violations),
    )
