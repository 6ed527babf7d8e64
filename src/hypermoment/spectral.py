"""Closed-form spectral machinery for the regularized moment system.

The regularized transport matrix in a given direction decomposes, after the
block permutation, into lower Hessenberg diagonal blocks whose characteristic
polynomials are rescaled probabilists' Hermite polynomials. Eigenvalues come
from tabulated Hermite roots. Each eigenvector is one solve of the block
lower triangular system from its target block on, with the leading entries
of the target and of the later blocks singular at the eigenvalue fixed.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .assembly import assemble_batch, directional
from .hermite import _recurrence, he_roots
from .index import IndexSet, block_permutation, order
from .state import MomentState

_COMPLEX_TOL = 1e-6  # |Im| above this (relative) counts as a complex eigenvalue
_COND_LIMIT = 1e12


class ProlongationError(RuntimeError):
    """A lower block system was inconsistent (conjecture-dependent path)."""


@dataclass(frozen=True)
class SpectralLine:
    value: float
    multiplicity: int
    family_m: int
    root_index: int


@dataclass(frozen=True)
class Spectrum:
    D: int
    M: int
    lines: tuple
    Lambda: np.ndarray
    R: Optional[np.ndarray] = None
    residual: Optional[float] = None
    condition: Optional[float] = None
    method: str = "closed-form"

    def __post_init__(self):
        L = np.asarray(self.Lambda, dtype=float)
        L.setflags(write=False)
        object.__setattr__(self, "Lambda", L)
        if self.R is not None:
            R = np.asarray(self.R, dtype=float)
            R.setflags(write=False)
            object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class HyperbolicityVerdict:
    real_spectrum: bool
    diagonalizable: bool
    worst_complex_pair: Optional[complex]
    max_imag: float
    condition: float

    @property
    def hyperbolic(self) -> bool:
        return self.real_spectrum and self.diagonalizable


# -- characteristic polynomial of the unregularized leading block -------------


def charpoly_1d_unregularized(state: MomentState) -> np.ndarray:
    """Ascending coefficients in lambda of the characteristic polynomial of
    the leading permuted block of the unregularized matrix.

    The polynomial is the monic rescaled Hermite polynomial of degree M+1
    minus (M+1)! (lambda f_M + (lambda^2 - theta) f_{M-1} / 2) / rho, using
    the pure first-axis coefficients.
    """
    M = state.M
    th = float(state.theta_tensor[0, 0])
    # monic rescaled Hermite polynomial of degree M+1, as coefficients
    c = _recurrence(M + 1, np.polynomial.Polynomial([0.0, 1.0]), th, 1.0)[1].coef
    fM = state.f_value((M,) + (0,) * (state.D - 1))
    fM1 = state.f_value((M - 1,) + (0,) * (state.D - 1))
    fact = float(math.factorial(M + 1))
    c[1] -= fact * fM / state.rho
    c[2] -= fact * fM1 / (2 * state.rho)
    c[0] += fact * fM1 * th / (2 * state.rho)
    return c


# -- hyperbolicity of the unregularized system ---------------------------------


def hyperbolicity_verdict(state: MomentState, d: int = 1, regularized: bool = False) -> HyperbolicityVerdict:
    lam, V = np.linalg.eig(assemble_batch(state.w[None], state.D, state.M, d, regularized)[0])
    scale = 1.0 + np.abs(lam)
    rel_imag = np.abs(lam.imag) / scale
    worst = None
    if rel_imag.max() > _COMPLEX_TOL:
        worst = complex(lam[np.argmax(rel_imag)])
    cond = float(np.linalg.cond(V))
    return HyperbolicityVerdict(
        real_spectrum=worst is None,
        diagonalizable=bool(np.isfinite(cond) and cond < _COND_LIMIT),
        worst_complex_pair=worst,
        max_imag=float(np.abs(lam.imag).max()),
        condition=cond,
    )


def unregularized_eigenvalues(state: MomentState, d: int = 1) -> np.ndarray:
    return np.linalg.eig(assemble_batch(state.w[None], state.D, state.M, d)[0])[0]


def find_nonhyperbolic_state(D: int, M: int, max_doublings: int = 60):
    """Admissible state whose unregularized first-axis matrix has a complex
    eigenvalue, found by scaling the pure first-axis top-order coefficient.

    Returns (state, witness eigenvalue). The witness imaginary part exceeds
    1e-3 sqrt(theta_11) so it is far outside eigensolver noise.
    """
    if M < 3:
        raise ValueError(f"need order M >= 3, got {M}")
    top = (M,) + (0,) * (D - 1)
    t = 0.05
    for _ in range(max_doublings):
        st = MomentState(
            D=D, M=M, rho=1.0, u=np.zeros(D), p=np.eye(D), f={top: t}
        )
        lam = unregularized_eigenvalues(st)
        k = int(np.argmax(np.abs(lam.imag)))
        if abs(lam.imag[k]) > 1e-3:
            return st, complex(lam[k])
        t *= 2.0
    raise RuntimeError(
        f"no complex eigenvalue found for D={D}, M={M} with top coefficient up to {t}"
    )


# -- closed-form spectrum ------------------------------------------------------


@lru_cache(maxsize=None)
def unit_spectrum(D: int, M: int) -> tuple:
    """The regularized first-axis spectrum at unit scale, compiled once per
    (D, M): one line per root C of the order-m Hermite polynomial, counted
    once per diagonal block of size m of the block permutation, sorted by
    (C, m). A state's eigenvalues are u_1 + C sqrt(theta_11)."""
    counts = Counter(size for _, _, size in block_permutation(IndexSet(D, M)).blocks)
    lines = [
        SpectralLine(float(C), mult, m, j)
        for m, mult in counts.items()
        for j, C in enumerate(he_roots(m))
    ]
    return tuple(sorted(lines, key=lambda L: (L.value, L.family_m)))


def spectrum_regularized(state: MomentState, n=None) -> Spectrum:
    """Eigenvalue multiset of the regularized matrix along the unit vector n,
    less the drift u.n: the unit spectrum scaled by sqrt(n^T Theta n), or by
    sqrt(theta_11) when n is None (the first axis)."""
    T = state.theta_tensor
    sq = float(np.sqrt(T[0, 0] if n is None else n @ T @ n))
    lines = tuple(
        SpectralLine(L.value * sq, L.multiplicity, L.family_m, L.root_index)
        for L in unit_spectrum(state.D, state.M)
    )
    return Spectrum(
        D=state.D,
        M=state.M,
        lines=lines,
        Lambda=np.repeat([L.value for L in lines], [L.multiplicity for L in lines]),
    )


# -- block eigenvectors and prolongation ---------------------------------------


def _permuted(w: np.ndarray, D: int, M: int, regularized: bool = True) -> tuple:
    """Block permutation of the first axis and the first-axis matrix of the
    packed row w (N,) in permuted coordinates, or the stack (k, N, N) of
    matrices of the rows of w (k, N) from one assembly."""
    W = w.reshape(-1, w.shape[-1])
    A = assemble_batch(W, D, M, 1, regularized)
    perm = block_permutation(IndexSet(D, M))
    return perm, perm.conjugate(A).reshape(w.shape[:-1] + A.shape[1:])


def _prolong_permuted(blocks, B: np.ndarray, lam) -> np.ndarray:
    """Eigenvector of the permuted matrix B at lam, in permuted coordinates,
    from one solve over blocks: the target block, then the later blocks.

    Entries before the target stay zero. The target's leading entry is 1
    and its last row checks that lam is an eigenvalue of it. A later block
    singular at lam (the target's size, or odd size at lam = 0) has leading
    entry 0 and its last row checks that the lower system is consistent.
    The other entries solve the remaining rows of B - lam I; in reverse
    order these form an upper Hessenberg matrix, so partial pivoting keeps
    the triangular rows of the fixed blocks a plain substitution. One more
    right-hand side per other later block, its last unit row, gives r / res
    on that block for its homogeneous solution r (leading entry 1, last-row
    residual res): above 1e12 the block is singular at lam although its
    size says it is not. A column is zero above its own block, so the last
    such column names one. lam is one eigenvalue or a 1-D array of them,
    and B one matrix (N, N) or a stack (k, N, N): the result is lam.shape +
    B.shape[:-1], from one stacked solve over every (eigenvalue, matrix)
    system. The eigenvalues of an array share one singular pattern, all
    zero or all nonzero, or raise ValueError. A check that fails on any
    system raises, naming the eigenvalue of the worst one.
    """
    lam = np.asarray(lam, dtype=float)
    zero = lam == 0.0
    if zero.any() != zero.all():
        raise ValueError("the eigenvalues of one solve must be all zero or all nonzero")
    target, ts, tn = blocks[0]
    n = blocks[-1][1] + blocks[-1][2] - ts
    shape = lam.shape + B.shape[:-2]  # one system per (eigenvalue, matrix)
    per = math.prod(B.shape[:-2])

    def lam_of(i):  # the eigenvalue of system i of the flattened stack
        return float(lam.flat[i // per])

    A = np.array(np.broadcast_to(B[..., ts : ts + n, ts : ts + n], shape + (n, n)))
    A[..., range(n), range(n)] -= lam.reshape(lam.shape + (1,) * (B.ndim - 1))
    Rp = np.zeros(shape + B.shape[-1:])
    x = Rp[..., ts : ts + n]
    x[..., 0] = 1.0
    held, free = [(target, 0, tn)], []
    for h, s, size in blocks[1:]:
        singular = size == tn or (zero.all() and size % 2 == 1)
        (held if singular else free).append((h, s - ts, size))
    leads = [s for _, s, _ in held]
    checks = [s + size - 1 for _, s, size in held]
    rows = [i for i in range(n - 1, -1, -1) if i not in checks]
    cols = [j for j in range(n - 1, -1, -1) if j not in leads]
    rhs = np.zeros(shape + (n, 1 + len(free)))
    rhs[..., 0] = -(A @ x[..., None])[..., 0]
    rhs[..., [s + size - 1 for _, s, size in free], range(1, 1 + len(free))] = 1.0
    Ar = A[..., rows, :][..., cols]
    try:
        X = np.linalg.solve(Ar, rhs[..., rows, :])
    except np.linalg.LinAlgError:
        # exactly singular in floating point: name the last later block that
        # is singular on its own
        bad = [
            h for h, s, size in free
            if (np.linalg.cond(A[..., s : s + size, s : s + size]) >= 1e12).any()
        ]
        name = f"{bad[-1]} " if bad else ""
        at = lam_of(np.argmax(np.linalg.cond(Ar).ravel()))
        raise ProlongationError(f"unexpected singular block {name}at lambda={at}") from None
    mags = np.abs(X[..., 1:]).max(axis=-2, initial=0.0).reshape(math.prod(shape), len(free))
    big = np.flatnonzero(mags.max(axis=0, initial=0.0) >= 1e12)
    if big.size:
        at = lam_of(np.argmax(mags[:, big[-1]]))
        raise ProlongationError(f"unexpected singular block {free[big[-1]][0]} at lambda={at}")
    x[..., cols] = X[..., 0]
    terms = A[..., checks, :] * x[..., None, :]
    sums, scales = terms.sum(axis=-1), np.maximum(np.abs(terms).sum(axis=-1), 1.0)
    for j, (h, s, _) in enumerate(held):
        r, sc = sums[..., j].ravel(), scales[..., j].ravel()
        i = np.argmax(np.abs(r) / sc)  # the worst system of a stack
        r, sc, at = float(r[i]), float(sc[i]), lam_of(i)
        if s == 0 and abs(r) > 1e-10 * sc:
            raise ValueError(
                f"{at} is not an eigenvalue of the order-{order(h)} block (residual {r:.3e})"
            )
        if abs(r) > 1e-8 * sc:
            raise ProlongationError(
                f"singular block {h} inconsistent at lambda={at} (residual {r:.3e})"
            )
    return Rp


def _block_index(perm, hat) -> int:
    for k, (h, _, _) in enumerate(perm.blocks):
        if h == hat:
            return k
    raise ValueError(f"no block with trailing sub-index {hat}")


def block_eigenvector(n_hat: int, lam: float, state: MomentState, regularized: bool = True) -> np.ndarray:
    """Eigenvector of the diagonal block whose trailing sub-index has order
    n_hat, normalized to leading entry 1.

    The block is lower Hessenberg with positive superdiagonal, so the
    leading entry determines the vector; the last-row residual vanishes
    exactly when lam is an eigenvalue of the block.
    """
    top = state.M if state.D > 1 else 0  # a D=1 state has only the order-0 block
    if not 0 <= n_hat <= top:
        raise ValueError(f"block order must be in 0..{top}, got {n_hat}")
    perm, B = _permuted(state.w, state.D, state.M, regularized)
    t = next(k for k, (h, _, _) in enumerate(perm.blocks) if order(h) == n_hat)
    _, start, size = perm.blocks[t]
    return _prolong_permuted(perm.blocks[t : t + 1], B, lam)[start : start + size]


def prolong(block_vector, hat_alpha, lam: float, state: MomentState) -> np.ndarray:
    """Extend a diagonal-block eigenvector with trailing sub-index hat_alpha
    to a full eigenvector of the regularized first-axis matrix, in the
    original packing order: the one solve of _prolong_permuted, scaled by
    block_vector[0]. Raises ValueError naming the block when block_vector
    is more than 1e-8 max(1, max|block_vector|) from the scaled target
    block, that is, when it is not an eigenvector of the block at lam."""
    perm, B = _permuted(state.w, state.D, state.M)
    t = _block_index(perm, tuple(hat_alpha))
    h, start, size = perm.blocks[t]
    r = np.asarray(block_vector, dtype=float)
    if r.shape != (size,):
        raise ValueError("block vector length does not match the block size")
    Rp = r[0] * _prolong_permuted(perm.blocks[t:], B, lam)
    off = np.max(np.abs(Rp[start : start + size] - r))
    if not off <= 1e-8 * max(1.0, np.max(np.abs(r))):
        raise ValueError(f"block vector is not an eigenvector of block {h} at lambda={lam} (off by {off:.3e})")
    return perm.inverse_apply(Rp)


def _fit(A: np.ndarray, Lam: np.ndarray, R: np.ndarray) -> tuple:
    """Residual max|A R - R Lam| and 2-norm condition number of R."""
    residual = float(np.max(np.abs(A @ R - R * Lam[None, :])))
    sv = np.linalg.svd(R, compute_uv=False)
    return residual, float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf


def full_eigendecomposition(state: MomentState) -> Spectrum:
    """Complete closed-form eigendecomposition of the regularized first-axis
    matrix. Falls back to a numerical eigensolve (with a warning) if the
    closed-form construction fails its residual or rank checks."""
    perm, B = _permuted(state.w, state.D, state.M)
    Atil = perm.unconjugate(B)
    spec = spectrum_regularized(state)
    try:
        # a block of size n carries the n roots of family m = n, ascending,
        # in the columns of its own span: one stacked prolongation for its
        # nonzero roots and one for its zero root
        Lam = np.array([L.value for _, _, n in perm.blocks for L in spec.lines if L.family_m == n])
        Rp = np.empty((Lam.size, B.shape[-1]))
        for t, (_, start, n) in enumerate(perm.blocks):
            lams = Lam[start : start + n]
            for group in (lams != 0.0, lams == 0.0):
                if group.any():
                    Rp[start : start + n][group] = _prolong_permuted(perm.blocks[t:], B, lams[group])
        R = np.ascontiguousarray(perm.inverse_apply(Rp).T)
        residual, cond = _fit(Atil, Lam, R)
        scale = float(np.max(np.abs(Atil)))
        if residual > 1e-8 * max(scale, 1.0) or not np.isfinite(cond) or cond > _COND_LIMIT:
            raise ProlongationError(
                f"closed-form residual {residual:.3e} or condition {cond:.3e} out of range"
            )
        lines, method = spec.lines, "closed-form"
    except (ProlongationError, ValueError) as err:
        warnings.warn(f"falling back to numerical eigensolve: {err}")
        lam, V = np.linalg.eig(Atil)
        order_ = np.argsort(lam.real)
        Lam = lam.real[order_]
        R = V.real[:, order_]
        residual, cond = _fit(Atil, Lam, R)
        lines = tuple(SpectralLine(float(v), 1, -1, -1) for v in Lam)
        method = "numerical"
    return Spectrum(
        D=state.D, M=state.M, lines=lines, Lambda=Lam, R=R,
        residual=residual, condition=cond, method=method,
    )


def rotation_spectrum_check(state: MomentState, n) -> float:
    """Maximum deviation between the numerically computed eigenvalues of the
    directional matrix and the scaled Hermite-root multiset."""
    n = np.asarray(n, dtype=float)
    A = directional(state, n).entries
    lam = np.linalg.eigvals(A)
    got = np.sort(lam.real)
    imag = float(np.max(np.abs(lam.imag)))
    expect = spectrum_regularized(state, n).Lambda
    return float(max(np.max(np.abs(got - expect)), imag))
