"""Moment states, conserved raw moments, and collision-target coefficients.

The state vector w packs, in rank order: density (rank 1), the D mean
velocities, the pressure entries p_ij stored as p_ij/(1+delta_ij) at the
rank of e_i+e_j, and the free expansion coefficients f_alpha for
3 <= |alpha| <= M. Coefficients of order 1 and 2 vanish identically
(they are absorbed into u and the scale tensor), order 0 equals density.
The JSON form of a state is written by state_to_json and read by
state_from_doc and state_from_json, at the end of this module.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

import numpy as np

from .hermite import AnisotropicBasis, gaussian_raw_moments
from .index import IndexSet, _rank_table, factorial, is_void, order, rank_array

_SPD_TOL = 1e-12


class AdmissibilityError(ValueError):
    """Raised when a state (or implied state) has a non-finite entry, rho <= 0
    or a scale tensor that is not positive definite. Carries the offending
    eigenvalue and, from a batched kernel, the 0-based row (cell) that
    failed."""

    def __init__(self, message, eigenvalue=None, cell=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.cell = cell


@lru_cache(maxsize=None)
def _identity(D: int) -> np.ndarray:
    """The (D, D) identity, built once and shared read-only."""
    eye = np.eye(D)
    eye.setflags(write=False)
    return eye


def _spd_margin(T: np.ndarray):
    """Smallest eigenvalue of each stacked symmetric matrix (..., D, D) and
    whether it passes the positive-definiteness test: above _SPD_TOL times
    the trace. Matrices with a non-finite entry fail, with a NaN margin."""
    T = np.asarray(T, dtype=float)
    finite = np.isfinite(T).all(axis=(-2, -1))
    all_finite = finite.all()
    if not all_finite:
        T = np.where(finite[..., None, None], T, _identity(T.shape[-1]))
    lo = np.linalg.eigvalsh(T)[..., 0]
    ok = lo > _SPD_TOL * np.maximum(T.trace(axis1=-2, axis2=-1), 1e-300)
    if all_finite:
        return lo, ok
    return np.where(finite, lo, np.nan), finite & ok


def _check_cells(T, tensor: str, rho=None, finite=None, prefix: str = ""):
    """Batched admissibility test, one eigvalsh call for the whole stack.

    Raises AdmissibilityError naming (in .cell) the lowest row that is
    flagged not finite, has a density rho <= 0, or a tensor T failing the
    test of _spd_margin.
    """
    lo, ok = _spd_margin(T)
    if finite is not None:
        ok = ok & finite
    if rho is not None:
        with np.errstate(invalid="ignore"):
            ok = ok & (rho > 0)
    if ok.all():
        return
    i = int(np.argmin(ok))
    if finite is not None and not finite[i]:
        raise AdmissibilityError(f"{prefix}state has non-finite entries", cell=i)
    if rho is not None and not rho[i] > 0:
        raise AdmissibilityError(f"{prefix}density {rho[i]} is not positive", cell=i)
    raise AdmissibilityError(
        f"{prefix}{tensor} is not positive definite (min eigenvalue {lo[i]:.3e})",
        eigenvalue=float(lo[i]),
        cell=i,
    )


# -- compiled index tables -------------------------------------------------------


@dataclass(frozen=True)
class _Packing:
    """Rank bookkeeping of the packed vector w for one (D, M).

    vel: ranks of e_i; pair: (D, D) ranks of e_i + e_j; upper: the i <= j
    pairs as (rows, cols) and their slot ranks; norm: 1 + delta_ij per slot;
    scale: the (D, D) matrix 1 + delta_ij that turns slots into p_ij;
    free / free_alphas: ranks and indices of order >= 3; low: ranks of order
    1 and 2 (constrained to zero as coefficients); span[k]: rank range of
    order k; fact: alpha! per rank; index_set: IndexSet(D, M).
    """

    N: int
    vel: np.ndarray
    pair: np.ndarray
    upper: tuple
    upper_slots: np.ndarray
    norm: np.ndarray
    scale: np.ndarray
    free: np.ndarray
    free_alphas: tuple
    low: np.ndarray
    span: tuple
    fact: np.ndarray
    index_set: IndexSet


@lru_cache(maxsize=None)
def _packing(D: int, M: int) -> _Packing:
    s = IndexSet(D, M)
    idx = s.indices
    E = np.eye(D, dtype=int)
    pair = rank_array(D, M, E[:, None] + E)
    upper = np.triu_indices(D)
    orders = np.array([order(a) for a in idx])
    span = tuple(
        (int(np.searchsorted(orders, k)), int(np.searchsorted(orders, k, side="right")))
        for k in range(M + 1)
    )
    return _Packing(
        N=s.N,
        vel=rank_array(D, M, E),
        pair=pair,
        upper=upper,
        upper_slots=pair[upper],
        norm=np.where(upper[0] == upper[1], 2.0, 1.0),
        scale=1.0 + np.eye(D),
        free=np.flatnonzero(orders >= 3),
        free_alphas=tuple(a for a in idx if order(a) >= 3),
        low=np.flatnonzero((orders == 1) | (orders == 2)),
        span=span,
        fact=np.array([factorial(a) for a in idx], dtype=float),
        index_set=s,
    )


def _unpack(W: np.ndarray, D: int, M: int):
    """Density (n,), velocity (n, D) and pressure tensor (n, D, D) of the
    packed rows W (n, N)."""
    t = _packing(D, M)
    # the pressure gather stays an advanced index, not a take: its layout
    # carries into the D x D sums of assembly._features, whose order of
    # addition, and so whose last bits, follow the memory layout
    return W[:, 0], W[:, t.vel], W[:, t.pair] * t.scale


def _check_rows(W: np.ndarray, D: int, M: int):
    """Admissibility of the packed rows W (n, N): every entry finite, rho > 0
    and a positive definite pressure tensor. Raises AdmissibilityError
    naming the lowest failing row in .cell."""
    rho, _, p = _unpack(W, D, M)
    _check_cells(p, "pressure tensor", rho, np.isfinite(W).all(axis=1))


def _pack(rho, u, p, fvec: np.ndarray, D: int, M: int) -> np.ndarray:
    """Packed rows from density, velocity, pressure and the coefficient rows
    fvec (only their order >= 3 entries are read)."""
    t = _packing(D, M)
    W = fvec.copy()
    W[:, 0] = rho
    W[:, t.vel] = u
    W[:, t.upper_slots] = p[:, t.upper[0], t.upper[1]] / t.norm
    return W


def free_values(W: np.ndarray, D: int, M: int) -> np.ndarray:
    """Expansion coefficients of the packed rows with the constraints
    resolved (density at order 0, zero at orders 1 and 2), plus one trailing
    zero column: gathering at rank N reads a void or out-of-set index as 0."""
    n, N = W.shape
    fx = np.zeros((n, N + 1))
    fx[:, :N] = W
    fx[:, _packing(D, M).low] = 0.0
    return fx


_DECIMAL = re.compile(r" *-?[0-9]+")
# a JSON key: plain decimal integers joined by commas, each of which may be
# followed by spaces ("0, 3")
_KEY = re.compile(r" *-?[0-9]+(, *-?[0-9]+)*")


def _index_part(a) -> int:
    """One entry of a coefficient index: a whole number, or a plain decimal
    integer string, which may start with spaces."""
    if isinstance(a, str):
        if not _DECIMAL.fullmatch(a):
            raise ValueError(a)
        return int(a)
    i = int(a)
    if i != a:
        raise ValueError(a)
    return i


def _key_index(key: str) -> tuple:
    """The integers of a JSON key such as "0, 3", matched once as a whole."""
    if not _KEY.fullmatch(key):
        raise ValueError(key)
    return tuple(map(int, key.split(",")))


def _coefficients(items, D: int, M: int) -> dict:
    """The (multi-index, value) pairs items as a dict of floats. An index is
    D integers (comma-joined in a JSON key) of order 3..M, and appears once."""
    f = {}
    for key, val in items:
        try:
            alpha = _key_index(key) if isinstance(key, str) else tuple(map(_index_part, key))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"'f' index {key!r} must be integers") from None
        if len(alpha) != D or is_void(alpha):
            raise ValueError(f"bad coefficient index {alpha}")
        if not 3 <= order(alpha) <= M:
            raise ValueError(f"free coefficients live at orders 3..{M}, got {alpha}")
        if alpha in f:
            raise ValueError(f"'f' index {alpha} is given twice")
        f[alpha] = float(val)
    return f


def _array(val, what: str) -> np.ndarray:
    """val as a float array; nested lists of unequal lengths, or entries
    that are not numbers, raise a ValueError naming what."""
    try:
        return np.asarray(val, dtype=float)
    except ValueError:
        raise ValueError(f"{what} must be numbers in rows of equal length") from None


@dataclass(frozen=True)
class MomentState:
    """Immutable moment state of dimension D and order M: its packed vector
    ``w``, packed and checked once. rho, u, p and f are read back from w,
    so p is exactly symmetric (its upper triangle) and f holds the free
    slots of w that compare nonzero; w keeps the sign of a zero."""

    D: int
    M: int
    rho: float
    u: np.ndarray
    p: np.ndarray
    f: Mapping[tuple, float]
    w: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        D, M = self.D, self.M
        rho = float(self.rho)
        u = _array(self.u, "velocity u")
        p = _array(self.p, "pressure tensor p")
        if u.size != D:
            raise ValueError(f"velocity u must have {D} entries, got {u.size}")
        if p.size != D * D:
            raise ValueError(f"pressure tensor p must have {D}x{D} entries, got {p.size}")
        p = p.reshape(D, D)
        f = _coefficients(self.f.items(), D, M)
        if not math.isfinite(rho):
            raise AdmissibilityError(f"density must be finite, got {rho}")
        if rho <= 0:
            raise AdmissibilityError(f"density must be positive, got {rho}")
        if not np.isfinite(u).all():
            raise AdmissibilityError(f"velocity must be finite, got {u.ravel().tolist()}")
        for alpha, val in f.items():
            if not math.isfinite(val):
                raise AdmissibilityError(f"coefficient {alpha} must be finite, got {val}")
        if not np.isfinite(p).all():
            raise AdmissibilityError("pressure tensor has non-finite entries")
        # np.allclose(p, p.T, rtol=1e-10, atol=1e-12), spelled out for speed
        if not (np.abs(p - p.T) <= 1e-12 + 1e-10 * np.abs(p.T)).all():
            raise AdmissibilityError("pressure tensor must be symmetric")
        # the tables come after the size checks: their size grows with D and M.
        # Every entry is finite and rho > 0 by the checks above, so the one
        # test left is that of the pressure tensor read back from w
        t = _packing(D, M)
        ranks = _rank_table(D, M)
        fvec = np.zeros((1, t.N))
        fvec[0, [ranks[alpha] for alpha in f]] = list(f.values())
        w = _pack(rho, u.reshape(D), p[None], fvec, D, M)[0]
        u, p = w[t.vel], w[t.pair] * t.scale
        _check_cells(p[None], "pressure tensor")
        for name, val in (("w", w), ("u", u), ("p", p)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "rho", float(w[0]))
        object.__setattr__(self, "f", {a: v for a, v in zip(t.free_alphas, w[t.free].tolist()) if v})

    # -- derived quantities ------------------------------------------------

    @cached_property
    def index_set(self) -> IndexSet:
        return IndexSet(self.D, self.M)

    @cached_property
    def theta_tensor(self) -> np.ndarray:
        T = self.p / self.rho
        T.setflags(write=False)
        return T

    @property
    def theta(self) -> float:
        """Mean scalar temperature: trace(p) / (D rho)."""
        return float(np.trace(self.p) / (self.D * self.rho))

    @cached_property
    def basis(self) -> AnisotropicBasis:
        return AnisotropicBasis(self.theta_tensor)

    def f_value(self, alpha) -> float:
        """Expansion coefficient with the constraints resolved, read from
        free_values: void indices give 0, order 0 gives density, orders 1
        and 2 give 0, anything above order M gives 0 (closure)."""
        rank = _rank_table(self.D, self.M).get(tuple(alpha), self.index_set.N)
        return float(free_values(self.w[None], self.D, self.M)[0, rank])

    # -- packed vector form --------------------------------------------------

    @classmethod
    def from_w(cls, D: int, M: int, w: Sequence[float]) -> "MomentState":
        """State of the packed vector w; its ``w`` is a copy of the same bytes."""
        t = _packing(D, M)
        w = np.asarray(w, dtype=float)
        if w.shape != (t.N,):
            raise ValueError(f"state vector must have length {t.N}, got {w.shape}")
        _, u, p = _unpack(w[None], D, M)
        return cls(D=D, M=M, rho=w[0], u=u[0], p=p[0], f=dict(zip(t.free_alphas, w[t.free].tolist())))

    def replace(self, **kw) -> "MomentState":
        cur = dict(D=self.D, M=self.M, rho=self.rho, u=self.u, p=self.p, f=self.f)
        cur.update(kw)
        return MomentState(**cur)


def equilibrium(D: int, M: int, rho: float, u, Theta) -> MomentState:
    """State of pressure rho Theta whose free coefficients vanish (Gaussian)."""
    return MomentState(D=D, M=M, rho=rho, u=u, p=rho * np.asarray(Theta, dtype=float), f={})


@lru_cache(maxsize=None)
def _heat_flux_ranks(D: int):
    """Ranks of 3 e_i (D,) and of e_i + 2 e_d (D, D)."""
    E = np.eye(D, dtype=int)
    return rank_array(D, 3, 3 * E), rank_array(D, 3, E[:, None] + 2 * E)


def heat_flux_batch(W: np.ndarray, D: int, M: int) -> np.ndarray:
    """q_i = 2 f_{3 e_i} + sum_d f_{e_i + 2 e_d} of the packed rows, (n, D)."""
    if M < 3:
        raise ValueError(f"heat flux needs order M >= 3, got M={M}")
    three, mixed = _heat_flux_ranks(D)
    q = 2.0 * W[:, three]
    for d in range(D):
        q = q + W[:, mixed[:, d]]
    return q


def heat_flux(state: MomentState) -> np.ndarray:
    """q_i = 2 f_{3 e_i} + sum_d f_{e_i + 2 e_d}."""
    return heat_flux_batch(state.w[None], state.D, state.M)[0]


# -- conversion machinery ----------------------------------------------------
#
# The expansion is built around a local Gaussian, so every moment the
# conversions and the relaxation target need is a Gaussian moment. They come
# from hermite.gaussian_raw_moments (re-exported here), the one raising
# recurrence, which also gives the basis polynomials. Every kernel below
# works on a stack of states at once from integer gather tables compiled
# once per (D, M), in which rank N stands for a void or out-of-set index and
# reads a zero.


@lru_cache(maxsize=None)
def _pair_table(D: int, M: int):
    """The pairs alpha <= beta of IndexSet(D, M), sorted by beta: the ranks
    of alpha, of beta and of beta - alpha, and the start of the run of each
    beta (N + 1 entries, the last one the number of pairs)."""
    s = IndexSet(D, M)
    alpha, b = zip(*(
        (alpha, b)
        for b, beta in enumerate(s.indices)
        for alpha in itertools.product(*(range(k + 1) for k in beta))
    ))
    alpha, b = np.array(alpha), np.array(b)
    d = rank_array(D, M, np.array(s.indices)[b] - alpha)
    table = rank_array(D, M, alpha), b, d, np.searchsorted(b, np.arange(s.N + 1))
    for arr in table:
        arr.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _convolve_slices(D: int, M: int, lo: int, hi: int):
    """The pairs of _pair_table whose beta has rank lo..hi-1: their alpha
    and beta - alpha ranks, and the start of each beta's run among them."""
    a, _, d, start = _pair_table(D, M)
    s0, s1 = start[lo], start[hi]
    runs = start[lo:hi] - s0
    runs.setflags(write=False)
    return a[s0:s1], d[s0:s1], runs


def _convolve(f: np.ndarray, g: np.ndarray, D: int, M: int, lo: int, hi: int) -> np.ndarray:
    """Rows beta of ranks lo..hi-1 of the multi-index convolution
    sum_{alpha <= beta} f_alpha g_{beta-alpha}, for stacked rows f and g.
    The gathers are the _convolve_slices of _pair_table, compiled once per
    (D, M, lo, hi) and shared read-only."""
    a, d, runs = _convolve_slices(D, M, lo, hi)
    return np.add.reduceat(f.take(a, axis=1) * g.take(d, axis=1), runs, axis=1)


def moment_table(Theta: np.ndarray, set_: IndexSet) -> np.ndarray:
    """Table of raw moments of the weighted basis functions.

    Entry [a, b] is the integral of x^beta against the function of index
    alpha (a, b the 0-based ranks), for the centered weight with scale
    tensor Theta: beta!/(beta-alpha)! mu_{beta-alpha}(Theta) for
    alpha <= beta and 0 otherwise, gathered from gaussian_raw_moments. The
    conversions do not build it; they convolve with the Gaussian moments
    directly. Theta may carry leading batch axes (..., D, D); the result is
    then (..., N, N).
    """
    Theta = np.asarray(Theta, dtype=float)
    N = set_.N
    mu = gaussian_raw_moments(Theta, set_).reshape(-1, N)
    a, b, d, _ = _pair_table(set_.D, set_.M)
    fact = _packing(set_.D, set_.M).fact
    m = np.zeros((mu.shape[0], N, N))
    m[:, a, b] = fact[b] / fact[d] * mu[:, d]
    return m.reshape(Theta.shape[:-2] + (N, N))


@dataclass(frozen=True)
class ConservedMoments:
    """Raw velocity moments F_alpha = (1/alpha!) integral xi^alpha f dxi."""

    D: int
    M: int
    F: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.F, dtype=float)
        F.setflags(write=False)
        object.__setattr__(self, "F", F)

    @cached_property
    def index_set(self) -> IndexSet:
        return IndexSet(self.D, self.M)

    def value(self, alpha) -> float:
        return float(self.F[self.index_set.rank0(alpha)])


def _gaussian_table(Theta: np.ndarray, u: np.ndarray, D: int, M: int) -> np.ndarray:
    """The rows nu_beta(u, Theta) / beta! (n, N) that the conversions
    convolve with. Ranks are graded, so the first entries of the order-M
    table are bitwise the table of any lower order."""
    t = _packing(D, M)
    return gaussian_raw_moments(Theta, t.index_set, u) / t.fact


def to_conserved_batch(W: np.ndarray, D: int, M: int) -> np.ndarray:
    """Raw moments F (n, N) of the packed rows W (n, N): the convolution
    F_beta = sum_{alpha <= beta} f_alpha nu_{beta-alpha}(u, Theta) / (beta-alpha)!,
    the rows F of _moments_and_flux."""
    return _moments_and_flux(W, D, M)[0]


@lru_cache(maxsize=None)
def _lift_ranks(D: int, M: int):
    """Ranks in the order-(M+1) set of alpha + e_1 for each index alpha of
    the order-M set, and the flux multipliers alpha_1 + 1. Ranks are graded,
    so alpha itself keeps its rank in the larger set."""
    idx = np.array(IndexSet(D, M).indices)
    return rank_array(D, M + 1, idx + np.eye(D, dtype=int)[0]), idx[:, 0] + 1.0


def _moments_and_flux(W: np.ndarray, D: int, M: int, table: np.ndarray = None):
    """Conserved rows F and first-axis closure fluxes G of the packed rows W.

    Both read off the moments of the states lifted one order with their
    coefficients unchanged (the closure zeroes the new order), so row alpha
    of G is (alpha_1+1) F_{alpha+e_1}. table is the order-(M+1) Gaussian
    table of W's (u, Theta), as _from_conserved returns it, or None to
    compute it here.
    """
    up, mult = _lift_ranks(D, M)
    n, N = W.shape
    if table is None:
        rho, u, p = _unpack(W, D, M)
        table = _gaussian_table(p / rho[:, None, None], u, D, M + 1)
    N1 = table.shape[1]
    # free_values of W lifted one order: ranks are graded, so it is W with
    # orders 1 and 2 zeroed, padded with zeros at order M + 1 and rank N1
    fx = np.zeros((n, N1 + 1))
    fx[:, :N] = W
    fx[:, _packing(D, M).low] = 0.0
    Fl = _convolve(fx, table, D, M + 1, 0, N1)
    return Fl[:, :N], mult * Fl.take(up, axis=1)


def to_conserved(state: MomentState) -> ConservedMoments:
    """Raw moments of the expansion, a convolution with Gaussian moments."""
    F = to_conserved_batch(state.w[None], state.D, state.M)[0]
    return ConservedMoments(D=state.D, M=state.M, F=F)


def from_conserved_batch(F: np.ndarray, D: int, M: int) -> np.ndarray:
    """Packed rows W (n, N) of the raw-moment rows F (n, N): the convolution
    of to_conserved_batch solved order by order from order 3.

    Raises AdmissibilityError, naming the lowest failing row in .cell, when
    a row is not finite or its implied density or scale tensor is out of
    range.
    """
    return _from_conserved(F, D, M)[0]


def _from_conserved(F: np.ndarray, D: int, M: int):
    """from_conserved_batch, and the order-(M+1) Gaussian table of the rows
    it returns: the table _moments_and_flux reads, of which the solve uses
    the first N entries."""
    t = _packing(D, M)
    rho = F[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = F.take(t.vel, axis=1) / rho[:, None]
        p = t.scale * F.take(t.pair, axis=1) - u[:, :, None] * u[:, None, :] * rho[:, None, None]
        Theta = p / rho[:, None, None]
    _check_cells(Theta, "scale tensor", rho, np.isfinite(F).all(axis=1), "implied ")
    g = _gaussian_table(Theta, u, D, M + 1)
    # the alpha = beta term of the convolution is f_beta itself (nu_0 = 1):
    # each order is F less the terms of the orders below, still zero above;
    # an overflow leaves a non-finite row, which the check below names
    fvec = np.zeros(F.shape)
    fvec[:, 0] = rho
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in t.span[3:]:
            np.subtract(F[:, lo:hi], _convolve(fvec, g, D, M, lo, hi), out=fvec[:, lo:hi])
    W = _pack(rho, u, p, fvec, D, M)
    if not np.isfinite(W).all():
        bad = ~np.isfinite(W).all(axis=1)
        raise AdmissibilityError("implied state has non-finite entries", cell=int(np.argmax(bad)))
    return W, g


def from_conserved(F: ConservedMoments | Sequence[float], D: int = None, M: int = None) -> MomentState:
    """Invert to_conserved. Raises AdmissibilityError when the implied
    density or scale tensor is out of range."""
    if isinstance(F, ConservedMoments):
        D, M, Fv = F.D, F.M, F.F
    else:
        Fv = np.asarray(F, dtype=float)
    N = IndexSet(D, M).N
    if Fv.shape != (N,):
        raise ValueError(f"moment vector must have length {N}")
    return MomentState.from_w(D, M, from_conserved_batch(Fv[None], D, M)[0])


# -- collision targets ---------------------------------------------------------


@dataclass(frozen=True)
class CollisionModel:
    """Relaxation model: frequency nu and Prandtl number.

    kind "bgk" forces Pr = 1; kind "es-bgk" admits Pr with
    b = 1 - 1/Pr in [-1/2, 1].
    """

    nu: float = 1.0
    kind: str = "bgk"
    Pr: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"collision frequency must be finite and >= 0, got {self.nu}")
        if not isinstance(self.kind, str):
            raise ValueError(f"collision kind must be a string, got {self.kind!r}")
        kind = self.kind.lower()
        object.__setattr__(self, "kind", kind)
        if kind not in ("bgk", "es-bgk"):
            raise ValueError(f"unknown collision kind {self.kind!r}")
        if kind == "bgk" and not math.isclose(self.Pr, 1.0):
            raise ValueError("bgk model has Prandtl number 1")
        if not -0.5 <= self.b <= 1.0:
            raise ValueError(
                f"Prandtl number {self.Pr} puts the anisotropy weight {self.b} outside [-1/2, 1]"
            )

    @property
    def b(self) -> float:
        return 1.0 - 1.0 / self.Pr


def _target_covariance(rho, p, D: int, model: CollisionModel) -> np.ndarray:
    """Batched covariance b Theta + (1 - b) theta I of the relaxation target."""
    b = model.b
    theta = p.trace(axis1=-2, axis2=-1) / (D * rho)
    return b * (p / rho[:, None, None]) + (1.0 - b) * theta[:, None, None] * _identity(D)


def collision_target_covariance(state: MomentState, model: CollisionModel) -> np.ndarray:
    """Covariance of the relaxation target Gaussian."""
    Lam = _target_covariance(np.array([state.rho]), state.p[None], state.D, model)
    _check_cells(Lam, "collision target covariance")
    return Lam[0]


def collision_coeffs_batch(W: np.ndarray, D: int, M: int, model: CollisionModel) -> np.ndarray:
    """Relaxation-target coefficients (n, N) of the packed rows W (n, N):
    rho mu_alpha(Lambda - Theta) / alpha!, with Lambda the target covariance.

    Lambda = b Theta + (1 - b) theta I keeps the trace of Theta, and its
    eigenvalues are b lambda_i + (1 - b) theta. For b in [0, 1] the smallest
    is a weighted mean of lambda_min and theta; for b < 0 it is
    b lambda_max + (1 - b) theta, linear in b, which is theta at b = 0 and
    the mean of the other eigenvalues of Theta at b = -1/(D - 1). Either way
    it is at least lambda_min for b >= -1/(D - 1). The model admits
    b >= -1/2, so for D <= 3 an admissible row has an admissible target and
    is not checked again. Only where b < -1/(D - 1), at D >= 4, does this
    raise AdmissibilityError, naming the lowest failing row in .cell, when
    a target covariance is not positive definite.
    """
    t = _packing(D, M)
    # rho and p as _unpack forms them, without the velocity it does not need
    rho, p = W[:, 0], W[:, t.pair] * t.scale
    Lam = _target_covariance(rho, p, D, model)
    if model.b * (D - 1) < -1.0:
        _check_cells(Lam, "collision target covariance")
    mu = gaussian_raw_moments(Lam - p / rho[:, None, None], t.index_set)
    return rho[:, None] * mu / t.fact


def collision_coeffs(state: MomentState, model: CollisionModel) -> np.ndarray:
    """Expansion coefficients of the relaxation target in the state's basis.

    Length-N vector in rank order: density at order 0, zeros at odd orders,
    (1-b)(p delta_ij - p_ij)/(1+delta_ij) at order 2, higher even orders
    from the Gaussian moments of Lambda - Theta.
    """
    return collision_coeffs_batch(state.w[None], state.D, state.M, model)[0]


# -- JSON form ---------------------------------------------------------------


def state_to_json(state: MomentState) -> str:
    """JSON document of the state. Its f lists the free slots of w other
    than +0.0, so a signed zero survives the round trip."""
    t = _packing(state.D, state.M)
    free = sorted(zip(t.free_alphas, state.w[t.free].tolist()))
    f = {",".join(map(str, a)): v for a, v in free if v or math.copysign(1.0, v) < 0}
    doc = {
        "D": state.D,
        "M": state.M,
        "rho": state.rho,
        "u": state.u.tolist(),
        "p": state.p.tolist(),
        "f": f,
    }
    return json.dumps(doc, indent=2)


def _number(val, what: str) -> float:
    """float(val) of a JSON number field. Anything but an int or a float (a
    bool, a string, a list, an object) and an int past the float range raise
    TypeError."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise TypeError(f"{what} must be a number, got {json.dumps(val)}")
    try:
        return float(val)
    except OverflowError:
        raise TypeError(f"{what} must fit a float, got an integer of {val.bit_length()} bits") from None


def _integer(val, what: str) -> int:
    """int(val) of a JSON number field (see _number); a float must be whole,
    which rules out inf and NaN."""
    if not _number(val, what).is_integer():
        raise ValueError(f"{what} must be an integer, got {json.dumps(val)}")
    return int(val)


def _numbers(val, what: str):
    """_number of every entry of the nested lists val (u, p)."""
    return [_numbers(v, what) for v in val] if isinstance(val, list) else _number(val, what)


def state_from_doc(doc) -> MomentState:
    """State of a parsed state JSON document; every numeric field and every
    entry of u, p and f must be a JSON number."""
    if not (isinstance(doc, dict) and isinstance(doc.get("f", {}), dict)):
        raise ValueError("state JSON and its field 'f' must be objects")
    try:
        try:
            D, M = _integer(doc["D"], "'D'"), _integer(doc["M"], "'M'")
        except ValueError as e:  # not a whole number
            raise ValueError(f"state JSON field {e}") from None
        rho = _number(doc["rho"], "'rho'")
        u = _numbers(doc["u"], "'u' entry")
        p = _numbers(doc["p"], "'p' entry")
        f = {k: _number(v, f"'f' entry {k!r}") for k, v in doc.get("f", {}).items()}
        return MomentState(D=D, M=M, rho=rho, u=u, p=p, f=f)
    except KeyError as e:
        raise ValueError(f"state JSON missing field {e.args[0]!r}") from None
    except TypeError as e:
        raise ValueError(f"state JSON field has the wrong type: {e}") from None


def state_from_json(text: str) -> MomentState:
    return state_from_doc(json.loads(text))
