"""Slow oracle for the moment conversions and the relaxation target.

This is the dense route the numeric core used before it convolved with
Gaussian moments directly:

* ``reference_moment_table`` builds the per-state (N, N) table of raw
  moments of the weighted basis functions by the row-wise raising
  recurrence, seeded from the normalized weight;
* ``reference_shifted_table`` moves that table to the mean velocity by a
  dense binomial-shift matrix;
* ``reference_to_conserved`` multiplies by the coefficients,
  ``reference_from_conserved`` and ``reference_collision_coeffs`` solve the
  triangular systems order by order against the table.

It shares only the packed layout (``_packing``, ``_unpack``, ``_pack``,
``free_values``) and the target covariance with the production code; the
index recurrences are rebuilt here from the enumeration of the index set.
"""

import math
from functools import lru_cache

import numpy as np

from hypermoment.index import IndexSet, add, sub, unit
from hypermoment.state import (
    _pack,
    _packing,
    _target_covariance,
    _unpack,
    free_values,
)


@lru_cache(maxsize=None)
def _raising(D, M):
    """Per order k >= 1, for the columns beta of that order (ranks lo..hi-1):
    the first nonzero axis d, the rank of beta - e_d, per axis j the entry
    (beta - e_d)_j and the rank of beta - e_d - e_j, and per rank alpha the
    entry alpha_d and the rank of alpha - e_d. Rank N stands for a void or
    out-of-set index; up[j] is the rank of alpha + e_j."""
    idx = IndexSet(D, M).indices
    rank = {a: k for k, a in enumerate(idx)}
    N = len(idx)
    e = [unit(D, j + 1) for j in range(D)]
    deg = np.array(idx)
    up = np.array([[rank.get(add(a, e[j]), N) for a in idx] for j in range(D)])
    low = np.array([[rank[sub(a, e[j])] if a[j] else N for j in range(D)] for a in idx])
    bounds = np.searchsorted(deg.sum(axis=1), np.arange(M + 2))
    steps = []
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        axis = np.argmax(deg[lo:hi] > 0, axis=1)
        base = low[np.arange(lo, hi), axis]
        steps.append(
            (
                int(lo), int(hi), axis, base,
                deg[base].astype(float), low[base],
                deg[:, axis].astype(float), low[:, axis],
            )
        )
    return up, steps


def reference_moment_table(Theta, set_):
    """Entry [a, b]: integral of x^beta against the basis function of index
    alpha, centered, scale tensor Theta (..., D, D); result (..., N, N)."""
    Theta = np.asarray(Theta, dtype=float)
    D, N = set_.D, set_.N
    batch = Theta.shape[:-2]
    T = Theta.reshape(-1, D, D)
    up, steps = _raising(D, set_.M)
    m = np.zeros((T.shape[0], N + 1, N))
    m[:, 0, 0] = 1.0
    for lo, hi, axis, base, _, _, row_mult, row_down in steps:
        acc = T[:, axis, 0][:, None, :] * m[:, up[0][:, None], base]
        for j in range(1, D):
            acc = acc + T[:, axis, j][:, None, :] * m[:, up[j][:, None], base]
        m[:, :N, lo:hi] = acc + row_mult * m[:, row_down, base]
    return m[:, :N].reshape(batch + (N, N))


def reference_gaussian_moments(Lambda, set_):
    """Centered Gaussian moments mu_beta, covariance Lambda (n, D, D)."""
    D, N = set_.D, set_.N
    L = np.asarray(Lambda, dtype=float).reshape(-1, D, D)
    mu = np.zeros((L.shape[0], N + 1))
    mu[:, 0] = 1.0
    for lo, hi, axis, _, mult, down, _, _ in _raising(D, set_.M)[1]:
        acc = L[:, axis, 0] * mult[:, 0] * mu[:, down[:, 0]]
        for j in range(1, D):
            acc = acc + L[:, axis, j] * mult[:, j] * mu[:, down[:, j]]
        mu[:, lo:hi] = acc
    return mu[:, :N]


def _sub_indices(beta):
    """All gamma with 0 <= gamma <= beta componentwise."""
    if len(beta) == 1:
        return [(g,) for g in range(beta[0] + 1)]
    tails = _sub_indices(beta[1:])
    return [(g,) + t for g in range(beta[0] + 1) for t in tails]


@lru_cache(maxsize=None)
def _binomial_tables(D, M):
    """Pairs gamma <= beta as (gamma ranks, beta ranks), with the per-axis
    binomials C(beta_d, gamma_d) and exponents beta_d - gamma_d."""
    s = IndexSet(D, M)
    rank = {a: k for k, a in enumerate(s.indices)}
    g_rank, b_rank, binom, expo = [], [], [], []
    for b, beta in enumerate(s.indices):
        for gamma in _sub_indices(beta):
            g_rank.append(rank[gamma])
            b_rank.append(b)
            binom.append([math.comb(x, y) for x, y in zip(beta, gamma)])
            expo.append([x - y for x, y in zip(beta, gamma)])
    return np.array(g_rank), np.array(b_rank), np.array(binom, dtype=float), np.array(expo)


def reference_shifted_table(set_, u, m):
    """c[a, b] = integral of xi^beta against the alpha basis function
    centered at u (n, D): binomial expansion of (x+u)^beta over the
    centered tables m (n, N, N)."""
    D, N = set_.D, set_.N
    U = np.asarray(u, dtype=float).reshape(-1, D)
    g_rank, b_rank, binom, expo = _binomial_tables(D, set_.M)
    powers = U[:, :, None] ** np.arange(set_.M + 1)
    coef = binom[:, 0] * powers[:, 0, expo[:, 0]]
    for d in range(1, D):
        coef = coef * (binom[:, d] * powers[:, d, expo[:, d]])
    shift = np.zeros((U.shape[0], N, N))
    shift[:, g_rank, b_rank] = coef
    return np.reshape(m, (-1, N, N)) @ shift


def _solve_by_order(target, seed, table, D, M, first):
    """Fill the rows x order by order from `first` up to M so that
    (x @ table)[b] = target[b]; lower orders come from seed."""
    t = _packing(D, M)
    x = seed.copy()
    for lo, hi in t.span[first:]:
        acc = np.einsum("na,nab->nb", x[:, :lo], table[:, :lo, lo:hi])
        x[:, lo:hi] = (target[:, lo:hi] - acc) / t.fact[lo:hi]
    return x


def reference_to_conserved(W, D, M):
    """Raw moments F (n, N) of the packed rows W (n, N)."""
    s = IndexSet(D, M)
    rho, u, p = _unpack(W, D, M)
    c = reference_shifted_table(s, u, reference_moment_table(p / rho[:, None, None], s))
    return np.einsum("na,nab->nb", free_values(W, D, M)[:, :-1], c) / _packing(D, M).fact


def reference_from_conserved(F, D, M):
    """Packed rows W (n, N) of admissible raw-moment rows F (n, N)."""
    t = _packing(D, M)
    rho = F[:, 0]
    u = F[:, t.vel] / rho[:, None]
    p = (1.0 + np.eye(D)) * F[:, t.pair] - u[:, :, None] * u[:, None, :] * rho[:, None, None]
    s = IndexSet(D, M)
    c = reference_shifted_table(s, u, reference_moment_table(p / rho[:, None, None], s))
    seed = np.zeros_like(F)
    seed[:, 0] = rho
    return _pack(rho, u, p, _solve_by_order(t.fact * F, seed, c, D, M, first=3), D, M)


def reference_collision_coeffs(W, D, M, model):
    """Relaxation-target coefficients (n, N) of the packed rows W (n, N):
    the expansion in the state's basis whose raw moments are rho mu(Lambda)."""
    s = IndexSet(D, M)
    rho, _, p = _unpack(W, D, M)
    mu = reference_gaussian_moments(_target_covariance(rho, p, D, model), s)
    m = reference_moment_table(p / rho[:, None, None], s)
    seed = np.zeros_like(W)
    seed[:, 0] = rho * mu[:, 0]
    return _solve_by_order(rho[:, None] * mu, seed, m, D, M, first=1)
