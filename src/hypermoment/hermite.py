"""Scaled Hermite polynomials, their anisotropic generalization, and root
machinery.

Two univariate scalings appear:

* ``he_eval`` evaluates the scaled family with recurrence
  He_{n+1} = (x He_n - n He_{n-1}) / theta, He_0 = 1, He_1 = x/theta.
* ``he_monic_eval`` evaluates the monic family with recurrence
  P_{n+1} = x P_n - n theta P_{n-1}, P_0 = 1, P_1 = x.

They differ by the factor theta^n and share every zero. The monic family is
what the closed-form eigenvector and characteristic-polynomial expressions
are written in; the scaled family is the expansion basis normalization.
``he_eval``, ``he_monic_eval`` and the monic coefficients read by
``spectral`` run one recurrence kernel, ``_recurrence``. ``he_roots`` and
the conjecture scan (``cross_order_root_distances`` and ``root_gap_scan``)
take their zeros from one root table, ``_root_table``. It seeds the positive
zeros of every order at once from closed-form asymptotics, as in Townsend,
Trogdon and Olver, IMA J. Numer. Anal. 36 (2016): Tricomi's formula inside,
Gatteschi's Airy-zero expansion for the largest few (Gatteschi, J. Comput.
Appl. Math. 144 (2002)). Then it runs flat Newton passes on the unit-scale
recurrence, two at every order and three more at orders <= 24, and mirrors
the result.

The identity checks of ``hermite-check`` are array passes: ``parity_deviation``
and ``differential_deviation`` build one table each on stacked points, and
``gram_deviations`` reads one quadrature rule and one table through ``_gram``,
the weighted products that ``quasi_orthogonality_check`` and
``integral_relation_check`` also take their values from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .index import IndexSet, cardinality, is_void, order, raising_tables


def _recurrence(n: int, x, c: float, s: float):
    """(P_{n-1}, P_n) of the three-term recurrence
    P_{k+1} = (x P_k - k c P_{k-1}) / s, P_{-1} = 0, P_0 = 1.

    x is an array or a numpy Polynomial (the coefficients then come out).
    """
    one = x**0
    prev, cur = 0.0 * one, one
    for k in range(n):
        prev, cur = cur, (x * cur - k * c * prev) / s
    return prev, cur


def he_eval(n: int, theta: float, x):
    """Scaled Hermite polynomial of order n at x (scalar or array)."""
    if theta <= 0:
        raise ValueError(f"scale must be positive, got {theta}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    cur = _recurrence(n, np.asarray(x, dtype=float), 1.0, theta)[1]
    return cur if cur.ndim else float(cur)


def he_monic_eval(n: int, theta: float, x):
    """Monic variant: same zeros as he_eval, leading coefficient 1."""
    if theta <= 0:
        raise ValueError(f"scale must be positive, got {theta}")
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    cur = _recurrence(n, np.asarray(x, dtype=float), theta, 1.0)[1]
    return cur if cur.ndim else float(cur)


# the first ten zeros of the Airy function Ai; later ones from their expansion
_AIRY_ZEROS = np.array([
    -2.338107410459762, -4.087949444130970, -5.520559828095555, -6.786708090071765,
    -7.944133587120863, -9.022650853340979, -10.040174341558084, -11.008524303733260,
    -11.936015563236262, -12.828776752865757,
])


def _root_seeds(n, k):
    """Asymptotic guesses for the k-th positive zero (k = 1 the smallest) of
    order n at unit scale; n and k are integer arrays of one shape.

    Both formulas give the squared zero in the physicists' scaling x / sqrt(2)
    through the Laguerre form of the order-n polynomial: nu = 2n + 1, and
    the Laguerre parameter alpha = -1/2 or 1/2 enters only as alpha^2 = 1/4.
    With h = n // 2 positive zeros and j = h + 1 - k counting from the top:

    * Tricomi: x^2 = nu c - (5 / (4 s^2) - 1/s - 1/4) / (3 nu), where
      c = cos^2(T/2), s = 1 - c and T - sin T = pi (4(h - k) + 3) / nu
      (seven Newton steps on T from pi/2);
    * Gatteschi, for the j with 4 j^2 <= n (about where the two cross): a
      series in nu and the j-th Airy zero a_j, tabulated for j <= 10 and
      from its asymptotic expansion beyond.
    """
    h = n // 2
    nu = 2.0 * n + 1.0
    rhs = np.pi * (4 * (h - k) + 3) / nu
    T = np.full(rhs.shape, np.pi / 2)
    for _ in range(7):
        T -= (T - np.sin(T) - rhs) / (1.0 - np.cos(T))
    s = np.sin(T / 2) ** 2
    tricomi = nu * (1.0 - s) - (5.0 / (4.0 * s * s) - 1.0 / s - 0.25) / (3.0 * nu)
    j = h + 1 - k
    t = 3.0 * np.pi / 8.0 * (4 * j - 1)
    a = -(t ** (2 / 3)) * (
        1 + 5 / 48 * t**-2 - 5 / 36 * t**-4 + 77125 / 82944 * t**-6
        - 108056875 / 6967296 * t**-8 + 162375596875 / 334430208 * t**-10
    )
    a = np.where(j <= _AIRY_ZEROS.size, _AIRY_ZEROS[np.minimum(j, _AIRY_ZEROS.size) - 1], a)
    gatteschi = (
        nu + 2 ** (2 / 3) * a * nu ** (1 / 3) + 2 ** (4 / 3) / 5 * a**2 * nu ** (-1 / 3)
        + (11 / 35 - 0.25 - 12 / 175 * a**3) / nu
        + (16 / 1575 * a + 92 / 7875 * a**4) * 2 ** (2 / 3) * nu ** (-5 / 3)
        - (15152 / 3031875 * a**5 + 1088 / 121275 * a**2) * 2 ** (1 / 3) * nu ** (-7 / 3)
    )
    return np.sqrt(2.0 * np.where(4 * j * j <= n, gatteschi, tricomi))


def _newton_step(x, orders):
    """P_n(x) / (n P_{n-1}(x)) at every entry, n its order (ascending).

    The derivative of the order-n polynomial is n times the order n-1 one.
    The pair comes from the unit-scale recurrence, rescaled after every step
    by the power of two that brings its larger magnitude into [1/2, 1): this
    keeps orders of a few hundred inside double range, leaves the ratio
    unchanged and adds no rounding of its own. An entry of order n stops
    after n steps; as the orders ascend, the entries still running at step
    k are the suffix from order k + 1, so each step updates a shrinking tail
    in place and the finished head stays frozen.
    """
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k, j in enumerate(np.searchsorted(orders, np.arange(orders.max(initial=0)), side="right")):
        p, q = cur[j:], x[j:] * cur[j:] - k * prev[j:]
        e = -np.frexp(np.maximum(np.abs(q), np.abs(p)))[1]
        prev[j:], cur[j:] = np.ldexp(p, e), np.ldexp(q, e)
    return cur / (orders * prev)


def _root_table(n_max: int, n_min: int = 1):
    """Zeros of every order n_min..n_max at unit scale, in one flat array.

    Returns (roots, orders): order n fills n consecutive entries, strictly
    increasing, after the entries of lower orders; orders labels each entry.
    Only the n // 2 positive zeros of each order are computed: seeded by
    ``_root_seeds`` (the asymptotic initial guesses of Townsend, Trogdon and
    Olver, IMA J. Numer. Anal. 36 (2016), from Tricomi's and Gatteschi's
    formulas; see Gatteschi, J. Comput. Appl. Math. 144 (2002)), then
    polished by two Newton steps (``_newton_step``) at every order and three
    more at orders <= 24, whose seeds are the coarsest (up to 1.5e-3 off at
    n <= 10, 8e-5 at 11..24, 2e-6 at n = 200). The pass count depends on the order
    alone, so an entry's value depends only on its order and index. The
    negative zeros mirror the positive ones exactly, and zero is the middle
    entry of every odd order.
    """
    ns = np.arange(n_min, n_max + 1)
    h = ns // 2
    start = np.cumsum(ns) - ns
    pos_orders = np.repeat(ns, h)
    k = np.arange(pos_orders.size) - np.repeat(np.cumsum(h) - h, h)
    x = _root_seeds(pos_orders, k + 1)
    for _ in range(2):
        x -= _newton_step(x, pos_orders)
    small = np.searchsorted(pos_orders, 24, side="right")
    for _ in range(3):
        x[:small] -= _newton_step(x[:small], pos_orders[:small])
    roots = np.zeros(ns.sum())
    roots[np.repeat(start + ns - h, h) + k] = x
    roots[np.repeat(start + h - 1, h) - k] = -x
    return roots, np.repeat(ns, ns)


def he_roots(n: int) -> np.ndarray:
    """Strictly increasing zeros of the order-n polynomial at unit scale
    (the order-n row of ``_root_table``). Scale by sqrt(theta) for other
    scales.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _root_table(n, n)[0]


@dataclass(frozen=True)
class AnisotropicBasis:
    """Gaussian weight data for a symmetric positive definite scale tensor."""

    Theta: np.ndarray

    def __post_init__(self):
        T = np.atleast_2d(np.asarray(self.Theta, dtype=float))
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("scale tensor must be square")
        if not np.allclose(T, T.T, rtol=1e-12, atol=1e-12):
            raise ValueError("scale tensor must be symmetric")
        try:
            np.linalg.cholesky(T)
        except np.linalg.LinAlgError:
            raise ValueError("scale tensor must be positive definite") from None
        object.__setattr__(self, "Theta", T)

    @property
    def D(self) -> int:
        return self.Theta.shape[0]

    @cached_property
    def ThetaInv(self) -> np.ndarray:
        return np.linalg.inv(self.Theta)

    @cached_property
    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.Theta)

    @cached_property
    def norm_const(self) -> float:
        """1 / sqrt(det(2 pi Theta))."""
        sign, logdet = np.linalg.slogdet(2.0 * np.pi * self.Theta)
        return float(np.exp(-0.5 * logdet))


def weight(basis: AnisotropicBasis, x) -> np.ndarray:
    """Normalized Gaussian weight at points x of shape (..., D)."""
    x = np.asarray(x, dtype=float)
    q = np.einsum("...i,ij,...j->...", x, basis.ThetaInv, x)
    return basis.norm_const * np.exp(-0.5 * q)


def ghe_table(basis: AnisotropicBasis, x, max_order: int) -> dict:
    """Values of every polynomial of order <= max_order at points x.

    Returns {multi-index: array of values}. Built order by order by the
    raising recurrence on the first nonzero axis (index.raising_tables),
    from X = ThetaInv @ x and the lower-order values.
    """
    x = np.asarray(x, dtype=float)
    D = basis.D
    if x.shape[-1] != D:
        raise ValueError(f"points must have last axis {D}")
    X = np.moveaxis(x @ basis.ThetaInv, -1, 0)  # symmetric, so no transpose needed
    Tinv = basis.ThetaInv
    n = cardinality(D, max_order)
    s = IndexSet(D, max(max_order, 2))
    cols = (-1,) + (1,) * (x.ndim - 1)  # per-column factors against the points
    vals = np.zeros((s.N + 1,) + x.shape[:-1])  # rank N reads 0
    vals[0] = 1.0
    for step in raising_tables(D, s.M):
        if step.lo >= n:
            break
        val = X[step.axis] * vals[step.base]
        for j in range(D):
            val = val - (Tinv[step.axis, j] * step.mult[:, j]).reshape(cols) * vals[step.down[:, j]]
        vals[step.lo : step.hi] = val
    return {a: vals[k, ...] for k, a in enumerate(s.indices[:n])}


def ghe_eval(alpha: Sequence[int], basis: AnisotropicBasis, x):
    """Anisotropic Hermite polynomial for multi-index alpha at points x."""
    alpha = tuple(int(a) for a in alpha)
    if is_void(alpha):
        return np.zeros(np.asarray(x, dtype=float).shape[:-1])
    table = ghe_table(basis, x, order(alpha))
    return table[alpha]


def ghf_eval(alpha: Sequence[int], basis: AnisotropicBasis, x):
    """Weighted basis function: weight times ghe_eval."""
    return weight(basis, x) * ghe_eval(alpha, basis, x)


def gaussian_quadrature(basis: AnisotropicBasis, npts: int):
    """Tensorized Gauss-Hermite rule for the basis weight, npts nodes per
    axis (exact to degree 2 npts - 1): points (K, D) and weights (K,)."""
    t, w = hermgauss(npts)
    nodes = np.indices((npts,) * basis.D).reshape(basis.D, -1).T  # last axis fastest
    return (t * math.sqrt(2.0))[nodes] @ basis.chol.T, np.prod((w / math.sqrt(math.pi))[nodes], axis=1)


def _gram(basis: AnisotropicBasis, top: int, npts: int, shift):
    """The multi-indices of order <= top in rank order, and the quadrature
    values of their basis polynomials against each other (G) and against
    the monomials (x + shift)^beta (I). The rule has npts points per axis,
    raised to the top + 1 that make every entry exact.
    """
    pts, ws = gaussian_quadrature(basis, max(npts, top + 1))
    table = ghe_table(basis, pts, top)
    idx = list(table)
    V = np.stack(list(table.values()))
    Vw = V * ws
    return idx, Vw @ V.T, Vw @ np.prod((pts + shift) ** np.array(idx)[:, None, :], axis=-1).T


def quasi_orthogonality_check(alpha, beta, basis: AnisotropicBasis, npts=None) -> float:
    """Quadrature value of the weighted product of two basis polynomials.

    Vanishes whenever the two orders differ; equals n! on the diagonal in 1D
    at unit scale.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    top = max(order(alpha), order(beta))
    idx, G, _ = _gram(basis, top, top + 4 if npts is None else npts, 0.0)
    return float(G[idx.index(alpha), idx.index(beta)])


def integral_relation_check(alpha, beta, basis: AnisotropicBasis, shift=None, npts=None) -> float:
    """Quadrature value of the shifted weighted polynomial against a monomial.

    Integrates the order-|alpha| weighted basis function centered at the
    shift against x^beta; the shift drops out and the value is
    alpha! when beta == alpha, zero for any other beta of order <= |alpha|.
    """
    alpha = tuple(int(a) for a in alpha)
    beta = tuple(int(b) for b in beta)
    deg = order(alpha) + order(beta)
    shift = 0.0 if shift is None else np.asarray(shift, dtype=float)
    idx, _, I = _gram(basis, max(order(alpha), order(beta)), deg + 4 if npts is None else npts, shift)
    return float(I[idx.index(alpha), idx.index(beta)])


def parity_deviation(basis: AnisotropicBasis, x, max_order: int) -> float:
    """Largest |He_alpha(-x) - (-1)^|alpha| He_alpha(x)| over points x of shape
    (K, D) and orders <= max_order, relative to max(1, max |He_alpha(x)|) per
    alpha. One table on the stacked points [x; -x]; NaN when it overflows.
    """
    x = np.asarray(x, dtype=float)
    table = ghe_table(basis, np.concatenate([x, -x]), max_order)
    T = np.stack(list(table.values()))
    plus, minus = T[:, : len(x)], T[:, len(x) :] * (-1.0) ** np.sum(list(table), axis=1)[:, None]
    scale = np.maximum(1.0, np.max(np.abs(plus), axis=1))
    return float(np.max(np.max(np.abs(minus - plus), axis=1) / scale))


def differential_deviation(basis: AnisotropicBasis, x, max_order: int) -> float:
    """Largest deviation of the central difference (step 1e-5) along axis i
    of the weighted function of alpha, |alpha| < max_order, from its
    derivative: minus the weighted function of alpha + e_i. Relative to
    max(1, max |target|) per (i, alpha), over points x of shape (K, D). One
    table and one weight call on the stacked points x, x + h e_i, x - h e_i.
    """
    h = 1e-5
    D = basis.D
    pts = x + np.concatenate([np.zeros((1, D)), h * np.eye(D), -h * np.eye(D)])[:, None]
    w = weight(basis, pts)
    T = np.stack(list(ghe_table(basis, pts, max_order).values()))  # (rank, 1 + 2D, K)
    s, n = IndexSet(D, max_order), cardinality(D, max_order - 1)
    up = np.array([[s.rank0(a[:i] + (a[i] + 1,) + a[i + 1 :]) for i in range(D)] for a in s.indices[:n]])
    fd = (w[1 : D + 1] * T[:n, 1 : D + 1] - w[D + 1 :] * T[:n, D + 1 :]) / (2 * h)
    target = -w[0] * T[up, 0]
    scale = np.maximum(1.0, np.max(np.abs(target), axis=-1))
    return float(np.max(np.max(np.abs(fd - target), axis=-1) / scale))


def gram_deviations(basis: AnisotropicBasis, max_order: int, shift) -> tuple:
    """(orthogonality, integral relation) deviations of the polynomials of
    order <= max_order, from one rule exact to degree 2 max_order and one
    table V of them on it.

    Orthogonality: the largest |G_ab| / sqrt(G_aa G_bb) over |a| != |b|, for
    the Gram matrix G = V diag(w) V^T. Integral relation: the largest
    |I_ab - a! delta_ab| / a! over |b| <= |a|, for I = V diag(w) U^T against
    the table U of monomials (x + shift)^b. NaN when the table overflows.
    """
    idx, G, I = _gram(basis, max_order, max_order + 4, shift)
    orders = np.sum(idx, axis=1)
    # alpha! in floating point: inf past 170!, where the integer one would not convert
    fact = np.cumprod(np.r_[1.0, np.arange(1.0, max_order + 1)])[np.array(idx)].prod(axis=1)
    ortho = np.abs(G) / np.sqrt(np.outer(np.diag(G), np.diag(G)))
    integral = np.abs(I - np.diag(fact)) / fact[:, None]
    return (
        float(np.max(ortho, where=orders[:, None] != orders, initial=0.0)),
        float(np.max(integral, where=orders[None, :] <= orders[:, None], initial=0.0)),
    )


def _nonzero_roots(n_max: int):
    """The entries of ``_root_table(n_max)`` away from zero."""
    roots, orders = _root_table(n_max)
    keep = np.abs(roots) > 1e-10
    return roots[keep], orders[keep]


def cross_order_root_distances(n_max: int):
    """Yield (m, n, root, distance) per order pair 1 <= m < n <= n_max.

    root is the nonzero zero of the order-n polynomial closest to any
    nonzero zero of the order-m polynomial; distance is that gap. Pairs
    where one order has no nonzero zeros (order 1) are skipped. This is the
    per-pair reference of ``root_gap_scan``.
    """
    roots, orders = _nonzero_roots(n_max)
    nonzero = dict(enumerate(np.split(roots, np.searchsorted(orders, np.arange(2, n_max + 1))), start=1))
    for n in range(2, n_max + 1):
        rn = nonzero[n]
        if rn.size == 0:
            continue
        for m in range(1, n):
            rm = nonzero[m]
            if rm.size == 0:
                continue
            # the two neighbours in rm of each root of rn, below then above;
            # argmin keeps the first of equal gaps in that order
            pos = np.searchsorted(rm, rn)
            cand = np.stack([pos - 1, pos], axis=1)
            valid = (cand >= 0) & (cand < rm.size)
            gaps = np.where(valid, np.abs(rn[:, None] - rm[np.clip(cand, 0, rm.size - 1)]), np.inf)
            best = int(np.argmin(gaps))
            yield m, n, float(rn[best // 2]), float(gaps.flat[best])


def common_zero_scan(n_max: int, tol: float = 1e-9):
    """Pairs of orders sharing a nonzero zero within relative tolerance.

    Expected empty; any hit is returned as (m, n, root, distance).
    """
    return root_gap_scan(n_max, tol)[0]


def root_gap_scan(n_max: int, tol: float = 1e-9):
    """The hits of common_zero_scan and the closest (m, n, root, distance)
    entry of cross_order_root_distances (the first one on ties, None when
    there is no pair), from one sorted pass over the root table.

    Sorted together, the nonzero roots of all orders put the closest pair
    of different orders next to each other: a root between them would be
    closer to one of the two. Every pair's gap is at least that one, so when
    it exceeds tol times the largest root magnitude (at least 1) there is no
    hit. Otherwise a hit is possible, or two roots coincide and adjacency
    no longer orders the ties; then the hits and the closest entry both
    come from the per-pair reference.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    roots, orders = _nonzero_roots(n_max)
    by_value = np.argsort(roots, kind="stable")
    x, lab = roots[by_value], orders[by_value]
    gaps = np.where(lab[1:] != lab[:-1], np.abs(np.diff(x)), np.inf)
    d = gaps.min()
    if d == np.inf:  # n_max == 2: order 1 has no nonzero zero
        return [], None
    if d > tol * max(1.0, float(np.abs(roots).max())):
        # the reference yields the pairs by n, then m, then the root of order
        # n; a tie between the neighbours below and above it leaves the entry
        # unchanged
        k = np.flatnonzero(gaps == d)
        hi = k + (lab[k + 1] > lab[k])  # the entry of the higher order
        lo = 2 * k + 1 - hi
        n, m, r = min(zip(lab[hi].tolist(), lab[lo].tolist(), x[hi].tolist()))
        return [], (m, n, r, float(d))
    out = []
    best = None
    for m, n, r, d in cross_order_root_distances(n_max):
        if d <= tol * max(1.0, abs(r)):
            out.append((m, n, r, d))
        if best is None or d < best[3]:
            best = (m, n, r, d)
    return out, best
