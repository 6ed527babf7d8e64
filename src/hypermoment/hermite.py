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
the conjecture scan take their zeros from ``_positive_roots``. It seeds the
positive zeros of every order at once from closed-form asymptotics, as in
Townsend, Trogdon and Olver, IMA J. Numer. Anal. 36 (2016): Tricomi's
formula inside, Gatteschi's Airy-zero expansion for the largest few
(Gatteschi, J. Comput. Appl. Math. 144 (2002)), each formula only on the
entries it seeds; Gatteschi's takes each power of nu = 2n + 1 once per
distinct nu and each power of the Airy zero a_j once per distinct j. Then
it runs flat passes of the Newton ratio on the unit-scale recurrence: one
over every order, which gives a Newton step at orders <= 120 and, through
the polynomial's ODE, a Halley step above; then a second Newton pass at
orders <= 120 and three more at orders <= 24.
Orders <= 120 thus keep every bit of two Newton passes, and above 120 the
zeros move by round-off only (the table in ``_positive_roots``). The
recurrence is rescaled by a power of two every 32 steps, which leaves every
bit of the roots as it is: in between, the pair stays below 1.9e128 and
clear of the subnormal range up to order 10^4, the largest order the
conjecture scan takes. ``_root_table`` mirrors the positive zeros for
``he_roots`` and the per-pair reference
``cross_order_root_distances``; ``root_gap_scan`` sorts the positive half
only, whose gaps mirror exactly those of the negative half.

The anisotropic polynomials He_alpha of a scale tensor Theta and the
Gaussian moments that ``state`` converts with obey one multi-index raising
recurrence, run by one kernel, ``gaussian_raw_moments``: He_alpha(x) is the
moment of index alpha with shift ThetaInv x and covariance -ThetaInv, and
``ghe_table`` reads it so.

The identity checks of ``hermite-check`` are array passes: ``parity_deviation``
and ``differential_deviation`` build one table each on stacked points, and
``gram_deviations`` reads one quadrature rule and one table through ``_gram``,
the weighted products that ``quasi_orthogonality_check`` and
``integral_relation_check`` also take their values from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .index import IndexSet, cardinality, is_void, order, raising_tables, rank_array


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

    Each formula runs only on the entries that take it (at n_max = 200,
    Gatteschi's on 847 of 10,000); both are elementwise, so an entry's seed
    does not depend on which others are evaluated with it.
    """
    h = n // 2
    j = h + 1 - k
    top = 4 * j * j <= n
    x2 = np.empty(n.shape)
    x2[top] = _gatteschi(2.0 * n[top] + 1.0, j[top])
    inner = ~top
    x2[inner] = _tricomi(2.0 * n[inner] + 1.0, (h - k)[inner])
    return np.sqrt(2.0 * x2)


def _tricomi(nu, i):
    """Tricomi's squared zero; i = h - k counts down from the top zero."""
    rhs = np.pi * (4 * i + 3) / nu
    # the first of the seven Newton steps on T, from pi/2, with one sin and cos
    T = np.pi / 2 - (np.pi / 2 - math.sin(np.pi / 2) - rhs) / (1.0 - math.cos(np.pi / 2))
    for _ in range(6):
        T -= (T - np.sin(T) - rhs) / (1.0 - np.cos(T))
    s = np.sin(T / 2) ** 2
    return nu * (1.0 - s) - (5.0 / (4.0 * s * s) - 1.0 / s - 0.25) / (3.0 * nu)


def _gatteschi(nu, j):
    """Gatteschi's squared zero; j >= 1 counts from the top zero.

    The series is a sum of products of a power of nu = 2n + 1 and a
    polynomial in the Airy zero a_j. Each power of nu is taken once per
    distinct nu and each factor in a_j (the t-series of a_j for j > 10
    included) once per distinct j; the entries gather them back through the
    inverse indices of ``np.unique``. Each entry sees the same operations on
    the same operands in the same order as the series written per entry, so
    its value is bit for bit that one (at n_max = 200, 847 entries hold 197
    distinct nu and 7 distinct j).
    """
    nus, iv = np.unique(nu, return_inverse=True)
    js, ij = np.unique(j, return_inverse=True)
    a = _AIRY_ZEROS[np.minimum(js, _AIRY_ZEROS.size) - 1]
    far = js > _AIRY_ZEROS.size
    t = 3.0 * np.pi / 8.0 * (4 * js[far] - 1)
    a[far] = -(t ** (2 / 3)) * (
        1 + 5 / 48 * t**-2 - 5 / 36 * t**-4 + 77125 / 82944 * t**-6
        - 108056875 / 6967296 * t**-8 + 162375596875 / 334430208 * t**-10
    )
    a1 = (2 ** (2 / 3) * a)[ij]
    a2 = (2 ** (4 / 3) / 5 * a**2)[ij]
    a3 = (11 / 35 - 0.25 - 12 / 175 * a**3)[ij]
    a4 = ((16 / 1575 * a + 92 / 7875 * a**4) * 2 ** (2 / 3))[ij]
    a5 = ((15152 / 3031875 * a**5 + 1088 / 121275 * a**2) * 2 ** (1 / 3))[ij]
    return (
        nu + a1 * (nus ** (1 / 3))[iv] + a2 * (nus ** (-1 / 3))[iv]
        + a3 / nu
        + a4 * (nus ** (-5 / 3))[iv]
        - a5 * (nus ** (-7 / 3))[iv]
    )


# Recurrence steps of _newton_step between two rescalings. A rescaling
# leaves max(|P_{k-1}|, |P_k|) in [1/2, 1), and a step k < n at |x| <= 2 sqrt(n)
# (every zero of order n) grows it by at most |x| + k <= n + 2 sqrt(n) and
# shrinks it by at most 2 max(1, |x|) <= 4 sqrt(n). So 32 steps stay below
# (n + 2 sqrt(n))^32, about 1.9e128 at n = 1e4, and above (4 sqrt(n))^-32 / 2,
# about 3e-84: the pair neither overflows nor goes subnormal in between.
_RESCALE_EVERY = 32

# Orders above this take one Halley step in place of two Newton steps.
_HALLEY_ABOVE = 120


def _newton_step(x, orders):
    """P_n(x) / (n P_{n-1}(x)) at every entry, n its order (ascending).

    The derivative of the order-n polynomial is n times the order n-1 one.
    The pair comes from the unit-scale recurrence run in place on two
    buffers: step k overwrites P_{k-1} in buffer k % 2 with P_{k+1}, so an
    entry of order n ends with P_n in buffer (n - 1) % 2. Every
    ``_RESCALE_EVERY`` = 32 steps both buffers are rescaled by the power of
    two that brings the larger magnitude into [1/2, 1); in between the pair
    stays below 1.9e128 and above 3e-84 up to order 10^4. A power of two
    commutes exactly with x P_k - k P_{k-1} and with the final ratio, so as
    long as the pair neither overflows nor goes subnormal the result is bit
    for bit that of a rescaling after every step, and the rescaling adds no
    rounding of its own. An entry of order n stops after n steps; as the
    orders ascend, the entries still running at step k are the suffix from
    order k + 1, so each step updates a shrinking tail in place and the
    finished head stays frozen.
    """
    bufs = (np.zeros_like(x), np.ones_like(x))
    tmp = np.empty_like(x)
    exps = np.empty(x.shape, dtype=np.intc)
    for k, j in enumerate(np.searchsorted(orders, np.arange(orders.max(initial=0)), side="right")):
        new, old, t = bufs[k % 2][j:], bufs[1 - k % 2][j:], tmp[j:]
        np.multiply(x[j:], old, out=t)
        new *= k
        np.subtract(t, new, out=new)
        if k % _RESCALE_EVERY == _RESCALE_EVERY - 1:
            e = exps[j:]
            np.maximum(np.abs(new, out=t), np.abs(old), out=t)
            np.frexp(t, out=(t, e))
            np.negative(e, out=e)
            np.ldexp(new, e, out=new)
            np.ldexp(old, e, out=old)
    odd = orders % 2 == 1
    return np.where(odd, bufs[0], bufs[1]) / (orders * np.where(odd, bufs[1], bufs[0]))


def _positive_roots(n_max: int, n_min: int = 1):
    """The n // 2 positive zeros of every order n_min..n_max at unit scale.

    Returns (x, orders): order n fills n // 2 consecutive entries, strictly
    increasing, after the entries of lower orders; orders labels each entry.
    Seeded by ``_root_seeds`` (the asymptotic initial guesses of Townsend,
    Trogdon and Olver, IMA J. Numer. Anal. 36 (2016), from Tricomi's and
    Gatteschi's formulas, each evaluated only on the entries that use it;
    see Gatteschi, J. Comput. Appl. Math. 144 (2002)), then polished from
    one pass of ``_newton_step`` over every order, which gives the Newton
    ratio r = f / f' of f = He_n. Orders <= ``_HALLEY_ABOVE`` = 120 take the
    Newton step x - r and a second Newton pass, and orders <= 24 three more,
    whose seeds are the coarsest (up to 1.5e-3 off at n <= 10, 8e-5 at
    11..24). Above 120 the seeds are close enough (2e-6 off at n = 200) that
    one cubically convergent Halley step x - r / (1 - r f'' / (2 f')) takes
    the place of both Newton steps, and it needs only r: the polynomial's
    ODE He_n'' = x He_n' - n He_n gives f'' / f' = x - n r (Gil, Segura and
    Temme, Numerical Methods for Special Functions, SIAM 2007). Orders
    <= 120 run exactly the arithmetic of two Newton passes, so they keep
    every bit of that polish; above, the roots differ from it by round-off.
    The largest error against an extended-precision polish, in units of
    eps max(1, |x|), with two Newton passes at every order / this polish:

    ========  ===========  ===========
    orders    two Newton   this polish
    ========  ===========  ===========
    1-120     0.60         0.60
    121-200   0.64         0.65
    201-400   0.59         0.67
    500       0.47         0.48
    1000      0.51         0.49
    2000      0.50         0.51
    ========  ===========  ===========

    Below 120 a single Halley step is not enough (at a threshold of 100,
    order 102 is 1.51 off). The pass count depends on the order alone, so
    an entry's value depends only on its order and index.
    """
    ns = np.arange(n_min, n_max + 1)
    h = ns // 2
    orders = np.repeat(ns, h)
    k = np.arange(orders.size) - np.repeat(np.cumsum(h) - h, h)
    x = _root_seeds(orders, k + 1)
    r = _newton_step(x, orders)
    low = np.searchsorted(orders, _HALLEY_ABOVE, side="right")
    x[:low] -= r[:low]
    r, n = r[low:], orders[low:]
    x[low:] -= r / (1.0 - 0.5 * r * (x[low:] - n * r))
    x[:low] -= _newton_step(x[:low], orders[:low])
    small = np.searchsorted(orders, 24, side="right")
    for _ in range(3):
        x[:small] -= _newton_step(x[:small], orders[:small])
    return x, orders


def _root_table(n_max: int, n_min: int = 1):
    """Zeros of every order n_min..n_max at unit scale, in one flat array.

    Returns (roots, orders): order n fills n consecutive entries, strictly
    increasing, after the entries of lower orders; orders labels each entry.
    The positive zeros come from ``_positive_roots``, the negative ones
    mirror them exactly, and zero is the middle entry of every odd order.
    """
    x, _ = _positive_roots(n_max, n_min)
    ns = np.arange(n_min, n_max + 1)
    h = ns // 2
    end = np.cumsum(ns)
    pos = np.arange(x.size) + np.repeat(end - np.cumsum(h), h)
    roots = np.zeros(ns.sum())
    roots[pos] = x
    roots[np.repeat(2 * end - ns - 1, h) - pos] = -x  # entry i of a row mirrors entry n - 1 - i
    return roots, np.repeat(ns, ns)


def he_roots(n: int) -> np.ndarray:
    """Strictly increasing zeros of the order-n polynomial at unit scale
    (the order-n row of ``_root_table``). Scale by sqrt(theta) for other
    scales.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return _root_table(n, n)[0]


@lru_cache(maxsize=None)
def _raising_coeffs(D: int, M: int):
    """The axis and mult columns of every order of raising_tables(D, M),
    stacked: rank r >= 1 is row r - 1."""
    steps = raising_tables(D, M)
    return np.concatenate([s.axis for s in steps]), np.concatenate([s.mult for s in steps])


def gaussian_raw_moments(Lambda: np.ndarray, set_: IndexSet, u: np.ndarray = None) -> np.ndarray:
    """Gaussian moments nu_beta = E[(x + u)^beta], x ~ N(0, Lambda), all |beta| <= M.

    One raising recurrence: nu_{beta+e_d} = u_d nu_beta + sum_j Lambda[d,j]
    beta_j nu_{beta-e_j}, with every Lambda[d,j] beta_j gathered at once.
    Without u these are the centered moments mu_beta, whose odd orders are
    exactly zero and are not computed. Lambda only enters polynomially, so
    it need not be positive definite. Lambda (..., D, D) and u (..., D) may
    carry leading batch axes, the same on both or on one of them only (one
    Lambda for a stack of shifts); the result is then (..., N).
    """
    Lambda = np.asarray(Lambda, dtype=float)
    D, N = set_.D, set_.N
    batch = Lambda.shape[:-2]
    L = Lambda.reshape(-1, D, D)
    steps = raising_tables(D, set_.M)
    axis, mult = _raising_coeffs(D, set_.M)
    coef = L.take(axis, axis=1) * mult
    if u is None:
        steps = steps[1::2]
    else:
        u = np.asarray(u, dtype=float)
        batch = batch or u.shape[:-1]
        shift = u.reshape(-1, D).take(axis, axis=1)
    mu = np.zeros((math.prod(batch), N + 1))
    mu[:, 0] = 1.0
    for step in steps:
        lo, hi = step.lo - 1, step.hi - 1
        terms = coef[:, lo:hi] * mu.take(step.down, axis=1)
        acc = terms[:, :, 0]
        for j in range(1, D):
            acc = acc + terms[:, :, j]
        if u is not None:
            acc = acc + shift[:, lo:hi] * mu.take(step.base, axis=1)
        mu[:, step.lo : step.hi] = acc
    return mu[:, :N].reshape(batch + (N,))


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

    Returns {multi-index: array of values}: the moments of the Gaussian
    with shift ThetaInv @ x and covariance -ThetaInv (gaussian_raw_moments).
    """
    x = np.asarray(x, dtype=float)
    D = basis.D
    if x.shape[-1] != D:
        raise ValueError(f"points must have last axis {D}")
    s = IndexSet(D, max(max_order, 2))
    vals = gaussian_raw_moments(-basis.ThetaInv, s, x @ basis.ThetaInv)  # symmetric: no transpose
    return {a: vals[..., k] for k, a in enumerate(s.indices[: cardinality(D, max_order)])}


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
    n = cardinality(D, max_order - 1)
    up = rank_array(D, max_order, np.array(IndexSet(D, max_order).indices[:n])[:, None] + np.eye(D, dtype=int))
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


def cross_order_root_distances(n_max: int):
    """Yield (m, n, root, distance) per order pair 1 <= m < n <= n_max.

    root is the nonzero zero of the order-n polynomial closest to any
    nonzero zero of the order-m polynomial; distance is that gap. Pairs
    with m = 1, whose only zero is 0, are skipped. This is the
    per-pair reference of ``root_gap_scan``, on the full root table.
    """
    roots, orders = _root_table(n_max)
    keep = np.abs(roots) > 1e-10
    roots, orders = roots[keep], orders[keep]
    nonzero = dict(enumerate(np.split(roots, np.searchsorted(orders, np.arange(2, n_max + 1))), start=1))
    for n in range(2, n_max + 1):
        rn = nonzero[n]
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
    there is no pair), from one sorted pass over the positive zeros.

    Sorted together, the roots of all orders put the closest pair of
    different orders next to each other: a root between them would be
    closer to one of the two. The positive half suffices. Negation is exact,
    so every gap among the negative zeros is bitwise the mirror of one among
    the positive zeros, and the only pair of the full table that straddles
    zero is the smallest positive zero and its own mirror, of one order. On
    tied gaps the reference yields first the lowest n, then the lowest m,
    then the lowest root of order n: the mirror of the largest tied positive
    one, so the pass takes the smallest (n, m, -x). Every pair's gap is at
    least the closest one, so when it exceeds tol times the largest root
    magnitude (at least 1) there is no hit. Otherwise a hit is possible, or
    two roots coincide and adjacency no longer orders the ties; then the
    hits and the closest entry both come from the per-pair reference.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    if n_max > 10_000:
        # the range of _newton_step's rescaling bound; far above it the
        # table alone (n_max^2 / 4 roots) would not fit in memory
        raise ValueError(f"n_max must be <= 10000, got {n_max}")
    roots, orders = _positive_roots(n_max)
    # any sort will do: the roots of one order are distinct, and equal roots
    # of two orders give d = 0 and the per-pair reference below, so the fast
    # path sorts distinct values, which have one order
    by_value = np.argsort(roots)
    x, lab = roots[by_value], orders[by_value]
    gaps = np.where(lab[1:] != lab[:-1], np.diff(x), np.inf)
    d = gaps.min(initial=np.inf)
    if d == np.inf:  # n_max == 2: order 2 has a single positive zero
        return [], None
    if d > tol * max(1.0, float(x[-1])):
        # a tie between the neighbours below and above a root leaves the
        # entry unchanged
        k = np.flatnonzero(gaps == d)
        hi = k + (lab[k + 1] > lab[k])  # the entry of the higher order
        lo = 2 * k + 1 - hi
        n, m, r = min(zip(lab[hi].tolist(), lab[lo].tolist(), (-x[hi]).tolist()))
        return [], (m, n, r, float(d))
    out = []
    best = None
    for m, n, r, d in cross_order_root_distances(n_max):
        if d <= tol * max(1.0, abs(r)):
            out.append((m, n, r, d))
        if best is None or d < best[3]:
            best = (m, n, r, d)
    return out, best
