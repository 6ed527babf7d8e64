"""One code path per concept, checked against plain in-test copies of the
separate constructions it replaced.

- ``ghe_table`` reads the basis polynomials from the Gaussian moment kernel,
  with shift ThetaInv x and covariance -ThetaInv. At D = 1 each step is the
  same two products added in the other order, so the values agree bit for
  bit; at D >= 2 the terms of one step are summed in the kernel's order and
  the values agree to round-off.
- ``gaussian_raw_moments`` broadcasts one Lambda over a stack of shifts as
  if Lambda were tiled.
- ``to_conserved_batch`` is the conserved half of the lifted convolution of
  ``_moments_and_flux``: ranks are graded, so it is bitwise the order-M
  convolution.
- ``directional`` and ``hyperbolicity_verdict`` read the regularized
  ``assemble_batch`` pass, bitwise ``assemble`` plus ``regularize``.
- Every compiled rank table reads ``rank_array``: the same ranks, dtype and
  shape as a comprehension over ``IndexSet.rank0`` or the rank dict.
- ``MomentState.f_value`` reads ``free_values``, bit for bit the branch
  over void indices, order 0, orders 1 and 2 and orders above M.
- ``rotation_spectrum_check`` and the spectrum command read
  ``spectrum_regularized(state, n)``, bitwise the unit spectrum scaled by
  sqrt(n^T Theta n) and repeated by multiplicity.
- ``cross_order_root_distances`` runs its per-pair body through
  ``_closest_root``, which ``root_gap_scan`` shares; it still yields, bit for
  bit, what its own inline loop did, so it stays an independent oracle of
  the scan.
"""

import itertools

import numpy as np
import pytest

from helpers import random_state

from hypermoment.assembly import _row_tables, assemble, directional, regularize
from hypermoment.hermite import (
    AnisotropicBasis,
    _root_table,
    cross_order_root_distances,
    differential_deviation,
    ghe_table,
    weight,
)
from hypermoment.index import (
    IndexSet,
    _rank_table,
    add,
    cardinality,
    is_void,
    order,
    raising_tables,
    sub,
    unit,
)
from hypermoment.spectral import (
    HyperbolicityVerdict,
    hyperbolicity_verdict,
    spectrum_regularized,
    unit_spectrum,
)
from hypermoment.state import (
    _convolve,
    _gaussian_table,
    _heat_flux_ranks,
    _lift_ranks,
    _packing,
    _unpack,
    equilibrium,
    free_values,
    gaussian_raw_moments,
    to_conserved_batch,
)


def _reference_ghe_table(basis, x, max_order):
    """The basis polynomials by their own raising loop: He_{beta+e_d} =
    X_d He_beta - sum_j ThetaInv[d, j] beta_j He_{beta-e_j}, X = ThetaInv x."""
    x = np.asarray(x, dtype=float)
    D = basis.D
    X = np.moveaxis(x @ basis.ThetaInv, -1, 0)
    Tinv = basis.ThetaInv
    n = cardinality(D, max_order)
    s = IndexSet(D, max(max_order, 2))
    cols = (-1,) + (1,) * (x.ndim - 1)
    vals = np.zeros((s.N + 1,) + x.shape[:-1])
    vals[0] = 1.0
    for step in raising_tables(D, s.M):
        if step.lo >= n:
            break
        val = X[step.axis] * vals[step.base]
        for j in range(D):
            val = val - (Tinv[step.axis, j] * step.mult[:, j]).reshape(cols) * vals[step.down[:, j]]
        vals[step.lo : step.hi] = val
    return {a: vals[k, ...] for k, a in enumerate(s.indices[:n])}


def _reference_to_conserved(W, D, M):
    """The order-M convolution on its own, without the lift."""
    rho, u, p = _unpack(W, D, M)
    g = _gaussian_table(p / rho[:, None, None], u, D, M)
    return _convolve(free_values(W, D, M), g, D, M, 0, g.shape[1])


def _reference_directional(state, n, regularized):
    """sum_d n_d A^(d), each A^(d) assembled and then regularized."""
    N = state.index_set.N
    A = np.zeros((N, N))
    for d in range(1, state.D + 1):
        if n[d - 1] != 0.0:
            mat = assemble(state, d)
            if regularized:
                mat = regularize(mat, state)
            A += n[d - 1] * mat.entries
    return A


def _reference_verdict(state, d, regularized):
    mat = assemble(state, d)
    if regularized:
        mat = regularize(mat, state)
    lam, V = np.linalg.eig(mat.entries)
    rel_imag = np.abs(lam.imag) / (1.0 + np.abs(lam))
    worst = complex(lam[np.argmax(rel_imag)]) if rel_imag.max() > 1e-6 else None
    cond = float(np.linalg.cond(V))
    return HyperbolicityVerdict(
        real_spectrum=worst is None,
        diagonalizable=bool(np.isfinite(cond) and cond < 1e12),
        worst_complex_pair=worst,
        max_imag=float(np.abs(lam.imag).max()),
        condition=cond,
    )


def _reference_cross_order_root_distances(n_max):
    """The per-pair loop with its body inline."""
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
            pos = np.searchsorted(rm, rn)
            cand = np.stack([pos - 1, pos], axis=1)
            valid = (cand >= 0) & (cand < rm.size)
            gaps = np.where(valid, np.abs(rn[:, None] - rm[np.clip(cand, 0, rm.size - 1)]), np.inf)
            best = int(np.argmin(gaps))
            yield m, n, float(rn[best // 2]), float(gaps.flat[best])


def _random_theta(rng, D):
    A = rng.normal(size=(D, D))
    return A @ A.T / D + 0.5 * np.eye(D)


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("max_order", [1, 2, 5, 8])
@pytest.mark.parametrize("shape", [(16,), (2, 16)], ids=["K", "2K"])
def test_ghe_table_is_the_moment_kernel(D, max_order, shape):
    rng = np.random.default_rng(100 * D + max_order)
    basis = AnisotropicBasis(_random_theta(rng, D))
    x = 1.5 * rng.standard_normal(shape + (D,))
    got, want = ghe_table(basis, x, max_order), _reference_ghe_table(basis, x, max_order)
    assert list(got) == list(want)
    for alpha, v in want.items():
        assert got[alpha].shape == shape
        if D == 1:
            np.testing.assert_array_equal(got[alpha], v)
        else:
            assert np.all(np.abs(got[alpha] - v) <= 1e-13 * np.maximum(1.0, np.abs(v))), alpha


@pytest.mark.parametrize("D,M", [(1, 6), (2, 5), (3, 4)])
@pytest.mark.parametrize("shape", [(7,), (2, 3)], ids=["k", "2x3"])
def test_one_lambda_broadcasts_like_a_tiled_one(D, M, shape):
    rng = np.random.default_rng(D * 10 + M)
    s = IndexSet(D, M)
    Lam = -np.linalg.inv(_random_theta(rng, D))  # not positive definite, as in ghe_table
    U = rng.normal(size=shape + (D,))
    got = gaussian_raw_moments(Lam, s, U)
    assert got.shape == shape + (s.N,)
    np.testing.assert_array_equal(got, gaussian_raw_moments(np.broadcast_to(Lam, shape + (D, D)), s, U))


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_to_conserved_is_the_lifted_convolution(D, M):
    rng = np.random.default_rng(D * 10 + M)
    W = np.stack([random_state(rng, D, M).w for _ in range(5)])
    np.testing.assert_array_equal(to_conserved_batch(W, D, M), _reference_to_conserved(W, D, M))


@pytest.mark.parametrize("D,M", [(1, 3), (1, 5), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_directional_and_verdict_are_the_regularized_pass(D, M):
    rng = np.random.default_rng(D * 10 + M)
    for _ in range(3):
        st = random_state(rng, D, M)
        n = rng.normal(size=D)
        n /= np.linalg.norm(n)
        for dirn in (n, np.eye(D)[-1]):
            for regularized in (True, False):
                np.testing.assert_array_equal(
                    directional(st, dirn, regularized).entries, _reference_directional(st, dirn, regularized)
                )
        for d in range(1, D + 1):
            for regularized in (True, False):
                assert hyperbolicity_verdict(st, d, regularized) == _reference_verdict(st, d, regularized)


def _reference_raising_low(D, M):
    """Rank of alpha - e_j per index and axis, N where alpha_j = 0."""
    idx, rank = IndexSet(D, M).indices, _rank_table(D, M)
    return np.array([[rank[sub(a, unit(D, j + 1))] if a[j] else len(idx) for j in range(D)] for a in idx])


def _reference_row_ranks(D, M, alphas):
    """The rank closure of the row tables: N for a void or out-of-set index."""
    rank = _rank_table(D, M)
    flat = alphas.reshape(-1, D).tolist()
    return np.array([rank.get(tuple(a), len(rank)) for a in flat], dtype=int).reshape(alphas.shape[:-1])


def _reference_differential_deviation(basis, x, max_order):
    """The differential identity check with its own rank0 comprehension for alpha + e_i."""
    h = 1e-5
    D = basis.D
    pts = x + np.concatenate([np.zeros((1, D)), h * np.eye(D), -h * np.eye(D)])[:, None]
    w = weight(basis, pts)
    T = np.stack(list(ghe_table(basis, pts, max_order).values()))
    s, n = IndexSet(D, max_order), cardinality(D, max_order - 1)
    up = np.array([[s.rank0(a[:i] + (a[i] + 1,) + a[i + 1 :]) for i in range(D)] for a in s.indices[:n]])
    fd = (w[1 : D + 1] * T[:n, 1 : D + 1] - w[D + 1 :] * T[:n, D + 1 :]) / (2 * h)
    target = -w[0] * T[up, 0]
    scale = np.maximum(1.0, np.max(np.abs(target), axis=-1))
    return float(np.max(np.max(np.abs(fd - target), axis=-1) / scale))


def _reference_f_value(state, alpha):
    """The constraint resolution written out as a branch."""
    alpha = tuple(alpha)
    if is_void(alpha):
        return 0.0
    k = order(alpha)
    if k == 0:
        return state.rho
    if k in (1, 2):
        return 0.0
    if k > state.M:
        return 0.0
    return state.f.get(alpha, 0.0)


def _equal(got, want):
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
@pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
def test_rank_tables_read_rank_array(D, M):
    s = IndexSet(D, M)
    e = [unit(D, i + 1) for i in range(D)]
    low = _reference_raising_low(D, M)
    for step in raising_tables(D, M):
        base = low[np.arange(step.lo, step.hi), step.axis]
        _equal(step.base, base)
        _equal(step.down, low[base])
    t = _packing(D, M)
    _equal(t.vel, np.array([s.rank0(a) for a in e]))
    _equal(t.pair, np.array([[s.rank0(add(e[i], e[j])) for j in range(D)] for i in range(D)]))
    lifted = IndexSet(D, M + 1)
    up, mult = _lift_ranks(D, M)
    _equal(up, np.array([lifted.rank0(add(a, e[0])) for a in s.indices]))
    _equal(mult, np.array([a[0] + 1 for a in s.indices], dtype=float))
    E = np.eye(D, dtype=int)
    free = np.array(t.free_alphas, dtype=int).reshape(-1, D)
    pairs = free[:, None, None] - E[:, None] - E[None, :]
    for d in range(1, D + 1):
        g = _row_tables(D, M, d)
        _equal(g.down2, _reference_row_ranks(D, M, pairs))
        _equal(g.down3, _reference_row_ranks(D, M, pairs[:, :, :, None] - E))
        _equal(g.raised2, _reference_row_ranks(D, M, pairs + E[d - 1]))


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_heat_flux_ranks_read_rank_array(D):
    s = IndexSet(D, 3)
    e = [unit(D, i + 1) for i in range(D)]
    three, mixed = _heat_flux_ranks(D)
    _equal(three, np.array([s.rank0(tuple(3 * x for x in e[i])) for i in range(D)]))
    _equal(mixed, np.array([[s.rank0(add(e[i], add(e[d], e[d]))) for d in range(D)] for i in range(D)]))


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("max_order", [2, 4, 6])
def test_differential_deviation_reads_rank_array(D, max_order):
    rng = np.random.default_rng(10 * D + max_order)
    basis = AnisotropicBasis(_random_theta(rng, D))
    x = 1.5 * rng.standard_normal((8, D))
    assert differential_deviation(basis, x, max_order) == _reference_differential_deviation(basis, x, max_order)


@pytest.mark.parametrize("D,M", [(1, 3), (1, 6), (2, 4), (3, 3)])
def test_f_value_reads_free_values(D, M):
    rng = np.random.default_rng(D * 10 + M)
    for st in (random_state(rng, D, M), equilibrium(D, M, 1.3, np.zeros(D), np.eye(D))):
        for alpha in itertools.product(range(-1, M + 3), repeat=D):
            got, want = st.f_value(alpha), _reference_f_value(st, alpha)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), alpha


@pytest.mark.parametrize("D,M", [(1, 3), (1, 6), (2, 4), (3, 3)])
def test_directional_spectrum_is_the_scaled_unit_spectrum(D, M):
    rng = np.random.default_rng(D * 10 + M)
    table = unit_spectrum(D, M)
    for _ in range(5):
        st = random_state(rng, D, M)
        n = rng.normal(size=D)
        n /= np.linalg.norm(n)
        sq = float(np.sqrt(n @ st.theta_tensor @ n))
        sp = spectrum_regularized(st, n)
        _equal(sp.Lambda, sq * np.repeat([L.value for L in table], [L.multiplicity for L in table]))
        assert [L.value for L in sp.lines] == [L.value * sq for L in table]
        first, e1 = spectrum_regularized(st), spectrum_regularized(st, np.eye(D)[0])
        _equal(first.Lambda, e1.Lambda)
        assert first.lines == e1.lines


@pytest.mark.parametrize("n_maxes", [range(2, 61), [217]], ids=["2-60", "217"])
def test_cross_order_root_distances_is_the_inline_loop(n_maxes):
    for n_max in n_maxes:
        got = list(cross_order_root_distances(n_max))
        want = list(_reference_cross_order_root_distances(n_max))
        assert all(type(r) is float and type(d) is float for _, _, r, d in got)
        assert [(m, n, r.hex(), d.hex()) for m, n, r, d in got] == [
            (m, n, r.hex(), d.hex()) for m, n, r, d in want
        ], n_max
