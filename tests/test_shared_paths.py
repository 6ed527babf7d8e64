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
"""

import numpy as np
import pytest

from helpers import random_state

from hypermoment.assembly import assemble, directional, regularize
from hypermoment.hermite import AnisotropicBasis, ghe_table
from hypermoment.index import IndexSet, cardinality, raising_tables
from hypermoment.spectral import HyperbolicityVerdict, hyperbolicity_verdict
from hypermoment.state import (
    _convolve,
    _gaussian_table,
    _unpack,
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
