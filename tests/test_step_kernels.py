"""Bitwise oracles for the packed kernels of one solver step.

References, kept here in their plain form:
- the Gaussian moments by one raising step per order, each gathering its
  Lambda[axis, j] mult products on the spot;
- A^(d) and its regularization correction written by one scatter-add per
  term group, with the row tables compiled alongside.

The package computes the same products in the same order (flat gathers,
one bincount), so it must reproduce them bit for bit. The centred moments
skip odd orders, which are exactly zero; there only the sign of a zero may
differ, so those are compared with ==.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import random_state

from hypermoment.assembly import assemble_batch, regularization_correction_batch
from hypermoment.cli import _load_sim_config
from hypermoment.index import IndexSet, _rank_table, factorial, raising_tables
from hypermoment.solver import _advance, _signal_speeds, riemann_cells
from hypermoment.state import (
    CollisionModel,
    _gaussian_table,
    _packing,
    _unpack,
    free_values,
    gaussian_raw_moments,
)

from test_cli import GOLDEN


def _reference_gaussian_moments(Lambda, set_, u=None):
    Lambda = np.asarray(Lambda, dtype=float)
    D, N = set_.D, set_.N
    batch = Lambda.shape[:-2]
    L = Lambda.reshape(-1, D, D)
    U = None if u is None else np.asarray(u, dtype=float).reshape(-1, D)
    mu = np.zeros((L.shape[0], N + 1))
    mu[:, 0] = 1.0
    for step in raising_tables(D, set_.M):
        acc = L[:, step.axis, 0] * step.mult[:, 0] * mu[:, step.down[:, 0]]
        for j in range(1, D):
            acc = acc + L[:, step.axis, j] * step.mult[:, j] * mu[:, step.down[:, j]]
        if U is not None:
            acc = acc + U[:, step.axis] * mu[:, step.base]
        mu[:, step.lo : step.hi] = acc
    return mu[:, :N].reshape(batch + (N,))


def _reference_row_tables(D, M, d):
    t = _packing(D, M)
    N = t.N
    rank = _rank_table(D, M)
    free = np.array(t.free_alphas, dtype=int).reshape(-1, D)
    orders = free.sum(axis=1)
    E = np.eye(D, dtype=int)
    ed = E[d - 1]

    def ranks(alphas):
        flat = alphas.reshape(-1, D).tolist()
        return np.array([rank.get(tuple(a), N) for a in flat], dtype=int).reshape(alphas.shape[:-1])

    ones = free[:, None] - E
    pairs = free[:, None, None] - E[:, None] - E[None, :]
    tri = E[t.upper[0]] + E[t.upper[1]] + ed
    return SimpleNamespace(
        mult=free @ ed + 1.0,
        up=ranks(free + ed),
        down1=np.where(orders[:, None] > 3, ranks(ones), N),
        down2=ranks(pairs),
        down3=ranks(pairs[:, :, :, None] - E),
        raised1=ranks(ones + ed),
        raised2=ranks(pairs + ed),
        tri=ranks(tri),
        tri_fact=np.array([factorial(a) for a in tri.tolist()], dtype=float),
        pair_scale=1.0 + ed,
        top=int(np.searchsorted(orders, M)),
    )


def _reference_assemble(W, D, M, d):
    t = _packing(D, M)
    g = _reference_row_tables(D, M, d)
    dx = d - 1
    iu, ju = t.upper
    rho, _, p = _unpack(W, D, M)
    th = p / rho[:, None, None]
    fx = free_values(W, D, M)
    R = rho[:, None, None]
    rows = t.free[:, None]
    A = np.zeros((W.shape[0], t.N, t.N + 1))
    A[:, 0, t.vel[dx]] = rho
    A[:, t.vel, t.pair[:, dx]] = g.pair_scale / R[:, 0]
    slots = t.upper_slots
    A[:, slots, t.vel[dx]] += p[:, iu, ju] / t.norm
    A[:, slots, t.vel[ju]] += p[:, iu, dx] / t.norm
    A[:, slots, t.vel[iu]] += p[:, ju, dx] / t.norm
    A[:, slots, g.tri] += g.tri_fact / t.norm
    A[:, rows, g.down1] += th[:, None, dx, :]
    A[:, t.free, g.up] += g.mult
    c = sum(th[:, k, dx, None, None, None] * fx[:, g.down3[..., k]] for k in range(D))
    c = c + g.mult[:, None, None] * fx[:, g.raised2]
    A[:, rows, slots] += c[:, :, iu, ju] / R
    acc = sum(th[:, i, j, None] * c[:, :, i, j] for i in range(D) for j in range(D))
    A[:, t.free, 0] += -acc / (2 * R[:, 0])
    A[:, rows, t.vel] += g.mult[:, None] * fx[:, g.raised1]
    A[:, rows, t.pair[:, dx]] += -fx[:, g.down1] * g.pair_scale / R
    A[:, rows, g.tri] += -g.tri_fact * fx[:, g.down2[:, iu, ju]] / (t.norm * R)
    return np.ascontiguousarray(A[:, :, : t.N])


def _reference_correction(W, D, M, d):
    t = _packing(D, M)
    g = _reference_row_tables(D, M, d)
    rows, c = t.free[g.top :], g.mult[g.top :]
    dens, vel = g.raised2[g.top :], g.raised1[g.top :]
    pres = dens[:, t.upper[0], t.upper[1]]
    rho, _, p = _unpack(W, D, M)
    fx = free_values(W, D, M)
    th = p / rho[:, None, None]
    A = np.zeros(W.shape + (t.N,))
    acc = (th[:, None] * fx.take(dens, axis=1)).sum(axis=(-2, -1))
    A[:, rows, 0] = c * acc / (2 * rho[:, None])
    A[:, rows[:, None], t.vel] = -(c[:, None] * fx[:, vel])
    A[:, rows[:, None], t.upper_slots] = -(c[:, None] * fx[:, pres] / rho[:, None, None])
    return A


def _rows(D, M, n, seed):
    """n packed states, every other one with half its free coefficients
    exactly zero (so that signed zeros reach the kernels)."""
    rng = np.random.default_rng(seed)
    W = np.array([random_state(rng, D, M, scale=0.1).w for _ in range(n)])
    W[1::2, _packing(D, M).free[::2]] = 0.0
    return W


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


KERNEL_CASES = [(D, M, n) for D in (1, 2, 3) for M in range(2, 7) for n in (1, 5)]


@pytest.mark.parametrize("D,M,n", KERNEL_CASES)
def test_gaussian_moments_match_reference(D, M, n):
    W = _rows(D, M, n, seed=100 * D + 10 * M + n)
    rho, u, p = _unpack(W, D, M)
    Theta = p / rho[:, None, None]
    s = IndexSet(D, M)
    assert _same_bits(gaussian_raw_moments(Theta, s, u), _reference_gaussian_moments(Theta, s, u))
    # centred, and a Lambda that is not positive definite
    for Lam in (Theta, Theta - 0.7 * np.eye(D)):
        got, want = gaussian_raw_moments(Lam, s), _reference_gaussian_moments(Lam, s)
        assert np.array_equal(got, want)
    # a single unbatched state
    assert _same_bits(gaussian_raw_moments(Theta[0], s, u[0]), _reference_gaussian_moments(Theta[0], s, u[0]))


@pytest.mark.parametrize("D", [1, 2, 3])
@pytest.mark.parametrize("M", range(2, 8))
def test_lifted_table_starts_with_the_order_m_table(D, M):
    # ranks are graded, so the order-(M+1) table of the conversion carries
    # the order-M table bit for bit in its first N entries
    rng = np.random.default_rng(D * 10 + M)
    B = rng.normal(size=(4, D, D))
    Theta = B @ B.transpose(0, 2, 1) + np.eye(D)
    u = rng.normal(size=(4, D))
    N = IndexSet(D, M).N
    for vel in (u, None):
        lo = gaussian_raw_moments(Theta, IndexSet(D, M), vel)
        hi = gaussian_raw_moments(Theta, IndexSet(D, M + 1), vel)
        assert _same_bits(np.ascontiguousarray(hi[:, :N]), lo)
    assert _same_bits(
        np.ascontiguousarray(_gaussian_table(Theta, u, D, M + 1)[:, :N]),
        _gaussian_table(Theta, u, D, M),
    )


@pytest.mark.parametrize("D,M,n", KERNEL_CASES)
def test_assembly_matches_scatter_reference(D, M, n):
    W = _rows(D, M, n, seed=1000 + 100 * D + 10 * M + n)
    for d in range(1, D + 1):
        A = assemble_batch(W, D, M, d)
        C = regularization_correction_batch(W, D, M, d)
        assert _same_bits(A, _reference_assemble(W, D, M, d))
        assert _same_bits(C, _reference_correction(W, D, M, d))
        # the one-pass regularized matrix is the sum of the two, bitwise
        assert _same_bits(assemble_batch(W, D, M, d, regularized=True), A + C)


@pytest.mark.parametrize("D,M", [(D, M) for D in (1, 2, 3) for M in range(3, 7)])
def test_row_matrices_do_not_depend_on_the_batch(D, M):
    # the speed guard checks a stack of rows, and must see what one row sees
    W = _rows(D, M, 5, seed=2000 + 100 * D + 10 * M)
    for d in range(1, D + 1):
        for kernel in (
            assemble_batch,
            regularization_correction_batch,
            lambda W, D, M, d: assemble_batch(W, D, M, d, regularized=True),
        ):
            stacked = kernel(W, D, M, d)
            for i in range(len(W)):
                assert _same_bits(stacked[i], kernel(W[i : i + 1], D, M, d)[0])


def _sim_setup(name, collision=None):
    config, left, right, _ = _load_sim_config(str(GOLDEN / f"{name}.json"))
    if collision is not None:
        config = dataclasses.replace(config, collision=collision)
    return config, np.array([c.w for c in riemann_cells(config, left, right)])


@pytest.mark.parametrize(
    "name,collision,carried",
    [
        # D=1 BGK: relaxation leaves rho, u and p bitwise alone
        ("simulate_d1m6_tube", None, True),
        # D=2 ES-BGK moves p: every step recomputes the table
        ("simulate_d2m4_esbgk", None, False),
        # without relaxation every step carries it
        ("simulate_d2m4_esbgk", CollisionModel(nu=0.0), True),
    ],
)
def test_carried_table_equals_a_fresh_lift(name, collision, carried):
    config, W = _sim_setup(name, collision)
    D, M = config.D, config.M
    dx, t_end = config.grid.dx, config.t_end
    t, table, steps = 0.0, None, 0
    while t < t_end - 1e-12 * t_end:
        speeds = _signal_speeds(W, D, M)
        dt = min(config.cfl * dx / float(speeds.max()), t_end - t)
        if table is not None:
            rho, u, p = _unpack(W, D, M)
            assert _same_bits(table, _gaussian_table(p / rho[:, None, None], u, D, M + 1))
        W_carried, table_next = _advance(W, dt, config, speeds, table)
        W_fresh, _ = _advance(W, dt, config)
        assert _same_bits(W_carried, W_fresh)
        assert (table_next is not None) == carried
        W, table = W_carried, table_next
        t += dt
        steps += 1
    assert steps >= 5
