"""The nonconservative path integral shared by the finite-volume scheme and
the generalized jump condition.

Oracles: the solver's interface term as the midpoint formula in packed w,
and an adaptive quadrature (scipy quad_vec) of the single-state correction
matrix along the path linear in w.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad_vec

from helpers import random_state

from hypermoment import solver
from hypermoment.assembly import (
    path_integral,
    regularization_correction,
    regularization_correction_batch,
)
from hypermoment.index import order
from hypermoment.riemann import shock_check
from hypermoment.solver import Grid1D, SimulationConfig, grad_flux, interface_state, step
from hypermoment.state import MomentState, equilibrium, from_conserved, to_conserved


@pytest.mark.parametrize("D,M", [(1, 3), (1, 6), (2, 4), (3, 3)])
def test_one_node_rule_is_the_midpoint_interface_term(D, M):
    rng = np.random.default_rng(11 * D + M)
    left = [random_state(rng, D, M, scale=0.1) for _ in range(6)]
    right = [random_state(rng, D, M, scale=0.1) for _ in range(6)]
    WL = np.array([s.w for s in left])
    WR = np.array([s.w for s in right])
    # the correction matrix at the arithmetic mean of the packed variables,
    # applied to their jump
    mean = np.array([interface_state(a, b).w for a, b in zip(left, right)])
    corr = regularization_correction_batch(mean, D, M, 1)
    want = np.einsum("kab,kb->ka", corr, WR - WL)
    np.testing.assert_array_equal(path_integral(WL, WR, D, M, [0.5], [1.0]), want)


@pytest.mark.parametrize("D,M", [(1, 3), (1, 6), (2, 4), (3, 3), (3, 4)])
def test_one_node_of_weight_one_is_the_weighted_rule(D, M):
    # one node of weight 1 skips the weighted sum over the nodes; doubling
    # is exact, so weight 2 through that sum gives twice its bits
    rng = np.random.default_rng(13 * D + M)
    WL = np.array([random_state(rng, D, M, scale=0.1).w for _ in range(6)])
    WR = np.array([random_state(rng, D, M, scale=0.1).w for _ in range(6)])
    WR[::2, -3:] = WL[::2, -3:]  # zero jumps reach the sums
    once = path_integral(WL, WR, D, M, [0.5], [1.0])
    twice = path_integral(WL, WR, D, M, [0.5], [2.0])
    assert twice.dtype == once.dtype and twice.tobytes() == (2.0 * once).tobytes()


def test_midpoint_rule_builds_no_dense_correction():
    # only the order-M rows of the correction are built: at D=3, M=6 the
    # call peaks below one dense (n, N, N) array of the n interfaces
    D, M, n = 3, 6, 400
    rng = np.random.default_rng(5)
    WL = np.tile([random_state(rng, D, M, scale=0.1).w for _ in range(4)], (n // 4, 1))
    WR = np.tile([random_state(rng, D, M, scale=0.1).w for _ in range(4)], (n // 4, 1))
    path_integral(WL[:2], WR[:2], D, M, [0.5], [1.0])  # compile the tables outside the trace
    tracemalloc.start()
    try:
        path_integral(WL, WR, D, M, [0.5], [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = WL.shape[1]
    assert peak < n * N * N * 8  # 22.6 MB; the dense build peaked at 45.7 MB


def test_step_integrates_the_interface_term_with_one_midpoint_node(monkeypatch):
    calls = []

    def spy(WL, WR, D, M, nodes, weights):
        calls.append((WL.shape, list(nodes), list(weights)))
        return path_integral(WL, WR, D, M, nodes, weights)

    monkeypatch.setattr(solver, "path_integral", spy)
    config = SimulationConfig(D=1, M=4, grid=Grid1D(nx=8), t_end=0.1)
    cells = [equilibrium(1, 4, 1.0 + 0.1 * k, [0.0], [[1.0]]) for k in range(8)]
    step(cells, 1e-3, config)
    assert calls == [((9, 5), [0.5], [1.0])]


def test_shock_check_top_rows_follow_the_linear_w_path():
    rng = np.random.default_rng(77)
    D, M = 2, 3
    L = random_state(rng, D, M, scale=0.05)
    R = random_state(rng, D, M, scale=0.05)
    FL, FR = to_conserved(L), to_conserved(R)
    S = 0.7
    rep = shock_check(FL, FR, S)

    sL, sR = from_conserved(FL), from_conserved(FR)
    dw = sR.w - sL.w

    def integrand(nu):
        st = MomentState.from_w(D, M, (1.0 - nu) * sL.w + nu * sR.w)
        return regularization_correction(st, 1) @ dw

    jump = S * (FR.F - FL.F) - (grad_flux(sR) - grad_flux(sL))
    top = np.array([order(a) == M for a in FL.index_set.indices])
    nodes, weights = np.polynomial.legendre.leggauss(32)
    rule = path_integral(sL.w[None], sR.w[None], D, M, 0.5 * (nodes + 1.0), 0.5 * weights)[0]
    np.testing.assert_array_equal(rep.residuals[top], (jump - rule)[top])
    assert rep.top_max == float(np.max(np.abs(rep.residuals[top])))

    path, _ = quad_vec(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    np.testing.assert_allclose(rep.residuals[top], (jump - path)[top], rtol=1e-12, atol=1e-13)
