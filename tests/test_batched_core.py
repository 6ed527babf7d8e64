"""Tests for the batched packed-array core of the moment solver.

Oracles: two golden CSVs written by the per-cell implementation that the
batched core replaced (configs and CSVs under golden/), and the batch-of-1
wrappers, which must agree with the batched kernels row by row.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_state

from hypermoment.assembly import (
    assemble,
    assemble_batch,
    regularization_correction,
    regularization_correction_batch,
    source,
    source_batch,
)
from hypermoment.cli import run
from hypermoment.index import IndexSet
from hypermoment.solver import (
    AdmissibilityLoss,
    Grid1D,
    SimulationConfig,
    _moments_and_flux,
    _signal_speeds,
    grad_flux,
    max_signal_speed,
    step,
)
from hypermoment.state import (
    AdmissibilityError,
    CollisionModel,
    MomentState,
    collision_coeffs,
    collision_coeffs_batch,
    equilibrium,
    from_conserved,
    from_conserved_batch,
    gaussian_raw_moments,
    heat_flux,
    heat_flux_batch,
    moment_table,
    to_conserved,
    to_conserved_batch,
)

from test_cli import GOLDEN, read_rows


@pytest.mark.parametrize("name", ["simulate_d1m6_tube", "simulate_d2m4_esbgk"])
def test_simulate_reproduces_per_cell_golden(tmp_path, name):
    # D=1 M=6 BGK shock tube, and D=2 M=4 periodic ES-BGK (Pr=2/3, two
    # relaxation sub-steps per step) with order-3 and order-4 coefficients
    dst = tmp_path / "run.csv"
    assert run(["simulate", "--config", str(GOLDEN / f"{name}.json"), "--out", str(dst)]) == 0
    header, rows = read_rows(dst)
    gheader, grows = read_rows(GOLDEN / f"{name}.csv")
    assert header == gheader
    got = np.array(rows, dtype=float)
    want = np.array(grows, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


MODELS = [CollisionModel(nu=1.3), CollisionModel(nu=2.0, kind="es-bgk", Pr=2.0 / 3.0)]


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    D=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=1, max_value=5),
)
def test_batched_kernels_equal_single_state_wrappers(data, D, n):
    M = data.draw(st.integers(min_value=2, max_value=6 - D + (D == 1)))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    states = [random_state(rng, D, M, scale=0.1) for _ in range(n)]
    W = np.array([s.w for s in states])
    s = IndexSet(D, M)

    F = to_conserved_batch(W, D, M)
    back = from_conserved_batch(F, D, M)
    speeds = _signal_speeds(W, D, M)
    _, flux = _moments_and_flux(W, D, M)
    tables = moment_table(np.array([x.theta_tensor for x in states]), s)
    gauss = gaussian_raw_moments(np.array([x.theta_tensor for x in states]), s)
    for i, x in enumerate(states):
        np.testing.assert_array_equal(F[i], to_conserved(x).F)
        np.testing.assert_array_equal(back[i], from_conserved(F[i], D, M).w)
        assert speeds[i] == max_signal_speed(x)
        np.testing.assert_array_equal(flux[i], grad_flux(x))
        np.testing.assert_array_equal(tables[i], moment_table(x.theta_tensor, s))
        np.testing.assert_array_equal(gauss[i], gaussian_raw_moments(x.theta_tensor, s))
    np.testing.assert_allclose(back, W, rtol=1e-9, atol=1e-12)

    for model in MODELS:
        G = collision_coeffs_batch(W, D, M, model)
        S = source_batch(W, D, M, model)
        for i, x in enumerate(states):
            np.testing.assert_array_equal(G[i], collision_coeffs(x, model))
            np.testing.assert_array_equal(S[i], source(x, model))
    for d in range(1, D + 1):
        A = regularization_correction_batch(W, D, M, d)
        B = assemble_batch(W, D, M, d)
        for i, x in enumerate(states):
            np.testing.assert_array_equal(A[i], regularization_correction(x, d))
            np.testing.assert_array_equal(B[i], assemble(x, d).entries)
    if M >= 3:
        q = heat_flux_batch(W, D, M)
        for i, x in enumerate(states):
            np.testing.assert_array_equal(q[i], heat_flux(x))


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(rho=math.nan),
            dict(rho=math.inf),
            dict(u=[math.inf]),
            dict(p=[[math.nan]]),
            dict(f={(3,): math.nan}),
        ],
    )
    def test_state_rejects(self, kw):
        doc = dict(D=1, M=3, rho=1.0, u=[0.5], p=[[1.0]], f={})
        doc.update(kw)
        with pytest.raises(AdmissibilityError, match="finite"):
            MomentState(**doc)

    def test_from_w_rejects(self):
        with pytest.raises(AdmissibilityError, match="finite"):
            MomentState.from_w(1, 3, [1.0, math.inf, 0.5, 0.0])

    def test_from_conserved_rejects(self):
        F = to_conserved(equilibrium(1, 3, 1.0, [0.2], [[1.0]])).F.copy()
        F[3] = math.nan
        with pytest.raises(AdmissibilityError, match="finite"):
            from_conserved(F, 1, 3)

    def test_batched_check_names_lowest_failing_row(self):
        F = np.array(
            [to_conserved(equilibrium(1, 3, 1.0, [0.2], [[1.0]])).F for _ in range(5)]
        )
        F[4, 2] = math.nan
        F[2, 0] = -1.0
        with pytest.raises(AdmissibilityError, match="density") as err:
            from_conserved_batch(F, 1, 3)
        assert err.value.cell == 2
        F[2, 0] = 1.0
        with pytest.raises(AdmissibilityError, match="finite") as err:
            from_conserved_batch(F, 1, 3)
        assert err.value.cell == 4

    def test_step_names_non_finite_cell(self):
        cfg = SimulationConfig(D=1, M=3, grid=Grid1D(nx=6), t_end=1.0)
        W = np.array([equilibrium(1, 3, 1.0, [0.0], [[1.0]]).w] * 6)
        W[3, 3] = math.inf
        with pytest.raises(AdmissibilityLoss, match="cell 3") as err:
            step(W, 1e-3, cfg)
        assert err.value.cell == 3

    @pytest.mark.parametrize(
        "rank,value,message", [(2, -0.25, "pressure tensor"), (0, -1.0, "density")]
    )
    def test_step_names_inadmissible_cell(self, rank, value, message):
        # p_11 = -0.5 (the slot stores p_11 / 2) or rho = -1 in cell 3, and a
        # non-finite cell 5 above it: the lowest bad cell is named on entry
        cfg = SimulationConfig(D=1, M=3, grid=Grid1D(nx=6), t_end=1.0)
        W = np.array([equilibrium(1, 3, 1.0, [0.0], [[1.0]]).w] * 6)
        W[3, rank] = value
        W[5, 3] = math.nan
        with pytest.raises(AdmissibilityLoss, match=message) as err:
            step(W, 1e-3, cfg)
        assert err.value.cell == 3
        assert "cell 3" in str(err.value)


def test_step_array_and_list_forms_agree():
    cfg = SimulationConfig(
        D=2, M=3, grid=Grid1D(nx=6, boundary="periodic"), t_end=1.0,
        collision=CollisionModel(nu=3.0, kind="es-bgk", Pr=0.8),
    )
    rng = np.random.default_rng(3)
    cells = [random_state(rng, 2, 3, scale=0.05) for _ in range(6)]
    dt = 0.2 * cfg.grid.dx / max(max_signal_speed(c) for c in cells)
    out = step(cells, dt, cfg)
    W = step(np.array([c.w for c in cells]), dt, cfg)
    assert isinstance(out, list) and isinstance(W, np.ndarray)
    np.testing.assert_array_equal(np.array([c.w for c in out]), W)
