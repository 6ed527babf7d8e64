"""Transport, relaxation, and kinetic-reference tests for the 1D solver."""

import math
import re

import numpy as np
import pytest

import euler_exact
import relaxation_exact
from helpers import random_state
from reference_moments import reference_to_conserved

from hypermoment import assembly as assembly_module
from hypermoment.assembly import assemble, regularize
from hypermoment.cli import _load_sim_config
from hypermoment import solver as solver_module
from hypermoment.index import IndexSet, order, rank_array
from hypermoment.solver import (
    AdmissibilityLoss,
    CFLViolation,
    Grid1D,
    SimulationConfig,
    Snapshots,
    build_oracle,
    grad_flux,
    interface_state,
    kinetic_reference,
    max_signal_speed,
    riemann_cells,
    simulate,
    step,
)
from hypermoment.spectral import full_eigendecomposition
from hypermoment.state import (
    AdmissibilityError,
    CollisionModel,
    MomentState,
    _check_rows,
    _packing,
    equilibrium,
    heat_flux,
    to_conserved,
)

from test_cli import GOLDEN


def euler_pair(rho_l, u_l, p_l, rho_r, u_r, p_r, M=2):
    """Equilibrium Riemann data from primitive (rho, u, p) triples."""
    L = equilibrium(1, M, rho_l, [u_l], [[p_l / rho_l]])
    R = equilibrium(1, M, rho_r, [u_r], [[p_r / rho_r]])
    return L, R


def l1_density_error(nx, left, right, t_end):
    g = Grid1D(nx=nx, boundary="copy")
    cfg = SimulationConfig(D=1, M=2, grid=g, t_end=t_end, collision=CollisionModel(nu=0.0))
    L, R = euler_pair(*left, *right)
    res = simulate(cfg, L, R)
    rho_exact, _, _ = euler_exact.profile(res.x, t_end, left, right, x0=0.5)
    return float(np.abs(res.rho[-1] - rho_exact).sum() * g.dx)


class TestExactEulerOracle:
    """Sanity of the independent reference solver before it judges anything."""

    def test_pure_shock_star_state(self):
        # this jump satisfies the jump conditions with speed 3, so the left
        # wave must come out with zero strength
        p, u = euler_exact.star_region((1.5, 1.0, 4.0), (1.0, 0.0, 1.0))
        assert p == pytest.approx(4.0, abs=1e-12)
        assert u == pytest.approx(1.0, abs=1e-12)

    def test_pure_shock_sampling(self):
        left, right = (1.5, 1.0, 4.0), (1.0, 0.0, 1.0)
        assert euler_exact.sample(2.9, left, right) == pytest.approx((1.5, 1.0, 4.0))
        assert euler_exact.sample(3.1, left, right) == pytest.approx((1.0, 0.0, 1.0))

    def test_symmetric_collision(self):
        p, u = euler_exact.star_region((1.0, 0.5, 1.0), (1.0, -0.5, 1.0))
        assert u == pytest.approx(0.0, abs=1e-14)
        assert p > 1.0

    def test_symmetric_recession(self):
        p, u = euler_exact.star_region((1.0, -0.4, 1.0), (1.0, 0.4, 1.0))
        assert u == pytest.approx(0.0, abs=1e-14)
        assert 0.0 < p < 1.0

    def test_constant_data(self):
        x = np.linspace(-1.0, 1.0, 17)
        rho, u, p = euler_exact.profile(x, 0.1, (1.2, 0.3, 2.0), (1.2, 0.3, 2.0))
        assert np.ptp(rho) == 0.0 and np.ptp(u) == 0.0 and np.ptp(p) == 0.0

    def test_sod_star_frozen(self):
        p, u = euler_exact.star_region((1.0, 0.0, 1.0), (0.125, 0.0, 0.1))
        assert p == pytest.approx(0.27290946728561305, rel=1e-10)
        assert u == pytest.approx(0.6085669728903103, rel=1e-10)

    def test_shock_jump_conditions(self):
        # mass and momentum fluxes must balance across the right shock
        left, right = (1.0, 0.0, 1.0), (0.125, 0.0, 0.1)
        ps, us = euler_exact.star_region(left, right)
        rho_r, u_r, p_r = right
        g = euler_exact.GAMMA
        a_r = euler_exact.sound_speed(rho_r, p_r)
        ratio = ps / p_r
        S = u_r + a_r * math.sqrt(0.5 * (g + 1) / g * ratio + 0.5 * (g - 1) / g)
        B = (g - 1.0) / (g + 1.0)
        rho_s = rho_r * (ratio + B) / (B * ratio + 1.0)
        assert S * (rho_s - rho_r) - (rho_s * us - rho_r * u_r) == pytest.approx(0.0, abs=1e-13)
        mom = rho_s * us**2 + ps - (rho_r * u_r**2 + p_r)
        assert S * (rho_s * us - rho_r * u_r) - mom == pytest.approx(0.0, abs=1e-13)

    def test_vacuum_raises(self):
        with pytest.raises(euler_exact.VacuumError):
            euler_exact.star_region((1.0, -5.0, 0.01), (1.0, 5.0, 0.01))


class TestGridAndConfig:
    def test_grid_geometry(self):
        g = Grid1D(nx=10, x_min=-1.0, x_max=1.0)
        assert g.dx == pytest.approx(0.2)
        assert g.centers[0] == pytest.approx(-0.9)
        assert g.centers[-1] == pytest.approx(0.9)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid1D(nx=3)
        with pytest.raises(ValueError):
            Grid1D(nx=8, x_min=1.0, x_max=1.0)
        with pytest.raises(ValueError):
            Grid1D(nx=8, boundary="reflect")

    @pytest.mark.parametrize("boundary,ghosts", [("copy", (0, 3)), ("periodic", (3, 0))])
    def test_pad_rows(self, boundary, ghosts):
        # padded row g is cell g - 1; the ghost rows follow the boundary kind
        np.testing.assert_array_equal(Grid1D(nx=4, boundary=boundary).pad, [ghosts[0], 0, 1, 2, 3, ghosts[1]])

    @pytest.mark.parametrize(
        "x_min,x_max,width", [(-1e308, 1e308, "inf"), (0.0, 5e-324, "0.0")]
    )
    def test_cell_width_must_be_finite_and_positive(self, x_min, x_max, width):
        # the bounds are finite and ordered, but their difference overflows
        # or the width underflows to zero
        with pytest.raises(ValueError, match=f"cell width {width} .* must be finite and positive"):
            Grid1D(nx=24, x_min=x_min, x_max=x_max)

    def test_config_validation(self):
        g = Grid1D(nx=8)
        for kw in (
            dict(cfl=0.0),
            dict(cfl=1.5),
            dict(t_end=-1.0),
            dict(M=1),
            dict(n_snapshots=1),
        ):
            args = dict(D=1, M=3, grid=g, t_end=0.1)
            args.update(kw)
            with pytest.raises(ValueError):
                SimulationConfig(**args)

    def test_signal_speed_is_the_sound_speed_at_order_two(self):
        st = equilibrium(1, 2, 2.0, [0.4], [[1.5]])
        assert max_signal_speed(st) == pytest.approx(0.4 + math.sqrt(3 * 1.5), rel=1e-13)

    def test_grad_flux_matches_gas_dynamics_at_order_two(self):
        rho, u, th = 1.3, 0.4, 0.9
        st = equilibrium(1, 2, rho, [u], [[th]])
        p = rho * th
        G = grad_flux(st)
        assert G[0] == pytest.approx(rho * u, rel=1e-13)
        assert G[1] == pytest.approx(rho * u**2 + p, rel=1e-13)
        assert G[2] == pytest.approx(0.5 * rho * u**3 + 1.5 * u * p, rel=1e-13)

    def test_interface_state_is_the_mean(self):
        rng = np.random.default_rng(5)
        a = random_state(rng, 2, 3)
        b = random_state(rng, 2, 3)
        mid = interface_state(a, b)
        assert np.allclose(mid.w, 0.5 * (a.w + b.w), rtol=0, atol=1e-15)


class TestStep:
    def test_uniform_equilibrium_stationary(self):
        g = Grid1D(nx=6, boundary="periodic")
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.1, collision=CollisionModel(nu=1.0))
        eq = equilibrium(1, 3, 1.2, [0.3], [[0.9]])
        cells = [eq] * g.nx
        for _ in range(5):
            cells = step(cells, 0.01, cfg)
        drift = max(float(np.max(np.abs(c.w - eq.w))) for c in cells)
        assert drift <= 1e-13

    def test_uniform_equilibrium_stationary_es_bgk_2d(self):
        g = Grid1D(nx=5, boundary="copy")
        model = CollisionModel(nu=2.0, kind="es-bgk", Pr=0.7)
        cfg = SimulationConfig(D=2, M=3, grid=g, t_end=0.1, collision=model)
        eq = equilibrium(2, 3, 0.8, [0.2, -0.1], 1.1 * np.eye(2))
        cells = [eq] * g.nx
        for _ in range(3):
            cells = step(cells, 0.005, cfg)
        drift = max(float(np.max(np.abs(c.w - eq.w))) for c in cells)
        assert drift <= 1e-12

    def test_uniform_state_stationary_without_collisions(self):
        st = MomentState(
            D=2, M=3, rho=1.0, u=[0.1, 0.0], p=[[1.0, 0.2], [0.2, 0.7]],
            f={(3, 0): 0.05, (1, 2): -0.02},
        )
        g = Grid1D(nx=4, boundary="periodic")
        cfg = SimulationConfig(D=2, M=3, grid=g, t_end=0.1, collision=CollisionModel(nu=0.0))
        cells = step([st] * g.nx, 0.002, cfg)
        drift = max(float(np.max(np.abs(c.w - st.w))) for c in cells)
        assert drift <= 1e-14

    @pytest.mark.parametrize("D, M, kind", [(1, 6, "bgk"), (2, 4, "es-bgk"), (3, 4, "es-bgk")])
    def test_uniform_grid_moves_no_cell_apart(self, D, M, kind):
        # every cell of a uniform periodic grid sees the same data, so each
        # step leaves the rows bit for bit equal to one another
        cfg = SimulationConfig(D=D, M=M, grid=Grid1D(nx=8, boundary="periodic"), t_end=1.0,
                               collision=_MODELS[kind])
        st = random_state(np.random.default_rng(D + M), D, M, scale=0.05)
        W = np.tile(st.w, (cfg.grid.nx, 1))
        for _ in range(5):
            W = step(W, cfg.cfl * cfg.grid.dx / solver_module._signal_speeds(W, D, M).max(), cfg)
            np.testing.assert_array_equal(W, np.broadcast_to(W[0], W.shape))
        assert not np.array_equal(W[0], st.w)

    def test_cfl_violation(self):
        g = Grid1D(nx=4)
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=1.0)
        cells = [equilibrium(1, 3, 1.0, [0.0], [[1.0]])] * g.nx
        with pytest.raises(CFLViolation):
            step(cells, 1.0, cfg)

    def test_cell_count_mismatch(self):
        g = Grid1D(nx=4)
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=1.0)
        cells = [equilibrium(1, 3, 1.0, [0.0], [[1.0]])] * 5
        with pytest.raises(ValueError, match="cells"):
            step(cells, 1e-4, cfg)

    def test_packed_shape_mismatch(self):
        g = Grid1D(nx=4)
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=1.0)
        W = np.tile(equilibrium(1, 3, 1.0, [0.0], [[1.0]]).w, (4, 1))
        with pytest.raises(ValueError, match=re.escape("packed cells must have shape (4, 4), got (4, 5)")):
            step(np.hstack([W, W[:, :1]]), 1e-4, cfg)

    def test_cell_order_mismatch(self):
        g = Grid1D(nx=4)
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=1.0)
        cells = [equilibrium(1, 2, 1.0, [0.0], [[1.0]])] * 4
        with pytest.raises(ValueError, match="dimensions"):
            step(cells, 1e-4, cfg)

    def test_transport_conserves_low_order_totals(self):
        # per-step check, collisionless, periodic: every row of order < M
        # telescopes; the top row is genuinely nonconservative
        g = Grid1D(nx=8, boundary="periodic")
        cfg = SimulationConfig(D=1, M=4, grid=g, t_end=1.0, collision=CollisionModel(nu=0.0))
        a = MomentState(D=1, M=4, rho=1.0, u=[0.2], p=[[1.0]], f={(3,): 0.05, (4,): -0.03})
        b = MomentState(D=1, M=4, rho=0.7, u=[-0.1], p=[[0.8]], f={(3,): -0.02})
        cells = [a if i < 4 else b for i in range(g.nx)]
        idx = cells[0].index_set.indices
        low = [k for k, al in enumerate(idx) if order(al) <= 3]
        total0 = sum(to_conserved(c).F for c in cells)
        for _ in range(6):
            cells = step(cells, 0.002, cfg)
            total = sum(to_conserved(c).F for c in cells)
            rel = np.abs(total - total0) / np.maximum(np.abs(total0), 1e-30)
            assert rel[0] <= 1e-12
            assert np.max(rel[low]) <= 1e-10
        top = [k for k, al in enumerate(idx) if order(al) == 4]
        assert np.max(rel[top]) > 1e-8

    def test_transport_conserves_low_order_totals_2d(self):
        g = Grid1D(nx=4, boundary="periodic")
        cfg = SimulationConfig(D=2, M=3, grid=g, t_end=1.0, collision=CollisionModel(nu=0.0))
        a = MomentState(
            D=2, M=3, rho=1.0, u=[0.2, -0.1], p=[[1.0, 0.1], [0.1, 0.8]],
            f={(3, 0): 0.04, (1, 2): -0.03},
        )
        b = MomentState(
            D=2, M=3, rho=0.6, u=[-0.2, 0.1], p=[[0.7, -0.05], [-0.05, 0.9]],
            f={(2, 1): 0.02},
        )
        cells = [a, a, b, b]
        idx = a.index_set.indices
        low = [k for k, al in enumerate(idx) if order(al) <= 2]
        total0 = sum(to_conserved(c).F for c in cells)
        for _ in range(4):
            cells = step(cells, 0.002, cfg)
        total = sum(to_conserved(c).F for c in cells)
        rel = np.abs(total - total0) / np.maximum(np.abs(total0), 1e-30)
        assert np.max(rel[low]) <= 1e-10

    def test_relaxation_keeps_collision_invariants(self):
        # mass, momentum, and the energy trace survive the source term;
        # individual second moments may exchange through the anisotropy
        g = Grid1D(nx=4, boundary="periodic")
        model = CollisionModel(nu=1.5, kind="es-bgk", Pr=0.8)
        cfg = SimulationConfig(D=2, M=3, grid=g, t_end=1.0, collision=model)
        a = MomentState(
            D=2, M=3, rho=1.0, u=[0.2, -0.1], p=[[1.0, 0.1], [0.1, 0.8]],
            f={(3, 0): 0.04},
        )
        b = MomentState(D=2, M=3, rho=0.6, u=[-0.2, 0.1], p=[[0.7, 0.0], [0.0, 0.9]], f={})
        cells = [a, b, a, b]
        s = a.index_set
        def invariants(cs):
            tot = sum(to_conserved(c).F for c in cs)
            mass = tot[s.rank0((0, 0))]
            mom = (tot[s.rank0((1, 0))], tot[s.rank0((0, 1))])
            energy = tot[s.rank0((2, 0))] + tot[s.rank0((0, 2))]
            return np.array([mass, *mom, energy])
        i0 = invariants(cells)
        for _ in range(4):
            cells = step(cells, 0.002, cfg)
        i1 = invariants(cells)
        assert np.max(np.abs(i1 - i0) / np.maximum(np.abs(i0), 1e-30)) <= 1e-10

    def test_admissibility_loss_reports_cell(self):
        g = Grid1D(nx=20, boundary="copy")
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.5, collision=CollisionModel(nu=0.0))
        L = equilibrium(1, 3, 1.0, [-6.0], [[0.05]])
        R = equilibrium(1, 3, 1.0, [6.0], [[0.05]])
        with pytest.raises(AdmissibilityLoss, match="cell") as err:
            simulate(cfg, L, R)
        assert 0 <= err.value.cell < g.nx

    def test_speed_bound_dominates_numeric_spectrum(self):
        rng = np.random.default_rng(11)
        for D, M in ((1, 3), (1, 5), (2, 3), (2, 4)):
            for _ in range(3):
                st = random_state(rng, D, M)
                A = regularize(assemble(st, 1), st).entries
                A = A + float(st.u[0]) * np.eye(A.shape[0])
                numeric = float(np.max(np.abs(np.linalg.eigvals(A))))
                assert numeric <= max_signal_speed(st) * (1 + 1e-10) + 1e-12


    def test_bgk_step_makes_three_eigensolves(self, monkeypatch):
        # entry check and implied scale tensor; BGK at D = 1 moves no rank
        # below order 3, so the relaxation sub-step checks no row, and the
        # target covariance of a D = 1 row needs no check
        cfg = SimulationConfig(
            D=1, M=6, grid=Grid1D(nx=8), t_end=1.0, collision=CollisionModel(nu=1.0)
        )
        L, R = equilibrium(1, 6, 1.0, [0.0], [[1.0]]), equilibrium(1, 6, 0.5, [0.0], [[1.0]])
        W = np.array([c.w for c in riemann_cells(cfg, L, R)])
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda T: calls.append(1) or real(T))
        step(W, 0.5 * cfg.grid.dx / max_signal_speed(L), cfg)
        assert 1 <= len(calls) <= 3


def relaxation_failure(monkeypatch, D, nu, bumps):
    """Step an M = 3 tube on 8 cells through a source_batch whose i-th call
    adds bumps[i], a (row, rank, jump) triple or None: the row's entry at
    that rank moves by jump in the sub-step. Returns the AdmissibilityLoss
    and the (rows in, rows out) of every sub-step."""
    M = 3
    cfg = SimulationConfig(
        D=D, M=M, grid=Grid1D(nx=8), t_end=1.0, collision=CollisionModel(nu=nu)
    )
    L = equilibrium(D, M, 1.0, [0.1] * D, np.eye(D))
    R = equilibrium(D, M, 0.5, [0.0] * D, 0.8 * np.eye(D))
    W = np.array([c.w for c in riemann_cells(cfg, L, R)])
    dt = 0.5 * cfg.grid.dx / max(max_signal_speed(L), max_signal_speed(R))
    h = dt / max(1, math.ceil(2.0 * nu * dt))
    real = solver_module.source_batch
    subs = []

    def source(Wk, D, M, model):
        S = real(Wk, D, M, model)
        bump = bumps[len(subs)] if len(subs) < len(bumps) else None
        if bump is not None:
            row, rank, jump = bump
            S[row, rank] += jump / h
        subs.append((Wk, Wk + h * S))
        return S

    monkeypatch.setattr(solver_module, "source_batch", source)
    with pytest.raises(AdmissibilityLoss, match="during relaxation") as err:
        step(W, dt, cfg)
    return err.value, subs


def full_check_error(W, D):
    """The AdmissibilityError of a check of every row of W."""
    with pytest.raises(AdmissibilityError) as err:
        _check_rows(W, D, 3)
    return err.value


class TestRelaxationCheck:
    """The relaxation checks only the rows whose rho, u or p moved in a
    sub-step, or that hold a non-finite entry; a failure names the cell,
    with the message, that a check of every row gives."""

    @pytest.mark.parametrize("D", [1, 2])
    def test_non_positive_pressure_names_the_cell(self, monkeypatch, D):
        slot = _packing(D, 3).upper_slots[0]
        loss, subs = relaxation_failure(monkeypatch, D, 1.0, [(5, slot, -10.0)])
        expected = full_check_error(subs[0][1], D)
        assert loss.cell == expected.cell == 5
        assert str(loss) == f"cell 5 left the admissible set during relaxation: {expected}"

    def test_non_finite_coefficient_of_an_unmoved_row(self, monkeypatch):
        # BGK at D = 1 moves no rank below order 3: row 4 keeps its rho, u
        # and p, and only its order-3 coefficient becomes infinite
        free = _packing(1, 3).free[0]
        loss, subs = relaxation_failure(monkeypatch, 1, 1.0, [(4, free, math.inf)])
        before, after = subs[0]
        low = _packing(1, 3).span[2][1]
        np.testing.assert_array_equal(after[:, :low], before[:, :low])
        expected = full_check_error(after, 1)
        assert loss.cell == expected.cell == 4
        assert str(loss) == f"cell 4 left the admissible set during relaxation: {expected}"
        assert "non-finite" in str(loss)

    def test_lower_cell_of_a_later_sub_step(self, monkeypatch):
        # sub-step 1 breaks cell 5; replayed on cells 0..4, sub-step 2
        # breaks cell 2, the lowest cell that leaves the admissible set
        slot = _packing(1, 3).upper_slots[0]
        bumps = [(5, slot, -10.0), None, (2, slot, -10.0)]
        loss, subs = relaxation_failure(monkeypatch, 1, 200.0, bumps)
        assert len(subs[2][1]) == 5
        expected = full_check_error(subs[2][1], 1)
        assert loss.cell == expected.cell == 2
        assert str(loss) == f"cell 2 left the admissible set during relaxation: {expected}"


class TestSimulate:
    def test_zero_jump_constant(self):
        st = MomentState(D=1, M=3, rho=1.1, u=[0.2], p=[[0.9]], f={(3,): 0.1})
        g = Grid1D(nx=8, boundary="periodic")
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.05, collision=CollisionModel(nu=0.0))
        res = simulate(cfg, st, st)
        for field in (res.rho, res.u1, res.p11, res.theta, res.q1):
            assert float(np.ptp(field)) <= 1e-12
        assert res.q1[0, 0] == pytest.approx(3 * 0.1, rel=1e-12)

    def test_snapshot_layout(self):
        g = Grid1D(nx=6, boundary="copy")
        cfg = SimulationConfig(
            D=1, M=2, grid=g, t_end=0.02, collision=CollisionModel(nu=0.0), n_snapshots=4
        )
        L, R = euler_pair(1.0, 0.0, 1.0, 0.5, 0.0, 0.5)
        res = simulate(cfg, L, R)
        assert res.times.shape == (4,)
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.02)
        assert res.rho.shape == (4, 6)
        assert np.all(res.q1 == 0.0)
        rows = list(res.rows())
        assert len(rows) == 4 * 6
        assert all(len(r) == 7 for r in rows)
        assert len(res.final_states) == 6

    def test_rows_are_the_snapshot_entries(self):
        g = Grid1D(nx=5, boundary="copy")
        cfg = SimulationConfig(
            D=1, M=3, grid=g, t_end=0.02, collision=CollisionModel(nu=1.0), n_snapshots=3
        )
        L = MomentState(D=1, M=3, rho=1.0, u=[0.2], p=[[1.0]], f={(3,): 0.05})
        R = equilibrium(1, 3, 0.5, [0.0], [[0.4]])
        kin = kinetic_reference(cfg, L, R, n_v=64)
        assert type(kin) is Snapshots
        assert np.array_equal(kin.theta, kin.p11 / kin.rho)
        for res in (simulate(cfg, L, R), kin):
            obs = (res.rho, res.u1, res.p11, res.theta, res.q1)
            want = [
                [float(t), float(xi)] + [float(a[j, i]) for a in obs]
                for j, t in enumerate(res.times)
                for i, xi in enumerate(res.x)
            ]
            rows = res.rows()
            assert [list(map(repr, r)) for r in rows] == [list(map(repr, r)) for r in want]
            assert all(type(v) is float for r in rows for v in r)

    def test_final_states_built_on_first_access(self, monkeypatch):
        cfg, L, R, _ = _load_sim_config(str(GOLDEN / "simulate_d1m6_tube.json"))
        calls = []
        real = MomentState.from_w.__func__
        counted = classmethod(lambda cls, D, M, w: calls.append(1) or real(cls, D, M, w))
        monkeypatch.setattr(MomentState, "from_w", counted)
        res = simulate(cfg, L, R)
        assert calls == []
        states = res.final_states
        assert len(calls) == cfg.grid.nx and res.final_states is states
        for st, w in zip(states, res.final_w):
            want = real(MomentState, cfg.D, cfg.M, w)
            assert st.w.tobytes() == want.w.tobytes()
            assert (st.rho, st.f) == (want.rho, want.f)
            np.testing.assert_array_equal(st.p, want.p)

    @staticmethod
    def _esbgk_200():
        import dataclasses

        cfg, L, R, _ = _load_sim_config(str(GOLDEN / "simulate_d2m4_esbgk.json"))
        return dataclasses.replace(cfg, grid=dataclasses.replace(cfg.grid, nx=200)), L, R

    def test_guard_checks_every_fastest_row_once_in_stacks(self, monkeypatch):
        cfg, L, R = self._esbgk_200()
        real_check, real_advance = solver_module._spectral_bound_check, solver_module._advance
        stacks, fastest = [], []

        def check(packed):
            stacks.append(packed[2].copy())
            real_check(packed)

        def advance(W, *args):
            fastest.append(W[np.argmax(solver_module._signal_speeds(W, cfg.D, cfg.M))].copy())
            return real_advance(W, *args)

        monkeypatch.setattr(solver_module, "_spectral_bound_check", check)
        monkeypatch.setattr(solver_module, "_advance", advance)
        simulate(cfg, L, R)
        n, batch = len(fastest), solver_module._GUARD_BATCH
        assert n > batch
        assert [len(rows) for rows in stacks] == [batch] * (n // batch) + [n % batch]
        assert np.vstack(stacks).tobytes() == np.array(fastest).tobytes()

    def test_stacked_guard_leaves_the_run_unchanged(self, monkeypatch):
        cfg, L, R = self._esbgk_200()
        stacked = simulate(cfg, L, R).final_w
        monkeypatch.setattr(solver_module, "_GUARD_BATCH", 1)
        assert stacked.tobytes() == simulate(cfg, L, R).final_w.tobytes()

    def test_riemann_cells_split_at_midpoint(self):
        g = Grid1D(nx=6, x_min=0.0, x_max=1.2)
        cfg = SimulationConfig(D=1, M=2, grid=g, t_end=0.1)
        L, R = euler_pair(1.0, 0.0, 1.0, 0.5, 0.0, 0.5)
        cells = riemann_cells(cfg, L, R)
        assert cells[:3] == [L, L, L] and cells[3:] == [R, R, R]

    def test_state_dimension_mismatch(self):
        g = Grid1D(nx=6)
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.1)
        L, R = euler_pair(1.0, 0.0, 1.0, 0.5, 0.0, 0.5, M=2)
        with pytest.raises(ValueError, match="left"):
            simulate(cfg, L, R)

    def test_sod_density_approaches_exact_euler(self):
        left = (1.0, 0.0, 1.0)
        right = (0.125, 0.0, 0.1)
        errs = [l1_density_error(nx, left, right, t_end=0.15) for nx in (100, 200)]
        assert errs[1] < errs[0]
        assert errs[0] < 0.035  # observed 0.0294 at nx=100

    def test_two_shock_first_order_rate(self):
        # colliding streams give a contact of zero strength, so the L1 rate
        # is not capped by contact smearing
        left = (1.0, 0.5, 1.0)
        right = (1.0, -0.5, 1.0)
        errs = [l1_density_error(nx, left, right, t_end=0.12) for nx in (100, 200)]
        rate = math.log2(errs[0] / errs[1])
        assert rate >= 0.7  # observed 0.82

    def test_large_nu_run_approaches_euler_limit(self):
        g = Grid1D(nx=100, boundary="copy")
        cfg2 = SimulationConfig(D=1, M=2, grid=g, t_end=0.1, collision=CollisionModel(nu=0.0))
        euler = simulate(cfg2, *euler_pair(1.0, 0.0, 1.0, 0.5, 0.0, 0.4))
        L4 = MomentState(D=1, M=4, rho=1.0, u=[0.0], p=[[1.0]], f={(3,): 0.2, (4,): 0.06})
        R4 = MomentState(D=1, M=4, rho=0.5, u=[0.0], p=[[0.4]], f={(3,): -0.08})
        dist = {}
        for nu in (0.0, 400.0):
            cfg4 = SimulationConfig(D=1, M=4, grid=g, t_end=0.1, collision=CollisionModel(nu=nu))
            res = simulate(cfg4, L4, R4)
            dist[nu] = float(np.abs(res.rho[-1] - euler.rho[-1]).sum() * g.dx)
        assert dist[400.0] < 0.45 * dist[0.0]  # observed 0.0060 vs 0.0190
        assert dist[400.0] < 0.008


class TestDimensionReduction:
    """On transverse-free data (u_2 = u_3 = 0, diagonal p, coefficients only
    at (k, 0, ...), nu = 0) a run at D = 2 or 3 is the D = 1 run: the
    first-axis moments do not see the transverse pressure, even where p_22
    jumps. This checks the D >= 2 transport, path integral and state
    conversion against an independent run. q1 and theta are not compared:
    q1 sums f_{e_1 + 2 e_d} over every axis d, which the p_22 jump excites."""

    @staticmethod
    def _pair(D, M):
        # (rho, u_1, diagonal of p, coefficient of (k, 0, ...) per k = 3..M)
        sides = (
            (1.0, 0.2, (1.0, 0.8, 1.1), (0.05, 0.02, -0.01, 0.004)),
            (0.5, -0.1, (0.4, 0.6, 0.45), (-0.03, 0.01, 0.005, -0.002)),
        )
        return [
            MomentState(
                D=D, M=M, rho=rho, u=[u1] + [0.0] * (D - 1), p=np.diag(p[:D]),
                f={(k,) + (0,) * (D - 1): rho * c for k, c in zip(range(3, M + 1), f)},
            )
            for rho, u1, p, f in sides
        ]

    @staticmethod
    def _run(D, M, boundary):
        grid = Grid1D(nx=50, boundary=boundary)
        cfg = SimulationConfig(D=D, M=M, grid=grid, t_end=0.05, collision=CollisionModel(nu=0.0))
        return simulate(cfg, *TestDimensionReduction._pair(D, M))

    @pytest.mark.parametrize("boundary", ["copy", "periodic"])
    @pytest.mark.parametrize("M", [3, 4, 5, 6])
    @pytest.mark.parametrize("D", [2, 3])
    def test_transverse_free_run_is_the_one_dimensional_run(self, D, M, boundary):
        one, many = self._run(1, M, boundary), self._run(D, M, boundary)
        s = IndexSet(D, M)
        axis = [s.rank0((k,) + (0,) * (D - 1)) for k in range(M + 1)]
        np.testing.assert_array_equal(one.times, many.times)
        np.testing.assert_allclose(many.final_w[:, axis], one.final_w, rtol=0, atol=1e-14)
        for name in ("rho", "u1", "p11"):
            np.testing.assert_allclose(getattr(many, name), getattr(one, name), rtol=0, atol=1e-14)


_MODE_CASES = [(1, 3), (1, 6), (2, 4), (2, 6), (3, 4)]
_MODELS = {"bgk": CollisionModel(nu=1.0), "es-bgk": CollisionModel(nu=1.0, kind="es-bgk", Pr=2.0 / 3.0)}
_RELAX_CASES = [(1, 6, "bgk"), (2, 4, "bgk"), (2, 4, "es-bgk"), (3, 4, "es-bgk")]


class TestExactRelaxation:
    """n calls of _relax(W, T/n) on a uniform state against the exact
    relaxation of its raw moments (relaxation_exact): explicit sub-steps are
    first order, so the error halves with each doubling of n. A target off
    by 1% at order >= 4 converges to the wrong moments, and the ratio falls.
    D = 1 BGK cannot show that fault: its target has Lambda = Theta, so its
    coefficients above order 0 are zero and scaling them changes nothing."""

    T = 0.5

    @classmethod
    def _error_ratios(cls, D, M, kind):
        model = _MODELS[kind]
        W0 = random_state(np.random.default_rng(7 + D + M), D, M, scale=0.02).w[None]
        exact = relaxation_exact.exact_relaxation(W0, cls.T, D, M, model.nu, model.Pr)
        errors = []
        for n in (32, 64, 128):
            W = W0
            for _ in range(n):
                W = solver_module._relax(W, cls.T / n, D, M, model)
            errors.append(np.max(np.abs(reference_to_conserved(W, D, M) - exact)))
        return errors[0] / errors[1], errors[1] / errors[2]

    @pytest.mark.parametrize("D, M, kind", _RELAX_CASES)
    def test_error_halves_with_the_step(self, D, M, kind):
        for ratio in self._error_ratios(D, M, kind):
            assert 1.9 <= ratio <= 2.1

    @pytest.mark.parametrize("D, M, kind", [c for c in _RELAX_CASES if c[0] >= 2])
    def test_target_off_by_one_percent_fails(self, D, M, kind, monkeypatch):
        exact_target = assembly_module.collision_coeffs_batch

        def off(W, D, M, model):
            G = exact_target(W, D, M, model)
            G[:, _packing(D, M).span[4][0] :] *= 1.01
            return G

        monkeypatch.setattr(assembly_module, "collision_coeffs_batch", off)
        assert not all(1.9 <= r <= 2.1 for r in self._error_ratios(D, M, kind))


class TestTransverseSymmetry:
    """The first-axis run commutes with the symmetries of the transverse
    axes: reflecting xi_2 (w times (-1)^alpha_2) bit for bit, a Galilean
    boost of u_2, u_3 and, at D = 3, swapping xi_2 and xi_3 to round-off.

    It sees the transverse indices of the regularization correction, which
    the run reads: the correction's velocity columns in reverse order break
    the reflection by 10.6. It cannot see a wrong index in a pressure-row
    group of the unregularized A^(1): simulate reads only the correction
    rows of that matrix, and the rest reaches only the speed guard's
    spectrum."""

    @staticmethod
    def _run(D, M, boundary, L, R):
        cfg = SimulationConfig(
            D=D, M=M, grid=Grid1D(nx=60, boundary=boundary), t_end=0.05,
            collision=CollisionModel(nu=2.0, kind="es-bgk", Pr=2.0 / 3.0),
        )
        return simulate(cfg, MomentState.from_w(D, M, L), MomentState.from_w(D, M, R)).final_w

    @pytest.mark.parametrize("boundary", ["periodic", "copy"])
    @pytest.mark.parametrize("D, M", [(2, 4), (2, 6), (3, 3), (3, 4)])
    def test_transformed_run_is_the_transformed_result(self, D, M, boundary):
        rng = np.random.default_rng(100 * D + M)
        L, R = (random_state(rng, D, M, scale=0.05).w for _ in range(2))
        idx = np.array(IndexSet(D, M).indices)
        base = self._run(D, M, boundary, L, R)
        scale = np.max(np.abs(base))

        sign = (-1.0) ** idx[:, 1]
        np.testing.assert_array_equal(self._run(D, M, boundary, L * sign, R * sign) * sign, base)

        boost = np.zeros(len(idx))
        boost[_packing(D, M).vel[1:]] = [0.7, -0.4][: D - 1]
        boosted = self._run(D, M, boundary, L + boost, R + boost) - boost
        assert np.max(np.abs(boosted - base)) <= 1e-13 * scale

        if D == 3:
            swap = rank_array(D, M, idx[:, [0, 2, 1]])
            swapped = self._run(D, M, boundary, L[swap], R[swap])[:, swap]
            assert np.max(np.abs(swapped - base)) <= 1e-13 * scale


class TestLinearModes:
    """A mode of the closed-form eigen-system is a mode of the scheme. On a
    periodic grid with nu = 0, the uniform state w0 perturbed by
    eps Re(r e^{ikx}), where r is an eigenvector of the regularized
    first-axis matrix plus u_1 I with eigenvalue lambda, leaves n calls of
    _advance at w0 + eps Re(g^n r e^{ikx}) up to O(eps^2). Here
    g = 1 - (dt/dx) (i lambda sin(k dx) + a (1 - cos(k dx))) is the
    amplification factor of the local Lax-Friedrichs flux (LeVeque, Finite
    Volume Methods for Hyperbolic Problems, 2002), with a the signal speed
    of w0; a >= |lambda| is the von Neumann form of the CFL bound. Without
    the path integral the top rows move the modes off by 1e-3 and more. The
    check cannot see the quadrature node of the path integral, which enters
    at second order in eps."""

    EPS, NX, K, STEPS = 1e-7, 64, 6 * math.pi, 20

    @classmethod
    def _setup(cls, D, M):
        st = random_state(np.random.default_rng(40 + 10 * D + M), D, M, scale=0.05)
        spec = full_eigendecomposition(st)
        assert spec.method == "closed-form"
        cfg = SimulationConfig(D=D, M=M, grid=Grid1D(nx=cls.NX, boundary="periodic"), t_end=1.0,
                               cfl=0.8, collision=CollisionModel(nu=0.0))
        a = max_signal_speed(st)
        return st, spec.Lambda + st.u[0], spec.R / np.max(np.abs(spec.R), axis=0), cfg, a

    @classmethod
    def _deviations(cls, D, M, steps):
        """Largest |W - expected| / eps over the modes after one call of
        _advance and, when steps > 1, after steps calls."""
        st, lams, R, cfg, a = cls._setup(D, M)
        dx = cfg.grid.dx
        dt = cfg.cfl * dx / a
        kx = cls.K * cfg.grid.centers
        devs = []
        for lam, r in zip(lams, R.T):
            g = 1.0 - dt / dx * (1j * lam * math.sin(cls.K * dx) + a * (1.0 - math.cos(cls.K * dx)))
            W = st.w + cls.EPS * np.outer(np.cos(kx), r)
            mode = []
            for n in range(1, steps + 1):
                W = solver_module._advance(W, dt, cfg)[0]
                if n in (1, steps):
                    expect = st.w + cls.EPS * np.outer((g**n * np.exp(1j * kx)).real, r)
                    mode.append(np.max(np.abs(W - expect)) / cls.EPS)
            devs.append(mode)
        return np.max(devs, axis=0)

    @pytest.mark.parametrize("D, M", _MODE_CASES)
    def test_modes_follow_the_amplification_factor(self, D, M):
        one, many = self._deviations(D, M, self.STEPS)
        assert one <= 1e-6 and many <= 1e-6

    @pytest.mark.parametrize("D, M", _MODE_CASES)
    def test_amplification_factor_is_bounded(self, D, M):
        _, lams, _, cfg, a = self._setup(D, M)
        ratio = cfg.cfl / a  # dt / dx
        theta = 2 * math.pi * np.arange(cfg.grid.nx) / cfg.grid.nx  # k dx of every grid mode
        g = 1.0 - ratio * (1j * lams[:, None] * np.sin(theta) + a * (1.0 - np.cos(theta)))
        assert np.max(np.abs(lams)) <= a
        assert np.max(np.abs(g)) <= 1.0 + 1e-14

    @pytest.mark.parametrize("D, M", _MODE_CASES)
    def test_fails_without_the_path_integral(self, D, M, monkeypatch):
        monkeypatch.setattr(solver_module, "path_integral", lambda WL, *_: np.zeros_like(WL))
        assert self._deviations(D, M, 1)[0] > 1e-6


class TestKineticReference:
    def test_oracle_initial_moments_match_states(self):
        L = MomentState(D=1, M=4, rho=1.0, u=[0.3], p=[[1.2]], f={(3,): 0.1, (4,): 0.02})
        R = equilibrium(1, 4, 0.5, [-0.2], [[0.7]])
        g = Grid1D(nx=8, boundary="copy")
        orc = build_oracle(g, L, R, n_v=64, K=6.0)
        rho, u, p, q = orc.moments()
        for i, st in ((0, L), (-1, R)):
            assert rho[i] == pytest.approx(st.rho, rel=2e-6)
            assert u[i] == pytest.approx(float(st.u[0]), abs=2e-6)
            assert p[i] == pytest.approx(st.p[0, 0], rel=2e-6)
            # the cubic weight amplifies the tail truncation
            assert q[i] == pytest.approx(heat_flux(st)[0], abs=2e-5)

    def test_oracle_parameter_validation(self):
        g = Grid1D(nx=8)
        L = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        with pytest.raises(ValueError, match="velocity points"):
            build_oracle(g, L, L, n_v=32)
        with pytest.raises(ValueError, match="6 sigma"):
            build_oracle(g, L, L, K=4.0)
        L2 = equilibrium(2, 3, 1.0, [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="one-dimensional"):
            build_oracle(g, L2, L2)

    def test_equilibrium_stationary(self):
        g = Grid1D(nx=8, boundary="periodic")
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.05, collision=CollisionModel(nu=1.0))
        eq = equilibrium(1, 3, 1.2, [0.3], [[0.9]])
        kin = kinetic_reference(cfg, eq, eq, n_v=64)
        assert float(np.abs(kin.rho[-1] - kin.rho[0]).max()) <= 1e-8
        assert float(np.abs(kin.p11[-1] - kin.p11[0]).max()) <= 1e-7
        assert float(np.abs(kin.u1[-1] - kin.u1[0]).max()) <= 1e-8

    def test_free_transport_conserves_mass_exactly(self):
        g = Grid1D(nx=16, boundary="periodic")
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.1, collision=CollisionModel(nu=0.0))
        L = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        R = equilibrium(1, 3, 0.5, [0.0], [[1.0]])
        kin = kinetic_reference(cfg, L, R, n_v=64)
        m0 = float(kin.rho[0].sum())
        m1 = float(kin.rho[-1].sum())
        assert abs(m1 - m0) / m0 <= 1e-14

    def test_clipping_warning(self):
        # colliding streams heat the gas past the initial velocity span
        g = Grid1D(nx=24, boundary="copy")
        cfg = SimulationConfig(D=1, M=3, grid=g, t_end=0.08, collision=CollisionModel(nu=50.0))
        L = equilibrium(1, 3, 1.0, [2.0], [[1.0]])
        R = equilibrium(1, 3, 1.0, [-2.0], [[1.0]])
        with pytest.warns(RuntimeWarning, match="clipping"):
            kinetic_reference(cfg, L, R, n_v=64)

    def test_result_layout(self):
        g = Grid1D(nx=6, boundary="copy")
        cfg = SimulationConfig(
            D=1, M=3, grid=g, t_end=0.02, collision=CollisionModel(nu=0.0), n_snapshots=3
        )
        L = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        R = equilibrium(1, 3, 0.5, [0.0], [[1.0]])
        kin = kinetic_reference(cfg, L, R, n_v=64)
        assert kin.rho.shape == (3, 6)
        assert np.allclose(kin.theta, kin.p11 / kin.rho)
        rows = list(kin.rows())
        assert len(rows) == 3 * 6 and all(len(r) == 7 for r in rows)

    def test_config_requires_one_dimension(self):
        g = Grid1D(nx=6)
        cfg = SimulationConfig(D=2, M=3, grid=g, t_end=0.02)
        eq = equilibrium(2, 3, 1.0, [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="one-dimensional"):
            kinetic_reference(cfg, eq, eq)
