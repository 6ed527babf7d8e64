"""Tests for characteristic fields, rarefaction curves, contacts, shocks.

Oracles: finite differences for the wave-speed gradient identity, an
independent adaptive ODE integration for the rarefaction closed forms, and
classical monatomic-gas jump relations for the second-order Euler limit.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hugoniot_exact import hugoniot_pair

from hypermoment import riemann as riemann_mod
from hypermoment import state as state_mod
from hypermoment.assembly import assemble, regularize
from hypermoment.hermite import he_roots
from hypermoment.index import IndexSet, factorial, order
from hypermoment.riemann import (
    _MATCH_TOL,
    _field_eigenvector,
    _field_table,
    ElementaryWave,
    classify_field,
    contact_check,
    rarefaction_curve,
    shock_check,
    shock_speed_from_mass,
    speed_gradient_dot_eigenvector,
    wave_speed,
    wave_table_check,
)
from hypermoment.spectral import full_eigendecomposition, unit_spectrum
from hypermoment.state import (
    AdmissibilityError,
    MomentState,
    equilibrium,
    from_conserved,
    to_conserved,
)

from helpers import random_state


class TestClassifyField:
    def test_zero_root_is_degenerate(self):
        st = equilibrium(1, 2, 1.0, [0.0], [[1.0]])
        f = classify_field(st, 0.0)
        assert not f.genuinely_nonlinear and f.family == (3, 1)

    def test_top_family_nonzero_is_genuinely_nonlinear(self):
        st = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        for j, c in enumerate(he_roots(4)):
            f = classify_field(st, float(c))
            assert f.genuinely_nonlinear and f.family == (4, j)

    def test_lower_families_are_degenerate(self):
        st = equilibrium(2, 3, 1.0, [0.0, 0.0], np.eye(2))
        for m in (2, 3):
            for c in he_roots(m):
                if c == 0.0:
                    continue
                f = classify_field(st, float(c))
                assert not f.genuinely_nonlinear and f.family[0] == m

    def test_rejects_non_root(self):
        st = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        with pytest.raises(ValueError, match="not a unit root"):
            classify_field(st, 0.5)

    @pytest.mark.parametrize("D,M", [(1, 3), (1, 6), (2, 2), (2, 4), (3, 3), (3, 5)])
    def test_agrees_with_descending_family_search(self, D, M):
        # reference: the largest family with a root within tolerance, and
        # its nearest root (lowest index on ties)
        def search(C):
            if D == 1:
                families = {M + 1}
            else:
                families = {M + 1 - order(h) for h in IndexSet(D - 1, M).indices}
            for m in sorted(families, reverse=True):
                roots = he_roots(m)
                j = int(np.argmin(np.abs(roots - C)))
                if abs(roots[j] - C) <= _MATCH_TOL * (1.0 + abs(C)):
                    return (m, j)
            return None

        st = equilibrium(D, M, 1.0, np.zeros(D), np.eye(D))
        values = sorted({L.value for L in unit_spectrum(D, M)})
        for v in values:
            for C in (v, v - 0.5 * _MATCH_TOL, v + 0.5 * _MATCH_TOL):
                assert classify_field(st, C).family == search(C)
        for a, b in zip(values, values[1:]):
            C = 0.5 * (a + b)
            assert search(C) is None
            with pytest.raises(ValueError, match="not a unit root"):
                classify_field(st, C)
        for C in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not a unit root"):
                classify_field(st, C)

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_cached_table_equals_classify_field(self, D, M):
        st = equilibrium(D, M, 1.0, np.zeros(D), np.eye(D))
        table = _field_table(D, M)
        assert [line for line, _ in table] == list(unit_spectrum(D, M))
        for line, fld in table:
            assert fld == classify_field(st, line.value)

    @pytest.mark.parametrize("D,M", [(1, 3), (2, 4)])
    def test_gradient_identity_finite_difference(self, D, M):
        # d(lambda)/dw . R == (C^2+1) sqrt(theta) / (2 rho) * C * R_0, where
        # lambda = u1 + C sqrt(p11 / rho) depends on three state slots only
        rng = np.random.default_rng(5 * D + M)
        st = random_state(rng, D, M)
        s = st.index_set
        sp = full_eigendecomposition(st)
        slots = [s.rank0((0,) * D),
                 s.rank0((1,) + (0,) * (D - 1)),
                 s.rank0((2,) + (0,) * (D - 1))]

        def lam_of_w(wvec, C):
            rho = wvec[slots[0]]
            p11 = 2 * wvec[slots[2]]
            return wvec[slots[1]] + C * np.sqrt(p11 / rho)

        for k in range(s.N):
            lam = sp.Lambda[k]
            C = lam / np.sqrt(st.theta_tensor[0, 0])
            field = classify_field(st, float(C))
            R = sp.R[:, k].copy()
            if field.family[0] == M + 1:
                R *= st.rho  # density-entry-rho normalization
            grad_dot = 0.0
            for slot in slots:
                h = 1e-6 * max(1.0, abs(st.w[slot]))
                wp = st.w.copy(); wp[slot] += h
                wm = st.w.copy(); wm[slot] -= h
                grad_dot += (lam_of_w(wp, C) - lam_of_w(wm, C)) / (2 * h) * R[slot]
            assert grad_dot == pytest.approx(
                speed_gradient_dot_eigenvector(st, field), abs=1e-7
            )


class TestRarefaction:
    def test_zero_parameter_is_identity(self):
        st = equilibrium(1, 3, 1.0, [0.2], [[1.0]])
        f = classify_field(st, float(he_roots(4)[-1]))
        assert rarefaction_curve(st, f, 0.0) is st

    @pytest.mark.parametrize("D,M,ci", [(1, 3, -1), (1, 4, 0), (2, 3, -1)])
    def test_closed_forms_against_ode_oracle(self, D, M, ci):
        st = equilibrium(
            D, M, 1.1, [0.2] + [0.0] * (D - 1),
            np.eye(D) * 0.9 + np.full((D, D), 0.1),
        )
        C = float(he_roots(M + 1)[ci])
        field = classify_field(st, C)

        def rhs(z, wvec):
            cur = MomentState.from_w(D, M, wvec)
            spc = full_eigendecomposition(cur)
            lam = C * np.sqrt(cur.theta_tensor[0, 0])
            k = int(np.argmin(np.abs(spc.Lambda - lam)))
            R = spc.R[:, k]
            return R * cur.rho / R[0]

        for zeta in (-0.3, 0.5):
            sol = solve_ivp(rhs, (0.0, zeta), st.w, rtol=1e-10, atol=1e-12)
            assert sol.success
            oracle = MomentState.from_w(D, M, sol.y[:, -1])
            got = rarefaction_curve(st, field, zeta)
            assert got.rho == pytest.approx(oracle.rho, rel=1e-6)
            assert got.u[0] == pytest.approx(oracle.u[0], rel=1e-6)
            assert got.p[0, 0] == pytest.approx(oracle.p[0, 0], rel=1e-6)
            assert np.allclose(got.w, oracle.w, rtol=1e-6, atol=1e-9)

    def test_eigenvalue_monotone_in_signed_parameter(self):
        st = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        for C in (float(he_roots(4)[0]), float(he_roots(4)[-1])):
            field = classify_field(st, C)
            lam0 = wave_speed(st, C)
            prev = None
            for zeta in np.linspace(-0.4, 0.4, 9):
                lam = wave_speed(rarefaction_curve(st, field, float(zeta)), C)
                if zeta != 0.0:
                    assert np.sign(lam - lam0) == np.sign(C * zeta)
                if prev is not None:
                    assert np.sign(lam - prev) == np.sign(C)
                prev = lam

    def test_unit_root_field_is_degenerate_without_warning(self):
        st = equilibrium(2, 3, 1.0, [0.0, 0.0], np.eye(2))
        field = classify_field(st, 1.0)  # He_2 root, linearly degenerate
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = rarefaction_curve(st, field, 0.05)
        # degenerate branch: rho, u1, p11 constant along the curve
        assert out.rho == pytest.approx(st.rho, abs=1e-9)
        assert out.u[0] == pytest.approx(st.u[0], abs=1e-9)
        assert out.p[0, 0] == pytest.approx(st.p[0, 0], abs=1e-9)


def _skewed_state(rng, D, M):
    """State with theta_1j != 0 and random free coefficients, |f| <= 0.02."""
    A = rng.normal(size=(D, D))
    Theta = A @ A.T / D + 0.5 * np.eye(D)
    if D > 1:
        Theta[0, 1:] = Theta[1:, 0] = 0.4 * np.sqrt(Theta[0, 0] * np.diag(Theta)[1:])
    f = {a: rng.uniform(-0.02, 0.02) for a in IndexSet(D, M).indices if order(a) >= 3}
    rho = rng.uniform(0.8, 1.3)
    return MomentState(D=D, M=M, rho=rho, u=rng.uniform(-0.3, 0.3, D), p=rho * Theta, f=f)


def _gn_roots(M):
    return [float(c) for c in he_roots(M + 1) if abs(c) > 1e-12]


def _lapack_rk45_curve(st, C, zeta):
    """Integral curve from LAPACK eigenvectors of the regularized first-axis
    matrix and an adaptive RK45 integration, no code of the module under
    test beyond assembly."""
    D, M = st.D, st.M

    def rhs(_, w):
        cur = MomentState.from_w(D, M, w)
        lam, vec = np.linalg.eig(regularize(assemble(cur, 1), cur).entries)
        k = int(np.argmin(np.abs(lam - C * np.sqrt(cur.theta_tensor[0, 0]))))
        r = vec[:, k].real
        return r * cur.rho / r[0]

    sol = solve_ivp(rhs, (0.0, zeta), st.w, method="RK45", rtol=1e-10, atol=1e-12)
    assert sol.success
    return sol.y[:, -1]


def _sheared(st, s):
    """The state pushed through eta_1 = xi_1, eta_j = xi_j - s_j xi_1, from
    its raw moments E[xi^beta] = beta! F_beta."""
    D, M = st.D, st.M
    idx = IndexSet(D, M).indices
    E = {a: F * factorial(a) for a, F in zip(idx, to_conserved(st).F)}
    G = []
    for g in idx:
        total = 0.0
        for k in itertools.product(*(range(gj + 1) for gj in g[1:])):
            weight = math.prod(math.comb(gj, kj) * (-sj) ** kj for gj, kj, sj in zip(g[1:], k, s))
            beta = (g[0] + sum(k),) + tuple(gj - kj for gj, kj in zip(g[1:], k))
            total += weight * E[beta]
        G.append(total / factorial(g))
    return from_conserved(np.array(G), D, M)


class TestClosedFormCurve:
    """Fan curves of genuinely nonlinear fields are closed form in every slot."""

    @pytest.mark.parametrize("zeta", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_parameter(self, zeta):
        st = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        field = classify_field(st, float(he_roots(4)[-1]))
        with pytest.raises(ValueError, match="must be finite"):
            rarefaction_curve(st, field, zeta)

    @pytest.mark.parametrize("D,M", [(1, 6), (2, 4), (2, 5), (3, 4)])
    def test_matches_lapack_rk45_oracle(self, D, M):
        st = _skewed_state(np.random.default_rng(40 + 10 * D + M), D, M)
        for C in _gn_roots(M):
            field = classify_field(st, C)
            for zeta in (-0.15, 0.15):
                oracle = _lapack_rk45_curve(st, C, zeta)
                got = rarefaction_curve(st, field, zeta).w
                assert np.max(np.abs(got - oracle)) <= 1e-9 * np.max(np.abs(oracle)), (C, zeta)

    @pytest.mark.parametrize("D,M", [(2, 4), (3, 4), (3, 5)])
    def test_invariants_along_curve(self, D, M):
        st = _skewed_state(np.random.default_rng(7 * D + M), D, M)
        th = st.theta_tensor
        s0 = th[0, 1:] / th[0, 0]

        def invariants(cur, zeta):
            t = cur.theta_tensor
            s = t[0, 1:] / t[0, 0]
            return (
                np.array([cur.rho * np.exp(-zeta)]),
                s,
                t[1:, 1:] - np.outer(t[0, 1:], s),
                cur.u[1:] - s * cur.u[0],
            )

        start = invariants(st, 0.0)
        assert np.abs(start[1]).min() > 0.1  # the shear is not the identity
        for C in _gn_roots(M):
            field = classify_field(st, C)
            for zeta in (-0.4, 0.2, 0.5):
                for got, want in zip(invariants(rarefaction_curve(st, field, zeta), zeta), start):
                    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("D,M", [(2, 4), (3, 4)])
    def test_shear_commutes_with_curve(self, D, M):
        st = _skewed_state(np.random.default_rng(3 * D + M), D, M)
        th = st.theta_tensor
        for s in (th[0, 1:] / th[0, 0], np.linspace(-0.3, 0.5, D - 1)):
            sheared = _sheared(st, s)
            for C in _gn_roots(M):
                field = classify_field(st, C)
                for zeta in (-0.3, 0.4):
                    a = _sheared(rarefaction_curve(st, field, zeta), s).w
                    b = rarefaction_curve(sheared, field, zeta).w
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), (s, C, zeta)

    @pytest.mark.parametrize("D,M", [(1, 2), (1, 5), (2, 3), (3, 3)])
    def test_no_ode_solve(self, D, M, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ODE solver called on a genuinely nonlinear curve")

        monkeypatch.setattr(riemann_mod, "solve_ivp", refuse)
        st = _skewed_state(np.random.default_rng(D + M), D, M)
        for C in _gn_roots(M):
            end = rarefaction_curve(st, classify_field(st, C), 0.3)
            assert end.rho == pytest.approx(st.rho * np.exp(0.3), rel=1e-14)

    def test_cost_independent_of_parameter(self, monkeypatch):
        st = _skewed_state(np.random.default_rng(5), 2, 4)
        field = classify_field(st, _gn_roots(4)[-1])
        calls = []
        real = riemann_mod._field_eigenvector

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(riemann_mod, "_field_eigenvector", counted)
        counts = []
        for zeta in (0.01, 0.5):
            calls.clear()
            rarefaction_curve(st, field, zeta)
            counts.append(len(calls))
        assert counts == [1, 1]


class TestPackedRightHandSide:
    """The rarefaction right-hand side reads packed rows, not states."""

    def test_one_curve_builds_at_most_two_states(self, monkeypatch):
        st = random_state(np.random.default_rng(11), 2, 4, scale=0.02)
        field = classify_field(st, float(he_roots(5)[-1]))
        built = []
        orig = state_mod.MomentState.__post_init__

        def counting(self):
            built.append(self)
            orig(self)

        monkeypatch.setattr(state_mod.MomentState, "__post_init__", counting)
        rarefaction_curve(st, field, 0.1)
        assert len(built) <= 2

    def test_inadmissible_row_raises(self):
        st = random_state(np.random.default_rng(12), 2, 4, scale=0.02)
        field = classify_field(st, float(he_roots(5)[-1]))
        root = he_roots(5)[-1]
        w = np.array(st.w)
        _field_eigenvector(w, 2, 4, field, root)  # admissible: no error
        w[st.index_set.rank0((2, 0))] = -0.5  # p11 < 0
        with pytest.raises(AdmissibilityError, match="not positive definite"):
            _field_eigenvector(w, 2, 4, field, root)
        w[st.index_set.rank0((2, 0))] = np.nan
        with pytest.raises(AdmissibilityError, match="non-finite"):
            _field_eigenvector(w, 2, 4, field, root)


class TestContact:
    def test_identical_states(self):
        st = equilibrium(1, 2, 1.0, [0.3], [[1.0]])
        field = classify_field(st, 0.0)
        assert contact_check(st, st, field).ok

    def test_density_jump_only(self):
        field_state = equilibrium(1, 2, 1.0, [0.3], [[2.0]])
        field = classify_field(field_state, 0.0)
        a = equilibrium(1, 2, 1.0, [0.3], [[2.0]])
        b = equilibrium(1, 2, 2.0, [0.3], [[1.0]])  # same p11 = 2
        assert contact_check(a, b, field).ok

    def test_velocity_jump_fails(self):
        a = equilibrium(1, 2, 1.0, [0.3], [[1.0]])
        b = equilibrium(1, 2, 1.0, [0.0], [[1.0]])
        field = classify_field(a, 0.0)
        v = contact_check(a, b, field)
        assert not v.ok and v.velocity_jump == pytest.approx(-0.3)


def monatomic_shock(rho_pre=1.0, u_pre=0.0, p_pre=1.0, ratio=1.5, facing=+1):
    """Classical jump data for a monatomic gas (adiabatic index 3).

    Returns (left state, right state, speed) with the pre-shock gas on the
    right for a right-facing shock, mirrored for facing = -1.
    """
    rho_post = ratio * rho_pre
    p_post = p_pre * (2 * rho_post - rho_pre) / (2 * rho_pre - rho_post)
    j = -np.sqrt((p_post - p_pre) / (1 / rho_pre - 1 / rho_post))
    S = u_pre - j / rho_pre
    u_post = S + j / rho_post
    L = MomentState(D=1, M=2, rho=rho_post, u=np.array([u_post]),
                    p=np.array([[p_post]]), f={})
    R = MomentState(D=1, M=2, rho=rho_pre, u=np.array([u_pre]),
                    p=np.array([[p_pre]]), f={})
    if facing == -1:
        L, R = (
            MomentState(D=1, M=2, rho=R.rho, u=-R.u, p=R.p, f={}),
            MomentState(D=1, M=2, rho=L.rho, u=-L.u, p=L.p, f={}),
        )
        S = -S
    return L, R, float(S)


class TestShock:
    @pytest.mark.parametrize("ratio", [1.2, 1.5, 1.9])
    @pytest.mark.parametrize("facing", [+1, -1])
    def test_euler_limit_jump_conditions(self, ratio, facing):
        L, R, S = monatomic_shock(ratio=ratio, facing=facing)
        rep = shock_check(to_conserved(L), to_conserved(R), S)
        assert np.max(np.abs(rep.residuals)) <= 1e-10
        assert rep.entropy
        assert rep.density_pressure_product > 0
        assert rep.mass_flux_speed == pytest.approx(S, rel=1e-12)
        C = facing * np.sqrt(3.0)
        wave = ElementaryWave("shock", L, R, classify_field(L, C), S)
        assert wave_table_check(wave).ok

    def test_lax_root_matches_facing(self):
        L, R, S = monatomic_shock(ratio=1.5, facing=+1)
        rep = shock_check(to_conserved(L), to_conserved(R), S)
        assert rep.lax_per_root == (False, False, True)
        L, R, S = monatomic_shock(ratio=1.5, facing=-1)
        rep = shock_check(to_conserved(L), to_conserved(R), S)
        assert rep.lax_per_root == (True, False, False)

    def test_equal_density_admits_no_shock(self):
        a = MomentState(D=1, M=2, rho=1.0, u=np.array([0.4]),
                        p=np.array([[1.0]]), f={})
        b = MomentState(D=1, M=2, rho=1.0, u=np.array([0.0]),
                        p=np.array([[1.2]]), f={})
        Fa, Fb = to_conserved(a), to_conserved(b)
        assert shock_speed_from_mass(Fa, Fb) is None
        for S in (-2.0, 0.0, 1.0, 3.0):
            rep = shock_check(Fa, Fb, S)
            assert rep.residuals[0] == pytest.approx(0.4)

    def test_conservative_rows_are_path_independent(self):
        L = MomentState(D=1, M=3, rho=1.4, u=np.array([0.3]),
                        p=np.array([[1.2]]), f={(3,): 0.05})
        R = MomentState(D=1, M=3, rho=1.0, u=np.array([0.0]),
                        p=np.array([[1.0]]), f={(3,): -0.02})
        FL, FR = to_conserved(L), to_conserved(R)
        S = shock_speed_from_mass(FL, FR)
        reports = [shock_check(FL, FR, S, path_steps=n) for n in (4, 32, 128)]
        for rep in reports[1:]:
            # conservative residuals involve no quadrature at all
            assert np.array_equal(rep.residuals[:-1], reports[0].residuals[:-1])
        # top-row quadrature converges
        assert abs(reports[2].residuals[-1] - reports[1].residuals[-1]) < 1e-12

    def test_two_dimensional_report_shape(self):
        rng = np.random.default_rng(77)
        L = random_state(rng, 2, 3, scale=0.05)
        R = random_state(rng, 2, 3, scale=0.05)
        FL, FR = to_conserved(L), to_conserved(R)
        rep = shock_check(FL, FR, 0.7)
        assert rep.residuals.shape == (FL.index_set.N,)
        assert np.isfinite(rep.residuals).all()


class TestHugoniotOracle:
    """tests/hugoniot_exact.py: Newton on the shock_check residuals."""

    def test_m3_pair(self):
        # the D=1 M=3 pair whose scheme shock is studied in ROADMAP item 7
        right = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        left, S = hugoniot_pair(1.5, right, (0.3, 1.2, -0.1, 0.8))
        rep = shock_check(to_conserved(left), to_conserved(right), S)
        assert np.max(np.abs(rep.residuals)) <= 1e-14
        assert rep.lax_per_root == (False, False, True, False)
        got = (left.u[0], left.p[0, 0], left.f[(3,)], S)
        np.testing.assert_allclose(got, (0.285773, 1.244998, -0.131217, 0.857318), atol=5e-7)

    @pytest.mark.parametrize("ratio", [1.2, 1.5, 1.8])
    def test_m2_reproduces_the_euler_shock(self, ratio):
        post, pre, S_exact = monatomic_shock(ratio=ratio)
        exact = (post.u[0], post.p[0, 0], S_exact)
        left, S = hugoniot_pair(ratio, pre, 0.8 * np.array(exact))
        np.testing.assert_allclose((left.u[0], left.p[0, 0], S), exact, rtol=1e-14, atol=1e-15)

    def test_m2_also_finds_the_stationary_contact(self):
        # at M=2 the residuals vanish on u = 0, p = p_right, S = 0 as well
        pre = equilibrium(1, 2, 1.0, [0.0], [[1.0]])
        left, S = hugoniot_pair(1.5, pre, (0.3, 1.5, 0.8))
        np.testing.assert_allclose((left.u[0], left.p[0, 0], S), (0.0, 1.0, 0.0), atol=1e-14)


class TestWaveTable:
    def test_rarefaction_rows(self):
        st = equilibrium(1, 3, 1.0, [0.1], [[1.0]])
        for C in (float(he_roots(4)[-1]), float(he_roots(4)[0])):
            field = classify_field(st, C)
            zeta = 0.3 if C > 0 else -0.3  # lambda rises left to right
            right = rarefaction_curve(st, field, zeta)
            wave = ElementaryWave(
                "rarefaction", st, right, field,
                (wave_speed(st, C), wave_speed(right, C)),
            )
            v = wave_table_check(wave)
            assert v.ok, v.relations

    def test_contact_row(self):
        a = equilibrium(1, 2, 1.0, [0.3], [[2.0]])
        b = equilibrium(1, 2, 2.0, [0.3], [[1.0]])
        field = classify_field(a, 0.0)
        assert contact_check(a, b, field).ok
        wave = ElementaryWave("contact", a, b, field, wave_speed(a, 0.0))
        assert wave_table_check(wave).ok

    def test_rejects_unknown_kind(self):
        st = equilibrium(1, 2, 1.0, [0.0], [[1.0]])
        field = classify_field(st, 0.0)
        wave = ElementaryWave("kink", st, st, field, 0.0)
        with pytest.raises(ValueError, match="unknown wave kind"):
            wave_table_check(wave)
