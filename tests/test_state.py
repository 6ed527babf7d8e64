"""Tests for moment states, conversions, and collision targets.

Oracles: tensor Gauss-Hermite quadrature rebuilds every integral the
conversion and collision code computes by recursion, so the two routes
are independent.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypermoment.hermite import AnisotropicBasis, gaussian_quadrature, ghe_table
from hypermoment.index import IndexSet, factorial, order, unit
from hypermoment.state import (
    AdmissibilityError,
    CollisionModel,
    ConservedMoments,
    MomentState,
    _target_covariance,
    collision_coeffs,
    collision_coeffs_batch,
    collision_target_covariance,
    equilibrium,
    from_conserved,
    from_conserved_batch,
    gaussian_raw_moments,
    heat_flux,
    moment_table,
    state_from_json,
    state_to_json,
    to_conserved,
)


def random_state(rng, D, M, scale=0.1):
    A = rng.normal(size=(D, D))
    p = A @ A.T + D * np.eye(D)
    f = {}
    s = IndexSet(D, M)
    for a in s.indices:
        if order(a) >= 3:
            f[a] = scale * rng.normal()
    return MomentState(
        D=D, M=M, rho=0.5 + rng.random(), u=rng.normal(size=D), p=p, f=f
    )


class TestMomentState:
    def test_packing_layout(self):
        st_ = MomentState(
            D=2, M=3, rho=2.0, u=[0.1, -0.2], p=[[3.0, 0.5], [0.5, 1.0]],
            f={(3, 0): 0.7},
        )
        s = st_.index_set
        w = st_.w
        assert w[0] == 2.0
        assert w[s.rank0((1, 0))] == 0.1
        assert w[s.rank0((0, 1))] == -0.2
        # diagonal pressure slots carry p_ii/2, off-diagonal p_ij
        assert w[s.rank0((2, 0))] == 1.5
        assert w[s.rank0((1, 1))] == 0.5
        assert w[s.rank0((0, 2))] == 0.5
        assert w[s.rank0((3, 0))] == 0.7

    @pytest.mark.parametrize(
        "u,p,message",
        [([0.0], np.eye(60), "velocity u must have 60 entries, got 1"),
         (np.zeros(60), [[1.0]], "pressure tensor p must have 60x60 entries, got 1")],
        ids=["u", "p"],
    )
    def test_sizes_are_checked_before_any_table(self, monkeypatch, u, p, message):
        # the layout tables of D=60, M=8 would enumerate every index of the set
        import hypermoment.state as state_mod

        def no_tables(D, M):
            raise AssertionError(f"layout tables built for D={D}, M={M}")

        monkeypatch.setattr(state_mod, "_packing", no_tables)
        with pytest.raises(ValueError, match=message):
            MomentState(D=60, M=8, rho=1.0, u=u, p=p, f={})

    def test_w_round_trip(self):
        rng = np.random.default_rng(0)
        for D, M in [(1, 4), (2, 3), (3, 4)]:
            st_ = random_state(rng, D, M)
            back = MomentState.from_w(D, M, st_.w)
            assert back.rho == st_.rho
            np.testing.assert_allclose(back.u, st_.u, rtol=0, atol=0)
            np.testing.assert_allclose(back.p, st_.p, rtol=0, atol=0)
            assert back.f == pytest.approx(st_.f)

    def test_w_reads_no_ranks(self, monkeypatch):
        rng = np.random.default_rng(41)
        random_state(rng, 3, 5).w  # compiles the layout tables of (3, 5)
        st_ = random_state(rng, 3, 5)
        calls = []
        real = IndexSet.rank0
        monkeypatch.setattr(IndexSet, "rank0", lambda self, a: calls.append(a) or real(self, a))
        w = st_.w
        assert calls == []
        for a, val in st_.f.items():
            assert w[real(st_.index_set, a)] == val

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        D=st.integers(min_value=1, max_value=3),
        M=st.integers(min_value=2, max_value=6),
    )
    def test_from_w_round_trip(self, data, D, M):
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        w = random_state(np.random.default_rng(seed), D, M, scale=0.3).w
        np.testing.assert_array_equal(MomentState.from_w(D, M, w).w, w)

    def test_from_w_keeps_its_vector(self):
        w = random_state(np.random.default_rng(5), 2, 5).w.copy()
        w[-1] = -0.0  # a packing from rho, u, p and f would write +0.0
        st_ = MomentState.from_w(2, 5, w)
        assert st_.w.tobytes() == w.tobytes()
        assert not st_.w.flags.writeable
        w[0] = 99.0  # the state holds a copy
        assert st_.w[0] == st_.rho != 99.0

    def test_direct_construction_packs_w(self):
        st_ = MomentState(D=1, M=4, rho=1.5, u=[0.2], p=[[0.9]], f={(3,): 0.1, (4,): -0.05})
        np.testing.assert_array_equal(st_.w, [1.5, 0.2, 0.45, 0.1, -0.05])
        assert not st_.w.flags.writeable

    def test_constraint_resolution(self):
        st_ = MomentState(D=2, M=4, rho=1.5, u=[0, 0], p=np.eye(2), f={(2, 2): 0.3})
        assert st_.f_value((0, 0)) == 1.5
        assert st_.f_value((1, 0)) == 0.0
        assert st_.f_value((1, 1)) == 0.0
        assert st_.f_value((2, 2)) == 0.3
        assert st_.f_value((4, 1)) == 0.0  # above closure order
        assert st_.f_value((-1, 2)) == 0.0

    def test_rejects_low_order_free_coeffs(self):
        with pytest.raises(ValueError):
            MomentState(D=2, M=3, rho=1.0, u=[0, 0], p=np.eye(2), f={(1, 1): 0.1})
        with pytest.raises(ValueError):
            MomentState(D=2, M=3, rho=1.0, u=[0, 0], p=np.eye(2), f={(4, 0): 0.1})

    def test_rejects_nonpositive_density(self):
        for rho in (0.0, -1.0):
            with pytest.raises(AdmissibilityError):
                MomentState(D=1, M=3, rho=rho, u=[0], p=[[1.0]], f={})

    def test_rejects_indefinite_pressure(self):
        with pytest.raises(AdmissibilityError) as ei:
            MomentState(
                D=2, M=3, rho=1.0, u=[0, 0], p=[[1.0, 2.0], [2.0, 1.0]], f={}
            )
        assert ei.value.eigenvalue is not None
        assert ei.value.eigenvalue <= 0

    def test_theta_scalar(self):
        st_ = MomentState(D=2, M=3, rho=2.0, u=[0, 0], p=[[3.0, 0.0], [0.0, 1.0]], f={})
        assert st_.theta == pytest.approx((3.0 + 1.0) / (2 * 2.0))

    def test_equilibrium_has_no_free_coeffs(self):
        eq = equilibrium(2, 4, 1.2, [0.3, 0.1], [[1.0, 0.2], [0.2, 0.8]])
        assert eq.f == {}
        np.testing.assert_allclose(eq.p, 1.2 * np.array([[1.0, 0.2], [0.2, 0.8]]))


class TestHeatFlux:
    def test_worked_example(self):
        # 2 f_{(3,0)} + f_{(3,0)} + f_{(1,2)} = 2 + 1 + 2
        st_ = MomentState(
            D=2, M=3, rho=1.0, u=[0, 0], p=np.eye(2), f={(3, 0): 1.0, (1, 2): 2.0}
        )
        q = heat_flux(st_)
        assert q[0] == pytest.approx(5.0)
        assert q[1] == pytest.approx(0.0)

    def test_one_dimensional(self):
        st_ = MomentState(D=1, M=4, rho=1.0, u=[0], p=[[2.0]], f={(3,): 0.5})
        assert heat_flux(st_)[0] == pytest.approx(1.5)

    def test_requires_third_order(self):
        st_ = MomentState(D=1, M=2, rho=1.0, u=[0], p=[[1.0]], f={})
        with pytest.raises(ValueError):
            heat_flux(st_)

    def test_quadrature_oracle(self):
        # q_i should equal half the centered third moment of the expansion
        rng = np.random.default_rng(3)
        st_ = random_state(rng, 2, 4, scale=0.05)
        pts, wts = gaussian_quadrature(st_.basis, 8)
        tab = ghe_table(st_.basis, pts, st_.M)
        dens = sum(st_.f_value(a) * tab[a] for a in st_.index_set.indices)
        csq = np.sum(pts**2, axis=1)
        q_ref = np.array(
            [np.sum(wts * dens * pts[:, i] * csq) / 2.0 for i in range(2)]
        )
        np.testing.assert_allclose(heat_flux(st_), q_ref, atol=1e-10)


class TestMomentTable:
    def test_against_quadrature(self):
        rng = np.random.default_rng(5)
        for D, M in [(1, 6), (2, 4), (3, 3)]:
            A = rng.normal(size=(D, D))
            Theta = A @ A.T + D * np.eye(D)
            s = IndexSet(D, M)
            m = moment_table(Theta, s)
            basis = AnisotropicBasis(Theta)
            pts, wts = gaussian_quadrature(basis, M + 3)
            tab = ghe_table(basis, pts, M)
            for a_rank, alpha in enumerate(s.indices):
                for b_rank, beta in enumerate(s.indices):
                    mono = np.prod(pts ** np.array(beta), axis=1)
                    ref = np.sum(wts * tab[alpha] * mono)
                    assert m[a_rank, b_rank] == pytest.approx(ref, abs=1e-9), (
                        alpha,
                        beta,
                    )

    def test_triangular_structure(self):
        s = IndexSet(2, 5)
        m = moment_table(np.array([[2.0, 0.4], [0.4, 1.0]]), s)
        for a_rank, alpha in enumerate(s.indices):
            for b_rank, beta in enumerate(s.indices):
                if order(alpha) > order(beta):
                    assert m[a_rank, b_rank] == 0.0
                elif order(alpha) == order(beta):
                    expect = factorial(alpha) if alpha == beta else 0.0
                    assert m[a_rank, b_rank] == pytest.approx(expect, abs=1e-12)


class TestConversions:
    def test_leading_moments(self):
        st_ = MomentState(D=1, M=3, rho=2.0, u=[0.3], p=[[1.7]], f={(3,): 0.2})
        C = to_conserved(st_)
        assert C.value((0,)) == pytest.approx(2.0)
        assert C.value((1,)) == pytest.approx(2.0 * 0.3)
        assert C.value((2,)) == pytest.approx((1.7 + 2.0 * 0.3**2) / 2)

    def test_quadrature_oracle(self):
        rng = np.random.default_rng(11)
        for D, M in [(1, 5), (2, 4)]:
            st_ = random_state(rng, D, M)
            C = to_conserved(st_)
            pts, wts = gaussian_quadrature(st_.basis, M + 3)
            tab = ghe_table(st_.basis, pts, M)
            dens = sum(st_.f_value(a) * tab[a] for a in st_.index_set.indices)
            xi = pts + st_.u
            for b_rank, beta in enumerate(st_.index_set.indices):
                mono = np.prod(xi ** np.array(beta), axis=1)
                ref = np.sum(wts * dens * mono) / factorial(beta)
                assert C.F[b_rank] == pytest.approx(ref, abs=1e-9), beta

    def test_linear_in_free_coeffs(self):
        base = MomentState(D=2, M=4, rho=1.3, u=[0.2, -0.4], p=[[1.5, 0.2], [0.2, 0.9]], f={})
        bump = {(3, 0): 0.3, (1, 2): -0.1, (2, 2): 0.05}
        one = base.replace(f=bump)
        two = base.replace(f={k: 2 * v for k, v in bump.items()})
        d1 = to_conserved(one).F - to_conserved(base).F
        d2 = to_conserved(two).F - to_conserved(base).F
        np.testing.assert_allclose(d2, 2 * d1, rtol=1e-12, atol=1e-14)

    def test_round_trip_fixed(self):
        rng = np.random.default_rng(23)
        for D, M in [(1, 6), (2, 5), (3, 4)]:
            st_ = random_state(rng, D, M, scale=0.3)
            back = from_conserved(to_conserved(st_))
            assert back.rho == pytest.approx(st_.rho, rel=1e-12)
            np.testing.assert_allclose(back.u, st_.u, atol=1e-12)
            np.testing.assert_allclose(back.p, st_.p, atol=1e-12)
            for a in st_.index_set.indices:
                assert back.f_value(a) == pytest.approx(
                    st_.f_value(a), rel=1e-10, abs=1e-12
                )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        D=st.integers(min_value=1, max_value=3),
        M=st.integers(min_value=2, max_value=6),
    )
    def test_round_trip_property(self, data, D, M):
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        st_ = random_state(rng, D, M, scale=0.2)
        back = from_conserved(to_conserved(st_))
        np.testing.assert_allclose(back.w, st_.w, rtol=1e-9, atol=1e-12)

    def test_from_conserved_rejects_bad_density(self):
        s = IndexSet(1, 3)
        F = np.zeros(s.N)
        F[0] = -0.5
        with pytest.raises(AdmissibilityError):
            from_conserved(F, 1, 3)

    def test_from_conserved_rejects_bad_scale(self):
        # second moment below u^2 rho / 2 makes the implied pressure negative
        st_ = MomentState(D=1, M=3, rho=1.0, u=[0.5], p=[[1.0]], f={})
        F = to_conserved(st_).F.copy()
        s = st_.index_set
        F[s.rank0((2,))] = 0.1  # < rho u^2 / 2
        with pytest.raises(AdmissibilityError) as ei:
            from_conserved(F, 1, 3)
        assert ei.value.eigenvalue is not None

    def test_conserved_length_checked(self):
        with pytest.raises(ValueError):
            from_conserved(np.ones(3), 1, 3)

    def test_overflow_in_the_solve_names_its_cell(self):
        # F[1, 3] - (terms of the orders below) overflows in the order-3
        # solve; with warnings raised as errors the overflow must not hide
        # the admissibility error that names the row
        st_ = equilibrium(1, 4, 1.0, [0.5], [[1.0]])
        F = np.tile(to_conserved(st_).F, (3, 1))
        F[1, 3], F[1, 4] = -1.7e308, 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AdmissibilityError, match="non-finite") as ei:
                from_conserved_batch(F, 1, 4)
        assert ei.value.cell == 1


class TestCollision:
    def test_model_validation(self):
        assert CollisionModel(nu=1.0).b == 0.0
        assert CollisionModel(nu=1.0, kind="es-bgk", Pr=2.0).b == pytest.approx(0.5)
        with pytest.raises(ValueError):
            CollisionModel(nu=-1.0)
        with pytest.raises(ValueError):
            CollisionModel(nu=1.0, kind="bgk", Pr=0.7)
        with pytest.raises(ValueError):
            CollisionModel(nu=1.0, kind="es-bgk", Pr=0.5)  # b < -1/2
        with pytest.raises(ValueError):
            CollisionModel(nu=1.0, kind="fokker-planck")

    def test_target_covariance(self):
        st_ = MomentState(D=2, M=3, rho=1.0, u=[0, 0], p=[[2.0, 0.3], [0.3, 1.0]], f={})
        mod = CollisionModel(nu=1.0, kind="es-bgk", Pr=1.5)
        Lam = collision_target_covariance(st_, mod)
        b = mod.b
        ref = b * st_.theta_tensor + (1 - b) * st_.theta * np.eye(2)
        np.testing.assert_allclose(Lam, ref)

    def test_gaussian_moments_isserlis(self):
        Lam = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = IndexSet(2, 6)
        mu = gaussian_raw_moments(Lam, s)
        r = s.rank0
        assert mu[r((2, 0))] == pytest.approx(Lam[0, 0])
        assert mu[r((1, 1))] == pytest.approx(Lam[0, 1])
        assert mu[r((4, 0))] == pytest.approx(3 * Lam[0, 0] ** 2)
        assert mu[r((2, 2))] == pytest.approx(
            Lam[0, 0] * Lam[1, 1] + 2 * Lam[0, 1] ** 2
        )
        assert mu[r((6, 0))] == pytest.approx(15 * Lam[0, 0] ** 3)
        assert mu[r((3, 1))] == pytest.approx(3 * Lam[0, 0] * Lam[0, 1])
        for alpha in s.indices:
            if order(alpha) % 2 == 1:
                assert mu[r(alpha)] == 0.0

    def test_second_order_closed_form(self):
        st_ = MomentState(
            D=2, M=4, rho=1.5, u=[0.1, -0.2], p=[[2.0, 0.3], [0.3, 1.0]],
            f={(3, 0): 0.05},
        )
        mod = CollisionModel(nu=2.0, kind="es-bgk", Pr=0.75)
        G = collision_coeffs(st_, mod)
        s = st_.index_set
        b = mod.b
        pbar = st_.rho * st_.theta
        for i in range(2):
            for j in range(i, 2):
                ij = tuple(
                    unit(2, i + 1)[k] + unit(2, j + 1)[k] for k in range(2)
                )
                expect = (1 - b) * ((pbar if i == j else 0.0) - st_.p[i, j]) / (
                    1 + (i == j)
                )
                assert G[s.rank0(ij)] == pytest.approx(expect, abs=1e-13)
        # trace of the order-2 targets vanishes
        tr = G[s.rank0((2, 0))] + G[s.rank0((0, 2))]
        assert tr == pytest.approx(0.0, abs=1e-13)

    def test_odd_orders_vanish(self):
        rng = np.random.default_rng(17)
        st_ = random_state(rng, 2, 5)
        G = collision_coeffs(st_, CollisionModel(nu=1.0, kind="es-bgk", Pr=0.8))
        for k, alpha in enumerate(st_.index_set.indices):
            if order(alpha) % 2 == 1:
                assert G[k] == 0.0

    def test_projection_identity(self):
        # raw moments of the truncated target expansion must reproduce the
        # Gaussian moments exactly, with both sides built by quadrature
        rng = np.random.default_rng(29)
        for D, M in [(1, 6), (2, 4)]:
            st_ = random_state(rng, D, M)
            mod = CollisionModel(nu=1.0, kind="es-bgk", Pr=0.9)
            G = collision_coeffs(st_, mod)
            Lam = collision_target_covariance(st_, mod)
            s = st_.index_set

            pts, wts = gaussian_quadrature(st_.basis, M + 3)
            tab = ghe_table(st_.basis, pts, M)
            target = sum(G[k] * tab[a] for k, a in enumerate(s.indices))

            gbasis = AnisotropicBasis(Lam)
            gpts, gwts = gaussian_quadrature(gbasis, M + 3)
            for beta in s.indices:
                lhs = np.sum(wts * target * np.prod(pts ** np.array(beta), axis=1))
                rhs = st_.rho * np.sum(gwts * np.prod(gpts ** np.array(beta), axis=1))
                assert lhs == pytest.approx(rhs, abs=1e-9), beta

    def test_bgk_isotropic_fixed_point(self):
        eq = equilibrium(2, 5, 1.2, [0.4, -0.1], 0.9 * np.eye(2))
        G = collision_coeffs(eq, CollisionModel(nu=3.0))
        fvec = np.array([eq.f_value(a) for a in eq.index_set.indices])
        np.testing.assert_array_equal(G, fvec)

    def test_target_stays_positive_across_valid_range(self):
        # for b in [-1/2, 1] and positive definite scale tensor the target
        # covariance is positive definite, so the guard is defensive only
        st_ = MomentState(D=2, M=3, rho=1.0, u=[0, 0], p=[[100.0, 0], [0, 1e-6]], f={})
        for Pr in (2.0 / 3.0, 0.8, 1.0, 2.0, 50.0):
            mod = CollisionModel(nu=1.0, kind="es-bgk", Pr=Pr)
            Lam = collision_target_covariance(st_, mod)
            assert np.linalg.eigvalsh(Lam)[0] > 0

    @settings(max_examples=300, deadline=None)
    @given(
        D=st.integers(min_value=1, max_value=3),
        Pr=st.one_of(st.sampled_from([2.0 / 3.0, 1.0, 1e12]), st.floats(2.0 / 3.0, 1e6)),
        exps=st.lists(st.floats(-6.0, 0.0), min_size=3, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # b = -1/2 at D = 3 with the two smaller eigenvalues equal is the case
    # of equality, lambda_min(Lambda) = lambda_min(Theta)
    @example(D=3, Pr=2.0 / 3.0, exps=[0.0, -6.0, -6.0], seed=0)
    def test_target_keeps_trace_and_smallest_eigenvalue(self, D, Pr, exps, seed):
        # the reason collision_coeffs_batch does not check the target at
        # D <= 3: Lambda = b Theta + (1 - b) theta I has the trace of Theta
        # and, for b in [-1/2, 1], no smaller eigenvalue. eigvalsh itself
        # errs by about eps |Theta|, 1e-10 of a smallest eigenvalue at 1e-6
        # of the trace, hence the 4 eps tr(Theta) allowance
        Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(D, D)))
        Theta = (Q * 10.0 ** np.array(exps[:D])) @ Q.T
        Theta = 0.5 * (Theta + Theta.T)
        model = CollisionModel(kind="es-bgk", Pr=Pr)
        Lam = _target_covariance(np.ones(1), Theta[None], D, model)[0]
        tr = np.trace(Theta)
        assert np.trace(Lam) == pytest.approx(tr, rel=1e-12)
        lo = np.linalg.eigvalsh(Theta)[0]
        assert np.linalg.eigvalsh(Lam)[0] >= lo * (1.0 - 1e-12) - 4.0 * np.finfo(float).eps * tr

    def test_target_checked_where_the_bound_fails(self):
        # D = 4 and b = -1/2 < -1/(D - 1): Lambda_11 = -5 + 1.5 * 2.575 < 0
        st_ = equilibrium(4, 3, 1.0, np.zeros(4), np.diag([10.0, 0.1, 0.1, 0.1]))
        mod = CollisionModel(nu=1.0, kind="es-bgk", Pr=2.0 / 3.0)
        assert np.linalg.eigvalsh(_target_covariance(np.ones(1), st_.p[None], 4, mod)[0])[0] < 0
        with pytest.raises(AdmissibilityError, match="collision target covariance") as err:
            collision_coeffs_batch(st_.w[None], 4, 3, mod)
        assert err.value.cell == 0


class TestJson:
    def test_round_trip(self):
        st_ = MomentState(
            D=2, M=4, rho=1.5, u=[0.1, -0.2], p=[[2.0, 0.3], [0.3, 1.0]],
            f={(3, 0): 0.05, (2, 2): -0.01},
        )
        back = state_from_json(state_to_json(st_))
        assert back.rho == st_.rho
        assert np.array_equal(back.u, st_.u)
        assert np.array_equal(back.p, st_.p)
        assert back.f == st_.f

    def test_schema_fields(self):
        st_ = MomentState(D=1, M=3, rho=2.0, u=[0.5], p=[[1.0]], f={(3,): 0.1})
        doc = json.loads(state_to_json(st_))
        assert set(doc) == {"D", "M", "rho", "u", "p", "f"}
        assert doc["f"] == {"3": 0.1}
        assert doc["p"] == [[1.0]]

    def test_unspecified_coeffs_default_to_zero(self):
        doc = {"D": 2, "M": 4, "rho": 1.0, "u": [0, 0], "p": [[1, 0], [0, 1]]}
        st_ = state_from_json(json.dumps(doc))
        assert st_.f == {}

    def test_missing_field_raises(self):
        with pytest.raises(ValueError):
            state_from_json(json.dumps({"D": 1, "M": 3, "rho": 1.0, "u": [0]}))

    def test_inadmissible_json_raises(self):
        doc = {"D": 1, "M": 3, "rho": -1.0, "u": [0], "p": [[1.0]], "f": {}}
        with pytest.raises(AdmissibilityError):
            state_from_json(json.dumps(doc))
