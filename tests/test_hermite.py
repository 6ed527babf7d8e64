import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermoment import hermite as H
from hypermoment.index import factorial, unit


def rand_spd(rng, D, scale=1.0):
    A = rng.normal(size=(D, D))
    return scale * (A @ A.T + D * np.eye(D))


class TestScalarEval:
    def test_order_two_unit_scale(self):
        for x in (-2.0, 0.0, 0.5, 3.0):
            assert H.he_eval(2, 1.0, x) == pytest.approx(x * x - 1.0)

    def test_order_one_scaling(self):
        for theta in (0.5, 1.0, 3.7):
            assert H.he_eval(1, theta, 2.0) == pytest.approx(2.0 / theta)

    def test_order_four_at_zero(self):
        assert H.he_eval(4, 1.0, 0.0) == pytest.approx(3.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            H.he_eval(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            H.he_eval(2, -1.0, 1.0)

    @given(
        n=st.integers(0, 30),
        theta=st.floats(0.1, 10.0),
        x=st.floats(-10.0, 10.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_recurrence_residual(self, n, theta, x):
        up = H.he_eval(n + 1, theta, x)
        expect = (x * H.he_eval(n, theta, x) - n * H.he_eval(n - 1, theta, x) / 1.0) / theta if n else x / theta
        scale = max(1.0, abs(up), abs(expect))
        assert abs(up - expect) <= 1e-10 * scale

    @given(n=st.integers(0, 25), x=st.floats(-8.0, 8.0), theta=st.floats(0.2, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_parity(self, n, x, theta):
        a = H.he_eval(n, theta, x)
        b = H.he_eval(n, theta, -x)
        scale = max(1.0, abs(a))
        assert abs(b - (-1.0) ** n * a) <= 1e-10 * scale

    def test_monic_matches_scaled_by_power(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(0, 12)
            theta = float(rng.uniform(0.3, 4.0))
            x = float(rng.uniform(-5, 5))
            assert H.he_monic_eval(n, theta, x) == pytest.approx(
                theta**n * H.he_eval(n, theta, x), rel=1e-12
            )

    def test_monic_scaling_identity(self):
        # monic value is theta^(n/2) times the unit polynomial at x/sqrt(theta)
        for n, theta, x in ((3, 2.0, 1.1), (5, 0.7, -2.3), (4, 3.0, 0.0)):
            expect = theta ** (n / 2) * H.he_eval(n, 1.0, x / math.sqrt(theta))
            assert H.he_monic_eval(n, theta, x) == pytest.approx(expect, rel=1e-12)


class TestRoots:
    def test_small_orders(self):
        assert np.allclose(H.he_roots(2), [-1.0, 1.0])
        assert np.allclose(H.he_roots(3), [-math.sqrt(3), 0.0, math.sqrt(3)])

    def test_odd_orders_contain_zero(self):
        for n in (1, 3, 5, 7, 9):
            assert 0.0 in H.he_roots(n)

    def test_even_orders_avoid_zero(self):
        for n in (2, 4, 6, 8):
            assert np.min(np.abs(H.he_roots(n))) > 0.1

    def test_roots_annihilate(self):
        for n in (2, 5, 9, 14, 20):
            r = H.he_roots(n)
            vals = H.he_eval(n, 1.0, r)
            # normalize by the local derivative so the residual is a root shift
            deriv = n * H.he_eval(n - 1, 1.0, r)
            assert np.max(np.abs(vals / deriv)) < 1e-12

    def test_strictly_increasing_and_symmetric(self):
        for n in (2, 3, 8, 15):
            r = H.he_roots(n)
            assert np.all(np.diff(r) > 0)
            assert np.allclose(r, -r[::-1], atol=1e-12)

    def test_interlacing(self):
        for n in range(1, 30):
            lo = H.he_roots(n)
            hi = H.he_roots(n + 1)
            assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])


    @pytest.mark.parametrize("n", [*range(2, 21), 64, 128, 199, 200])
    def test_match_mpmath_at_50_digits(self, n):
        # two Newton steps on the three-term recurrence at 50 digits from
        # each double root: He_n' = n He_{n-1}, so the step is
        # He_n / (n He_{n-1})
        mp = pytest.importorskip("mpmath")
        r = H.he_roots(n)
        assert np.all(np.diff(r) > 0)
        with mp.workdps(50):
            for x0 in r:
                x = mp.mpf(float(x0))
                for _ in range(2):
                    prev, cur = mp.mpf(1), x
                    for k in range(1, n):
                        prev, cur = cur, x * cur - k * prev
                    x -= cur / (n * prev)
                assert abs(float(x - x0)) <= 1e-14 * max(1.0, abs(x0))


class TestRootTable:
    def test_rows_are_he_roots(self):
        roots, orders = H._root_table(200)
        assert np.array_equal(orders, np.repeat(np.arange(1, 201), np.arange(1, 201)))
        for n in range(1, 201):
            assert np.array_equal(roots[orders == n], H.he_roots(n))

    def test_lower_orders_start_later(self):
        # a table from n_min holds the same rows as the full one
        full, orders = H._root_table(40)
        part, part_orders = H._root_table(40, 25)
        assert np.array_equal(part, full[orders >= 25])
        assert np.array_equal(part_orders, orders[orders >= 25])

    def test_rows_are_exactly_antisymmetric(self):
        roots, orders = H._root_table(400)
        for n in range(1, 401):
            r = roots[orders == n]
            assert np.array_equal(r, -r[::-1])

    def test_rows_interlace_up_to_400(self):
        roots, orders = H._root_table(400)
        rows = np.split(roots, np.cumsum(np.arange(1, 400)))
        for lo, hi in zip(rows[:-1], rows[1:]):
            assert np.all(np.diff(hi) > 0)
            assert np.all(hi[:-1] < lo) and np.all(lo < hi[1:])

    def test_newton_step_is_round_off_up_to_400(self):
        # He_n / (n He_{n-1}) at every entry from the unit-scale recurrence,
        # rescaled by the larger magnitude after every step to stay in range
        roots, orders = H._root_table(400)
        prev, cur = np.zeros_like(roots), np.ones_like(roots)
        for k in range(400):
            run = orders > k
            p, q = cur[run], roots[run] * cur[run] - k * prev[run]
            m = np.maximum(np.abs(p), np.abs(q))
            prev[run], cur[run] = p / m, q / m
        step = np.abs(cur / (orders * prev))
        assert np.all(step <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(roots)))


class TestAnisotropic:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_basis_validation(self):
        with pytest.raises(ValueError):
            H.AnisotropicBasis([[1.0, 2.0], [0.0, 1.0]])  # not symmetric
        with pytest.raises(ValueError):
            H.AnisotropicBasis([[1.0, 2.0], [2.0, 1.0]])  # indefinite

    def test_order_zero(self):
        b = H.AnisotropicBasis(rand_spd(self.rng, 3))
        x = self.rng.normal(size=3)
        assert H.ghe_eval((0, 0, 0), b, x) == pytest.approx(1.0)

    def test_order_one_is_transformed_coordinate(self):
        b = H.AnisotropicBasis(rand_spd(self.rng, 2))
        x = self.rng.normal(size=2)
        X = b.ThetaInv @ x
        assert H.ghe_eval((1, 0), b, x) == pytest.approx(X[0])
        assert H.ghe_eval((0, 1), b, x) == pytest.approx(X[1])

    def test_order_two_closed_form(self):
        b = H.AnisotropicBasis(rand_spd(self.rng, 2))
        x = self.rng.normal(size=2)
        X = b.ThetaInv @ x
        Ti = b.ThetaInv
        assert H.ghe_eval((1, 1), b, x) == pytest.approx(X[0] * X[1] - Ti[0, 1])
        assert H.ghe_eval((2, 0), b, x) == pytest.approx(X[0] ** 2 - Ti[0, 0])

    def test_order_three_closed_form(self):
        b = H.AnisotropicBasis(rand_spd(self.rng, 3))
        x = self.rng.normal(size=3)
        X = b.ThetaInv @ x
        Ti = b.ThetaInv
        # all three axes distinct
        expect = (
            X[0] * X[1] * X[2]
            - X[0] * Ti[1, 2]
            - X[1] * Ti[0, 2]
            - X[2] * Ti[0, 1]
        )
        assert H.ghe_eval((1, 1, 1), b, x) == pytest.approx(expect)

    def test_void_index_is_zero(self):
        b = H.AnisotropicBasis(np.eye(2))
        assert np.all(H.ghe_eval((-1, 0), b, np.zeros(2)) == 0.0)

    def test_reduces_to_scalar_family_in_1d(self):
        theta = 2.3
        b = H.AnisotropicBasis([[theta]])
        for n in range(7):
            for x in (-1.7, 0.0, 2.2):
                assert H.ghe_eval((n,), b, np.array([x])) == pytest.approx(
                    H.he_eval(n, theta, x), rel=1e-12, abs=1e-12
                )

    def test_differential_relation_matches_fd(self):
        # derivative of the polynomial: sum_j thetainv[i,j] alpha_j He_{alpha-e_j}
        rng = np.random.default_rng(11)
        cases = [
            (2, (3, 2)), (2, (1, 4)), (3, (2, 1, 1)), (3, (0, 3, 3)), (1, (6,)),
        ]
        h = 1e-5
        for D, alpha in cases:
            b = H.AnisotropicBasis(rand_spd(rng, D))
            x = rng.normal(size=D)
            for i in range(D):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd = (H.ghe_eval(alpha, b, xp) - H.ghe_eval(alpha, b, xm)) / (2 * h)
                analytic = 0.0
                for j in range(D):
                    if alpha[j] == 0:
                        continue
                    down = tuple(a - (1 if k == j else 0) for k, a in enumerate(alpha))
                    analytic += b.ThetaInv[i, j] * alpha[j] * H.ghe_eval(down, b, x)
                scale = max(1.0, abs(analytic))
                assert abs(fd - analytic) <= 1e-6 * scale

    def test_raising_recurrence_identity(self):
        # x_d He_alpha == sum_j Theta[d,j] He_{alpha+e_j} + alpha_d He_{alpha-e_d}
        rng = np.random.default_rng(13)
        for D, alpha in ((2, (2, 1)), (3, (1, 1, 2)), (2, (0, 4))):
            b = H.AnisotropicBasis(rand_spd(rng, D))
            x = rng.normal(size=D)
            table = H.ghe_table(b, x, sum(alpha) + 1)
            for d in range(D):
                rhs = 0.0
                for j in range(D):
                    up = tuple(a + (1 if k == j else 0) for k, a in enumerate(alpha))
                    rhs += b.Theta[d, j] * table[up]
                if alpha[d] > 0:
                    down = tuple(a - (1 if k == d else 0) for k, a in enumerate(alpha))
                    rhs += alpha[d] * table[down]
                assert x[d] * table[alpha] == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestWeightedFunctions:
    def test_weight_at_origin(self):
        T = rand_spd(np.random.default_rng(17), 2)
        b = H.AnisotropicBasis(T)
        expect = 1.0 / math.sqrt(np.linalg.det(2 * math.pi * T))
        assert H.ghf_eval((0, 0), b, np.zeros(2)) == pytest.approx(expect)

    def test_gaussian_decay(self):
        b = H.AnisotropicBasis(np.eye(2))
        far = np.array([30.0, -25.0])
        assert abs(H.ghf_eval((3, 2), b, far)) < 1e-50

    def test_derivative_is_negative_raised_function(self):
        rng = np.random.default_rng(19)
        b = H.AnisotropicBasis(rand_spd(rng, 2))
        x = rng.normal(size=2)
        h = 1e-5
        for alpha in ((0, 0), (1, 1), (2, 0)):
            for i in range(2):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd = (H.ghf_eval(alpha, b, xp) - H.ghf_eval(alpha, b, xm)) / (2 * h)
                up = tuple(a + (1 if k == i else 0) for k, a in enumerate(alpha))
                expect = -H.ghf_eval(up, b, x)
                assert fd == pytest.approx(expect, rel=1e-6, abs=1e-8)


class TestQuadratureChecks:
    def test_diagonal_order_zero(self):
        b = H.AnisotropicBasis(rand_spd(np.random.default_rng(23), 2))
        assert H.quasi_orthogonality_check((0, 0), (0, 0), b) == pytest.approx(1.0)

    def test_cross_order_vanishes(self):
        rng = np.random.default_rng(29)
        for D in (1, 2, 3):
            b = H.AnisotropicBasis(rand_spd(rng, D))
            pairs = [((1,) + (0,) * (D - 1), (0,) * D)]
            pairs.append(((2,) + (0,) * (D - 1), (1,) + (0,) * (D - 1)))
            if D >= 2:
                pairs.append(((1, 1) + (0,) * (D - 2), (0, 1) + (0,) * (D - 2)))
            for a, bb in pairs:
                assert abs(H.quasi_orthogonality_check(a, bb, b)) <= 1e-9

    def test_quasi_orthogonality_full_battery(self):
        rng = np.random.default_rng(31)
        for D in (1, 2, 3):
            b = H.AnisotropicBasis(rand_spd(rng, D))
            from itertools import product
            idx = [a for a in product(range(6), repeat=D) if sum(a) <= 5]
            for a in idx[:: max(1, len(idx) // 12)]:
                for bb in idx[:: max(1, len(idx) // 12)]:
                    if sum(a) != sum(bb):
                        v = H.quasi_orthogonality_check(a, bb, b)
                        assert abs(v) <= 1e-9, (a, bb, v)

    def test_classical_1d_norm(self):
        b = H.AnisotropicBasis([[1.0]])
        for n in range(6):
            assert H.quasi_orthogonality_check((n,), (n,), b) == pytest.approx(
                math.factorial(n), rel=1e-9
            )

    def test_integral_relation_diagonal(self):
        b = H.AnisotropicBasis(rand_spd(np.random.default_rng(37), 2))
        assert H.integral_relation_check((0, 0), (0, 0), b) == pytest.approx(1.0)
        v = H.integral_relation_check((2, 1), (2, 1), b, shift=[0.4, -1.2])
        assert v == pytest.approx(factorial((2, 1)), rel=1e-9)

    def test_integral_relation_off_diagonal_and_low_order(self):
        b = H.AnisotropicBasis(rand_spd(np.random.default_rng(41), 2))
        for shift in (None, [1.0, 2.0]):
            assert abs(H.integral_relation_check((2, 1), (1, 2), b, shift=shift)) <= 1e-9
            assert abs(H.integral_relation_check((2, 1), (1, 0), b, shift=shift)) <= 1e-9

    def test_small_npts_raised_to_exact(self):
        b = H.AnisotropicBasis(rand_spd(np.random.default_rng(47), 2))
        for check in (H.quasi_orthogonality_check, H.integral_relation_check):
            assert check((2, 1), (2, 1), b, npts=1) == pytest.approx(check((2, 1), (2, 1), b), rel=1e-12)
        assert H.integral_relation_check((2, 1), (2, 1), b, npts=1) == pytest.approx(2.0, rel=1e-12)

    def test_shift_independence(self):
        b = H.AnisotropicBasis(rand_spd(np.random.default_rng(43), 2))
        v0 = H.integral_relation_check((1, 2), (1, 2), b, shift=None)
        v1 = H.integral_relation_check((1, 2), (1, 2), b, shift=[3.0, -2.0])
        assert v0 == pytest.approx(v1, rel=1e-9)


class TestConjectureScan:
    def test_small_scan_empty(self):
        assert H.common_zero_scan(10) == []

    def test_shared_zero_root_not_flagged(self):
        # orders 3 and 5 share the root 0, excluded by the nonzero restriction
        assert H.common_zero_scan(5) == []

    def test_distances_positive(self):
        ds = [d for _, _, _, d in H.cross_order_root_distances(12)]
        assert min(ds) > 1e-6

    def test_rejects_tiny_cap(self):
        with pytest.raises(ValueError):
            H.common_zero_scan(1)
