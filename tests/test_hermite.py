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


def _reference_root_seeds(n, k):
    """Both asymptotic seeds on every entry, then a choice per entry."""
    h = n // 2
    nu = 2.0 * n + 1.0
    rhs = np.pi * (4 * (h - k) + 3) / nu
    T = np.full(rhs.shape, np.pi / 2)
    for _ in range(7):
        T -= (T - np.sin(T) - rhs) / (1.0 - np.cos(T))
    s = np.sin(T / 2) ** 2
    tricomi = nu * (1.0 - s) - (5.0 / (4.0 * s * s) - 1.0 / s - 0.25) / (3.0 * nu)
    j = h + 1 - k
    return np.sqrt(2.0 * np.where(4 * j * j <= n, _reference_gatteschi(nu, j), tricomi))


def _reference_gatteschi(nu, j):
    """Gatteschi's series written per entry, with the Airy zero a_j from the
    table for j <= 10 and from its expansion beyond."""
    a = H._AIRY_ZEROS[np.minimum(j, H._AIRY_ZEROS.size) - 1]
    far = j > H._AIRY_ZEROS.size
    t = 3.0 * np.pi / 8.0 * (4 * j[far] - 1)
    a[far] = -(t ** (2 / 3)) * (
        1 + 5 / 48 * t**-2 - 5 / 36 * t**-4 + 77125 / 82944 * t**-6
        - 108056875 / 6967296 * t**-8 + 162375596875 / 334430208 * t**-10
    )
    return (
        nu + 2 ** (2 / 3) * a * nu ** (1 / 3) + 2 ** (4 / 3) / 5 * a**2 * nu ** (-1 / 3)
        + (11 / 35 - 0.25 - 12 / 175 * a**3) / nu
        + (16 / 1575 * a + 92 / 7875 * a**4) * 2 ** (2 / 3) * nu ** (-5 / 3)
        - (15152 / 3031875 * a**5 + 1088 / 121275 * a**2) * 2 ** (1 / 3) * nu ** (-7 / 3)
    )


def _reference_newton_step(x, orders):
    """P_n / (n P_{n-1}) with the pair rescaled after every recurrence step."""
    prev, cur = np.zeros_like(x), np.ones_like(x)
    for k, j in enumerate(np.searchsorted(orders, np.arange(orders.max(initial=0)), side="right")):
        p, q = cur[j:], x[j:] * cur[j:] - k * prev[j:]
        e = -np.frexp(np.maximum(np.abs(q), np.abs(p)))[1]
        prev[j:], cur[j:] = np.ldexp(p, e), np.ldexp(q, e)
    return cur / (orders * prev)


def _reference_root_table(monkeypatch, n_max, n_min=1):
    """_root_table's roots on the reference seeds and Newton steps."""
    with monkeypatch.context() as m:
        m.setattr(H, "_root_seeds", _reference_root_seeds)
        m.setattr(H, "_newton_step", _reference_newton_step)
        return H._root_table(n_max, n_min)[0]


class TestRootTableOracle:
    """The root table is bit for bit that of per-step rescaling and of both
    seed formulas evaluated on every entry."""

    def test_seeds_and_newton_step_up_to_400(self):
        ns = np.arange(1, 401)
        h = ns // 2
        orders = np.repeat(ns, h)
        k = np.arange(orders.size) - np.repeat(np.cumsum(h) - h, h) + 1
        seeds = H._root_seeds(orders, k)
        assert np.array_equal(seeds, _reference_root_seeds(orders, k))
        assert np.array_equal(H._newton_step(seeds, orders), _reference_newton_step(seeds, orders))

    def test_seeds_from_401_to_800(self):
        # Gatteschi's far-index branch, j > 10, first seeds order 484
        ns = np.arange(401, 801)
        h = ns // 2
        orders = np.repeat(ns, h)
        k = np.arange(orders.size) - np.repeat(np.cumsum(h) - h, h) + 1
        j = np.repeat(h, h) + 1 - k
        assert np.count_nonzero((4 * j * j <= orders) & (j > H._AIRY_ZEROS.size)) == 684
        assert np.array_equal(H._root_seeds(orders, k), _reference_root_seeds(orders, k))
        # a shuffled stack with repeated orders and Airy indices
        rng = np.random.default_rng(7)
        nu = 2.0 * rng.integers(1, 900, 600) + 1.0
        j = rng.integers(1, 15, 600)
        got = H._gatteschi(nu, j)
        assert len(np.unique(nu)) < nu.size and set(j.tolist()) == set(range(1, 15))
        assert np.array_equal(got, _reference_gatteschi(nu, j))

    def test_table_up_to_400(self, monkeypatch):
        assert np.array_equal(H._root_table(400)[0], _reference_root_table(monkeypatch, 400))

    @pytest.mark.parametrize("n", [500, 1000, 2000])
    def test_high_orders(self, monkeypatch, n):
        # 32 unrescaled steps grow the pair by up to (n + 2 sqrt(n))^32
        roots = H.he_roots(n)
        assert np.isfinite(roots).all()
        assert np.array_equal(roots, _reference_root_table(monkeypatch, n, n))

    def test_rescale_bound_at_order_10000(self, monkeypatch):
        # 32 unrescaled steps stay within (n + 2 sqrt(n))^32, about 1.9e128,
        # and above the subnormal range
        roots = H.he_roots(10000)
        assert np.isfinite(roots).all()
        assert np.array_equal(roots, _reference_root_table(monkeypatch, 10000, 10000))


def _two_newton_passes(x, orders):
    """The polish without Halley's step: two Newton passes at every order and
    three more at orders <= 24."""
    for _ in range(2):
        x = x - _reference_newton_step(x, orders)
    small = orders <= 24
    for _ in range(3):
        x[small] -= _reference_newton_step(x[small], orders[small])
    return x


class TestHalleyPass:
    """Orders <= 120 keep the Newton polish bit for bit; above, the Halley
    step lands on the roots to round-off. Neither oracle shares the pass
    structure of ``_positive_roots``."""

    def test_orders_up_to_120_are_two_newton_passes(self):
        x, orders = H._positive_roots(120)
        k = np.arange(orders.size) - np.searchsorted(orders, orders) + 1
        ref = _two_newton_passes(_reference_root_seeds(orders, k), orders)
        assert np.array_equal(x, ref)

    @pytest.mark.parametrize("n", [121, 122, 150, 300, 400])
    def test_match_mpmath_at_50_digits(self, n):
        # two Newton steps at 50 digits from each double root
        mp = pytest.importorskip("mpmath")
        x, _ = H._positive_roots(n, n)
        eps = np.finfo(float).eps
        with mp.workdps(50):
            for x0 in x.tolist():
                r = mp.mpf(x0)
                for _ in range(2):
                    prev, cur = mp.mpf(1), r
                    for k in range(1, n):
                        prev, cur = cur, r * cur - k * prev
                    r -= cur / (n * prev)
                assert abs(float(r - mp.mpf(x0))) <= 2 * eps * max(1.0, x0)


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

    def test_no_root_near_unit_magnitude_up_to_400(self):
        # riemann._fan_curves divides by C^2 - 1 for every nonzero root C of
        # a top family He_(M+1), M >= 2; only He_2 has the roots +-1
        roots, _ = H._root_table(400, 3)
        assert np.min(np.abs(np.abs(roots) - 1.0)) > 1e-4

    def test_positive_roots_are_distinct_up_to_400(self):
        # root_gap_scan sorts with the default, unstable argsort: on distinct
        # values every sort gives the same order
        roots, _ = H._positive_roots(400)
        assert np.unique(roots).size == roots.size

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
