"""Tests for the closed-form spectral machinery.

Oracles: determinant evaluation at random points for the characteristic
polynomial, numpy eigensolves for spectra and eigenvectors, a root sweep of
the quartic for the loss-of-reality threshold, and the closed-form block
eigenvector formulas checked against the forward-substitution constructor.
"""

import math
import re
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest

from hypermoment.assembly import assemble, directional, regularize
from hypermoment.hermite import he_monic_eval, he_roots
from hypermoment.index import IndexSet, block_permutation, order, sub, unit
from hypermoment.spectral import (
    _COMPLEX_TOL,
    _COND_LIMIT,
    ProlongationError,
    _fit,
    _permuted,
    _prolong_permuted,
    SpectralLine,
    Spectrum,
    block_eigenvector,
    charpoly_1d_unregularized,
    find_nonhyperbolic_state,
    full_eigendecomposition,
    hyperbolicity_verdict,
    prolong,
    rotation_spectrum_check,
    spectrum_regularized,
    unit_spectrum,
    unregularized_eigenvalues,
)
from hypermoment.state import MomentState, _packing, equilibrium

from helpers import random_state


def polyval(c, x):
    return sum(ck * x**k for k, ck in enumerate(c))


def pure_axis(state, k):
    return state.f_value((k,) + (0,) * (state.D - 1))


class TestCharpoly:
    def test_unit_quartic(self):
        # rho = 1, theta = 1, M = 3: lambda^4 - 6 lambda^2 + 3 - 24 f3 lambda
        st = MomentState(
            D=1, M=3, rho=1.0, u=np.zeros(1), p=np.eye(1), f={(3,): 0.07}
        )
        c = charpoly_1d_unregularized(st)
        assert np.allclose(c, [3.0, -24 * 0.07, -6.0, 0.0, 1.0])

    @pytest.mark.parametrize("M", [3, 4, 5, 6])
    def test_matches_determinant_one_dimensional(self, M):
        rng = np.random.default_rng(M)
        st = random_state(rng, 1, M)
        c = charpoly_1d_unregularized(st)
        A = assemble(st, 1).entries
        eye = np.eye(A.shape[0])
        for lam in rng.normal(size=6) * 2.0:
            det = np.linalg.det(lam * eye - A)
            assert det == pytest.approx(polyval(c, lam), rel=1e-10, abs=1e-10)

    def test_matches_leading_block_two_dimensional(self):
        rng = np.random.default_rng(42)
        st = random_state(rng, 2, 4)
        perm = block_permutation(st.index_set)
        Ap = perm.conjugate(assemble(st, 1).entries)
        h, start, size = perm.blocks[0]
        assert h == (0,)
        blk = Ap[start : start + size, start : start + size]
        c = charpoly_1d_unregularized(st)
        for lam in rng.normal(size=4):
            det = np.linalg.det(lam * np.eye(size) - blk)
            assert det == pytest.approx(polyval(c, lam), rel=1e-9, abs=1e-9)

    def test_equilibrium_roots_are_scaled_hermite(self):
        st = equilibrium(1, 5, 1.4, [0.0], [[0.6]])
        c = charpoly_1d_unregularized(st)
        roots = np.sort(np.roots(c[::-1]))
        assert np.max(np.abs(roots.imag)) < 1e-9
        expect = he_roots(6) * np.sqrt(0.6)
        assert np.max(np.abs(roots.real - expect)) < 1e-9


class TestNonhyperbolicSearch:
    def test_one_dimensional_cubic_closure(self):
        st, wit = find_nonhyperbolic_state(1, 3)
        assert set(st.f) == {(3,)}
        th = st.theta_tensor[0, 0]
        assert abs(wit.imag) > 1e-6 * (1 + abs(wit))
        assert abs(wit.imag) > 1e-3 * np.sqrt(th)
        # the same state regularized has the scaled Hermite-root spectrum
        reg = regularize(assemble(st, 1), st).entries
        lam = np.linalg.eigvals(reg)
        assert np.max(np.abs(lam.imag)) < 1e-10
        expect = he_roots(4) * np.sqrt(th)
        assert np.max(np.abs(np.sort(lam.real) - expect)) < 1e-8

    def test_threshold_matches_root_sweep(self):
        # quartic discriminant: reality of lambda^4 - 6 lambda^2 + 3 - 24 t lambda
        # flips sign at some t in (0, 0.2]; matrix eigenvalues must agree
        flips = []
        for t in np.linspace(0.0, 0.2, 21):
            st = MomentState(
                D=1, M=3, rho=1.0, u=np.zeros(1), p=np.eye(1), f={(3,): t}
            )
            roots = np.roots(charpoly_1d_unregularized(st)[::-1])
            poly_complex = np.max(np.abs(roots.imag)) > 1e-8
            lam = unregularized_eigenvalues(st)
            mat_complex = np.max(np.abs(lam.imag)) > 1e-8
            assert poly_complex == mat_complex
            flips.append(bool(mat_complex))
        assert not flips[0]
        assert any(flips) and not all(flips)

    @pytest.mark.parametrize("D,M", [(1, 4), (2, 3), (2, 4)])
    def test_higher_order_witnesses(self, D, M):
        st, wit = find_nonhyperbolic_state(D, M)
        assert abs(wit.imag) > 1e-6 * (1 + abs(wit))
        assert st.f  # never the pure equilibrium
        v = hyperbolicity_verdict(st)
        assert not v.hyperbolic and not v.real_spectrum

    def test_regularization_restores_reality(self):
        st, _ = find_nonhyperbolic_state(2, 4)
        v = hyperbolicity_verdict(st, regularized=True)
        assert v.hyperbolic and v.max_imag < 1e-10

    def test_equilibrium_is_hyperbolic(self):
        st = equilibrium(2, 4, 1.0, [0.2, -0.1], [[1.0, 0.2], [0.2, 0.7]])
        v = hyperbolicity_verdict(st)
        assert v.hyperbolic and v.worst_complex_pair is None


class TestEquilibriumInterior:
    """The equilibrium is an interior point of the unregularized system's
    hyperbolicity region: seeded order >= 3 coefficients of a unit Gaussian,
    scaled to norm r, in seeded unit directions n. Every draw near the
    equilibrium is hyperbolic by hyperbolicity_verdict's thresholds, and far
    from it some draw is not, so the region is bounded."""

    DRAWS = 40

    @classmethod
    def _draws(cls, D, M, r):
        rng = np.random.default_rng(1000 * D + 10 * M + int(100 * r))
        free = [a for a in IndexSet(D, M).indices if order(a) >= 3]
        for _ in range(cls.DRAWS):
            g = rng.normal(size=len(free))
            n = rng.normal(size=D)
            f = dict(zip(free, r / np.linalg.norm(g) * g))
            yield MomentState(D=D, M=M, rho=1.0, u=np.zeros(D), p=np.eye(D), f=f), n / np.linalg.norm(n)

    @classmethod
    def _hyperbolic(cls, D, M, r):
        """Per draw: real spectrum and diagonalizable unregularized matrix,
        by the thresholds of hyperbolicity_verdict."""
        out = []
        for st, n in cls._draws(D, M, r):
            lam, V = np.linalg.eig(directional(st, n, regularized=False).entries)
            real = (np.abs(lam.imag) / (1.0 + np.abs(lam))).max() <= _COMPLEX_TOL
            out.append(bool(real and np.linalg.cond(V) < _COND_LIMIT))
        return out

    @pytest.mark.parametrize("D,M", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_hyperbolic_near_equilibrium_and_not_far(self, D, M):
        near, far = self._hyperbolic(D, M, 0.01), self._hyperbolic(D, M, 0.5)
        print(f"D={D} M={M}: {near.count(False)} failures at r=0.01, {far.count(False)} at r=0.5")
        assert all(near)
        assert not all(far)

    @pytest.mark.parametrize("D,M", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4)])
    def test_regularization_is_silent_at_equilibrium(self, D, M):
        for st, n in self._draws(D, M, 0.0):
            plain = np.sort(np.linalg.eigvals(directional(st, n, regularized=False).entries).real)
            reg = np.sort(np.linalg.eigvals(directional(st, n).entries).real)
            assert np.max(np.abs(plain - reg)) <= 1e-12


def family_by_family_table(D, M):
    """The unit spectrum built family by family: trailing sub-indices
    counted per family m = M + 1 - |hat|, then the roots of each family."""
    counts = {M + 1: 1} if D == 1 else {}
    if D > 1:
        for h in IndexSet(D - 1, M).indices:
            m = M + 1 - order(h)
            counts[m] = counts.get(m, 0) + 1
    lines = [
        SpectralLine(float(v), counts[m], m, j)
        for m in sorted(counts)
        for j, v in enumerate(he_roots(m))
    ]
    lines.sort(key=lambda L: (L.value, L.family_m))
    return tuple(lines)


class TestUnitSpectrum:
    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6, 7])
    def test_equals_family_by_family_construction(self, D, M):
        table = unit_spectrum(D, M)
        assert table == family_by_family_table(D, M)
        assert all(type(L.value) is float for L in table)
        keys = [(L.value, L.family_m) for L in table]
        assert keys == sorted(keys)
        assert sum(L.multiplicity for L in table) == IndexSet(D, M).N

    def test_compiled_once(self):
        assert unit_spectrum(2, 4) is unit_spectrum(2, 4)

    def test_last_line_is_top_root_of_top_family(self):
        for D, M in [(1, 2), (2, 5), (3, 7)]:
            last = unit_spectrum(D, M)[-1]
            assert (last.family_m, last.root_index) == (M + 1, M)
            assert last.value == float(he_roots(M + 1)[-1])

    @pytest.mark.parametrize("D,M", [(1, 4), (2, 3), (2, 5), (3, 4)])
    def test_full_eigendecomposition_lines_are_the_closed_spectrum(self, D, M):
        rng = np.random.default_rng(50 + 10 * D + M)
        st = random_state(rng, D, M)
        sp = full_eigendecomposition(st)
        assert sp.method == "closed-form"
        assert sp.lines == spectrum_regularized(st).lines


class TestSpectrumRegularized:
    def test_pressureless_euler_speeds(self):
        st = equilibrium(1, 2, 2.0, [0.3], [[0.7]])
        sp = spectrum_regularized(st)
        expect = np.array([-np.sqrt(3 * 0.7), 0.0, np.sqrt(3 * 0.7)])
        assert np.allclose(sp.Lambda, expect)

    def test_two_dimensional_families(self):
        st = equilibrium(2, 3, 1.0, [0.0, 0.0], np.eye(2))
        sp = spectrum_regularized(st)
        fams = sorted({(L.family_m, L.multiplicity) for L in sp.lines})
        assert fams == [(1, 1), (2, 1), (3, 1), (4, 1)]
        assert len(sp.Lambda) == st.index_set.N

    def test_multiplicity_is_subindex_count(self):
        st = equilibrium(3, 4, 1.0, np.zeros(3), np.eye(3))
        sp = spectrum_regularized(st)
        for L in sp.lines:
            h = 4 + 1 - L.family_m
            count = sum(
                1 for a in IndexSet(2, 4).indices if order(a) == h
            )
            assert L.multiplicity == count == math.comb(h + 1, 1)
        total = sum(L.multiplicity for L in sp.lines)
        assert total == len(sp.Lambda) == st.index_set.N == 35

    @pytest.mark.parametrize("D,M", [(1, 4), (2, 5), (3, 3)])
    def test_matches_numerical_eigenvalues(self, D, M):
        rng = np.random.default_rng(10 * D + M)
        st = random_state(rng, D, M)
        lam = np.linalg.eigvals(regularize(assemble(st, 1), st).entries)
        assert np.max(np.abs(lam.imag)) < 1e-8
        sp = spectrum_regularized(st)
        assert np.max(np.abs(np.sort(lam.real) - sp.Lambda)) < 1e-8

    @pytest.mark.parametrize("D,M", [(1, 6), (2, 4), (3, 4)])
    def test_lines_are_the_scaled_unit_lines(self, D, M):
        st = random_state(np.random.default_rng(40 + D + M), D, M)
        sq = float(np.sqrt(st.theta_tensor[0, 0]))
        got = spectrum_regularized(st).lines
        want = tuple(replace(L, value=L.value * sq) for L in unit_spectrum(D, M))
        assert got == want
        assert np.array([L.value for L in got]).tobytes() == np.array([L.value for L in want]).tobytes()

    def test_independent_of_velocity_and_free_coeffs(self):
        base = equilibrium(2, 4, 1.1, [0.0, 0.0], [[0.9, 0.2], [0.2, 1.3]])
        rng = np.random.default_rng(3)
        moved = random_state(rng, 2, 4)
        moved = MomentState(
            D=2, M=4, rho=1.1, u=np.array([5.0, -3.0]),
            p=np.array([[0.9, 0.2], [0.2, 1.3]]) * 1.1, f=moved.f,
        )
        assert np.allclose(
            spectrum_regularized(base).Lambda, spectrum_regularized(moved).Lambda
        )


def closed_form_block(n_hat, lam, state):
    """Eigenvector formulas for the permuted diagonal blocks, leading entry 1."""
    M = state.M
    th = float(state.theta_tensor[0, 0])
    rho = state.rho
    size = M + 1 - n_hat
    f = lambda k: pure_axis(state, k)
    P = lambda k: he_monic_eval(k, th, lam)
    r = np.zeros(size)
    r[0] = 1.0
    if n_hat == 0:
        if size > 1:
            r[1] = lam / rho
        if size > 2:
            r[2] = lam**2 / 2
        for k in range(4, size + 1):
            r[k - 1] = (
                rho * P(k - 1) / math.factorial(k - 1)
                - f(k - 2) * lam
                - f(k - 3) * (lam**2 - th) / 2
            ) / rho
    elif n_hat == 1:
        if size > 1:
            r[1] = rho * lam
        for k in range(3, size + 1):
            r[k - 1] = (
                rho * P(k - 1) / math.factorial(k - 1)
                - f(k - 1)
                - lam * f(k - 2)
            )
    elif n_hat == 2:
        for k in range(2, size + 1):
            r[k - 1] = P(k - 1) / math.factorial(k - 1) - f(k - 1) / rho
    else:
        for k in range(2, size + 1):
            r[k - 1] = P(k - 1) / math.factorial(k - 1)
    return r


class TestBlockEigenvector:
    @pytest.mark.parametrize("D,M", [(1, 6), (2, 5), (3, 4)])
    def test_closed_forms(self, D, M):
        rng = np.random.default_rng(100 * D + M)
        st = random_state(rng, D, M)
        sq = np.sqrt(st.theta_tensor[0, 0])
        for n_hat in range(0, min(M, st.M) + 1):
            if D == 1 and n_hat > 0:
                break
            for lam in he_roots(M + 1 - n_hat) * sq:
                got = block_eigenvector(n_hat, float(lam), st)
                expect = closed_form_block(n_hat, float(lam), st)
                assert np.max(np.abs(got - expect)) < 1e-10 * max(
                    1, np.max(np.abs(expect))
                )

    def test_equilibrium_zero_eigenvalue_pattern(self):
        st = equilibrium(1, 4, 1.5, [0.0], [[0.8]])
        r = block_eigenvector(0, 0.0, st)
        expect = np.array([1.0, 0.0, 0.0, 0.0, 3 * 0.8**2 / 24])
        assert np.allclose(r, expect)

    def test_momentum_block_leading_entries(self):
        rng = np.random.default_rng(7)
        st = random_state(rng, 2, 4)
        sq = np.sqrt(st.theta_tensor[0, 0])
        lam = float(he_roots(4)[-1] * sq)
        r = block_eigenvector(1, lam, st)
        assert r[0] == 1.0
        assert r[1] == pytest.approx(st.rho * lam, rel=1e-12)

    def test_high_blocks_are_hermite_values(self):
        rng = np.random.default_rng(8)
        st = random_state(rng, 2, 5)
        th = st.theta_tensor[0, 0]
        lam = float(he_roots(3)[0] * np.sqrt(th))
        r = block_eigenvector(3, lam, st)
        expect = [he_monic_eval(k, th, lam) / math.factorial(k) for k in range(3)]
        assert np.allclose(r, expect)

    def test_rejects_non_eigenvalue(self):
        st = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        with pytest.raises(ValueError, match="not an eigenvalue"):
            block_eigenvector(0, 0.1234, st)

    @pytest.mark.parametrize("D,n_hat,top", [(1, 1, 0), (1, 3, 0), (2, 5, 4), (3, -1, 4)])
    def test_rejects_missing_block_order(self, D, n_hat, top):
        # a D=1 state has only the order-0 block
        st = equilibrium(D, 4, 1.0, [0.0] * D, np.eye(D))
        with pytest.raises(ValueError, match=f"block order must be in 0..{top}, got {n_hat}"):
            block_eigenvector(n_hat, 0.0, st)

    def test_unregularized_eigenvectors(self):
        # same closed form holds for the unregularized leading block at its
        # own (different) eigenvalues
        rng = np.random.default_rng(9)
        st = random_state(rng, 1, 4, scale=0.05)
        A = assemble(st, 1).entries
        lam, V = np.linalg.eig(A)
        assert np.max(np.abs(lam.imag)) < 1e-12
        for k in np.argsort(lam.real):
            lv = float(lam.real[k])
            r = block_eigenvector(0, lv, st, regularized=False)
            expect = closed_form_block(0, lv, st)
            assert np.max(np.abs(r - expect)) < 1e-8
            num = V[:, k].real
            num = num / num[0]
            assert np.max(np.abs(r - num)) < 1e-8

    def test_same_order_blocks_identical(self):
        # diagonal blocks depend on the trailing sub-index only through its
        # order, because couplings inside a block use pure first-axis values
        rng = np.random.default_rng(11)
        st = random_state(rng, 3, 4)
        perm = block_permutation(st.index_set)
        B = perm.conjugate(regularize(assemble(st, 1), st).entries)
        by_order = {}
        for h, start, size in perm.blocks:
            blk = B[start : start + size, start : start + size]
            by_order.setdefault(order(h), []).append(blk)
        for blocks in by_order.values():
            for other in blocks[1:]:
                assert np.array_equal(blocks[0], other)


def halved_kernel(state, beta, head):
    """Double contraction of the temperature tensor with the coefficient two
    orders below, halved, scaled by the head entry."""
    th = state.theta_tensor
    tot = 0.0
    for i, j in combinations_with_replacement(range(1, state.D + 1), 2):
        b = sub(sub(beta, unit(state.D, i)), unit(state.D, j))
        v = th[i - 1, j - 1] * state.f_value(b)
        tot += v if i == j else 2 * v
    return 0.5 * tot * head


class TestProlong:
    def test_zero_eigenvalue_even_order_pattern(self):
        st = MomentState(
            D=2, M=4, rho=1.2, u=np.array([0.3, -0.1]),
            p=np.array([[1.1, 0.25], [0.25, 0.8]]),
            f={(3, 0): 0.04, (2, 1): -0.02, (1, 2): 0.01, (0, 3): 0.03,
               (4, 0): 0.01, (2, 2): 0.02, (0, 4): -0.01},
        )
        s = st.index_set
        r0 = block_eigenvector(0, 0.0, st)
        R = prolong(r0, (0,), 0.0, st)
        for b in s.indices:
            if order(b) % 2 == 1:
                assert R[s.rank0(b)] == pytest.approx(
                    halved_kernel(st, b, r0[0]), abs=1e-12
                )
        At = regularize(assemble(st, 1), st).entries
        assert np.max(np.abs(At @ R)) < 1e-12

    def test_zero_eigenvalue_odd_order_head(self):
        st = MomentState(
            D=2, M=5, rho=0.9, u=np.array([0.1, 0.2]),
            p=np.array([[0.9, 0.15], [0.15, 1.2]]),
            f={(3, 0): 0.03, (0, 3): -0.02, (2, 1): 0.01,
               (5, 0): 0.005, (1, 4): 0.004},
        )
        s = st.index_set
        rb = block_eigenvector(1, 0.0, st)
        R = prolong(rb, (1,), 0.0, st)
        assert all(abs(R[s.rank0((k, 0))]) < 1e-14 for k in range(6))
        assert R[s.rank0((0, 1))] == 1.0
        assert abs(R[s.rank0((1, 1))]) < 1e-14
        At = regularize(assemble(st, 1), st).entries
        assert np.max(np.abs(At @ R)) < 1e-12

    def test_proper_support(self):
        # entries in blocks before the target (permuted order) stay zero
        rng = np.random.default_rng(12)
        st = random_state(rng, 2, 5)
        perm = block_permutation(st.index_set)
        sq = np.sqrt(st.theta_tensor[0, 0])
        for t, (h, start, size) in enumerate(perm.blocks):
            lam = float(he_roots(size)[-1] * sq)
            r = block_eigenvector(order(h), lam, st)
            R = prolong(r, h, lam, st)
            Rp = perm.apply(R)
            assert np.all(Rp[:start] == 0.0)
            assert Rp[start] == 1.0

    @staticmethod
    def _block_eigenvectors(seed):
        # one root per block of a random D=2, M=5 state
        st = random_state(np.random.default_rng(seed), 2, 5)
        sq = np.sqrt(st.theta_tensor[0, 0])
        for h, _, size in block_permutation(st.index_set).blocks:
            lam = float(he_roots(size)[0] * sq)
            yield st, h, lam, block_eigenvector(order(h), lam, st)

    def test_scales_with_the_block_vector(self):
        for st, h, lam, r in self._block_eigenvectors(13):
            for c in (-0.37, 2.9):
                np.testing.assert_array_equal(prolong(c * r, h, lam, st), c * prolong(r, h, lam, st))

    def test_block_vector_off_the_eigenvector_raises(self):
        for st, h, lam, r in self._block_eigenvectors(14):
            if r.size > 1:
                bad = r.copy()
                bad[-1] += 1e-3
                with pytest.raises(ValueError, match=re.escape(f"eigenvector of block {h}")):
                    prolong(bad, h, lam, st)

    def test_error_cases(self):
        st = equilibrium(2, 3, 1.0, [0.0, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="no block"):
            prolong(np.ones(4), (7,), 0.0, st)
        with pytest.raises(ValueError, match="length"):
            prolong(np.ones(2), (0,), 0.0, st)


class TestFullEigendecomposition:
    @pytest.mark.parametrize(
        "D,M",
        [(1, 2), (1, 3), (1, 5), (1, 6), (2, 2), (2, 3), (2, 4), (2, 6),
         (3, 2), (3, 3), (3, 4)],
    )
    def test_random_states(self, D, M):
        rng = np.random.default_rng(1000 * D + M)
        for _ in range(3):
            st = random_state(rng, D, M)
            sp = full_eigendecomposition(st)
            assert sp.method == "closed-form"
            At = regularize(assemble(st, 1), st).entries
            scale = np.max(np.abs(At))
            assert sp.residual <= 1e-8 * max(scale, 1.0)
            assert np.max(np.abs(At @ sp.R - sp.R * sp.Lambda[None, :])) <= (
                1e-8 * max(scale, 1.0)
            )
            assert np.linalg.matrix_rank(sp.R) == st.index_set.N
            assert np.allclose(
                np.sort(sp.Lambda), spectrum_regularized(st).Lambda, atol=1e-10
            )

    def test_columns_lead_with_one(self):
        rng = np.random.default_rng(21)
        st = random_state(rng, 2, 4)
        sp = full_eigendecomposition(st)
        for col in sp.R.T:
            lead = col[np.nonzero(np.abs(col) > 1e-13)[0][0]]
            assert lead == 1.0

    def test_zero_eigenvalue_dichotomy(self):
        # the density entry is nonzero exactly on columns of the largest
        # family; nonzero eigenvalues there satisfy the top polynomial
        rng = np.random.default_rng(22)
        st = random_state(rng, 2, 5)
        th = float(st.theta_tensor[0, 0])
        sp = full_eigendecomposition(st)
        s = st.index_set
        e1 = s.rank0((1, 0))
        p11 = s.rank0((2, 0))
        for lam, col in zip(sp.Lambda, sp.R.T):
            if lam * col[0] != 0.0:
                assert abs(he_monic_eval(st.M + 1, th, lam)) < 1e-8
            if col[0] != 0.0:
                assert col[e1] == pytest.approx(lam * col[0] / st.rho, abs=1e-12)
                assert col[p11] == pytest.approx(lam**2 * col[0] / 2, abs=1e-12)

    def test_aggregated_lines_match_closed_spectrum(self):
        rng = np.random.default_rng(23)
        st = random_state(rng, 3, 4)
        sp = full_eigendecomposition(st)
        closed = spectrum_regularized(st)
        got = sorted((L.family_m, L.root_index, L.multiplicity) for L in sp.lines)
        expect = sorted((L.family_m, L.root_index, L.multiplicity) for L in closed.lines)
        assert got == expect

    def test_numerical_fallback_wiring(self, monkeypatch):
        import hypermoment.spectral as spectral

        def boom(*args, **kwargs):
            raise ProlongationError("forced")

        monkeypatch.setattr(spectral, "_prolong_permuted", boom)
        st = equilibrium(1, 3, 1.0, [0.0], [[1.0]])
        with pytest.warns(UserWarning, match="numerical eigensolve"):
            sp = full_eigendecomposition(st)
        assert sp.method == "numerical"
        At = regularize(assemble(st, 1), st).entries
        assert sp.residual <= 1e-8 * max(np.max(np.abs(At)), 1.0)


def per_column_eigenvectors(st):
    """The columns of full_eigendecomposition one prolongation at a time,
    block by block and root by root."""
    perm, B = _permuted(st.w, st.D, st.M)
    spec = spectrum_regularized(st)
    cols = []
    for t, (_, _, n) in enumerate(perm.blocks):
        for lam in (L.value for L in spec.lines if L.family_m == n):
            cols.append(perm.inverse_apply(_prolong_permuted(perm.blocks[t:], B, lam)))
    return perm.unconjugate(B), np.column_stack(cols)


class TestStackedProlongation:
    """One solve over an array of eigenvalues equals the stack of the
    scalar calls, bit for bit."""

    @pytest.mark.parametrize(
        "D,M,size,zero",
        [
            (1, 4, 5, False),
            (1, 4, 5, True),
            # the zero root of an odd family holds the later size-1 block
            (2, 4, 3, True),
            (2, 4, 3, False),
            # a later block of the target's size is singular at its roots
            (3, 3, 3, False),
        ],
    )
    @pytest.mark.parametrize("rows", [1, 3])
    def test_root_array_equals_scalar_calls(self, D, M, size, zero, rows):
        rng = np.random.default_rng(70 + 10 * D + M)
        st = random_state(rng, D, M, scale=0.02)
        W = np.tile(st.w, (rows, 1))  # rows of one theta_11
        free = _packing(D, M).free
        for row in W[1:]:
            row[free] = random_state(rng, D, M, scale=0.02).w[free]
        perm, B = _permuted(W if rows > 1 else st.w, D, M)
        t = next(k for k, (_, _, n) in enumerate(perm.blocks) if n == size)
        blocks = perm.blocks[t:]
        if D == 3:
            assert [n for _, _, n in blocks[1:]].count(size) == 1
        roots = he_roots(size)
        lams = roots[(roots == 0.0) == zero] * np.sqrt(st.theta_tensor[0, 0])
        got = _prolong_permuted(blocks, B, lams)
        want = np.stack([_prolong_permuted(blocks, B, float(lam)) for lam in lams])
        assert got.shape == lams.shape + B.shape[:-1]
        assert got.tobytes() == want.tobytes()

    def test_mixed_zero_and_nonzero_roots_raise(self):
        st = random_state(np.random.default_rng(71), 2, 4, scale=0.02)
        perm, B = _permuted(st.w, 2, 4)
        lams = he_roots(5) * np.sqrt(st.theta_tensor[0, 0])
        with pytest.raises(ValueError, match="all zero or all nonzero"):
            _prolong_permuted(perm.blocks, B, lams)

    @pytest.mark.parametrize("D,M", [(1, 3), (1, 6), (2, 4), (2, 5), (3, 3), (3, 4)])
    def test_full_eigendecomposition_equals_per_column_loop(self, D, M):
        st = random_state(np.random.default_rng(80 + 10 * D + M), D, M)
        sp = full_eigendecomposition(st)
        Atil, R = per_column_eigenvectors(st)
        assert sp.method == "closed-form"
        assert sp.R.tobytes() == R.tobytes() and sp.R.flags.c_contiguous
        assert (sp.residual, sp.condition) == _fit(Atil, sp.Lambda, R)


class TestRotation:
    def test_two_dimensional_fan(self):
        rng = np.random.default_rng(31)
        st = random_state(rng, 2, 4)
        for ang in np.linspace(0.0, np.pi, 8, endpoint=False):
            n = np.array([np.cos(ang), np.sin(ang)])
            scale = np.sqrt(n @ st.theta_tensor @ n)
            assert rotation_spectrum_check(st, n) < 1e-8 * max(scale, 1.0)

    def test_three_dimensional_directions(self):
        rng = np.random.default_rng(32)
        st = random_state(rng, 3, 3)
        for _ in range(4):
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            assert rotation_spectrum_check(st, n) < 1e-8


class TestOneSolve:
    """Every eigenvector comes from one solve with fixed leading entries:
    zero before its target block, exactly 1 at the target's leading entry
    and 0 at the leading entry of each later block singular at lambda. With
    the residual, these conditions fix the vector."""

    @staticmethod
    def _targets(perm):
        # full_eigendecomposition orders its columns by block, then root
        return [(start, size) for _, start, size in perm.blocks for _ in range(size)]

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_columns_fix_leading_entries(self, D, M):
        st = random_state(np.random.default_rng(500 + 10 * D + M), D, M)
        sp = full_eigendecomposition(st)
        assert sp.method == "closed-form"
        perm = block_permutation(st.index_set)
        Rp = perm.apply(sp.R.T)
        for col, lam, (start, size) in zip(Rp, sp.Lambda, self._targets(perm)):
            assert np.all(col[:start] == 0.0)
            assert col[start] == 1.0
            for _, s, n in perm.blocks:
                if s > start and (n == size or (lam == 0.0 and n % 2 == 1)):
                    assert abs(col[s]) <= 1e-14
        At = regularize(assemble(st, 1), st).entries
        assert np.max(np.abs(At @ sp.R - sp.R * sp.Lambda[None, :])) <= 1e-8 * max(
            np.max(np.abs(At)), 1.0
        )

    @pytest.mark.parametrize("D,M", [(1, 4), (2, 4), (3, 3)])
    def test_field_eigenvector_is_scaled_column(self, D, M):
        from hypermoment.riemann import _field_eigenvector, classify_field

        st = random_state(np.random.default_rng(600 + 10 * D + M), D, M)
        R = full_eigendecomposition(st).R
        # the top family is the leading block, whose columns come first
        top = [L.value for L in unit_spectrum(D, M) if L.family_m == M + 1]
        for j, C in enumerate(top):
            got = _field_eigenvector(st.w, D, M, classify_field(st, C), C)
            expect = st.rho * R[:, j]
            assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))

    def test_unexpected_singular_block_raises_through_prolong(self):
        # at a root of He_4 the size-4 block (1,) is singular, though the
        # target block (0,) has size 5
        st = random_state(np.random.default_rng(3), 2, 4)
        sq = np.sqrt(st.theta_tensor[0, 0])
        for C in he_roots(4):
            with pytest.raises(ProlongationError, match=r"unexpected singular block \(1,\)"):
                prolong(np.ones(5), (0,), float(C * sq), st)
