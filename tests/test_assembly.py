"""Tests for the quasilinear matrices, regularization, and the source term.

Two oracles guard the assembly rules: a slow term-by-term walk of the
pre-substitution equations, and a finite-difference Jacobian of the closed
conservative formulation that only relies on the moment conversions.
"""

import numpy as np
import pytest

from hypermoment.assembly import (
    CoefficientMatrix,
    assemble,
    directional,
    regularize,
    source,
    structural_report,
)
from hypermoment.index import IndexSet, block_permutation, order, unit
from hypermoment.state import CollisionModel, MomentState, equilibrium

from helpers import random_state
from reference_assembler import fd_quasilinear, reference_assemble


class TestFrozenMatrices:
    def test_one_dimensional_display(self):
        # the full M=6 matrix written out row by row
        rng = np.random.default_rng(1)
        st = random_state(rng, 1, 6)
        B = assemble(st, 1).entries
        th = st.theta_tensor[0, 0]
        rho, p = st.rho, st.p[0, 0]
        f = {k: st.f_value((k,)) for k in range(7)}
        exp = np.zeros((7, 7))
        exp[0, 1] = rho
        exp[1, 2] = 2 / rho
        exp[2, 1] = 3 * p / 2
        exp[2, 3] = 3
        exp[3, 0] = -(th**2) / 2
        exp[3, 1] = 4 * f[3]
        exp[3, 2] = th
        exp[3, 4] = 4
        exp[4, 0] = -5 * th * f[3] / (2 * rho)
        exp[4, 1] = 5 * f[4]
        exp[4, 2] = 3 * f[3] / rho
        exp[4, 3] = th
        exp[4, 5] = 5
        exp[5, 0] = -3 * th * f[4] / rho
        exp[5, 1] = 6 * f[5]
        exp[5, 2] = 4 * f[4] / rho
        exp[5, 3] = -3 * f[3] / rho
        exp[5, 4] = th
        exp[5, 6] = 6
        exp[6, 0] = -(7 * th * f[5] + th**2 * f[3]) / (2 * rho)
        exp[6, 1] = 7 * f[6]
        exp[6, 2] = (5 * f[5] + th * f[3]) / rho
        exp[6, 3] = -3 * f[4] / rho
        exp[6, 5] = th
        np.testing.assert_allclose(B, exp, rtol=1e-14, atol=1e-14)

    def test_planar_third_order_display(self):
        rng = np.random.default_rng(2)
        st = random_state(rng, 2, 3)
        A = assemble(st, 1).entries
        th = st.theta_tensor
        rho, p = st.rho, st.p
        f30, f21, f12, f03 = (st.f_value(a) for a in [(3, 0), (2, 1), (1, 2), (0, 3)])
        exp = np.zeros((10, 10))
        exp[0, 1] = rho
        exp[1, 3] = 2 / rho
        exp[2, 4] = 1 / rho
        exp[3, 1] = 3 * p[0, 0] / 2
        exp[3, 6] = 3
        exp[4, 1] = 2 * p[0, 1]
        exp[4, 2] = p[0, 0]
        exp[4, 7] = 2
        exp[5, 1] = p[1, 1] / 2
        exp[5, 2] = p[0, 1]
        exp[5, 8] = 1
        exp[6, 0] = -th[0, 0] ** 2 / 2
        exp[6, 1] = 4 * f30
        exp[6, 3] = th[0, 0]
        exp[7, 0] = -3 * th[0, 0] * th[0, 1] / 2
        exp[7, 1] = 3 * f21
        exp[7, 2] = 3 * f30
        exp[7, 3] = th[0, 1]
        exp[7, 4] = th[0, 0]
        exp[8, 0] = -th[0, 0] * th[1, 1] / 2 - th[0, 1] ** 2
        exp[8, 1] = 2 * f12
        exp[8, 2] = 2 * f21
        exp[8, 4] = th[0, 1]
        exp[8, 5] = th[0, 0]
        exp[9, 0] = -th[1, 1] * th[0, 1] / 2
        exp[9, 1] = f03
        exp[9, 2] = f12
        exp[9, 5] = th[0, 1]
        np.testing.assert_allclose(A, exp, rtol=1e-14, atol=1e-14)

    def test_euler_limit_matrix(self):
        # M = 2 closes with no free coefficients: the three-field system
        st = MomentState(D=1, M=2, rho=2.0, u=[0.7], p=[[1.6]], f={})
        A = assemble(st, 1).entries
        exp = np.array([[0, 2.0, 0], [0, 0, 1.0], [0, 2.4, 0]])
        np.testing.assert_allclose(A, exp, atol=1e-15)
        lam = np.sort(np.linalg.eigvals(A).real)
        c = np.sqrt(3 * st.theta)
        np.testing.assert_allclose(lam, [-c, 0, c], atol=1e-12)


class TestOracles:
    @pytest.mark.parametrize("D,M", [(1, 5), (2, 3), (2, 4), (3, 3), (2, 6), (3, 4)])
    def test_term_walk_agreement(self, D, M):
        rng = np.random.default_rng(10 * D + M)
        st = random_state(rng, D, M)
        for d in range(1, D + 1):
            fast = assemble(st, d).entries
            slow = reference_assemble(st, d)
            np.testing.assert_allclose(fast, slow, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("D,M", [(2, 4), (2, 5), (3, 4)])
    def test_term_walk_equilibrium(self, D, M):
        eq = equilibrium(
            D, M, 1.3, np.linspace(-0.2, 0.3, D),
            0.8 * np.eye(D) + 0.1 * np.ones((D, D)),
        )
        for d in range(1, D + 1):
            np.testing.assert_allclose(
                assemble(eq, d).entries,
                reference_assemble(eq, d),
                rtol=1e-13,
                atol=1e-13,
            )

    @pytest.mark.parametrize("D,M", [(1, 4), (2, 3), (2, 4), (3, 3)])
    def test_conservative_jacobian_agreement(self, D, M):
        rng = np.random.default_rng(100 * D + M)
        st = random_state(rng, D, M, scale=0.1)
        for d in range(1, D + 1):
            fast = assemble(st, d).entries
            fd = fd_quasilinear(st, d)
            scale = np.max(np.abs(fast))
            assert np.max(np.abs(fast - fd)) <= 1e-6 * scale


class TestStructure:
    def test_velocity_independence_exact(self):
        rng = np.random.default_rng(3)
        st = random_state(rng, 2, 4)
        moved = st.replace(u=st.u + np.array([3.7, -1.2]))
        for d in (1, 2):
            assert np.array_equal(
                assemble(st, d).entries, assemble(moved, d).entries
            )

    @pytest.mark.parametrize("D,M", [(1, 6), (2, 5), (3, 4)])
    def test_invariants_report(self, D, M):
        rng = np.random.default_rng(7 * D + M)
        st = random_state(rng, D, M)
        for d in range(1, D + 1):
            rep = structural_report(assemble(st, d))
            assert rep.ok, rep.violations
            assert rep.max_abs_diagonal == 0.0
            assert rep.block_sizes == rep.expected_block_sizes
            assert rep.max_upper_block_entry == 0.0

    def test_regularized_keeps_structure(self):
        rng = np.random.default_rng(8)
        st = random_state(rng, 2, 5)
        rep = structural_report(regularize(assemble(st, 1), st))
        assert rep.ok, rep.violations

    def test_one_dimensional_embedding(self):
        # planar state with no cross couplings: the leading permuted block is
        # the one-dimensional matrix of the embedded state
        rng = np.random.default_rng(9)
        M = 5
        f1 = {(k,): 0.1 * rng.normal() for k in range(3, M + 1)}
        st1 = MomentState(D=1, M=M, rho=1.4, u=[0.2], p=[[1.1]], f=f1)
        f2 = {(k, 0): f1[(k,)] for k in range(3, M + 1)}
        st2 = MomentState(
            D=2, M=M, rho=1.4, u=[0.2, 0.0],
            p=[[1.1, 0.0], [0.0, 0.9]], f=f2,
        )
        B = assemble(st1, 1).entries
        A = assemble(st2, 1).entries
        perm = block_permutation(st2.index_set)
        Ap = perm.conjugate(A)
        lead = Ap[: M + 1, : M + 1]
        np.testing.assert_allclose(lead, B, atol=1e-14)

    def test_every_nonzero_is_a_rule_target(self):
        # sparsity: nonzeros live only in the documented column groups
        rng = np.random.default_rng(11)
        st = random_state(rng, 2, 6)
        s = st.index_set
        A = assemble(st, 1).entries
        r = s.rank0
        allowed = {(0, r((1, 0)))}
        for i in range(2):
            ei = unit(2, i + 1)
            pair = tuple(a + b for a, b in zip(ei, unit(2, 1)))
            allowed.add((r(ei), r(pair)))
        low = [a for a in s.indices if order(a) <= 2]
        three = [a for a in s.indices if order(a) == 3]
        for i in range(2):
            for j in range(i, 2):
                row = r(tuple(a + b for a, b in zip(unit(2, i + 1), unit(2, j + 1))))
                for c in low + three:
                    allowed.add((row, r(c)))
        for alpha in s.indices:
            if order(alpha) < 3:
                continue
            row = r(alpha)
            for c in low + three:
                allowed.add((row, r(c)))
            for k in range(2):
                down = list(alpha)
                down[k] -= 1
                if min(down) >= 0 and sum(down) >= 3:
                    allowed.add((row, r(tuple(down))))
            if order(alpha) < 6:
                up = list(alpha)
                up[0] += 1
                allowed.add((row, r(tuple(up))))
        for i, j in zip(*np.nonzero(A)):
            assert (i, j) in allowed, (s.indices[i], s.indices[j])


def _loop_structure(matrix):
    """(upper_violation_rows, max_upper_block_entry, violations) of
    structural_report, written entry by entry in plain Python loops."""
    A, state, d = matrix.entries, matrix.state, matrix.direction
    s = state.index_set
    violations = []
    max_diag = float(np.max(np.abs(np.diag(A))))
    if max_diag != 0.0:
        violations.append(f"diagonal not exactly zero (max {max_diag})")
    upper_rows = []
    for i in range(s.N):
        if np.count_nonzero(A[i, i + 1 :]) > 1:
            upper_rows.append(i + 1)
    if upper_rows:
        violations.append(f"rows with more than one upper entry: {upper_rows}")
    perm = block_permutation(s, axis=d)
    B = perm.conjugate(A)
    max_upper = 0.0
    for bi, (_, si, ni) in enumerate(perm.blocks):
        for _, sj, nj in perm.blocks[bi + 1 :]:
            blk = B[si : si + ni, sj : sj + nj]
            max_upper = max(max_upper, float(np.max(np.abs(blk))) if blk.size else 0.0)
    if max_upper != 0.0:
        violations.append(f"permuted form not block lower triangular (max {max_upper})")
    th_dd = state.theta_tensor[d - 1, d - 1]
    for h, si, ni in perm.blocks:
        if order(h) < 3:
            continue
        blk = B[si : si + ni, si : si + ni]
        for a in range(ni):
            for b in range(ni):
                val = blk[a, b]
                if b == a + 1:
                    if val != a + 1:
                        violations.append(f"block {h}: superdiagonal {val} != {a + 1}")
                elif b == a - 1:
                    if val != th_dd:
                        violations.append(f"block {h}: subdiagonal {val} != {th_dd}")
                elif val != 0.0:
                    violations.append(f"block {h}: unexpected entry at {(a, b)}")
    return tuple(upper_rows), max_upper, tuple(violations)


class TestStructuralViolations:
    @pytest.mark.parametrize("D,M,d", [(1, 6, 1), (2, 5, 1), (2, 5, 2), (3, 4, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_perturbed_matrix_matches_entry_loops(self, D, M, d, seed):
        rng = np.random.default_rng(100 * seed + 10 * D + M)
        st = random_state(rng, D, M)
        mat = assemble(st, d)
        A = np.array(mat.entries)
        perm = block_permutation(st.index_set, axis=d)
        src = perm.source
        # a few random entries and one on the diagonal, then in each
        # diagonal block of hat order >= 3 one superdiagonal, subdiagonal
        # and diagonal entry (permuted coordinates)
        for i, j in rng.integers(0, len(A), size=(3, 2)):
            A[i, j] += 0.5 + rng.random()
        k = rng.integers(len(A))
        A[k, k] = 0.25
        for h, si, ni in perm.blocks:
            if order(h) >= 3 and ni > 1:
                a = int(rng.integers(ni - 1))
                A[src[si + a], src[si + a + 1]] += 1.0
                A[src[si + a + 1], src[si + a]] *= 1.5
                A[src[si + a], src[si + a]] = -0.5
        bad = CoefficientMatrix(entries=A, direction=d, regularized=False, state=st)
        rep = structural_report(bad)
        want = _loop_structure(bad)
        assert (rep.upper_violation_rows, rep.max_upper_block_entry, rep.violations) == want
        assert not rep.ok and rep.violations
        assert _loop_structure(mat) == ((), 0.0, ())


class TestRegularize:
    def test_low_rows_bit_identical(self):
        rng = np.random.default_rng(13)
        st = random_state(rng, 2, 5)
        s = st.index_set
        base = assemble(st, 1)
        reg = regularize(base, st)
        keep = [k for k, a in enumerate(s.indices) if order(a) < 5]
        assert np.array_equal(reg.entries[keep, :], base.entries[keep, :])
        top = [k for k, a in enumerate(s.indices) if order(a) == 5]
        assert not np.array_equal(reg.entries[top, :], base.entries[top, :])

    def test_one_dimensional_lemma(self):
        # closed-form correction vector for the last row
        rng = np.random.default_rng(14)
        for M in (3, 4, 5, 6):
            st = random_state(rng, 1, M)
            th = st.theta_tensor[0, 0]
            rho = st.rho
            f = st.f_value
            B = assemble(st, 1).entries
            corr = np.zeros(M + 1)
            corr[0] = -th * f((M - 1,)) / (2 * rho)
            corr[1] = f((M,))
            corr[2] = f((M - 1,)) / rho
            exp = B.copy()
            exp[M, :] -= (M + 1) * corr
            got = regularize(assemble(st, 1), st).entries
            np.testing.assert_allclose(got, exp, rtol=1e-14, atol=1e-15)

    def test_equilibrium_identity(self):
        for D, M in [(1, 4), (2, 4), (3, 3)]:
            eq = equilibrium(
                D, M, 1.2, np.zeros(D), np.eye(D) + 0.1 * np.ones((D, D))
            )
            for d in range(1, D + 1):
                base = assemble(eq, d)
                assert np.array_equal(regularize(base, eq).entries, base.entries)

    def test_euler_limit_identity(self):
        st = MomentState(D=2, M=2, rho=1.0, u=[0.1, 0.2], p=[[2.0, 0.4], [0.4, 1.0]], f={})
        base = assemble(st, 1)
        assert np.array_equal(regularize(base, st).entries, base.entries)

    def test_consistency_errors(self):
        rng = np.random.default_rng(15)
        st = random_state(rng, 2, 4)
        other = random_state(rng, 2, 4)
        base = assemble(st, 1)
        with pytest.raises(ValueError):
            regularize(base, other)
        reg = regularize(base, st)
        with pytest.raises(ValueError):
            regularize(reg, st)


class TestDirectional:
    def test_axis_vectors_reduce(self):
        rng = np.random.default_rng(16)
        st = random_state(rng, 2, 4)
        for d, n in ((1, [1.0, 0.0]), (2, [0.0, 1.0])):
            combo = directional(st, n)
            ref = regularize(assemble(st, d), st)
            np.testing.assert_array_equal(combo.entries, ref.entries)
            assert combo.regularized

    def test_combination(self):
        rng = np.random.default_rng(17)
        st = random_state(rng, 2, 3)
        n = np.array([0.6, 0.8])
        combo = directional(st, n).entries
        ref = (
            0.6 * regularize(assemble(st, 1), st).entries
            + 0.8 * regularize(assemble(st, 2), st).entries
        )
        np.testing.assert_allclose(combo, ref, atol=1e-15)

    def test_non_unit_rejected(self):
        rng = np.random.default_rng(18)
        st = random_state(rng, 2, 3)
        with pytest.raises(ValueError):
            directional(st, [1.0, 1.0])


class TestSource:
    def test_equilibrium_is_stationary(self):
        eq = equilibrium(2, 5, 1.3, [0.2, -0.4], 0.7 * np.eye(2))
        S = source(eq, CollisionModel(nu=2.5))
        np.testing.assert_array_equal(S, np.zeros(eq.index_set.N))

    def test_conserved_rows_zero(self):
        rng = np.random.default_rng(19)
        st = random_state(rng, 2, 4)
        S = source(st, CollisionModel(nu=1.5, kind="es-bgk", Pr=0.9))
        s = st.index_set
        assert S[0] == 0.0
        for i in range(2):
            assert S[s.rank0(unit(2, i + 1))] == 0.0

    def test_energy_conservation(self):
        rng = np.random.default_rng(20)
        for Pr in (2 / 3, 1.0, 1.8):
            st = random_state(rng, 3, 3)
            S = source(st, CollisionModel(nu=2.0, kind="es-bgk", Pr=Pr))
            s = st.index_set
            # trace of the pressure equations: slots carry p_ii/2
            tr = sum(2 * S[s.rank0(tuple(2 * e for e in unit(3, i + 1)))] for i in range(3))
            assert tr == pytest.approx(0.0, abs=1e-13)

    def test_deviator_relaxation_rate(self):
        rng = np.random.default_rng(21)
        st = random_state(rng, 2, 3)
        mod = CollisionModel(nu=1.7, kind="es-bgk", Pr=2 / 3)
        S = source(st, mod)
        s = st.index_set
        pbar = st.rho * st.theta
        for i in range(2):
            for j in range(i, 2):
                pair = tuple(a + b for a, b in zip(unit(2, i + 1), unit(2, j + 1)))
                dev = st.p[i, j] - (pbar if i == j else 0.0)
                rate = (1 + (i == j)) * S[s.rank0(pair)]
                assert rate == pytest.approx(
                    -mod.nu * (1 - mod.b) * dev, rel=1e-12, abs=1e-13
                )

    def test_free_row_formula(self):
        rng = np.random.default_rng(22)
        st = random_state(rng, 2, 4)
        mod = CollisionModel(nu=0.9, kind="es-bgk", Pr=1.2)
        from hypermoment.state import collision_coeffs

        G = collision_coeffs(st, mod)
        S = source(st, mod)
        s = st.index_set
        alpha = (2, 2)
        row = s.rank0(alpha)
        expect = G[row] - st.f_value(alpha)
        for i in range(2):
            for j in range(2):
                down = (alpha[0] - (i == 0) - (j == 0), alpha[1] - (i == 1) - (j == 1))
                pair = tuple(a + b for a, b in zip(unit(2, i + 1), unit(2, j + 1)))
                expect += G[s.rank0(pair)] * st.f_value(down) / st.rho
        assert S[row] == pytest.approx(mod.nu * expect, rel=1e-12)
