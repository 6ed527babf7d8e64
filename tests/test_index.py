import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermoment import index


def brute_force_indices(D, M):
    """Oracle: raw product enumeration, no ordering assumptions."""
    return [a for a in itertools.product(range(M + 1), repeat=D) if sum(a) <= M]


class TestOrdinal:
    def test_zero_index_is_first(self):
        for D in (1, 2, 3):
            s = index.IndexSet(D, 3)
            assert index.ordinal((0,) * D, s) == 1

    def test_d2_closed_form_example(self):
        s = index.IndexSet(2, 3)
        a = (1, 1)
        expected = (a[0] + a[1] + 1) * (a[0] + a[1]) // 2 + a[1] + 1
        assert index.ordinal(a, s) == expected == 5

    def test_d3_enumeration_example(self):
        s = index.IndexSet(3, 2)
        assert index.ordinal((0, 0, 2), s) == 10

    def test_formula_is_bijection_onto_range(self):
        # oracle: formula ranks over a raw enumeration must hit 1..N exactly
        for D in (1, 2, 3, 4):
            for M in (2, 3, 5):
                s = index.IndexSet(D, M)
                ranks = sorted(index.ordinal(a, s) for a in brute_force_indices(D, M))
                assert ranks == list(range(1, s.N + 1))

    def test_enumeration_agrees_with_formula(self):
        for D in (1, 2, 3):
            s = index.IndexSet(D, 6)
            for k, a in enumerate(s.indices):
                assert index.ordinal(a, s) == k + 1

    def test_rank_monotone_in_graded_order(self):
        s = index.IndexSet(3, 5)
        keys = [(index.order(a), tuple(-x for x in a)) for a in s.indices]
        assert keys == sorted(keys)

    def test_order_overflow_rejected(self):
        s = index.IndexSet(2, 3)
        with pytest.raises(ValueError):
            index.ordinal((2, 2), s)

    def test_negative_entry_rejected(self):
        s = index.IndexSet(2, 3)
        with pytest.raises(ValueError):
            index.ordinal((-1, 0), s)


class TestUnrank:
    def test_first_rank_is_zero_index(self):
        for D in (1, 2, 4):
            s = index.IndexSet(D, 4)
            assert index.unrank(1, s) == (0,) * D

    def test_d2_example(self):
        s = index.IndexSet(2, 3)
        assert index.unrank(3, s) == (0, 1)

    def test_last_element(self):
        s = index.IndexSet(2, 3)
        assert index.unrank(10, s) == (0, 3)

    def test_out_of_range(self):
        s = index.IndexSet(2, 3)
        with pytest.raises(ValueError):
            index.unrank(0, s)
        with pytest.raises(ValueError):
            index.unrank(11, s)

    @given(
        D=st.integers(1, 4),
        M=st.integers(2, 8),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, D, M, data):
        s = index.IndexSet(D, M)
        r = data.draw(st.integers(1, s.N))
        a = index.unrank(r, s)
        assert index.ordinal(a, s) == r
        assert index.unrank(index.ordinal(a, s), s) == a


class TestCardinality:
    def test_examples(self):
        assert index.cardinality(2, 3) == 10
        assert index.cardinality(1, 7) == 8
        assert index.cardinality(3, 4) == 35

    def test_matches_enumeration(self):
        for D in (1, 2, 3, 4):
            for M in range(2, 9):
                assert index.cardinality(D, M) == len(brute_force_indices(D, M))


class TestBlockPermutation:
    def test_d1_identity(self):
        s = index.IndexSet(1, 5)
        bp = index.block_permutation(s)
        assert list(bp.source) == list(range(s.N))

    def test_d2_m3_image(self):
        s = index.IndexSet(2, 3)
        bp = index.block_permutation(s)
        assert bp.image == (
            (0, 0), (1, 0), (2, 0), (3, 0),
            (0, 1), (1, 1), (2, 1),
            (0, 2), (1, 2),
            (0, 3),
        )

    def test_is_permutation_and_inverse(self):
        for D, M in ((2, 5), (3, 4)):
            s = index.IndexSet(D, M)
            bp = index.block_permutation(s)
            assert sorted(bp.source) == list(range(s.N))
            for r in range(1, s.N + 1):
                assert bp.backward(bp.forward(r)) == r
                assert bp.forward(bp.backward(r)) == r

    def test_image_sorted_by_trailing_subindex(self):
        s = index.IndexSet(3, 4)
        bp = index.block_permutation(s)
        keys = [(a[1:], a[0]) for a in bp.image]
        assert keys == sorted(keys)

    def test_block_sizes(self):
        s = index.IndexSet(2, 6)
        bp = index.block_permutation(s)
        for h, start, size in bp.blocks:
            assert size == s.M + 1 - sum(h)
        assert sum(b[2] for b in bp.blocks) == s.N

    def test_built_once_and_read_only(self):
        s = index.IndexSet(2, 4)
        bp = index.block_permutation(s)
        assert index.block_permutation(index.IndexSet(2, 4)) is bp
        with pytest.raises(ValueError):
            bp.source[0] = 1

    def test_apply_round_trip(self):
        s = index.IndexSet(2, 4)
        bp = index.block_permutation(s)
        w = np.random.default_rng(0).normal(size=s.N)
        assert np.array_equal(bp.inverse_apply(bp.apply(w)), w)

    def test_conjugate_round_trip(self):
        s = index.IndexSet(2, 4)
        bp = index.block_permutation(s)
        A = np.random.default_rng(1).normal(size=(s.N, s.N))
        assert np.array_equal(bp.unconjugate(bp.conjugate(A)), A)
        # conjugation implements the change of basis: A' (P w) == P (A w)
        w = np.random.default_rng(2).normal(size=s.N)
        lhs = bp.conjugate(A) @ bp.apply(w)
        rhs = bp.apply(A @ w)
        assert np.allclose(lhs, rhs)


class TestHelpers:
    def test_void(self):
        assert index.is_void((0, -1))
        assert not index.is_void((0, 0))

    def test_factorial(self):
        assert index.factorial((2, 1)) == 2
        assert index.factorial((3, 0, 2)) == 12
        assert index.factorial((0,)) == 1

    def test_unit_and_arith(self):
        assert index.unit(3, 2) == (0, 1, 0)
        assert index.add((1, 0), (0, 2)) == (1, 2)
        assert index.sub((1, 0), (0, 2)) == (1, -2)


class TestRankLookup:
    def test_table_matches_ordinal(self):
        for D, M in ((1, 7), (2, 5), (3, 4)):
            s = index.IndexSet(D, M)
            for a in brute_force_indices(D, M):
                assert s.rank0(a) == index.ordinal(a, s) - 1
                assert s.rank0(list(a)) == s.rank0(a)

    @pytest.mark.parametrize("D", [1, 2, 3])
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 6])
    def test_rank_array_matches_rank0(self, D, M):
        s = index.IndexSet(D, M)
        alphas = list(itertools.product(range(-1, M + 2), repeat=D))
        want = [s.rank0(a) if a in s.indices else s.N for a in alphas]
        got = index.rank_array(D, M, np.array(alphas))
        assert got.dtype.kind == "i" and got.tolist() == want
        k = len(alphas) // 3 * 3
        stacked = np.array(alphas[:k]).reshape(k // 3, 3, D)
        got = index.rank_array(D, M, stacked)
        assert got.shape == (k // 3, 3) and got.dtype.kind == "i"
        assert got.ravel().tolist() == want[:k]

    @pytest.mark.parametrize("alpha", [(-1, 2), (2, 2), (1,), (0, 0, 0)])
    def test_miss_raises_like_ordinal(self, alpha):
        s = index.IndexSet(2, 3)
        with pytest.raises(ValueError) as want:
            index.ordinal(alpha, s)
        with pytest.raises(ValueError) as got:
            s.rank0(alpha)
        assert str(got.value) == str(want.value)
