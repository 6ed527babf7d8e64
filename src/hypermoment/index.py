"""Multi-index enumeration, ranking, and the block-grouping permutation.

Multi-indices are plain tuples of nonnegative ints. A "void" index (any
negative entry) is representable and compares unequal to every valid index;
coefficient lookups built on top of this module map void to zero.

Every compiled table that shifts indices reads its ranks from rank_array,
which gives a void or out-of-set index rank N: its readers keep a zero there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np


def _binom(n: int, k: int) -> int:
    if n < 0 or k < 0 or n < k:
        return 0
    return math.comb(n, k)


def is_void(alpha: Sequence[int]) -> bool:
    """True when any entry is negative (the decrement fell off the set)."""
    return any(a < 0 for a in alpha)


def order(alpha: Sequence[int]) -> int:
    return int(sum(alpha))


def add(alpha: Sequence[int], beta: Sequence[int]) -> tuple:
    return tuple(a + b for a, b in zip(alpha, beta))


def sub(alpha: Sequence[int], beta: Sequence[int]) -> tuple:
    """Componentwise difference; may produce a void index."""
    return tuple(a - b for a, b in zip(alpha, beta))


def unit(D: int, i: int) -> tuple:
    """The i-th unit index (1-based axis i)."""
    e = [0] * D
    e[i - 1] = 1
    return tuple(e)


def factorial(alpha: Sequence[int]) -> int:
    """Product of entrywise factorials."""
    out = 1
    for a in alpha:
        for k in range(2, a + 1):
            out *= k
    return out


def cardinality(D: int, M: int) -> int:
    """Number of multi-indices of dimension D with order at most M."""
    if D < 1:
        raise ValueError(f"dimension must be >= 1, got {D}")
    if M < 0:
        raise ValueError(f"max order must be >= 0, got {M}")
    return _binom(M + D, D)


def ordinal(alpha: Sequence[int], set_: "IndexSet") -> int:
    """1-based rank of alpha in the graded ordering of the index set.

    The rank is 1 + sum over i of binom(s_i + i - 1, i), where s_i is the
    sum of the last i entries. Raises if alpha lies outside the set.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != set_.D:
        raise ValueError(f"index has {len(alpha)} entries, set has D={set_.D}")
    if is_void(alpha):
        raise ValueError(f"negative entry in {alpha}")
    if order(alpha) > set_.M:
        raise ValueError(f"order {order(alpha)} exceeds M={set_.M}")
    r, s = 1, 0
    for i, a in enumerate(reversed(alpha), 1):
        s += a
        r += _binom(s + i - 1, i)
    return r


def unrank(rank: int, set_: "IndexSet") -> tuple:
    """Inverse of ordinal. Uses the greedy combinatorial-number-system decode."""
    if not 1 <= rank <= set_.N:
        raise ValueError(f"rank {rank} outside 1..{set_.N}")
    D = set_.D
    n = rank - 1
    suffix_sums = [0] * (D + 1)
    for i in range(D, 0, -1):
        # largest c with binom(c, i) <= n; c >= i - 1 always works since binom(i-1, i) = 0
        c = i - 1
        while _binom(c + 1, i) <= n:
            c += 1
        suffix_sums[i] = c - i + 1
        n -= _binom(c, i)
    alpha = [0] * D
    for i in range(D, 0, -1):
        alpha[D - i] = suffix_sums[i] - suffix_sums[i - 1]
    return tuple(alpha)


@lru_cache(maxsize=None)
def _enumerate(D: int, M: int) -> tuple:
    """All indices in rank order: graded by total order, ties by decreasing
    plain lexicographic order of the entry tuple."""
    out = []

    def rec(prefix, remaining_axes, budget):
        if remaining_axes == 0:
            out.append(tuple(prefix))
            return
        for a in range(budget + 1):
            rec(prefix + [a], remaining_axes - 1, budget - a)

    rec([], D, M)
    out.sort(key=lambda a: (order(a), tuple(-x for x in a)))
    return tuple(out)


@dataclass(frozen=True)
class IndexSet:
    """All multi-indices of dimension D with order at most M, rank-ordered."""

    D: int
    M: int

    def __post_init__(self):
        if self.D < 1:
            raise ValueError(f"dimension must be >= 1, got {self.D}")
        if self.M < 2:
            raise ValueError(f"max order must be >= 2, got {self.M}")

    @property
    def N(self) -> int:
        return cardinality(self.D, self.M)

    @property
    def indices(self) -> tuple:
        """Tuple of all multi-indices; position k holds the index of rank k+1."""
        return _enumerate(self.D, self.M)

    def rank0(self, alpha: Sequence[int]) -> int:
        """0-based rank, convenient for array indexing. A table lookup; an
        index outside the set goes through ordinal, which raises."""
        try:
            return _rank_table(self.D, self.M)[alpha]
        except (KeyError, TypeError):
            return ordinal(alpha, self) - 1


@lru_cache(maxsize=None)
def _rank_table(D: int, M: int) -> dict:
    return {a: k for k, a in enumerate(_enumerate(D, M))}


def rank_array(D: int, M: int, alphas) -> np.ndarray:
    """0-based ranks in IndexSet(D, M) of the integer array alphas (..., D),
    as an int array of shape alphas.shape[:-1]; a void or out-of-set index
    gets rank N."""
    alphas = np.asarray(alphas)
    rank = _rank_table(D, M)
    flat = alphas.reshape(-1, D).tolist()
    return np.array([rank.get(tuple(a), len(rank)) for a in flat], dtype=int).reshape(alphas.shape[:-1])


@dataclass(frozen=True)
class RaisingStep:
    """One order k >= 1 of the raising recurrence, for the indices beta of
    that order (ranks lo..hi-1); rank N stands for a void index.

    axis: the first nonzero axis d of each beta; base: the rank of
    beta - e_d; mult, down (cols, D): per axis j, (beta - e_d)_j and the
    rank of beta - e_d - e_j.
    """

    lo: int
    hi: int
    axis: np.ndarray
    base: np.ndarray
    mult: np.ndarray
    down: np.ndarray


@lru_cache(maxsize=None)
def raising_tables(D: int, M: int) -> tuple:
    """The raising recurrence of IndexSet(D, M), compiled once: one
    RaisingStep per order 1..M, its arrays shared read-only. Its one reader
    is the moment kernel hermite.gaussian_raw_moments, which gives the
    Gaussian moments (from which the conversions, the relaxation target and
    state.moment_table follow) and, with shift ThetaInv x and covariance
    -ThetaInv, the basis polynomials of hermite.ghe_table.
    """
    deg = np.array(_enumerate(D, M))
    low = rank_array(D, M, deg[:, None] - np.eye(D, dtype=int))
    bounds = np.searchsorted(deg.sum(axis=1), np.arange(M + 2))
    steps = []
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        axis = np.argmax(deg[lo:hi] > 0, axis=1)
        base = low[np.arange(lo, hi), axis]
        arrays = (axis, base, deg[base].astype(float), low[base])
        for a in arrays:
            a.setflags(write=False)
        steps.append(RaisingStep(int(lo), int(hi), *arrays))
    return tuple(steps)


def hat(alpha: Sequence[int], axis: int = 1) -> tuple:
    """Entries other than the one on the given 1-based axis (the grouping
    key for the block ordering)."""
    return tuple(alpha[: axis - 1]) + tuple(alpha[axis:])


@dataclass(frozen=True)
class BlockPermutation:
    """Reordering of the state vector that groups indices sharing a trailing
    sub-index, yielding block lower triangular transport matrices.

    source[j] is the 0-based original position whose entry lands at permuted
    position j. blocks lists (trailing sub-index, start, size) in permuted
    order; block sizes are M + 1 - |trailing sub-index|.
    """

    set_: IndexSet
    source: np.ndarray = field(repr=False)
    blocks: tuple = ()
    axis: int = 1

    @property
    def dest(self) -> np.ndarray:
        d = np.empty_like(self.source)
        d[self.source] = np.arange(len(self.source))
        return d

    def forward(self, rank: int) -> int:
        """1-based original rank stored at 1-based permuted position."""
        return int(self.source[rank - 1]) + 1

    def backward(self, rank: int) -> int:
        """1-based permuted position of the 1-based original rank."""
        return int(self.dest[rank - 1]) + 1

    @property
    def image(self) -> tuple:
        """Multi-indices in permuted order."""
        idx = self.set_.indices
        return tuple(idx[s] for s in self.source)

    def apply(self, w: np.ndarray) -> np.ndarray:
        return np.asarray(w)[..., self.source]

    def inverse_apply(self, wp: np.ndarray) -> np.ndarray:
        w = np.empty_like(np.asarray(wp))
        w[..., self.source] = np.asarray(wp)
        return w

    def conjugate(self, A: np.ndarray) -> np.ndarray:
        """Matrix of the same operator acting on the permuted vector; A may
        carry leading batch axes (..., N, N)."""
        A = np.asarray(A)
        return A[..., self.source[:, None], self.source]

    def unconjugate(self, Ap: np.ndarray) -> np.ndarray:
        Ap = np.asarray(Ap)
        out = np.empty_like(Ap)
        out[np.ix_(self.source, self.source)] = Ap
        return out


@lru_cache(maxsize=None)
def block_permutation(set_: IndexSet, axis: int = 1) -> BlockPermutation:
    """Permutation grouping entries that differ only on the given axis.

    Groups are ordered by plain ascending lexicographic order of the grouping
    key; inside each group entries are ordered by the axis entry. Built once
    per (set, axis) and shared, so source is read-only.
    """
    if not 1 <= axis <= set_.D:
        raise ValueError(f"axis must be in 1..{set_.D}, got {axis}")
    idx = set_.indices
    order_key = sorted(
        range(set_.N), key=lambda k: (hat(idx[k], axis), idx[k][axis - 1])
    )
    source = np.array(order_key, dtype=np.intp)
    source.setflags(write=False)
    blocks = []
    pos = 0
    while pos < set_.N:
        h = hat(idx[order_key[pos]], axis)
        size = set_.M + 1 - order(h)
        blocks.append((h, pos, size))
        pos += size
    return BlockPermutation(set_=set_, source=source, blocks=tuple(blocks), axis=axis)
