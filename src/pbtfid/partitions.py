"""Young-diagram combinatorics for bounded-row partitions.

Partitions are plain tuples of weakly decreasing positive integers with no
trailing zeros; the empty tuple is the unique partition of 0. A row bound
``d`` is always passed as a separate argument, never stored, so the same
tuple can be reused under any bound.

Enumeration is array-native. ``partition_level(n, d)`` returns the level
table of all partitions of ``n`` into at most ``d`` rows, a zero-padded
(K, d) int64 matrix in descending lexicographic order, together with the
index that maps each diagram of level n - 1 plus one box to its row in the
table. Level n is built from level n - 1, because every diagram has exactly
one parent (itself minus a box from its last row). The last level built for
each ``d`` is kept and extended on demand, so a scan over increasing N
builds every level once and holds one table per row bound, not one per N.
``enumerate_partitions`` is a tuple view of the table.

The per-diagram functions (box moves, dimensions, characters) are pure and
memoised with ``lru_cache``. Concurrent readers are safe: level arrays are
read-only, a level is complete before it is stored with a single dict
assignment, and two threads that race to extend a level build equal tables.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

Partition = tuple[int, ...]


def is_valid_partition(parts: Sequence[int]) -> bool:
    """True if ``parts`` is weakly decreasing with strictly positive entries."""
    return all(p > 0 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def check_partition(parts: Iterable[int]) -> Partition:
    """Normalise to a tuple and reject anything that is not a partition."""
    mu = tuple(int(p) for p in parts)
    if not is_valid_partition(mu):
        raise ValueError(f"not a valid partition: {parts!r}")
    return mu


def conjugate(mu: Partition) -> Partition:
    """Transpose of the diagram: columns become rows."""
    if not mu:
        return ()
    out = [0] * mu[0]
    for row in mu:
        for j in range(row):
            out[j] += 1
    return tuple(out)


@dataclass(frozen=True)
class PartitionLevel:
    """All partitions of ``n`` into at most ``d`` rows, as read-only arrays.

    ``table`` is the (K, d) int64 matrix of the diagrams, zero-padded to
    ``d`` columns, in descending lexicographic order, which is the canonical
    order used by every summation in this package; iterating in a fixed order
    keeps floating-point results bit-reproducible. ``lengths[m]`` is the
    number of nonzero rows of ``table[m]``.

    ``parent[m]`` is the row of level n - 1 holding ``table[m]`` minus one
    box of its last row. ``successors[a, i]`` is the row of ``table``
    holding row ``a`` of level n - 1 plus one box in row ``i``, or -1 where
    that is not a diagram; every box-addition sum walks this index.
    """

    n: int
    table: np.ndarray
    lengths: np.ndarray
    parent: np.ndarray
    successors: np.ndarray


# one level per row bound: the last one requested, extended on demand
_levels: dict[int, PartitionLevel] = {}


def _frozen_level(n, table, lengths, parent, successors) -> PartitionLevel:
    for arr in (table, lengths, parent, successors):
        arr.flags.writeable = False
    return PartitionLevel(n, table, lengths, parent, successors)


def _empty_level(d: int) -> PartitionLevel:
    """Level 0: the empty diagram, with no rows and no parent."""
    lengths = np.zeros(1, dtype=np.int64)
    table = np.zeros((1, d), dtype=np.int64)
    return _frozen_level(0, table, lengths, lengths - 1, np.empty((0, d), dtype=np.int64))


def _next_level(level: PartitionLevel) -> PartitionLevel:
    """Level n + 1 from level n.

    Every diagram of n + 1 boxes has exactly one parent, the diagram left
    after removing a box from its last row. So the children of a diagram
    with k rows are itself with a box added to row k - 1, when that keeps
    the rows decreasing, and to a new row k, when k < d. Listing each
    parent's children in that order, parents in descending lexicographic
    order, lists the new level already sorted.
    """
    rows, k = level.table, level.lengths
    K, d = rows.shape
    # a box may go into row i iff i == 0 or row i is shorter than row i - 1
    flat = rows.reshape(-1)
    open_rows = np.empty(K * d, dtype=bool)
    np.less(flat[1:], flat[:-1], out=open_rows[1:])
    open_rows[::d] = True
    grow_last = (k > 0) & open_rows[np.arange(0, K * d, d) + np.maximum(k - 1, 0)]
    counts = grow_last + (k < d).astype(np.int64)
    parent = np.repeat(np.arange(K), counts)
    grown = np.repeat(k - grow_last, counts)
    grown[np.cumsum(counts)[counts == 2] - 1] += 1
    children = np.arange(parent.size)
    table = np.take(rows, parent, axis=0)
    table.reshape(-1)[children * d + grown] += 1
    lengths = k[parent] + (grown == k[parent])
    successors = np.full(K * d, -1, dtype=np.int64)
    successors[parent * d + grown] = children
    # A box in an earlier open row i < k - 1 gives alpha + box_i, whose
    # parent beta = alpha + box_i - box_{k-1} is in level n: find beta
    # through level n's own index, then take beta's child in row k - 1.
    earlier = np.flatnonzero(open_rows.reshape(K, d) & (np.arange(d) < (k - 1)[:, None]))
    a, i = np.divmod(earlier, d)
    beta = level.successors.reshape(-1)[level.parent[a] * d + i]
    successors[earlier] = successors[beta * d + k[a] - 1]
    return _frozen_level(level.n + 1, table, lengths, parent, successors.reshape(K, d))


def partition_level(n: int, d: int) -> PartitionLevel:
    """The partitions of ``n`` into at most ``d`` rows, with the index
    from level n - 1 into them.

    The last level built for each ``d`` is kept and extended one box at a
    time, so a scan over increasing N builds every level once. A request
    below the kept level starts again from the empty diagram.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if d < 1:
        raise ValueError("row bound d must be positive")
    level = _levels.get(d)
    if level is None or level.n > n:
        level = _empty_level(d)
    while level.n < n:
        level = _next_level(level)
    _levels[d] = level
    return level


def table_partitions(table: np.ndarray) -> tuple[Partition, ...]:
    """The rows of a zero-padded partition table as tuples, in table order."""
    return tuple(tuple(v for v in row if v) for row in table.tolist())


def enumerate_partitions(n: int, max_rows: int) -> tuple[Partition, ...]:
    """All partitions of ``n`` into at most ``max_rows`` parts, as tuples.

    A tuple view of ``partition_level(n, max_rows).table``: descending
    lexicographic order, and ``n = 0`` yields the single empty partition.
    """
    return table_partitions(partition_level(n, max_rows).table)


@dataclass(frozen=True)
class BoxRelation:
    """A covering pair alpha < mu in Young's lattice.

    ``row`` is the 0-based index of the row that differs: mu equals alpha
    with one extra box in that row.
    """

    alpha: Partition
    mu: Partition
    row: int


@lru_cache(maxsize=None)
def add_box_successors(alpha: Partition, d: int) -> tuple[BoxRelation, ...]:
    """All diagrams mu = alpha + one box with at most ``d`` rows.

    Candidates that would not be weakly decreasing are dropped, so only
    valid diagrams are emitted. Ordered by the grown row, which coincides
    with descending lexicographic order of mu.
    """
    alpha = check_partition(alpha)
    if d < 1:
        raise ValueError("row bound d must be positive")
    if len(alpha) > d:
        raise ValueError(f"partition {alpha} already exceeds {d} rows")
    out = []
    for i in range(min(len(alpha) + 1, d)):
        if i < len(alpha):
            if i > 0 and alpha[i] + 1 > alpha[i - 1]:
                continue
            mu = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
        else:
            mu = alpha + (1,)
        out.append(BoxRelation(alpha=alpha, mu=mu, row=i))
    return tuple(out)


@lru_cache(maxsize=None)
def remove_box_predecessors(mu: Partition) -> tuple[BoxRelation, ...]:
    """All diagrams alpha = mu minus one box, i.e. rows i with mu_i > mu_{i+1}."""
    mu = check_partition(mu)
    if not mu:
        raise ValueError("the empty partition has no box to remove")
    out = []
    for i in range(len(mu)):
        below = mu[i + 1] if i + 1 < len(mu) else 0
        if mu[i] > below:
            shrunk = mu[i] - 1
            alpha = mu[:i] + ((shrunk,) if shrunk else ()) + mu[i + 1 :]
            out.append(BoxRelation(alpha=alpha, mu=mu, row=i))
    return tuple(out)


def _hook_product(mu: Partition) -> int:
    conj = conjugate(mu)
    prod = 1
    for i, row in enumerate(mu):
        for j in range(row):
            prod *= row - j + conj[j] - i - 1
    return prod


@lru_cache(maxsize=None)
def specht_dim(mu: Partition) -> int:
    """Exact dimension of the symmetric-group irrep labelled by ``mu``.

    Hook length formula: n! divided by the product of all hook lengths.
    """
    mu = check_partition(mu)
    return math.factorial(sum(mu)) // _hook_product(mu)


@lru_cache(maxsize=None)
def weyl_dim(mu: Partition, d: int) -> int:
    """Exact dimension of the U(d) irrep labelled by ``mu``.

    Hook-content formula: product over cells of (d + column - row) divided
    by the hook length. Rejects diagrams with more than ``d`` rows.
    """
    mu = check_partition(mu)
    if d < 1:
        raise ValueError("d must be positive")
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than d={d} rows")
    num = 1
    for i, row in enumerate(mu):
        for j in range(row):
            num *= d + j - i
    q, r = divmod(num, _hook_product(mu))
    if r:
        raise ArithmeticError(f"hook-content quotient for {mu}, d={d} is not an integer")
    return q


@lru_cache(maxsize=None)
def log_specht_dim(mu: Partition) -> float:
    """ln of the Specht dimension, without big-integer arithmetic.

    Uses the factorial-quotient form with shifted row lengths
    l_i = mu_i + k - i, which costs O(k^2) instead of O(n) per diagram and
    keeps full scans to N ~ 10^3 cheap.
    """
    mu = check_partition(mu)
    n, k = sum(mu), len(mu)
    if n == 0:
        return 0.0
    ell = [mu[i] + k - 1 - i for i in range(k)]
    val = math.lgamma(n + 1)
    for i in range(k):
        for j in range(i + 1, k):
            val += math.log(ell[i] - ell[j])
        val -= math.lgamma(ell[i] + 1)
    return val


@lru_cache(maxsize=None)
def log_weyl_dim(mu: Partition, d: int) -> float:
    """ln of the Weyl dimension via the pairwise product over d padded rows."""
    mu = check_partition(mu)
    if d < 1:
        raise ValueError("d must be positive")
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than d={d} rows")
    rows = mu + (0,) * (d - len(mu))
    val = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            val += math.log(rows[i] - rows[j] + j - i) - math.log(j - i)
    return val


@dataclass(frozen=True)
class DimensionRecord:
    """Exact Specht/Weyl dimensions of one diagram plus their logarithms."""

    partition: Partition
    specht_dim: int
    weyl_dim: int
    log_specht: float
    log_weyl: float


@lru_cache(maxsize=None)
def dimension_record(mu: Partition, d: int) -> DimensionRecord:
    """Full dimension data for ``mu`` under the row bound ``d``.

    The logarithms are taken of the exact integers (math.log accepts
    arbitrary-size ints), so exp(log) matches the exact value to a few ulp.
    """
    ds = specht_dim(mu)
    mw = weyl_dim(mu, d)
    return DimensionRecord(mu, ds, mw, math.log(ds), math.log(mw))


# ---------------------------------------------------------------------------
# Symmetric-group characters (Murnaghan-Nakayama recursion)
# ---------------------------------------------------------------------------


def sn_character(mu: Partition, cycle_type: Partition) -> int:
    """Irreducible S_n character of ``mu`` on the class with the given cycle type."""
    mu = check_partition(mu)
    lam = tuple(sorted(check_partition(cycle_type), reverse=True))
    if sum(mu) != sum(lam):
        raise ValueError(
            f"size mismatch: |mu| = {sum(mu)} but |cycle_type| = {sum(lam)}"
        )
    return _mn_character(mu, lam)


@lru_cache(maxsize=None)
def _mn_character(mu: Partition, lam: Partition) -> int:
    if not lam:
        return 1
    strip, rest = lam[0], lam[1:]
    k = len(mu)
    beta = [mu[i] + k - 1 - i for i in range(k)]
    occupied = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in occupied:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        rows = [new_beta[i] - (k - 1 - i) for i in range(k)]
        nu = tuple(v for v in rows if v)
        total += (-1) ** height * _mn_character(nu, rest)
    return total


def permutation_cycle_type(perm: Sequence[int]) -> Partition:
    """Cycle type of a permutation in one-line form (perm[k] is the image of k)."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def conjugacy_class_size(cycle_type: Partition) -> int:
    """Number of permutations in S_n with the given cycle type."""
    lam = check_partition(cycle_type)
    n = sum(lam)
    centraliser = 1
    for length, mult in Counter(lam).items():
        centraliser *= length**mult * math.factorial(mult)
    return math.factorial(n) // centraliser
