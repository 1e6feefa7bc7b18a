"""Young-diagram combinatorics for bounded-row partitions.

Partitions are tuples of weakly decreasing positive integers with no
trailing zeros; the empty tuple is the unique partition of 0. A row bound
``d`` is always passed as a separate argument, never stored, so the same
tuple can be reused under any bound.

Enumeration is array-native. ``partition_level(n, d)`` returns the level
table of all partitions of ``n`` into at most ``d`` rows, a zero-padded
(K, d) int64 matrix in descending lexicographic order, together with the
index that maps each diagram of level n - 1 plus one box to its row in the
table. Both are stored column by column (Fortran order), so row i of every
diagram is one contiguous array of length K, which is what the per-row
kernels of the log-domain sums read. Level n is built from level n - 1,
because every diagram has exactly one parent (itself minus a box from its
last row); the index is filled one diagram row at a time, through level
n - 1's own index. The last level built for each ``d`` is kept and extended
on demand, so a scan over increasing N builds every level once and holds one
table per row bound, not one per N. ``enumerate_partitions`` is a tuple view
of the table.

The exact dimensions are level data: ``PartitionLevel.specht`` and
``PartitionLevel.weyl`` list them in table order, formed on first read and
dropped with the level, so every reader at one (d, N) shares one list and a
scan holds the lists of one level per row bound. ``specht_dim`` and
``weyl_dim`` form one diagram's dimension and keep nothing; no function
here is memoised. The log-domain sums read no exact dimension: they walk
the level index (the log-dimensions in one vectorised pass in
``fidelity``), and the optimizer reads the log-dimension row kernels per
diagram above ``fidelity.EXACT_THRESHOLD``.
Concurrent readers are safe: level arrays are read-only, a level or table
is complete before it is stored with a single assignment, and two threads
that race to extend one, or to read a level's dimensions first, build equal
tables or lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

Partition = tuple[int, ...]


def is_valid_partition(parts: Sequence[int]) -> bool:
    """True if ``parts`` is weakly decreasing with strictly positive entries."""
    # weakly decreasing, so positive iff the last entry is
    return not parts or (parts[-1] > 0 and all(map(operator.ge, parts, parts[1:])))


def check_partition(parts: Iterable[int]) -> Partition:
    """Normalise to a tuple and reject anything that is not a partition."""
    mu = tuple(int(p) for p in parts)
    if not is_valid_partition(mu):
        raise ValueError(f"not a valid partition: {parts!r}")
    return mu


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

    ``table`` and ``successors`` are Fortran-ordered: column ``i``, row i of
    every diagram or the successors grown in row i, is contiguous. The
    values, shapes and the order of the diagrams do not depend on it.
    ``specht`` and ``weyl``, formed on first read, list the exact dimensions
    d_mu and m_{d,mu} of the diagrams in table order.
    """

    n: int
    table: np.ndarray
    lengths: np.ndarray
    parent: np.ndarray
    successors: np.ndarray

    @cached_property
    def specht(self) -> list[int]:
        return [specht_dim(mu) for mu in table_partitions(self.table)]

    @cached_property
    def weyl(self) -> list[int]:
        return [weyl_dim(mu, self.table.shape[1]) for mu in table_partitions(self.table)]


# one level per row bound: the last one requested, extended on demand
_levels: dict[int, PartitionLevel] = {}


def _frozen_level(n, table, lengths, parent, successors) -> PartitionLevel:
    for arr in (table, lengths, parent, successors):
        arr.flags.writeable = False
    return PartitionLevel(n, table, lengths, parent, successors)


def _empty_level(d: int) -> PartitionLevel:
    """Level 0: the empty diagram, with no rows and no parent."""
    lengths = np.zeros(1, dtype=np.int64)
    table = np.zeros((1, d), dtype=np.int64, order="F")
    successors = np.empty((0, d), dtype=np.int64, order="F")
    return _frozen_level(0, table, lengths, lengths - 1, successors)


def _next_level(level: PartitionLevel) -> PartitionLevel:
    """Level n + 1 from level n.

    Every diagram of n + 1 boxes has exactly one parent, the diagram left
    after removing a box from its last row. So the children of a diagram
    with k rows are itself with a box added to row k - 1, when that keeps
    the rows decreasing, and to a new row k, when k < d. Listing each
    parent's children in that order, parents in descending lexicographic
    order, lists the new level already sorted, and a child's last row is
    the row it grew.
    """
    rows, k = level.table, level.lengths
    K, d = rows.shape
    last = k - 1
    # a box may go into row i iff i == 0 or row i is shorter than row i - 1
    open_rows = np.ones((K, d), dtype=bool, order="F")
    np.less(rows[:, 1:], rows[:, :-1], out=open_rows[:, 1:])
    # entry (alpha, last row of alpha) of a column-major (K, d) array, flattened
    at_last = last * K
    # two child slots per diagram, a box in its last row and in a new row
    slots = np.empty((K, 2), dtype=bool)
    last_open = open_rows.reshape(-1, order="F")[at_last + np.arange(K)]
    np.logical_and(last_open, k > 0, out=slots[:, 0])
    np.less(k, d, out=slots[:, 1])
    filled = np.flatnonzero(slots)
    parent = filled >> 1
    grown = last[parent] + (filled & 1)
    children = np.arange(parent.size)
    # the transposes are C-ordered (d, K): row i of each is column i of the level
    table_t = rows.T.take(parent, axis=1)
    table_t.reshape(-1)[grown * parent.size + children] += 1
    successors_t = np.full((d, K), -1, dtype=np.int64)
    flat = successors_t.reshape(-1)
    flat[grown * K + parent] = children
    # A box in an earlier open row i < k - 1 gives alpha + box_i, whose
    # parent beta = alpha + box_i - box_{k-1} is in level n: find beta
    # through level n's own index, then take beta's child in row k - 1,
    # which the scatter above has filled. One row i at a time; a diagram of
    # level n has at most min(n, d) rows.
    for i in range(min(level.n, d) - 1):
        beta = level.successors[:, i][level.parent]
        np.copyto(successors_t[i], flat[at_last + beta], where=open_rows[:, i] & (last > i))
    return _frozen_level(level.n + 1, table_t.T, grown + 1, parent, successors_t.T)


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


def _shifted_rows(mu: Partition) -> tuple[list[int], int]:
    """The shifted row lengths l_i = mu_i + k - 1 - i of a k-row diagram,
    which strictly decrease, and their Vandermonde prod_{i<j} (l_i - l_j)."""
    k = len(mu)
    ell = [mu[i] + k - 1 - i for i in range(k)]
    return ell, math.prod(ell[i] - ell[j] for i in range(k) for j in range(i + 1, k))


def specht_dim(mu: Partition) -> int:
    """Exact dimension of the symmetric-group irrep labelled by ``mu``.

    Frobenius' formula over the shifted row lengths l_i = mu_i + k - 1 - i
    of the k rows: n! prod_{i<j} (l_i - l_j) / prod_i l_i!, with n! / l_0!
    taken as one falling product.
    """
    mu = check_partition(mu)
    if not mu:
        return 1
    (head, *rest), vandermonde = _shifted_rows(mu)
    n = sum(mu)
    return math.perm(n, n - head) * vandermonde // math.prod(map(math.factorial, rest))


def _weyl_quotient(mu: Partition, d: int) -> tuple[int, int]:
    """Numerator and divisor of Weyl's formula for a diagram of k <= d rows.

    prod_{i<j<=d} (mu_i - mu_j + j - i) / (j - i) splits into the pairs of
    rows, prod_{i<j<k} (l_i - l_j) / (j - i) with l_i = mu_i + k - 1 - i,
    and the pairs of a row with the s = d - k empty ones,
    prod_{i<k} perm(l_i + s, mu_i) / perm(l_i, mu_i). Each of the latter
    equals perm(l_i + s, s) / perm(d - 1 - i, s). The shorter of the two
    is taken, min(mu_i, s) factors a side, so no intermediate grows with d
    at a fixed diagram, nor with the rows at a fixed d.
    """
    ell, numerator = _shifted_rows(mu)
    k, s = len(mu), d - len(mu)
    divisor = math.prod(map(math.factorial, range(k)))  # prod_{i<j<k} (j - i)
    for i, row in enumerate(mu):
        if s < row:
            numerator *= math.perm(ell[i] + s, s)
            divisor *= math.perm(d - 1 - i, s)
        else:
            numerator *= math.perm(ell[i] + s, row)
            divisor *= math.perm(ell[i], row)
    return numerator, divisor


def weyl_dim(mu: Partition, d: int) -> int:
    """Exact dimension of the U(d) irrep labelled by ``mu``.

    Weyl's formula prod_{i<j<=d} (mu_i - mu_j + j - i) / (j - i), taken
    over the diagram's own rows (``_weyl_quotient``). Rejects diagrams with
    more than ``d`` rows.
    """
    mu = check_partition(mu)
    if d < 1:
        raise ValueError("d must be positive")
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than d={d} rows")
    q, r = divmod(*_weyl_quotient(mu, d))
    if r:
        raise ArithmeticError(f"Weyl quotient for {mu}, d={d} is not an integer")
    return q


# math.lgamma(k) and math.log(k) at k = 0, 1, ... (at k = 0 their limits),
# the last tables built, extended on demand
_log_tables: tuple[list[float], list[float]] = ([math.inf], [-math.inf])


def _integer_logs(n: int) -> tuple[list[float], list[float]]:
    """The tables of math.lgamma(k) and math.log(k), holding at least k <= n.
    A grown table is stored with a single assignment, so readers never see a
    partial one."""
    global _log_tables
    lgamma, log = _log_tables
    if len(lgamma) <= n:
        size = max(n + 1, 2 * len(lgamma))
        lgamma = lgamma + [math.lgamma(k) for k in range(len(lgamma), size)]
        log = log + [math.log(k) for k in range(len(log), size)]
        _log_tables = (lgamma, log)
    return lgamma, log


def log_specht_row(mu: Partition) -> float:
    """ln of the Specht dimension of a partition tuple, unvalidated and
    uncached, without big-integer arithmetic: the factorial-quotient form
    with shifted row lengths l_i = mu_i + k - i, O(k^2) per diagram."""
    n, k = sum(mu), len(mu)
    if n == 0:
        return 0.0
    lgamma, log = _integer_logs(n + 1)
    ell = [mu[i] + k - 1 - i for i in range(k)]
    val = lgamma[n + 1]
    for i in range(k):
        for j in range(i + 1, k):
            val += log[ell[i] - ell[j]]
        val -= lgamma[ell[i] + 1]
    return val


def log_weyl_row(mu: Partition, d: int) -> float:
    """ln of the Weyl dimension of a partition tuple with at most ``d``
    rows, unvalidated and uncached: the pairwise product over d padded rows."""
    rows = mu + (0,) * (d - len(mu))
    _, log = _integer_logs(rows[0] + d)
    val = 0.0
    for i in range(d):
        for j in range(i + 1, d):
            val += log[rows[i] - rows[j] + j - i] - log[j - i]
    return val
