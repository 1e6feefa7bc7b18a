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

Three functions are memoised with ``lru_cache``, without a bound, because
what a run asks of them is bounded. The exact dimensions (``specht_dim``,
``weyl_dim``) are asked for the same diagrams again by every exact-hybrid
evaluation at one point (``verify`` forms F and two block spectra at one
(d, N)); the log-domain sums read none, so a run caches only the diagrams
of the levels it evaluates exactly, N up to 40 (``fidelity.EXACT_THRESHOLD``)
in a scan and N and N - 1 for a block spectrum. The Murnaghan-Nakayama
recursion (``_mn_character``) reuses its own results, for the diagrams and
cycle types its callers ask of ``sn_character``; the oracle asks for none
(its isotypic projectors are spectral projectors of the transposition
class sum). No other function is
memoised: the sums walk the level index (the log-dimensions in one
vectorised pass in ``fidelity``), and the optimizer reads the log-dimension
row kernels per diagram.
Concurrent readers are safe: level arrays are read-only, a level or table
is complete before it is stored with a single assignment, and two threads
that race to extend one build equal tables.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
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

    ``table`` and ``successors`` are Fortran-ordered: column ``i``, row i of
    every diagram or the successors grown in row i, is contiguous. The
    values, shapes and the order of the diagrams do not depend on it.
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
