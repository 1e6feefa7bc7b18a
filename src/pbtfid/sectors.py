"""Block layouts of the oracle's operators on tensor slots.

Every operator the oracle builds on the port space (C^d)^(N+1), the N port
slots A_1..A_N then the B slot, commutes with U^(xN) x conj(U). For diagonal
U it is zero between basis indices of different weight n_k(a) - [b = k],
the digit counts of (a_1..a_N, b); for U a permutation of the letters
{0..d-1}, the block of each weight sector is a fixed gather of the block of
the sector it is the image of. ``_Sectors`` holds such an operator as one
block per orbit of sectors under the letter permutations, with its
multiplicity. An operator built from entries is measured, entry by entry
(``_layout``): held so when every block equals its representative's
gathered, as the oracle's own constructions do by construction, else as one
dense block. Operators on the N port slots alone that commute with U^(xN),
such as the isotypic projectors, are held the same way in the letter-count
sectors n_k(a) (``_Sectors.counts``). One code runs every layout, block by
block.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from functools import cached_property, lru_cache, reduce

import numpy as np


class DenseOperator:
    """A real or complex square matrix with tensor-factor bookkeeping.

    Real input stays real (integer or bool input becomes float64) and complex
    input stays complex; the oracle's own constructions are real symmetric.

    ``factor_dims`` lists the dimension of each tensor slot. Construction
    checks the shape and measures the layout only: hermiticity is measured
    where a matrix is symmetrised (``certificate``) or taken as input
    (``_check_psd`` for states and measurements, ``certify_optimality`` for
    the dual candidate).

    An operator is held in a block layout (``_Sectors``) with its data in
    it, measured when built (``_layout``): one block per letter orbit of the
    weight sectors when its entries are letter invariant, else one block of
    every index. The oracle's constructions from such operators are built
    block by block; their full ``matrix`` is filled, read-only, when first
    asked for.
    """

    def __init__(self, matrix, factor_dims):
        matrix = np.asarray(matrix)
        matrix = matrix.astype(np.result_type(matrix.dtype, np.float64), copy=False)
        self.factor_dims = tuple(int(x) for x in factor_dims)
        if matrix.shape != (self.dim, self.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match factor "
                f"dims {self.factor_dims}"
            )
        rows, columns = np.nonzero(matrix)  # a NaN is not zero
        self._sectors, self._data = _layout(self.factor_dims, rows, columns, matrix[rows, columns])

    @classmethod
    def _in_sectors(cls, sectors: _Sectors, data: np.ndarray) -> DenseOperator:
        """The operator zero off ``sectors`` with the given block data."""
        op = cls.__new__(cls)
        op.factor_dims, op._sectors, op._data = sectors.dims, sectors, data
        return op

    @cached_property
    def matrix(self) -> np.ndarray:
        matrix = self._sectors.matrix(self._data)
        matrix.flags.writeable = False
        return matrix

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    def trace(self) -> float:
        return float(self._sectors.trace(self._data).real)


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2, exactly hermitian in floating point: entry (k, j)
    is the conjugate of entry (j, k) because both round the same sums."""
    return (matrix + matrix.conj().T) / 2.0


class _Sectors:
    """A partition of the basis indices of an operator space into sectors,
    and the matrices zero off them, held as the diagonal blocks of one
    representative sector per orbit.

    Each sector is an ascending index array, so the lower triangle of a
    block is the matrix's own and ``eigvalsh`` reads the same entries block
    by block as it does on the full matrix. Index x of any sector is the
    image of ``_source[x]``, in the sector's representative, under a
    permutation of the letters, so the block of a letter-invariant matrix is
    its representative's block gathered at ``_local[_source[sector]]``. The
    data of a matrix is the ``held`` representatives' blocks, raveled and
    concatenated, smallest first. Elementwise arithmetic, maxima, minima and
    comparisons read the same on the data as on the full matrix; products,
    eigensolves, symmetrisation and the port-permutation gathers go block by
    block; a trace or an inner product weights each block by its
    ``multiplicity``, and a spectrum repeats it.

    ``weights(dims)`` gives the weight sectors of the port layout, one
    representative per letter orbit; ``dense(dims)`` one sector holding
    every index, whose data is the full matrix raveled.
    """

    def __init__(self, dims: tuple[int, ...], labels: np.ndarray, source: np.ndarray | None = None):
        self.dims = dims
        self.dim = labels.size
        counts = np.bincount(labels)
        self.sizes = counts.tolist()
        order, firsts = np.argsort(labels, kind="stable"), np.cumsum(counts) - counts
        self.index = np.split(order, firsts[1:])
        self._labels = labels
        self._local = np.empty(self.dim, dtype=np.intp)  # position within the sector
        self._local[order] = np.arange(self.dim) - np.repeat(firsts, counts)
        self._source = np.arange(self.dim) if source is None else source
        self._rep = labels[self._source[order[firsts]]]
        self.held = sorted(set(self._rep.tolist()), key=lambda k: (self.sizes[k], k))
        self.multiplicity = np.bincount(self._rep)[self.held].tolist()
        self._block = np.full(len(self.sizes), -1)  # position in ``held``, -1 elsewhere
        self._block[self.held] = range(len(self.held))
        held_sizes = [self.sizes[k] for k in self.held]
        self.size = sum(n * n for n in held_sizes)  # entries in the data
        starts = itertools.accumulate([0] + held_sizes)
        data_starts = itertools.accumulate([0] + [n * n for n in held_sizes])
        # (row start, data start, size) of each held block
        self._spans = list(zip(starts, data_starts, held_sizes))
        self._rows = np.concatenate([self.index[k] for k in self.held])
        self._row_labels = labels[self._rows]

    @classmethod
    def weights(cls, dims: tuple[int, ...]) -> _Sectors | None:
        """The weight sectors of (C^d)^(N+1), the N port slots and B, or None
        for any other ``dims``. Basis index (a_1..a_N, b) has the weight
        n_k(a) - [b = k], k = 0..d-1, with n_k(a) the number of ports in
        state k: U^(xN) x conj(U) multiplies it by prod_k u_k^weight_k for
        diagonal U, so every operator commuting with these is zero between
        indices of different weights. The weights are digit counts of the
        index, not representation-theory data. One block per letter orbit
        (``_letter_orbits``)."""
        n = len(dims)
        if n < 2 or dims != (dims[0],) * n:
            return None
        return cls._letter_orbits("weights", dims)

    @classmethod
    def counts(cls, dims: tuple[int, ...]) -> _Sectors:
        """The letter-count sectors of (C^d)^n: index (a_1..a_n) has the
        weight n_k(a), which U^(xn) multiplies by prod_k u_k^n_k(a) for
        diagonal U, so every operator commuting with U^(xn), such as a slot
        permutation, keeps each sector. One block per letter orbit
        (``_letter_orbits``)."""
        return cls._letter_orbits("counts", dims)

    @classmethod
    def _letter_orbits(cls, kind: str, dims: tuple[int, ...]) -> _Sectors:
        """The ``weights`` or ``counts`` sectors of (C^d)^n, one per weight
        vector, held one per orbit under the letter permutations.

        A permutation of the letters maps the sector of weight w onto that
        of w permuted. An orbit's first sector represents it, and each
        string is mapped into it by the letter permutation that sorts both
        weights alike (stable ``argsort``). The layout built for each kind
        and dims is kept (``_layouts``)."""
        if (kind, dims) in _layouts:
            return _layouts[kind, dims]
        d, n = dims[0], len(dims)
        digits = _digits(d, n)
        levels = np.arange(d)
        ports = digits if kind == "counts" else digits[:, :-1]
        weight = (ports[:, :, None] == levels).sum(axis=1)
        if kind == "weights":
            weight -= digits[:, -1:] == levels
        keys, labels = _unique_inverse(weight)
        orbit = _unique_inverse(np.sort(keys, axis=1))[1]
        by_orbit = np.argsort(orbit, kind="stable")
        rep = by_orbit[np.searchsorted(orbit[by_orbit], orbit)]
        ranks = np.argsort(keys, axis=1, kind="stable")
        letters = np.empty_like(ranks)  # letter ranks[s, i] of sector s -> ranks[rep, i]
        np.put_along_axis(letters, ranks, ranks[rep], axis=1)
        moved = np.take_along_axis(letters[labels], digits, axis=1)
        _layouts[kind, dims] = cls(dims, labels, moved @ d ** np.arange(n - 1, -1, -1))
        return _layouts[kind, dims]

    @classmethod
    def dense(cls, dims: tuple[int, ...]) -> _Sectors:
        """One sector of every index; the layout built for each dims is kept."""
        if ("dense", dims) not in _layouts:
            _layouts["dense", dims] = cls(dims, np.zeros(math.prod(dims), dtype=np.intp))
        return _layouts["dense", dims]

    @property
    def blocked(self) -> bool:
        return len(self.sizes) > 1

    def __eq__(self, other) -> bool:
        # layouts of one dims are equal when they put every index in the same sector
        if self is other:
            return True
        same = isinstance(other, _Sectors) and other.dims == self.dims
        return same and np.array_equal(other._labels, self._labels)

    def blocks(self, data: np.ndarray) -> list[np.ndarray]:
        """Views of the held blocks in ``data``."""
        return [data[start : start + n * n].reshape(n, n) for _, start, n in self._spans]

    def _place(self, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Positions in the data of entries (rows, columns), each in one
        sector: each at its image in its representative's block."""
        row, column = self._source[rows], self._source[columns]
        start, n = np.array(self._spans).T[1:, self._block[self._labels[row]]]
        return start + self._local[row] * n + self._local[column]

    def from_entries(
        self, rows: np.ndarray, columns: np.ndarray, values: np.ndarray
    ) -> np.ndarray | None:
        """The data of the matrix with the given entries, at distinct
        positions and zero elsewhere, when these blocks hold it, else None:
        each entry lies in one sector, equals the entry placed at its image,
        and the nonzero entries are as many as the gathered blocks hold. A
        gather is one to one within a sector, so the nonzero entries are
        then every nonzero entry of the gathered blocks, and the matrix is
        letter invariant. A NaN equals no entry."""
        if not np.array_equal(self._labels[rows], self._labels[columns]):
            return None
        position = self._place(rows, columns)
        data = np.zeros(self.size, dtype=values.dtype)
        data[position] = values
        held = [np.count_nonzero(block) for block in self.blocks(data)]
        gathered = sum(m * n for m, n in zip(self.multiplicity, held))
        if np.array_equal(data[position], values) and gathered == np.count_nonzero(values):
            return data
        return None

    def reached_blocks(
        self, entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """For each held block, the columns its rows reach, ascending, and
        the block on those rows and columns of the matrix, square or not,
        with the given entries (rows, columns, values); entries at one
        (row, column) add, in the order given."""
        rows, columns, values = entries
        # the entries of the held sectors grouped by block, each block's in
        # the order given, and the distinct (block, column) pairs ascending,
        # one run per block
        owner = self._block[self._labels[rows]]
        held = np.flatnonzero(owner >= 0)
        order = held[np.argsort(owner[held], kind="stable")]
        rows, columns, values, owner = rows[order], columns[order], values[order], owner[order]
        keys, position = _unique_inverse(np.stack((owner, columns), axis=1))
        bounds = np.arange(len(self.held) + 1)
        starts, firsts = np.searchsorted(owner, bounds), np.searchsorted(keys[:, 0], bounds)
        position -= firsts[owner]  # an entry's column in its sector's block
        for k, (_, _, size) in enumerate(self._spans):
            mine, reached = slice(starts[k], starts[k + 1]), keys[firsts[k] : firsts[k + 1], 1]
            block = np.zeros((size, reached.size), dtype=values.dtype)
            np.add.at(block, (self._local[rows[mine]], position[mine]), values[mine])
            yield reached, block

    @cached_property
    def _expansion(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat position in the full matrix of every entry of every
        sector's block, and the position in the data of the entry it is
        gathered from."""
        rows = np.concatenate([np.repeat(sector, sector.size) for sector in self.index])
        columns = np.concatenate([np.tile(sector, sector.size) for sector in self.index])
        return rows * self.dim + columns, self._place(rows, columns)

    def matrix(self, data: np.ndarray) -> np.ndarray:
        """The full matrix with ``data`` as its blocks."""
        if not self.blocked:
            return data.reshape(self.dim, self.dim)
        positions, gathered = self._expansion
        out = np.zeros((self.dim, self.dim), dtype=data.dtype)
        out.put(positions, data.take(gathered))
        return out

    def operator(self, data: np.ndarray) -> DenseOperator:
        return DenseOperator._in_sectors(self, data)

    def _moved(self, g: np.ndarray) -> np.ndarray:
        """The position within its block of the image under g of every held
        row, g the index gather of a port permutation, which keeps every
        digit count and commutes with the letter permutations, so it maps
        each sector onto itself; one row per gather of a stack."""
        moved = g[..., self._rows]
        if not (self._labels[moved] == self._row_labels).all():
            raise AssertionError("the gather mixes sectors")
        return self._local[moved]

    def local_gathers(self, g: np.ndarray) -> list[np.ndarray]:
        """For each held block, the index gather g inside it (``_moved``)."""
        local = self._moved(g)
        return [local[start : start + n] for start, _, n in self._spans]

    def permutation_sum(self, gathers: np.ndarray) -> np.ndarray:
        """The data of the sum of the port permutations' matrices R_g,
        (R_g v) = v[g], over a stack of gathers g: each has one entry 1 in
        each held row (``_moved``), and the sum counts them."""
        starts = np.concatenate([s + n * np.arange(n) for _, s, n in self._spans])
        ones = (starts + self._moved(gathers)).ravel()
        return np.bincount(ones, minlength=self.size).astype(float)

    def entries(self, data: np.ndarray, rows: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """The entries at (rows, columns) of the matrix of ``data``: zero
        between two sectors, else each at its image in its representative's
        block."""
        same = np.flatnonzero(self._labels[rows] == self._labels[columns])
        out = np.zeros(rows.shape, dtype=data.dtype)
        out[same] = data[self._place(rows[same], columns[same])]
        return out

    def held_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the column index of every entry of the data."""
        held = [self.index[k] for k in self.held]
        rows = np.concatenate([index.repeat(index.size) for index in held])
        columns = [index[None].repeat(index.size, axis=0).ravel() for index in held]
        return rows, np.concatenate(columns)

    def gather(self, data: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The data of ``M[g][:, g]``, M the matrix of ``data`` and g
        the index gather of a port permutation, one gather inside each
        block (``local_gathers``)."""
        out = np.empty_like(data)
        for src, dst, within in zip(self.blocks(data), self.blocks(out), self.local_gathers(g)):
            # in range by construction: "clip" skips the bounds check
            np.take(src.take(within, axis=0, mode="clip"), within, axis=1, out=dst, mode="clip")
        return out

    def product(self, *factors: np.ndarray) -> np.ndarray:
        """The data of the left-to-right product of the factors' matrices."""
        out = np.empty(self.size, dtype=np.result_type(*factors))
        for dst, *blocks in zip(self.blocks(out), *map(self.blocks, factors)):
            dst[...] = reduce(np.matmul, blocks)
        return out

    def hermitize(self, data: np.ndarray) -> np.ndarray:
        out = np.empty_like(data)
        for src, dst in zip(self.blocks(data), self.blocks(out)):
            dst[...] = hermitize(src)
        return out

    def trace(self, data: np.ndarray):
        return sum(m * np.trace(block) for m, block in zip(self.multiplicity, self.blocks(data)))

    def inner(self, a: np.ndarray, b: np.ndarray):
        """<A, B> = tr(A^dagger B) of the matrices of ``a`` and ``b``."""
        spans = zip(self.multiplicity, self._spans)
        return sum(m * np.vdot(a[s : s + n * n], b[s : s + n * n]) for m, (_, s, n) in spans)

    def spectrum(self, eigvals: list[np.ndarray]) -> np.ndarray:
        """The eigenvalues of a matrix from those of its held blocks."""
        return np.concatenate([np.tile(w, m) for w, m in zip(eigvals, self.multiplicity)])


# (kind, dims) -> the layout built for it; a layout is not changed once
# built, so every run in the process can share it
_layouts: dict[tuple[str, tuple[int, ...]], _Sectors] = {}


def _layout(
    dims: tuple[int, ...], rows: np.ndarray, columns: np.ndarray, values: np.ndarray
) -> tuple[_Sectors, np.ndarray]:
    """The layout and data of the operator on ``dims`` with the given
    entries, at distinct positions and zero elsewhere: one block per letter
    orbit of the weight sectors when ``_Sectors.from_entries`` accepts the
    entries, else dense."""
    sectors = _Sectors.weights(dims)
    data = None if sectors is None else sectors.from_entries(rows, columns, values)
    if data is None:  # one block of every index holds any entries, NaN too
        sectors = _Sectors.dense(dims)
        data = np.zeros(sectors.size, dtype=values.dtype)
        data[rows * sectors.dim + columns] = values
    return sectors, data


def _digits(d: int, n: int) -> np.ndarray:
    """The base-d digits of every index of (C^d)^n, one row per index, the
    first slot's digit first."""
    return np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d


def _unique_inverse(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, axis=0, return_inverse=True)`` for integer keys, one
    per entry of a vector or row of a matrix, by one stable lexicographic
    sort: the distinct keys ascending and each key's position among them.
    (``np.unique`` imports ``numpy.ma`` on its first call.)"""
    rows = keys.reshape(len(keys), math.prod(keys.shape[1:]))
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return keys[order[new]], inverse


def _orbit_entries(d: int, N: int, cap: int) -> int:
    """The data entries of an operator on (C^d)^(N+1) held in one weight
    sector per letter orbit (``_Sectors.weights``): the sum over the orbits
    of |sector|^2 (``_orbit_sizes``), or a lower bound of it over ``cap``.
    An orbit has at most d! sectors, so d^(N+1)/d! and the pairs of strings
    with equal letter counts over d! (``_equal_count_pairs``) bound the sum
    below."""
    n, orbit = N + 1, math.factorial(d)
    bound = d**n // orbit
    if bound <= cap:
        bound = _equal_count_pairs(d, n) // orbit
    if bound > cap:
        return bound
    return sum(size * size for size in _orbit_sizes(d, N))


@lru_cache(maxsize=None)
def _orbit_sizes(d: int, N: int) -> tuple[int, ...]:
    """The size of one weight sector per letter orbit of (C^d)^(N+1). A
    weight w = n(a) - e_b sums to N - 1, with at most one entry -1; its
    orbit is its multiset, and its sector holds sum_b N!/prod_k (w + e_b)_k!
    strings. Kept per (d, N): every entry point of a run asks for them."""
    strings, sizes = math.factorial(N), []
    for parts in _partitions(N - 1, d, N - 1):  # no entry -1: sum over b
        fill = math.prod(map(math.factorial, parts))
        sizes.append(sum(strings // (fill * (v + 1)) for v in parts + (0,) * (d - len(parts))))
    for parts in _partitions(N, d - 1, N):  # one entry -1, at b
        sizes.append(strings // math.prod(map(math.factorial, parts)))
    return tuple(sizes)


@lru_cache(maxsize=None)
def _equal_count_pairs(d: int, n: int) -> int:
    """The pairs of strings of n letters from d with equal letter counts,
    the entries of the letter-count sectors of (C^d)^n: the constant term
    of G(z)G(1/z), G = (sum_k z_k)^n."""
    pairs = [1] + [0] * n  # over no letters; a letter fills j places of each
    for _ in range(d):
        pairs = [sum(math.comb(m, j) ** 2 * pairs[m - j] for j in range(m + 1))
                 for m in range(n + 1)]
    return pairs[n]


def _partitions(m: int, parts: int, top: int) -> Iterator[tuple[int, ...]]:
    """The partitions of m into at most ``parts`` parts of at most ``top``."""
    if m == 0:
        yield ()
    elif parts:
        for first in range(min(m, top), 0, -1):
            for rest in _partitions(m - first, parts - 1, first):
                yield (first, *rest)
