"""Dense, from-first-principles ground truth at desk scale.

Everything the formula modules claim is rebuilt here as explicit operators:
the discrimination states, the square-root measurement, isotypic projectors,
the dual-certificate operators, and the full teleportation channel. Each
entry point estimates its peak memory before it allocates and stops above
the byte budget PBT_ORACLE_BYTES (``check_oracle_size``): this module certifies.

Every construction here is real symmetric; ``DenseOperator`` also holds
complex matrices, such as a state conjugated by a Haar unitary. Hermiticity
is measured where it can fail: ``certificate`` measures sum_i sigma_i E_i
before symmetrising it, and input states, measurements and dual candidates
are measured, non-finite entries rejected, when validated.

The states rho_i, the square-root measurement E_i, the steered states eta_i
and the terms sigma_i E_i are port orbits, the images of their port-1
members under the swap Pi_i of ports 1 and i. A ``_PortOrbit`` holds M_1 and
the port-swap gathers; a consumer gathers member k when it reads it and
drops it before reading the next. Exact by construction, an orbit is
validated at port 1 alone; any other sequence element by element. E_i is an
orbit only for equal probabilities and a rho_1 equal to its image under
every permutation of ports 2..N (``Ensemble._symmetric_orbit``).

The dual candidate K = sum_i p_i sigma_i E_i comes from the measurement
under test (E of the unsteered rho_i, sigma_i = rho_i or eta_i), so tr K is
the achieved success probability and the gap is zero by construction; the
checks are feasibility (K >= p_i sigma_i) and K's spectrum against the
closed-form block values. Feasibility is one eigensolve, of K - p_1 sigma_1,
lowered by the measured defects of the other constraints against its
transposed images (``_swap_defects``).

Every operator here commutes with U^(xN) x conj(U), so for diagonal U it is
zero between indices of different weight n_k(a) - [b = k], counted from the
digits of (a_1..a_N, b) (``_Sectors``). An operator measured zero off these
sectors, entry by entry (a NaN is not zero), is held as its diagonal blocks,
and eigensolves, products, gathers and symmetrisations run block by block;
any other operator is the one-sector case of the same code. rho_i and
O x 1_B are built from their nonzero entries, each checked to lie in one
sector, and the channel's input state psi from its nonzero entries too. No
full matrix is filled unless ``matrix`` is read. ``verify --d 2 --N 8``
takes 5 decompositions, each 10 LAPACK calls on blocks of at most 126.

Tensor-factor convention: the N port slots A_1..A_N come first and the single
B slot is last, with row-major index fusion (np.kron order). Permutations act
on the A slots only, each as one index gather from ``slot_gather``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property, reduce

import numpy as np

from .config import SizeCapError, env_positive_int
from .fidelity import PortCoefficients, block_spectrum, fidelity_given_coefficients, fidelity_standard
from .partitions import (
    Partition,
    check_partition,
    permutation_cycle_type,
    sn_character,
    specht_dim,
    weyl_dim,
)

ORACLE_BYTES_ENV = "PBT_ORACLE_BYTES"
DEFAULT_ORACLE_BYTES = 2**30
BASE_BYTES = 2**23  # small arrays, LAPACK workspace and Python objects
LIVE_MEMBERS = 10  # sector-data arrays at a run's peak: 8.6-10.8 at d=2 N=9..12
PORT_COPIES = 2  # d^N x d^N arrays while O is summed: 1.4 at d=4 N=5

HERMITICITY_TOL = 1e-10
PSEUDO_INVERSE_RTOL = 1e-10
POVM_TOL = 1e-10
CERTIFY_TOL = 1e-8  # on the feasibility bound and on the duality gap


def check_oracle_size(d: int, N: int, steered: bool = False, entries: int | None = None) -> int:
    """The estimated peak memory in bytes of an oracle run at (d, N), taken
    before anything is allocated; SizeCapError over the PBT_ORACLE_BYTES budget.

    Its terms are fitted to the ru_maxrss growth of verify runs: BASE_BYTES
    and LIVE_MEMBERS float64 arrays of ``entries``, one operator's data in its
    sectors. The weight sectors of (C^d)^(N+1) hold the pairs of strings in
    {0..d-1}^(N+1) with equal letter counts (the constant term of G(z)G(1/z),
    G = (sum_k z_k)^(N+1)), at least d^(N+1), which stands in when it alone is
    over budget. A steered run adds the projector table (16 bytes for each of
    N! d^N entries) and PORT_COPIES d^N x d^N arrays of O.
    """
    budget = env_positive_int(ORACLE_BYTES_ENV, DEFAULT_ORACLE_BYTES)
    if entries is None:
        n, entries = N + 1, d ** (N + 1)
        if LIVE_MEMBERS * 8 * entries <= budget:
            pairs = [1] + [0] * n  # over no letters; a letter fills j places of each
            for _ in range(d):
                pairs = [sum(math.comb(m, j) ** 2 * pairs[m - j] for j in range(m + 1))
                         for m in range(n + 1)]
            entries = pairs[n]
    estimate = BASE_BYTES + LIVE_MEMBERS * 8 * entries
    if steered:
        estimate += 16 * math.factorial(N) * d**N + PORT_COPIES * 8 * d ** (2 * N)
    if estimate > budget:
        raise SizeCapError(
            f"the oracle at d={d}, N={N} needs an estimated {Decimal(estimate):.3g} bytes, "
            f"over the budget of {budget} bytes (set {ORACLE_BYTES_ENV} to raise it)"
        )
    return estimate


# ---------------------------------------------------------------------------
# Dense operators and tensor bookkeeping
# ---------------------------------------------------------------------------


class DenseOperator:
    """A real or complex square matrix with tensor-factor bookkeeping.

    Real input stays real (integer or bool input becomes float64) and complex
    input stays complex; the oracle's own constructions are real symmetric.

    ``factor_dims`` lists the dimension of each tensor slot. Construction
    checks the shape only: hermiticity is measured where a matrix is
    symmetrised (``certificate``) or taken as input (``_check_psd`` for
    states and measurements, ``certify_optimality`` for the dual candidate).

    An operator also has sectors (``_Sectors``), measured on first use
    (``_measured``): the weight sectors when its matrix is zero off them,
    else one sector holding every index. The oracle's constructions from
    sector-diagonal operators are built block by block; their full
    ``matrix`` is filled, read-only, when first asked for.
    """

    def __init__(self, matrix, factor_dims):
        matrix = np.asarray(matrix)
        self._matrix = matrix.astype(np.result_type(matrix.dtype, np.float64), copy=False)
        self.factor_dims = tuple(int(x) for x in factor_dims)
        dim = math.prod(self.factor_dims)
        if self._matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self._matrix.shape} does not match factor "
                f"dims {self.factor_dims}"
            )
        self._sectors: _Sectors | None = None
        self._data: np.ndarray | None = None

    @classmethod
    def _in_sectors(cls, sectors: _Sectors, data: np.ndarray) -> DenseOperator:
        """The operator zero off ``sectors`` with the given block data."""
        op = cls.__new__(cls)
        op._matrix, op.factor_dims, op._sectors, op._data = None, sectors.dims, sectors, data
        return op

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = self._sectors.matrix(self._data)
            self._matrix.flags.writeable = False
        return self._matrix

    @property
    def dim(self) -> int:
        return math.prod(self.factor_dims)

    def trace(self) -> float:
        if self._data is None:
            return float(np.trace(self._matrix).real)
        return float(self._sectors.trace(self._data).real)


def hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


def hermitize(matrix: np.ndarray) -> np.ndarray:
    """(M + M^dagger)/2, exactly hermitian in floating point: entry (k, j)
    is the conjugate of entry (j, k) because both round the same sums."""
    return (matrix + matrix.conj().T) / 2.0


def slot_gather(dims: tuple[int, ...], order) -> np.ndarray:
    """Flat index map of a tensor-slot permutation on slots of sizes ``dims``:
    ``v[slot_gather(dims, order)]`` is ``v`` with new slot j holding old slot
    ``order[j]``, and ``M[g][:, g]`` reorders both sides of a matrix.
    Every slot rearrangement in this module is such a gather."""
    return np.arange(math.prod(dims)).reshape(dims).transpose(order).ravel()


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


# ---------------------------------------------------------------------------
# Weight sectors
# ---------------------------------------------------------------------------


class _Sectors:
    """A partition of the basis indices of an operator space into sectors,
    and the matrices zero off them, held as their diagonal blocks.

    Each sector is an ascending index array, so the lower triangle of a
    block is the matrix's own and ``eigvalsh`` reads the same entries block
    by block as it does on the full matrix. The data of a matrix is its
    blocks, raveled and concatenated in sector order. Elementwise
    arithmetic, norms, maxima and comparisons read the same on the data as
    on the full matrix, whose other entries are zero; products, eigensolves,
    symmetrisation and the port-permutation gathers go block by block.

    ``weights(dims)`` gives the weight sectors of the port layout and
    ``dense(dims)`` one sector holding every index, whose data is the full
    matrix raveled: the dense path is the one-sector case of the same code.
    """

    def __init__(self, dims: tuple[int, ...], labels: np.ndarray):
        self.dims = dims
        self.dim = labels.size
        self.sizes = np.bincount(labels).tolist()
        self.size = sum(n * n for n in self.sizes)  # entries in the data
        starts = itertools.accumulate([0] + self.sizes[:-1])
        data_starts = itertools.accumulate([0] + [n * n for n in self.sizes[:-1]])
        # (index start, data start, size) of each sector
        self._spans = list(zip(starts, data_starts, self.sizes))
        self._labels = labels
        self._order = np.argsort(labels, kind="stable")
        self._sorted_labels = labels[self._order]
        self.index = [self._order[start : start + n] for start, _, n in self._spans]
        self._local = np.empty(self.dim, dtype=np.intp)  # position within the sector
        for sector in self.index:
            self._local[sector] = np.arange(sector.size)

    @classmethod
    def weights(cls, dims: tuple[int, ...]) -> _Sectors | None:
        """The weight sectors of (C^d)^(N+1), the N port slots and B, or None
        for any other ``dims``. Basis index (a_1..a_N, b) has the weight
        n_k(a) - [b = k], k = 0..d-1, with n_k(a) the number of ports in
        state k: U^(xN) x conj(U) multiplies it by prod_k u_k^weight_k for
        diagonal U, so every operator commuting with these is zero between
        indices of different weights. The weights are digit counts of the
        index, not representation-theory data."""
        n = len(dims)
        if n < 2 or dims != (dims[0],) * n:
            return None
        d = dims[0]
        digits = np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
        levels = np.arange(d)
        weight = (digits[:, :-1, None] == levels).sum(axis=1) - (digits[:, -1:] == levels)
        return cls(dims, _unique_inverse(weight)[1])

    @classmethod
    def dense(cls, dims: tuple[int, ...]) -> _Sectors:
        return cls(dims, np.zeros(math.prod(dims), dtype=np.intp))

    @property
    def blocked(self) -> bool:
        return len(self.sizes) > 1

    def __eq__(self, other) -> bool:
        # the weight sectors and the dense layout of one dims differ in their
        # sector count unless they coincide
        same = isinstance(other, _Sectors) and other.dims == self.dims
        return same and other.sizes == self.sizes

    def blocks(self, data: np.ndarray) -> list[np.ndarray]:
        """Views of the diagonal blocks in ``data``."""
        return [data[start : start + n * n].reshape(n, n) for _, start, n in self._spans]

    @cached_property
    def _positions(self) -> np.ndarray:
        """Flat positions in the full matrix of the data entries."""
        return np.concatenate([(s[:, None] * self.dim + s).ravel() for s in self.index])

    def measure(self, matrix: np.ndarray) -> np.ndarray | None:
        """The data of ``matrix`` when its entries off the sectors are zero,
        counted entry by entry (a NaN is not zero), else None."""
        if not self.blocked:
            return matrix.ravel()
        data = matrix.take(self._positions)
        return data if np.count_nonzero(data) == np.count_nonzero(matrix) else None

    def matrix(self, data: np.ndarray) -> np.ndarray:
        """The full matrix with ``data`` as its blocks."""
        if not self.blocked:
            return data.reshape(self.dim, self.dim)
        out = np.zeros((self.dim, self.dim), dtype=data.dtype)
        out.put(self._positions, data)
        return out

    def operator(self, data: np.ndarray) -> DenseOperator:
        return DenseOperator._in_sectors(self, data)

    def gather(self, data: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The data of ``M[g][:, g]``, M the matrix of ``data`` and g
        the index gather of a port permutation. A port permutation keeps
        every digit count, so it maps each sector onto itself and acts as a
        gather inside each block."""
        moved = g[self._order]
        if not np.array_equal(self._labels[moved], self._sorted_labels):
            raise AssertionError("the gather mixes sectors")
        local = self._local[moved]
        out = np.empty_like(data)
        for src, dst, (start, _, n) in zip(self.blocks(data), self.blocks(out), self._spans):
            within = local[start : start + n]
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
        return sum(np.trace(block) for block in self.blocks(data))


def _measured(
    op: DenseOperator, weights: _Sectors | None = None
) -> tuple[_Sectors, np.ndarray]:
    """The operator's sectors and its data in them, measured on first use:
    its weight sectors (``weights`` when given for its dims) when its matrix
    is zero off them entry by entry, else the dense layout."""
    if op._sectors is None:
        if weights is None or weights.dims != op.factor_dims:
            weights = _Sectors.weights(op.factor_dims)
        data = None if weights is None else weights.measure(op._matrix)
        if data is None:
            weights, data = _Sectors.dense(op.factor_dims), op._matrix.ravel()
        op._sectors, op._data = weights, data
    return op._sectors, op._data


def _heads(operators: Sequence[DenseOperator]) -> Sequence[DenseOperator]:
    """M_1 of a ``_PortOrbit`` (its members share its dims and sectors),
    else every operator."""
    return [operators.first] if isinstance(operators, _PortOrbit) else operators


def _common(*groups: Sequence[DenseOperator]) -> tuple[_Sectors, list]:
    """Sectors shared by groups of operators on one factor dims, and for each
    group an iterator over its operators' data in them: the weight sectors
    when every operator is measured zero off them, else the dense layout. An
    orbit is measured at M_1 and its members are gathered as read."""
    heads = [op for group in groups for op in _heads(group)]
    known = [op._sectors for op in heads if op._sectors is not None]
    weights = next((sectors for sectors in known if sectors.blocked), None)
    if weights is None and len(known) < len(heads):
        weights = _Sectors.weights(heads[0].factor_dims)
    measured = [_measured(op, weights) for op in heads]
    sectors = measured[0][0]
    if all(other == sectors for other, _ in measured):
        return sectors, [
            g.data() if isinstance(g, _PortOrbit) else iter([op._data for op in g]) for g in groups
        ]
    return _Sectors.dense(sectors.dims), [(op.matrix.ravel() for op in g) for g in groups]


def _zeros(sectors: _Sectors, operators: Sequence[DenseOperator]) -> np.ndarray:
    """Zero data in ``sectors`` of the dtype of sums of the operators."""
    return np.zeros(sectors.size, dtype=np.result_type(*(op._data for op in _heads(operators))))


def _eigensolve(sectors: _Sectors, data: np.ndarray, vectors: bool = False) -> list:
    """The oracle's one decomposition: ``eigh`` (with ``vectors``) or
    ``eigvalsh`` of each block, one LAPACK call per sector."""
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    return [solve(block) for block in sectors.blocks(data)]


def _lowest(sectors: _Sectors, data: np.ndarray) -> float:
    """The smallest eigenvalue of the matrix of ``data`` (NaN propagates)."""
    return float(np.min([w.min() for w in _eigensolve(sectors, data)]))


def _asymmetry(sectors: _Sectors, data: np.ndarray) -> float:
    """The largest entrywise hermiticity defect of the matrix of ``data``
    (NaN propagates)."""
    return float(np.max([hermiticity_defect(block) for block in sectors.blocks(data)]))


def _port_swaps(d: int, N: int) -> list[np.ndarray]:
    """Index gathers g_i, i = 2..N, of the transposition Pi_i of ports 1 and i
    on (C^d)^(N+1): M[g_i][:, g_i] is Pi_i M Pi_i^T."""
    gathers = []
    for k in range(1, N):
        order = list(range(N + 1))
        order[0], order[k] = k, 0
        gathers.append(slot_gather((d,) * (N + 1), order))
    return gathers


def _port_1_stabilizer(d: int, N: int) -> list[np.ndarray]:
    """Index gathers on (C^d)^(N+1) of the swap of ports 2 and 3 and of the
    cycle of ports 2..N, which together generate every permutation of ports
    2..N: an operator equal to its gathered images under these equals its
    image under each such permutation."""
    if N < 3:
        return []
    swap = [0, 2, 1] + list(range(3, N + 1))
    cycle = [0] + list(range(2, N)) + [1, N]
    orders = [swap] if N == 3 else [swap, cycle]
    return [slot_gather((d,) * (N + 1), order) for order in orders]


def _port_layout(operators: Sequence[DenseOperator]) -> int | None:
    """d when the operators are N operators on (C^d)^(N+1), the N port slots
    and B, so that operator i belongs to port i; None for any other layout."""
    dims = operators[0].factor_dims if operators else ()
    ports = dims[:1] * (len(operators) + 1)
    if dims and all(op.factor_dims == ports for op in _heads(operators)):
        return dims[0]
    return None


def _swap_defects(sectors: _Sectors, first: np.ndarray, others) -> list[float]:
    """The swap defects delta_k = ||Pi_k M_1 Pi_k^T - M_k||_F of ``first`` =
    M_1 and ``others`` = M_2..M_N (data in ``sectors`` of dims (d,) * (N + 1),
    of the dtype of ``first``), each freed before the next is read. By
    Weyl's inequality lambda_min(M_1) - delta_k bounds lambda_min(M_k), so
    one eigensolve bounds every M_k, the port symmetry measured."""
    dims = sectors.dims
    swaps = _port_swaps(dims[0], len(dims) - 1)

    def defect(g, other):
        image = sectors.gather(first, g)
        image -= other
        return float(np.linalg.norm(image))

    return list(map(defect, swaps, others))


class _PortOrbit(Sequence):
    """An exact port orbit: M_1 on (C^d)^(N+1) followed by its images
    M_k = Pi_k M_1 Pi_k^T under the port-swap gathers (``_port_swaps``).

    It holds M_1 and the gathers: member k is gathered each time it is read,
    and nothing keeps it. Consumers recognise it by its type and never
    measure it again. A copy (``list(orbit)``, a slice) is a plain
    sequence."""

    __slots__ = ("first", "gathers")

    def __init__(self, first: DenseOperator):
        dims = first.factor_dims
        _measured(first)
        self.first = first
        self.gathers = _port_swaps(dims[0], len(dims) - 1)

    def data(self) -> Iterator[np.ndarray]:
        """Each member's data in the sectors of M_1, gathered as read."""
        sectors, first = _measured(self.first)
        yield first
        for g in self.gathers:
            yield sectors.gather(first, g)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        k, (sectors, first) = range(len(self))[k], _measured(self.first)
        if k == 0:
            return self.first
        return sectors.operator(sectors.gather(first, self.gathers[k - 1]))

    def __len__(self) -> int:
        return len(self.gathers) + 1


def _check_psd(operators: Sequence[DenseOperator], tol: float, name: str) -> None:
    """Raise ValueError unless every operator is finite, hermitian and
    positive semidefinite to within ``tol``, naming the first failing one and
    its own smallest eigenvalue.

    A ``_PortOrbit`` is checked at M_1: every M_k is a permutation similarity
    of M_1, with its entries and its hermiticity defect h_1. M_1 takes one
    eigensolve, and the others are accepted when lambda_min(M_1) - dim * h_1
    is at least -tol, the last term covering the defect because ``eigvalsh``
    reads one triangle (of each block, which is the matrix's own). Else each
    M_k, like every operator of any other sequence, is decomposed itself.
    """
    exact = isinstance(operators, _PortOrbit)
    sectors, (arrays,) = _common(operators)
    checked = [next(arrays)] if exact else list(arrays)
    for k, data in enumerate(checked):
        if not np.isfinite(data).all():
            raise ValueError(f"{name} {k} has non-finite entries")
    herm = [_asymmetry(sectors, data) for data in checked]
    for k, defect in enumerate(herm):
        if not defect <= tol:
            raise ValueError(f"{name} {k} not hermitian (defect {defect:.3e})")
    for k, data in enumerate(itertools.chain(checked, arrays)):
        low = _lowest(sectors, data)
        if not low >= -tol:
            raise ValueError(f"{name} {k} not PSD (min eig {low:.3e})")
        if exact and k == 0 and low - sectors.dim * herm[0] >= -tol:
            return  # port 1 of the orbit bounds the other ports


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Matrix moving the content of slot k to slot perm[k] on (C^d)^(len perm).

    A reference for tests: no oracle construction builds a permutation matrix.
    """
    n = len(perm)
    return np.eye(d**n)[slot_gather((d,) * n, np.argsort(perm))]


def partial_trace(op: DenseOperator, traced: list[int]) -> DenseOperator:
    """Trace out the listed slots, keeping the rest in their original order."""
    dims = op.factor_dims
    n = len(dims)
    traced_set = set(traced)
    if not traced_set <= set(range(n)):
        raise ValueError(f"traced slots {traced} out of range for {n} factors")
    keep = [k for k in range(n) if k not in traced_set]
    tensor = op.matrix.reshape(*dims, *dims)
    row_idx = list(range(n))
    col_idx = [k if k in traced_set else n + k for k in range(n)]
    out_idx = [k for k in keep] + [n + k for k in keep]
    result = np.einsum(tensor, row_idx + col_idx, out_idx)
    kept_dim = math.prod(dims[k] for k in keep)
    return DenseOperator(
        result.reshape(kept_dim, kept_dim), tuple(dims[k] for k in keep)
    )


def partial_trace_first(op: DenseOperator) -> DenseOperator:
    """Trace over the first tensor factor."""
    if len(op.factor_dims) < 2:
        raise ValueError("partial_trace_first needs at least two tensor factors")
    return partial_trace(op, [0])


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def maximally_entangled_vector(d: int) -> np.ndarray:
    """(1/sqrt d) sum_i |ii> as a flat vector on two slots."""
    return (np.eye(d) / math.sqrt(d)).reshape(-1)


def maximally_entangled(d: int) -> DenseOperator:
    """Rank-1 projector onto the canonical maximally entangled pair."""
    if d < 1:
        raise ValueError("d must be positive")
    v = maximally_entangled_vector(d)
    return DenseOperator(np.outer(v, v.conj()), (d, d))


def _from_entries(
    dims: tuple[int, ...], rows: np.ndarray, columns: np.ndarray, values: np.ndarray
) -> DenseOperator:
    """The operator on ``dims`` with the given entries, zero elsewhere, in
    the weight sectors when each entry lies in one, else dense."""
    sectors = _Sectors.weights(dims)
    if sectors is None or not np.array_equal(sectors._labels[rows], sectors._labels[columns]):
        sectors = _Sectors.dense(dims)
    # (data start, size) of each entry's sector
    spans = np.array(sectors._spans)[sectors._labels[rows], 1:]
    data = np.zeros(sectors.size, dtype=values.dtype)
    data[spans[:, 0] + sectors._local[rows] * spans[:, 1] + sectors._local[columns]] = values
    return sectors.operator(data)


def build_rho(d: int, N: int, i: int) -> DenseOperator:
    """Discrimination state rho_i = Phi_{A_i B} x 1/d^(N-1), from its d^(N+1)
    nonzero entries <a, b| rho_i |a', b'> = 1/d^N: a_i = b, a'_i = b' and
    a_j = a'_j at every other port j."""
    check_oracle_size(d, N)
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} outside 1..{N}")
    dims = (d,) * (N + 1)
    # the indices with a_i = b = 0, and the steps raising a_i and b together
    base = np.moveaxis(np.arange(d ** (N + 1)).reshape(dims), (i - 1, N), (0, 1))[0, 0]
    base, pair = base.reshape(-1, 1, 1), np.arange(d) * (d ** (N + 1 - i) + 1)
    rows, columns = np.broadcast_arrays(base + pair[:, None], base + pair)
    # the pair's entry, 1/sqrt(d) squared, times the mixed ports' weight
    amplitude = 1 / math.sqrt(d)
    value = amplitude * amplitude * (1 / d ** (N - 1))
    return _from_entries(dims, rows.ravel(), columns.ravel(), np.full(rows.size, value))


@dataclass
class Ensemble:
    """States with draw probabilities; validated on construction."""

    states: Sequence[DenseOperator]
    probs: list[float]

    def __post_init__(self):
        if len(self.states) != len(self.probs):
            raise ValueError("states and probs must have equal length")
        if not all(math.isfinite(p) and p >= 0 for p in self.probs):
            raise ValueError("probabilities must be finite and nonnegative")
        total = math.fsum(self.probs)
        if not abs(total - 1.0) <= 1e-14:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        _check_factor_dims(self.states, self.states[0].factor_dims, "state")
        _check_psd(self.states, 1e-12, "state")
        # an orbit's members permute the diagonal of M_1
        for k, st in enumerate(_heads(self.states)):
            sectors, data = _measured(st)
            tr = sectors.trace(data)
            if not abs(tr - 1.0) <= 1e-12:
                raise ValueError(f"state {k} has trace {tr}")

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.states[0].factor_dims

    @cached_property
    def _symmetric_orbit(self) -> bool:
        """Whether the ensemble is invariant under every port permutation:
        its states are a ``_PortOrbit`` with equal probabilities, and
        rho_1 equals its image under every permutation of the ports 2..N
        entry by entry (``_port_1_stabilizer``). Then each port permutation
        permutes the states, and the average commutes with every Pi_k."""
        if not isinstance(self.states, _PortOrbit) or len(set(self.probs)) != 1:
            return False
        sectors, first = _measured(self.states[0])
        stabilizer = _port_1_stabilizer(self.factor_dims[0], len(self.states))
        return all(np.array_equal(sectors.gather(first, g), first) for g in stabilizer)

    @cached_property
    def _average_decomposition(self) -> tuple[DenseOperator, DenseOperator, np.ndarray]:
        """Pseudo-inverse square root, support projector and eigenvalues of
        the probability-weighted average, computed on first use."""
        return _pseudo_inv_sqrt(average_state(self, normalized=True))


def pbt_ensemble(d: int, N: int) -> Ensemble:
    """The uniform ensemble of the N discrimination states rho_i: the port
    orbit of rho_1, equal entry by entry to ``build_rho``."""
    return Ensemble(_PortOrbit(build_rho(d, N, 1)), [1.0 / N] * N)


def average_state(ensemble: Ensemble, normalized: bool = False) -> DenseOperator:
    """Sum of the states, probability weighted when ``normalized`` is set."""
    sectors, (arrays,) = _common(ensemble.states)
    total = _zeros(sectors, ensemble.states)
    for p, data in zip(ensemble.probs, arrays):
        total += p * data if normalized else data
    return sectors.operator(sectors.hermitize(total))


# ---------------------------------------------------------------------------
# Pretty good measurement and discrimination
# ---------------------------------------------------------------------------


def _pseudo_inv_sqrt(op: DenseOperator) -> tuple[DenseOperator, DenseOperator, np.ndarray]:
    """Pseudo-inverse square root and support projector of a PSD operator,
    in its sectors, and its eigenvalues in sector order.

    Eigenvalues below PSEUDO_INVERSE_RTOL times the largest of all blocks
    count as zero, restricting everything to the numerically meaningful
    support.
    """
    sectors, data = _measured(op)
    pairs = _eigensolve(sectors, data, vectors=True)
    top = max(float(eigvals.max(initial=0.0)) for eigvals, _ in pairs)
    inv_sqrt, support = np.empty_like(data), np.empty_like(data)
    for (eigvals, eigvecs), inv_block, support_block in zip(
        pairs, sectors.blocks(inv_sqrt), sectors.blocks(support)
    ):
        keep = eigvals > PSEUDO_INVERSE_RTOL * top
        vecs = eigvecs[:, keep]
        inv_block[...] = (vecs / np.sqrt(eigvals[keep])) @ vecs.conj().T
        support_block[...] = vecs @ vecs.conj().T
    eigvals = np.concatenate([w for w, _ in pairs])
    return sectors.operator(inv_sqrt), sectors.operator(support), eigvals


def pretty_good_measurement(ensemble: Ensemble) -> Sequence[DenseOperator]:
    """Square-root measurement E_i = avg^(-1/2) p_i rho_i avg^(-1/2).

    The elements form a POVM on the support of the ensemble average; off
    that support they are zero. An ensemble invariant under every port
    permutation (``Ensemble._symmetric_orbit``) has an average that commutes
    with every Pi_k, so E_k = Pi_k E_1 Pi_k^T: the ``_PortOrbit`` of E_1.
    """
    symmetric = ensemble._symmetric_orbit
    states = ensemble.states[:1] if symmetric else ensemble.states
    sectors, ([inv_sqrt], arrays) = _common([ensemble._average_decomposition[0]], states)
    povm = [
        sectors.operator(sectors.hermitize(sectors.product(inv_sqrt, p * data, inv_sqrt)))
        for p, data in zip(ensemble.probs, arrays)
    ]
    return _PortOrbit(povm[0]) if symmetric else povm


def _check_factor_dims(
    operators: Sequence[DenseOperator], dims: tuple[int, ...], name: str
) -> None:
    """Raise ValueError naming the first operator not acting on ``dims``."""
    for k, op in enumerate(_heads(operators)):
        if op.factor_dims != dims:
            raise ValueError(f"{name} {k} acts on factor dims {op.factor_dims}, not {dims}")


def success_probability(ensemble: Ensemble, povm: Sequence[DenseOperator]) -> float:
    """sum_i p_i tr(rho_i E_i), after validating the POVM on the support.

    Completeness is required only on the support of the ensemble average: an
    invalid or incomplete POVM is rejected with the measured defect.
    """
    if len(povm) != len(ensemble.states):
        raise ValueError("POVM length does not match the ensemble")
    _check_factor_dims(povm, ensemble.factor_dims, "POVM element")
    _check_psd(povm, POVM_TOL, "POVM element")
    support = ensemble._average_decomposition[1]
    sectors, ([support], states, elements) = _common([support], ensemble.states, povm)
    # one pass: the completeness sum, and tr(sigma E) = <sigma, E> (hermitian)
    total = _zeros(sectors, povm)
    terms = []
    for p in ensemble.probs:
        st, e = next(states), next(elements)
        total += e
        terms.append(p * float(np.vdot(st, e).real))
        del st, e  # freed before the next members are gathered
    for block in sectors.blocks(total):
        np.fill_diagonal(block, block.diagonal() - 1)  # sum_i E_i - 1
    blocks = zip(sectors.blocks(support), sectors.blocks(total))
    defect = float(np.max([np.abs(s @ t @ s).max(initial=0.0) for s, t in blocks]))
    if not defect <= POVM_TOL:
        raise ValueError(
            f"POVM incomplete on the ensemble support (defect {defect:.3e})"
        )
    value = math.fsum(terms)
    if not -1e-10 <= value <= 1 + 1e-10:
        raise AssertionError(f"success probability {value} outside [0, 1]")
    return value


# ---------------------------------------------------------------------------
# Isotypic projectors
# ---------------------------------------------------------------------------


def _permutation_table(d: int, n: int) -> tuple[np.ndarray, list[Partition], np.ndarray]:
    """Every permutation pi of n slots of size d, for ``young_projector``:
    the flat positions of the d^n entries of R(pi) in a d^n x d^n matrix
    (row r of R(pi) has its one entry at column g_pi[r], g_pi the slot gather
    of pi), one row per pi, with the distinct cycle types and the index of
    each pi's type among them. The projectors of one (d, n) share it. Its
    size is factorial in n: the positions are filled row by row in place.
    """
    check_oracle_size(d, n, steered=True)
    full = d**n
    positions = np.empty((math.factorial(n), full), dtype=np.intp)
    classes, class_index = {}, np.empty(len(positions), dtype=np.intp)
    for k, perm in enumerate(itertools.permutations(range(n))):
        class_index[k] = classes.setdefault(permutation_cycle_type(perm), len(classes))
        positions[k] = slot_gather((d,) * n, perm)
    positions += np.arange(0, full * full, full)
    return positions, list(classes), class_index


def young_projector(mu, d: int, table: tuple | None = None) -> DenseOperator:
    """Projector onto the isotypic component of the slot-permutation action.

    Character averaging: P_mu = (d_mu / n!) sum_pi chi_mu(pi) R(pi), with
    each chi_mu(pi) added at the positions of R(pi)'s entries
    (``_permutation_table``), so no permutation matrix is built. chi_mu is
    evaluated once per cycle type. pi is used as the gather order, which
    gives R(pi^-1); the sum is the same because pi and pi^-1 share a cycle
    type. ``table`` is ``_permutation_table(d, |mu|)``, passed by callers
    that build several projectors of one size; it is built here otherwise.
    """
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        raise ValueError("need a nonempty diagram")
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than d={d} rows")
    positions, classes, class_index = table if table is not None else _permutation_table(d, n)
    full = d**n
    chi = np.array([sn_character(mu, lam) for lam in classes], dtype=float)
    # the sums are integers, exact in float64 in any order
    acc = np.bincount(
        positions.ravel(), np.repeat(chi[class_index], full), full * full
    ).reshape(full, full)
    proj = acc * (specht_dim(mu) / math.factorial(n))
    return DenseOperator(proj, (d,) * n)


# ---------------------------------------------------------------------------
# Steered port states
# ---------------------------------------------------------------------------


def build_port_operator(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """O = sum_mu sqrt(c_mu) P_mu acting on the N port slots, with one
    permutation table for all the projectors. Every steered construction
    passes through here, so coefficients for another (d, N) stop here."""
    if (coefficients.d, coefficients.N) != (d, N):
        raise ValueError(f"coefficients are for (d, N) = ({coefficients.d}, {coefficients.N})")
    table = _permutation_table(d, N)
    acc = np.zeros((d**N, d**N))
    for mu, c in coefficients.items():
        if c > 0:
            acc = acc + math.sqrt(c) * young_projector(mu, d, table)._matrix
    return DenseOperator(acc, (d,) * N)


def _lifted_port_operator(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """O x 1_B, from the nonzero entries O_aa' at ((a, b), (a', b))."""
    port = build_port_operator(d, N, coefficients)._matrix
    a, a_out = np.nonzero(port)
    b = np.arange(d)
    rows, columns = (a[:, None] * d + b).ravel(), (a_out[:, None] * d + b).ravel()
    return _from_entries((d,) * (N + 1), rows, columns, np.repeat(port[a, a_out], d))


def _steer(lifted: DenseOperator, rho: DenseOperator) -> DenseOperator:
    """(O x 1_B) rho (O x 1_B), in the sectors the two share."""
    sectors, ((o, r),) = _common([lifted, rho])
    return sectors.operator(sectors.hermitize(sectors.product(o, r, o)))


def _steered_states(
    d: int, N: int, coefficients: PortCoefficients, ensemble: Ensemble
) -> Sequence[DenseOperator]:
    """(O x 1_B) rho (O x 1_B) for each state of the ensemble, with O built
    and measured once. O x 1_B commutes with every port permutation, so
    when the states are a ``_PortOrbit`` the steered states are the
    ``_PortOrbit`` of eta_1."""
    lifted = _lifted_port_operator(d, N, coefficients)
    if isinstance(ensemble.states, _PortOrbit):
        return _PortOrbit(_steer(lifted, ensemble.states[0]))
    return [_steer(lifted, rho) for rho in ensemble.states]


def build_eta(d: int, N: int, i: int, coefficients: PortCoefficients) -> DenseOperator:
    """Steered discrimination state eta_i = (O x 1_B) rho_i (O x 1_B)."""
    return _steer(_lifted_port_operator(d, N, coefficients), build_rho(d, N, i))


def eta_ensemble(d: int, N: int, coefficients: PortCoefficients) -> Ensemble:
    """Uniform ensemble of the steered states eta_i."""
    return Ensemble(_steered_states(d, N, coefficients, pbt_ensemble(d, N)), [1.0 / N] * N)


# ---------------------------------------------------------------------------
# Dual certificates
# ---------------------------------------------------------------------------


def certificate(states: Sequence[DenseOperator], povm: Sequence[DenseOperator]) -> DenseOperator:
    """sum_i sigma_i E_i: the dual candidate of the measurement E against the
    states sigma_i, Hermitised after its defect is checked. For a uniform
    ensemble of n states it is n times K = sum_i p_i sigma_i E_i.

    When both are ``_PortOrbit``s, sigma_k E_k = Pi_k sigma_1 E_1 Pi_k^T:
    one product and its gathered images. Otherwise each term is its own
    product."""
    if not states or len(states) != len(povm):
        raise ValueError(
            f"need at least one state and one POVM element per state, got "
            f"{len(povm)} elements for {len(states)} states"
        )
    _check_factor_dims(states, states[0].factor_dims, "state")
    _check_factor_dims(povm, states[0].factor_dims, "POVM element")
    if isinstance(states, _PortOrbit) and isinstance(povm, _PortOrbit):
        sectors, ([sigma], [element]) = _common([states.first], [povm.first])
        first = sectors.product(sigma, element)
        acc = first.copy()
        for g in states.gathers:
            acc += sectors.gather(first, g)
    else:
        sectors, (sigmas, elements) = _common(states, povm)
        acc = sum(sectors.product(st, e) for st, e in zip(sigmas, elements))
    defect = _asymmetry(sectors, acc)
    if not defect <= HERMITICITY_TOL:
        raise AssertionError(f"certificate defect {defect:.3e} above tolerance")
    return sectors.operator(sectors.hermitize(acc))


def certificate_X(d: int, N: int) -> DenseOperator:
    """X = sum_i rho_i E_i with E the square-root measurement of the rho_i;
    X/N is dual feasible and its trace over N equals that measurement's
    success probability."""
    ens = pbt_ensemble(d, N)
    return certificate(ens.states, pretty_good_measurement(ens))


def certificate_Y(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """Y = sum_i eta_i E_i with the same unsteered E as X; Y/N is dual
    feasible for discriminating the steered states eta_i."""
    check_oracle_size(d, N, steered=True)
    ens = pbt_ensemble(d, N)
    etas = _steered_states(d, N, coefficients, ens)
    return certificate(etas, pretty_good_measurement(ens))


@dataclass(frozen=True)
class CertificateReport:
    """Weak-duality audit of a measurement against a dual candidate K."""

    gap: float  # tr K - achieved success probability
    feasibility: float  # lower bound on min over i of lambda_min(K - p_i sigma_i)
    swap_defect: float  # largest port-transposition defect delta_i
    success_probability: float
    dual_value: float
    certified: bool
    tolerance: float


def certify_optimality(
    ensemble: Ensemble, povm: Sequence[DenseOperator], K: DenseOperator
) -> CertificateReport:
    """Check that K is dual feasible and gap-free for the given measurement.

    The ensemble must be N port states on (C^d)^(N+1), state i belonging to
    port i. Feasibility is the Weyl bound of ``_swap_defects`` on the
    constraints K - p_i sigma_i: lambda_min(K - p_1 sigma_1) - max_i delta_i
    bounds every lambda_min(K - p_i sigma_i) below, so a K or an ensemble
    without the port symmetry can only read as less feasible.

    A K built by ``certificate`` from this measurement has no gap by
    construction; the gap still exposes a K that belongs to another one.

    A failed certificate is a valid negative result; nothing raises unless
    the inputs are malformed.
    """
    k_sectors, k_data = _measured(K)
    if not np.isfinite(k_data).all():
        raise ValueError("dual candidate K has non-finite entries")
    if not _asymmetry(k_sectors, k_data) <= HERMITICITY_TOL:
        raise ValueError("dual candidate K must be hermitian")
    dims, N = ensemble.factor_dims, len(ensemble.states)
    if _port_layout(ensemble.states) is None or K.factor_dims != dims:
        raise ValueError(
            f"certify_optimality needs N port states on (C^d)^(N+1); got {N} "
            f"states on factor dims {dims} and K on {K.factor_dims}"
        )
    achieved = success_probability(ensemble, povm)
    dual_value = K.trace()
    sectors, ([k], sigmas) = _common([K], ensemble.states)
    dtype = np.result_type(k, *(st._data for st in _heads(ensemble.states)))

    def constraint(p, st):
        out = np.multiply(st, -p, dtype=dtype)
        out += k  # k - p st, bit for bit, in one array
        return out

    constraints = map(constraint, ensemble.probs, sigmas)
    first = next(constraints)
    low = _lowest(sectors, first)
    defects = _swap_defects(sectors, first, constraints)
    swap_defect = max([0.0] + defects)
    feasibility = low - swap_defect
    gap = dual_value - achieved
    certified = feasibility >= -CERTIFY_TOL and abs(gap) <= CERTIFY_TOL
    return CertificateReport(
        gap=gap,
        feasibility=feasibility,
        swap_defect=swap_defect,
        success_probability=achieved,
        dual_value=dual_value,
        certified=certified,
        tolerance=CERTIFY_TOL,
    )


# ---------------------------------------------------------------------------
# Full channel simulation
# ---------------------------------------------------------------------------


def _input_state(
    d: int, N: int, coefficients: PortCoefficients | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries (rows, columns, values) of the input state
    |Phi>_{A_0 R} x (O x 1_B) |Phi>^(xN)_{A_i B_i}, rows A_0..A_N and columns
    R, B_1..B_N: entry ((a_0, a), (r, b)) is [a_0 = r] O_ab / sqrt(d)^(N+1),
    O the port operator, the identity for None. The pair amplitudes multiply
    in their kron order."""
    amplitude = 1 / math.sqrt(d)
    pairs = math.prod([amplitude] * N)
    if coefficients is None:
        a = b = np.arange(d**N)
        port = np.full(d**N, pairs)
    else:
        port_op = build_port_operator(d, N, coefficients)._matrix
        a, b = np.nonzero(port_op)
        port = port_op[a, b] * pairs
    offset = np.arange(d)[:, None] * d**N  # a_0 = r
    return (offset + a).ravel(), (offset + b).ravel(), np.tile(amplitude * port, d)


def _reached_blocks(
    sectors: _Sectors, entries: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """For each of ``sectors``, the columns its rows reach, ascending, and
    the block on those rows and columns of the matrix, square or not, with
    the given entries (rows, columns, values); entries at one (row, column)
    add, in the order given."""
    rows, columns, values = entries
    # the entries grouped by sector, each sector's in the order given, and
    # the distinct (sector, column) pairs ascending, one run per sector
    order = np.argsort(sectors._labels[rows], kind="stable")
    rows, columns, values = rows[order], columns[order], values[order]
    owner = sectors._labels[rows]
    keys, position = _unique_inverse(np.stack((owner, columns), axis=1))
    bounds = np.arange(len(sectors.sizes) + 1)
    starts, firsts = np.searchsorted(owner, bounds), np.searchsorted(keys[:, 0], bounds)
    position -= firsts[owner]  # an entry's column in its sector's block
    for k, size in enumerate(sectors.sizes):
        mine, reached = slice(starts[k], starts[k + 1]), keys[firsts[k] : firsts[k + 1], 1]
        block = np.zeros((size, reached.size), dtype=values.dtype)
        np.add.at(block, (sectors._local[rows[mine]], position[mine]), values[mine])
        yield reached, block


def teleportation_fidelity_direct(
    d: int,
    N: int,
    povm: Sequence[DenseOperator],
    coefficients: PortCoefficients | None = None,
) -> float:
    """Simulate the full teleportation channel and return its entanglement fidelity.

    The input state psi of A_0, R and the port state is a matrix with the
    protocol slots A_0..A_N as rows and R, B_1..B_N as columns. Branch i
    applies E_i to the rows and keeps B_i and R as the output pair, whose
    overlap with the target |Phi> the branches sum. The target is contracted
    first: F = sum_i tr(w_i^dagger E_i w_i), with w_i = (1 x <Phi|_{R B_i}) psi,
    whose columns are the other B slots. The POVM is supplied on the
    discrimination space (ports then B), so psi's rows are read with A_0
    moved last, as the B slot. Each sector of the POVM (``_common``) reaches
    a set of columns of w_i (``_reached_blocks``), outside which its rows are
    zero, and each term is taken one sector block at a time. A POVM not
    measured sector-diagonal is one sector of every row: the POVM's sectors
    size the run.
    """
    if N < 1 or len(povm) != N:
        raise ValueError(f"need N >= 1 and one POVM element per port, got {len(povm)} for N={N}")
    _check_factor_dims(povm, (d,) * (N + 1), "POVM element")
    sectors, (elements,) = _common(povm)
    check_oracle_size(d, N, steered=coefficients is not None, entries=sectors.size)
    _check_psd(povm, POVM_TOL, "POVM element")
    rows, columns, values = _input_state(d, N, coefficients)
    rows = rows % d**N * d + rows // d**N  # (a_0, a) read as (a, a_0)
    r, b = np.divmod(columns, d**N)
    terms = []
    for i in range(1, N + 1):
        # <Phi|_{R B_i}: keep r = b_i, and index the column by the other B slots
        step = d ** (N - i)
        keep = r == b // step % d
        w = (rows[keep], (b // (step * d) * step + b % step)[keep], values[keep] / math.sqrt(d))
        blocks = [block for _, block in _reached_blocks(sectors, w)]
        # E_i is read here and freed with the map, before E_(i+1)
        terms += map(np.vdot, blocks, map(np.matmul, sectors.blocks(next(elements)), blocks))
    fidelity = math.fsum(np.real(terms))
    if not -1e-10 <= fidelity <= 1 + 1e-10:
        raise AssertionError(f"entanglement fidelity {fidelity} outside [0, 1]")
    return fidelity


# ---------------------------------------------------------------------------
# Utilities for symmetry and spectrum checks
# ---------------------------------------------------------------------------


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR factorisation of a complex Gaussian."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def eigenvalues(op: DenseOperator) -> np.ndarray:
    """The operator's eigenvalues, decomposed block by block."""
    return np.concatenate(_eigensolve(*_measured(op)))


def block_spectrum_match(eigvals: np.ndarray, blocks) -> tuple[list[tuple[float, float]], float]:
    """Assign a spectrum to the block multiset.

    The top eigenvalues go to the blocks in increasing block value, each block
    taking as many as its multiplicity. Returns, per block in the given order,
    the median of its eigenvalues and their largest deviation from the block
    value, and the largest magnitude among the leftover eigenvalues, which
    must be numerically zero (0.0 when there are none).
    """
    eigvals = np.sort(eigvals)
    rank = sum(b.multiplicity for b in blocks)
    if rank > eigvals.size:
        raise ValueError("block multiset larger than the operator dimension")
    top = eigvals[eigvals.size - rank :]
    per_block: list[tuple[float, float]] = [(0.0, 0.0)] * len(blocks)
    offset = 0
    for k in sorted(range(len(blocks)), key=lambda k: blocks[k].value):
        m = blocks[k].multiplicity
        chunk = top[offset : offset + m]
        offset += m
        # the chunk is sorted, so its median is read off (np.median imports numpy.ma)
        median = (chunk[(m - 1) // 2] + chunk[m // 2]) / 2
        per_block[k] = (float(median), float(np.max(np.abs(chunk - blocks[k].value))))
    leftover = eigvals[: eigvals.size - rank]
    return per_block, float(np.max(np.abs(leftover))) if leftover.size else 0.0


def _deviation(per_block: list[tuple[float, float]], leftover: float) -> float:
    """The largest deviation in a ``block_spectrum_match`` result."""
    return float(np.max([dev for _, dev in per_block] + [leftover]))


def match_block_spectrum(op: DenseOperator, blocks) -> float:
    """Largest deviation between the operator's spectrum and the block
    multiset (``block_spectrum_match``)."""
    return _deviation(*block_spectrum_match(eigenvalues(op), blocks))


# ---------------------------------------------------------------------------
# Verification bundle (used by the command-line `verify`)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float


def run_verification(
    d: int,
    N: int,
    mode: str = "standard",
    coefficients: PortCoefficients | None = None,
) -> list[CheckResult]:
    """Formula-vs-oracle comparison, spectrum matching, and dual certificates.

    For ``standard`` the certificate is X/N against the rho ensemble; for
    ``given-coefficients`` (or an optimized run, which supplies the optimal
    coefficients) it is Y/N against the eta ensemble, measured with the
    square-root measurement of the *unsteered* states. The states, the
    measurement and the certificate are each built once, and the success
    probability is the one ``certify_optimality`` measures.
    """
    check_oracle_size(d, N, steered=mode != "standard")
    checks: list[CheckResult] = []

    def record(name, deviation, tolerance):
        checks.append(CheckResult(name, deviation <= tolerance, deviation, tolerance))

    rho_ens = pbt_ensemble(d, N)
    povm = pretty_good_measurement(rho_ens)
    if mode == "standard":
        if coefficients is not None:
            raise ValueError("standard mode does not take coefficients")
        formula = fidelity_standard(d, N).fidelity
        ens = rho_ens
        cert_blocks = block_spectrum(d, N, "X")
    elif mode in ("given-coefficients", "optimized"):
        if coefficients is None:
            raise ValueError(f"{mode} mode needs coefficients")
        formula = fidelity_given_coefficients(d, N, coefficients).fidelity
        ens = Ensemble(_steered_states(d, N, coefficients, rho_ens), rho_ens.probs)
        cert_blocks = block_spectrum(d, N, "Y", coefficients)
    else:
        raise ValueError(f"unknown verification mode {mode!r}")
    # the measurement decomposed the average over N; the blocks are of the sum
    avg = block_spectrum_match(N * rho_ens._average_decomposition[2], block_spectrum(d, N, "avg"))
    cert = certificate(ens.states, povm)
    cert_deviation = match_block_spectrum(cert, cert_blocks)
    sectors, data = _measured(cert)
    # K = cert / N in place of cert, which is not read again
    report = certify_optimality(ens, povm, sectors.operator(np.divide(data, N, out=data)))

    record("formula_vs_oracle", abs(formula - report.success_probability * N / d**2), 1e-9)
    record("avg_state_spectrum", _deviation(*avg), 1e-9)
    record("certificate_spectrum", cert_deviation, 1e-9)
    record("dual_feasibility", max(0.0, -report.feasibility), 1e-9)
    record("duality_gap", abs(report.gap), 1e-8)
    return checks
