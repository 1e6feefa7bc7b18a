"""Dense, from-first-principles ground truth at desk scale.

Everything the formula modules claim is rebuilt here as explicit matrices:
the discrimination states, the square-root measurement, isotypic projectors,
the dual-certificate operators, and the full teleportation channel. Sizes are
capped (d^(N+1) <= PBT_ORACLE_CAP, default 4096) because this module exists
for certification, not production scans.

Every construction here is real symmetric: the states, the square-root
measurement, the projectors, the certificates and the port state all have
real entries, so the eigensolves are real LAPACK calls. ``DenseOperator``
also holds complex matrices, such as a state conjugated by a Haar unitary.
Hermiticity is measured where it can fail. ``certificate`` measures
sum_i sigma_i E_i before symmetrising it. Input states, measurements and
dual candidates are measured when validated (``_check_psd``,
``certify_optimality``), and non-finite entries are rejected there. The
other constructions are exactly symmetric as built (kron products and
gathers of symmetric matrices, integer character sums, ``hermitize``), so
nothing measures them again.

The states rho_i, the square-root measurement E_i, the steered states eta_i
and the terms sigma_i E_i of the certificate are port orbits: the images of
their port-1 members under the swap Pi_i of ports 1 and i. ``_PortOrbit``
holds one, built from its port-1 member by one gather per port, so it is
exact by construction: it is recognised by its type, validated at port 1
alone, and ``certificate`` of two orbits takes one product and its gathered
images. Any other sequence is built and validated element by element. The
square-root measurement is an orbit only when the average commutes with
every Pi_k, so rho_1 must also equal its image under every permutation of
ports 2..N (``Ensemble._symmetric_orbit``): an exact orbit of a rho_1
without that symmetry has an average that the swaps change.

The dual candidate comes from the measurement under test: K = sum_i p_i
sigma_i E_i, with E the square-root measurement of the unsteered rho_i and
sigma_i the states discriminated (rho_i, or the steered eta_i). tr K equals
the achieved success probability, so the duality gap is zero by construction;
the substantive checks are feasibility (K >= p_i sigma_i) and the match of
K's spectrum with the closed-form block values. Feasibility takes one
eigensolve: the N constraints are one orbit under the port transpositions,
so K - p_1 sigma_1 is decomposed once and every other constraint is compared
with its transposed image (``_swap_defects``), the measured defect
lowering the reported bound.

Symmetry (i) of the protocol makes every operator here commute with
U^(xN) x conj(U), and for diagonal U that splits (C^d)^(N+1) into weight
sectors: index (a_1..a_N, b) has weight n_k(a) - [b = k], counted from its
digits (``_Sectors``). An operator is measured, entry by entry, to be zero
off its sectors (a NaN is not zero) and is then held as its diagonal
blocks: the eigensolves, the products, the port-swap gathers (a port
permutation maps each sector onto itself) and the symmetrisations run one
block at a time, and what is built from blocked operators is blocked. An
operator not measured sector-diagonal (a Haar-conjugated state, another
layout, a perturbed input) takes the dense path, the one-sector case of the
same code, together with every operator it is combined with. The channel
(``teleportation_fidelity_direct``) reads each POVM sector as a set of rows
of its input state and multiplies and traces each block with the columns
those rows reach. ``verify --d 2 --N 8`` thus takes 6 operator
decompositions (the average state, port 1 of the states and of the
measurement, the two spectra and the feasibility solve), each as 10 LAPACK
calls on blocks of at most 126 of the 512 dimensions, 4 hermiticity
measurements and one ``build_rho``, whose full matrix is the only one the
run builds; the channel builds none.

Tensor-factor convention: the N port slots A_1..A_N come first and the single
B slot is last, with row-major index fusion (np.kron order). Permutations act
on the A slots only. Every slot permutation is one index gather from
``slot_gather``: reordering factors, the port swaps, the port-state regroup,
the channel's row and column orders, and the isotypic projectors, whose
character sums are accumulated at the gathered entries without building a
permutation matrix.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .config import SizeCapError, env_positive_int
from .fidelity import PortCoefficients, block_spectrum, fidelity_given_coefficients, fidelity_standard
from .partitions import (
    Partition,
    check_partition,
    enumerate_partitions,
    permutation_cycle_type,
    sn_character,
    specht_dim,
    weyl_dim,
)

ORACLE_CAP_ENV = "PBT_ORACLE_CAP"
DEFAULT_ORACLE_CAP = 4096
CHANNEL_CAP = 1024  # the channel's input state has d^(2N+2) entries
MAX_PROJECTOR_BOXES = 6  # character averaging is factorial in N

HERMITICITY_TOL = 1e-10
PSEUDO_INVERSE_RTOL = 1e-10
POVM_TOL = 1e-10
CERTIFY_TOL = 1e-8  # on the feasibility bound and on the duality gap


def oracle_cap() -> int:
    """Dense-construction size cap on d^(N+1) (env PBT_ORACLE_CAP)."""
    return env_positive_int(ORACLE_CAP_ENV, DEFAULT_ORACLE_CAP)


def check_oracle_size(d: int, N: int) -> None:
    """Raise SizeCapError when a dense (d, N) construction, of dimension
    d^(N+1), exceeds the oracle cap."""
    cap = oracle_cap()
    if d ** (N + 1) > cap:
        raise SizeCapError(
            f"d^(N+1) = {d ** (N + 1)} exceeds the oracle cap {cap} "
            f"(set {ORACLE_CAP_ENV} to raise it)"
        )


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
    ``order[j]``, and ``_gather_both(M, g)`` reorders both sides of a matrix.
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


def _gather_both(matrix: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``matrix[np.ix_(g, g)]``, taken as two one-axis gathers: the same
    entries in about half the time of the two-axis fancy index."""
    return matrix.take(g, axis=0).take(g, axis=1)


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
        """The data of ``_gather_both(M, g)``, M the matrix of ``data`` and g
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
            np.take(src.take(within, axis=0), within, axis=1, out=dst)
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

    def identity(self) -> np.ndarray:
        out = np.zeros(self.size)
        for block in self.blocks(out):
            np.fill_diagonal(block, 1.0)
        return out


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


def _common(operators: Sequence[DenseOperator]) -> tuple[_Sectors, list[np.ndarray]]:
    """Sectors shared by operators on one factor dims, and each operator's
    data in them: the weight sectors when every operator is measured zero
    off them, else the dense layout. The weight sectors are built at most
    once."""
    known = [op._sectors for op in operators if op._sectors is not None]
    weights = next((sectors for sectors in known if sectors.blocked), None)
    if weights is None and len(known) < len(operators):
        weights = _Sectors.weights(operators[0].factor_dims)
    measured = [_measured(op, weights) for op in operators]
    sectors = measured[0][0]
    if all(other == sectors for other, _ in measured):
        return sectors, [data for _, data in measured]
    return _Sectors.dense(sectors.dims), [op.matrix.ravel() for op in operators]


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
    on (C^d)^(N+1): _gather_both(M, g_i) is Pi_i M Pi_i^T."""
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
    if dims and all(op.factor_dims == (dims[0],) * (len(operators) + 1) for op in operators):
        return dims[0]
    return None


def _swap_defects(sectors: _Sectors, first: np.ndarray, others) -> list[float]:
    """The swap defects delta_k = ||Pi_k M_1 Pi_k^T - M_k||_F of ``first`` =
    M_1 and ``others`` = M_2..M_N (their data in ``sectors``, of dims
    (d,) * (N + 1)), each gathered image formed once and freed before the
    next. By Weyl's inequality lambda_min(M_1) - delta_k bounds
    lambda_min(M_k) below, so one eigensolve bounds every M_k, with the port
    symmetry measured, not assumed."""
    dims = sectors.dims
    swaps = _port_swaps(dims[0], len(dims) - 1)
    return [
        float(np.linalg.norm(sectors.gather(first, g) - other))
        for g, other in zip(swaps, others)
    ]


class _PortOrbit(Sequence):
    """An exact port orbit: M_1 on (C^d)^(N+1) followed by its images
    M_k = Pi_k M_1 Pi_k^T under the port-swap gathers (``_port_swaps``).

    It is exact by construction, so consumers recognise it by its type and
    never measure it again. Its members cannot be replaced, and a copy
    (``list(orbit)``, a slice) is a plain sequence, measured like any other
    input."""

    __slots__ = ("gathers", "_members")

    def __init__(self, first: DenseOperator):
        dims = first.factor_dims
        sectors, data = _measured(first)
        self.gathers = _port_swaps(dims[0], len(dims) - 1)
        images = (sectors.operator(sectors.gather(data, g)) for g in self.gathers)
        self._members = (first, *images)

    def __getitem__(self, k):
        return self._members[k]

    def __len__(self) -> int:
        return len(self._members)


def _check_psd(operators: Sequence[DenseOperator], tol: float, name: str) -> None:
    """Raise ValueError unless every operator is finite, hermitian and
    positive semidefinite to within ``tol``, naming the first failing one and
    its own smallest eigenvalue.

    A ``_PortOrbit`` is checked at M_1: every M_k is a permutation similarity
    of M_1, with its entries and its hermiticity defect h_1. M_1 takes one
    eigensolve, and M_k is accepted when lambda_min(M_1) - dim * h_1 is at
    least -tol, the last term covering the defect because ``eigvalsh`` reads
    one triangle (of each block, which is the matrix's own). An M_k that
    fails the bound, and every operator of any other sequence, is
    decomposed itself, so exactly the operators that pass a per-operator
    eigensolve are accepted.
    """
    sectors, arrays = _common(operators)
    exact = isinstance(operators, _PortOrbit)
    checked = arrays[:1] if exact else arrays
    for k, data in enumerate(checked):
        if not np.isfinite(data).all():
            raise ValueError(f"{name} {k} has non-finite entries")
    herm = [_asymmetry(sectors, data) for data in checked]
    for k, defect in enumerate(herm):
        if not defect <= tol:
            raise ValueError(f"{name} {k} not hermitian (defect {defect:.3e})")
    bound = -math.inf
    for k, data in enumerate(arrays):
        # port 1 of an orbit bounds the other ports; else decompose the operator
        low = bound if bound >= -tol else _lowest(sectors, data)
        if not low >= -tol:
            raise ValueError(f"{name} {k} not PSD (min eig {low:.3e})")
        if exact and k == 0:
            bound = low - sectors.dim * herm[0]


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Matrix moving the content of slot k to slot perm[k] on (C^d)^(len perm).

    A reference for tests: no oracle construction builds a permutation matrix.
    """
    n = len(perm)
    return np.eye(d**n)[slot_gather((d,) * n, np.argsort(perm))]


def reorder_factors(
    matrix: np.ndarray, dims: tuple[int, ...], new_order: list[int]
) -> np.ndarray:
    """Reorder tensor slots; ``new_order[j]`` is the old slot at new position j."""
    g = slot_gather(dims, new_order)
    return _gather_both(matrix, g)


def embed_operator(
    matrix: np.ndarray, slots: list[int], dims: tuple[int, ...]
) -> np.ndarray:
    """Lift an operator acting on ``slots`` (in that order) to the full space."""
    others = [k for k in range(len(dims)) if k not in slots]
    combined = np.kron(matrix, np.eye(math.prod(dims[k] for k in others)))
    order = list(slots) + others
    inverse = [order.index(j) for j in range(len(dims))]
    return reorder_factors(combined, tuple(dims[k] for k in order), inverse)


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


def build_rho(d: int, N: int, i: int) -> DenseOperator:
    """Discrimination state rho_i: an entangled pair on (A_i, B), maximally
    mixed on the remaining ports."""
    check_oracle_size(d, N)
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} outside 1..{N}")
    dims = (d,) * (N + 1)
    pair = maximally_entangled(d).matrix * (1 / d ** (N - 1))
    return DenseOperator(embed_operator(pair, [i - 1, N], dims), dims)


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
        for k, st in enumerate(self.states):
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
    def _average_decomposition(self) -> tuple[DenseOperator, DenseOperator]:
        """Pseudo-inverse square root and support projector of the
        probability-weighted average, computed on first use."""
        return _pseudo_inv_sqrt(average_state(self, normalized=True))


def pbt_ensemble(d: int, N: int) -> Ensemble:
    """The uniform ensemble of the N discrimination states rho_i: rho_1 and
    its images under the port swaps, equal entry by entry to ``build_rho``."""
    return Ensemble(_PortOrbit(build_rho(d, N, 1)), [1.0 / N] * N)


def average_state(ensemble: Ensemble, normalized: bool = False) -> DenseOperator:
    """Sum of the states, probability weighted when ``normalized`` is set."""
    sectors, arrays = _common(ensemble.states)
    acc = np.zeros_like(arrays[0])
    for p, data in zip(ensemble.probs, arrays):
        acc = acc + (p * data if normalized else data)
    return sectors.operator(sectors.hermitize(acc))


# ---------------------------------------------------------------------------
# Pretty good measurement and discrimination
# ---------------------------------------------------------------------------


def _pseudo_inv_sqrt(op: DenseOperator) -> tuple[DenseOperator, DenseOperator]:
    """Pseudo-inverse square root and support projector of a PSD operator,
    in its sectors.

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
    return sectors.operator(inv_sqrt), sectors.operator(support)


def pretty_good_measurement(ensemble: Ensemble) -> Sequence[DenseOperator]:
    """Square-root measurement E_i = avg^(-1/2) p_i rho_i avg^(-1/2).

    The elements form a POVM on the support of the ensemble average; off
    that support they are zero. An ensemble invariant under every port
    permutation (``Ensemble._symmetric_orbit``) has an average that commutes
    with every Pi_k, so E_k = Pi_k E_1 Pi_k^T: the ``_PortOrbit`` of E_1.
    """
    symmetric = ensemble._symmetric_orbit
    states = ensemble.states[:1] if symmetric else ensemble.states
    sectors, (inv_sqrt, *arrays) = _common([ensemble._average_decomposition[0], *states])
    povm = [
        sectors.operator(sectors.hermitize(sectors.product(inv_sqrt, p * data, inv_sqrt)))
        for p, data in zip(ensemble.probs, arrays)
    ]
    return _PortOrbit(povm[0]) if symmetric else povm


def _check_factor_dims(
    operators: Sequence[DenseOperator], dims: tuple[int, ...], name: str
) -> None:
    """Raise ValueError naming the first operator not acting on ``dims``."""
    for k, op in enumerate(operators):
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
    n = len(povm)
    operators = [ensemble._average_decomposition[1], *ensemble.states, *povm]
    sectors, (support, *arrays) = _common(operators)
    total = sum(arrays[n:])
    incomplete = sectors.product(support, total - sectors.identity(), support)
    defect = float(np.max(np.abs(incomplete)))
    if not defect <= POVM_TOL:
        raise ValueError(
            f"POVM incomplete on the ensemble support (defect {defect:.3e})"
        )
    # tr(sigma E) = sum_jk conj(sigma_jk) E_jk for hermitian sigma: O(dim^2)
    value = math.fsum(
        p * float(np.vdot(st, e).real)
        for p, st, e in zip(ensemble.probs, arrays[:n], arrays[n:])
    )
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
    size is factorial in n, which restricts n to MAX_PROJECTOR_BOXES.
    """
    if n > MAX_PROJECTOR_BOXES:
        raise SizeCapError(f"character averaging is limited to n <= {MAX_PROJECTOR_BOXES}")
    if d**n > oracle_cap():
        raise SizeCapError(f"d^n = {d ** n} exceeds the oracle cap {oracle_cap()}")
    full = d**n
    perms = list(itertools.permutations(range(n)))
    types = [permutation_cycle_type(perm) for perm in perms]
    classes = list(dict.fromkeys(types))
    class_index = np.array([classes.index(lam) for lam in types])
    columns = np.stack([slot_gather((d,) * n, perm) for perm in perms])
    return np.arange(0, full * full, full) + columns, classes, class_index


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
    coefficients.validate()
    table = _permutation_table(d, N)
    acc = np.zeros((d**N, d**N))
    for mu in enumerate_partitions(N, d):
        c = coefficients.value(mu)
        if c > 0:
            acc = acc + math.sqrt(c) * young_projector(mu, d, table).matrix
    return DenseOperator(acc, (d,) * N)


def _lifted_port_operator(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """O x 1_B on the discrimination space."""
    lifted = np.kron(build_port_operator(d, N, coefficients).matrix, np.eye(d))
    return DenseOperator(lifted, (d,) * (N + 1))


def _steer(lifted: DenseOperator, rho: DenseOperator) -> DenseOperator:
    """(O x 1_B) rho (O x 1_B), in the sectors the two share."""
    sectors, (o, r) = _common([lifted, rho])
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
    sectors, arrays = _common([*states, *povm])
    sigmas, elements = arrays[: len(states)], arrays[len(states) :]
    if isinstance(states, _PortOrbit) and isinstance(povm, _PortOrbit):
        first = sectors.product(sigmas[0], elements[0])
        acc = sum((sectors.gather(first, g) for g in states.gathers), first)
    else:
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
    check_oracle_size(d, N)
    coefficients.validate()
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
    sectors, (k, *sigmas) = _common([K, *ensemble.states])
    constraints = (k - p * st for p, st in zip(ensemble.probs, sigmas))
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


def port_state_vector(d: int, N: int, coefficients: PortCoefficients | None) -> np.ndarray:
    """Pure port state on slots A_1..A_N, B_1..B_N.

    None gives N independent maximally entangled pairs; otherwise the pairs
    are steered by O built from the coefficients.
    """
    pair = maximally_entangled_vector(d)
    vec = reduce(np.kron, [pair] * N)
    # kron order is A_1 B_1 A_2 B_2 ...; regroup to A_1..A_N B_1..B_N
    order = list(range(0, 2 * N, 2)) + list(range(1, 2 * N, 2))
    vec = vec[slot_gather((d,) * (2 * N), order)]
    if coefficients is not None:
        port_op = build_port_operator(d, N, coefficients).matrix
        vec = (port_op @ vec.reshape(d**N, -1)).reshape(-1)
    return vec


def _reached_blocks(
    psi: np.ndarray, row_sets: list[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each set of rows of ``psi``, the columns those rows reach,
    ascending, and the block psi[rows, columns]. A column is reached when one
    of the rows has a nonzero entry in it, counted entry by entry (a NaN is
    not zero), so ``psi`` is zero outside the blocks."""
    label = np.empty(psi.shape[0], dtype=np.intp)
    for k, rows in enumerate(row_sets):
        label[rows] = k
    entry_rows, entry_columns = np.nonzero(psi)
    pairs, _ = _unique_inverse(label[entry_rows] * psi.shape[1] + entry_columns)
    owner, columns = np.divmod(pairs, psi.shape[1])
    bounds = np.searchsorted(owner, np.arange(len(row_sets) + 1))
    return [
        (cols, psi[np.ix_(rows, cols)])
        for rows, cols in zip(row_sets, np.split(columns, bounds[1:-1]))
    ]


def _traced_block(
    branch: np.ndarray, block: np.ndarray, position: np.ndarray, d2: int
) -> np.ndarray:
    """The d2 x d2 matrix sum_{r, o} branch[r, (o, q)] conj(block[r, (o, q')]),
    the partial trace over the rows r and the traced slots o: column k of
    both matrices is (o, q) = divmod(position[k], d2), its position in the
    traced-then-kept column order. Each matrix is folded to (o, q, r), zero
    where no column has that (o, q), and the slices of each o multiplied."""
    traced, kept = np.divmod(position, d2)
    present, traced = _unique_inverse(traced)

    def fold(matrix: np.ndarray) -> np.ndarray:
        out = np.zeros((present.size * d2, matrix.shape[0]), dtype=matrix.dtype)
        out[traced * d2 + kept] = matrix.T
        return out.reshape(present.size, d2, -1)

    return np.matmul(fold(branch), fold(block).conj().transpose(0, 2, 1)).sum(axis=0)


def teleportation_fidelity_direct(
    d: int,
    N: int,
    povm: Sequence[DenseOperator],
    coefficients: PortCoefficients | None = None,
) -> float:
    """Simulate the full teleportation channel and return its entanglement fidelity.

    The input state psi of A_0, R and the port state is a matrix with the
    protocol slots A_0..A_N as rows and R, B_1..B_N as columns. Branch i
    applies E_i to the rows; everything but B_i and R is traced out, and the
    branches are summed with B_i relabelled as B_0. The POVM is supplied on
    the discrimination space (ports then B) and read as the protocol
    measurement by moving the B slot to the front, so a sector of the POVM
    (``_common``) is a set of protocol rows. Each sector's rows reach a set
    of columns of psi (``_reached_blocks``), outside which they are zero, so
    every E_i psi and its partial trace are formed one sector block at a
    time and accumulated into the d^2 x d^2 output. A POVM not measured
    sector-diagonal is one sector of every row. Sectors whose reaches
    overlap are still exact, each block as wide as its reach.
    """
    if d ** (N + 1) > CHANNEL_CAP:
        raise SizeCapError(
            f"d^(N+1) = {d ** (N + 1)} exceeds the channel-simulation cap {CHANNEL_CAP}"
        )
    if len(povm) != N:
        raise ValueError(f"need one POVM element per port, got {len(povm)}")
    _check_factor_dims(povm, (d,) * (N + 1), "POVM element")
    _check_psd(povm, POVM_TOL, "POVM element")
    sectors, arrays = _common(povm)
    dims = (d,) * (2 * N + 2)
    psi = np.kron(maximally_entangled_vector(d), port_state_vector(d, N, coefficients))
    # kron order is A_0, R, A_1..A_N, B_1..B_N; as a matrix, the rows are the
    # protocol slots A_0..A_N and the columns R, B_1..B_N
    order = [0] + list(range(2, N + 2)) + [1] + list(range(N + 2, 2 * N + 2))
    psi = psi[slot_gather(dims, order)].reshape(d ** (N + 1), -1)
    slots = (d,) * (N + 1)
    # protocol row p is discrimination index g[p], g moving B to the front
    protocol_row = np.argsort(slot_gather(slots, [N] + list(range(N))))
    blocks = _reached_blocks(psi, [protocol_row[index] for index in sectors.index])
    output = np.zeros((d * d, d * d), dtype=np.result_type(psi, *arrays))
    for i, data in enumerate(arrays, start=1):
        # columns to B_j (j != i), B_i, R: everything but (B_i, R) is traced
        position = np.argsort(slot_gather(slots, [j for j in range(1, N + 1) if j != i] + [i, 0]))
        for element, (columns, block) in zip(sectors.blocks(data), blocks):
            branch = np.matmul(element, block)
            output += _traced_block(branch, block, position[columns], d * d)
    target = maximally_entangled_vector(d)
    fidelity = float((target.conj() @ output @ target).real)
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


def block_spectrum_match(op: DenseOperator, blocks) -> tuple[list[tuple[float, float]], float]:
    """Assign the operator's spectrum to the block multiset.

    The top eigenvalues go to the blocks in increasing block value, each block
    taking as many as its multiplicity. Returns, per block in the given order,
    the median of its eigenvalues and their largest deviation from the block
    value, and the largest magnitude among the leftover eigenvalues, which
    must be numerically zero (0.0 when there are none).
    """
    eigvals = np.sort(np.concatenate(_eigensolve(*_measured(op))))
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


def match_block_spectrum(op: DenseOperator, blocks) -> float:
    """Largest deviation between the operator's spectrum and the block
    multiset: the largest per-block deviation of ``block_spectrum_match``,
    or its leftover eigenvalue magnitude when that is larger."""
    per_block, leftover = block_spectrum_match(op, blocks)
    return float(np.max([dev for _, dev in per_block] + [leftover]))


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
    check_oracle_size(d, N)
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
    cert = certificate(ens.states, povm)
    sectors, data = _measured(cert)
    report = certify_optimality(ens, povm, sectors.operator(data / N))

    record("formula_vs_oracle", abs(formula - report.success_probability * N / d**2), 1e-9)
    avg = average_state(rho_ens)
    record("avg_state_spectrum", match_block_spectrum(avg, block_spectrum(d, N, "avg")), 1e-9)
    record("certificate_spectrum", match_block_spectrum(cert, cert_blocks), 1e-9)
    record("dual_feasibility", max(0.0, -report.feasibility), 1e-9)
    record("duality_gap", abs(report.gap), 1e-8)
    return checks
