"""Dense, from-first-principles ground truth at desk scale.

Everything the formula modules claim is rebuilt here as explicit operators:
the discrimination states, the square-root measurement, isotypic projectors,
the dual-certificate operators, and the full teleportation channel. Nothing
here reads a formula: of ``pbtfid.fidelity`` only the ``PortCoefficients``
data comes in, and ``pbtfid.verify`` sets the results against the formulas.
Each entry point estimates its peak memory before it allocates and stops
above the byte budget PBT_ORACLE_BYTES (``check_oracle_size``).

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
check is feasibility, K >= p_i sigma_i (``pbtfid.verify`` also matches K's
spectrum with the closed-form block values). Feasibility is one eigensolve,
of K - p_1 sigma_1, lowered by the measured defects of the other
constraints against its transposed images (``_swap_defects``).

Every operator here is held as one block per letter-permutation orbit of
the weight sectors of (C^d)^(N+1) (``pbtfid.sectors``), and eigensolves,
products, gathers and symmetrisations run block by block; an operator built
from entries, rho_i, is measured for that layout, entry by entry, and held
dense when it is not letter invariant. The isotypic projectors and
O = sum_mu sqrt(c_mu) P_mu, on the N port slots, are held per letter orbit
of the letter-count sectors: spectral projectors of the transposition class
sum, each entry the mean over its orbit under slot and letter permutations,
so that O and O x 1_B commute with both bit for bit (``_isotypic_sum``).
The channel's input state psi is O x 1_B scaled, and so held in the weight
sectors' letter orbits by construction. No full matrix is filled unless
``matrix`` is read. ``verify --d 2 --N 8`` takes 5 decompositions, each of 5
blocks, the largest 126.

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
from functools import cached_property

import numpy as np

from .config import SizeCapError, env_positive_int
from .fidelity import PortCoefficients
from .partitions import Partition, check_partition, enumerate_partitions
from .sectors import (
    DenseOperator,
    _digits,
    _layout,
    _orbit_entries,
    _orbit_sizes,
    _Sectors,
    _unique_inverse,
)

ORACLE_BYTES_ENV = "PBT_ORACLE_BYTES"
DEFAULT_ORACLE_BYTES = 2**30
BASE_BYTES = 2**23  # small arrays and Python objects
LIVE_MEMBERS = 10  # sector-data arrays at a run's peak
LAPACK_COPIES = 3  # arrays of the largest block's size: eigh's input, eigenvectors, workspace
STEERED_MEMBERS = 4  # sector-data arrays a steered run holds beyond a standard one

HERMITICITY_TOL = 1e-10
PSEUDO_INVERSE_RTOL = 1e-10
POVM_TOL = 1e-10
CERTIFY_TOL = 1e-8  # on the feasibility bound and on the duality gap


def check_oracle_size(d: int, N: int, steered: bool = False, layout: _Sectors | None = None) -> int:
    """The estimated peak memory in bytes of an oracle run at (d, N), taken
    before anything is allocated; SizeCapError over the PBT_ORACLE_BYTES budget.

    Its terms are fitted to the ru_maxrss growth of verify and channel runs
    at d=2 N=8..12, d=3 N=6..8, d=4 N=5..6 and d=5 N=5..6: BASE_BYTES,
    LIVE_MEMBERS float64 arrays of one operator's data in its blocks, and
    LAPACK_COPIES of the largest block, in ``layout``, by default one block
    per letter orbit of the weight sectors (``_orbit_entries``,
    ``_orbit_sizes``). A steered run adds STEERED_MEMBERS arrays of that
    data, such as O x 1_B and eta_1: steered verify outgrew standard verify
    by 2.5 to 3.5 of them. Over the runs that grow by more than 20 MB the
    estimate is 1.02 to 1.20 times the growth of standard verify, 1.08 to
    1.21 times that of steered verify, 1.62 to 1.74 times that of the
    channel and 1.44 to 1.90 times that of the steered channel.
    """
    budget = env_positive_int(ORACLE_BYTES_ENV, DEFAULT_ORACLE_BYTES)
    members = LIVE_MEMBERS + STEERED_MEMBERS * steered
    if layout is None:
        cap = budget // (members * 8)
        entries = _orbit_entries(d, N, cap)
        largest = max(_orbit_sizes(d, N)) if entries <= cap else 0
    else:
        entries, largest = layout.size, max(layout.sizes[k] for k in layout.held)
    estimate = BASE_BYTES + 8 * (members * entries + LAPACK_COPIES * largest**2)
    if estimate > budget:
        raise SizeCapError(
            f"the oracle at d={d}, N={N} needs an estimated {Decimal(estimate):.3g} bytes, "
            f"over the budget of {budget} bytes (set {ORACLE_BYTES_ENV} to raise it)"
        )
    return estimate


# ---------------------------------------------------------------------------
# Tensor bookkeeping and block-by-block operations
# ---------------------------------------------------------------------------


def hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().swapaxes(-1, -2)))) if matrix.size else 0.0


def slot_gather(dims: tuple[int, ...], order) -> np.ndarray:
    """Flat index map of a tensor-slot permutation on slots of sizes ``dims``:
    ``v[slot_gather(dims, order)]`` is ``v`` with new slot j holding old slot
    ``order[j]``, and ``M[g][:, g]`` reorders both sides of a matrix.
    Every slot rearrangement in this module is such a gather."""
    return np.arange(math.prod(dims)).reshape(dims).transpose(order).ravel()


def _heads(operators: Sequence[DenseOperator]) -> Sequence[DenseOperator]:
    """M_1 of a ``_PortOrbit`` (its members share its dims and sectors),
    else every operator."""
    return [operators.first] if isinstance(operators, _PortOrbit) else operators


def _common(*groups: Sequence[DenseOperator]) -> tuple[_Sectors, list]:
    """The layout shared by groups of operators on one factor dims, and an
    iterator over each group's data in it: their own when they share one,
    else dense. An orbit's members are gathered from M_1 as read."""
    heads = [op for group in groups for op in _heads(group)]
    sectors = heads[0]._sectors
    if not all(op._sectors == sectors for op in heads):
        sectors = _Sectors.dense(sectors.dims)

    def recast(layout, data):
        return data if layout == sectors else layout.matrix(data).ravel()

    def stream(group):
        if isinstance(group, _PortOrbit):
            # map holds no member once it is passed on
            return map(recast, itertools.repeat(group.first._sectors), group.data())
        return (recast(op._sectors, op._data) for op in group)

    return sectors, [stream(group) for group in groups]


def _zeros(sectors: _Sectors, operators: Sequence[DenseOperator]) -> np.ndarray:
    """Zero data in ``sectors`` of the dtype of sums of the operators."""
    return np.zeros(sectors.size, dtype=np.result_type(*(op._data for op in _heads(operators))))


def _eigensolve(sectors: _Sectors, data: np.ndarray, vectors: bool = False) -> list:
    """The oracle's one decomposition: ``eigh`` (with ``vectors``) or
    ``eigvalsh`` of each held block."""
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
        return math.sqrt(sectors.inner(image, image).real)

    return list(map(defect, swaps, others))


class _PortOrbit(Sequence):
    """An exact port orbit: M_1 on (C^d)^(N+1) followed by its images
    M_k = Pi_k M_1 Pi_k^T under the port-swap gathers (``_port_swaps``).

    It holds M_1 and the gathers: member k is gathered each time it is read,
    and nothing keeps it. Consumers recognise it by its type and never
    measure it again. A copy (``list(orbit)``, a slice) is an ordinary
    sequence."""

    __slots__ = ("first", "gathers")

    def __init__(self, first: DenseOperator):
        dims = first.factor_dims
        self.first = first
        self.gathers = _port_swaps(dims[0], len(dims) - 1)

    def data(self) -> Iterator[np.ndarray]:
        """Each member's data in the sectors of M_1, gathered as read."""
        sectors, first = self.first._sectors, self.first._data
        yield first
        for g in self.gathers:
            yield sectors.gather(first, g)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[j] for j in range(len(self))[k]]
        k, sectors = range(len(self))[k], self.first._sectors
        if k == 0:
            return self.first
        return sectors.operator(sectors.gather(self.first._data, self.gathers[k - 1]))

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


# ---------------------------------------------------------------------------
# States
# ---------------------------------------------------------------------------


def _from_entries(
    dims: tuple[int, ...], rows: np.ndarray, columns: np.ndarray, values: np.ndarray
) -> DenseOperator:
    """The operator on ``dims`` with the given entries, at distinct positions
    and zero elsewhere, in the layout its entries take (``_layout``)."""
    return DenseOperator._in_sectors(*_layout(dims, rows, columns, values))


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
            tr = st._sectors.trace(st._data)
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
        sectors, first = self.states[0]._sectors, self.states[0]._data
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
    in its sectors, and its eigenvalues, each block's repeated by its
    multiplicity.

    Eigenvalues below PSEUDO_INVERSE_RTOL times the largest of all blocks
    count as zero, restricting everything to the numerically meaningful
    support.
    """
    sectors, data = op._sectors, op._data
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
    eigvals = sectors.spectrum([w for w, _ in pairs])
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
    return _discrimination(ensemble, povm)[0]


def _discrimination(
    ensemble: Ensemble, povm: Sequence[DenseOperator], K: DenseOperator | None = None
) -> tuple[float, list[float]]:
    """``success_probability`` and, given a dual candidate K, lambda_min of
    K - p_1 sigma_1 and the swap defects of the other K - p_i sigma_i, from
    one pass that reads each state once."""
    if len(povm) != len(ensemble.states):
        raise ValueError("POVM length does not match the ensemble")
    _check_factor_dims(povm, ensemble.factor_dims, "POVM element")
    _check_psd(povm, POVM_TOL, "POVM element")
    support = ensemble._average_decomposition[1]
    groups = [[support], ensemble.states, povm] + ([] if K is None else [[K]])
    sectors, ([support], states, elements, *candidate) = _common(*groups)
    k = next(candidate[0]) if candidate else None
    total = _zeros(sectors, povm)
    terms = []

    def constraints():
        # the completeness sum, tr(sigma E) = <sigma, E> (hermitian) and K - p sigma
        for p in ensemble.probs:
            st, e = next(states), next(elements)
            np.add(total, e, out=total)
            terms.append(p * float(sectors.inner(st, e).real))
            del e  # freed before the next members are gathered
            if k is not None:
                out = np.multiply(st, -p, dtype=np.result_type(k, st))
                del st
                out += k  # k - p st, bit for bit, in one array
                yield out

    passes = constraints()
    first = next(passes, None)  # without K, the whole pass
    feasibility = []
    if first is not None:
        feasibility = [_lowest(sectors, first), *_swap_defects(sectors, first, passes)]
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
    return value, feasibility


# ---------------------------------------------------------------------------
# Isotypic projectors
# ---------------------------------------------------------------------------


class SeparationError(ArithmeticError):
    """The content power sums of a list of diagrams do not tell every two of
    them apart, so the power sums of the Jucys-Murphy elements cannot label
    their isotypic components."""


def _content_sums(mus: Sequence[Partition]) -> list[tuple[int, ...]]:
    """The power sums p_m(mu) = sum over the boxes (i, j) of mu of (j - i)^m,
    m = 1..M, of each diagram, with M the least that tells every two of
    ``mus`` apart; SeparationError when none up to the diagrams' size does.
    p_m(mu) is the eigenvalue of sum_k X_k^m, X_k = sum_(j<k) (j k) the
    Jucys-Murphy elements, on the isotypic component of mu (Okounkov and
    Vershik); p_1 is the eigenvalue of the transposition class sum."""
    contents = [[j - i for i, row in enumerate(mu) for j in range(row)] for mu in mus]
    sums: list[tuple[int, ...]] = [()] * len(mus)
    for m in range(1, max(map(len, contents)) + 1):
        sums = [s + (sum(c**m for c in boxes),) for s, boxes in zip(sums, contents)]
        if len(set(sums)) == len(sums):
            return sums
    raise SeparationError(f"the content power sums do not tell the diagrams {list(mus)} apart")


def _power_sum(xs: list[list[np.ndarray]], vectors: np.ndarray, m: int) -> np.ndarray:
    """vectors^T (sum_k X_k^m) vectors, each X_k applied to a block as the
    sum of its transpositions' gathers ``xs[k]``."""

    def apply(gathers, v):
        return sum(v[g] for g in gathers)

    total = np.zeros((vectors.shape[1],) * 2)
    for gathers in xs:
        half = vectors
        for _ in range(m // 2):
            half = apply(gathers, half)
        total += half.T @ (apply(gathers, half) if m % 2 else half)
    return total


def _components(xs, sums, candidates, matrix, vectors, m) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal columns spanning the isotypic components of
    ``candidates`` in one block, and the diagram of each column: ``matrix``
    is p_m restricted to the span of ``vectors`` (every index of the block
    for None), the sum of the candidates' components, which share
    p_1..p_(m-1). Each eigenvalue is measured against their p_m, and the
    columns of a p_m that candidates share too are split by p_(m+1)."""
    values, rotation = np.linalg.eigh(matrix)
    basis = rotation if vectors is None else vectors @ rotation
    shared: dict[int, list[int]] = {}
    for i in candidates:
        shared.setdefault(sums[i][m - 1], []).append(i)
    levels = sorted(shared)
    nearest = np.abs(values[:, None] - np.array(levels, dtype=float)).argmin(axis=1)
    miss = float(np.abs(values - np.take(levels, nearest)).max(initial=0.0))
    if not miss <= 0.25:
        raise AssertionError(f"an eigenvalue of p_{m} lies {miss:.3g} from every content power sum")
    diagram = np.array([shared[level][0] for level in levels])[nearest]
    for k, level in enumerate(levels):
        if len(shared[level]) > 1 and (columns := nearest == k).any():
            split = basis[:, columns]
            restricted = _power_sum(xs, split, m + 1)
            refined = _components(xs, sums, shared[level], restricted, split, m + 1)
            basis[:, columns], diagram[columns] = refined
    return basis, diagram


def _orbit_means(sectors: _Sectors, data: np.ndarray) -> np.ndarray:
    """The data of an operator on (C^d)^n in its letter-count ``sectors``,
    each entry replaced by the mean over its orbit under the slot
    permutations and the letter permutations that keep its sector.

    Pair (a, a') has the slot-permutation orbit of its multiset of letter
    pairs (a_k, a'_k), held sorted, which also fixes the sector; a letter
    permutation that keeps the sector's counts, which permutes letters of
    equal count, maps it to another, and the least of its images, by
    lexicographic rank, names the orbit. Every entry of an orbit then holds
    one number, so the operator commutes with every slot and letter
    permutation bit for bit."""
    d, n = sectors.dims[0], len(sectors.dims)
    code = np.min_scalar_type(d * d)  # a letter pair x d + y, in the fewest bytes
    digits = _digits(d, n).astype(code)
    row, column = sectors.held_entries()
    keys, orbit = _unique_inverse(np.sort(digits[row] * code.type(d) + digits[column], axis=1))
    del row, column
    held = [sectors.index[k] for k in sectors.held]
    key_block = np.empty(len(keys), dtype=np.intp)
    key_block[orbit] = np.repeat(np.arange(len(held)), [rows.size**2 for rows in held])
    images, owners = [keys], [np.arange(len(keys))]
    counts = (digits[[rows[0] for rows in held]][:, :, None] == np.arange(d)).sum(axis=1)
    for b, count in enumerate(counts.tolist()):
        equal: dict[int, list[int]] = {}
        for letter, c in enumerate(count):
            equal.setdefault(c, []).append(letter)
        groups = [letters for c, letters in equal.items() if c and len(letters) > 1]
        if not groups:
            continue  # no two letters of equal count in the sector
        mine = np.flatnonzero(key_block == b)
        first, second = np.divmod(keys[mine], code.type(d))
        perms = itertools.product(*map(itertools.permutations, groups))
        for perm in itertools.islice(perms, 1, None):  # all but the identity
            letters = np.arange(d, dtype=code)
            letters[sum(groups, [])] = sum(perm, ())
            images.append(np.sort(letters[first] * code.type(d) + letters[second], axis=1))
            owners.append(mine)
    rank = _unique_inverse(np.concatenate(images))[1]
    least = np.full(len(keys), rank.size)
    np.minimum.at(least, np.concatenate(owners), rank)
    orbit = least[orbit]
    total, size = np.bincount(orbit, weights=data), np.bincount(orbit)
    return (total / np.maximum(size, 1))[orbit]  # a rank that is no orbit's least has size 0


def _isotypic_sum(
    d: int, n: int, mus: Sequence[Partition], weights: Sequence[float]
) -> DenseOperator:
    """sum_mu weights[mu] P_mu on (C^d)^n, over ``mus``, every diagram of n
    with at most d rows, P_mu the projector onto the isotypic component of
    the slot permutations, held one block per letter orbit of the
    letter-count sectors (``_Sectors.counts``), which every slot
    permutation keeps.

    P_mu is a spectral projector of the transposition class sum
    T = sum_(j<k) (j k), whose eigenvalue on the component of mu is mu's
    content sum: T is built from the n(n-1)/2 transpositions, block by
    block, and each block decomposed once. Diagrams of equal content sum are
    split by the higher power sums of the Jucys-Murphy elements
    (``_content_sums``), restricted to their shared eigenvectors
    (``_components``). No permutation matrix and no character is formed.
    Each entry is then the mean over its orbit (``_orbit_means``)."""
    check_oracle_size(d, n, steered=True)
    sums = _content_sums(mus)
    dims = (d,) * n
    sectors = _Sectors.counts(dims)
    swaps = _transpositions(d, n)
    T = sectors.permutation_sum(swaps)
    # X_k, k = 2..n, as the gathers of its transpositions (j k) inside each
    # block, read when diagrams share their content sum
    xs = [[sectors.local_gathers(g) for g in swaps[k * (k - 1) // 2 : k * (k + 1) // 2]]
          for k in range(1, n)] if len(sums[0]) > 1 else []
    weights = np.asarray(weights, dtype=float)
    data = np.zeros(sectors.size)
    for b, (matrix, block) in enumerate(zip(sectors.blocks(T), sectors.blocks(data))):
        gathers = [[g[b] for g in row] for row in xs]
        basis, diagram = _components(gathers, sums, range(len(mus)), matrix, None, 1)
        block[...] = (basis * weights[diagram]) @ basis.T
    return sectors.operator(_orbit_means(sectors, data))


def _transpositions(d: int, n: int) -> np.ndarray:
    """The index gathers of the transpositions (j k), j < k, of the slots of
    (C^d)^n, one row each, ordered by k and then j: swapping digits j and k
    of index x moves it by (a_k - a_j)(d^(n-1-j) - d^(n-1-k)), the
    ``slot_gather`` of the swap."""
    k, j = np.tril_indices(n, -1)
    place, digits = d ** np.arange(n - 1, -1, -1), _digits(d, n).T
    return np.arange(d**n) + (digits[k] - digits[j]) * (place[j] - place[k])[:, None]


def young_projector(mu, d: int) -> DenseOperator:
    """Projector onto the isotypic component of mu of the slot-permutation
    action on (C^d)^n, a spectral projector of the transposition class sum
    (``_isotypic_sum``)."""
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        raise ValueError("need a nonempty diagram")
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than d={d} rows")
    mus = enumerate_partitions(n, d)
    return _isotypic_sum(d, n, mus, [float(nu == mu) for nu in mus])


# ---------------------------------------------------------------------------
# Steered port states
# ---------------------------------------------------------------------------


def build_port_operator(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """O = sum_mu sqrt(c_mu) P_mu acting on the N port slots
    (``_isotypic_sum``). Every steered construction passes through here, so
    coefficients for another (d, N) stop here."""
    if (coefficients.d, coefficients.N) != (d, N):
        raise ValueError(f"coefficients are for (d, N) = ({coefficients.d}, {coefficients.N})")
    mus, c = zip(*coefficients.items())
    return _isotypic_sum(d, N, mus, [math.sqrt(x) for x in c])


def _lifted_port_operator(d: int, N: int, coefficients: PortCoefficients | None) -> DenseOperator:
    """O x 1_B, entry ((a, b), (a', b')) = [b = b'] O_aa', O the identity
    for None, held one block per letter orbit of the weight sectors (dense
    where there are none): O commutes with every letter permutation bit for
    bit, and so does O x 1_B."""
    # O first: its size check comes before anything here is allocated
    port = None if coefficients is None else build_port_operator(d, N, coefficients)
    dims = (d,) * (N + 1)
    sectors = _Sectors.weights(dims) or _Sectors.dense(dims)
    rows, columns = sectors.held_entries()
    if port is None:
        return sectors.operator((rows == columns).astype(float))
    data = port._sectors.entries(port._data, rows // d, columns // d)
    data[rows % d != columns % d] = 0.0
    return sectors.operator(data)


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
    k_sectors, k_data = K._sectors, K._data
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
    achieved, (low, *defects) = _discrimination(ensemble, povm, K)
    dual_value = K.trace()
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


def _input_state(d: int, N: int, coefficients: PortCoefficients | None) -> DenseOperator:
    """The input state |Phi>_{A_0 R} x (O x 1_B) |Phi>^(xN)_{A_i B_i} as a
    matrix with rows (A_1..A_N, A_0) and columns (B_1..B_N, R): entry
    ((a, a_0), (b, r)) is [a_0 = r] O_ab / sqrt(d)^(N+1), O the port
    operator, the identity for None. That is O x 1_B scaled
    (``_lifted_port_operator``), held in its letter orbits: O times the
    product of the N port pairs' amplitudes, in kron order, then times the
    A_0 R pair's."""
    lifted = _lifted_port_operator(d, N, coefficients)
    amplitude = 1 / math.sqrt(d)
    data = lifted._data * math.prod([amplitude] * N)
    data *= amplitude
    return lifted._sectors.operator(data)


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
    discrimination space (ports then B), so psi is built with A_0 moved last
    in its rows, as the B slot, and R last in its columns
    (``_input_state``), and read in the layout it shares with the POVM,
    dense when theirs differ (``_common``). Each held block of the POVM
    reaches a set of columns of w_i (``_Sectors.reached_blocks``), outside
    which its rows are zero, and each term is taken one block at a time,
    counted by the block's multiplicity. The POVM's blocks size the run.
    """
    if N < 1 or len(povm) != N:
        raise ValueError(f"need N >= 1 and one POVM element per port, got {len(povm)} for N={N}")
    _check_factor_dims(povm, (d,) * (N + 1), "POVM element")
    check_oracle_size(d, N, steered=coefficients is not None, layout=_common(povm)[0])
    _check_psd(povm, POVM_TOL, "POVM element")
    sectors, (elements, [psi]) = _common(povm, [_input_state(d, N, coefficients)])
    rows, columns = sectors.held_entries()
    held = np.flatnonzero(psi)
    rows, (b, r), values = rows[held], np.divmod(columns[held], d), psi[held]
    del columns, psi
    terms = []
    for i in range(1, N + 1):
        # <Phi|_{R B_i}: keep r = b_i, and index the column by the other B slots
        step = d ** (N - i)
        keep = r == b // step % d
        w = (rows[keep], (b // (step * d) * step + b % step)[keep], values[keep] / math.sqrt(d))
        blocks = [block for _, block in sectors.reached_blocks(w)]
        # E_i is read here and freed with the map, before E_(i+1)
        terms += map(np.vdot, blocks, map(np.matmul, sectors.blocks(next(elements)), blocks))
    fidelity = math.fsum(np.real(terms) * np.tile(sectors.multiplicity, N))
    if not -1e-10 <= fidelity <= 1 + 1e-10:
        raise AssertionError(f"entanglement fidelity {fidelity} outside [0, 1]")
    return fidelity


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------


def eigenvalues(op: DenseOperator) -> np.ndarray:
    """The operator's eigenvalues, block by block."""
    return op._sectors.spectrum(_eigensolve(op._sectors, op._data))
