"""Shared fixtures. Oracle constructions are cached per (d, N) so that the
many cross-checks at the same desk-scale points do not rebuild PGMs."""

import itertools
import math
import os
from collections import Counter
from functools import lru_cache, reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import pbtfid.oracle as oracle_mod
from pbtfid import (
    DenseOperator,
    build_port_operator,
    build_rho,
    certificate_X,
    partition_level,
    pbt_ensemble,
    pretty_good_measurement,
    sn_character,
    specht_dim,
)
from pbtfid.partitions import Partition, check_partition, table_partitions

# tests that run `python -m pbtfid` in a subprocess import this checkout too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

# the desk-scale grid used by most formula-vs-oracle comparisons
ORACLE_GRID = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]


@lru_cache(maxsize=None)
def cached_ensemble(d, N):
    return pbt_ensemble(d, N)


@lru_cache(maxsize=None)
def cached_pgm(d, N):
    """The square-root measurement as built: the port orbit of E_1, which
    cannot be modified; ``list(...)`` gives a plain, editable copy."""
    return pretty_good_measurement(cached_ensemble(d, N))


@lru_cache(maxsize=None)
def cached_certificate_x(d, N):
    return certificate_X(d, N)


def build_eta(d, N, i, coefficients):
    """Steered discrimination state eta_i = (O x 1_B) rho_i (O x 1_B)."""
    return oracle_mod._steer(oracle_mod._lifted_port_operator(d, N, coefficients), build_rho(d, N, i))


def steered_states(d, N, coefficients):
    """[build_eta(d, N, i, coefficients) for i = 1..N], bit for bit: each
    eta_i steered from its own build_rho, with the lifted port operator
    built once instead of once per port."""
    lifted = oracle_mod._lifted_port_operator(d, N, coefficients)
    return [oracle_mod._steer(lifted, build_rho(d, N, i)) for i in range(1, N + 1)]


@pytest.fixture(scope="session")
def oracle_grid():
    return list(ORACLE_GRID)


def box_incidence(d, N):
    """The CSR reference of the box incidence: B[a, m] = 1 iff diagram m
    covers alpha a, one row per alpha with its successors ascending, and the
    diagrams of the columns. The optimizer's Perron kernels add in the order
    of B's CSR products."""
    from scipy.sparse import csr_matrix

    level = partition_level(N, d)
    succ = level.successors
    grown = succ >= 0
    indptr = np.concatenate(([0], np.cumsum(grown.sum(axis=1))))
    indices = succ[grown]  # row-major: the grown row ascends within each alpha
    B = csr_matrix(
        (np.ones(indices.size), indices, indptr),
        shape=(succ.shape[0], level.table.shape[0]),
    )
    return B, table_partitions(level.table)


# Combinatorial references: single-diagram routes to what the level tables
# index, kept to check the tables and the block values against.


class BoxRelation(NamedTuple):
    """A covering pair alpha < mu in Young's lattice: mu is alpha with one
    more box in row ``row`` (0-based)."""

    alpha: Partition
    mu: Partition
    row: int


def add_box_successors(alpha, d):
    """All diagrams mu = alpha + one box with at most ``d`` rows, ordered by
    the grown row, which is descending lexicographic order of mu."""
    alpha = check_partition(alpha)
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
        out.append(BoxRelation(alpha, mu, i))
    return tuple(out)


def remove_box_predecessors(mu):
    """All diagrams alpha = mu minus one box: rows i with mu_i > mu_{i+1}."""
    mu = check_partition(mu)
    out = []
    for i in range(len(mu)):
        if mu[i] > (mu[i + 1] if i + 1 < len(mu) else 0):
            alpha = mu[:i] + ((mu[i] - 1,) if mu[i] > 1 else ()) + mu[i + 1 :]
            out.append(BoxRelation(alpha, mu, i))
    return tuple(out)


def conjugacy_class_size(cycle_type):
    """Number of permutations in S_n with the given cycle type."""
    lam = check_partition(cycle_type)
    centraliser = 1
    for length, mult in Counter(lam).items():
        centraliser *= length**mult * math.factorial(mult)
    return math.factorial(sum(lam)) // centraliser


def permutation_cycle_type(perm):
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


@lru_cache(maxsize=1)
def _class_sums(d, n):
    """{cycle type: the sum of the permutation matrices of its permutations}
    on (C^d)^n, in integers: row r of R(pi) has its one entry at the slot
    gather of pi. That is R(pi^-1), which shares pi's cycle type, so each
    class sum is the same."""
    dim, positions = d**n, {}
    for perm in itertools.permutations(range(n)):
        row = np.arange(dim) * dim + oracle_mod.slot_gather((d,) * n, perm)
        positions.setdefault(permutation_cycle_type(perm), []).append(row)
    return {
        lam: np.bincount(np.concatenate(rows), minlength=dim * dim).reshape(dim, dim)
        for lam, rows in positions.items()
    }


def character_average(mu, d):
    """The isotypic projector of mu on (C^d)^n by character averaging,
    P_mu = (d_mu / n!) sum_pi chi_mu(pi) R(pi), one class sum per cycle
    type: the construction the oracle's spectral projectors replaced. The
    character sum is an exact integer matrix, scaled once."""
    n = sum(mu)
    acc = sum(sn_character(mu, lam) * class_sum for lam, class_sum in _class_sums(d, n).items())
    return acc * (specht_dim(mu) / math.factorial(n))


# Dense references: full-matrix constructions the oracle replaced with
# constructions from nonzero entries, kept to check those entry by entry,
# and the tensor tools the checks are written with.


def permutation_operator(perm, d):
    """Matrix moving the content of slot k to slot perm[k] on (C^d)^(len perm)."""
    n = len(perm)
    return np.eye(d**n)[oracle_mod.slot_gather((d,) * n, np.argsort(perm))]


def partial_trace(op, traced):
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
    return DenseOperator(result.reshape(kept_dim, kept_dim), tuple(dims[k] for k in keep))


def partial_trace_first(op):
    """Trace over the first tensor factor."""
    if len(op.factor_dims) < 2:
        raise ValueError("partial_trace_first needs at least two tensor factors")
    return partial_trace(op, [0])


def maximally_entangled_vector(d):
    """(1/sqrt d) sum_i |ii> as a flat vector on two slots."""
    return (np.eye(d) / math.sqrt(d)).reshape(-1)


def maximally_entangled(d):
    """Rank-1 projector onto the canonical maximally entangled pair."""
    if d < 1:
        raise ValueError("d must be positive")
    v = maximally_entangled_vector(d)
    return DenseOperator(np.outer(v, v.conj()), (d, d))


def haar_unitary(d, rng):
    """Haar-distributed unitary from the QR factorisation of a complex Gaussian."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def reorder_factors(matrix, dims, new_order):
    """Reorder tensor slots; ``new_order[j]`` is the old slot at new position j."""
    g = oracle_mod.slot_gather(dims, new_order)
    return matrix.take(g, axis=0).take(g, axis=1)


def embed_operator(matrix, slots, dims):
    """Lift an operator acting on ``slots`` (in that order) to the full space."""
    others = [k for k in range(len(dims)) if k not in slots]
    combined = np.kron(matrix, np.eye(math.prod(dims[k] for k in others)))
    order = list(slots) + others
    inverse = [order.index(j) for j in range(len(dims))]
    return reorder_factors(combined, tuple(dims[k] for k in order), inverse)


def dense_rho(d, N, i):
    """rho_i as a full matrix: the pair's projector scaled by 1/d^(N-1) and
    embedded on (A_i, B) by kron and slot gathers."""
    dims = (d,) * (N + 1)
    pair = maximally_entangled(d).matrix * (1 / d ** (N - 1))
    return DenseOperator(embed_operator(pair, [i - 1, N], dims), dims)


def port_state_vector(d, N, coefficients):
    """Pure port state on slots A_1..A_N, B_1..B_N: N maximally entangled
    pairs, steered by O built from the coefficients unless they are None."""
    pair = maximally_entangled_vector(d)
    vec = reduce(np.kron, [pair] * N)
    # kron order is A_1 B_1 A_2 B_2 ...; regroup to A_1..A_N B_1..B_N
    order = list(range(0, 2 * N, 2)) + list(range(1, 2 * N, 2))
    vec = vec[oracle_mod.slot_gather((d,) * (2 * N), order)]
    if coefficients is not None:
        port_op = build_port_operator(d, N, coefficients).matrix
        vec = (port_op @ vec.reshape(d**N, -1)).reshape(-1)
    return vec


def dense_input_state(d, N, coefficients=None):
    """The channel's input state psi as a full matrix: protocol slots
    A_0..A_N as rows, R, B_1..B_N as columns."""
    dims = (d,) * (2 * N + 2)
    psi = np.kron(maximally_entangled_vector(d), port_state_vector(d, N, coefficients))
    # kron order is A_0, R, A_1..A_N, B_1..B_N
    order = [0] + list(range(2, N + 2)) + [1] + list(range(N + 2, 2 * N + 2))
    return psi[oracle_mod.slot_gather(dims, order)].reshape(d ** (N + 1), -1)
