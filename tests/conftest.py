"""Shared fixtures. Oracle constructions are cached per (d, N) so that the
many cross-checks at the same desk-scale points do not rebuild PGMs."""

import math
import os
from functools import lru_cache, reduce
from pathlib import Path

import numpy as np
import pytest

import pbtfid.oracle as oracle_mod
from pbtfid import (
    DenseOperator,
    build_port_operator,
    build_rho,
    certificate_X,
    maximally_entangled,
    maximally_entangled_vector,
    partition_level,
    pbt_ensemble,
    pretty_good_measurement,
)
from pbtfid.partitions import table_partitions

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


# Dense references: full-matrix constructions the oracle replaced with
# constructions from nonzero entries, kept to check those entry by entry.


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
