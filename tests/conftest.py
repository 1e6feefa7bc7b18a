"""Shared fixtures. Oracle constructions are cached per (d, N) so that the
many cross-checks at the same desk-scale points do not rebuild PGMs."""

import os
from functools import lru_cache
from pathlib import Path

import pytest

import pbtfid.oracle as oracle_mod
from pbtfid import build_rho, certificate_X, pbt_ensemble, pretty_good_measurement

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
