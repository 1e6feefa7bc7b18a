"""Formula-vs-oracle comparison: the one module that reads both sides.

``pbtfid.oracle`` builds every operator from first principles and imports
nothing from the formula side but the ``PortCoefficients`` data it is
handed. This module sets the two against each other: the closed-form
fidelity against the oracle's measured success probability, and the block
tables of ``block_spectrum`` against the spectra of the oracle's operators
(``block_spectrum_match``), next to the oracle's own weak-duality audit. The
oracle is reached through its module, ``oracle.<name>``, so that a
replacement bound on the module is the one called.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .fidelity import PortCoefficients, block_spectrum, fidelity_given_coefficients, fidelity_standard


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float


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


def match_block_spectrum(op: oracle.DenseOperator, blocks) -> float:
    """Largest deviation between the operator's spectrum and the block
    multiset (``block_spectrum_match``)."""
    return _deviation(*block_spectrum_match(oracle.eigenvalues(op), blocks))


def run_verification(d: int, N: int, coefficients: PortCoefficients | None = None) -> list[CheckResult]:
    """Formula-vs-oracle comparison, spectrum matching, and dual certificates.

    Without coefficients the protocol is the standard one and the
    certificate is X/N against the rho ensemble; with coefficients (given,
    or the optimal ones of an optimized run) it is Y/N against the eta
    ensemble, measured with the square-root measurement of the *unsteered*
    states. The states, the measurement and the certificate are each built
    once, and the success probability is the one ``certify_optimality``
    measures.
    """
    oracle.check_oracle_size(d, N, steered=coefficients is not None)
    checks: list[CheckResult] = []

    def record(name, deviation, tolerance):
        checks.append(CheckResult(name, deviation <= tolerance, deviation, tolerance))

    rho_ens = oracle.pbt_ensemble(d, N)
    povm = oracle.pretty_good_measurement(rho_ens)
    if coefficients is None:
        formula = fidelity_standard(d, N).fidelity
        ens = rho_ens
        cert_blocks = block_spectrum(d, N, "X")
    else:
        formula = fidelity_given_coefficients(d, N, coefficients).fidelity
        ens = oracle.Ensemble(oracle._steered_states(d, N, coefficients, rho_ens), rho_ens.probs)
        cert_blocks = block_spectrum(d, N, "Y", coefficients)
    # the measurement decomposed the average over N; the blocks are of the sum
    avg = block_spectrum_match(N * rho_ens._average_decomposition[2], block_spectrum(d, N, "avg"))
    cert = oracle.certificate(ens.states, povm)
    cert_deviation = match_block_spectrum(cert, cert_blocks)
    # K = cert / N in place of cert, which is not read again
    K = cert._sectors.operator(np.divide(cert._data, N, out=cert._data))
    report = oracle.certify_optimality(ens, povm, K)

    record("formula_vs_oracle", abs(formula - report.success_probability * N / d**2), 1e-9)
    record("avg_state_spectrum", _deviation(*avg), 1e-9)
    record("certificate_spectrum", cert_deviation, 1e-9)
    record("dual_feasibility", max(0.0, -report.feasibility), 1e-9)
    record("duality_gap", abs(report.gap), 1e-8)
    return checks
