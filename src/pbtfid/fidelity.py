"""Closed-form teleportation fidelities and port-state optimization.

Two numeric modes back every evaluation:

* ``exact-hybrid`` (default for N up to PBT_EXACT_THRESHOLD, 40): Specht and
  Weyl dimensions are exact integers, square roots and sums are taken with
  mpmath at 50 decimal digits, and the final value is rounded once to a
  double.
* ``log-domain``: everything is carried as logarithms in float64 with
  log-sum-exp aggregation, which keeps scans to N ~ 10^3 fast and overflow
  free.

Summations always iterate partitions in the canonical descending
lexicographic order, so results do not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import mpmath
import numpy as np
from scipy.special import gammaln

from .config import env_positive_int
from .partitions import (
    Partition,
    add_box_successors,
    check_partition,
    enumerate_partitions,
    log_specht_dim,
    log_weyl_dim,
    partition_level,
    specht_dim,
    table_partitions,
    weyl_dim,
)

EXACT_THRESHOLD_ENV = "PBT_EXACT_THRESHOLD"
DEFAULT_EXACT_THRESHOLD = 40
MP_DPS = 50  # ~166-bit mantissa for the exact-hybrid surd sums

EXACT_MODE = "exact-hybrid"
LOG_MODE = "log-domain"

DENSE_EIGEN_LIMIT = 2000
DEGENERACY_RTOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-12
POWER_TOL = 1e-13


def exact_threshold() -> int:
    """Largest N evaluated in exact-hybrid mode (env PBT_EXACT_THRESHOLD)."""
    return env_positive_int(EXACT_THRESHOLD_ENV, DEFAULT_EXACT_THRESHOLD)


def _resolve_mode(N: int, numeric_mode: str) -> str:
    if numeric_mode == "auto":
        return EXACT_MODE if N <= exact_threshold() else LOG_MODE
    if numeric_mode in (EXACT_MODE, LOG_MODE):
        return numeric_mode
    raise ValueError(f"unknown numeric mode {numeric_mode!r}")


def _check_dn(d: int, N: int) -> None:
    if d < 1:
        raise ValueError("local dimension d must be >= 1")
    if N < 1:
        raise ValueError("port count N must be >= 1")


# ---------------------------------------------------------------------------
# Port coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortCoefficients:
    """Nonnegative block weights c_mu of a symmetric port state.

    A valid assignment satisfies  sum_mu c_mu * d_mu * m_{d,mu} = d**N,
    with d_mu / m_{d,mu} the Specht / Weyl dimensions. Diagrams missing
    from ``entries`` carry weight zero, which simply drops them from every
    downstream sum.
    """

    d: int
    N: int
    entries: Mapping[Partition, float]

    @classmethod
    def uniform(cls, d: int, N: int) -> "PortCoefficients":
        """c_mu = 1 for every diagram: the maximally entangled port state."""
        _check_dn(d, N)
        return cls(d, N, {mu: 1.0 for mu in enumerate_partitions(N, d)})

    @classmethod
    def from_mapping(
        cls, d: int, N: int, entries: Mapping[Sequence[int], float]
    ) -> "PortCoefficients":
        _check_dn(d, N)
        allowed = set(enumerate_partitions(N, d))
        clean: dict[Partition, float] = {}
        for raw_mu, c in entries.items():
            mu = check_partition(raw_mu)
            if mu not in allowed:
                raise ValueError(
                    f"{mu} is not a partition of {N} into at most {d} rows"
                )
            if c < 0:
                raise ValueError(f"negative coefficient {c!r} for {mu}")
            clean[mu] = float(c)
        return cls(d, N, clean)

    def value(self, mu: Partition) -> float:
        return float(self.entries.get(tuple(mu), 0.0))

    def constraint_residual(self) -> float:
        """Relative deviation of sum c*d_mu*m_mu from d**N."""
        if self.N <= exact_threshold():
            total = math.fsum(
                c * specht_dim(mu) * weyl_dim(mu, self.d)
                for mu, c in sorted(self.entries.items(), reverse=True)
                if c > 0
            )
            return abs(total / self.d**self.N - 1.0)
        logs = [
            math.log(c) + log_specht_dim(mu) + log_weyl_dim(mu, self.d)
            for mu, c in sorted(self.entries.items(), reverse=True)
            if c > 0
        ]
        if not logs:
            return 1.0
        return abs(math.exp(_logsumexp(logs) - self.N * math.log(self.d)) - 1.0)

    def validate(self, rtol: float = 1e-12) -> None:
        if any(c < 0 for c in self.entries.values()):
            raise ValueError("port coefficients must be nonnegative")
        residual = self.constraint_residual()
        if residual > rtol:
            raise ValueError(
                f"port coefficients violate the normalisation "
                f"sum c*d_mu*m_mu = d**N (relative residual {residual:.3e})"
            )


def _logsumexp(values: Iterable[float]) -> float:
    vals = [v for v in values if v != -math.inf]
    if not vals:
        return -math.inf
    top = max(vals)
    return top + math.log(math.fsum(math.exp(v - top) for v in vals))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    """Diagnostics of the principal-eigenvalue solve behind an optimized run."""

    principal_eigenvalue: float
    iterations: int
    residual: float


@dataclass(frozen=True)
class FidelityReport:
    """One evaluated protocol point.

    ``success_probability`` is always fidelity * d^2 / N, the discrimination
    success probability of the equivalent state-identification task.
    """

    d: int
    N: int
    mode: str  # standard | given-coefficients | optimized
    fidelity: float
    success_probability: float
    numeric_mode: str
    coefficients: PortCoefficients | None = None
    eigen_data: EigenData | None = None
    degenerate: bool = False


def _make_report(d, N, mode, fidelity, numeric_mode, **kw) -> FidelityReport:
    if not -1e-12 <= fidelity <= 1 + 1e-12:
        raise AssertionError(f"fidelity {fidelity} outside [0, 1]")
    fidelity = min(max(fidelity, 0.0), 1.0)
    return FidelityReport(
        d=d,
        N=N,
        mode=mode,
        fidelity=fidelity,
        success_probability=fidelity * d * d / N,
        numeric_mode=numeric_mode,
        **kw,
    )


# ---------------------------------------------------------------------------
# Block eigenvalues r, x, y
# ---------------------------------------------------------------------------


def _require_box_pair(d: int, N: int, mu, alpha) -> tuple[Partition, Partition]:
    _check_dn(d, N)
    mu = check_partition(mu)
    alpha = check_partition(alpha)
    if sum(alpha) != N - 1:
        raise ValueError(f"alpha must be a partition of N-1 = {N - 1}, got {alpha}")
    if sum(mu) != N:
        raise ValueError(f"mu must be a partition of N = {N}, got {mu}")
    if len(alpha) > d or len(mu) > d:
        raise ValueError(f"row bound d = {d} exceeded")
    if not any(rel.mu == mu for rel in add_box_successors(alpha, d)):
        raise ValueError(f"{mu} is not {alpha} plus a single box")
    return mu, alpha


def avg_state_eigenvalue(d: int, N: int, mu, alpha) -> Fraction:
    """Eigenvalue of the unnormalised average input state on block (alpha, mu).

    r = (N / d^N) * m_mu * d_alpha / (m_alpha * d_mu), exact.
    """
    mu, alpha = _require_box_pair(d, N, mu, alpha)
    return Fraction(
        N * weyl_dim(mu, d) * specht_dim(alpha),
        d**N * weyl_dim(alpha, d) * specht_dim(mu),
    )


def pgm_block_coefficient(d: int, N: int, mu, alpha) -> float:
    """Block eigenvalue of the square-root-measurement certificate operator.

    x = (1/d^N) * sqrt(m_mu/d_mu) * (1/m_alpha) * sum_{mu'} sqrt(d_mu' m_mu'),
    summing over all one-box extensions mu' of alpha.
    """
    mu, alpha = _require_box_pair(d, N, mu, alpha)
    with mpmath.workdps(MP_DPS):
        surd_sum = mpmath.fsum(
            mpmath.sqrt(specht_dim(rel.mu) * weyl_dim(rel.mu, d))
            for rel in add_box_successors(alpha, d)
        )
        val = (
            mpmath.sqrt(weyl_dim(mu, d))
            / mpmath.sqrt(specht_dim(mu))
            / weyl_dim(alpha, d)
            / mpmath.mpf(d) ** N
            * surd_sum
        )
        return float(val)


def opt_block_coefficient(
    d: int, N: int, mu, alpha, coefficients: PortCoefficients
) -> float:
    """Block eigenvalue of the certificate operator for a steered port state.

    y = (1/d^N) * (1/(m_alpha d_mu)) * sqrt(c_mu m_mu d_mu)
        * sum_{mu'} sqrt(c_mu' m_mu' d_mu').
    """
    mu, alpha = _require_box_pair(d, N, mu, alpha)
    coefficients.validate()
    with mpmath.workdps(MP_DPS):
        surd_sum = mpmath.fsum(
            mpmath.sqrt(
                mpmath.mpf(coefficients.value(rel.mu))
                * specht_dim(rel.mu)
                * weyl_dim(rel.mu, d)
            )
            for rel in add_box_successors(alpha, d)
        )
        val = (
            mpmath.sqrt(
                mpmath.mpf(coefficients.value(mu)) * specht_dim(mu) * weyl_dim(mu, d)
            )
            * surd_sum
            / (weyl_dim(alpha, d) * specht_dim(mu))
            / mpmath.mpf(d) ** N
        )
        return float(val)


@dataclass(frozen=True)
class BlockValue:
    """One (alpha, mu) block: its eigenvalue and dimension m_alpha * d_mu."""

    alpha: Partition
    mu: Partition
    value: float
    multiplicity: int


def block_spectrum(
    d: int, N: int, operator: str = "avg", coefficients: PortCoefficients | None = None
) -> list[BlockValue]:
    """Per-block eigenvalues of the average state ("avg") or a certificate
    operator ("X", "Y"), in canonical partition order."""
    _check_dn(d, N)
    if operator not in ("avg", "X", "Y"):
        raise ValueError(f"unknown operator {operator!r}")
    if operator == "Y":
        if coefficients is None:
            raise ValueError("operator Y needs port coefficients")
        coefficients.validate()
    rows = []
    for alpha in enumerate_partitions(N - 1, d):
        for rel in add_box_successors(alpha, d):
            if operator == "avg":
                value = float(avg_state_eigenvalue(d, N, rel.mu, alpha))
            elif operator == "X":
                value = pgm_block_coefficient(d, N, rel.mu, alpha)
            else:
                value = opt_block_coefficient(d, N, rel.mu, alpha, coefficients)
            mult = weyl_dim(alpha, d) * specht_dim(rel.mu)
            rows.append(BlockValue(alpha, rel.mu, value, mult))
    return rows


# ---------------------------------------------------------------------------
# Fidelity formulas
# ---------------------------------------------------------------------------


def _fidelity_exact(d: int, N: int, coefficients: PortCoefficients | None) -> float:
    with mpmath.workdps(MP_DPS):
        outer = []
        for alpha in enumerate_partitions(N - 1, d):
            inner = []
            for rel in add_box_successors(alpha, d):
                weight = specht_dim(rel.mu) * weyl_dim(rel.mu, d)
                if coefficients is None:
                    inner.append(mpmath.sqrt(weight))
                else:
                    c = coefficients.value(rel.mu)
                    if c > 0:
                        inner.append(mpmath.sqrt(mpmath.mpf(c) * weight))
            s = mpmath.fsum(inner)
            outer.append(s * s)
        total = mpmath.fsum(outer) / mpmath.mpf(d) ** (N + 2)
        return float(total)


def _log_specht_vec(mat: np.ndarray, n: int) -> np.ndarray:
    K, d = mat.shape
    ell = mat + (d - 1 - np.arange(d))[None, :]
    val = np.full(K, math.lgamma(n + 1))
    for i in range(d):
        for j in range(i + 1, d):
            val += np.log(ell[:, i] - ell[:, j])
        val -= gammaln(ell[:, i] + 1)
    return val


def _log_weyl_vec(mat: np.ndarray) -> np.ndarray:
    K, d = mat.shape
    val = np.zeros(K)
    for i in range(d):
        for j in range(i + 1, d):
            val += np.log(mat[:, i] - mat[:, j] + (j - i)) - math.log(j - i)
    return val


def _fidelity_log(d: int, N: int, coefficients: PortCoefficients | None) -> float:
    level = partition_level(N, d)
    mus = level.table
    half_log = 0.5 * (_log_specht_vec(mus, N) + _log_weyl_vec(mus))
    if coefficients is not None:
        log_c = np.array(
            [
                math.log(c) if (c := coefficients.value(mu)) > 0 else -np.inf
                for mu in table_partitions(mus)
            ]
        )
        half_log = half_log + 0.5 * log_c
    # terms[a, i]: half log-weight of alpha_a plus a box in row i
    succ = level.successors
    terms = np.where(succ >= 0, half_log[succ], -np.inf)
    peak = terms.max(axis=1)
    live = peak > -np.inf
    inner = peak[live] + np.log(
        np.exp(terms[live] - peak[live, None]).sum(axis=1)
    )
    if inner.size == 0:
        return 0.0
    doubled = 2.0 * inner
    top = doubled.max()
    log_f = top + math.log(np.exp(doubled - top).sum()) - (N + 2) * math.log(d)
    return float(math.exp(log_f))


def fidelity_standard(d: int, N: int, numeric_mode: str = "auto") -> FidelityReport:
    """Entanglement fidelity of the protocol on N maximally entangled ports.

    F = d^-(N+2) * sum_alpha ( sum_{mu = alpha+box} sqrt(d_mu m_mu) )^2.
    """
    _check_dn(d, N)
    mode = _resolve_mode(N, numeric_mode)
    if mode == EXACT_MODE:
        f = _fidelity_exact(d, N, None)
    else:
        f = _fidelity_log(d, N, None)
    return _make_report(d, N, "standard", f, mode)


def fidelity_given_coefficients(
    d: int, N: int, coefficients: PortCoefficients, numeric_mode: str = "auto"
) -> FidelityReport:
    """Fidelity of the protocol with a fixed, explicitly supplied port state."""
    _check_dn(d, N)
    if (coefficients.d, coefficients.N) != (d, N):
        raise ValueError(
            f"coefficients are for (d, N) = ({coefficients.d}, {coefficients.N})"
        )
    coefficients.validate()
    mode = _resolve_mode(N, numeric_mode)
    if mode == EXACT_MODE:
        f = _fidelity_exact(d, N, coefficients)
    else:
        f = _fidelity_log(d, N, coefficients)
    return _make_report(
        d, N, "given-coefficients", f, mode, coefficients=coefficients
    )


# ---------------------------------------------------------------------------
# Optimized protocol (principal eigenvalue of the box-incidence matrix)
# ---------------------------------------------------------------------------


def box_incidence(d: int, N: int):
    """Sparse 0/1 incidence B with B[a, m] = 1 iff partition m covers alpha a.

    The optimization objective is u^T (B^T B) u; entry (mu, nu) of B^T B
    counts the common one-box-removed predecessors of mu and nu.
    """
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


def _power_iteration(matvec, dim: int, tol: float = POWER_TOL, max_iter: int = 500_000):
    """Plain power iteration from the all-ones start; keeps the iterate in the
    nonnegative cone, so under degeneracy it lands on the entrywise-nonnegative
    vector of the top eigenspace."""
    v = np.ones(dim) / math.sqrt(dim)
    lam = 0.0
    for it in range(1, max_iter + 1):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, v, it
        v = w / norm
        new_lam = float(v @ matvec(v))
        if it > 2 and abs(new_lam - lam) <= tol * max(abs(new_lam), 1.0):
            resid = np.linalg.norm(matvec(v) - new_lam * v)
            if resid <= EIGEN_RESIDUAL_TOL * max(abs(new_lam), 1.0):
                return new_lam, v, it
        lam = new_lam
    raise RuntimeError("power iteration failed to converge")


def _principal_eigenpair(B, n_mu: int):
    """Largest eigenpair of M = B^T B with an entrywise-nonnegative vector.

    Returns (eigenvalue, unit vector, iterations, residual, degenerate).
    """
    matvec = lambda v: B.T @ (B @ v)  # noqa: E731
    degenerate = False
    if n_mu <= DENSE_EIGEN_LIMIT:
        dense = (B.T @ B).toarray()
        eigvals, eigvecs = np.linalg.eigh(dense)
        lam = float(eigvals[-1])
        gap_ok = n_mu == 1 or (eigvals[-1] - eigvals[-2]) > DEGENERACY_RTOL * max(
            abs(lam), 1.0
        )
        if gap_ok:
            u = eigvecs[:, -1]
            iterations = 0
            if u.sum() < 0:
                u = -u
        else:
            degenerate = True
            lam, u, iterations = _power_iteration(matvec, n_mu)
    else:
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((n_mu, n_mu), matvec=matvec, dtype=float)
        v0 = np.ones(n_mu)
        eigvals, eigvecs = eigsh(op, k=2, which="LA", v0=v0, tol=POWER_TOL)
        order = np.argsort(eigvals)
        lam = float(eigvals[order[-1]])
        if (eigvals[order[-1]] - eigvals[order[-2]]) <= DEGENERACY_RTOL * max(
            abs(lam), 1.0
        ):
            degenerate = True
            lam, u, iterations = _power_iteration(matvec, n_mu)
        else:
            u = eigvecs[:, order[-1]]
            iterations = 0
            if u.sum() < 0:
                u = -u
    floor = float(u.min())
    if floor < -1e-12:
        raise AssertionError(
            f"principal eigenvector is not entrywise nonnegative (min {floor:.3e})"
        )
    u = np.clip(u, 0.0, None)
    u = u / np.linalg.norm(u)
    residual = float(np.linalg.norm(matvec(u) - lam * u))
    return lam, u, iterations, residual, degenerate


def optimize_coefficients(d: int, N: int, numeric_mode: str = "auto") -> FidelityReport:
    """Best fidelity over all symmetric port states.

    Substituting u_mu = sqrt(c_mu d_mu m_mu) turns the constrained maximisation
    into the principal-eigenvalue problem of the nonnegative matrix B^T B, so
    F* = lambda_max / d^2 and the optimal weights come from the Perron vector.
    """
    _check_dn(d, N)
    mode = _resolve_mode(N, numeric_mode)
    B, mus = box_incidence(d, N)
    lam, u, iterations, residual, degenerate = _principal_eigenpair(B, len(mus))
    if residual > EIGEN_RESIDUAL_TOL * max(lam, 1.0):
        raise AssertionError(f"eigen residual {residual:.3e} above tolerance")
    log_d = math.log(d)
    entries: dict[Partition, float] = {}
    for i, mu in enumerate(mus):
        if u[i] <= 0.0:
            entries[mu] = 0.0
            continue
        if mode == EXACT_MODE:
            log_dims = math.log(specht_dim(mu)) + math.log(weyl_dim(mu, d))
        else:
            log_dims = log_specht_dim(mu) + log_weyl_dim(mu, d)
        log_c = N * log_d + 2.0 * math.log(float(u[i])) - log_dims
        try:
            entries[mu] = math.exp(log_c)
        except OverflowError:
            entries[mu] = math.inf
    coefficients = PortCoefficients(d, N, entries)
    f = lam / (d * d)
    return _make_report(
        d,
        N,
        "optimized",
        f,
        mode,
        coefficients=coefficients,
        eigen_data=EigenData(lam, iterations, residual),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Bounds, asymptotics, scans
# ---------------------------------------------------------------------------


def asymptote_standard(d: int, N: int) -> float:
    """Leading asymptotic value 1 - (d^2 - 1) / (4N)."""
    _check_dn(d, N)
    return 1.0 - (d * d - 1.0) / (4.0 * N)


def lower_bound_standard(d: int, N: int) -> float:
    """Guaranteed lower bound max(0, 1 - (d^2 - 1) / N)."""
    _check_dn(d, N)
    return max(0.0, 1.0 - (d * d - 1.0) / N)


def scan(d: int, n_values: Iterable[int], mode: str = "standard") -> list[FidelityReport]:
    """Evaluate one report per N; the numeric mode is selected per point."""
    values = list(n_values)
    if not values:
        raise ValueError("N range must be nonempty")
    if mode == "standard":
        return [fidelity_standard(d, n) for n in values]
    if mode == "optimized":
        return [optimize_coefficients(d, n) for n in values]
    raise ValueError(f"unknown scan mode {mode!r}")
