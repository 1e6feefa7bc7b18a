"""Closed-form teleportation fidelities and port-state optimization.

N alone picks the numeric route of every evaluation:

* ``exact-hybrid`` for N up to EXACT_THRESHOLD (40): Specht and Weyl
  dimensions are exact integers, square roots and sums are taken in the
  stdlib ``decimal`` at 50 significant digits (correctly rounded square
  roots, in C), and the final value is rounded once to a double.
* ``log-domain`` above it: everything is carried as logarithms in float64
  with log-sum-exp aggregation, which keeps scans to N ~ 10^3 fast and
  overflow free.

Every formula is a sum over the one-box edges alpha -> mu = alpha + box of
Young's lattice, and every whole-level sum walks the successor index of
``partition_level(N, d)``: alphas in its canonical descending lexicographic
order, each alpha's covers in grown-row order, so results do not depend on
scheduling. The exact-hybrid F and the block spectra form each mu's surd
sqrt(c_mu d_mu m_mu) once and each alpha's surd sum once.

Port weights c_mu are a ``PortCoefficients``: one read-only weight per row
of the level table, checked once when built (finite, nonnegative, and
sum c_mu d_mu m_mu = d^N, summed exactly up to EXACT_THRESHOLD and as
one log-sum-exp of the level's log-dimensions above it). The sums read the
weights as that array and check nothing again.

The log-domain sums read ln Gamma and ln at integers from tables, and take
both log-dimensions of a level in one pass over its diagram rows, each
ln(mu_i - mu_j + j - i) gathered once for the Specht and the Weyl sum.
ln Gamma is filled by a port of cephes' ``lgam``, the routine behind
``scipy.special.gammaln``, which it equals bit for bit, so scipy is not
imported for it. The optimizer forms B^T B and its matvec from the
successor index of the partition level with numpy; only the iterative
eigensolver above DENSE_EIGEN_LIMIT imports scipy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .config import SizeCapError
from .partitions import (
    Partition,
    PartitionLevel,
    log_specht_row,
    log_weyl_row,
    partition_level,
    table_partitions,
    weyl_dim,
)

EXACT_THRESHOLD = 40  # largest N evaluated exact-hybrid; log-domain above it
MP_DPS = 50  # significant digits of the exact-hybrid surd sums
_EXACT_CONTEXT = Context(prec=MP_DPS)  # the sums run in copies, never the caller's

EXACT_MODE = "exact-hybrid"
LOG_MODE = "log-domain"

DENSE_EIGEN_LIMIT = 2000
DEGENERACY_RTOL = 1e-10
EIGEN_RESIDUAL_TOL = 1e-12
EIGSH_TOL = 1e-13
NORMALISATION_RTOL = 1e-12  # PortCoefficients on sum c*d_mu*m_mu = d**N


def _check_dn(d: int, N: int) -> None:
    if d < 1:
        raise ValueError("local dimension d must be >= 1")
    if N < 1:
        raise ValueError("port count N must be >= 1")


# ---------------------------------------------------------------------------
# Port coefficients
# ---------------------------------------------------------------------------


def _checked_weights(d: int, N: int, weights) -> np.ndarray:
    """A read-only float64 copy of ``weights``, refused unless it holds one
    finite, nonnegative weight per diagram of ``partition_level(N, d)``."""
    _check_dn(d, N)
    table = partition_level(N, d).table
    weights = np.array(weights, dtype=np.float64)
    if weights.shape != (table.shape[0],):
        raise ValueError(f"expected {table.shape[0]} weights, one per diagram, got shape {weights.shape}")
    for m in np.flatnonzero(~np.isfinite(weights) | (weights < 0))[:1]:
        c, mu = float(weights[m]), table_partitions(table[m : m + 1])[0]
        raise ValueError(f"{'non-finite' if not math.isfinite(c) else 'negative'} coefficient {c!r} for {mu}")
    weights.flags.writeable = False
    return weights


def _normalisation_ratio(d: int, N: int, weights: np.ndarray) -> float:
    """sum c*d_mu*m_mu / d**N over the level, which a valid assignment sets
    to 1: summed exactly in rationals up to EXACT_THRESHOLD (the ratio is
    at most the largest c, so only an intermediate could overflow a float),
    as one log-sum-exp of the level's log-dimensions above it."""
    level = partition_level(N, d)
    if N <= EXACT_THRESHOLD:
        dims = zip(weights.tolist(), level.specht, level.weyl)
        total = sum(Fraction(c) * s * w for c, s, w in dims if c > 0)
        return float(total / d**N)
    live = np.flatnonzero(weights > 0)
    if live.size == 0:
        return 0.0
    specht, weyl = _log_dims(level.table[live], N)
    logs = np.log(weights[live]) + specht + weyl
    top = logs.max()
    return math.exp(top + math.log(np.exp(logs - top).sum()) - N * math.log(d))


@dataclass(frozen=True, eq=False)
class PortCoefficients:
    """Nonnegative block weights c_mu of a symmetric port state.

    ``weights`` is a read-only float64 array with one c_mu per row of
    ``partition_level(N, d).table``, in its order. Every instance is checked
    once, when it is built: the weights are finite and nonnegative and
    satisfy  sum_mu c_mu * d_mu * m_{d,mu} = d**N  to NORMALISATION_RTOL,
    with d_mu / m_{d,mu} the Specht / Weyl dimensions. A diagram of weight
    zero drops out of every sum. ``from_mapping`` builds one from a map
    {diagram: c}; ``items`` reads it back by diagram.
    """

    d: int
    N: int
    weights: np.ndarray

    def __post_init__(self) -> None:
        weights = _checked_weights(self.d, self.N, self.weights)
        object.__setattr__(self, "weights", weights)
        residual = abs(_normalisation_ratio(self.d, self.N, weights) - 1.0)
        if residual > NORMALISATION_RTOL:
            raise ValueError(
                f"port coefficients violate the normalisation "
                f"sum c*d_mu*m_mu = d**N (relative residual {residual:.3e})"
            )

    @classmethod
    def from_mapping(
        cls, d: int, N: int, entries: Mapping[Sequence[int], float], renormalize: bool = False
    ) -> "PortCoefficients":
        """The coefficients of a map {diagram: c}, diagrams missing from it at
        weight zero. Each key must be a partition of N into at most d rows.
        With ``renormalize`` the weights are first rescaled onto
        sum c*d_mu*m_mu = d**N."""
        _check_dn(d, N)
        rows = {mu: m for m, mu in enumerate(table_partitions(partition_level(N, d).table))}
        weights = np.zeros(len(rows))
        for raw_mu, c in entries.items():
            mu = tuple(raw_mu)
            if mu not in rows:
                raise ValueError(f"{mu} is not a partition of {N} into at most {d} rows")
            try:
                weights[rows[mu]] = float(c)
            except OverflowError as exc:
                raise ValueError(f"coefficient for {mu} overflows float64") from exc
        if renormalize:
            weights = _checked_weights(d, N, weights)
            ratio = _normalisation_ratio(d, N, weights)
            if not ratio > 0:
                raise ValueError("all coefficients are zero")
            weights = weights / ratio
        return cls(d, N, weights)

    def items(self) -> Iterator[tuple[Partition, float]]:
        """(mu, c_mu) for every diagram, in level-table order."""
        return zip(table_partitions(partition_level(self.N, self.d).table), self.weights.tolist())


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenData:
    """Diagnostics of the principal-eigenvalue solve behind an optimized run."""

    principal_eigenvalue: float
    iterations: int  # always 0: each eigensolver is one library call
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


def _check_same_point(d: int, N: int, coefficients: PortCoefficients | None) -> None:
    """Refuse coefficients for another (d, N)."""
    if coefficients is not None and (coefficients.d, coefficients.N) != (d, N):
        raise ValueError(
            f"coefficients are for (d, N) = ({coefficients.d}, {coefficients.N})"
        )


def _surds(level: PartitionLevel, weights: Sequence[float]) -> list[Decimal]:
    """sqrt(c_mu d_mu m_mu) for each diagram of the level, in the current
    decimal context. The double c and the integer d_mu m_mu convert exactly,
    so c * (d_mu m_mu) rounds at most once; c = 0 gives a surd of 0."""
    return [(Decimal(c) * (s * w)).sqrt() for s, w, c in zip(level.specht, level.weyl, weights)]


def _surd_sums(successors: np.ndarray, surds: list[Decimal]) -> list[Decimal]:
    """S_alpha, the sum of the surds of alpha's covers in grown-row order,
    for each row alpha of a successor table (-1 for no cover)."""
    return [sum([surds[m] for m in row if m >= 0]) for row in successors.tolist()]


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
    operator ("X", "Y"), in canonical partition order: alphas in table order,
    each alpha's covers in grown-row order. Walks the successor index of
    ``partition_level(N, d)``; each surd and each surd sum is formed once.
    Port coefficients are taken by "Y" alone, and refused for the others.
    A value that is positive but below the smallest normal double raises
    SizeCapError naming the first such block; an exact zero (Y with
    c_mu = 0) is kept.

    The avg value of the edge adding a box to row i of alpha is
    (d + alpha_i - i) / d^N, d plus the box's content, rounded once: the
    rational (N / d^N) m_mu d_alpha / (m_alpha d_mu), since m_mu / m_alpha = R
    and d_mu / d_alpha = N R / (d + alpha_i - i), R = prod_{j != i} (l_i + 1 -
    l_j) / (l_i - l_j) over l_j = alpha_j + d - 1 - j."""
    _check_dn(d, N)
    if operator not in ("avg", "X", "Y"):
        raise ValueError(f"unknown operator {operator!r}")
    if operator == "Y":
        if coefficients is None:
            raise ValueError("operator Y needs port coefficients")
        _check_same_point(d, N, coefficients)
    elif coefficients is not None:
        raise ValueError(f"operator {operator} takes no port coefficients")
    level = partition_level(N, d)
    mus, specht = table_partitions(level.table), level.specht
    # every alpha grows in row 0: alpha is that cover less its first-row box
    alpha_table = level.table[level.successors[:, 0]]
    alpha_table[:, 0] -= 1
    alphas = table_partitions(alpha_table)
    rows, scale = [], d**N
    with localcontext(_EXACT_CONTEXT):
        if operator != "avg":
            weights = [1.0] * len(mus) if operator == "X" else coefficients.weights.tolist()
            surds = _surds(level, weights)
            sums = _surd_sums(level.successors, surds)
        edges = zip(alphas, alpha_table.tolist(), level.successors.tolist())
        for a, (alpha, alpha_rows, covers) in enumerate(edges):
            m_alpha = weyl_dim(alpha, d)
            for i, m in enumerate(covers):
                if m < 0:
                    continue
                mu, d_mu = mus[m], specht[m]
                if operator == "avg":
                    exact = Fraction(d + alpha_rows[i] - i, scale)  # d + the box's content
                else:
                    # (1/d^N) surd_mu S_alpha / (m_alpha d_mu), one division
                    exact = surds[m] * sums[a] / (m_alpha * d_mu * scale)
                value = float(exact)
                if exact and value < sys.float_info.min:
                    raise SizeCapError(
                        f"{operator} block value of (alpha, mu) = ({alpha}, {mu}) at d={d}, N={N} "
                        f"is below the smallest normal double"
                    )
                rows.append(BlockValue(alpha, mu, value, m_alpha * d_mu))
    return rows


# ---------------------------------------------------------------------------
# Fidelity formulas
# ---------------------------------------------------------------------------


def _fidelity_exact(d: int, N: int, coefficients: PortCoefficients | None) -> float:
    """F = d^-(N+2) sum_alpha S_alpha^2 at MP_DPS digits, rounded once to a
    double: each mu's surd formed once, each alpha's surd sum over its row
    of the successor index."""
    level = partition_level(N, d)
    weights = [1.0] * level.table.shape[0] if coefficients is None else coefficients.weights.tolist()
    with localcontext(_EXACT_CONTEXT):
        sums = _surd_sums(level.successors, _surds(level, weights))
        return float(sum([s * s for s in sums]) / d ** (N + 2))


# cephes' lgam, the routine behind scipy.special.gammaln: the Stirling-series
# coefficients and log(sqrt(2 pi))
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LS2PI = 0.91893853320467274178


def _cephes_lgamma(k: int) -> float:
    """ln Gamma(k) at an integer k >= 1, evaluated as cephes' lgam evaluates
    it, so that every bit equals scipy.special.gammaln(k): below 13 the log
    of (k - 1)!, exact in float64, and from 13 the Stirling series."""
    if k < 13:
        return math.log(float(math.factorial(k - 1)))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    poly = _LGAM_A[0]
    for a in _LGAM_A[1:]:
        poly = poly * p + a
    return q + poly / x


# _cephes_lgamma(k) and np.log(k) at k = 0, 1, ... (at k = 0 their limits),
# the last tables built, extended on demand
_int_tables = (np.array([math.inf]), np.array([-math.inf]))


def _integer_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The tables of _cephes_lgamma(k) and np.log(k), holding at least
    k <= n. A grown table is stored with a single assignment."""
    global _int_tables
    lgamma, log = _int_tables
    if lgamma.size <= n:
        size = max(n + 1, 2 * lgamma.size)
        grown = [_cephes_lgamma(k) for k in range(lgamma.size, size)]
        lgamma = np.concatenate((lgamma, grown))
        with np.errstate(divide="ignore"):
            log = np.log(np.arange(size))
        _int_tables = (lgamma, log)
    return lgamma, log


def _log_dims(mat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """ln d_mu and ln m_mu, two new arrays, for the rows mu of a (K, d) table
    of partitions of n, one row of the diagrams at a time. With l_i = mu_i +
    d - 1 - i: ln d_mu = ln n! + sum_{i<j} ln(l_i - l_j) - sum_i ln l_i! and
    ln m_mu = sum_{i<j} (ln(l_i - l_j) - ln(j - i)), added in that order, each
    ln(l_i - l_j) gathered once for both (``clip``: no buffered bounds check)."""
    K, d = mat.shape
    lgamma, log = _integer_tables(n + d)
    specht, weyl = np.full(K, math.lgamma(n + 1)), np.zeros(K)
    index, term = np.empty(K, dtype=np.int64), np.empty(K)
    for i in range(d):
        for j in range(i + 1, d):
            np.subtract(mat[:, i], mat[:, j], out=index)
            index += j - i
            log.take(index, out=term, mode="clip")
            specht += term
            term -= math.log(j - i)
            weyl += term
        np.add(mat[:, i], d - i, out=index)  # l_i + 1
        lgamma.take(index, out=term, mode="clip")
        specht -= term
    return specht, weyl


def _successor_logsumexp(successors: np.ndarray, half_log: np.ndarray) -> np.ndarray:
    """log sum_i exp(half_log[successors[a, i]]) over the successors of each
    alpha a of a successor table (``PartitionLevel.successors``, -1 for
    none), for the alphas with at least one successor of finite weight, in
    table order. ``half_log`` ends in one slot past the level, -inf, which
    -1 reads. ``_fidelity_log`` states the order of the operations."""
    terms = [half_log[column] for column in successors.T]
    peak = terms[0].copy()
    for column in terms[1:]:
        np.maximum(peak, column, out=peak)
    if peak.min() == -np.inf:
        live = peak > -np.inf
        terms = [column[live] for column in terms]
        peak = peak[live]
    total = np.zeros_like(peak)
    for column in terms:
        np.subtract(column, peak, out=column)
        np.exp(column, out=column)
        total += column
    np.log(total, out=total)
    total += peak
    return total


def _fidelity_log(d: int, N: int, coefficients: PortCoefficients | None) -> float:
    """F as one log-sum-exp per partition level, in float64.

    Each mu's half log-weight 0.5 * ln(c_mu d_mu m_mu) is formed by one pass
    over the level table (``_log_dims``), in place. The inner sum of each
    alpha (``_successor_logsumexp``) works on the d columns of the
    successor table, the successors grown in row i, each a contiguous array
    over all alphas: the gathered terms, their peak by ``np.maximum``, and
    their exponentials added one column after another, in row order. Below
    8 columns that is the order of numpy's ``.sum(axis=1)`` on the (K, d)
    matrix form too. Alphas whose every successor weighs zero are dropped,
    with a compacting copy only when one exists, which never happens for
    the standard port state (every alpha grows in row 0). Some alpha always
    stays: a normalised ``PortCoefficients`` has a c_mu > 0, and mu's
    parents are live.
    """
    level = partition_level(N, d)
    specht, weyl = _log_dims(level.table, N)
    half_log = np.empty(specht.size + 1)
    half_log[-1] = -np.inf  # the slot successor -1 (none) reads
    np.add(specht, weyl, out=half_log[:-1])
    half_log *= 0.5
    if coefficients is not None:
        weights = coefficients.weights.tolist()
        log_c = np.array([math.log(c) if c > 0 else -np.inf for c in weights])
        half_log[:-1] += 0.5 * log_c
    inner = _successor_logsumexp(level.successors, half_log)
    doubled = 2.0 * inner
    top = doubled.max()
    log_f = top + math.log(np.exp(doubled - top).sum()) - (N + 2) * math.log(d)
    return float(math.exp(log_f))


def _fidelity(d: int, N: int, coefficients: PortCoefficients | None) -> tuple[float, str]:
    """F by the numeric route of N, and the route's name."""
    if N <= EXACT_THRESHOLD:
        return _fidelity_exact(d, N, coefficients), EXACT_MODE
    return _fidelity_log(d, N, coefficients), LOG_MODE


def fidelity_standard(d: int, N: int) -> FidelityReport:
    """Entanglement fidelity of the protocol on N maximally entangled ports.

    F = d^-(N+2) * sum_alpha ( sum_{mu = alpha+box} sqrt(d_mu m_mu) )^2.
    """
    _check_dn(d, N)
    return _make_report(d, N, "standard", *_fidelity(d, N, None))


def fidelity_given_coefficients(d: int, N: int, coefficients: PortCoefficients) -> FidelityReport:
    """Fidelity of the protocol with a fixed, explicitly supplied port state."""
    _check_dn(d, N)
    _check_same_point(d, N, coefficients)
    f, mode = _fidelity(d, N, coefficients)
    return _make_report(d, N, "given-coefficients", f, mode, coefficients=coefficients)


# ---------------------------------------------------------------------------
# Optimized protocol (principal eigenvalue of the box-incidence matrix)
# ---------------------------------------------------------------------------


def _gram(successors: np.ndarray, n_mu: int) -> np.ndarray:
    """Dense B^T B of the box incidence B of a successor table
    (``PartitionLevel.successors``): entry (mu, nu) counts the alphas that
    both cover, an exact small integer, so it equals ``(B.T @ B).toarray()``
    for B in CSR form with the alphas as rows."""
    grown = successors >= 0
    both = grown[:, :, None] & grown[:, None, :]
    flat = (successors[:, :, None] * n_mu + successors[:, None, :])[both]
    gram = np.zeros(n_mu * n_mu)
    np.add.at(gram, flat, 1.0)
    return gram.reshape(n_mu, n_mu)


def _gram_matvec(successors: np.ndarray, n_mu: int):
    """v -> B^T (B v) for the box incidence B of a successor table, adding
    in the order of scipy's CSR products so that the bits equal
    ``B.T @ (B @ v)``, B in CSR form with the alphas as rows: (B v)_alpha
    sums alpha's successors in ascending row, then each mu accumulates
    (B v)_alpha over ascending alpha."""
    grown = successors >= 0
    alpha = np.nonzero(grown)[0]  # row-major: CSR order
    mu = successors[grown]

    def matvec(v: np.ndarray) -> np.ndarray:
        gathered = np.where(grown, np.ravel(v)[successors], 0.0)
        w = np.zeros(successors.shape[0])
        for column in gathered.T:
            w += column
        return np.bincount(mu, weights=w[alpha], minlength=n_mu)

    return matvec


def _principal_eigenpair(successors: np.ndarray, n_mu: int):
    """Largest eigenpair of M = B^T B with an entrywise-nonnegative vector,
    for the box incidence B of a successor table.

    M is nonnegative and its graph (mu joined to mu' when they share an
    alpha) is connected, so by Perron-Frobenius its top eigenvalue is simple
    and the top eigenvector is positive up to sign. Dense ``eigh`` solves up
    to DENSE_EIGEN_LIMIT diagrams and Lanczos ``eigsh`` above it; each is one
    library call with no iteration count of its own. Only the Lanczos path
    imports scipy. ``degenerate`` flags a top gap below DEGENERACY_RTOL, and
    a vector that is not nonnegative is refused.

    Returns (eigenvalue, unit vector, residual, degenerate).
    """
    matvec = _gram_matvec(successors, n_mu)
    if n_mu <= DENSE_EIGEN_LIMIT:
        eigvals, eigvecs = np.linalg.eigh(_gram(successors, n_mu))
    else:
        from scipy.sparse.linalg import LinearOperator, eigsh

        op = LinearOperator((n_mu, n_mu), matvec=matvec, dtype=float)
        eigvals, eigvecs = eigsh(op, k=2, which="LA", v0=np.ones(n_mu), tol=EIGSH_TOL)
    order = np.argsort(eigvals, kind="stable")
    lam = float(eigvals[order[-1]])
    degenerate = n_mu > 1 and bool(
        eigvals[order[-1]] - eigvals[order[-2]] <= DEGENERACY_RTOL * max(abs(lam), 1.0)
    )
    u = eigvecs[:, order[-1]]
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
    return lam, u, residual, degenerate


def optimize_coefficients(d: int, N: int) -> FidelityReport:
    """Best fidelity over all symmetric port states.

    Substituting u_mu = sqrt(c_mu d_mu m_mu) turns the constrained maximisation
    into the principal-eigenvalue problem of the nonnegative matrix B^T B, so
    F* = lambda_max / d^2 and the optimal weights come from the Perron vector.
    A weight too large for float64 raises SizeCapError naming its diagram.
    """
    _check_dn(d, N)
    exact = N <= EXACT_THRESHOLD
    level = partition_level(N, d)
    mus = table_partitions(level.table)
    lam, u, residual, degenerate = _principal_eigenpair(level.successors, len(mus))
    if residual > EIGEN_RESIDUAL_TOL * max(lam, 1.0):
        raise AssertionError(f"eigen residual {residual:.3e} above tolerance")
    log_d = math.log(d)
    weights = np.zeros(len(mus))
    for i, mu in enumerate(mus):
        if u[i] <= 0.0:
            continue
        if exact:
            log_dims = math.log(level.specht[i]) + math.log(level.weyl[i])
        else:
            log_dims = log_specht_row(mu) + log_weyl_row(mu, d)
        log_c = N * log_d + 2.0 * math.log(float(u[i])) - log_dims
        try:
            weights[i] = math.exp(log_c)
        except OverflowError:
            raise SizeCapError(
                f"coefficient of mu={list(mu)} overflows float64 at d={d}, N={N}"
            ) from None
    coefficients = PortCoefficients(d, N, weights)
    f = lam / (d * d)
    return _make_report(
        d,
        N,
        "optimized",
        f,
        EXACT_MODE if exact else LOG_MODE,
        coefficients=coefficients,
        eigen_data=EigenData(lam, 0, residual),
        degenerate=degenerate,
    )


# ---------------------------------------------------------------------------
# Bounds and asymptotics
# ---------------------------------------------------------------------------


def asymptote_standard(d: int, N: int) -> float:
    """Leading asymptotic value 1 - (d^2 - 1) / (4N)."""
    _check_dn(d, N)
    return 1.0 - (d * d - 1.0) / (4.0 * N)


def lower_bound_standard(d: int, N: int) -> float:
    """Guaranteed lower bound max(0, 1 - (d^2 - 1) / N)."""
    _check_dn(d, N)
    return max(0.0, 1.0 - (d * d - 1.0) / N)
