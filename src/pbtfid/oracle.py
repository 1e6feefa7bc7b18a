"""Dense, from-first-principles ground truth at desk scale.

Everything the formula modules claim is rebuilt here as explicit matrices:
the discrimination states, the square-root measurement, isotypic projectors,
the dual-certificate operators, and the full teleportation channel. Sizes are
capped (d^(N+1) <= PBT_ORACLE_CAP, default 4096) because this module exists
for certification, not production scans.

Tensor-factor convention: the N port slots A_1..A_N come first and the single
B slot is last, with row-major index fusion (np.kron order). Permutations act
on the A slots only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .config import env_positive_int
from .fidelity import PortCoefficients, block_spectrum
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
CHANNEL_CAP = 1024  # teleportation_fidelity_direct squares the state space
MAX_PROJECTOR_BOXES = 6  # character averaging is factorial in N

HERMITICITY_TOL = 1e-10
PSEUDO_INVERSE_RTOL = 1e-10
POVM_TOL = 1e-10


def oracle_cap() -> int:
    """Dense-construction size cap on d^(N+1) (env PBT_ORACLE_CAP)."""
    return env_positive_int(ORACLE_CAP_ENV, DEFAULT_ORACLE_CAP)


class SizeCapError(ValueError):
    """A dense construction would exceed the configured size cap."""


def _check_oracle_size(d: int, N: int) -> None:
    cap = oracle_cap()
    if d ** (N + 1) > cap:
        raise SizeCapError(
            f"d^(N+1) = {d ** (N + 1)} exceeds the oracle cap {cap} "
            f"(set {ORACLE_CAP_ENV} to raise it)"
        )


# ---------------------------------------------------------------------------
# Dense operators and tensor bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class DenseOperator:
    """A complex square matrix with tensor-factor bookkeeping.

    ``factor_dims`` lists the dimension of each tensor slot. When
    ``hermitian`` is set the matrix is checked against its adjoint;
    ``herm_defect`` records the pre-symmetrisation defect for operators
    that were explicitly Hermitised.
    """

    matrix: np.ndarray
    factor_dims: tuple[int, ...]
    hermitian: bool = False
    herm_defect: float | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        self.factor_dims = tuple(int(x) for x in self.factor_dims)
        dim = 1
        for f in self.factor_dims:
            dim *= f
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match factor "
                f"dims {self.factor_dims}"
            )
        if self.hermitian:
            defect = hermiticity_defect(self.matrix)
            if defect > 1e-12:
                raise ValueError(f"operator marked hermitian has defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def hermiticity_defect(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(matrix - matrix.conj().T))) if matrix.size else 0.0


def hermitize(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetrise (M + M^dagger)/2 and report the pre-symmetrisation defect."""
    defect = hermiticity_defect(matrix)
    return (matrix + matrix.conj().T) / 2.0, defect


def _digit_table(n_slots: int, d: int) -> np.ndarray:
    idx = np.arange(d**n_slots)
    out = np.empty((d**n_slots, n_slots), dtype=np.int64)
    for k in range(n_slots - 1, -1, -1):
        out[:, k] = idx % d
        idx = idx // d
    return out


def permutation_operator(perm: tuple[int, ...], d: int) -> np.ndarray:
    """Matrix moving the content of slot k to slot perm[k] on (C^d)^(len perm)."""
    n = len(perm)
    full = d**n
    digits = _digit_table(n, d)
    moved = np.empty_like(digits)
    moved[:, list(perm)] = digits
    weights = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = moved @ weights
    mat = np.zeros((full, full))
    mat[rows, np.arange(full)] = 1.0
    return mat


def reorder_factors(
    matrix: np.ndarray, dims: tuple[int, ...], new_order: list[int]
) -> np.ndarray:
    """Reorder tensor slots; ``new_order[j]`` is the old slot at new position j."""
    n = len(dims)
    tensor = matrix.reshape(*dims, *dims)
    axes = list(new_order) + [n + k for k in new_order]
    tensor = np.transpose(tensor, axes)
    full = 1
    for f in dims:
        full *= f
    return tensor.reshape(full, full)


def embed_operator(
    matrix: np.ndarray, slots: list[int], dims: tuple[int, ...]
) -> np.ndarray:
    """Lift an operator acting on ``slots`` (in that order) to the full space."""
    others = [k for k in range(len(dims)) if k not in slots]
    rest_dim = 1
    for k in others:
        rest_dim *= dims[k]
    combined = np.kron(matrix, np.eye(rest_dim))
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
    kept_dim = 1
    for k in keep:
        kept_dim *= dims[k]
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
    return (np.eye(d, dtype=complex) / math.sqrt(d)).reshape(-1)


def maximally_entangled(d: int) -> DenseOperator:
    """Rank-1 projector onto the canonical maximally entangled pair."""
    if d < 1:
        raise ValueError("d must be positive")
    v = maximally_entangled_vector(d)
    return DenseOperator(np.outer(v, v.conj()), (d, d), hermitian=True)


def build_rho(d: int, N: int, i: int) -> DenseOperator:
    """Discrimination state rho_i: an entangled pair on (A_i, B), maximally
    mixed on the remaining ports."""
    _check_oracle_size(d, N)
    if not 1 <= i <= N:
        raise ValueError(f"port index {i} outside 1..{N}")
    dims = (d,) * (N + 1)
    phi = maximally_entangled(d).matrix
    rest = np.eye(d ** (N - 1)) / d ** (N - 1)
    combined = np.kron(rest, phi)
    # combined slot order: the other ports ascending, then A_i, then B
    others = [k for k in range(N) if k != i - 1]
    order = others + [i - 1, N]
    inverse = [order.index(j) for j in range(N + 1)]
    mat = reorder_factors(combined, tuple(dims[k] for k in order), inverse)
    return DenseOperator(mat, dims, hermitian=True)


@dataclass
class Ensemble:
    """States with draw probabilities; validated on construction."""

    states: list[DenseOperator]
    probs: list[float]

    def __post_init__(self):
        if len(self.states) != len(self.probs):
            raise ValueError("states and probs must have equal length")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > 1e-14:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        for k, st in enumerate(self.states):
            tr = np.trace(st.matrix)
            if abs(tr - 1.0) > 1e-12:
                raise ValueError(f"state {k} has trace {tr}")
            if hermiticity_defect(st.matrix) > 1e-12:
                raise ValueError(f"state {k} is not hermitian")
            low = float(np.linalg.eigvalsh(st.matrix).min())
            if low < -1e-12:
                raise ValueError(f"state {k} has negative eigenvalue {low:.3e}")

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.states[0].factor_dims


def pbt_ensemble(d: int, N: int) -> Ensemble:
    """The uniform ensemble of the N discrimination states rho_i."""
    return Ensemble([build_rho(d, N, i) for i in range(1, N + 1)], [1.0 / N] * N)


def average_state(ensemble: Ensemble, normalized: bool = False) -> DenseOperator:
    """Sum of the states, probability weighted when ``normalized`` is set."""
    acc = np.zeros_like(ensemble.states[0].matrix)
    for p, st in zip(ensemble.probs, ensemble.states):
        acc = acc + (p * st.matrix if normalized else st.matrix)
    mat, _ = hermitize(acc)
    return DenseOperator(mat, ensemble.factor_dims, hermitian=True)


# ---------------------------------------------------------------------------
# Pretty good measurement and discrimination
# ---------------------------------------------------------------------------


def _pseudo_inv_sqrt(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root and support projector of a PSD matrix.

    Eigenvalues below PSEUDO_INVERSE_RTOL times the largest count as zero,
    restricting everything to the numerically meaningful support.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    top = float(eigvals.max(initial=0.0))
    keep = eigvals > PSEUDO_INVERSE_RTOL * top
    vecs = eigvecs[:, keep]
    inv_sqrt = (vecs / np.sqrt(eigvals[keep])) @ vecs.conj().T
    support = vecs @ vecs.conj().T
    return inv_sqrt, support


def pretty_good_measurement(ensemble: Ensemble) -> list[DenseOperator]:
    """Square-root measurement E_i = avg^(-1/2) p_i rho_i avg^(-1/2).

    The elements form a POVM on the support of the ensemble average; off
    that support they are zero.
    """
    avg = average_state(ensemble, normalized=True).matrix
    inv_sqrt, _ = _pseudo_inv_sqrt(avg)
    povm = []
    for p, st in zip(ensemble.probs, ensemble.states):
        element, _ = hermitize(inv_sqrt @ (p * st.matrix) @ inv_sqrt)
        povm.append(DenseOperator(element, ensemble.factor_dims, hermitian=True))
    return povm


def _check_povm_elements(povm: list[DenseOperator]) -> None:
    for k, e in enumerate(povm):
        defect = hermiticity_defect(e.matrix)
        if defect > POVM_TOL:
            raise ValueError(f"POVM element {k} not hermitian (defect {defect:.3e})")
        low = float(np.linalg.eigvalsh(e.matrix).min())
        if low < -POVM_TOL:
            raise ValueError(f"POVM element {k} not PSD (min eig {low:.3e})")


def success_probability(ensemble: Ensemble, povm: list[DenseOperator]) -> float:
    """sum_i p_i tr(rho_i E_i), after validating the POVM on the support.

    Completeness is required only on the support of the ensemble average: an
    invalid or incomplete POVM is rejected with the measured defect.
    """
    if len(povm) != len(ensemble.states):
        raise ValueError("POVM length does not match the ensemble")
    _check_povm_elements(povm)
    avg = average_state(ensemble, normalized=True).matrix
    _, support = _pseudo_inv_sqrt(avg)
    total = sum(e.matrix for e in povm)
    defect = float(np.max(np.abs(support @ (total - np.eye(total.shape[0])) @ support)))
    if defect > POVM_TOL:
        raise ValueError(
            f"POVM incomplete on the ensemble support (defect {defect:.3e})"
        )
    value = math.fsum(
        p * float(np.trace(st.matrix @ e.matrix).real)
        for p, st, e in zip(ensemble.probs, ensemble.states, povm)
    )
    if not -1e-10 <= value <= 1 + 1e-10:
        raise AssertionError(f"success probability {value} outside [0, 1]")
    return value


# ---------------------------------------------------------------------------
# Isotypic projectors
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _class_sums(d: int, n: int) -> dict[Partition, np.ndarray]:
    """Sum of permutation operators over each conjugacy class of S_n."""
    sums: dict[Partition, np.ndarray] = {}
    for perm in itertools.permutations(range(n)):
        lam = permutation_cycle_type(perm)
        mat = permutation_operator(perm, d)
        if lam in sums:
            sums[lam] += mat
        else:
            sums[lam] = mat
    return sums


def young_projector(mu, d: int) -> DenseOperator:
    """Projector onto the isotypic component of the slot-permutation action.

    Character averaging: P_mu = (d_mu / n!) sum_pi chi_mu(pi) R(pi). The
    factorial cost restricts n to MAX_PROJECTOR_BOXES.
    """
    mu = check_partition(mu)
    n = sum(mu)
    if n == 0:
        raise ValueError("need a nonempty diagram")
    if n > MAX_PROJECTOR_BOXES:
        raise SizeCapError(f"character averaging is limited to n <= {MAX_PROJECTOR_BOXES}")
    if len(mu) > d:
        raise ValueError(f"partition {mu} has more than d={d} rows")
    if d**n > oracle_cap():
        raise SizeCapError(f"d^n = {d ** n} exceeds the oracle cap {oracle_cap()}")
    acc = np.zeros((d**n, d**n))
    for lam, mat in _class_sums(d, n).items():
        acc = acc + sn_character(mu, lam) * mat
    proj = acc * (specht_dim(mu) / math.factorial(n))
    return DenseOperator(proj, (d,) * n, hermitian=True)


# ---------------------------------------------------------------------------
# Steered port states
# ---------------------------------------------------------------------------


def build_port_operator(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """O = sum_mu sqrt(c_mu) P_mu acting on the N port slots."""
    coefficients.validate()
    acc = np.zeros((d**N, d**N), dtype=complex)
    for mu in enumerate_partitions(N, d):
        c = coefficients.value(mu)
        if c > 0:
            acc = acc + math.sqrt(c) * young_projector(mu, d).matrix
    return DenseOperator(acc, (d,) * N, hermitian=True)


def build_eta(d: int, N: int, i: int, coefficients: PortCoefficients) -> DenseOperator:
    """Steered discrimination state eta_i = (O x 1_B) rho_i (O x 1_B)."""
    rho = build_rho(d, N, i)
    port_op = build_port_operator(d, N, coefficients)
    lifted = np.kron(port_op.matrix, np.eye(d))
    mat, _ = hermitize(lifted @ rho.matrix @ lifted)
    return DenseOperator(mat, rho.factor_dims, hermitian=True)


def eta_ensemble(d: int, N: int, coefficients: PortCoefficients) -> Ensemble:
    """Uniform ensemble of the steered states eta_i."""
    return Ensemble(
        [build_eta(d, N, i, coefficients) for i in range(1, N + 1)], [1.0 / N] * N
    )


# ---------------------------------------------------------------------------
# Dual certificates
# ---------------------------------------------------------------------------


def certificate_X(d: int, N: int) -> DenseOperator:
    """X = sum_i rho_i avg^(-1/2) rho_i avg^(-1/2); X/N is dual feasible and
    its trace over N equals the square-root measurement's success probability."""
    _check_oracle_size(d, N)
    rhos = [build_rho(d, N, i).matrix for i in range(1, N + 1)]
    avg, _ = hermitize(sum(rhos))
    inv_sqrt, _ = _pseudo_inv_sqrt(avg)
    acc = np.zeros_like(avg)
    for r in rhos:
        acc = acc + r @ inv_sqrt @ r @ inv_sqrt
    mat, defect = hermitize(acc)
    if defect > HERMITICITY_TOL:
        raise AssertionError(f"certificate defect {defect:.3e} above tolerance")
    return DenseOperator(mat, (d,) * (N + 1), hermitian=True, herm_defect=defect)


def certificate_Y(d: int, N: int, coefficients: PortCoefficients) -> DenseOperator:
    """Y = sum_i (O rho_i O) avg^(-1/2) rho_i avg^(-1/2) for the steered states;
    Y/N is dual feasible for discriminating the eta_i."""
    _check_oracle_size(d, N)
    coefficients.validate()
    rhos = [build_rho(d, N, i).matrix for i in range(1, N + 1)]
    avg, _ = hermitize(sum(rhos))
    inv_sqrt, _ = _pseudo_inv_sqrt(avg)
    lifted = np.kron(build_port_operator(d, N, coefficients).matrix, np.eye(d))
    acc = np.zeros_like(avg)
    for r in rhos:
        acc = acc + lifted @ r @ lifted @ inv_sqrt @ r @ inv_sqrt
    mat, defect = hermitize(acc)
    if defect > HERMITICITY_TOL:
        raise AssertionError(f"certificate defect {defect:.3e} above tolerance")
    return DenseOperator(mat, (d,) * (N + 1), hermitian=True, herm_defect=defect)


@dataclass(frozen=True)
class CertificateReport:
    """Weak-duality audit of a measurement against a dual candidate K."""

    gap: float  # tr K - achieved success probability
    feasibility: float  # min over i of the smallest eigenvalue of K - p_i rho_i
    success_probability: float
    dual_value: float
    certified: bool
    tolerance: float


def certify_optimality(
    ensemble: Ensemble, povm: list[DenseOperator], K: DenseOperator, tol: float = 1e-8
) -> CertificateReport:
    """Check that K is dual feasible and gap-free for the given measurement.

    A failed certificate is a valid negative result; nothing raises unless
    the inputs are malformed.
    """
    if hermiticity_defect(K.matrix) > HERMITICITY_TOL:
        raise ValueError("dual candidate K must be hermitian")
    achieved = success_probability(ensemble, povm)
    dual_value = float(np.trace(K.matrix).real)
    feasibility = math.inf
    for p, st in zip(ensemble.probs, ensemble.states):
        low = float(np.linalg.eigvalsh(K.matrix - p * st.matrix).min())
        feasibility = min(feasibility, low)
    gap = dual_value - achieved
    certified = feasibility >= -tol and abs(gap) <= tol
    return CertificateReport(
        gap=gap,
        feasibility=feasibility,
        success_probability=achieved,
        dual_value=dual_value,
        certified=certified,
        tolerance=tol,
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
    tensor = vec.reshape((d,) * (2 * N))
    vec = np.transpose(tensor, order).reshape(-1)
    if coefficients is not None:
        port_op = build_port_operator(d, N, coefficients)
        vec = _apply_on_slots(port_op.matrix, vec, list(range(N)), (d,) * (2 * N))
    return vec


def _apply_on_slots(matrix, vec, slots, dims):
    n = len(dims)
    rest = [k for k in range(n) if k not in slots]
    tensor = vec.reshape(dims)
    tensor = np.transpose(tensor, slots + rest)
    front = 1
    for k in slots:
        front *= dims[k]
    out = (matrix @ tensor.reshape(front, -1)).reshape(
        [dims[k] for k in slots] + [dims[k] for k in rest]
    )
    inverse = np.argsort(slots + rest)
    return np.transpose(out, inverse).reshape(-1)


def _keep_matrix(v, w, keep, dims):
    """sum over traced slots of v[t, k] conj(w[t, k']) as a matrix on the kept slots."""
    n = len(dims)
    rest = [k for k in range(n) if k not in keep]
    vt = np.transpose(v.reshape(dims), rest + keep)
    wt = np.transpose(w.reshape(dims), rest + keep)
    kept_dim = 1
    for k in keep:
        kept_dim *= dims[k]
    vm = vt.reshape(-1, kept_dim)
    wm = wt.reshape(-1, kept_dim)
    return vm.T @ wm.conj()


def teleportation_fidelity_direct(
    d: int,
    N: int,
    povm: list[DenseOperator],
    coefficients: PortCoefficients | None = None,
) -> float:
    """Simulate the full teleportation channel and return its entanglement fidelity.

    The channel output on (B_0, reference) is assembled branch by branch by
    explicit tensor contraction: the measurement acts on the input system and
    the A ports, everything except the signalled port and the reference is
    traced out, and the branches are summed after relabelling the port as
    B_0. The POVM is supplied on the discrimination space (ports then B) and
    reinterpreted as the protocol measurement by moving the B slot in front.
    """
    if d ** (N + 1) > CHANNEL_CAP:
        raise SizeCapError(
            f"d^(N+1) = {d ** (N + 1)} exceeds the channel-simulation cap {CHANNEL_CAP}"
        )
    if len(povm) != N:
        raise ValueError(f"need one POVM element per port, got {len(povm)}")
    _check_povm_elements(povm)
    dims = (d,) * (2 * N + 2)  # slots: A_0, R, A_1..A_N, B_1..B_N
    psi = np.kron(maximally_entangled_vector(d), port_state_vector(d, N, coefficients))
    protocol_slots = [0] + list(range(2, N + 2))
    disc_dims = (d,) * (N + 1)
    output = np.zeros((d * d, d * d), dtype=complex)
    for i, element in enumerate(povm, start=1):
        # discrimination order (A_1..A_N, B) -> protocol order (A_0, A_1..A_N)
        protocol_matrix = reorder_factors(
            element.matrix, disc_dims, [N] + list(range(N))
        )
        branch = _apply_on_slots(protocol_matrix, psi, protocol_slots, dims)
        output += _keep_matrix(branch, psi, [N + 1 + i, 1], dims)
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


def match_block_spectrum(op: DenseOperator, blocks) -> float:
    """Largest deviation between the operator's spectrum and the block multiset.

    The expected eigenvalues (each block value repeated by its multiplicity)
    are compared elementwise against the top of the sorted spectrum; whatever
    is left over must be numerically zero and contributes its magnitude.
    """
    eigvals = np.sort(np.linalg.eigvalsh(op.matrix))
    expected = np.sort(
        np.concatenate([np.full(b.multiplicity, b.value) for b in blocks])
    )
    rank = expected.size
    if rank > eigvals.size:
        raise ValueError("block multiset larger than the operator dimension")
    dev = float(np.max(np.abs(eigvals[eigvals.size - rank :] - expected)))
    if rank < eigvals.size:
        dev = max(dev, float(np.max(np.abs(eigvals[: eigvals.size - rank]))))
    return dev


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
    square-root measurement of the *unsteered* states.
    """
    from .fidelity import fidelity_given_coefficients, fidelity_standard

    _check_oracle_size(d, N)
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
        cert = certificate_X(d, N)
        cert_blocks = block_spectrum(d, N, "X")
    elif mode in ("given-coefficients", "optimized"):
        if coefficients is None:
            raise ValueError(f"{mode} mode needs coefficients")
        formula = fidelity_given_coefficients(d, N, coefficients).fidelity
        ens = eta_ensemble(d, N, coefficients)
        cert = certificate_Y(d, N, coefficients)
        cert_blocks = block_spectrum(d, N, "Y", coefficients)
    else:
        raise ValueError(f"unknown verification mode {mode!r}")

    achieved = success_probability(ens, povm)
    record("formula_vs_oracle", abs(formula - achieved * N / d**2), 1e-9)

    avg = average_state(rho_ens)
    record("avg_state_spectrum", match_block_spectrum(avg, block_spectrum(d, N, "avg")), 1e-9)
    record("certificate_spectrum", match_block_spectrum(cert, cert_blocks), 1e-9)

    scaled = DenseOperator(
        cert.matrix / N, cert.factor_dims, hermitian=True
    )
    report = certify_optimality(ens, povm, scaled)
    record("dual_feasibility", max(0.0, -report.feasibility), 1e-9)
    record("duality_gap", abs(report.gap), 1e-8)
    return checks
