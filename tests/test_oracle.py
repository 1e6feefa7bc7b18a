"""Dense ground truth: states, measurements, projectors, certificates, channel."""

import ast
import functools
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pbtfid import (
    DenseOperator,
    Ensemble,
    PortCoefficients,
    SizeCapError,
    average_state,
    block_spectrum,
    build_port_operator,
    build_rho,
    certificate_X,
    certificate_Y,
    certify_optimality,
    enumerate_partitions,
    eta_ensemble,
    fidelity_given_coefficients,
    fidelity_standard,
    match_block_spectrum,
    optimize_coefficients,
    pbt_ensemble,
    pretty_good_measurement,
    run_verification,
    specht_dim,
    success_probability,
    teleportation_fidelity_direct,
    weyl_dim,
    young_projector,
)
from conftest import (
    ORACLE_GRID,
    build_eta,
    cached_certificate_x,
    cached_ensemble,
    cached_pgm,
    character_average,
    dense_input_state,
    dense_rho,
    embed_operator,
    haar_unitary,
    maximally_entangled,
    maximally_entangled_vector,
    partial_trace,
    partial_trace_first,
    permutation_operator,
    port_state_vector,
    remove_box_predecessors,
    reorder_factors,
    steered_states,
)
from recorded_values import RECORDED_CHANNEL, RECORDED_VERIFY

import pbtfid.oracle as oracle_mod
import pbtfid.sectors as sectors_mod
import pbtfid.verify as verify_mod

SQ3 = math.sqrt(3.0)
HAAR_SEED = 20240  # fixed seed for all Haar-unitary symmetry checks


def random_valid_coefficients(d, N, rng):
    mus = enumerate_partitions(N, d)
    raw = rng.random(len(mus)) + 0.05
    total = sum(r * specht_dim(mu) * weyl_dim(mu, d) for r, mu in zip(raw, mus))
    scale = d**N / total
    return PortCoefficients.from_mapping(d, N, {mu: float(r * scale) for r, mu in zip(raw, mus)})


def reference_certificate(d, N, coefficients=None):
    """The loop formula sum_i (O rho_i O) A^(-1/2) rho_i A^(-1/2), with
    A = sum_i rho_i and O = 1 for X, built independently of the PGM."""
    rhos = [build_rho(d, N, i).matrix for i in range(1, N + 1)]
    avg = sum(rhos)
    w, v = np.linalg.eigh((avg + avg.conj().T) / 2)
    keep = w > 1e-10 * w.max()
    inv_sqrt = (v[:, keep] / np.sqrt(w[keep])) @ v[:, keep].conj().T
    if coefficients is None:
        lifted = np.eye(d ** (N + 1))
    else:
        lifted = np.kron(build_port_operator(d, N, coefficients).matrix, np.eye(d))
    acc = sum(lifted @ r @ lifted @ inv_sqrt @ r @ inv_sqrt for r in rhos)
    return (acc + acc.conj().T) / 2


def dense_channel_fidelity(d, N, povm, coefficients=None, psi=None):
    """Entanglement fidelity of the teleportation channel from full matrices:
    each POVM element reordered to the protocol slots (A_0, A_1..A_N) and
    applied to the whole input state psi (``dense_input_state`` unless
    given), everything but (B_i, R) traced out by one gather and one product
    per branch."""
    psi = dense_input_state(d, N, coefficients) if psi is None else psi
    slots = (d,) * (N + 1)
    output = np.zeros((d * d, d * d), dtype=complex)
    for i, element in enumerate(povm, start=1):
        protocol_matrix = reorder_factors(element.matrix, slots, [N] + list(range(N)))
        cols = oracle_mod.slot_gather(slots, [j for j in range(1, N + 1) if j != i] + [i, 0])
        branch = (protocol_matrix @ psi).take(cols, axis=1).reshape(-1, d * d)
        output += branch.T @ psi.take(cols, axis=1).reshape(-1, d * d).conj()
    target = maximally_entangled_vector(d)
    return float((target.conj() @ output @ target).real)


def as_input_state(d, N, psi):
    """A full input state in protocol order (rows A_0..A_N, columns
    R, B_1..B_N) as the channel reads it from ``oracle._input_state``:
    rows (A_1..A_N, A_0) and columns (B_1..B_N, R), its layout measured."""
    g = oracle_mod.slot_gather((d,) * (N + 1), [*range(1, N + 1), 0])
    return DenseOperator(psi[np.ix_(g, g)], (d,) * (N + 1))


def letter_images(d, n):
    """The index gather of every permutation of the letters 0..d-1 on
    (C^d)^n, applied to each slot alike."""
    digits = np.arange(d**n)[:, None] // d ** np.arange(n) % d
    return [np.array(letters)[digits] @ d ** np.arange(n)
            for letters in itertools.permutations(range(d))]


def count_eigensolves(monkeypatch, hermiticity=False):
    """Count the oracle's operator decompositions from here on, as "eigh"
    (with eigenvectors) or "eigvalsh", and its hermiticity measurements, as
    "hermiticity", when ``hermiticity`` is set. Also returns the dimension
    of every LAPACK eigensolve they make, one per sector block."""
    counts, lapack = Counter(), []
    real_eigensolve, real_asymmetry = oracle_mod._eigensolve, oracle_mod._asymmetry

    def eigensolve(sectors, data, vectors=False):
        counts["eigh" if vectors else "eigvalsh"] += 1
        return real_eigensolve(sectors, data, vectors)

    def asymmetry(*args):
        counts["hermiticity"] += 1
        return real_asymmetry(*args)

    for name in ("eigh", "eigvalsh"):
        def solve(a, *args, _real=getattr(np.linalg, name), **kwargs):
            lapack.append(a.shape[-1])
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, solve)
    monkeypatch.setattr(oracle_mod, "_eigensolve", eigensolve)
    if hermiticity:
        monkeypatch.setattr(oracle_mod, "_asymmetry", asymmetry)
    return counts, lapack


def largest_sector(d, N):
    """The largest weight-sector dimension of (C^d)^(N+1)."""
    return max(oracle_mod._Sectors.weights((d,) * (N + 1)).sizes)


def is_blocked(op):
    """Whether the oracle measures the operator zero off its weight sectors."""
    return op._sectors.blocked


def with_asymmetry(op, eps):
    """The operator with ``eps`` added at entry (0, 1) only: hermiticity
    defect eps, trace kept."""
    m = op.matrix.copy()
    m[0, 1] += eps
    return DenseOperator(m, op.factor_dims)


def per_state_minimum(ensemble, K):
    """min over i of lambda_min(K - p_i sigma_i), one eigensolve per state."""
    return min(
        float(np.linalg.eigvalsh(K.matrix - p * st.matrix).min())
        for p, st in zip(ensemble.probs, ensemble.states)
    )


def lift_unitary(U, N):
    """U^(xN) (x) conj(U) on the discrimination space."""
    out = U
    for _ in range(N - 1):
        out = np.kron(out, U)
    return np.kron(out, U.conj())


class TestDenseOperator:
    def test_shape_must_match_factors(self):
        with pytest.raises(ValueError):
            DenseOperator(np.eye(3), (2, 2))

    def test_scalar_factorless_operator(self):
        op = DenseOperator(np.array([[2.0]]), ())
        assert op.dim == 1 and op.trace() == 2.0

    def test_dtype_kept_or_promoted(self):
        assert DenseOperator(np.eye(2), (2,)).matrix.dtype == np.float64
        assert DenseOperator(np.eye(2, dtype=int), (2,)).matrix.dtype == np.float64
        assert DenseOperator(np.eye(2, dtype=bool), (2,)).matrix.dtype == np.float64
        assert DenseOperator(np.eye(2, dtype=complex), (2,)).matrix.dtype == np.complex128


class TestRealArithmetic:
    def test_constructions_are_float64(self):
        d, N = 2, 3
        c = random_valid_coefficients(d, N, np.random.default_rng(67))
        ens = pbt_ensemble(d, N)
        arrays = {
            "build_rho": build_rho(d, N, 2).matrix,
            "pbt_ensemble": ens.states[0].matrix,
            "pretty_good_measurement": pretty_good_measurement(ens)[0].matrix,
            "young_projector": young_projector((2, 1), d).matrix,
            "build_port_operator": build_port_operator(d, N, c).matrix,
            "_steered_states": oracle_mod._steered_states(d, N, c, ens)[0].matrix,
            "certificate_X": certificate_X(d, N).matrix,
            "certificate_Y": certificate_Y(d, N, c).matrix,
            "port_state_vector": port_state_vector(d, N, None),
            "port_state_vector(c)": port_state_vector(d, N, c),
        }
        for name, array in arrays.items():
            assert array.dtype == np.float64, name


class TestMaximallyEntangled:
    def test_d1_is_scalar_one(self):
        op = maximally_entangled(1)
        assert op.matrix.shape == (1, 1)
        assert op.trace() == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_rank_one_with_uniform_marginals(self, d):
        op = maximally_entangled(d)
        assert np.linalg.matrix_rank(op.matrix) == 1
        for slot in (0, 1):
            marg = partial_trace(op, [slot]).matrix
            assert np.allclose(marg, np.eye(d) / d, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_elementary_two_point_identity(self, d):
        # tr[Phi+_{RS} X_{ST} Phi+_{RS} Y_{ST}] = tr(X_T Y_T) / d^2
        rng = np.random.default_rng(3)
        dims = (d, d, d)
        phi_rs = embed_operator(maximally_entangled(d).matrix, [0, 1], dims)
        for _ in range(3):
            X = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            Y = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            lhs = np.trace(
                phi_rs
                @ embed_operator(X, [1, 2], dims)
                @ phi_rs
                @ embed_operator(Y, [1, 2], dims)
            )
            xt = np.einsum(X.reshape(d, d, d, d), [0, 1, 0, 3], [1, 3])
            yt = np.einsum(Y.reshape(d, d, d, d), [0, 1, 0, 3], [1, 3])
            assert lhs == pytest.approx(np.trace(xt @ yt) / d**2, abs=1e-12)


class TestDiscriminationStates:
    def test_rho_on_single_port_is_the_pair(self):
        rho = build_rho(2, 1, 1)
        assert np.allclose(rho.matrix, maximally_entangled(2).matrix)
        assert rho.factor_dims == (2, 2)

    def test_rho_trace_and_rank(self):
        rho = build_rho(2, 2, 1)
        assert rho.trace() == pytest.approx(1.0)
        assert np.linalg.matrix_rank(rho.matrix) == 2

    def test_rho_tensor_structure(self):
        # tracing out everything but (A_i, B) leaves the entangled pair
        d, N = 2, 3
        for i in (1, 2, 3):
            rho = build_rho(d, N, i)
            others = [k for k in range(N) if k != i - 1]
            pair = partial_trace(rho, others)
            assert np.allclose(pair.matrix, maximally_entangled(d).matrix, atol=1e-14)

    def test_permutation_covariance(self):
        d, N = 2, 3
        for perm in itertools.permutations(range(N)):
            pm = np.kron(permutation_operator(perm, d), np.eye(d))
            for i in range(1, N + 1):
                moved = pm @ build_rho(d, N, i).matrix @ pm.conj().T
                assert np.allclose(
                    moved, build_rho(d, N, perm[i - 1] + 1).matrix, atol=1e-13
                )

    def test_size_cap(self):
        # 10 x 8 x C(30, 15) / 2 bytes of sector data, over the default 1 GiB:
        # at even N the letter swap pairs every d=2 sector with another
        message = r"^the oracle at d=2, N=14 needs an estimated 6\.21e\+9 bytes, over the "
        message += r"budget of 1073741824 bytes \(set PBT_ORACLE_BYTES to raise it\)$"
        with pytest.raises(SizeCapError, match=message):
            build_rho(2, 14, 1)

    def test_default_budget_admits_the_desk_grid(self, monkeypatch):
        # every d^(N+1) <= 4096 steered, and d=2 up to N = 12, d=3 up to
        # N = 8 and d=5 up to N = 6, steered too, fit the default 1 GiB
        monkeypatch.delenv("PBT_ORACLE_BYTES", raising=False)
        for d in range(2, 65):
            for N in itertools.takewhile(lambda N: d ** (N + 1) <= 4096, itertools.count(1)):
                oracle_mod.check_oracle_size(d, N, steered=True)
        for d, N in [(2, 12), (3, 8), (5, 6)]:
            oracle_mod.check_oracle_size(d, N, steered=True)

    def test_cap_env_override(self, monkeypatch):
        estimate = oracle_mod.check_oracle_size(2, 3)
        monkeypatch.setenv("PBT_ORACLE_BYTES", str(estimate - 1))
        with pytest.raises(SizeCapError, match=f"over the budget of {estimate - 1} bytes"):
            build_rho(2, 3, 1)
        build_rho(2, 2, 1)

    def test_port_index_range(self):
        with pytest.raises(ValueError):
            build_rho(2, 2, 0)
        with pytest.raises(ValueError):
            build_rho(2, 2, 3)


class TestAverageState:
    def test_traces(self):
        ens = cached_ensemble(2, 2)
        assert average_state(ens).trace() == pytest.approx(2.0)
        assert average_state(ens, normalized=True).trace() == pytest.approx(1.0)

    def test_spectrum_2_2(self):
        eig = np.sort(np.linalg.eigvalsh(average_state(cached_ensemble(2, 2)).matrix))
        assert np.allclose(eig[-4:], [0.25, 0.25, 0.75, 0.75], atol=1e-12)
        assert np.allclose(eig[:-4], 0.0, atol=1e-12)

    def test_spectrum_matches_blocks(self, oracle_grid):
        for d, N in oracle_grid:
            dev = match_block_spectrum(
                average_state(cached_ensemble(d, N)), block_spectrum(d, N, "avg")
            )
            assert dev <= 1e-9

    def test_commutes_with_port_permutations(self):
        d, N = 2, 3
        avg = average_state(cached_ensemble(d, N)).matrix
        for perm in itertools.permutations(range(N)):
            pm = np.kron(permutation_operator(perm, d), np.eye(d))
            assert np.max(np.abs(pm @ avg - avg @ pm)) <= 1e-12


class TestPrettyGoodMeasurement:
    def test_orthogonal_pure_states_recover_projective(self):
        vecs = np.eye(3, dtype=complex)
        states = [DenseOperator(np.outer(v, v.conj()), (3,)) for v in vecs]
        ens = Ensemble(states, [1 / 3] * 3)
        povm = pretty_good_measurement(ens)
        for e, v in zip(povm, vecs):
            assert np.allclose(e.matrix, np.outer(v, v.conj()), atol=1e-12)
        assert success_probability(ens, povm) == pytest.approx(1.0)

    def test_single_state_ensemble(self):
        st = maximally_entangled(2)
        ens = Ensemble([st], [1.0])
        povm = pretty_good_measurement(ens)
        # support projector of a pure state is the state itself
        assert np.allclose(povm[0].matrix, st.matrix, atol=1e-12)
        assert success_probability(ens, povm) == pytest.approx(1.0)

    def test_povm_is_valid_on_support(self, oracle_grid):
        for d, N in oracle_grid:
            ens = cached_ensemble(d, N)
            povm = cached_pgm(d, N)
            total = sum(e.matrix for e in povm)
            avg = average_state(ens, normalized=True).matrix
            w, v = np.linalg.eigh(avg)
            keep = w > 1e-10 * w.max()
            support = v[:, keep] @ v[:, keep].conj().T
            assert np.max(np.abs(total - support)) <= 1e-10
            for e in povm:
                assert np.linalg.eigvalsh(e.matrix).min() >= -1e-10

    def test_pbt_2_2_success_probability(self):
        ps = success_probability(cached_ensemble(2, 2), list(cached_pgm(2, 2)))
        assert ps == pytest.approx((2 + SQ3) / 4, abs=1e-12)

    def test_matches_formula_everywhere(self, oracle_grid):
        for d, N in oracle_grid:
            ps = success_probability(cached_ensemble(d, N), list(cached_pgm(d, N)))
            expected = fidelity_standard(d, N).fidelity * d**2 / N
            assert ps == pytest.approx(expected, abs=1e-9)


class TestSuccessProbabilityValidation:
    def test_incomplete_povm_rejected(self):
        ens = cached_ensemble(2, 2)
        half = [
            DenseOperator(e.matrix / 2, e.factor_dims)
            for e in cached_pgm(2, 2)
        ]
        with pytest.raises(ValueError, match="incomplete"):
            success_probability(ens, half)

    def test_non_psd_povm_rejected(self):
        ens = cached_ensemble(2, 2)
        dim = ens.states[0].dim
        bad = np.eye(dim)
        bad[0, 0] = -0.5
        povm = [
            DenseOperator(bad, ens.factor_dims),
            DenseOperator(np.eye(dim) - bad, ens.factor_dims),
        ]
        with pytest.raises(ValueError, match="PSD"):
            success_probability(ens, povm)

    def test_uniform_split_is_complete_but_weak(self):
        ens = cached_ensemble(2, 3)
        dim = ens.states[0].dim
        povm = [
            DenseOperator(np.eye(dim) / 3, ens.factor_dims)
            for _ in range(3)
        ]
        ps = success_probability(ens, povm)
        assert ps == pytest.approx(1 / 3, abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (8,)])
    def test_povm_on_other_factor_dims_rejected(self, dims):
        # (2, 2) elements are 4 x 4; (8,) ones have the right size but not the
        # ensemble's (2, 2, 2) tensor structure
        ens = cached_ensemble(2, 2)
        povm = [DenseOperator(np.eye(math.prod(dims)) / 2, dims) for _ in range(2)]
        message = f"POVM element 0 acts on factor dims {dims}, not (2, 2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            success_probability(ens, povm)


def shifted_down(op, shift):
    """The operator with ``shift`` times its lowest eigenprojector removed,
    its trace kept by spreading ``shift`` over the identity."""
    w, v = np.linalg.eigh(op.matrix)
    m = op.matrix - shift * np.outer(v[:, 0], v[:, 0].conj()) + shift / op.dim * np.eye(op.dim)
    return DenseOperator((m + m.conj().T) / 2, op.factor_dims)


def with_entry(op, value, k=0, j=1):
    """The operator with entry (k, j) set to ``value``."""
    m = op.matrix.copy()
    m[k, j] = value
    return DenseOperator(m, op.factor_dims)


class TestEnsembleValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_probability_rejected(self, bad):
        states = list(cached_ensemble(2, 2).states)
        with pytest.raises(ValueError, match="^probabilities must be finite and nonnegative$"):
            Ensemble(states, [bad, 1.0])

    @pytest.mark.parametrize("k", [0, 2])
    def test_non_finite_state_rejected(self, k):
        ens = cached_ensemble(2, 4)
        states = list(ens.states)
        states[k] = with_entry(states[k], math.nan)
        with pytest.raises(ValueError, match=rf"^state {k} has non-finite entries$"):
            Ensemble(states, list(ens.probs))

    @pytest.mark.parametrize("dims", [(4,), (2, 2, 2)])
    def test_states_on_other_factor_dims_rejected(self, dims):
        # (4,) has the size of (2, 2) but not its tensor structure
        dim = math.prod(dims)
        states = [
            DenseOperator(np.eye(4) / 4, (2, 2)),
            DenseOperator(np.eye(dim) / dim, dims),
        ]
        message = f"state 1 acts on factor dims {dims}, not (2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Ensemble(states, [0.5, 0.5])


def per_element_pgm(ensemble):
    """E_k = S p_k sigma_k S, S the pseudo-inverse square root of the
    average, one product per element."""
    inv_sqrt = ensemble._average_decomposition[0].matrix
    return [
        sectors_mod.hermitize(inv_sqrt @ (p * st.matrix) @ inv_sqrt)
        for p, st in zip(ensemble.probs, ensemble.states)
    ]


def held_data(layout, matrix):
    """The data of ``matrix`` in ``layout``: the blocks of its held sectors,
    raveled and concatenated in order."""
    held = (layout.index[k] for k in layout.held)
    return np.concatenate([matrix[np.ix_(sector, sector)].ravel() for sector in held])


def assert_held_blocks_equal(op, reference):
    """The oracle computes an operator's held blocks and gathers the others
    from them: the held blocks equal ``reference``'s bit for bit, and so
    does the whole matrix the layout gathers from them; ``reference`` itself
    agrees to rounding, as it sums the other blocks' entries in another
    order."""
    layout = op._sectors
    reps = held_data(layout, reference)
    assert np.array_equal(held_data(layout, op.matrix), reps)
    assert np.array_equal(op.matrix, layout.matrix(reps))
    assert np.max(np.abs(op.matrix - reference)) <= 1e-14


def is_exact_orbit(operators):
    """Whether the operators are an exact port orbit: every swap defect of
    ``_swap_defects`` zero (a NaN defect is not)."""
    sectors, (arrays,) = oracle_mod._common(operators)
    return not any(oracle_mod._swap_defects(sectors, next(arrays), arrays))


class TestOrbitConstruction:
    """rho, the PGM, eta and the certificate are built at port 1 and gathered
    to the other ports when their inputs are exact port orbits."""

    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_gathered_states_equal_build_rho(self, dn):
        d, N = dn
        ens = cached_ensemble(d, N)
        for k, st in enumerate(ens.states):
            assert np.array_equal(st.matrix, build_rho(d, N, k + 1).matrix)
        assert isinstance(ens.states, oracle_mod._PortOrbit)

    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_gathered_pgm_and_eta_match_the_per_element_formula(self, dn):
        d, N = dn
        ens = cached_ensemble(d, N)
        povm = pretty_good_measurement(ens)
        assert ens._symmetric_orbit and isinstance(povm, oracle_mod._PortOrbit)
        assert is_exact_orbit(povm)
        for e, reference in zip(povm, per_element_pgm(ens)):
            assert np.max(np.abs(e.matrix - reference)) <= 1e-13
        gathered = oracle_mod.certificate(ens.states, povm)
        per_element = oracle_mod.certificate(list(ens.states), list(povm))
        assert np.max(np.abs(gathered.matrix - per_element.matrix)) <= 1e-13
        c = random_valid_coefficients(d, N, np.random.default_rng(79))
        etas = oracle_mod._steered_states(d, N, c, ens)
        assert is_exact_orbit(etas)
        lifted = np.kron(build_port_operator(d, N, c).matrix, np.eye(d))
        for eta, rho in zip(etas, ens.states):
            reference = sectors_mod.hermitize(lifted @ rho.matrix @ lifted)
            assert np.max(np.abs(eta.matrix - reference)) <= 1e-13

    def test_unequal_probabilities_take_the_per_element_path(self, monkeypatch):
        d, N = 2, 3
        states = cached_ensemble(d, N).states
        ens = Ensemble(states, [0.5, 0.3, 0.2])
        assert isinstance(ens.states, oracle_mod._PortOrbit) and not ens._symmetric_orbit
        povm = pretty_good_measurement(ens)
        assert not is_exact_orbit(povm)
        for e, reference in zip(povm, per_element_pgm(ens)):
            assert_held_blocks_equal(e, reference)
        counts, lapack = count_eigensolves(monkeypatch)
        ps = success_probability(ens, povm)
        assert -1e-10 <= ps <= 1 + 1e-10
        # the POVM is no exact orbit: each element by eigvalsh, block by block
        assert counts["eigvalsh"] == N
        assert max(lapack) <= largest_sector(d, N)

    def test_state_perturbed_at_one_port_takes_the_per_element_path(self):
        d, N = 2, 3
        ens = cached_ensemble(d, N)
        states = list(ens.states)
        dim = states[1].dim
        mixed = 0.99 * states[1].matrix + 0.01 * np.eye(dim) / dim
        states[1] = DenseOperator(mixed, states[1].factor_dims)
        perturbed = Ensemble(states, list(ens.probs))
        assert not is_exact_orbit(perturbed.states)
        povm = pretty_good_measurement(perturbed)
        for e, reference in zip(povm, per_element_pgm(perturbed)):
            assert_held_blocks_equal(e, reference)
        unperturbed = success_probability(ens, list(cached_pgm(d, N)))
        assert success_probability(perturbed, povm) < unperturbed
        c = random_valid_coefficients(d, N, np.random.default_rng(83))
        etas = oracle_mod._steered_states(d, N, c, perturbed)
        lifted = np.kron(build_port_operator(d, N, c).matrix, np.eye(d))
        for eta, rho in zip(etas, states):
            assert_held_blocks_equal(eta, sectors_mod.hermitize(lifted @ rho.matrix @ lifted))

    @pytest.mark.parametrize(
        "ports, symmetric",
        [("0+1", False), ("0++1", False), ("0+++", True)],
    )
    def test_orbit_of_a_product_state(self, ports, symmetric):
        # rho_1 = |0><0| x |+><+| x |1><1| x 1/2 on (A_1, A_2, A_3, B) and
        # its exact swap images: the average ~ abc + bac + cba is not
        # invariant under the swap of ports 1 and 2 (cba -> bca), so the
        # square-root measurement is not the orbit of E_1. "0++1" is
        # invariant under the swap of ports 2 and 3 but not under the cycle
        # of ports 2..4; "0+++" is invariant under every permutation of them
        kets = {"0": np.diag([1.0, 0.0]), "1": np.diag([0.0, 1.0]), "+": np.full((2, 2), 0.5)}
        d, N = 2, len(ports)
        first = functools.reduce(np.kron, [kets[c] for c in ports] + [np.eye(2) / 2])
        first = DenseOperator(first, (d,) * (N + 1))
        ens = Ensemble(oracle_mod._PortOrbit(first), [1 / N] * N)
        assert is_exact_orbit(ens.states)
        assert ens._symmetric_orbit == symmetric
        povm = pretty_good_measurement(ens)
        for e, reference in zip(povm, per_element_pgm(ens)):
            assert np.max(np.abs(e.matrix - reference)) <= (1e-13 if symmetric else 0.0)
        reference = math.fsum(
            p * float(np.trace(st.matrix @ e.matrix))
            for p, st, e in zip(ens.probs, ens.states, povm)
        )
        assert success_probability(ens, povm) == pytest.approx(reference, abs=1e-14)

    def test_complex_haar_orbit_takes_the_per_element_path(self):
        d, N = 2, 3
        V = lift_unitary(haar_unitary(d, np.random.default_rng(HAAR_SEED)), N)
        states = []
        for st in cached_ensemble(d, N).states:
            m = V @ st.matrix @ V.conj().T
            states.append(DenseOperator((m + m.conj().T) / 2, st.factor_dims))
        ens = Ensemble(states, [1 / N] * N)
        assert not is_exact_orbit(states) and not any(map(is_blocked, states))
        povm = pretty_good_measurement(ens)
        for e, reference in zip(povm, per_element_pgm(ens)):
            assert np.array_equal(e.matrix, reference)
        assert success_probability(ens, povm) == pytest.approx(
            fidelity_standard(d, N).success_probability, abs=1e-12
        )
        cert = oracle_mod.certificate(ens.states, povm)
        reference = sum(st.matrix @ e.matrix for st, e in zip(ens.states, povm))
        assert np.array_equal(cert.matrix, sectors_mod.hermitize(reference))

    def test_exact_orbit_non_hermitian_at_the_psd_edge(self, monkeypatch):
        # rho_1 with -eps at pairs of its upper triangle that the swap of
        # ports 1 and 2 moves into the lower triangle, inside the kernel of
        # rho_2: eigvalsh reads M_1 as rho_1 but M_2 as rho_2 with a negative
        # block, so the ports must be decomposed one by one
        d, N, eps = 2, 3, 0.9e-12
        base = cached_ensemble(d, N).states[0].matrix
        g = oracle_mod._port_swaps(d, N)[0]
        image = base[np.ix_(g, g)]
        kernel = [i for i in range(base.shape[0]) if not image[i].any()]
        m = base.copy()
        for i, j in itertools.combinations(kernel, 2):
            if g[j] < g[i]:
                m[g[j], g[i]] = -eps
        first = DenseOperator(m, (d,) * (N + 1))
        states = oracle_mod._PortOrbit(first)
        assert is_exact_orbit(states) and oracle_mod.hermiticity_defect(m) == eps
        lows = [float(np.linalg.eigvalsh(st.matrix).min()) for st in states]
        assert lows[0] >= -1e-12 and lows[1] < -1e-12
        counts, lapack = count_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=rf"^state 1 not PSD \(min eig {lows[1]:.3e}\)$"):
            Ensemble(states, [1 / N] * N)
        assert counts == {"eigvalsh": 2}
        # -eps lies off the weight sectors: the dense path, one block
        assert not is_blocked(first) and lapack == [first.dim] * 2

    def test_exact_non_psd_orbit_named_at_port_one(self, monkeypatch):
        d, N = 2, 4
        first = shifted_down(cached_ensemble(d, N).states[0], 0.02)
        states = oracle_mod._PortOrbit(first)
        low = np.linalg.eigvalsh(first.matrix).min()
        counts, lapack = count_eigensolves(monkeypatch)
        with pytest.raises(ValueError, match=rf"^state 0 not PSD \(min eig {low:.3e}\)$"):
            Ensemble(states, [1 / N] * N)
        assert counts == {"eigvalsh": 1}
        assert max(lapack) <= (largest_sector(d, N) if is_blocked(first) else first.dim)


class TestOrbitValidation:
    """States and POVMs held as a ``_PortOrbit`` take one eigensolve, for
    port 1; any other sequence is decomposed element by element."""

    def test_pgm_ensemble_takes_one_eigensolve(self, monkeypatch):
        d, N = 2, 4
        ens, povm = cached_ensemble(d, N), cached_pgm(d, N)
        counts, lapack = count_eigensolves(monkeypatch)
        Ensemble(ens.states, list(ens.probs))
        oracle_mod._check_psd(povm, oracle_mod.POVM_TOL, "POVM element")
        assert counts == {"eigvalsh": 2}
        assert max(lapack) == largest_sector(d, N) == 10

    def test_orbit_object_is_not_measured_again(self, monkeypatch):
        # a _PortOrbit is an exact orbit by construction: validated at port 1
        # and steered at port 1. A copy of it is a plain list, validated and
        # steered element by element; no sequence is measured for swaps
        d, N = 2, 4
        ens = cached_ensemble(d, N)
        measured = Counter()
        real_defects = oracle_mod._swap_defects

        def counted_defects(*args):
            measured["swap_defects"] += 1
            return real_defects(*args)

        monkeypatch.setattr(oracle_mod, "_swap_defects", counted_defects)
        counts, _ = count_eigensolves(monkeypatch)
        Ensemble(ens.states, list(ens.probs))
        assert counts == {"eigvalsh": 1}
        counts.clear()
        copy = Ensemble(list(ens.states), list(ens.probs))
        assert counts == {"eigvalsh": N}
        assert measured["swap_defects"] == 0
        c = random_valid_coefficients(d, N, np.random.default_rng(89))
        etas = oracle_mod._steered_states(d, N, c, copy)
        assert not isinstance(etas, oracle_mod._PortOrbit)
        for eta, reference in zip(etas, oracle_mod._steered_states(d, N, c, ens)):
            assert np.max(np.abs(eta.matrix - reference.matrix)) <= 1e-13

    def test_orbit_members_cannot_be_replaced(self):
        orbit = cached_ensemble(2, 3).states
        assert isinstance(orbit, oracle_mod._PortOrbit)
        with pytest.raises(TypeError):
            orbit[1] = orbit[0]
        assert not isinstance(orbit[:2], oracle_mod._PortOrbit)

    def test_non_orbit_povm_accepted_through_the_fallback(self, monkeypatch):
        # P = |0><0| on port 1 and its complement: a complete projective
        # measurement whose elements are not images of each other
        ens = cached_ensemble(2, 2)
        P = np.kron(np.diag([1.0, 0.0]), np.eye(4))
        povm = [
            DenseOperator(P, ens.factor_dims),
            DenseOperator(np.eye(8) - P, ens.factor_dims),
        ]
        counts, lapack = count_eigensolves(monkeypatch)
        assert success_probability(ens, povm) == pytest.approx(0.5, abs=1e-12)
        assert counts == {"eigvalsh": 2}
        # the letter swap takes P to |1><1| on port 1, so P is not covariant
        # and both elements are decomposed whole
        assert not any(map(is_blocked, povm)) and lapack == [8, 8]

    @pytest.mark.parametrize("k", [1, 3])
    def test_non_psd_state_named_with_its_own_eigenvalue(self, k):
        ens = cached_ensemble(2, 4)
        states = list(ens.states)
        states[k] = shifted_down(states[k], 0.02)
        low = np.linalg.eigvalsh(states[k].matrix).min()
        assert low < -1e-3
        with pytest.raises(ValueError, match=rf"^state {k} not PSD \(min eig {low:.3e}\)$"):
            Ensemble(states, list(ens.probs))

    @pytest.mark.parametrize("k", [1, 3])
    def test_non_psd_povm_element_named_with_its_own_eigenvalue(self, k):
        ens = cached_ensemble(2, 4)
        povm = list(cached_pgm(2, 4))
        povm[k] = shifted_down(povm[k], 0.02)
        low = np.linalg.eigvalsh(povm[k].matrix).min()
        assert low < -1e-3
        message = rf"^POVM element {k} not PSD \(min eig {low:.3e}\)$"
        with pytest.raises(ValueError, match=message):
            success_probability(ens, povm)
        with pytest.raises(ValueError, match=message):
            teleportation_fidelity_direct(2, 4, povm)

    @pytest.mark.parametrize("k", [0, 2])
    def test_non_hermitian_state_rejected(self, k):
        ens = cached_ensemble(2, 4)
        states = list(ens.states)
        states[k] = with_asymmetry(states[k], 1e-3)
        with pytest.raises(ValueError, match=rf"^state {k} not hermitian \(defect 1\.000e-03\)$"):
            Ensemble(states, list(ens.probs))

    @pytest.mark.parametrize("k", [0, 2])
    def test_non_finite_povm_element_rejected(self, k):
        povm = list(cached_pgm(2, 4))
        povm[k] = with_entry(povm[k], math.nan)
        message = rf"^POVM element {k} has non-finite entries$"
        with pytest.raises(ValueError, match=message):
            success_probability(cached_ensemble(2, 4), povm)
        with pytest.raises(ValueError, match=message):
            teleportation_fidelity_direct(2, 4, povm)

    @pytest.mark.parametrize("k", [0, 2])
    def test_non_hermitian_povm_element_rejected(self, k):
        povm = list(cached_pgm(2, 4))
        povm[k] = with_asymmetry(povm[k], 1e-3)
        message = rf"^POVM element {k} not hermitian \(defect 1\.000e-03\)$"
        with pytest.raises(ValueError, match=message):
            success_probability(cached_ensemble(2, 4), povm)

    def test_complex_orbit_and_trace(self, monkeypatch):
        # U^(xN) (x) conj(U) commutes with the port swaps, so the conjugated
        # states and their measurement stay one orbit, now complex
        d, N = 2, 3
        V = lift_unitary(haar_unitary(d, np.random.default_rng(HAAR_SEED)), N)
        states = []
        for st in cached_ensemble(d, N).states:
            m = V @ st.matrix @ V.conj().T
            states.append(DenseOperator((m + m.conj().T) / 2, st.factor_dims))
        ens = Ensemble(states, [1 / N] * N)
        povm = pretty_good_measurement(ens)
        assert povm[0].matrix.dtype == complex
        counts, lapack = count_eigensolves(monkeypatch)
        ps = success_probability(ens, povm)
        # rounding breaks the exact orbit, so each element is decomposed
        assert counts == {"eigvalsh": N}
        # rounding leaves the conjugated states off the weight sectors
        assert not any(map(is_blocked, states)) and lapack == [povm[0].dim] * N
        reference = math.fsum(
            p * float(np.trace(st.matrix @ e.matrix).real)
            for p, st, e in zip(ens.probs, ens.states, povm)
        )
        assert abs(ps - reference) <= 1e-15
        assert ps == pytest.approx(fidelity_standard(d, N).success_probability, abs=1e-12)


def oracle_outputs(d, N, c):
    """The PGM, X, Y, both feasibility bounds, both spectrum matches and the
    success probability, built from scratch at (d, N)."""
    ens = pbt_ensemble(d, N)
    povm = pretty_good_measurement(ens)
    X, Y = certificate_X(d, N), certificate_Y(d, N, c)
    x_report = certify_optimality(ens, povm, DenseOperator(X.matrix / N, X.factor_dims))
    y_report = certify_optimality(
        eta_ensemble(d, N, c), povm, DenseOperator(Y.matrix / N, Y.factor_dims)
    )
    matches = [
        verify_mod.block_spectrum_match(
            oracle_mod.eigenvalues(average_state(ens)), block_spectrum(d, N, "avg")
        ),
        verify_mod.block_spectrum_match(oracle_mod.eigenvalues(X), block_spectrum(d, N, "X")),
    ]
    return {
        "blocked": [is_blocked(op) for op in (ens.states[0], povm[0], X, Y)],
        "pgm": np.stack([e.matrix for e in povm]),
        "X": X.matrix,
        "Y": Y.matrix,
        "feasibility": np.array([x_report.feasibility, y_report.feasibility]),
        "spectra": np.concatenate([[*np.ravel(per_block), left] for per_block, left in matches]),
        "success_probability": np.array([x_report.success_probability]),
    }


def dense_only(monkeypatch):
    """Make every operator measured from here on take the dense layout."""
    monkeypatch.setattr(oracle_mod._Sectors, "weights", classmethod(lambda cls, dims: None))


def kernel_pair_across_sectors(op):
    """Indices i < j of two zero rows of the operator in different weight
    sectors."""
    sectors = oracle_mod._Sectors.weights(op.factor_dims)
    zero_rows = ~op.matrix.any(axis=1)
    candidates = [sector[zero_rows[sector]] for sector in sectors.index]
    first, second = [c for c in candidates if c.size][:2]
    return int(min(first[0], second[0])), int(max(first[0], second[0]))


class TestWeightSectors:
    """Operators measured zero off the weight sectors n_k(a) - [b = k] are
    processed block by block; any other operator takes the dense path."""

    @pytest.mark.parametrize("d, N", [(d, N) for d in (1, 2, 3) for N in range(1, 5)])
    def test_sectors_are_the_weight_classes(self, d, N):
        dims = (d,) * (N + 1)
        sectors = oracle_mod._Sectors.weights(dims)
        classes = {}
        for index in range(d ** (N + 1)):
            digits = np.unravel_index(index, dims)
            weight = tuple(
                sum(a == k for a in digits[:-1]) - (digits[-1] == k) for k in range(d)
            )
            classes.setdefault(weight, []).append(index)
        assert sorted(sector.tolist() for sector in sectors.index) == sorted(classes.values())
        assert sum(sectors.sizes) == d ** (N + 1)
        gathers = oracle_mod._port_swaps(d, N) + oracle_mod._port_1_stabilizer(d, N)
        for sector in sectors.index:
            assert np.all(np.diff(sector) > 0)
            for g in gathers:
                assert np.array_equal(np.sort(g[sector]), sector)

    @pytest.mark.parametrize("d, N", [(2, 8), (3, 5)])
    def test_sort_based_unique_equals_np_unique(self, d, N):
        # np.unique imports numpy.ma, so the oracle ranks keys by one sort
        n = N + 1
        digits = np.arange(d**n)[:, None] // d ** np.arange(n - 1, -1, -1) % d
        levels = np.arange(d)
        weight = (digits[:, :-1, None] == levels).sum(axis=1) - (digits[:, -1:] == levels)
        unique, labels = np.unique(weight, axis=0, return_inverse=True)
        ours, our_labels = sectors_mod._unique_inverse(weight)
        assert np.array_equal(ours, unique)
        assert np.array_equal(our_labels, labels.ravel())
        assert np.array_equal(oracle_mod._Sectors.weights((d,) * n)._labels, labels.ravel())
        flat = np.random.default_rng(d * 10 + N).integers(-5, 40, size=300)
        unique, labels = np.unique(flat, return_inverse=True)
        ours, our_labels = sectors_mod._unique_inverse(flat)
        assert np.array_equal(ours, unique) and np.array_equal(our_labels, labels)
        empty = sectors_mod._unique_inverse(np.empty(0, dtype=np.int64))
        assert empty[0].size == 0 and empty[1].size == 0

    def test_sizes_at_d2_n8(self):
        # the letter swap pairs sector k with sector 9 - k: 5 held blocks
        sectors = oracle_mod._Sectors.weights((2,) * 9)
        assert sectors.sizes == [math.comb(9, k) for k in range(10)]
        assert [sectors.sizes[k] for k in sectors.held] == [math.comb(9, k) for k in range(5)]
        assert sectors.multiplicity == [2] * 5
        assert sectors.size == 48620 // 2 and sum(n * n for n in sectors.sizes) == 48620

    def test_data_round_trip_and_gathers(self):
        d, N = 2, 4
        rho = build_rho(d, N, 2).matrix
        sectors = oracle_mod._Sectors.weights((d,) * (N + 1))
        # measured when built, in the layout kept for its dims
        op = DenseOperator(rho, (d,) * (N + 1))
        data = op._data
        assert op._sectors is sectors and data.size == sectors.size
        assert np.array_equal(sectors.matrix(data), rho)
        for g in oracle_mod._port_swaps(d, N):
            image = sectors.matrix(sectors.gather(data, g))
            assert np.array_equal(image, rho[g][:, g])

    def test_filled_matrix_is_read_only(self):
        state = pbt_ensemble(2, 3).states[1]
        assert is_blocked(state)
        assert np.array_equal(state.matrix, build_rho(2, 3, 2).matrix)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_blocked_and_dense_paths_agree(self, monkeypatch, dn):
        d, N = dn
        c = random_valid_coefficients(d, N, np.random.default_rng(89))
        blocked = oracle_outputs(d, N, c)
        dense_only(monkeypatch)
        dense = oracle_outputs(d, N, c)
        assert all(blocked.pop("blocked")) and not any(dense.pop("blocked"))
        for name, value in blocked.items():
            assert np.max(np.abs(value - dense[name])) <= 1e-12, name

    def test_off_sector_perturbation_takes_the_dense_path(self):
        # rho_2 mixed with a pure state across two sectors: PSD, trace one,
        # not sector-diagonal; every operator built with it is dense
        d, N = 2, 3
        states = list(cached_ensemble(d, N).states)
        i, j = kernel_pair_across_sectors(states[1])
        v = np.zeros(states[1].dim)
        v[[i, j]] = 1 / math.sqrt(2)
        mixed = 0.99 * states[1].matrix + 0.01 * np.outer(v, v)
        states[1] = DenseOperator(mixed, states[1].factor_dims)
        ens = Ensemble(states, [1 / N] * N)
        assert not is_blocked(states[1]) and is_blocked(states[0])
        povm = pretty_good_measurement(ens)
        assert not any(map(is_blocked, povm))
        # the square-root measurement with numpy alone
        mats = [st.matrix for st in states]
        w, vecs = np.linalg.eigh(sum(mats) / N)
        keep = w > 1e-10 * w.max()
        inv_sqrt = (vecs[:, keep] / np.sqrt(w[keep])) @ vecs[:, keep].T
        reference = math.fsum(
            float(np.trace(m @ inv_sqrt @ m @ inv_sqrt)) / N**2 for m in mats
        )
        assert success_probability(ens, povm) == pytest.approx(reference, abs=1e-12)
        assert success_probability(ens, povm) < success_probability(
            cached_ensemble(d, N), list(cached_pgm(d, N))
        )

    def test_off_sector_indefinite_state_rejected(self):
        # +-eps on two zero rows in different sectors: eigenvalues +-eps,
        # which every block of the sectors would miss
        d, N, eps = 2, 3, 1e-3
        states = list(cached_ensemble(d, N).states)
        i, j = kernel_pair_across_sectors(states[1])
        m = states[1].matrix.copy()
        m[i, j] = m[j, i] = eps
        states[1] = DenseOperator(m, states[1].factor_dims)
        assert not is_blocked(states[1])
        low = np.linalg.eigvalsh(m).min()
        assert low == pytest.approx(-eps, abs=1e-15)
        with pytest.raises(ValueError, match=rf"^state 1 not PSD \(min eig {low:.3e}\)$"):
            Ensemble(states, [1 / N] * N)

    @pytest.mark.parametrize("off_sector", [True, False])
    def test_nan_rejected_on_or_off_the_sectors(self, off_sector):
        d, N = 2, 4
        sectors = oracle_mod._Sectors.weights((d,) * (N + 1))
        big = next(s for s in sectors.index if s.size > 1)
        k, j = (sectors.index[0][0], big[0]) if off_sector else (big[0], big[1])
        states = list(cached_ensemble(d, N).states)
        states[2] = with_entry(states[2], math.nan, k, j)
        # a NaN equals no entry, so no letter orbit holds it
        assert not is_blocked(states[2])
        with pytest.raises(ValueError, match="^state 2 has non-finite entries$"):
            Ensemble(states, [1 / N] * N)
        povm = list(cached_pgm(d, N))
        povm[2] = with_entry(povm[2], math.nan, k, j)
        with pytest.raises(ValueError, match="^POVM element 2 has non-finite entries$"):
            success_probability(cached_ensemble(d, N), povm)


class TestLetterOrbits:
    """A permutation of the letters maps each weight sector onto another:
    covariant operators are held as one representative block per orbit,
    measured entry against gathered entry for operators from outside; any
    other operator is held dense."""

    @pytest.mark.parametrize("d, N", [(d, N) for d in (1, 2, 3, 4) for N in range(1, 6)])
    def test_budget_counts_the_representatives_exactly(self, d, N):
        sectors = oracle_mod._Sectors.weights((d,) * (N + 1))
        estimate = oracle_mod.check_oracle_size(d, N)
        largest = max(sectors.sizes)
        held = oracle_mod.LIVE_MEMBERS * sectors.size + oracle_mod.LAPACK_COPIES * largest**2
        assert estimate == oracle_mod.BASE_BYTES + 8 * held
        assert estimate == oracle_mod.check_oracle_size(d, N, layout=sectors)
        # the stand-ins are lower bounds
        assert oracle_mod._orbit_entries(d, N, 0) <= sectors.size
        held = zip(sectors.held, sectors.multiplicity)
        assert sum(m * sectors.sizes[k] ** 2 for k, m in held) == sum(n * n for n in sectors.sizes)

    def test_orbit_members_are_letter_images(self):
        d, N = 3, 2
        sectors = oracle_mod._Sectors.weights((d,) * (N + 1))
        digits = np.array(np.unravel_index(np.arange(d ** (N + 1)), (d,) * (N + 1))).T
        for k, sector in enumerate(sectors.index):
            source = sectors._source[sector]
            assert np.array_equal(np.sort(source), sectors.index[sectors._rep[k]])
            # one letter permutation takes every string of the sector to its source
            letters = dict(zip(digits[sector].ravel(), digits[source].ravel()))
            assert len(set(letters.values())) == len(letters)
            assert np.array_equal(np.vectorize(letters.get)(digits[sector]), digits[source])
        assert [sectors.sizes[k] for k in sectors.held] == sorted(sectors.sizes[k] for k in sectors.held)

    @pytest.mark.parametrize("image, covariant", [(0, True), (1, False)])
    def test_entries_are_measured_at_their_positions(self, image, covariant):
        # one entry at local (0, 0) of a representative sector, and one in
        # its letter-swap partner whose image is local (image, image): both
        # sectors hold one entry of value 1, but only image 0 is covariant
        dims = (2, 2, 2)
        sectors = oracle_mod._Sectors.weights(dims)
        paired = zip(sectors.held, sectors.multiplicity)
        rep = next(k for k, m in paired if m == 2 and sectors.sizes[k] > 1)
        partner = next(j for j in range(len(sectors.sizes)) if sectors._rep[j] == rep != j)
        first = sectors.index[rep][0]
        member = sectors.index[partner]
        x = member[sectors._local[sectors._source[member]] == image][0]
        rows = np.array([first, x])
        op = oracle_mod._from_entries(dims, rows, rows, np.ones(2))
        expected = np.zeros((8, 8))
        expected[rows, rows] = 1.0
        layout = op._sectors
        assert (layout == sectors) == layout.blocked == covariant
        assert np.array_equal(op.matrix, expected)
        assert np.count_nonzero(op.matrix) == 2

    def test_outside_operators_are_measured(self):
        d, N = 2, 3
        rho = build_rho(d, N, 2)
        covariant = DenseOperator(rho.matrix, rho.factor_dims)
        layout = covariant._sectors
        assert layout == rho._sectors and layout.multiplicity == [2, 2, 1]
        # |0000><0000| added without its letter-swap image |1111><1111|
        off = DenseOperator(rho.matrix + np.diag(np.eye(rho.dim)[0]), rho.factor_dims)
        assert not is_blocked(off)
        assert np.array_equal(off.matrix, rho.matrix + np.diag(np.eye(rho.dim)[0]))

    def test_negative_eigenvalue_in_a_member_block_rejected(self):
        # rho_2 with -eps on a kernel diagonal entry of the sector that is
        # not its orbit's representative: the two member blocks differ, and
        # only the one outside the representatives is indefinite, so the
        # state is held dense
        d, N, eps = 2, 3, 1e-3
        states = list(cached_ensemble(d, N).states)
        orbits = oracle_mod._Sectors.weights((d,) * (N + 1))
        m = states[1].matrix.copy()
        member = next(k for k in range(len(orbits.sizes)) if orbits._rep[k] != k)
        x = next(x for x in orbits.index[member] if not m[x].any())
        m[x, x] = -eps
        states[1] = DenseOperator(m, states[1].factor_dims)
        assert not is_blocked(states[1])
        assert oracle_mod._lowest(orbits, held_data(orbits, m)) >= 0
        low = np.linalg.eigvalsh(m).min()
        assert low == pytest.approx(-eps, abs=1e-15)
        with pytest.raises(ValueError, match=rf"^state 1 not PSD \(min eig {low:.3e}\)$"):
            Ensemble(states, [1 / N] * N)
        with pytest.raises(ValueError, match=rf"^element 0 not PSD \(min eig {low:.3e}\)$"):
            oracle_mod._check_psd([states[1]], 1e-12, "element")

    def test_non_covariant_ensemble_equals_one_sector(self):
        # each rho_i mixed with |0..0><0..0|, which no letter permutation
        # keeps: sector-diagonal, not covariant, not a port orbit, so every
        # operator is held as one sector of every index
        d, N = 2, 3
        corner = np.diag(np.eye(d ** (N + 1))[0])
        mats = [0.9 * build_rho(d, N, i).matrix + 0.1 * corner for i in range(1, N + 1)]
        ens = Ensemble([DenseOperator(m, (d,) * (N + 1)) for m in mats], [0.5, 0.3, 0.2])
        povm = pretty_good_measurement(ens)
        k = sum(p * m @ e.matrix for p, m, e in zip(ens.probs, mats, povm))
        K = DenseOperator((k + k.T) / 2, ens.factor_dims)
        report = certify_optimality(ens, povm, K)
        assert not any(map(is_blocked, (*ens.states, *povm, K)))
        # the square-root measurement with numpy alone
        w, vecs = np.linalg.eigh(sum(p * m for p, m in zip(ens.probs, mats)))
        keep = w > 1e-10 * w.max()
        inv_sqrt = (vecs[:, keep] / np.sqrt(w[keep])) @ vecs[:, keep].T
        reference = math.fsum(
            p * p * float(np.trace(m @ inv_sqrt @ m @ inv_sqrt)) for p, m in zip(ens.probs, mats)
        )
        assert success_probability(ens, povm) == pytest.approx(reference, abs=1e-12)
        assert report.success_probability == pytest.approx(reference, abs=1e-12)
        assert report.dual_value == pytest.approx(np.trace(k), abs=1e-12)
        assert report.feasibility <= per_state_minimum(ens, K) + 1e-12

    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_repeated_spectra_equal_the_plain_sectors(self, dn):
        d, N = dn
        ens = cached_ensemble(d, N)
        c = random_valid_coefficients(d, N, np.random.default_rng(97))
        operators = [
            average_state(ens), cached_pgm(d, N)[0], cached_certificate_x(d, N),
            certificate_Y(d, N, c), eta_ensemble(d, N, c).states[0],
        ]
        for op in operators:
            sectors = op._sectors
            assert sectors == oracle_mod._Sectors.weights(op.factor_dims)
            # every weight sector's block of the full matrix, decomposed alone
            m = op.matrix
            plain = np.concatenate([np.linalg.eigvalsh(m[np.ix_(s, s)]) for s in sectors.index])
            repeated = oracle_mod.eigenvalues(op)
            assert repeated.size == op.dim
            assert np.max(np.abs(np.sort(repeated) - np.sort(plain))) <= 1e-12

    @pytest.mark.parametrize("dn", ORACLE_GRID + [(2, 6), (3, 4)])
    def test_constructions_are_held_in_letter_orbits(self, dn):
        # the oracle's own operators are covariant by construction: rho_1,
        # O x 1_B, E_1, X, Y and eta_1 are each held one block per letter
        # orbit, none dense
        d, N = dn
        c = random_valid_coefficients(d, N, np.random.default_rng(103))
        ens = pbt_ensemble(d, N)
        operators = [
            ens.states[0], oracle_mod._lifted_port_operator(d, N, c),
            pretty_good_measurement(ens)[0], certificate_X(d, N), certificate_Y(d, N, c),
            eta_ensemble(d, N, c).states[0],
        ]
        orbits = oracle_mod._Sectors.weights((d,) * (N + 1))
        assert len(orbits.held) < len(orbits.sizes)
        for op in operators:
            assert op._sectors == orbits

    @pytest.mark.parametrize("dn", [(2, 6), (3, 4), (3, 6)])
    def test_port_operator_and_projectors_are_held_in_letter_orbits(self, dn):
        # O and each P_mu commute with every slot and letter permutation bit
        # for bit, by construction, so they are held one block per letter
        # orbit of the letter-count sectors, and O x 1_B and eta_1 one block
        # per letter orbit of the weight sectors: none is dense
        d, N = dn
        c = random_valid_coefficients(d, N, np.random.default_rng(107))
        counts = oracle_mod._Sectors.counts((d,) * N)
        weights = oracle_mod._Sectors.weights((d,) * (N + 1))
        assert len(counts.held) < len(counts.sizes) and len(weights.held) < len(weights.sizes)
        port = build_port_operator(d, N, c)
        projectors = [young_projector(mu, d) for mu in enumerate_partitions(N, d)]
        assert all(op._sectors == counts for op in [port, *projectors])
        steered = [oracle_mod._lifted_port_operator(d, N, c), eta_ensemble(d, N, c).states[0]]
        assert all(op._sectors == weights for op in steered)
        # the full O, gathered by each transposition of two slots and by the
        # cyclic shift of the letters
        m, dims = port.matrix, (d,) * N
        digits = np.array(np.unravel_index(np.arange(d**N), dims))
        shift = np.ravel_multi_index((digits + 1) % d, dims)
        swaps = []
        for j, k in itertools.combinations(range(N), 2):
            order = list(range(N))
            order[j], order[k] = k, j
            swaps.append(oracle_mod.slot_gather(dims, order))
        # the oracle's transpositions are these gathers
        built = [tuple(g) for g in oracle_mod._transpositions(d, N)]
        assert sorted(built) == sorted(map(tuple, swaps))
        for g in [shift, *swaps]:
            assert np.array_equal(m[np.ix_(g, g)], m)

    @pytest.mark.parametrize("mode, d, N, built", [("standard", 2, 8, 1), ("optimized", 2, 6, 1)])
    def test_layouts_built_per_run(self, monkeypatch, mode, d, N, built):
        # ``built`` orbit layouts for (C^d)^(N+1), kept for its dims and
        # shared by rho_1, O x 1_B and everything built from them; a steered
        # run adds one for O on (C^d)^N, and no run a dense layout. A second
        # run builds none
        c = optimize_coefficients(d, N).coefficients if mode == "optimized" else None
        sectors_mod._layouts.clear()
        layouts = []
        real_init = oracle_mod._Sectors.__init__

        def init(self, *args):
            layouts.append(self)
            real_init(self, *args)

        monkeypatch.setattr(oracle_mod._Sectors, "__init__", init)
        for count in (built, 0):
            layouts.clear()
            assert all(ch.passed for ch in run_verification(d, N, mode, c))
            ports = [layout for layout in layouts if len(layout.dims) == N]
            assert len(ports) == (count and mode == "optimized")
            assert len(layouts) - len(ports) == count and all(layout.blocked for layout in layouts)

    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_input_state_is_letter_invariant(self, dn):
        # psi is O x 1_B scaled: equal bit for bit to its image under every
        # letter permutation, held in the POVM's letter orbits as built, so
        # that the channel counts each block by its multiplicity
        d, N = dn
        c = random_valid_coefficients(d, N, np.random.default_rng(101))
        povm = cached_pgm(d, N)
        images = letter_images(d, N + 1)
        for coefficients in (None, c):
            psi = oracle_mod._input_state(d, N, coefficients)
            assert psi._sectors == oracle_mod._Sectors.weights((d,) * (N + 1)) == povm.first._sectors
            assert all(np.array_equal(psi.matrix[np.ix_(g, g)], psi.matrix) for g in images)
            formula = (fidelity_standard(d, N) if coefficients is None
                       else fidelity_given_coefficients(d, N, coefficients))
            direct = teleportation_fidelity_direct(d, N, povm, coefficients)
            assert direct == pytest.approx(formula.fidelity, abs=1e-9)

    def test_many_sectors_validate_in_one_call_per_size(self, monkeypatch):
        # (16, 2): 1936 weight sectors in 3 letter orbits
        d, N = 16, 2
        povm = pretty_good_measurement(pbt_ensemble(d, N))
        sectors = povm.first._sectors
        assert len(sectors.sizes) == 1936 and sectors.multiplicity == [240, 1680, 16]
        counts, lapack = count_eigensolves(monkeypatch)
        direct = teleportation_fidelity_direct(d, N, povm)
        assert direct == pytest.approx(fidelity_standard(d, N).fidelity, abs=1e-12)
        assert counts == {"eigvalsh": 1} and len(lapack) == len({sectors.sizes[k] for k in sectors.held})


class TestYoungProjectors:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_projector_algebra(self, d, n):
        mus = enumerate_partitions(n, d)
        projs = [young_projector(mu, d) for mu in mus]
        for mu, proj in zip(mus, projs):
            assert np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix)) <= 1e-10
            assert proj.trace() == pytest.approx(
                specht_dim(mu) * weyl_dim(mu, d), abs=1e-9
            )
        for a in range(len(projs)):
            for b in range(a + 1, len(projs)):
                assert np.max(np.abs(projs[a].matrix @ projs[b].matrix)) <= 1e-10
        total = sum(p.matrix for p in projs)
        assert np.max(np.abs(total - np.eye(d**n))) <= 1e-10

    def test_symmetric_subspace_trace(self):
        for d, n in [(2, 3), (3, 3), (2, 5)]:
            proj = young_projector((n,), d)
            assert proj.trace() == pytest.approx(math.comb(n + d - 1, n), abs=1e-9)

    def test_single_box(self):
        assert np.allclose(young_projector((1,), 3).matrix, np.eye(3))

    def test_factorial_cap(self, monkeypatch):
        # no factorial term: a steered run adds STEERED_MEMBERS float64
        # arrays of one operator's data in the letter orbits of the weight
        # sectors
        estimate = oracle_mod.check_oracle_size(2, 7, steered=True)
        steered = oracle_mod.STEERED_MEMBERS * 8 * oracle_mod._Sectors.weights((2,) * 8).size
        assert estimate - oracle_mod.check_oracle_size(2, 7) == steered
        monkeypatch.setenv("PBT_ORACLE_BYTES", str(estimate - 1))
        with pytest.raises(SizeCapError, match="d=2, N=7"):
            young_projector((7,), 2)
        young_projector((6,), 2)

    @pytest.mark.parametrize("d, n", [(2, 6), (3, 4), (3, 6)])
    def test_projectors_are_idempotent_complete_and_of_measured_rank(self, d, n):
        # measured in ulp of 1 at (2, 6), (3, 4) and (3, 6): P^2 - P at
        # most 3.0, 0.75 and 16.8; P_mu P_nu at most 3.1, 0.41 and 12.3;
        # sum_mu P_mu - 1 at most 2.0, 1.25 and 8.2
        eps = np.finfo(float).eps
        mus = enumerate_partitions(n, d)
        projs = [young_projector(mu, d).matrix for mu in mus]
        for mu, p in zip(mus, projs):
            assert np.abs(p @ p - p).max() <= 32 * eps
            # the rank, as eigenvalues above 1/2 counted, is d_mu m_mu
            rank = np.count_nonzero(np.linalg.eigvalsh(p) > 0.5)
            assert rank == specht_dim(mu) * weyl_dim(mu, d), mu
        for a, b in itertools.combinations(projs, 2):
            assert np.abs(a @ b).max() <= 32 * eps
        assert np.abs(sum(projs) - np.eye(d**n)).max() <= 16 * eps

    def test_content_sum_collision_is_separated(self, monkeypatch):
        # (4,1,1) and (3,3) both have content sum 3, the first collision of
        # diagrams with at most d rows; the second power sums, 19 and 7,
        # split them
        d, n = 3, 6
        mus = enumerate_partitions(n, d)
        sums = dict(zip(mus, oracle_mod._content_sums(mus)))
        assert sums[(4, 1, 1)] == (3, 19) and sums[(3, 3)] == (3, 7)
        _, lapack = count_eigensolves(monkeypatch)
        a, b = young_projector((4, 1, 1), d), young_projector((3, 3), d)
        # per projector, one eigh of T in each of the 7 held blocks, and one
        # of p_2 on the shared eigenvalue 3 in the 4 blocks of the letter
        # counts (4,1,1), (3,3), (3,2,1) and (2,2,2) that hold either diagram
        assert len(a._sectors.held) == 7 and len(lapack) == 2 * (7 + 4)
        for mu, p in [((4, 1, 1), a.matrix), ((3, 3), b.matrix)]:
            rank = np.count_nonzero(np.linalg.eigvalsh(p) > 0.5)
            assert rank == specht_dim(mu) * weyl_dim(mu, d) == {(4, 1, 1): 100, (3, 3): 50}[mu]
        assert np.abs(a.matrix @ b.matrix).max() <= 32 * np.finfo(float).eps

    def test_inseparable_diagrams_raise_a_named_error(self):
        # the separation is computed from the list of diagrams: a list whose
        # content power sums never differ cannot be labelled
        assert oracle_mod._content_sums([(2, 1), (3,)]) == [(0,), (3,)]
        with pytest.raises(oracle_mod.SeparationError, match=r"do not tell the diagrams"):
            oracle_mod._content_sums([(2, 1), (2, 1)])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lemma_partial_trace_identity(self, d, n):
        # tr_1 P_mu = m_mu * sum over removable rows of P_{mu - eps_i} / m_{mu-eps_i}
        for mu in enumerate_partitions(n, d):
            lhs = partial_trace_first(young_projector(mu, d)).matrix
            rhs = np.zeros_like(lhs)
            for rel in remove_box_predecessors(mu):
                rhs = rhs + (
                    weyl_dim(mu, d) / weyl_dim(rel.alpha, d)
                ) * young_projector(rel.alpha, d).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-10


def _basis_permutation(perm, d):
    """R(perm) column by column: e_{i_1} x ... x e_{i_n} goes to the product
    with e_{i_k} in slot perm[k]."""
    n = len(perm)
    eye = np.eye(d)
    cols = []
    for digits in itertools.product(range(d), repeat=n):
        moved = [None] * n
        for k, i in enumerate(digits):
            moved[perm[k]] = eye[i]
        cols.append(functools.reduce(np.kron, moved))
    return np.array(cols).T


def _transpose_reorder(matrix, dims, new_order):
    """Slot reordering by reshape and transpose of the operator tensor."""
    n = len(dims)
    axes = list(new_order) + [n + k for k in new_order]
    return matrix.reshape(*dims, *dims).transpose(axes).reshape(matrix.shape)


class TestSlotGather:
    def test_gather_definition_on_mixed_dims(self):
        dims = (2, 3, 2)
        v = np.arange(12)
        for order in itertools.permutations(range(3)):
            moved = v[oracle_mod.slot_gather(dims, order)].reshape([dims[k] for k in order])
            for old in np.ndindex(*dims):
                assert moved[tuple(old[k] for k in order)] == v.reshape(dims)[old]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_permutation_operator_against_basis_vectors(self, d, n):
        # non-involutions (3-cycles, 4-cycles) tell perm from its inverse
        for perm in itertools.permutations(range(n)):
            assert np.array_equal(permutation_operator(perm, d), _basis_permutation(perm, d))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_young_projector_equals_character_sum(self, d, n):
        # the spectral projectors against character averaging, whose integer
        # sums round once: measured at most 1.125 ulp of 1 at d <= 2 and at
        # (3, 1..5), and 8.7 ulp at (3, 6), where (4,1,1) and (3,3) share
        # their content sum and are split by the second power sum
        for mu in enumerate_partitions(n, d):
            error = np.abs(young_projector(mu, d).matrix - character_average(mu, d)).max()
            assert error <= 16 * np.finfo(float).eps, mu

    def test_projectors_build_no_permutation_matrix(self, monkeypatch):
        # the permutation matrices are a test reference, outside the package
        assert not hasattr(oracle_mod, "permutation_operator")

        def forbidden(*args, **kwargs):
            raise AssertionError("identity matrix built")

        monkeypatch.setattr(np, "eye", forbidden)
        for mu in enumerate_partitions(4, 3):
            young_projector(mu, 3)
        build_port_operator(2, 4, PortCoefficients.uniform(2, 4))

    def test_reorder_and_embed_on_mixed_dims(self):
        rng = np.random.default_rng(11)
        dims = (2, 3, 2)
        m = rng.standard_normal((12, 12))
        for order in itertools.permutations(range(3)):
            assert np.array_equal(
                reorder_factors(m, dims, list(order)),
                _transpose_reorder(m, dims, order),
            )
        for slots in ([0], [1], [2], [0, 2], [2, 0], [1, 2], [2, 1, 0]):
            small = rng.standard_normal((math.prod(dims[k] for k in slots),) * 2)
            sub = [dims[k] for k in slots]
            others = [k for k in range(3) if k not in slots]
            expected = np.zeros((12, 12))
            for row in np.ndindex(*dims):
                for col in np.ndindex(*dims):
                    if all(row[k] == col[k] for k in others):
                        r = np.ravel_multi_index([row[k] for k in slots], sub)
                        c = np.ravel_multi_index([col[k] for k in slots], sub)
                        expected[np.ravel_multi_index(row, dims), np.ravel_multi_index(col, dims)] = small[r, c]
            assert np.array_equal(embed_operator(small, slots, dims), expected)

    @pytest.mark.parametrize("d, N", [(2, 2), (2, 4), (3, 3)])
    def test_port_swaps_equal_conjugation(self, d, N):
        m = np.random.default_rng(5).standard_normal((d ** (N + 1),) * 2)
        for k, g in enumerate(oracle_mod._port_swaps(d, N), start=1):
            perm = list(range(N + 1))
            perm[0], perm[k] = k, 0
            pm = permutation_operator(tuple(perm), d)
            assert np.array_equal(m[np.ix_(g, g)], pm @ m @ pm.T)


class TestPartialTrace:
    def test_first_factor_of_pair(self):
        assert np.allclose(
            partial_trace_first(maximally_entangled(3)).matrix, np.eye(3) / 3
        )

    def test_two_row_example(self):
        # tr_1 P_(2) at d=2: (m_(2)/m_(1)) P_(1) = (3/2) * identity
        out = partial_trace_first(young_projector((2,), 2)).matrix
        assert np.allclose(out, 1.5 * np.eye(2), atol=1e-12)

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        op = DenseOperator(m, (2, 3, 2))
        assert partial_trace(op, [1]).matrix.trace() == pytest.approx(m.trace())
        assert partial_trace_first(op).matrix.trace() == pytest.approx(m.trace())

    def test_single_factor_rejected(self):
        with pytest.raises(ValueError):
            partial_trace_first(DenseOperator(np.eye(2), (2,)))


class TestPortOperator:
    def test_uniform_coefficients_give_identity(self):
        ones = PortCoefficients.uniform(2, 3)
        op = build_port_operator(2, 3, ones)
        assert np.allclose(op.matrix, np.eye(8), atol=1e-12)

    def test_known_2_2_operator(self):
        c = PortCoefficients.from_mapping(2, 2, {(2,): 2 / 3, (1, 1): 2.0})
        op = build_port_operator(2, 2, c)
        expected = math.sqrt(2 / 3) * young_projector((2,), 2).matrix + math.sqrt(
            2.0
        ) * young_projector((1, 1), 2).matrix
        assert np.allclose(op.matrix, expected, atol=1e-12)
        assert np.trace(op.matrix @ op.matrix).real == pytest.approx(4.0, abs=1e-10)

    @pytest.mark.parametrize("dn", [(2, 6), (3, 4)])
    def test_one_permutation_table_for_all_projectors(self, monkeypatch, dn):
        # O from one decomposition per block, against the sum of the
        # character averages: measured 1.24 ulp of the largest sqrt(c) at
        # (2, 6) and 0.88 at (3, 4); no permutation table is built
        d, N = dn
        c = random_valid_coefficients(d, N, np.random.default_rng(67))
        expected = sum(math.sqrt(weight) * character_average(mu, d) for mu, weight in c.items())
        assert not hasattr(oracle_mod, "_permutation_table")
        _, lapack = count_eigensolves(monkeypatch)
        op = build_port_operator(d, N, c)
        assert len(lapack) == len(op._sectors.held)  # one eigh per held block
        scale = max(math.sqrt(weight) for _, weight in c.items())
        assert np.max(np.abs(op.matrix - expected)) <= 4 * scale * np.finfo(float).eps

    def test_normalisation_and_symmetries(self):
        rng = np.random.default_rng(17)
        d, N = 2, 3
        c = random_valid_coefficients(d, N, rng)
        op = build_port_operator(d, N, c).matrix
        assert np.trace(op @ op).real == pytest.approx(d**N, abs=1e-10)
        assert np.linalg.eigvalsh(op).min() >= -1e-12
        for perm in itertools.permutations(range(N)):
            pm = permutation_operator(perm, d)
            assert np.max(np.abs(pm @ op - op @ pm)) <= 1e-10
        for _ in range(5):
            U = haar_unitary(d, rng)
            lift = U
            for _ in range(N - 1):
                lift = np.kron(lift, U)
            assert np.max(np.abs(lift @ op - op @ lift)) <= 1e-10

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: build_port_operator(2, 4, c),
            lambda c: build_eta(2, 4, 1, c),
            lambda c: port_state_vector(2, 4, c),
            lambda c: eta_ensemble(2, 4, c),
            lambda c: certificate_Y(2, 4, c),
            lambda c: teleportation_fidelity_direct(2, 4, list(cached_pgm(2, 4)), c),
        ],
        ids=["port_operator", "eta", "port_state", "eta_ensemble", "certificate_Y", "channel"],
    )
    def test_coefficients_for_another_n_rejected(self, build):
        c = optimize_coefficients(2, 3).coefficients
        with pytest.raises(ValueError, match=r"^coefficients are for \(d, N\) = \(2, 3\)$"):
            build(c)

    def test_coefficients_for_another_d_rejected(self):
        c = PortCoefficients.uniform(3, 3)
        with pytest.raises(ValueError, match=r"^coefficients are for \(d, N\) = \(3, 3\)$"):
            teleportation_fidelity_direct(2, 3, list(cached_pgm(2, 3)), c)


class TestEtaStates:
    @pytest.mark.parametrize("dn", [(2, 3), (3, 2)])
    def test_one_port_operator_steers_like_build_eta(self, dn):
        d, N = dn
        c = random_valid_coefficients(d, N, np.random.default_rng(29))
        for i, eta in enumerate(steered_states(d, N, c), start=1):
            assert np.array_equal(eta.matrix, build_eta(d, N, i, c).matrix)

    def test_uniform_reduces_to_rho(self):
        ones = PortCoefficients.uniform(2, 3)
        for i, eta in enumerate(steered_states(2, 3, ones), start=1):
            assert np.allclose(eta.matrix, build_rho(2, 3, i).matrix, atol=1e-12)

    def test_unit_trace(self):
        c = PortCoefficients.from_mapping(2, 2, {(2,): 2 / 3, (1, 1): 2.0})
        for eta in steered_states(2, 2, c):
            assert eta.trace() == pytest.approx(1.0, abs=1e-10)

    def test_permutation_orbit(self):
        rng = np.random.default_rng(23)
        d, N = 2, 3
        c = random_valid_coefficients(d, N, rng)
        etas = [eta.matrix for eta in steered_states(d, N, c)]
        for perm in itertools.permutations(range(N)):
            pm = np.kron(permutation_operator(perm, d), np.eye(d))
            for i in range(N):
                assert np.max(np.abs(pm @ etas[i] @ pm.conj().T - etas[perm[i]])) <= 1e-12

    def test_eta_equals_traced_port_state(self):
        # conjugating rho_i must agree with tracing the steered pure port state
        d, N = 2, 3
        c = optimize_coefficients(d, N).coefficients
        vec = port_state_vector(d, N, c)
        full = DenseOperator(np.outer(vec, vec.conj()), (d,) * (2 * N))
        for i, eta in enumerate(steered_states(d, N, c), start=1):
            traced = [N + j for j in range(N) if j != i - 1]
            sigma = partial_trace(full, traced)
            assert np.max(np.abs(sigma.matrix - eta.matrix)) <= 1e-12


class TestCertificates:
    def test_x_trace_2_2(self):
        X = cached_certificate_x(2, 2)
        assert X.trace() == pytest.approx((2 + SQ3) / 2, abs=1e-12)

    def test_asymmetric_certificate_raises(self):
        # |0><0| |+><+| does not commute: sigma E = [[1/2, 1/2], [0, 0]]
        sigma = DenseOperator(np.diag([1.0, 0.0]), (2,))
        plus = DenseOperator(np.full((2, 2), 0.5), (2,))
        with pytest.raises(AssertionError, match=r"^certificate defect 5\.000e-01 above tolerance$"):
            oracle_mod.certificate([sigma], [plus])

    def test_length_mismatch_rejected(self):
        # zipped, three states against two elements would drop a term
        ens = cached_ensemble(2, 3)
        with pytest.raises(ValueError, match="got 2 elements for 3 states$"):
            oracle_mod.certificate(list(ens.states), list(cached_pgm(2, 3))[:2])

    def test_empty_sequences_rejected(self):
        with pytest.raises(ValueError, match="^need at least one state"):
            oracle_mod.certificate([], [])

    def test_povm_on_other_factor_dims_rejected(self):
        states = list(cached_ensemble(2, 3).states)
        povm = [DenseOperator(np.eye(8) / 3, (2, 2, 2))] * 3
        message = "POVM element 0 acts on factor dims (2, 2, 2), not (2, 2, 2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oracle_mod.certificate(states, povm)

    def test_no_orbit_is_trusted(self):
        # the route is chosen by the arguments alone: [rho_1] * 3 is no port
        # orbit, so against the PGM orbit each term rho_1 E_k is its own
        # product, and the sum has trace tr rho_1 = 1
        assert list(inspect.signature(oracle_mod.certificate).parameters) == ["states", "povm"]
        d, N = 2, 3
        povm = pretty_good_measurement(pbt_ensemble(d, N))
        rho_1 = build_rho(d, N, 1)
        cert = oracle_mod.certificate([rho_1] * N, povm)
        reference = sectors_mod.hermitize(sum(rho_1.matrix @ e.matrix for e in povm))
        assert np.max(np.abs(cert.matrix - reference)) <= 1e-15
        assert cert.trace() == pytest.approx(1.0, abs=1e-12)

    def test_x_spectrum_matches_blocks(self, oracle_grid):
        for d, N in oracle_grid:
            blocks = block_spectrum(d, N, "X")
            dev = match_block_spectrum(cached_certificate_x(d, N), blocks)
            assert dev <= 1e-9
            per_block, leftover = verify_mod.block_spectrum_match(
                oracle_mod.eigenvalues(cached_certificate_x(d, N)), blocks
            )
            assert dev == max([leftover] + [dev for _, dev in per_block])
            for (median, _), b in zip(per_block, blocks):
                assert median == pytest.approx(b.value, abs=1e-9)

    @pytest.mark.parametrize("d, N", [(2, 3), (3, 3)])
    def test_block_medians_equal_np_median(self, d, N):
        # the chunks are read off the sorted spectrum, so the median is too;
        # both points have odd and even multiplicities
        op = average_state(cached_ensemble(d, N))
        blocks = block_spectrum(d, N, "avg")
        eigvals = np.sort(oracle_mod.eigenvalues(op))
        top = eigvals[eigvals.size - sum(b.multiplicity for b in blocks) :]
        # the spectrum is sorted where it is matched
        per_block, _ = verify_mod.block_spectrum_match(eigvals[::-1], blocks)
        offset, parities = 0, set()
        for k in sorted(range(len(blocks)), key=lambda k: blocks[k].value):
            m = blocks[k].multiplicity
            parities.add(m % 2)
            assert per_block[k][0] == float(np.median(top[offset : offset + m]))
            offset += m
        assert parities == {0, 1}

    def test_x_dominates_each_state(self, oracle_grid):
        for d, N in oracle_grid:
            X = cached_certificate_x(d, N).matrix
            for i in range(1, N + 1):
                low = np.linalg.eigvalsh(X - build_rho(d, N, i).matrix).min()
                assert low >= -1e-9

    def test_x_unitary_symmetry(self):
        rng = np.random.default_rng(HAAR_SEED)
        for d, N in [(2, 3), (3, 2)]:
            X = cached_certificate_x(d, N).matrix
            for _ in range(10):
                lifted = lift_unitary(haar_unitary(d, rng), N)
                assert np.max(np.abs(lifted @ X - X @ lifted)) <= 1e-9

    def test_avg_unitary_symmetry(self):
        rng = np.random.default_rng(HAAR_SEED)
        for d, N in [(2, 3), (3, 2)]:
            avg = average_state(cached_ensemble(d, N)).matrix
            for _ in range(10):
                lifted = lift_unitary(haar_unitary(d, rng), N)
                assert np.max(np.abs(lifted @ avg - avg @ lifted)) <= 1e-9

    def test_x_permutation_symmetry(self):
        d, N = 2, 3
        X = cached_certificate_x(d, N).matrix
        for perm in itertools.permutations(range(N)):
            pm = np.kron(permutation_operator(perm, d), np.eye(d))
            assert np.max(np.abs(pm @ X - X @ pm)) <= 1e-10

    def test_y_with_uniform_coefficients_is_x(self):
        ones = PortCoefficients.uniform(2, 3)
        Y = certificate_Y(2, 3, ones)
        assert np.max(np.abs(Y.matrix - cached_certificate_x(2, 3).matrix)) <= 1e-12

    def test_y_spectrum_and_feasibility_random_c(self, oracle_grid):
        rng = np.random.default_rng(31)
        for d, N in oracle_grid:
            for _ in range(2):
                c = random_valid_coefficients(d, N, rng)
                Y = certificate_Y(d, N, c)
                assert match_block_spectrum(Y, block_spectrum(d, N, "Y", c)) <= 1e-9
                for eta in steered_states(d, N, c):
                    low = np.linalg.eigvalsh(Y.matrix - eta.matrix).min()
                    assert low >= -1e-9

    def test_y_trace_matches_eta_discrimination(self):
        rng = np.random.default_rng(37)
        d, N = 2, 3
        c = random_valid_coefficients(d, N, rng)
        Y = certificate_Y(d, N, c)
        ps = success_probability(eta_ensemble(d, N, c), list(cached_pgm(d, N)))
        assert Y.trace() / N == pytest.approx(ps, abs=1e-10)

    def test_optimal_c_reaches_perfect_discrimination_2_2(self):
        c = optimize_coefficients(2, 2).coefficients
        Y = certificate_Y(2, 2, c)
        assert Y.trace() / 2 == pytest.approx(1.0, abs=1e-9)
        ps = success_probability(eta_ensemble(2, 2, c), list(cached_pgm(2, 2)))
        assert ps == pytest.approx(1.0, abs=1e-9)

    def test_lemma_support_vector_value(self, oracle_grid):
        # every unit vector of the entangled-pair eigenspace of rho_1 sees
        # <xi| X^-1 |xi> = d^(N-1)
        rng = np.random.default_rng(41)
        for d, N in oracle_grid[:4]:
            X = cached_certificate_x(d, N)
            w, v = np.linalg.eigh(X.matrix)
            keep = w > 1e-10 * w.max()
            x_inv = (v[:, keep] / w[keep]) @ v[:, keep].conj().T
            phi = maximally_entangled_vector(d)
            for _ in range(3):
                vec = rng.standard_normal(d ** (N - 1)) + 1j * rng.standard_normal(
                    d ** (N - 1)
                )
                vec /= np.linalg.norm(vec)
                xi = np.kron(phi, vec)  # slots A_1, B, A_2..A_N
                order = [0] + list(range(2, N + 1)) + [1]
                xi = np.transpose(xi.reshape((d,) * (N + 1)), order).reshape(-1)
                val = (xi.conj() @ x_inv @ xi).real
                assert val == pytest.approx(d ** (N - 1), abs=1e-8)


    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_x_and_y_match_the_loop_formula(self, dn):
        d, N = dn
        X = cached_certificate_x(d, N).matrix
        assert np.max(np.abs(X - reference_certificate(d, N))) <= 1e-12
        c = random_valid_coefficients(d, N, np.random.default_rng(59))
        Y = certificate_Y(d, N, c).matrix
        assert np.max(np.abs(Y - reference_certificate(d, N, c))) <= 1e-12


class TestCertifyOptimality:
    def test_pgm_certified_by_x(self, oracle_grid):
        for d, N in oracle_grid:
            X = cached_certificate_x(d, N)
            report = certify_optimality(
                cached_ensemble(d, N),
                list(cached_pgm(d, N)),
                DenseOperator(X.matrix / N, X.factor_dims),
            )
            assert report.certified
            assert abs(report.gap) <= 1e-10
            assert report.feasibility >= -1e-10

    def test_pgm_certified_by_y_for_eta(self):
        rng = np.random.default_rng(43)
        for d, N in [(2, 2), (2, 3), (3, 2)]:
            c = random_valid_coefficients(d, N, rng)
            Y = certificate_Y(d, N, c)
            report = certify_optimality(
                eta_ensemble(d, N, c),
                list(cached_pgm(d, N)),
                DenseOperator(Y.matrix / N, Y.factor_dims),
            )
            assert report.certified

    def test_suboptimal_povm_reports_positive_gap(self):
        d, N = 2, 2
        ens = cached_ensemble(d, N)
        dim = ens.states[0].dim
        uniform = [
            DenseOperator(np.eye(dim) / N, ens.factor_dims)
            for _ in range(N)
        ]
        X = cached_certificate_x(d, N)
        report = certify_optimality(
            ens, uniform, DenseOperator(X.matrix / N, X.factor_dims)
        )
        assert not report.certified
        assert report.gap > 0.1  # strict suboptimality of the uniform split

    @pytest.mark.parametrize("dn", ORACLE_GRID)
    def test_feasibility_equals_the_per_state_minimum(self, dn):
        d, N = dn
        X = cached_certificate_x(d, N)
        ens = cached_ensemble(d, N)
        K = DenseOperator(X.matrix / N, X.factor_dims)
        report = certify_optimality(ens, list(cached_pgm(d, N)), K)
        assert abs(report.feasibility - per_state_minimum(ens, K)) <= 1e-12
        c = random_valid_coefficients(d, N, np.random.default_rng(71))
        Y = certificate_Y(d, N, c)
        etas = eta_ensemble(d, N, c)
        K = DenseOperator(Y.matrix / N, Y.factor_dims)
        report = certify_optimality(etas, list(cached_pgm(d, N)), K)
        assert abs(report.feasibility - per_state_minimum(etas, K)) <= 1e-12

    @pytest.mark.parametrize("dn", [(2, 3), (3, 2)])
    def test_feasibility_is_a_lower_bound_without_port_symmetry(self, dn):
        # a traceless perturbation on slot A_1 alone breaks the port symmetry
        # and keeps the gap at zero, so only feasibility can fail
        d, N = dn
        ens = cached_ensemble(d, N)
        povm = list(cached_pgm(d, N))
        X = cached_certificate_x(d, N)
        a = np.random.default_rng(73).standard_normal((d, d))
        h = a + a.T - np.trace(a + a.T) / d * np.eye(d)
        tilt = embed_operator(h, [0], X.factor_dims)
        infeasible = 0
        for eps in (1e-10, 1e-7, 1e-4, 1e-1):
            K = DenseOperator(X.matrix / N + eps * tilt, X.factor_dims)
            report = certify_optimality(ens, povm, K)
            true_min = per_state_minimum(ens, K)
            assert report.feasibility <= true_min + 1e-12
            assert report.swap_defect > 0
            assert abs(report.gap) <= 1e-12
            if true_min < -report.tolerance:
                infeasible += 1
                assert not report.certified
            else:
                assert report.certified
        assert infeasible == 3

    def test_asymmetric_candidate_feasible_for_the_first_port_only(self):
        # K = X/N - eps u u^T + eps/dim, with u a kernel vector of the second
        # constraint projected off the kernel of the first: the first
        # constraint stays PSD, the second does not, and the gap stays zero
        d, N = 2, 3
        ens = cached_ensemble(d, N)
        X = cached_certificate_x(d, N)
        base = X.matrix / N
        kernels = []
        for p, st in zip(ens.probs[:2], ens.states[:2]):
            w, v = np.linalg.eigh(base - p * st.matrix)
            kernels.append(v[:, w < 1e-9])
        first, second = kernels
        u = second[:, 0] - first @ (first.T @ second[:, 0])
        u /= np.linalg.norm(u)
        eps = 1e-3
        K = DenseOperator(
            base - eps * np.outer(u, u) + eps / X.dim * np.eye(X.dim),
            X.factor_dims,
        )
        report = certify_optimality(ens, list(cached_pgm(d, N)), K)
        first_min = np.linalg.eigvalsh(K.matrix - ens.probs[0] * ens.states[0].matrix).min()
        assert first_min >= -1e-12
        assert per_state_minimum(ens, K) < -report.tolerance
        assert abs(report.gap) <= 1e-12
        assert report.feasibility <= per_state_minimum(ens, K) + 1e-12
        assert not report.certified

    def test_non_port_layout_rejected(self):
        vecs = np.eye(3)
        states = [DenseOperator(np.outer(v, v), (3,)) for v in vecs]
        ens = Ensemble(states, [1 / 3] * 3)
        K = DenseOperator(np.eye(3) / 3, (3,))
        with pytest.raises(ValueError, match="port states"):
            certify_optimality(ens, pretty_good_measurement(ens), K)
        ens = cached_ensemble(2, 2)
        X = cached_certificate_x(2, 2)
        with pytest.raises(ValueError, match="port states"):
            certify_optimality(ens, list(cached_pgm(2, 2)), DenseOperator(X.matrix / 2, (8,)))

    def test_one_feasibility_eigensolve(self, monkeypatch):
        d, N = 2, 4
        ens = cached_ensemble(d, N)
        povm = list(cached_pgm(d, N))
        X = cached_certificate_x(d, N)
        success_probability(ens, povm)  # the average's decomposition, cached
        # the POVM validation inside the success probability is not feasibility
        monkeypatch.setattr(oracle_mod, "_check_psd", lambda *args: None)
        counts, lapack = count_eigensolves(monkeypatch)
        report = certify_optimality(
            ens, povm, DenseOperator(X.matrix / N, X.factor_dims)
        )
        assert report.certified
        assert counts == {"eigvalsh": 1}
        assert max(lapack) <= largest_sector(d, N)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_candidate_rejected(self, bad):
        X = cached_certificate_x(2, 2)
        K = with_entry(DenseOperator(X.matrix / 2, X.factor_dims), bad, 3, 3)
        with pytest.raises(ValueError, match="^dual candidate K has non-finite entries$"):
            certify_optimality(cached_ensemble(2, 2), list(cached_pgm(2, 2)), K)

    def test_non_hermitian_candidate_rejected(self):
        ens = cached_ensemble(2, 2)
        dim = ens.states[0].dim
        k = np.zeros((dim, dim))
        k[0, 1] = 1.0
        with pytest.raises(ValueError):
            certify_optimality(ens, list(cached_pgm(2, 2)), DenseOperator(k, ens.factor_dims))


class TestTeleportationChannel:
    def test_trivial_povm_single_port(self):
        povm = [DenseOperator(np.eye(4), (2, 2))]
        assert teleportation_fidelity_direct(2, 1, povm) == pytest.approx(0.25, abs=1e-12)

    def test_povm_on_other_factor_dims_rejected(self):
        # elements on (C^2)^2 for a channel that measures (C^2)^3
        povm = [DenseOperator(np.eye(4) / 2, (2, 2)) for _ in range(2)]
        message = "POVM element 0 acts on factor dims (2, 2), not (2, 2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            teleportation_fidelity_direct(2, 2, povm)

    def test_no_ports_rejected(self):
        with pytest.raises(ValueError, match="^need N >= 1 .* got 0 for N=0$"):
            teleportation_fidelity_direct(2, 0, [])

    def test_identity_channel_harness(self):
        # the fidelity functional itself: overlap of the target with itself is 1
        phi = maximally_entangled(2)
        target = maximally_entangled_vector(2)
        assert (target.conj() @ phi.matrix @ target).real == pytest.approx(1.0)

    @pytest.mark.parametrize("dn", [(2, 2), (2, 3), (3, 3)])
    def test_standard_channel_matches_formula(self, dn):
        d, N = dn
        povm = list(cached_pgm(d, N))
        direct = teleportation_fidelity_direct(d, N, povm)
        assert direct == pytest.approx(fidelity_standard(d, N).fidelity, abs=1e-9)
        assert direct == pytest.approx(dense_channel_fidelity(d, N, povm), abs=1e-12)

    def test_steered_channel_matches_formula(self):
        d, N = 2, 2
        rep = optimize_coefficients(d, N)
        povm = list(cached_pgm(d, N))
        direct = teleportation_fidelity_direct(d, N, povm, rep.coefficients)
        assert direct == pytest.approx(rep.fidelity, abs=1e-9)
        reference = dense_channel_fidelity(d, N, povm, rep.coefficients)
        assert direct == pytest.approx(reference, abs=1e-12)

    def test_steered_channel_random_coefficients(self):
        rng = np.random.default_rng(47)
        d, N = 2, 3
        c = random_valid_coefficients(d, N, rng)
        povm = list(cached_pgm(d, N))
        direct = teleportation_fidelity_direct(d, N, povm, c)
        assert direct == pytest.approx(
            fidelity_given_coefficients(d, N, c).fidelity, abs=1e-9
        )
        assert direct == pytest.approx(dense_channel_fidelity(d, N, povm, c), abs=1e-12)

    def test_channel_validates_the_povm_with_one_eigensolve(self, monkeypatch):
        d, N = 2, 4
        povm = cached_pgm(d, N)
        counts, lapack = count_eigensolves(monkeypatch)
        direct = teleportation_fidelity_direct(d, N, povm)
        assert direct == pytest.approx(fidelity_standard(d, N).fidelity, abs=1e-9)
        assert counts == {"eigvalsh": 1}
        assert max(lapack) <= largest_sector(d, N)

    def test_haar_conjugated_povm_takes_one_sector(self):
        # U on B mixes the weights, so the POVM is one sector of every row
        d, N = 2, 3
        U = haar_unitary(d, np.random.default_rng(HAAR_SEED))
        V = np.kron(np.eye(d**N), U)
        povm = [DenseOperator(V @ e.matrix @ V.conj().T, e.factor_dims) for e in cached_pgm(d, N)]
        direct = teleportation_fidelity_direct(d, N, povm)
        assert not any(is_blocked(e) for e in povm)
        assert direct == pytest.approx(dense_channel_fidelity(d, N, povm), abs=1e-12)

    def test_port_state_with_overlapping_reaches(self, monkeypatch):
        # U on B_1 makes the rows of one POVM sector reach columns of w_i that
        # other sectors reach too: w_i is not block-diagonal, and its blocks
        # stay exact, with entries given twice at one (row, column) added
        d, N = 2, 3
        povm = cached_pgm(d, N)
        sectors = povm.first._sectors
        U = haar_unitary(d, np.random.default_rng(HAAR_SEED))
        # columns R, B_1, B_2..B_N: U acts on B_1
        psi = dense_input_state(d, N).reshape(d ** (N + 1), d, d, -1)
        psi = np.einsum("ij,rajb->raib", U, psi).reshape(d ** (N + 1), -1)
        rows, columns = np.nonzero(psi)
        values = psi[rows, columns] / math.sqrt(d)
        rows = rows % d**N * d + rows // d**N  # A_0 read last, as the B slot
        r, b = np.divmod(columns, d**N)
        for i in range(1, N + 1):
            # w_i = (1 x <Phi|_{R B_i}) psi, its rows in the POVM's order
            slots = psi.reshape(d, d**N, d, d ** (i - 1), d, d ** (N - i))
            w = np.einsum("xarprq->axpq", slots).reshape(d ** (N + 1), -1) / math.sqrt(d)
            step = d ** (N - i)
            keep = r == b // step % d
            other = b // (step * d) * step + b % step
            # each entry of w_i in two halves
            halves = [np.tile(x[keep], 2) for x in (rows, other, values / 2)]
            blocks = list(sectors.reached_blocks(halves))
            reaches = [reached for reached, _ in blocks]
            assert sum(c.size for c in reaches) > np.unique(np.concatenate(reaches)).size
            for k, (reached, block) in zip(sectors.held, blocks):
                assert np.array_equal(block, w[np.ix_(sectors.index[k], reached)])
                assert np.count_nonzero(block) == np.count_nonzero(w[sectors.index[k]])
        # this psi is not letter invariant: it is held dense, and so is the
        # POVM in the channel
        injected = as_input_state(d, N, psi)
        assert not is_blocked(injected)
        monkeypatch.setattr(oracle_mod, "_input_state", lambda *args: injected)
        direct = teleportation_fidelity_direct(d, N, povm)
        assert direct == pytest.approx(dense_channel_fidelity(d, N, povm, psi=psi), abs=1e-12)

    def test_channel_holds_one_povm_member_at_a_time(self, monkeypatch):
        # E_k is gathered as its branch starts, once E_(k-1) is freed
        live, held = [], []
        real_gather = oracle_mod._Sectors.gather

        def gather(self, data, g):
            held.append(sum(ref() is not None for ref in live))
            out = real_gather(self, data, g)
            live.append(weakref.ref(out))
            return out

        povm = pretty_good_measurement(pbt_ensemble(2, 6))
        monkeypatch.setattr(oracle_mod._Sectors, "gather", gather)
        teleportation_fidelity_direct(2, 6, povm)
        assert held == [0] * 5

    @pytest.mark.parametrize("dn", [(2, 2), (2, 3)])
    def test_entries_on_one_entry_of_w_add(self, monkeypatch, dn):
        # a psi with entries off a_0 = r puts d entries on each entry of
        # w_i = (1 x <Phi|_{R B_i}) psi: they add, none overwrites another.
        # psi is the sum of a random matrix's letter images, zero between
        # the weight sectors of rows (a, a_0) and columns (b, r), so that it
        # is held in the POVM's letter orbits; the d entries of one entry of
        # w_i share a sector. Letter invariant but across the sectors, the
        # same sum is held dense, and the channel reads the POVM dense too
        d, N = dn
        povm = list(cached_pgm(d, N))
        rng = np.random.default_rng(83)
        psi = rng.standard_normal((d ** (N + 1), d ** (N + 1), 2)) @ [1, 1j]
        psi = sum(psi[np.ix_(g, g)] for g in letter_images(d, N + 1))
        psi /= np.linalg.norm(psi)
        read = oracle_mod.slot_gather((d,) * (N + 1), [N, *range(N)])
        labels = oracle_mod._Sectors.weights((d,) * (N + 1))._labels[read]
        held = np.where(labels[:, None] == labels, psi, 0)
        held /= np.linalg.norm(held)
        for state, blocked in ((held, True), (psi, False)):
            injected = as_input_state(d, N, state)
            assert is_blocked(injected) == blocked
            monkeypatch.setattr(oracle_mod, "_input_state", lambda *args: injected)
            direct = teleportation_fidelity_direct(d, N, povm)
            assert direct == pytest.approx(dense_channel_fidelity(d, N, povm, psi=state), abs=1e-12)

    def test_steered_channel_reads_no_sector_expansion(self, monkeypatch):
        # O x 1_B is written block by block from O's blocks: no entry list
        # of the full port operator is formed
        d, N = 3, 4
        c = optimize_coefficients(d, N).coefficients
        povm = cached_pgm(d, N)

        def forbidden(sectors):
            raise AssertionError("_Sectors._expansion read")

        monkeypatch.setattr(oracle_mod._Sectors, "_expansion", property(forbidden))
        direct = teleportation_fidelity_direct(d, N, povm, c)
        assert direct == pytest.approx(fidelity_given_coefficients(d, N, c).fidelity, abs=1e-9)

    @pytest.mark.parametrize(
        "d, N, steered", [(31, 1, False), (16, 2, False), (8, 3, False), (8, 2, True)]
    )
    def test_channel_at_large_d(self, d, N, steered):
        # each branch is contracted with the target pair before any sum over
        # rows, so many small sectors at large d and small N stay cheap
        c = optimize_coefficients(d, N).coefficients if steered else None
        formula = fidelity_given_coefficients(d, N, c) if steered else fidelity_standard(d, N)
        povm = pretty_good_measurement(pbt_ensemble(d, N))
        start = time.perf_counter()
        direct = teleportation_fidelity_direct(d, N, povm, c)
        assert time.perf_counter() - start < 1.0
        assert direct == pytest.approx(formula.fidelity, abs=1e-9)

    def test_channel_at_the_cap_matches_the_formula(self):
        d, N = 2, 9
        povm = pretty_good_measurement(pbt_ensemble(d, N))
        direct = teleportation_fidelity_direct(d, N, povm)
        assert direct == pytest.approx(fidelity_standard(d, N).fidelity, abs=1e-9)

    def test_channel_fills_no_full_matrix(self, monkeypatch):
        d, N = 2, 8
        povm = pretty_good_measurement(pbt_ensemble(d, N))
        read, shapes = [], []
        real_matrix, real_matmul = DenseOperator.matrix, np.matmul

        def matrix(op):
            read.append(op)
            return real_matrix.func(op)

        def matmul(*operands, **kwargs):
            shapes.extend(np.shape(a) for a in operands)
            return real_matmul(*operands, **kwargs)

        monkeypatch.setattr(DenseOperator, "matrix", property(matrix))
        monkeypatch.setattr(np, "matmul", matmul)
        direct = teleportation_fidelity_direct(d, N, povm)
        assert direct == pytest.approx(fidelity_standard(d, N).fidelity, abs=1e-9)
        assert read == [] and not any("matrix" in vars(e) for e in povm)
        assert shapes and max(max(shape[-2:]) for shape in shapes) <= largest_sector(d, N) == 126

    def test_channel_cap(self, monkeypatch):
        # the channel is sized from the POVM's measured sectors: the weight
        # sectors of a sector-diagonal POVM, one sector of every row otherwise
        d, N = 2, 3
        blocked = list(cached_pgm(d, N))
        # a tiny entry off the sectors in place of every zero
        dense = [DenseOperator(e.matrix + (e.matrix == 0) * 1e-300, e.factor_dims) for e in blocked]
        sizes = [e._sectors.size for e in (blocked[0], dense[0])]
        assert sizes == [oracle_mod._Sectors.weights((d,) * (N + 1)).size, 16 * 16]
        budget = oracle_mod.check_oracle_size(d, N, layout=dense[0]._sectors) - 1
        monkeypatch.setenv("PBT_ORACLE_BYTES", str(budget))
        assert teleportation_fidelity_direct(d, N, blocked) == pytest.approx(
            fidelity_standard(d, N).fidelity, abs=1e-12
        )
        with pytest.raises(SizeCapError, match="d=2, N=3"):
            teleportation_fidelity_direct(d, N, dense)


class TestVerificationBundle:
    def test_standard_passes(self, oracle_grid):
        for d, N in oracle_grid[:3]:
            checks = run_verification(d, N, "standard")
            assert all(c.passed for c in checks)
            names = {c.name for c in checks}
            assert names == {
                "formula_vs_oracle",
                "avg_state_spectrum",
                "certificate_spectrum",
                "dual_feasibility",
                "duality_gap",
            }

    def test_given_coefficients_passes(self):
        rng = np.random.default_rng(53)
        c = random_valid_coefficients(2, 3, rng)
        checks = run_verification(2, 3, "given-coefficients", c)
        assert all(ch.passed for ch in checks)

    def test_standard_decomposes_each_operator_once(self, monkeypatch):
        d, N = 2, 4
        built = Counter()
        real_rho, real_pass = oracle_mod.build_rho, oracle_mod._discrimination
        real_defects = oracle_mod._swap_defects

        def counted_rho(*args):
            built["rho"] += 1
            return real_rho(*args)

        def counted_pass(*args):
            built["discrimination"] += 1
            return real_pass(*args)

        def counted_defects(*args):
            built["swap_defects"] += 1
            return real_defects(*args)

        monkeypatch.setattr(oracle_mod, "build_rho", counted_rho)
        monkeypatch.setattr(oracle_mod, "_discrimination", counted_pass)
        monkeypatch.setattr(oracle_mod, "_swap_defects", counted_defects)
        counts, lapack = count_eigensolves(monkeypatch, hermiticity=True)
        checks = run_verification(d, N, "standard")
        assert all(c.passed for c in checks)
        # rho_1 is built, rho_2..rho_N are its gathered images; the states
        # and the POVM are port orbits by construction, so the swap defects
        # are measured once, for the feasibility bound, in the one pass over
        # the states that also takes the success probability
        assert built == {"rho": 1, "discrimination": 1, "swap_defects": 1}
        # one eigh of the average state, whose eigenvalues are its spectrum
        # check; eigvalsh: port 1 of the states and of the POVM (exact orbits,
        # validated by port 1), the certificate's spectrum, one feasibility
        # eigensolve
        assert counts["eigh"] == 1
        assert counts["eigvalsh"] == 4
        # hermiticity is measured on port 1 of the states and of the POVM, on
        # sum_i rho_i E_i before symmetrising, and on K
        assert counts["hermiticity"] <= 4
        # every operator is decomposed block by block
        assert max(lapack) <= largest_sector(d, N)

    def test_orbits_are_gathered_once(self, monkeypatch):
        # an orbit holds M_1 and its gathers: a consumer reads member k by one
        # gather of M_1, and gathers any other array by each swap at most once
        stack, gathers = [("outside", object())], Counter()
        real_gather = oracle_mod._Sectors.gather

        def gather(self, data, g):
            gathers[stack[-1], id(data), id(g)] += 1
            return real_gather(self, data, g)

        def consumer(name, function):
            def wrapped(*args, **kwargs):
                stack.append((name, object()))  # one key per call
                try:
                    return function(*args, **kwargs)
                finally:
                    stack.pop()

            return wrapped

        monkeypatch.setattr(oracle_mod._Sectors, "gather", gather)
        post_init = consumer("Ensemble", oracle_mod.Ensemble.__post_init__)
        monkeypatch.setattr(oracle_mod.Ensemble, "__post_init__", post_init)
        for name in (
            "average_state",
            "pretty_good_measurement",
            "certificate",
            "success_probability",
            "certify_optimality",
            "teleportation_fidelity_direct",
        ):
            monkeypatch.setattr(oracle_mod, name, consumer(name, getattr(oracle_mod, name)))

        def per_consumer():
            assert set(gathers.values()) == {1}
            return Counter(name for (name, _), _, _ in gathers)

        assert all(c.passed for c in run_verification(2, 8, "standard"))
        # the normalised average, the stabilizer of rho_1 (in the PGM), the
        # certificate's terms, and in one pass rho_k, E_k and the images of
        # K - p rho_1, for the success probability and the feasibility bound;
        # the states are validated at port 1
        assert per_consumer() == {
            "average_state": 7,
            "pretty_good_measurement": 2,
            "certificate": 7,
            "certify_optimality": 21,
        }
        gathers.clear()
        ens = oracle_mod.pbt_ensemble(2, 8)
        povm = oracle_mod.pretty_good_measurement(ens)
        oracle_mod.teleportation_fidelity_direct(2, 8, povm)
        assert per_consumer() == {
            "average_state": 7,
            "pretty_good_measurement": 2,
            "teleportation_fidelity_direct": 7,
        }
        # no orbit keeps a member: each is gathered when read and freed after
        for orbit in (ens.states, povm):
            held = [getattr(orbit, name) for name in type(orbit).__slots__]
            assert [type(x) for x in held] == [DenseOperator, list]
            assert not hasattr(orbit, "__dict__") and orbit[1] is not orbit[1]
            member = weakref.ref(orbit[-1])
            assert member() is None

    def test_given_coefficients_decomposes_each_average_once(self, monkeypatch):
        d, N = 2, 3
        c = random_valid_coefficients(d, N, np.random.default_rng(61))
        counts, lapack = count_eigensolves(monkeypatch)
        checks = run_verification(d, N, "given-coefficients", c)
        assert all(ch.passed for ch in checks)
        # the rho and eta averages once each; eigvalsh: port 1 of the rho
        # states, the eta states and the POVM, the certificate's spectrum, one
        # feasibility eigensolve
        assert counts["eigh"] == 2
        assert counts["eigvalsh"] == 5
        assert max(lapack) <= largest_sector(d, N)

    def test_bad_mode_rejected(self, monkeypatch):
        # the mode and the coefficients are checked before anything is built
        built = []

        def spy(name):
            return lambda *args, **kwargs: built.append(name)

        for name in ("check_oracle_size", "build_rho", "pbt_ensemble", "pretty_good_measurement"):
            monkeypatch.setattr(oracle_mod, name, spy(name))
        for name in ("block_spectrum", "fidelity_standard", "fidelity_given_coefficients"):
            monkeypatch.setattr(verify_mod, name, spy(name))
        uniform = PortCoefficients.uniform(2, 2)
        for mode, c, message in [
            ("bogus", None, "unknown verification mode 'bogus'"),
            ("given-coefficients", None, "given-coefficients mode needs coefficients"),
            ("optimized", None, "optimized mode needs coefficients"),
            ("standard", uniform, "standard mode does not take coefficients"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                run_verification(2, 2, mode, c)
        assert built == []


class TestBuiltFromEntries:
    """rho_i, O x 1_B and the channel's input state are built from their
    nonzero entries; nothing in verification or the channel fills a full
    matrix, and every output equals the full-matrix constructions'."""

    def test_rho_equals_the_dense_construction(self, oracle_grid):
        for d, N in oracle_grid + [(1, 3), (2, 1), (4, 2)]:
            for i in range(1, N + 1):
                rho = build_rho(d, N, i)
                assert "matrix" not in vars(rho) and is_blocked(rho) == (d > 1)
                reference = dense_rho(d, N, i).matrix
                assert np.array_equal(rho.matrix, reference)
                assert np.array_equal(np.signbit(rho.matrix), np.signbit(reference))

    def test_entry_off_the_sectors_takes_the_dense_layout(self):
        dims = (2, 2, 2)
        op = oracle_mod._from_entries(dims, np.array([0, 1]), np.array([0, 2]), np.ones(2))
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[1, 2] = 1.0
        assert not is_blocked(op) and np.array_equal(op.matrix, expected)

    def test_lifted_port_operator_equals_the_kron(self, oracle_grid):
        rng = np.random.default_rng(71)
        for d, N in oracle_grid:
            c = random_valid_coefficients(d, N, rng)
            lifted = oracle_mod._lifted_port_operator(d, N, c)
            assert is_blocked(lifted)
            expected = np.kron(build_port_operator(d, N, c).matrix, np.eye(d))
            assert np.array_equal(lifted.matrix, expected)

    def test_input_state_equals_the_dense_construction(self, oracle_grid):
        # psi's rows (a, a_0) and columns (b, r) read back to the protocol
        # order (a_0, a) and (r, b)
        rng = np.random.default_rng(73)
        for d, N in oracle_grid:
            read = oracle_mod.slot_gather((d,) * (N + 1), [N, *range(N)])
            for c in (None, random_valid_coefficients(d, N, rng)):
                psi = oracle_mod._input_state(d, N, c)
                assert "matrix" not in vars(psi) and is_blocked(psi)
                assert np.array_equal(psi.matrix[np.ix_(read, read)], dense_input_state(d, N, c))

    def test_verification_reads_no_full_matrix(self, monkeypatch, oracle_grid):
        coefficients = {dn: optimize_coefficients(*dn).coefficients for dn in oracle_grid}

        def forbidden(op):
            raise AssertionError("DenseOperator.matrix read")

        monkeypatch.setattr(DenseOperator, "matrix", property(forbidden))
        for d, N in oracle_grid:
            assert all(c.passed for c in run_verification(d, N, "standard"))
            checks = run_verification(d, N, "optimized", coefficients[d, N])
            assert all(c.passed for c in checks)
        povm = pretty_good_measurement(pbt_ensemble(2, 4))
        direct = teleportation_fidelity_direct(2, 4, povm)
        assert direct == pytest.approx(fidelity_standard(2, 4).fidelity, abs=1e-9)

    @pytest.mark.parametrize("key", sorted(RECORDED_VERIFY))
    def test_verification_agrees_with_the_recorded_values(self, key):
        d, N, mode = key
        c = optimize_coefficients(d, N).coefficients if mode == "optimized" else None
        checks = run_verification(d, N, mode, c)
        assert [ch.name for ch in checks] == list(RECORDED_VERIFY[key])
        for ch in checks:
            deviation, passed = RECORDED_VERIFY[key][ch.name]
            assert ch.passed == passed and abs(ch.deviation - deviation) <= 1e-12

    def test_channel_agrees_with_the_recorded_values(self):
        for (d, N, mode), recorded in RECORDED_CHANNEL.items():
            c = optimize_coefficients(d, N).coefficients if mode == "optimized" else None
            direct = teleportation_fidelity_direct(d, N, cached_pgm(d, N), c)
            assert abs(direct - recorded) <= 1e-12

    @pytest.mark.parametrize(
        "d, N, kind",
        [(2, 10, "standard"), (2, 10, "optimized"), (2, 10, "channel"), (2, 10, "steered channel")],
    )
    def test_estimate_bounds_the_memory_growth(self, d, N, kind):
        # ru_maxrss growth over the import and the formula side, in a fresh
        # process: the full-matrix construction of rho_1 and the stored
        # orbit members took 192 MB at standard (2, 10), this one 35 MB
        script = (
            "import resource, sys\n"
            "import pbtfid.oracle as o\n"
            "from pbtfid import fidelity_given_coefficients, fidelity_standard\n"
            "from pbtfid import optimize_coefficients, run_verification\n"
            "d, N, kind = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]\n"
            "steered = kind in ('optimized', 'steered channel')\n"
            "c = optimize_coefficients(d, N).coefficients if steered else None\n"
            "formula = fidelity_given_coefficients(d, N, c) if steered else fidelity_standard(d, N)\n"
            "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "if kind.endswith('channel'):\n"
            "    povm = o.pretty_good_measurement(o.pbt_ensemble(d, N))\n"
            "    direct = o.teleportation_fidelity_direct(d, N, povm, c)\n"
            "    assert abs(direct - formula.fidelity) <= 1e-9\n"
            "    estimate = o.check_oracle_size(d, N, steered, layout=povm.first._sectors)\n"
            "else:\n"
            "    assert all(ch.passed for ch in run_verification(d, N, kind, c))\n"
            "    estimate = o.check_oracle_size(d, N, steered)\n"
            "growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base\n"
            "print(growth * 1024, estimate)\n"
        )
        # a new process's ru_maxrss starts at the resident size of the one
        # that spawned it, so a small launcher spawns the run
        launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
        result = subprocess.run(
            [sys.executable, "-c", launcher, sys.executable, "-c", script, str(d), str(N), kind],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        growth, estimate = map(int, result.stdout.split())
        assert growth <= estimate <= 2 * growth


def test_oracle_imports_only_the_pinned_fidelity_names():
    # the oracle is an independent ground truth: of the formula side it takes
    # the PortCoefficients data alone, and it reads no dimension formula (the
    # comparison lives in pbtfid.verify); its block layouts live in
    # pbtfid.sectors, a leaf that imports the standard library and numpy
    # alone, and no module at run time
    leaf = set(sys.stdlib_module_names) | {"numpy"}
    from_fidelity, imported = set(), set()
    for module_file in (oracle_mod.__file__, sectors_mod.__file__):
        for node in ast.walk(ast.parse(Path(module_file).read_text())):
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                names = {alias.name for alias in node.names}
                imported |= names
                if module_file == sectors_mod.__file__:
                    assert module.split(".")[0] in leaf, module
                assert module not in (".verify", "pbtfid.verify"), module
                if module in (".fidelity", "pbtfid.fidelity"):
                    from_fidelity |= names
                else:
                    assert not names & {"fidelity", "verify"}, module
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("pbtfid") for alias in node.names)
                if module_file == sectors_mod.__file__:
                    assert {alias.name.split(".")[0] for alias in node.names} <= leaf
            elif isinstance(node, ast.Name) and module_file == sectors_mod.__file__:
                assert node.id not in ("__import__", "importlib"), node.id
    assert from_fidelity == {"PortCoefficients"}
    assert not imported & {"specht_dim", "weyl_dim"}
    # the isotypic projectors come from the transposition class sum: no
    # character or cycle-type function of pbtfid.partitions is imported
    assert not {name for name in imported if "character" in name or "cycle" in name}
