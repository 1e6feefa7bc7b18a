"""Formula evaluation, the coefficient optimizer, bounds and scans."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbtfid import (
    PortCoefficients,
    add_box_successors,
    asymptote_standard,
    avg_state_eigenvalue,
    block_spectrum,
    box_incidence,
    enumerate_partitions,
    fidelity_given_coefficients,
    fidelity_standard,
    lower_bound_standard,
    opt_block_coefficient,
    optimize_coefficients,
    pgm_block_coefficient,
    remove_box_predecessors,
    scan,
    specht_dim,
    weyl_dim,
)
from pbtfid.fidelity import _principal_eigenpair

SQ3 = math.sqrt(3.0)


def random_valid_coefficients(d, N, rng):
    mus = enumerate_partitions(N, d)
    raw = rng.random(len(mus)) + 0.05
    total = sum(r * specht_dim(mu) * weyl_dim(mu, d) for r, mu in zip(raw, mus))
    scale = d**N / total
    return PortCoefficients(d, N, {mu: float(r * scale) for r, mu in zip(raw, mus)})


class TestBlockValues:
    def test_avg_eigenvalues_2_2(self):
        assert avg_state_eigenvalue(2, 2, (2,), (1,)) == Fraction(3, 4)
        assert avg_state_eigenvalue(2, 2, (1, 1), (1,)) == Fraction(1, 4)

    def test_avg_trace_identity_is_exact(self):
        # sum of r * m_alpha * d_mu over all blocks equals tr(rho_bar) = N
        for d, N in [(2, 4), (3, 3), (4, 2), (2, 9), (5, 3)]:
            total = Fraction(0)
            for alpha in enumerate_partitions(N - 1, d):
                for rel in add_box_successors(alpha, d):
                    total += avg_state_eigenvalue(d, N, rel.mu, alpha) * (
                        weyl_dim(alpha, d) * specht_dim(rel.mu)
                    )
            assert total == N

    def test_rejects_non_covering_pairs(self):
        with pytest.raises(ValueError):
            avg_state_eigenvalue(2, 2, (2,), (2,))
        with pytest.raises(ValueError):
            avg_state_eigenvalue(3, 3, (1, 1, 1), (2,))
        with pytest.raises(ValueError):
            pgm_block_coefficient(2, 4, (2, 2), (2, 2))

    def test_pgm_block_values_2_2(self):
        assert pgm_block_coefficient(2, 2, (2,), (1,)) == pytest.approx(
            (3 + SQ3) / 8, rel=1e-15
        )
        assert pgm_block_coefficient(2, 2, (1, 1), (1,)) == pytest.approx(
            (SQ3 + 1) / 8, rel=1e-15
        )

    def test_pgm_block_trace_identity(self, oracle_grid):
        # sum x * m_alpha * d_mu == N * p_succ == d^2 F^std
        for d, N in oracle_grid:
            total = 0.0
            for alpha in enumerate_partitions(N - 1, d):
                for rel in add_box_successors(alpha, d):
                    total += pgm_block_coefficient(d, N, rel.mu, alpha) * (
                        weyl_dim(alpha, d) * specht_dim(rel.mu)
                    )
            expected = N * fidelity_standard(d, N).success_probability
            assert total == pytest.approx(expected, rel=1e-12)

    def test_opt_block_uniform_reduces_to_pgm_trace(self):
        d, N = 2, 3
        ones = PortCoefficients.uniform(d, N)
        tr_y = tr_x = 0.0
        for alpha in enumerate_partitions(N - 1, d):
            for rel in add_box_successors(alpha, d):
                mult = weyl_dim(alpha, d) * specht_dim(rel.mu)
                tr_y += opt_block_coefficient(d, N, rel.mu, alpha, ones) * mult
                tr_x += pgm_block_coefficient(d, N, rel.mu, alpha) * mult
        assert tr_y == pytest.approx(tr_x, rel=1e-13)

    def test_opt_block_value_2_2(self):
        c = PortCoefficients(2, 2, {(2,): 2.0 / 3.0, (1, 1): 2.0})
        assert opt_block_coefficient(2, 2, (2,), (1,), c) == pytest.approx(0.5, rel=1e-14)

    def test_opt_block_trace_identity_random_c(self, oracle_grid):
        rng = np.random.default_rng(11)
        for d, N in oracle_grid:
            c = random_valid_coefficients(d, N, rng)
            total = 0.0
            for alpha in enumerate_partitions(N - 1, d):
                for rel in add_box_successors(alpha, d):
                    total += opt_block_coefficient(d, N, rel.mu, alpha, c) * (
                        weyl_dim(alpha, d) * specht_dim(rel.mu)
                    )
            expected = N * fidelity_given_coefficients(d, N, c).success_probability
            assert total == pytest.approx(expected, rel=1e-12)


class TestStandardFidelity:
    def test_single_port_is_exactly_inverse_d_squared(self):
        for d in range(1, 6):
            assert fidelity_standard(d, 1).fidelity == 1 / d**2

    def test_two_qubit_ports(self):
        assert fidelity_standard(2, 2).fidelity == pytest.approx(
            (2 + SQ3) / 8, rel=1e-15
        )

    def test_report_relation_and_range(self):
        for d, N in [(1, 1), (2, 7), (3, 5), (4, 3), (2, 150)]:
            rep = fidelity_standard(d, N)
            assert 0.0 <= rep.fidelity <= 1.0
            assert rep.fidelity == pytest.approx(
                rep.success_probability * N / d**2, rel=1e-14
            )
            assert 0.0 <= rep.success_probability <= 1.0

    def test_large_n_approaches_one_from_below(self):
        for n in (50, 100, 200):
            f = fidelity_standard(2, n).fidelity
            assert 1 - 3 / n <= f < 1
        # approaching 1 - 3/(4N): the gap ratio tends to 3/4
        ratio = 200 * (1 - fidelity_standard(2, 200).fidelity)
        assert abs(ratio - 0.75) < 0.01

    def test_exact_and_log_modes_agree(self):
        # (12, 40) overflows a base-(N+1) int64 packing of 12 rows
        points = [(d, n) for d in (1, 2, 3, 4) for n in range(1, 31)]
        for d, n in points + [(5, 40), (8, 40), (12, 40)]:
            fe = fidelity_standard(d, n, "exact-hybrid").fidelity
            fl = fidelity_standard(d, n, "log-domain").fidelity
            assert fl == pytest.approx(fe, rel=1e-12)

    def test_numeric_mode_selection(self, monkeypatch):
        assert fidelity_standard(2, 40).numeric_mode == "exact-hybrid"
        assert fidelity_standard(2, 41).numeric_mode == "log-domain"
        monkeypatch.setenv("PBT_EXACT_THRESHOLD", "10")
        assert fidelity_standard(2, 11).numeric_mode == "log-domain"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fidelity_standard(0, 3)
        with pytest.raises(ValueError):
            fidelity_standard(2, 0)
        with pytest.raises(ValueError):
            fidelity_standard(2, 3, numeric_mode="bogus")


class TestPortCoefficients:
    def test_uniform_is_valid(self):
        for d, N in [(2, 5), (3, 4), (1, 3)]:
            PortCoefficients.uniform(d, N).validate()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PortCoefficients.from_mapping(2, 2, {(2,): -1.0, (1, 1): 2.0})

    def test_rejects_wrong_diagram(self):
        with pytest.raises(ValueError):
            PortCoefficients.from_mapping(2, 2, {(1, 1, 1): 1.0})
        with pytest.raises(ValueError):
            PortCoefficients.from_mapping(2, 2, {(3,): 1.0})

    def test_rejects_bad_normalisation_with_residual(self):
        bad = PortCoefficients(2, 2, {(2,): 1.0, (1, 1): 2.0})
        with pytest.raises(ValueError, match="residual"):
            bad.validate()

    def test_missing_entries_default_to_zero(self):
        c = PortCoefficients(2, 2, {(1, 1): 4.0})
        c.validate()  # 4 * 1 * 1 == 4 == 2^2
        assert c.value((2,)) == 0.0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_rescaled_draws_validate(self, seed):
        rng = np.random.default_rng(seed)
        c = random_valid_coefficients(2, 4, rng)
        c.validate()


class TestGivenCoefficients:
    def test_uniform_recovers_standard(self):
        for d, N in [(2, 2), (2, 4), (3, 3)]:
            ones = PortCoefficients.uniform(d, N)
            assert fidelity_given_coefficients(d, N, ones).fidelity == pytest.approx(
                fidelity_standard(d, N).fidelity, rel=1e-14
            )

    def test_known_point_2_2(self):
        c = PortCoefficients(2, 2, {(2,): 2.0 / 3.0, (1, 1): 2.0})
        assert fidelity_given_coefficients(2, 2, c).fidelity == pytest.approx(
            0.5, rel=1e-14
        )

    def test_single_partition_n1(self):
        for d in (2, 3, 4):
            c = PortCoefficients(d, 1, {(1,): 1.0})
            assert fidelity_given_coefficients(d, 1, c).fidelity == pytest.approx(
                1 / d**2, rel=1e-15
            )

    def test_invalid_normalisation_rejected(self):
        bad = PortCoefficients(2, 3, {(3,): 1.0, (2, 1): 0.5})
        with pytest.raises(ValueError, match="residual"):
            fidelity_given_coefficients(2, 3, bad)

    def test_mismatched_dn_rejected(self):
        c = PortCoefficients.uniform(2, 3)
        with pytest.raises(ValueError):
            fidelity_given_coefficients(2, 4, c)

    def test_log_mode_agrees_on_random_c(self):
        rng = np.random.default_rng(5)
        for d, N in [(2, 6), (3, 5)]:
            c = random_valid_coefficients(d, N, rng)
            fe = fidelity_given_coefficients(d, N, c, "exact-hybrid").fidelity
            fl = fidelity_given_coefficients(d, N, c, "log-domain").fidelity
            assert fl == pytest.approx(fe, rel=1e-10)


def projected_gradient_maximum(d, N, n_starts=20, seed=424242):
    """Independent maximisation of the given-coefficients objective.

    Works on u with u_mu = sqrt(c_mu d_mu m_mu) constrained to the sphere
    sum u^2 = d^N, using the alpha-sum structure directly (never the
    incidence-matrix eigenproblem), and evaluates the final candidate
    through fidelity_given_coefficients.
    """
    mus = enumerate_partitions(N, d)
    index = {mu: k for k, mu in enumerate(mus)}
    groups = [
        [index[rel.mu] for rel in add_box_successors(alpha, d)]
        for alpha in enumerate_partitions(N - 1, d)
    ]
    radius = math.sqrt(d**N)
    row_weight = max(
        sum(len(g) for g in groups if k in g) for k in range(len(mus))
    )
    step = 0.45 / max(row_weight, 1)
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(n_starts):
        u = rng.random(len(mus)) + 0.01
        u *= radius / np.linalg.norm(u)
        prev = -math.inf
        for _ in range(20_000):
            grad = np.zeros(len(mus))
            value = 0.0
            for g in groups:
                t = float(u[g].sum())
                value += t * t
                grad[g] += 2.0 * t
            u = np.clip(u + step * grad, 0.0, None)
            u *= radius / np.linalg.norm(u)
            if abs(value - prev) <= 1e-13 * max(value, 1.0):
                break
            prev = value
        c = PortCoefficients(
            d,
            N,
            {
                mu: float(u[k] ** 2) / (specht_dim(mu) * weyl_dim(mu, d))
                for k, mu in enumerate(mus)
            },
        )
        best = max(best, fidelity_given_coefficients(d, N, c).fidelity)
    return best


class TestOptimize:
    @pytest.mark.parametrize("d, N", [(1, 4), (2, 7), (3, 9), (4, 12), (12, 14)])
    def test_box_incidence_csr_matches_box_moves(self, d, N):
        # the eigensolver's matvec sums in CSR order, so the arrays must not move
        B, mus = box_incidence(d, N)
        assert mus == enumerate_partitions(N, d)
        column = {mu: m for m, mu in enumerate(mus)}
        indptr, indices = [0], []
        for alpha in enumerate_partitions(N - 1, d):
            indices += [column[rel.mu] for rel in add_box_successors(alpha, d)]
            indptr.append(len(indices))
        assert B.shape == (len(indptr) - 1, len(mus))
        assert B.indptr.tolist() == indptr
        assert B.indices.tolist() == indices
        assert B.data.tolist() == [1.0] * len(indices)

    def test_two_qubit_optimum(self):
        rep = optimize_coefficients(2, 2)
        assert rep.fidelity == pytest.approx(0.5, abs=1e-12)
        assert rep.coefficients.value((2,)) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert rep.coefficients.value((1, 1)) == pytest.approx(2.0, rel=1e-12)
        # constraint: (2/3)*1*3 + 2*1*1 == 4 == d^N
        rep.coefficients.validate()
        assert rep.eigen_data.principal_eigenvalue == pytest.approx(2.0, abs=1e-12)
        assert rep.eigen_data.residual <= 1e-12
        assert not rep.degenerate

    def test_single_port(self):
        for d in (1, 2, 5):
            rep = optimize_coefficients(d, 1)
            assert rep.fidelity == pytest.approx(1 / d**2, rel=1e-14)

    def test_beats_standard(self):
        for d, N in [(2, 3), (2, 6), (3, 4), (4, 2)]:
            assert (
                optimize_coefficients(d, N).fidelity
                >= fidelity_standard(d, N).fidelity - 1e-12
            )

    def test_optimal_coefficients_validate_and_reproduce_f(self, oracle_grid):
        for d, N in oracle_grid:
            rep = optimize_coefficients(d, N)
            rep.coefficients.validate()
            again = fidelity_given_coefficients(d, N, rep.coefficients)
            assert again.fidelity == pytest.approx(rep.fidelity, rel=1e-12)

    def test_matches_projected_gradient_oracle(self, oracle_grid):
        for d, N in oracle_grid:
            direct = projected_gradient_maximum(d, N)
            assert optimize_coefficients(d, N).fidelity == pytest.approx(
                direct, abs=1e-8
            )

    def test_degenerate_top_eigenspace_is_flagged(self):
        # synthetic: B^T B with an exactly repeated top eigenvalue
        from scipy.sparse import csr_matrix

        B = csr_matrix(np.eye(2))
        lam, u, _, residual, degenerate = _principal_eigenpair(B, 2)
        assert degenerate
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert residual <= 1e-12
        assert u.min() >= -1e-12

    def test_large_point_runs_in_log_mode(self):
        rep = optimize_coefficients(2, 60)
        assert rep.numeric_mode == "log-domain"
        assert rep.fidelity >= fidelity_standard(2, 60).fidelity - 1e-12
        rep.coefficients.validate()


class TestBoundsAndScan:
    def test_asymptote_values(self):
        assert asymptote_standard(2, 100) == pytest.approx(0.9925)
        assert asymptote_standard(1, 7) == 1.0
        assert asymptote_standard(3, 10**9) == pytest.approx(1.0, abs=1e-8)

    def test_lower_bound_values(self):
        assert lower_bound_standard(2, 3) == 0.0
        assert lower_bound_standard(2, 12) == pytest.approx(0.75)
        assert lower_bound_standard(3, 80) == pytest.approx(0.9)

    def test_scan_standard_monotone_small(self):
        reports = scan(2, range(1, 5), mode="standard")
        values = [r.fidelity for r in reports]
        assert values == sorted(values)
        assert values[0] == 0.25

    def test_scan_respects_bounds(self):
        for rep in scan(3, range(1, 61), mode="standard"):
            assert lower_bound_standard(3, rep.N) <= rep.fidelity <= 1.0

    def test_scan_optimized_single(self):
        rep = scan(2, [1], mode="optimized")[0]
        assert rep.fidelity == pytest.approx(0.25, rel=1e-14)
        assert rep.mode == "optimized"

    def test_scan_rejects_empty_and_bad_mode(self):
        with pytest.raises(ValueError):
            scan(2, [], mode="standard")
        with pytest.raises(ValueError):
            scan(2, [1, 2], mode="given-coefficients")

    def test_d1_is_always_perfect(self):
        for rep in scan(1, range(1, 8), mode="standard"):
            assert rep.fidelity == 1.0


class TestBlockSpectrumTable:
    def test_avg_rows_2_2(self):
        rows = block_spectrum(2, 2, "avg")
        table = {(r.alpha, r.mu): (r.value, r.multiplicity) for r in rows}
        assert table[((1,), (2,))] == (0.75, 2)
        assert table[((1,), (1, 1))] == (0.25, 2)

    def test_multiplicity_sums_to_block_rank(self):
        for d, N in [(2, 3), (3, 3), (2, 5)]:
            rows = block_spectrum(d, N, "X")
            rank = sum(r.multiplicity for r in rows)
            assert rank == sum(
                weyl_dim(alpha, d) * specht_dim(rel.mu)
                for alpha in enumerate_partitions(N - 1, d)
                for rel in add_box_successors(alpha, d)
            )

    def test_y_requires_coefficients(self):
        with pytest.raises(ValueError):
            block_spectrum(2, 2, "Y")
