"""Formula evaluation, the coefficient optimizer, bounds and scans."""

import dataclasses
import decimal
import math
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbtfid import (
    PortCoefficients,
    SizeCapError,
    asymptote_standard,
    block_spectrum,
    enumerate_partitions,
    fidelity_given_coefficients,
    fidelity_standard,
    lower_bound_standard,
    optimize_coefficients,
    specht_dim,
    weyl_dim,
)
import pbtfid.fidelity as fidelity_mod
import pbtfid.partitions as partitions_mod
from pbtfid.fidelity import (
    DENSE_EIGEN_LIMIT,
    MP_DPS,
    NORMALISATION_RTOL,
    _cephes_lgamma,
    _fidelity_exact,
    _fidelity_log,
    _gram,
    _gram_matvec,
    _integer_tables,
    _log_dims,
    _principal_eigenpair,
    _successor_logsumexp,
)
from pbtfid.partitions import partition_level
from conftest import add_box_successors, box_incidence, uniform_coefficients

SQ3 = math.sqrt(3.0)


def random_valid_coefficients(d, N, rng):
    mus = enumerate_partitions(N, d)
    raw = rng.random(len(mus)) + 0.05
    total = sum(r * specht_dim(mu) * weyl_dim(mu, d) for r, mu in zip(raw, mus))
    scale = d**N / total
    return PortCoefficients.from_mapping(d, N, {mu: float(r * scale) for r, mu in zip(raw, mus)})


def block_values(d, N, operator, coefficients=None):
    """{(alpha, mu): (value, multiplicity)} of a ``block_spectrum`` table."""
    rows = block_spectrum(d, N, operator, coefficients)
    return {(b.alpha, b.mu): (b.value, b.multiplicity) for b in rows}


def block_trace(d, N, operator, coefficients=None):
    """sum of value * multiplicity over a ``block_spectrum`` table."""
    return sum(b.value * b.multiplicity for b in block_spectrum(d, N, operator, coefficients))


class TestBlockValues:
    def test_avg_eigenvalues_2_2(self):
        assert block_values(2, 2, "avg") == {((1,), (2,)): (0.75, 2), ((1,), (1, 1)): (0.25, 2)}

    def test_avg_trace_identity_is_exact(self):
        # each value is (d + content of the added box) / d^N rounded once,
        # the same rational as r = (N / d^N) m_mu d_alpha / (m_alpha d_mu),
        # and sum of r * m_alpha * d_mu equals tr(rho_bar) = N
        points = [(d, N) for d in range(1, 6) for N in range(1, 13)] + [(2, 1022), (3, 300)]
        for d, N in points:
            specht = lru_cache(maxsize=None)(specht_dim)
            weyl = lru_cache(maxsize=None)(lambda mu: weyl_dim(mu, d))
            total = 0
            for b in block_spectrum(d, N, "avg"):
                row = next(i for i, a in enumerate(b.alpha + (0,)) if b.mu[i] != a)
                content = b.mu[row] - 1 - row
                r = Fraction(N * weyl(b.mu) * specht(b.alpha), d**N * weyl(b.alpha) * specht(b.mu))
                assert r == Fraction(d + content, d**N), (d, N, b.alpha, b.mu)
                assert b.value == float(r)
                assert b.multiplicity == weyl(b.alpha) * specht(b.mu)
                total += (d + content) * b.multiplicity
            assert total == N * d**N

    def test_each_level_diagram_is_formed_once(self, monkeypatch):
        # the exact dimensions are level data: a verify-like flow at (3, 6)
        # forms each diagram's d_mu and m_mu once, and m_alpha once per alpha
        # and block spectrum; the log-domain routes form none
        formed = Counter()

        def counting(name, fn):
            def count(mu, *args):
                formed[name, mu] += 1
                return fn(mu, *args)

            return count

        specht, weyl = counting("specht", specht_dim), counting("weyl", weyl_dim)
        for module in (partitions_mod, fidelity_mod):
            monkeypatch.setattr(module, "specht_dim", specht, raising=False)
            monkeypatch.setattr(module, "weyl_dim", weyl)
        monkeypatch.setattr(partitions_mod, "_levels", {})
        d, N = 3, 6
        c = optimize_coefficients(d, N).coefficients
        PortCoefficients(d, N, c.weights)
        fidelity_given_coefficients(d, N, c)
        block_spectrum(d, N, "avg")
        block_spectrum(d, N, "Y", c)
        mus, alphas = enumerate_partitions(N, d), enumerate_partitions(N - 1, d)
        expected = {(name, mu): 1 for name in ("specht", "weyl") for mu in mus}
        assert formed == Counter({**expected, **{("weyl", alpha): 2 for alpha in alphas}})
        formed.clear()
        fidelity_standard(2, 500)
        optimize_coefficients(3, 150)
        assert not formed

    def test_pgm_block_values_2_2(self):
        values = block_values(2, 2, "X")
        assert values[(1,), (2,)][0] == pytest.approx((3 + SQ3) / 8, rel=1e-15)
        assert values[(1,), (1, 1)][0] == pytest.approx((SQ3 + 1) / 8, rel=1e-15)

    def test_pgm_block_trace_identity(self, oracle_grid):
        # sum x * m_alpha * d_mu == N * p_succ == d^2 F^std
        for d, N in oracle_grid:
            expected = N * fidelity_standard(d, N).success_probability
            assert block_trace(d, N, "X") == pytest.approx(expected, rel=1e-12)

    def test_opt_block_uniform_reduces_to_pgm_trace(self):
        d, N = 2, 3
        ones = uniform_coefficients(d, N)
        assert block_trace(d, N, "Y", ones) == pytest.approx(block_trace(d, N, "X"), rel=1e-13)

    def test_opt_block_value_2_2(self):
        c = PortCoefficients.from_mapping(2, 2, {(2,): 2.0 / 3.0, (1, 1): 2.0})
        assert block_values(2, 2, "Y", c)[(1,), (2,)][0] == pytest.approx(0.5, rel=1e-14)

    def test_opt_block_trace_identity_random_c(self, oracle_grid):
        rng = np.random.default_rng(11)
        for d, N in oracle_grid:
            c = random_valid_coefficients(d, N, rng)
            expected = N * fidelity_given_coefficients(d, N, c).success_probability
            assert block_trace(d, N, "Y", c) == pytest.approx(expected, rel=1e-12)


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
            fe = _fidelity_exact(d, n, None)
            fl = _fidelity_log(d, n, None)
            assert fl == pytest.approx(fe, rel=1e-12)

    def test_modes_agree_across_the_default_threshold(self):
        for d, n in [(d, n) for d in (2, 3, 4, 5) for n in range(38, 44)]:
            auto = fidelity_standard(d, n)
            expected = "exact-hybrid" if n <= 40 else "log-domain"
            assert auto.numeric_mode == expected, (d, n)
            fe = _fidelity_exact(d, n, None)
            fl = _fidelity_log(d, n, None)
            assert auto.fidelity == (fe if n <= 40 else fl)
            assert fl == pytest.approx(fe, rel=1e-12)

    def test_numeric_mode_selection(self):
        assert fidelity_standard(2, 40).numeric_mode == "exact-hybrid"
        assert fidelity_standard(2, 41).numeric_mode == "log-domain"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fidelity_standard(0, 3)
        with pytest.raises(ValueError):
            fidelity_standard(2, 0)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestScipyFreeKernels:
    """The formula side imports no scipy: its integer log-gamma, log-dimension
    and Perron kernels reproduce the scipy-based formulas bit for bit, which
    keeps every committed reference byte valid."""

    def test_cephes_lgamma_equals_gammaln(self):
        from scipy.special import gammaln

        # below 13 the factorial, then Stirling; 1000 and 1e8 switch the series
        ks = list(range(1, 200_001)) + [10**6, 10**8 - 1, 10**8, 10**8 + 1, 10**9]
        ours = [_cephes_lgamma(k) for k in ks]
        assert np.array_equal(bits(ours), bits(gammaln(np.array(ks, dtype=float))))
        table = _integer_tables(5000)[0]
        assert np.array_equal(bits(table[1:5001]), bits(ours[:5000]))

    @staticmethod
    def scipy_log_specht(mat, n):
        from scipy.special import gammaln

        K, d = mat.shape
        ell = mat + (d - 1 - np.arange(d))[None, :]
        val = np.full(K, math.lgamma(n + 1))
        for i in range(d):
            for j in range(i + 1, d):
                val += np.log(ell[:, i] - ell[:, j])
            val -= gammaln(ell[:, i] + 1)
        return val

    @staticmethod
    def numpy_log_weyl(mat):
        K, d = mat.shape
        val = np.zeros(K)
        for i in range(d):
            for j in range(i + 1, d):
                val += np.log(mat[:, i] - mat[:, j] + (j - i)) - math.log(j - i)
        return val

    @pytest.mark.parametrize("d, n_max", [(1, 300), (2, 1000), (3, 300), (4, 200), (5, 80)])
    def test_log_dimension_vectors_equal_the_scipy_formula(self, d, n_max):
        for n in range(n_max + 1):
            mat = partition_level(n, d).table
            specht, weyl = _log_dims(mat, n)
            assert np.array_equal(bits(specht), bits(self.scipy_log_specht(mat, n)))
            assert np.array_equal(bits(weyl), bits(self.numpy_log_weyl(mat)))

    @pytest.mark.parametrize("d, n", [(1, 9), (6, 14)])
    def test_log_dims_keeps_its_input_and_returns_new_arrays(self, d, n):
        # d = 1 has no row pair, so only the ln Gamma terms run
        level_table = partition_level(n, d).table
        mat = np.array(level_table, order="F")
        specht, weyl = _log_dims(mat, n)
        assert np.array_equal(mat, level_table)
        for values in (specht, weyl):
            assert values.dtype == np.float64 and values.shape == (mat.shape[0],)
            assert values.flags.writeable and values.flags.owndata
            assert not np.shares_memory(values, mat)
        assert not np.shares_memory(specht, weyl)
        # a second call, on the read-only level table, returns new arrays,
        # which writes into those of the first call leave alone
        again = _log_dims(level_table, n)
        specht.fill(np.nan)
        weyl.fill(np.nan)
        assert np.array_equal(bits(again[0]), bits(self.scipy_log_specht(mat, n)))
        assert np.array_equal(bits(again[1]), bits(self.numpy_log_weyl(mat)))

    @pytest.mark.parametrize("d, N", [(2, 7), (3, 9), (4, 12), (4, 60), (3, 152)])
    def test_perron_kernels_equal_the_csr_products(self, d, N):
        B, mus = box_incidence(d, N)
        successors = partition_level(N, d).successors
        assert np.array_equal(bits(_gram(successors, len(mus))), bits((B.T @ B).toarray()))
        matvec = _gram_matvec(successors, len(mus))
        rng = np.random.default_rng(N)
        for _ in range(3):
            v = rng.standard_normal(len(mus))
            assert np.array_equal(bits(matvec(v)), bits(B.T @ (B @ v)))


class TestColumnLogSumExp:
    """The log-domain sum runs column by column, one row of the diagrams at a
    time. Every alpha's log-sum equals, bit for bit, the (K, d) matrix form
    with its exponentials added in row order, and below 8 rows also numpy's
    ``.sum(axis=1)`` of that matrix: F alone does not pin the order, since
    only the largest few alphas reach its last bit."""

    @staticmethod
    def matrix_logsumexp(successors, half_log, row_sum):
        # the C-ordered table; row_sum adds each row of the exponentials
        successors = np.ascontiguousarray(successors)
        terms = np.where(successors >= 0, half_log[successors], -np.inf)
        peak = terms.max(axis=1)
        live = peak > -np.inf
        scaled = np.exp(terms[live] - peak[live, None])
        return peak[live] + np.log(row_sum(scaled))

    @staticmethod
    def in_order(scaled):
        total = scaled[:, 0].copy()
        for column in scaled.T[1:]:
            total += column
        return total

    def check_rows(self, d, successors, half_log):
        """The log-sums, checked against the matrix forms."""
        inner = _successor_logsumexp(successors, half_log)
        in_order = self.matrix_logsumexp(successors, half_log, self.in_order)
        assert np.array_equal(bits(inner), bits(in_order))
        if d < 8:
            numpy_sum = self.matrix_logsumexp(successors, half_log, lambda x: x.sum(axis=1))
            assert np.array_equal(bits(inner), bits(numpy_sum))
        return inner

    @staticmethod
    def fidelity_of(inner, d, N):
        doubled = 2.0 * inner
        top = doubled.max()
        log_f = top + math.log(np.exp(doubled - top).sum()) - (N + 2) * math.log(d)
        return min(math.exp(log_f), 1.0)

    @staticmethod
    def half_log(d, N, coefficients=None):
        # followed by the -inf slot that successor -1 (none) reads
        mat = partition_level(N, d).table
        specht, weyl = _log_dims(mat, N)
        half_log = 0.5 * (specht + weyl)
        if coefficients is not None:
            values = coefficients.weights.tolist()
            log_c = np.array([math.log(c) if c > 0 else -np.inf for c in values])
            half_log = half_log + 0.5 * log_c
        return np.append(half_log, -np.inf)

    @pytest.mark.parametrize(
        "d, n_min, n_max", [(d, 41, 41) for d in range(1, 11)] + [(3, 41, 120), (5, 41, 60)]
    )
    def test_standard_rows_equal_the_matrix_form(self, d, n_min, n_max):
        for N in range(n_min, n_max + 1):
            successors = partition_level(N, d).successors
            inner = self.check_rows(d, successors, self.half_log(d, N))
            assert _fidelity_log(d, N, None) == self.fidelity_of(inner, d, N)

    @pytest.mark.parametrize("d, N", [(2, 60), (3, 45), (4, 41), (9, 41)])
    def test_alphas_without_a_live_successor_are_dropped(self, d, N):
        rng = np.random.default_rng(d * N)
        mus = enumerate_partitions(N, d)
        raw = {mu: float(w) for mu, w in zip(mus, rng.random(len(mus)) + 0.05)}
        for mu in mus:
            if rng.random() < 0.6:
                raw[mu] = 0.0
        c = PortCoefficients.from_mapping(d, N, raw, renormalize=True)
        successors = partition_level(N, d).successors
        half_log = self.half_log(d, N, c)
        terms = np.where(successors >= 0, half_log[successors], -np.inf)
        dead = int((terms.max(axis=1) == -np.inf).sum())
        assert 0 < dead < successors.shape[0]
        inner = self.check_rows(d, successors, half_log)
        assert inner.size == successors.shape[0] - dead
        assert _fidelity_log(d, N, c) == self.fidelity_of(inner, d, N)


def coefficients_with_zeros(d, N, seed):
    """Random valid coefficients with about 40 % of the diagrams at weight
    zero (the first diagram always weighted)."""
    rng = np.random.default_rng(seed)
    mus = enumerate_partitions(N, d)
    raw = {mu: 0.0 if rng.random() < 0.4 else float(rng.random() + 0.05) for mu in mus}
    raw[mus[0]] = 1.0
    return PortCoefficients.from_mapping(d, N, raw, renormalize=True)


class TestExactHybridBits:
    """The exact-hybrid F and the block spectra walk the level index and form
    each surd once. Every value equals, bit for bit, the tuple walk they
    replaced, frozen here in mpmath's binary arithmetic, independent of the
    package's decimal one: alphas from ``enumerate_partitions``, covers from
    ``add_box_successors``, and each certificate block re-forming its surds
    as c * d_mu * m_mu, left to right."""

    @staticmethod
    def tuple_walk_fidelity(d, N, coefficients):
        weight = (lambda mu: 1.0) if coefficients is None else dict(coefficients.items()).__getitem__
        with mpmath.workdps(MP_DPS):
            outer = []
            for alpha in enumerate_partitions(N - 1, d):
                inner = [
                    mpmath.sqrt(mpmath.mpf(c) * (specht_dim(rel.mu) * weyl_dim(rel.mu, d)))
                    for rel in add_box_successors(alpha, d)
                    if (c := weight(rel.mu)) > 0
                ]
                s = mpmath.fsum(inner)
                outer.append(s * s)
            return float(mpmath.fsum(outer) / mpmath.mpf(d) ** (N + 2))

    @staticmethod
    def tuple_walk_block(d, N, mu, alpha, weight):
        with mpmath.workdps(MP_DPS):
            surd_sum = mpmath.fsum(
                mpmath.sqrt(
                    mpmath.mpf(weight(rel.mu)) * specht_dim(rel.mu) * weyl_dim(rel.mu, d)
                )
                for rel in add_box_successors(alpha, d)
            )
            val = (
                mpmath.sqrt(mpmath.mpf(weight(mu)) * specht_dim(mu) * weyl_dim(mu, d))
                * surd_sum
                / (weyl_dim(alpha, d) * specht_dim(mu))
                / mpmath.mpf(d) ** N
            )
            return float(val)

    @classmethod
    def tuple_walk_spectrum(cls, d, N, operator, coefficients=None):
        weight = (lambda mu: 1.0) if coefficients is None else dict(coefficients.items()).__getitem__
        rows = []
        for alpha in enumerate_partitions(N - 1, d):
            for rel in add_box_successors(alpha, d):
                mu = rel.mu
                if operator == "avg":
                    value = float(
                        Fraction(
                            N * weyl_dim(mu, d) * specht_dim(alpha),
                            d**N * weyl_dim(alpha, d) * specht_dim(mu),
                        )
                    )
                else:
                    value = cls.tuple_walk_block(d, N, mu, alpha, weight)
                rows.append((alpha, mu, value, weyl_dim(alpha, d) * specht_dim(mu)))
        return rows

    @staticmethod
    def rows_of(blocks):
        return [(b.alpha, b.mu, b.value, b.multiplicity) for b in blocks]

    @pytest.mark.parametrize("d", range(1, 6))
    def test_standard_fidelity_equals_the_tuple_walk(self, d):
        # d = 5 stops at N = 25 to bound the test's time; random c reaches 40
        for N in range(1, 41 if d < 5 else 26):
            assert _fidelity_exact(d, N, None) == self.tuple_walk_fidelity(d, N, None)

    @pytest.mark.parametrize("d", range(1, 6))
    def test_fidelity_with_zero_weights_equals_the_tuple_walk(self, d):
        for N in [*range(1, 11), 17, 29, 40]:
            c = coefficients_with_zeros(d, N, 100 * d + N)
            assert _fidelity_exact(d, N, c) == self.tuple_walk_fidelity(d, N, c)

    @pytest.mark.parametrize("d, N", [(1, 5), (2, 8), (3, 6), (4, 5), (2, 25), (3, 12), (4, 9)])
    def test_block_spectra_equal_the_tuple_walk(self, d, N):
        c = coefficients_with_zeros(d, N, 7 * d + N)
        for operator, coefficients in (("avg", None), ("X", None), ("Y", c)):
            rows = self.rows_of(block_spectrum(d, N, operator, coefficients))
            assert rows == self.tuple_walk_spectrum(d, N, operator, coefficients)

    def test_y_above_the_113_bit_line_equals_the_tuple_walk(self):
        # c * d_mu exceeds the 166-bit working precision once d_mu reaches
        # 2^113, so the tuple walk's c * d_mu * m_mu rounds twice where the
        # level walk's c * (d_mu * m_mu) rounds once; the values still agree
        d, N = 2, 130
        c = optimize_coefficients(d, N).coefficients
        rows = self.rows_of(block_spectrum(d, N, "Y", c))
        assert max(specht_dim(mu) for _, mu, _, _ in rows) >= 2**113
        assert rows == self.tuple_walk_spectrum(d, N, "Y", c)

    @pytest.mark.parametrize("d, N", [(2, 200), (4, 90)])
    def test_fidelity_past_50_digits_equals_the_tuple_walk(self, d, N):
        # the largest d_mu m_mu outgrow the MP_DPS working digits, so their
        # radicands round; the doubles still agree
        assert max(specht_dim(mu) * weyl_dim(mu, d) for mu in enumerate_partitions(N, d)) > 10**MP_DPS
        assert _fidelity_exact(d, N, None) == self.tuple_walk_fidelity(d, N, None)

    @pytest.mark.parametrize("tiny", [5e-324, 2.2e-308, 1e-200])
    @pytest.mark.parametrize("d, N", [(2, 9), (3, 7), (4, 6)])
    def test_extreme_weights_equal_the_tuple_walk(self, d, N, tiny):
        # every other diagram weighted at a subnormal, at the smallest normal
        # double or deep below the working digits; a positive block value
        # whose double is not normal is refused, naming the first such block
        mus = enumerate_partitions(N, d)
        c = PortCoefficients.from_mapping(
            d, N, {mu: tiny if i % 2 else 1.0 for i, mu in enumerate(mus)}, renormalize=True
        )
        assert 0 < min(w for w in c.weights if w > 0) <= tiny * 10
        assert _fidelity_exact(d, N, c) == self.tuple_walk_fidelity(d, N, c)
        expected = self.tuple_walk_spectrum(d, N, "Y", c)
        weight = dict(c.items())
        refused = [(a, mu) for a, mu, value, _ in expected if weight[mu] > 0 and value < sys.float_info.min]
        if refused:
            with pytest.raises(SizeCapError, match=re.escape(f"{refused[0]} at d={d}, N={N}")):
                block_spectrum(d, N, "Y", c)
        else:
            assert self.rows_of(block_spectrum(d, N, "Y", c)) == expected

    def test_sums_neither_read_nor_change_the_callers_decimal_context(self):
        expected = fidelity_standard(3, 12), block_spectrum(2, 8, "X")
        with decimal.localcontext() as caller:
            caller.prec = 5
            caller.traps[decimal.Inexact] = True
            before = repr(caller)
            got = fidelity_standard(3, 12), block_spectrum(2, 8, "X")
            assert decimal.getcontext() is caller
            assert repr(caller) == before
        assert got == expected

    @pytest.mark.parametrize("d, n_mu", [(2, 21), (3, 154), (4, 632)])
    def test_each_surd_is_formed_once(self, d, n_mu):
        # Decimal.sqrt is a C method and cannot be patched; the profile hook
        # sees every call of it
        calls = []

        def profile(frame, event, arg):
            if event == "c_call" and getattr(arg, "__qualname__", None) == "Decimal.sqrt":
                calls.append(arg)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            _fidelity_exact(d, 40, None)
        finally:
            sys.setprofile(previous)
        assert len(calls) == n_mu == len(enumerate_partitions(40, d))


def residual(coefficients):
    """|sum c_mu d_mu m_mu / d^N - 1|, summed exactly in rationals."""
    c, d, N = coefficients, coefficients.d, coefficients.N
    total = sum(Fraction(w) * specht_dim(mu) * weyl_dim(mu, d) for mu, w in c.items())
    return float(abs(total / d**N - 1))


# a key: a partition of N into at most d rows, usually, or a near miss
def coefficient_keys(d, N):
    mus = enumerate_partitions(N, d)
    near_misses = [(N + 1,), (N - 1, 1, 1)[: d + 1], (0, N), (N, 0), tuple([1] * (N + 1))]
    return st.sampled_from(mus) | st.sampled_from(near_misses)


coefficient_values = st.floats(allow_nan=True, allow_infinity=True) | st.floats(
    min_value=0.0, max_value=10.0
) | st.sampled_from([0.0, 1.0, 10**400])


class TestPortCoefficients:
    """Every PortCoefficients is valid and immutable: it is checked once,
    when it is built, and nothing checks it again."""

    def test_uniform_is_valid(self):
        for d, N in [(2, 5), (3, 4), (1, 3), (3, 45)]:
            assert residual(uniform_coefficients(d, N)) <= NORMALISATION_RTOL

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=r"^negative coefficient -1.0 for \(2,\)$"):
            PortCoefficients.from_mapping(2, 2, {(2,): -1.0, (1, 1): 2.0})
        with pytest.raises(ValueError, match=r"^negative coefficient -1.0 for \(2,\)$"):
            PortCoefficients(2, 2, np.array([-1.0, 2.0]))

    def test_rejects_wrong_diagram(self):
        with pytest.raises(ValueError):
            PortCoefficients.from_mapping(2, 2, {(1, 1, 1): 1.0})
        with pytest.raises(ValueError):
            PortCoefficients.from_mapping(2, 2, {(3,): 1.0})

    def test_rejects_bad_normalisation_with_residual(self):
        with pytest.raises(ValueError, match="residual"):
            PortCoefficients.from_mapping(2, 2, {(2,): 1.0, (1, 1): 2.0})
        with pytest.raises(ValueError, match="residual"):
            PortCoefficients(2, 2, np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "entries",
        [
            {(2,): 1.0, (3,): 0.25},  # a partition of 3, not of 2
            {(2,): 1.0, (1, 1): 1.0, (0, 2): 0.0},  # not a partition
            {(2,): 1.0, (1, 1): 1.0, (1, 1, 0): 0.0},  # a zero row
        ],
    )
    def test_validate_rejects_keys_that_are_not_diagrams(self, entries):
        bad = next(mu for mu in entries if mu not in ((2,), (1, 1)))
        message = rf"^{re.escape(str(bad))} is not a partition of 2 into at most 2 rows$"
        with pytest.raises(ValueError, match=message):
            PortCoefficients.from_mapping(2, 2, entries)

    def test_validate_rejects_more_rows_than_d(self):
        with pytest.raises(ValueError, match=r"^\(1, 1, 1\) is not a partition of 3"):
            PortCoefficients.from_mapping(2, 3, {(3,): 0.25, (2, 1): 0.25, (1, 1, 1): 0.0})

    def test_rejects_weights_off_the_level(self):
        with pytest.raises(ValueError, match="one per diagram"):
            PortCoefficients(2, 3, np.ones(3))

    def test_missing_entries_default_to_zero(self):
        c = PortCoefficients.from_mapping(2, 2, {(1, 1): 4.0})  # 4 * 1 * 1 == 4 == 2^2
        assert list(c.items()) == [((2,), 0.0), ((1, 1), 4.0)]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN compares false both ways, so a sign check alone lets it through
        with pytest.raises(ValueError, match="non-finite"):
            PortCoefficients.from_mapping(2, 2, {(2,): bad, (1, 1): 4.0})
        with pytest.raises(ValueError, match=r"non-finite coefficient .* for \(2,\)"):
            PortCoefficients(2, 2, np.array([bad, 4.0]))

    def test_rejects_integer_beyond_float64(self):
        with pytest.raises(ValueError, match="overflows float64"):
            PortCoefficients.from_mapping(2, 2, {(2,): 10**400, (1, 1): 4.0})

    def test_weights_refuse_writes(self):
        source = np.ones(2)
        c = PortCoefficients(2, 2, source)
        source[0] = 5.0  # the instance holds its own copy
        assert c.weights.tolist() == [1.0, 1.0]
        with pytest.raises(ValueError, match="read-only"):
            c.weights[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.weights = np.ones(2)
        assert optimize_coefficients(3, 4).coefficients.weights.flags.writeable is False

    @pytest.mark.parametrize("d, N", [(2, 2), (3, 4), (2, 60), (3, 50)])
    def test_renormalized_lands_on_constraint(self, d, N):
        # N = 60 and 50 exceed the default exact threshold: the log-sum-exp sum
        entries = {mu: 7.5 for mu in enumerate_partitions(N, d)}
        with pytest.raises(ValueError, match="residual"):
            PortCoefficients.from_mapping(d, N, entries)
        fixed = PortCoefficients.from_mapping(d, N, entries, renormalize=True)
        assert residual(fixed) <= NORMALISATION_RTOL
        assert np.allclose(fixed.weights, 1.0, rtol=1e-12, atol=0)

    def test_renormalized_beyond_float_dimensions(self):
        # d_mu * m_mu at d=2 N=1100 does not fit a float; the log form does
        c = PortCoefficients.from_mapping(2, 1100, {(550, 550): 1.0}, renormalize=True)
        assert residual(c) <= NORMALISATION_RTOL
        weight = dict(c.items())[(550, 550)]
        assert math.isfinite(weight) and weight > 1.0

    def test_renormalized_near_float_maximum(self):
        # c * d_mu * m_mu overflows a float although the rescaled c = 1 does not
        entries = {(2,): 1e308, (1, 1): 1e308}
        fixed = PortCoefficients.from_mapping(2, 2, entries, renormalize=True)
        assert fixed.weights.tolist() == [1.0, 1.0]

    def test_renormalized_rejects_all_zero(self):
        for N in (3, 60):
            with pytest.raises(ValueError, match="all coefficients are zero"):
                PortCoefficients.from_mapping(2, N, {}, renormalize=True)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_rescaled_draws_validate(self, seed):
        rng = np.random.default_rng(seed)
        c = random_valid_coefficients(2, 4, rng)
        assert residual(c) <= NORMALISATION_RTOL

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_mapping_raises_or_is_valid(self, data):
        d = data.draw(st.integers(min_value=1, max_value=4), label="d")
        N = data.draw(st.sampled_from([1, 2, 3, 5, 8, 41, 45]), label="N")
        entries = data.draw(st.dictionaries(coefficient_keys(d, N), coefficient_values, max_size=8))
        renormalize = data.draw(st.booleans(), label="renormalize")
        try:
            c = PortCoefficients.from_mapping(d, N, entries, renormalize=renormalize)
        except ValueError:
            return
        assert residual(c) <= NORMALISATION_RTOL
        assert not c.weights.flags.writeable

    def test_block_walk_computes_no_normalisation_sum(self, monkeypatch):
        # checked once when built: no consumer sums the normalisation again
        d, N = 3, 30
        c = optimize_coefficients(d, N).coefficients
        calls, real = [], fidelity_mod._normalisation_ratio

        def counted(*args):
            calls.append(args[:2])
            return real(*args)

        monkeypatch.setattr(fidelity_mod, "_normalisation_ratio", counted)
        blocks = block_spectrum(d, N, "Y", c)
        assert all(b.value >= 0.0 for b in blocks)
        fidelity_given_coefficients(d, N, c)
        assert len(blocks) == 240 and calls == []

    def test_consumers_refuse_coefficients_for_another_point(self):
        c = uniform_coefficients(2, 3)
        for call in (
            lambda: fidelity_given_coefficients(2, 4, c),
            lambda: block_spectrum(3, 3, "Y", c),
        ):
            with pytest.raises(ValueError, match=r"coefficients are for \(d, N\) = \(2, 3\)"):
                call()


class TestGivenCoefficients:
    def test_uniform_recovers_standard(self):
        for d, N in [(2, 2), (2, 4), (3, 3)]:
            ones = uniform_coefficients(d, N)
            assert fidelity_given_coefficients(d, N, ones).fidelity == pytest.approx(
                fidelity_standard(d, N).fidelity, rel=1e-14
            )

    def test_known_point_2_2(self):
        c = PortCoefficients.from_mapping(2, 2, {(2,): 2.0 / 3.0, (1, 1): 2.0})
        assert fidelity_given_coefficients(2, 2, c).fidelity == pytest.approx(
            0.5, rel=1e-14
        )

    def test_single_partition_n1(self):
        for d in (2, 3, 4):
            c = PortCoefficients.from_mapping(d, 1, {(1,): 1.0})
            assert fidelity_given_coefficients(d, 1, c).fidelity == pytest.approx(
                1 / d**2, rel=1e-15
            )

    def test_invalid_normalisation_rejected(self):
        # refused when built, so no fidelity can be asked of it
        with pytest.raises(ValueError, match="residual"):
            PortCoefficients.from_mapping(2, 3, {(3,): 1.0, (2, 1): 0.5})

    def test_mismatched_dn_rejected(self):
        c = uniform_coefficients(2, 3)
        with pytest.raises(ValueError):
            fidelity_given_coefficients(2, 4, c)

    def test_log_mode_agrees_on_random_c(self):
        rng = np.random.default_rng(5)
        for d, N in [(2, 6), (3, 5)]:
            c = random_valid_coefficients(d, N, rng)
            fe = _fidelity_exact(d, N, c)
            fl = _fidelity_log(d, N, c)
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
        c = PortCoefficients.from_mapping(
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
        # the Perron kernels add in this CSR order, so the arrays must not move
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
        weights = dict(rep.coefficients.items())
        assert weights[(2,)] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert weights[(1, 1)] == pytest.approx(2.0, rel=1e-12)
        # constraint: (2/3)*1*3 + 2*1*1 == 4 == d^N
        assert residual(rep.coefficients) <= NORMALISATION_RTOL
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
            assert residual(rep.coefficients) <= NORMALISATION_RTOL
            again = fidelity_given_coefficients(d, N, rep.coefficients)
            assert again.fidelity == pytest.approx(rep.fidelity, rel=1e-12)

    def test_matches_projected_gradient_oracle(self, oracle_grid):
        for d, N in oracle_grid:
            direct = projected_gradient_maximum(d, N)
            assert optimize_coefficients(d, N).fidelity == pytest.approx(
                direct, abs=1e-8
            )

    def test_degenerate_top_eigenspace_is_flagged(self):
        # synthetic: alpha_0 -> mu_0 and alpha_1 -> mu_1, so B^T B = I has
        # an exactly repeated top eigenvalue
        successors = np.array([[0, -1], [1, -1]])
        lam, u, residual, degenerate = _principal_eigenpair(successors, 2)
        assert degenerate
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert residual <= 1e-12
        assert u.min() >= -1e-12

    def test_qubit_optimum_closed_form(self):
        # Ishizaka & Hiroshima, PRA 79, 042306 (2009): F* = cos^2(pi/(N+2))
        for N in range(1, 301):
            assert optimize_coefficients(2, N).fidelity == pytest.approx(
                math.cos(math.pi / (N + 2)) ** 2, abs=1e-15
            )

    def test_perron_premise_incidence_graph_is_connected(self):
        # B^T B >= 0 with a connected graph has a simple top eigenvalue, which
        # is why the optimizer needs no degenerate-eigenspace fallback
        from scipy.sparse.csgraph import connected_components

        for d in range(1, 7):
            for N in range(1, 41):
                B, _ = box_incidence(d, N)
                n_parts, _ = connected_components(B.T @ B, directed=False)
                assert n_parts == 1, (d, N)

    def test_coefficient_beyond_float64_is_a_named_size_cap(self):
        # c_[N] grows like 2^N / (N + 1) at d = 2; the first N past float64 is 1059
        with pytest.raises(SizeCapError, match=r"mu=\[1100\] overflows float64 at d=2, N=1100"):
            optimize_coefficients(2, 1100)

    def test_size_cap_error_is_one_class(self):
        import pbtfid.config
        import pbtfid.oracle

        assert SizeCapError is pbtfid.config.SizeCapError is pbtfid.oracle.SizeCapError

    @pytest.mark.parametrize("d, N", [(4, 60), (3, 152)], ids=["dense", "eigsh"])
    def test_real_points_are_not_degenerate(self, d, N):
        n_mu = len(box_incidence(d, N)[1])
        assert (n_mu <= DENSE_EIGEN_LIMIT) == (N == 60)
        rep = optimize_coefficients(d, N)
        assert rep.degenerate is False
        assert rep.eigen_data.iterations == 0

    def test_large_point_runs_in_log_mode(self):
        rep = optimize_coefficients(2, 60)
        assert rep.numeric_mode == "log-domain"
        assert rep.fidelity >= fidelity_standard(2, 60).fidelity - 1e-12
        assert residual(rep.coefficients) <= NORMALISATION_RTOL


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
        values = [fidelity_standard(2, n).fidelity for n in range(1, 5)]
        assert values == sorted(values)
        assert values[0] == 0.25

    def test_scan_respects_bounds(self):
        for n in range(1, 61):
            assert lower_bound_standard(3, n) <= fidelity_standard(3, n).fidelity <= 1.0

    def test_scan_optimized_single(self):
        rep = optimize_coefficients(2, 1)
        assert rep.fidelity == pytest.approx(0.25, rel=1e-14)
        assert rep.mode == "optimized"

    def test_d1_is_always_perfect(self):
        for n in range(1, 8):
            assert fidelity_standard(1, n).fidelity == 1.0


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

    @pytest.mark.parametrize("operator", ["avg", "X"])
    def test_only_y_takes_coefficients(self, operator):
        c = uniform_coefficients(2, 2)
        with pytest.raises(ValueError, match=rf"^operator {operator} takes no port coefficients$"):
            block_spectrum(2, 2, operator, c)
