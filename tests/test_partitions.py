"""Combinatorics: enumeration, box moves, dimensions, characters."""

import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbtfid import (
    add_box_successors,
    conjugacy_class_size,
    conjugate,
    dimension_record,
    enumerate_partitions,
    log_specht_dim,
    log_weyl_dim,
    partition_level,
    permutation_cycle_type,
    remove_box_predecessors,
    sn_character,
    specht_dim,
    weyl_dim,
)

partitions_strategy = (
    st.lists(st.integers(min_value=1, max_value=8), min_size=0, max_size=6)
    .map(lambda xs: tuple(sorted(xs, reverse=True)))
)


def count_partitions_dp(n, max_parts):
    """Independent counting oracle: classic two-way recurrence."""
    table = [[0] * (max_parts + 1) for _ in range(n + 1)]
    for j in range(max_parts + 1):
        table[0][j] = 1
    for m in range(1, n + 1):
        for j in range(1, max_parts + 1):
            table[m][j] = table[m][j - 1] + (table[m - j][j] if m >= j else 0)
    return table[n][max_parts]


class TestEnumeration:
    def test_hand_examples(self):
        assert enumerate_partitions(4, 2) == ((4,), (3, 1), (2, 2))
        assert enumerate_partitions(1, 7) == ((1,),)
        assert enumerate_partitions(0, 3) == ((),)

    def test_eight_into_three_has_ten(self):
        # frozen from the recursive counting oracle
        assert count_partitions_dp(8, 3) == 10
        assert len(enumerate_partitions(8, 3)) == 10

    @pytest.mark.parametrize("n", [5, 13, 27, 44, 60])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_count_matches_dp_oracle(self, n, d):
        assert len(enumerate_partitions(n, d)) == count_partitions_dp(n, d)

    def test_descending_lexicographic_and_unique(self):
        for n, d in [(6, 3), (9, 4), (12, 2)]:
            parts = enumerate_partitions(n, d)
            assert len(set(parts)) == len(parts)
            assert list(parts) == sorted(parts, reverse=True)
            for mu in parts:
                assert sum(mu) == n and len(mu) <= d
                assert all(a >= b for a, b in zip(mu, mu[1:]))
                assert all(x > 0 for x in mu)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(-1, 2)
        with pytest.raises(ValueError):
            enumerate_partitions(3, 0)


def brute_force_partitions(n, d):
    """Independent enumerator: every weakly decreasing tuple of positive
    parts with sum n and at most d parts, ordered by Python's tuple sort."""
    found = set()

    def extend(prefix, left):
        if left == 0:
            found.add(prefix)
        elif len(prefix) < d:
            for part in range(1, min(prefix[-1] if prefix else left, left) + 1):
                extend(prefix + (part,), left - part)

    extend((), n)
    return sorted(found, reverse=True)


class TestLevelTables:
    @pytest.mark.parametrize("d", range(1, 8))
    def test_tables_match_brute_force(self, d):
        for n in range(0, 31):
            expected = brute_force_partitions(n, d)
            assert list(enumerate_partitions(n, d)) == expected
            table = partition_level(n, d).table
            assert table.dtype == np.int64 and table.shape == (len(expected), d)
            padded = [mu + (0,) * (d - len(mu)) for mu in expected]
            assert table.tolist() == [list(row) for row in padded]

    @pytest.mark.parametrize("n, d", [(1, 1), (6, 3), (9, 4), (13, 2), (8, 8), (14, 12)])
    def test_successor_index_matches_box_moves(self, n, d):
        level = partition_level(n, d)
        mus = enumerate_partitions(n, d)
        alphas = enumerate_partitions(n - 1, d)
        assert level.successors.shape == (len(alphas), d)
        for a, alpha in enumerate(alphas):
            expected = [-1] * d
            for rel in add_box_successors(alpha, d):
                expected[rel.row] = mus.index(rel.mu)
            assert level.successors[a].tolist() == expected
        for m, mu in enumerate(mus):
            if mu:
                parent = mu[:-1] + ((mu[-1] - 1,) if mu[-1] > 1 else ())
                assert alphas[level.parent[m]] == parent

    def test_independent_of_request_history(self):
        points = [(n, d) for d in (2, 3, 5) for n in range(0, 16)]
        fresh = {}
        for n, d in points:
            level = partition_level(n, d)
            fresh[n, d] = (level.table.copy(), level.successors.copy())
        descending = sorted(points, key=lambda p: -p[0])
        alternating = [(n, d) for n in range(15, -1, -1) for d in (5, 2, 3)]
        jump_back = [(15, 3), (2, 3), (15, 2), (7, 2), (0, 5), (11, 5)]
        for n, d in descending + alternating + jump_back:
            level = partition_level(n, d)
            table, successors = fresh[n, d]
            assert np.array_equal(level.table, table)
            assert np.array_equal(level.successors, successors)
            assert enumerate_partitions(n, d) == tuple(brute_force_partitions(n, d))

    def test_concurrent_requests_see_complete_levels(self):
        # more threads than cores, switching often, each walking its own order
        expected = {n: tuple(brute_force_partitions(n, 3)) for n in range(25)}
        orders = [list(range(25)), list(range(24, -1, -1)), [20, 3, 24, 0, 11, 12, 7]] * 2
        failures = []

        def walk(order):
            for n in order:
                if enumerate_partitions(n, 3) != expected[n]:
                    failures.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=walk, args=(o,)) for o in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []

    def test_arrays_are_read_only(self):
        level = partition_level(7, 3)
        for arr in (level.table, level.lengths, level.parent, level.successors):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0


class TestBoxMoves:
    def test_add_box_examples(self):
        assert {b.mu for b in add_box_successors((1,), 2)} == {(2,), (1, 1)}
        assert {b.mu for b in add_box_successors((2, 2), 2)} == {(3, 2)}
        assert {b.mu for b in add_box_successors((3, 1), 3)} == {
            (4, 1),
            (3, 2),
            (3, 1, 1),
        }

    def test_remove_box_examples(self):
        assert {b.alpha for b in remove_box_predecessors((2,))} == {(1,)}
        assert {b.alpha for b in remove_box_predecessors((2, 1))} == {(1, 1), (2,)}
        assert {b.alpha for b in remove_box_predecessors((3, 3))} == {(3, 2)}

    def test_empty_partition_grows_one_row(self):
        assert [b.mu for b in add_box_successors((), 4)] == [(1,)]

    @given(alpha=partitions_strategy, d=st.integers(min_value=1, max_value=8))
    def test_moves_are_inverse(self, alpha, d):
        if len(alpha) > d:
            return
        for rel in add_box_successors(alpha, d):
            assert sum(rel.mu) == sum(alpha) + 1
            assert alpha in {b.alpha for b in remove_box_predecessors(rel.mu)}
            # exactly one row grew by exactly one box
            padded_a = alpha + (0,) * (len(rel.mu) - len(alpha))
            diffs = [m - a for m, a in zip(rel.mu, padded_a)]
            assert sorted(diffs, reverse=True) == [1] + [0] * (len(rel.mu) - 1)
            assert diffs[rel.row] == 1


class TestDimensions:
    def test_specht_examples(self):
        assert specht_dim((2, 1)) == 2
        assert specht_dim((2, 2)) == 2  # hooks 3,2,2,1 -> 24/12
        for n in (1, 4, 9):
            assert specht_dim((n,)) == 1

    def test_weyl_examples(self):
        for d in (1, 2, 5):
            assert weyl_dim((1,), d) == d
        assert weyl_dim((2,), 2) == 3
        assert weyl_dim((2, 1), 2) == 2

    def test_weyl_integrality_check_is_not_an_assert(self, monkeypatch):
        # survives python -O; the diagram must not be cached already
        monkeypatch.setattr("pbtfid.partitions._hook_product", lambda mu: 10**9 + 7)
        with pytest.raises(ArithmeticError):
            weyl_dim((9, 4, 4, 2), 13)

    def test_weyl_rejects_too_many_rows(self):
        with pytest.raises(ValueError):
            weyl_dim((1, 1, 1), 2)
        with pytest.raises(ValueError):
            log_weyl_dim((2, 1, 1), 2)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_schur_weyl_dimension_sum(self, d):
        for n in range(0, 31):
            total = sum(
                specht_dim(mu) * weyl_dim(mu, d) for mu in enumerate_partitions(n, d)
            )
            assert total == d**n

    @given(mu=partitions_strategy)
    def test_specht_branching(self, mu):
        if not mu:
            return
        assert specht_dim(mu) == sum(
            specht_dim(b.alpha) for b in remove_box_predecessors(mu)
        )

    @given(alpha=partitions_strategy, d=st.integers(min_value=1, max_value=6))
    def test_pieri_sum(self, alpha, d):
        if len(alpha) > d:
            return
        total = sum(weyl_dim(b.mu, d) for b in add_box_successors(alpha, d))
        assert total == d * weyl_dim(alpha, d)

    @given(mu=partitions_strategy, d=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_log_dims_match_exact(self, mu, d):
        if len(mu) > d:
            return
        assert math.isclose(log_specht_dim(mu), math.log(specht_dim(mu)), abs_tol=1e-11)
        assert math.isclose(log_weyl_dim(mu, d), math.log(weyl_dim(mu, d)), abs_tol=1e-11)

    def test_dimension_record_roundtrip(self):
        for mu, d in [((5, 3, 2), 4), ((7, 7), 2), ((1,), 3), ((10, 6, 4, 1), 4)]:
            rec = dimension_record(mu, d)
            assert rec.specht_dim == specht_dim(mu)
            assert rec.weyl_dim == weyl_dim(mu, d)
            assert rec.specht_dim >= 1 and rec.weyl_dim >= 1
            rel = abs(math.exp(rec.log_specht) - rec.specht_dim) / rec.specht_dim
            assert rel <= 1e-14
            rel = abs(math.exp(rec.log_weyl) - rec.weyl_dim) / rec.weyl_dim
            assert rel <= 1e-14

    def test_conjugate_involution(self):
        for mu in enumerate_partitions(9, 9):
            assert conjugate(conjugate(mu)) == mu


class TestCharacters:
    def test_trivial_representation_is_one_everywhere(self):
        for n in range(1, 7):
            for lam in enumerate_partitions(n, n):
                assert sn_character((n,), lam) == 1

    def test_identity_class_gives_dimension(self):
        for n in range(1, 7):
            for mu in enumerate_partitions(n, n):
                assert sn_character(mu, (1,) * n) == specht_dim(mu)

    def test_sign_representation(self):
        for n in range(2, 7):
            for lam in enumerate_partitions(n, n):
                parity = (-1) ** sum(part - 1 for part in lam)
                assert sn_character((1,) * n, lam) == parity

    def test_s3_table(self):
        # classes (1,1,1), (2,1), (3)
        table = {
            (3,): [1, 1, 1],
            (2, 1): [2, 0, -1],
            (1, 1, 1): [1, -1, 1],
        }
        classes = [(1, 1, 1), (2, 1), (3,)]
        for mu, expected in table.items():
            assert [sn_character(mu, lam) for lam in classes] == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_orthogonality(self, n):
        mus = enumerate_partitions(n, n)
        classes = enumerate_partitions(n, n)
        sizes = {lam: conjugacy_class_size(lam) for lam in classes}
        assert sum(sizes.values()) == math.factorial(n)
        for mu in mus:
            for nu in mus:
                inner = sum(
                    sizes[lam] * sn_character(mu, lam) * sn_character(nu, lam)
                    for lam in classes
                )
                assert inner == (math.factorial(n) if mu == nu else 0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("d", [2, 3])
    def test_schur_weyl_trace_identity(self, n, d):
        """sum_mu m_{d,mu} chi_mu(lam) equals the trace of an explicit
        permutation matrix on (C^d)^n, i.e. d^(number of cycles)."""
        from itertools import permutations

        from pbtfid import permutation_operator

        for perm in permutations(range(n)):
            lam = permutation_cycle_type(perm)
            brute = np.trace(permutation_operator(perm, d))
            predicted = sum(
                weyl_dim(mu, d) * sn_character(mu, lam)
                for mu in enumerate_partitions(n, d)
            )
            assert brute == pytest.approx(predicted)
            assert predicted == d ** len(lam)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sn_character((2, 1), (2, 2))


class TestCycleTypes:
    def test_cycle_type_examples(self):
        assert permutation_cycle_type((0, 1, 2)) == (1, 1, 1)
        assert permutation_cycle_type((1, 0, 2)) == (2, 1)
        assert permutation_cycle_type((1, 2, 0)) == (3,)

    def test_class_sizes_s4(self):
        sizes = {
            (1, 1, 1, 1): 1,
            (2, 1, 1): 6,
            (2, 2): 3,
            (3, 1): 8,
            (4,): 6,
        }
        for lam, size in sizes.items():
            assert conjugacy_class_size(lam) == size
