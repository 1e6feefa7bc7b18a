"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to see them on
success). Tolerances are pinned here and nowhere else.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from pbtfid import (
    DenseOperator,
    PortCoefficients,
    block_spectrum,
    build_rho,
    certificate_Y,
    certify_optimality,
    enumerate_partitions,
    eta_ensemble,
    fidelity_standard,
    lower_bound_standard,
    match_block_spectrum,
    optimize_coefficients,
    sn_character,
    specht_dim,
    success_probability,
    teleportation_fidelity_direct,
    weyl_dim,
    young_projector,
)
from pbtfid.fidelity import _fidelity_exact, _fidelity_log
from conftest import (
    ORACLE_GRID,
    add_box_successors,
    cached_certificate_x,
    cached_ensemble,
    cached_pgm,
    conjugacy_class_size,
    partial_trace_first,
    remove_box_predecessors,
    steered_states,
)
from test_fidelity import projected_gradient_maximum, random_valid_coefficients


def report(name, passed, detail=""):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}" + (f"  ({detail})" if detail else "")
    print(line)
    assert passed, line


def test_criterion_01_trivial_single_port_anchor():
    ok = all(fidelity_standard(d, 1).fidelity == 1 / d**2 for d in range(1, 6))
    report("criterion 1: F(d, 1) == 1/d^2 exactly for d in 1..5", ok)


def test_criterion_02_formula_vs_oracle():
    worst = 0.0
    slowest = 0.0
    for d, N in ORACLE_GRID:
        start = time.perf_counter()
        formula = fidelity_standard(d, N).fidelity
        p_succ = success_probability(cached_ensemble(d, N), list(cached_pgm(d, N)))
        elapsed = time.perf_counter() - start
        worst = max(worst, abs(formula - p_succ * N / d**2))
        slowest = max(slowest, elapsed)
    report(
        "criterion 2: formula equals oracle square-root-measurement value",
        worst <= 1e-9 and slowest < 10.0,
        f"max dev {worst:.2e}, slowest case {slowest:.2f}s",
    )


def test_criterion_03_end_to_end_channel():
    worst = 0.0
    for d, N in [(2, 2), (2, 3)]:
        direct = teleportation_fidelity_direct(d, N, list(cached_pgm(d, N)))
        worst = max(worst, abs(direct - fidelity_standard(d, N).fidelity))
    report(
        "criterion 3: explicit channel simulation reproduces the formula",
        worst <= 1e-9,
        f"max dev {worst:.2e}",
    )


def test_criterion_04_average_state_spectrum():
    worst = 0.0
    for d, N in ORACLE_GRID:
        avg = cached_ensemble(d, N)
        from pbtfid import average_state

        dev = match_block_spectrum(average_state(avg), block_spectrum(d, N, "avg"))
        worst = max(worst, dev)
    report(
        "criterion 4: average-state spectrum matches the block eigenvalues",
        worst <= 1e-9,
        f"max dev {worst:.2e}",
    )


def test_criterion_05_partial_trace_identity():
    worst = 0.0
    for d in (2, 3):
        for n in (1, 2, 3, 4):
            for mu in enumerate_partitions(n, d):
                if n == 1:
                    continue  # single box has no two-factor partial trace
                lhs = partial_trace_first(young_projector(mu, d)).matrix
                rhs = np.zeros_like(lhs)
                for rel in remove_box_predecessors(mu):
                    rhs = rhs + (
                        weyl_dim(mu, d) / weyl_dim(rel.alpha, d)
                    ) * young_projector(rel.alpha, d).matrix
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(
        "criterion 5: projector partial-trace identity (N <= 4, d <= 3)",
        worst <= 1e-10,
        f"max dev {worst:.2e}",
    )


def test_criterion_06_dual_certificates():
    worst_feas = 0.0
    worst_gap = 0.0
    rng = np.random.default_rng(20240)
    for d, N in ORACLE_GRID:
        X = cached_certificate_x(d, N)
        for i in range(1, N + 1):
            low = float(np.linalg.eigvalsh(X.matrix - build_rho(d, N, i).matrix).min())
            worst_feas = max(worst_feas, -low)
        rep = certify_optimality(
            cached_ensemble(d, N),
            list(cached_pgm(d, N)),
            DenseOperator(X.matrix / N, X.factor_dims),
        )
        worst_gap = max(worst_gap, abs(rep.gap))
        for _ in range(5):
            c = random_valid_coefficients(d, N, rng)
            Y = certificate_Y(d, N, c)
            for eta in steered_states(d, N, c):
                low = float(np.linalg.eigvalsh(Y.matrix - eta.matrix).min())
                worst_feas = max(worst_feas, -low)
            rep = certify_optimality(
                eta_ensemble(d, N, c),
                list(cached_pgm(d, N)),
                DenseOperator(Y.matrix / N, Y.factor_dims),
            )
            worst_gap = max(worst_gap, abs(rep.gap))
    report(
        "criterion 6: dual certificates feasible and gap-free",
        worst_feas <= 1e-9 and worst_gap <= 1e-8,
        f"worst infeasibility {worst_feas:.2e}, worst gap {worst_gap:.2e}",
    )


def test_criterion_07_optimized_protocol():
    rep = optimize_coefficients(2, 2)
    anchored = abs(rep.fidelity - 0.5) <= 1e-12
    p_perfect = success_probability(
        eta_ensemble(2, 2, rep.coefficients), list(cached_pgm(2, 2))
    )
    certified = abs(p_perfect - 1.0) <= 1e-9
    worst = 0.0
    for d, N in ORACLE_GRID:
        direct = projected_gradient_maximum(d, N)
        worst = max(worst, abs(optimize_coefficients(d, N).fidelity - direct))
    report(
        "criterion 7: optimized protocol value and optimizer cross-check",
        anchored and certified and worst <= 1e-8,
        f"F*(2,2)-1/2 = {rep.fidelity - 0.5:.1e}, p_succ dev {abs(p_perfect - 1):.1e}, "
        f"eigen-vs-gradient dev {worst:.2e}",
    )


def test_criterion_08_bounds_and_asymptotics():
    bounds_ok = True
    for d in (2, 3):
        for n in range(1, 401):
            f = fidelity_standard(d, n).fidelity
            if not (lower_bound_standard(d, n) - 1e-12 <= f <= 1.0):
                bounds_ok = False
    residuals_ok = True
    for d in (2, 3):
        residuals = [
            abs(n * (1 - fidelity_standard(d, n).fidelity) - (d * d - 1) / 4)
            for n in (50, 100, 200, 400)
        ]
        if not all(a > b for a, b in zip(residuals, residuals[1:])):
            residuals_ok = False
    optimized_ok = True
    points = [(2, n) for n in range(1, 41)] + [(2, 60), (2, 100)]
    points += [(3, n) for n in range(1, 31)]
    for d, n in points:
        if optimize_coefficients(d, n).fidelity < fidelity_standard(d, n).fidelity - 1e-12:
            optimized_ok = False
    report(
        "criterion 8: bounds, residual decay, optimized dominates standard",
        bounds_ok and residuals_ok and optimized_ok,
        f"bounds {bounds_ok}, residual decay {residuals_ok}, F* >= F {optimized_ok}",
    )


def test_criterion_09_performance_and_mode_agreement():
    start = time.perf_counter()
    result = subprocess.run(
        [
            sys.executable, "-m", "pbtfid",
            "scan", "--d", "2", "--from", "1", "--to", "1000",
            "--mode", "standard", "--format", "csv",
        ],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert result.returncode == 0
    assert len(result.stdout.strip().split("\n")) == 1001  # header + rows
    worst = 0.0
    for d in (1, 2, 3, 4):
        for n in range(1, 31):
            exact = _fidelity_exact(d, n, None)
            logged = _fidelity_log(d, n, None)
            worst = max(worst, abs(logged - exact) / exact)
    report(
        "criterion 9: scan to N=1000 under 60 s, numeric modes agree",
        elapsed < 60.0 and worst <= 1e-10,
        f"scan {elapsed:.1f}s, mode rel dev {worst:.2e}",
    )


def test_criterion_10_representation_theory_suite():
    dims_ok = True
    for d in (1, 2, 3, 4):
        for n in range(0, 31):
            total = sum(
                specht_dim(mu) * weyl_dim(mu, d) for mu in enumerate_partitions(n, d)
            )
            if total != d**n:
                dims_ok = False
    branching_ok = all(
        specht_dim(mu) == sum(specht_dim(b.alpha) for b in remove_box_predecessors(mu))
        for n in range(1, 13)
        for mu in enumerate_partitions(n, n)
    )
    pieri_ok = all(
        sum(weyl_dim(b.mu, d) for b in add_box_successors(alpha, d))
        == d * weyl_dim(alpha, d)
        for d in (1, 2, 3, 4)
        for n in range(0, 13)
        for alpha in enumerate_partitions(n, d)
    )
    ortho_ok = True
    for n in range(2, 7):
        mus = enumerate_partitions(n, n)
        sizes = {lam: conjugacy_class_size(lam) for lam in mus}
        for a in mus:
            for b in mus:
                inner = sum(
                    sizes[lam] * sn_character(a, lam) * sn_character(b, lam)
                    for lam in mus
                )
                if inner != (math.factorial(n) if a == b else 0):
                    ortho_ok = False
    proj_dev = 0.0
    for d in (2, 3):
        for n in (2, 3, 4):
            mus = enumerate_partitions(n, d)
            projs = [young_projector(mu, d).matrix for mu in mus]
            for mu, pr in zip(mus, projs):
                proj_dev = max(proj_dev, float(np.max(np.abs(pr @ pr - pr))))
                proj_dev = max(
                    proj_dev,
                    abs(float(np.trace(pr).real) - specht_dim(mu) * weyl_dim(mu, d)),
                )
            for a in range(len(projs)):
                for b in range(a + 1, len(projs)):
                    proj_dev = max(proj_dev, float(np.max(np.abs(projs[a] @ projs[b]))))
            total = sum(projs)
            proj_dev = max(proj_dev, float(np.max(np.abs(total - np.eye(d**n)))))
    report(
        "criterion 10: representation-theory unit suite",
        dims_ok and branching_ok and pieri_ok and ortho_ok and proj_dev <= 1e-10,
        f"dim sums {dims_ok}, branching {branching_ok}, pieri {pieri_ok}, "
        f"orthogonality {ortho_ok}, projector dev {proj_dev:.2e}",
    )
