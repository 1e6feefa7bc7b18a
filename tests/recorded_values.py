"""Oracle outputs recorded with the full-matrix constructions of rho_1 and
of the channel's input state psi, before both were built from their nonzero
entries. ``test_oracle.py`` checks that every value still agrees to 1e-12
with the same verdict. Optimized runs use
``optimize_coefficients(d, N).coefficients`` at the benchmark's optimized
points (2, 6) and (3, 4).

Keys: (d, N, mode). Verify entries map each check to (deviation, passed).
Channel entries are the fidelity under the square-root measurement of the
unsteered states, the port state steered by the coefficients when optimized.
"""

RECORDED_VERIFY = {
    (2, 2, 'standard'): {
        'formula_vs_oracle': (0.0, True),
        'avg_state_spectrum': (2.220446049250313e-16, True),
        'certificate_spectrum': (2.220446049250313e-16, True),
        'dual_feasibility': (3.437708246565831e-17, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
    (2, 3, 'standard'): {
        'formula_vs_oracle': (4.440892098500626e-16, True),
        'avg_state_spectrum': (1.6653345369377348e-16, True),
        'certificate_spectrum': (6.661338147750939e-16, True),
        'dual_feasibility': (1.7074305527783795e-16, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
    (2, 4, 'standard'): {
        'formula_vs_oracle': (2.220446049250313e-16, True),
        'avg_state_spectrum': (1.1102230246251565e-16, True),
        'certificate_spectrum': (2.220446049250313e-16, True),
        'dual_feasibility': (1.0914017916506575e-16, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
    (2, 5, 'standard'): {
        'formula_vs_oracle': (1.1102230246251565e-16, True),
        'avg_state_spectrum': (1.3877787807814457e-16, True),
        'certificate_spectrum': (2.3592239273284576e-16, True),
        'dual_feasibility': (1.0990970768182007e-16, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
    (3, 2, 'standard'): {
        'formula_vs_oracle': (5.551115123125783e-17, True),
        'avg_state_spectrum': (2.220446049250313e-16, True),
        'certificate_spectrum': (2.7755575615628914e-16, True),
        'dual_feasibility': (5.390007117531454e-17, True),
        'duality_gap': (0.0, True),
    },
    (3, 3, 'standard'): {
        'formula_vs_oracle': (5.551115123125783e-17, True),
        'avg_state_spectrum': (8.326672684688674e-17, True),
        'certificate_spectrum': (1.6653345369377348e-16, True),
        'dual_feasibility': (1.4474755294546796e-16, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
    (2, 8, 'standard'): {
        'formula_vs_oracle': (1.1102230246251565e-16, True),
        'avg_state_spectrum': (6.245004513516506e-17, True),
        'certificate_spectrum': (2.949029909160572e-17, True),
        'dual_feasibility': (2.963661798606765e-17, True),
        'duality_gap': (1.6653345369377348e-16, True),
    },
    (2, 2, 'optimized'): {
        'formula_vs_oracle': (5.551115123125783e-17, True),
        'avg_state_spectrum': (2.220446049250313e-16, True),
        'certificate_spectrum': (1.6653345369377348e-16, True),
        'dual_feasibility': (5.0747761429685524e-17, True),
        'duality_gap': (0.0, True),
    },
    (2, 3, 'optimized'): {
        'formula_vs_oracle': (8.881784197001252e-16, True),
        'avg_state_spectrum': (1.6653345369377348e-16, True),
        'certificate_spectrum': (7.771561172376096e-16, True),
        'dual_feasibility': (2.1895706552362023e-16, True),
        'duality_gap': (2.220446049250313e-16, True),
    },
    (2, 4, 'optimized'): {
        'formula_vs_oracle': (4.440892098500626e-16, True),
        'avg_state_spectrum': (1.1102230246251565e-16, True),
        'certificate_spectrum': (1.8041124150158794e-16, True),
        'dual_feasibility': (1.2725156228335573e-16, True),
        'duality_gap': (2.220446049250313e-16, True),
    },
    (2, 5, 'optimized'): {
        'formula_vs_oracle': (2.220446049250313e-16, True),
        'avg_state_spectrum': (1.3877787807814457e-16, True),
        'certificate_spectrum': (2.0816681711721685e-16, True),
        'dual_feasibility': (1.2120729836586716e-16, True),
        'duality_gap': (3.3306690738754696e-16, True),
    },
    (3, 2, 'optimized'): {
        'formula_vs_oracle': (2.7755575615628914e-17, True),
        'avg_state_spectrum': (2.220446049250313e-16, True),
        'certificate_spectrum': (1.6653345369377348e-16, True),
        'dual_feasibility': (5.976459466954005e-17, True),
        'duality_gap': (0.0, True),
    },
    (3, 3, 'optimized'): {
        'formula_vs_oracle': (5.551115123125783e-17, True),
        'avg_state_spectrum': (8.326672684688674e-17, True),
        'certificate_spectrum': (2.7755575615628914e-16, True),
        'dual_feasibility': (1.5954811058361058e-16, True),
        'duality_gap': (2.220446049250313e-16, True),
    },
    (2, 6, 'optimized'): {
        'formula_vs_oracle': (2.220446049250313e-16, True),
        'avg_state_spectrum': (1.249000902703301e-16, True),
        'certificate_spectrum': (1.0408340855860843e-16, True),
        'dual_feasibility': (5.22374198466478e-17, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
    (3, 4, 'optimized'): {
        'formula_vs_oracle': (0.0, True),
        'avg_state_spectrum': (5.551115123125783e-17, True),
        'certificate_spectrum': (1.5265566588595902e-16, True),
        'dual_feasibility': (1.3865099134330034e-16, True),
        'duality_gap': (1.1102230246251565e-16, True),
    },
}
RECORDED_CHANNEL = {
    (2, 2, 'standard'): 0.46650635094610937,
    (2, 2, 'optimized'): 0.49999999999999967,
    (2, 3, 'standard'): 0.6249999999999992,
    (2, 3, 'optimized'): 0.6545084971874725,
    (2, 4, 'standard'): 0.7328388943630821,
    (2, 4, 'optimized'): 0.7499999999999991,
    (2, 5, 'standard'): 0.8038604626844715,
    (2, 5, 'optimized'): 0.8117449009293661,
    (3, 2, 'standard'): 0.2158676712868962,
    (3, 2, 'optimized'): 0.22222222222222254,
    (3, 3, 'standard'): 0.3139844497174779,
    (3, 3, 'optimized'): 0.33333333333333387,
    (2, 8, 'standard'): 0.9012585357384384,
}
