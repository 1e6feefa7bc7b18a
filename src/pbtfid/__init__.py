"""Entanglement fidelity of port-based teleportation protocols.

Closed-form representation-theoretic evaluation of the standard protocol on
N maximally entangled ports and of the fully optimized protocol, together
with a dense small-size oracle that certifies optimality of the square-root
measurement through semidefinite-programming duality.
"""

__version__ = "0.1.0"

from .config import ConfigError
from .fidelity import (
    BlockValue,
    EigenData,
    FidelityReport,
    PortCoefficients,
    asymptote_standard,
    avg_state_eigenvalue,
    block_spectrum,
    box_incidence,
    exact_threshold,
    fidelity_given_coefficients,
    fidelity_standard,
    lower_bound_standard,
    opt_block_coefficient,
    optimize_coefficients,
    pgm_block_coefficient,
    scan,
)
from .oracle import (
    CertificateReport,
    CheckResult,
    DenseOperator,
    Ensemble,
    SizeCapError,
    average_state,
    build_eta,
    build_port_operator,
    build_rho,
    certificate_X,
    certificate_Y,
    certify_optimality,
    embed_operator,
    eta_ensemble,
    haar_unitary,
    match_block_spectrum,
    maximally_entangled,
    maximally_entangled_vector,
    oracle_cap,
    partial_trace,
    partial_trace_first,
    pbt_ensemble,
    permutation_operator,
    port_state_vector,
    pretty_good_measurement,
    run_verification,
    success_probability,
    teleportation_fidelity_direct,
    young_projector,
)
from .partitions import (
    BoxRelation,
    DimensionRecord,
    Partition,
    PartitionLevel,
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
