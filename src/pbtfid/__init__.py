"""Entanglement fidelity of port-based teleportation protocols.

Closed-form representation-theoretic evaluation of the standard protocol on
N maximally entangled ports and of the fully optimized protocol, together
with a dense small-size oracle that certifies optimality of the square-root
measurement through semidefinite-programming duality.
"""

__version__ = "0.1.0"

from .config import ConfigError, SizeCapError
from .fidelity import (
    BlockValue,
    EigenData,
    FidelityReport,
    PortCoefficients,
    asymptote_standard,
    block_spectrum,
    fidelity_given_coefficients,
    fidelity_standard,
    lower_bound_standard,
    optimize_coefficients,
)
from .oracle import (
    CertificateReport,
    DenseOperator,
    Ensemble,
    average_state,
    build_port_operator,
    build_rho,
    certificate,
    certificate_X,
    certificate_Y,
    certify_optimality,
    eta_ensemble,
    pbt_ensemble,
    pretty_good_measurement,
    success_probability,
    teleportation_fidelity_direct,
    young_projector,
)
from .partitions import (
    Partition,
    PartitionLevel,
    enumerate_partitions,
    partition_level,
    specht_dim,
    weyl_dim,
)
from .verify import CheckResult, match_block_spectrum, run_verification
