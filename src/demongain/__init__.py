"""Two-qubit measurement-feedback energy-extraction toolkit.

Exact and shot-sampled simulation of the agent-demon protocol, Pauli
tomography with parametric bootstrap, and coherent gate-phase fitting.
"""

from .gates import NoiseParams
from .protocol import (
    CONDITIONAL_SWAP,
    OutcomeTable,
    ProtocolConfig,
    analytic_concurrence,
    apply_feedback,
    demonic_gain,
    energies_from_table,
    gain_lower_bound,
    measure_demon,
    outcome_table_exact,
    policy_gain,
    prepare_resource,
    run_shots,
)
from .tomography import bootstrap, concurrence, fit_c0, linear_inversion, purity

__all__ = [
    "CONDITIONAL_SWAP",
    "NoiseParams",
    "OutcomeTable",
    "ProtocolConfig",
    "analytic_concurrence",
    "apply_feedback",
    "bootstrap",
    "concurrence",
    "demonic_gain",
    "energies_from_table",
    "fit_c0",
    "gain_lower_bound",
    "linear_inversion",
    "measure_demon",
    "outcome_table_exact",
    "policy_gain",
    "prepare_resource",
    "purity",
    "run_shots",
]

__version__ = "0.1.0"
