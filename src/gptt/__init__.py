"""Toolkit for finite-dimensional probabilistic models: spectra,
convertibility, entropies, and erasure thermodynamics."""

__version__ = "0.1.0"

from .core import (
    ChannelMap,
    ConeError,
    DiagonalizationError,
    EffectVec,
    GPTError,
    ModelCompatibilityError,
    ModelSpec,
    NormalizationError,
    StateVec,
    UnsupportedModelError,
    apply_channel,
    compose,
    effect_norm,
    lift_channel,
    marginal,
    pairing,
    state_norm,
    tensor_channels,
    tensor_states,
)
from .zoo import (
    basis_aligning_reversible,
    basis_aligning_reversibles,
    build_model,
    compose_systems,
    distinguishing_effects,
    load_model,
    parse_model_string,
    pure_maximal_set,
    reversible_sending,
    save_model,
    sector_weights,
    swap_channel,
)
from .spectral import (
    Diagonalization,
    dagger,
    diagonalize,
    functional_calculus,
    purify,
    schmidt_coefficients,
    transition_matrix,
)
from .resource import (
    ConversionOutcome,
    birkhoff_decompose,
    build_rare_channel,
    build_unital_channel,
    check_unrestricted_reversibility,
    convertible,
    majorizes,
)
from .thermo import (
    ThermoLedger,
    beta_from_energy,
    bipartite_entropies,
    entropy,
    erasure_demo,
    gibbs_state,
    landauer_ledger,
    max_entropy_audit,
    measurement_distribution,
    monotone_audit,
    relative_entropy,
)
from .symmetry import (
    informational_equilibrium_check,
    invariant_state,
    is_transitive,
    perfectly_distinguishable_search,
    twirl,
)

__all__ = [name for name in dir() if not name.startswith("_")]
