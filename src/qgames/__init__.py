"""Quantum game engine.

Simulates three entanglement-assisted protocols — the two-player dilemma
with an entangler/disentangler pair, n-player minority games, and the
three-player/three-choice restaurant game — together with exact classical
oracles and a deterministic equilibrium-search layer.
"""

from .games import (
    EmbeddingCheck,
    GameSpec,
    PayoffReport,
    classical_embedding_check,
    classical_uniform_payoff,
    entangler,
    game_by_name,
    game_to_json,
    kolkata,
    minority,
    play_profile,
    play_symmetric,
    prisoners_dilemma,
)
from .solver import (
    BestResponseResult,
    EquilibriumVerdict,
    FidelitySweep,
    ParetoVerdict,
    SearchConfig,
    best_response,
    dominant_strategy,
    fidelity_sweep,
    pareto_check_symmetric,
    sweep_to_csv,
    verify_nash,
)
from .states import (
    PureState,
    SystemShape,
    ghz,
)
from .strategies import (
    Family,
    KOLKATA_OPTIMAL_PARAMS,
    MINORITY_OPTIMAL_PARAMS,
    PD_EQUILIBRIUM_PARAMS,
    StrategySpec,
    classical_set,
    cyclic_s,
    parse_radians,
    parse_strategy,
    pauli,
    su2_eisert,
    su2_full,
    su3_frame,
)

__version__ = "0.1.0"

__all__ = [
    "BestResponseResult",
    "EmbeddingCheck",
    "EquilibriumVerdict",
    "Family",
    "FidelitySweep",
    "GameSpec",
    "KOLKATA_OPTIMAL_PARAMS",
    "MINORITY_OPTIMAL_PARAMS",
    "PD_EQUILIBRIUM_PARAMS",
    "ParetoVerdict",
    "PayoffReport",
    "PureState",
    "SearchConfig",
    "StrategySpec",
    "SystemShape",
    "best_response",
    "classical_embedding_check",
    "classical_set",
    "classical_uniform_payoff",
    "cyclic_s",
    "dominant_strategy",
    "entangler",
    "fidelity_sweep",
    "game_by_name",
    "game_to_json",
    "ghz",
    "kolkata",
    "minority",
    "pareto_check_symmetric",
    "parse_radians",
    "parse_strategy",
    "pauli",
    "play_profile",
    "play_symmetric",
    "prisoners_dilemma",
    "su2_eisert",
    "su2_full",
    "su3_frame",
    "sweep_to_csv",
    "verify_nash",
]
