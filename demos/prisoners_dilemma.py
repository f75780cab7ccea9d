"""The entangled prisoner's dilemma, step by step.

Classically both players are driven to defect and collect 1 each, even
though mutual cooperation pays 3.  Sharing an entangled resource and
restricting moves to a two-parameter unitary family dissolves the dilemma:
a new equilibrium appears that pays the cooperative 3 to both players.
Widening the moves to all of SU(2) destroys that equilibrium again.
"""

from qgames import (
    Family,
    PD_EQUILIBRIUM_PARAMS,
    SearchConfig,
    StrategySpec,
    best_response,
    classical_uniform_payoff,
    dominant_strategy,
    pauli,
    play_profile,
    play_symmetric,
    prisoners_dilemma,
    verify_nash,
)

game = prisoners_dilemma()

print("=== the classical game ===")
print("payoff table (alice, bob), ket order |x_bob x_alice>:")
for label, row in zip(game.outcome_labels, game.numerators.T):
    print(f"  {label}: {tuple(int(v) for v in row)}")
print(f"dominant strategy for both players: choice {dominant_strategy(game, 1)}"
      " (defect)")
print(f"uniform randomization would pay {classical_uniform_payoff(game)[0]} each")

print("\n=== classical play through the quantum protocol ===")
identity, flip = pauli("I"), pauli("X")
for name, ops in [
    ("cooperate/cooperate", [identity, identity]),
    ("alice defects", [identity, flip]),         # ops are player-n-first
    ("bob defects", [flip, identity]),
    ("defect/defect", [flip, flip]),
]:
    report = play_profile(game, ops)
    print(f"  {name:20s} -> payoffs {tuple(round(p, 6) for p in report.payoffs)}")

print("\n=== the quantum equilibrium ===")
equilibrium = StrategySpec(Family.EISERT_SU2, PD_EQUILIBRIUM_PARAMS)
report = play_symmetric(game, equilibrium.matrix())
print(f"both play {equilibrium.literal()}: payoffs "
      f"{tuple(round(p, 9) for p in report.payoffs)}")

verdict = verify_nash(game, [equilibrium, equilibrium], Family.EISERT_SU2)
print(f"two-parameter scan: equilibrium={verdict.is_equilibrium}, "
      f"max unilateral gain={verdict.max_unilateral_gain:.2e}")

print("\n=== widening the strategy space breaks it ===")
response = best_response(game, [equilibrium, equilibrium], 1, Family.FULL_SU2,
                         SearchConfig(seed=1))
print(f"alice's best full-SU(2) reply: {response.strategy.literal()}")
print(f"her payoff jumps from 3 to {response.payoff:.6f} "
      f"(gain {response.payoff - 3:.3f}); no pure equilibrium survives")

probs = play_profile(
    game, [equilibrium.matrix(), response.strategy.matrix()]
).probabilities
top = sorted(probs.items(), key=lambda kv: -kv[1])[:2]
print("outcome distribution under the deviation:",
      {k: round(v, 4) for k, v in top})
