"""Anatomy of the equilibrium search layer.

Best responses are exact where the maths allows it: qubit strategies reduce
to a 4x4 eigenproblem on unit quaternions, and an SU(3) strategy that reaches
the 3 * lambda_max bound of its deviation form is certified without a search.
Everywhere else the best points of an exhaustive grid over the family's
parameter box, with preset and random starts, are refined by compass
search, all starts in lockstep with one batched evaluation per round.  This
script shows the moving parts: exact responses, grids, refinement,
certificates, and the determinism guarantees that make search reports
reproducible.
"""

from qgames import (
    Family,
    KOLKATA_OPTIMAL_PARAMS,
    MINORITY_OPTIMAL_PARAMS,
    PD_EQUILIBRIUM_PARAMS,
    SearchConfig,
    StrategySpec,
    best_response,
    kolkata,
    minority,
    parse_strategy,
    pareto_check_symmetric,
    prisoners_dilemma,
    verify_nash,
)

pd = prisoners_dilemma()
equilibrium = StrategySpec(Family.EISERT_SU2, PD_EQUILIBRIUM_PARAMS)

print("=== exact qubit best responses ===")
for family in (Family.EISERT_SU2, Family.FULL_SU2):
    result = best_response(pd, [equilibrium, equilibrium], 1, family)
    print(f"  {family.value:6s}: payoff {result.payoff:.9f} at {result.strategy.literal()}"
          f" ({result.certificate}, {result.evaluations} evaluation)")

print("\n=== grid resolution vs. result quality (su3 search) ===")
kg = kolkata()
table2 = StrategySpec(Family.FRAME_SU3, KOLKATA_OPTIMAL_PARAMS)
result = best_response(kg, [table2] * 3, 1, Family.FRAME_SU3)
print(f"  at su3:table2 the profile itself reaches the 3*lambda_max bound:"
      f" {result.payoff:.9f} ({result.certificate}, {result.evaluations} evaluations)")
profile = [parse_strategy("su3:0.3,0.7,1.1,0.5,2,4,1,3")] * 3
for grid in (2, 3, 4):
    cfg = SearchConfig(grid_points_per_axis=grid, refine_iterations=0)
    result = best_response(kg, profile, 1, Family.FRAME_SU3, cfg)
    print(f"  grid {grid}/axis, no refinement: best payoff {result.payoff:.9f}"
          f" after {result.evaluations} evaluations ({result.certificate})")
print("away from the bound only the search applies; refinement closes the gap:")
cfg = SearchConfig(grid_points_per_axis=3)
result = best_response(kg, profile, 1, Family.FRAME_SU3, cfg)
print(f"  grid 3/axis + compass search: {result.payoff:.9f}"
      f" after {result.evaluations} evaluations")

print("\n=== a full equilibrium verdict ===")
mg = minority(4)
optimal = StrategySpec(Family.FULL_SU2, MINORITY_OPTIMAL_PARAMS)
verdict = verify_nash(mg, [optimal] * 4, Family.FULL_SU2, SearchConfig(seed=2))
print(f"minority optimum: equilibrium={verdict.is_equilibrium}")
for i, (payoff, gain, dev, how) in enumerate(
    zip(verdict.profile_payoffs, verdict.gains, verdict.best_deviations,
        verdict.certificates), start=1
):
    print(f"  player {i}: payoff {payoff:.6f}, best deviation gain {gain:+.2e}"
          f" via {dev.literal()} ({how})")

print("\n=== pareto certificates ===")
bound = pareto_check_symmetric(mg, 0.25, Family.FULL_SU2)
print(f"minority 1/4: optimal={bound.is_optimal} via {bound.certificate}")
cfg = SearchConfig(grid_points_per_axis=4, seed=3)  # coarse scan, warm-started
witness = pareto_check_symmetric(kg, 4 / 9, Family.FRAME_SU3, cfg)
print(f"kolkata 4/9: optimal={witness.is_optimal} via {witness.certificate}; "
      f"witness pays {witness.witness_payoff:.6f}")

print("\n=== determinism ===")
runs = [
    best_response(kg, profile, 1, Family.FRAME_SU3,
                  SearchConfig(grid_points_per_axis=2, refine_iterations=20, seed=11))
    for _ in range(2)
]
print(f"two runs with the same seed -> identical su3 searches: {runs[0] == runs[1]}")
print("eigenvectors are signed by a fixed rule, grids are streamed in")
print("lexicographic order in fixed-size chunks, ties go to the first candidate,")
print("and only the random refinement starts are drawn from the seed, so")
print("reports are reproducible.")
