"""
Deterministic and stochastic rounding on a grid
===============================================

Rounds a handful of values to integers with every deterministic rule, then
shows how stochastic rounding turns a single value into a two-point random
outcome whose average recovers the input.
"""

import numpy as np

from srlab import SR, DeterministicMode, RandomStream, RoundingSpec, round_values

spec = RoundingSpec()  # integers
values = [1.6, 0.5, -0.5, -1.6]

print(f"{'mode':>10}", *[f"{v:>6}" for v in values])
for mode in DeterministicMode:
    rounded = [round_values(v, mode, spec) for v in values]
    print(f"{mode.label:>10}", *[f"{r:>6}" for r in rounded])

# 0.4 rounds down to 0 with probability 0.6 and up to 1 with probability 0.4,
# so the sample mean drifts back to 0.4 as draws accumulate.
rng = RandomStream(seed=42)
draws = round_values(np.full(100_000, 0.4), SR, spec, rng)
print()
print("stochastic rounding of 0.4 to integers:")
print("  outcomes:", sorted(set(draws.tolist())))
print(f"  mean:     {draws.mean():.5f}   (input was 0.4)")
print(f"  variance: {draws.var():.5f}   (two-point value: 0.24)")

# finer grids work the same way after scaling; three decimal digits:
milli = RoundingSpec(3, 10)
x = 0.30146
print()
print(f"rounding {x} to three decimal digits:")
print("  floor grid point:", round_values(x, DeterministicMode.FLOOR, milli))
print("  five stochastic draws:", round_values(np.full(5, x), SR, milli, rng).tolist())
