"""
Square roots by Newton iteration under rounding
===============================================

Every quantity in the iteration x <- (x + a/x)/2 is rounded to the working
grid: the radicand once, then the quotient and the halved sum at each step.
A run stops once two iterates differ by at most 1e-5, or after 100 steps.
With three decimal digits every run ends within a grid step of the root of
its rounded radicand, sqrt(fl(a)), but not always of the true root: at
a = 0.30146 half-even ends at 0.548, 1.05 steps below sqrt(a), and so do
about a fifth of the d1 repetitions.  With integer arithmetic small
radicands round to zero and the iteration breaks down, which the experiment
reports per repetition.
"""

from srlab import (
    DeterministicMode,
    Preset,
    RoundingSpec,
    SR,
    SQRT_TEST_VALUES,
    optimize_table,
    run_sqrt_experiment,
)

d1 = optimize_table(Preset.D1, grid_size=201)

print("three decimal digits (grid step 0.001):")
print(f"  {'a':>12}  {'mode':>4}  {'mean':>10}  {'rel err':>9}  {'steps':>6}")
for a in SQRT_TEST_VALUES:
    for label, mode in (("sr", SR), ("cr", DeterministicMode.HALF_EVEN), ("d1", d1)):
        rep = run_sqrt_experiment(a, mode, RoundingSpec(3, 10), n_reps=2000, seed=0)
        s = rep.summary
        print(f"  {a:12.5f}  {label:>4}  {s.mu:10.5f}  {s.mean_abs_rel_err:9.2e}  {s.n_it_mean:6.2f}")

print()
print("integer arithmetic (grid step 1):")
for a in (0.30146, 6.55501, 51.16904):
    for label, mode in (("sr", SR), ("cr", DeterministicMode.HALF_EVEN)):
        rep = run_sqrt_experiment(a, mode, RoundingSpec(0, 10), n_reps=2000, seed=0)
        if rep.summary is None:
            print(f"  a={a:<10} {label}: breaks down (radicand or iterate rounds to zero)")
        else:
            s = rep.summary
            steps = "-" if s.n_it_mean is None else f"{s.n_it_mean:.2f}"
            print(
                f"  a={a:<10} {label}: mean {s.mu:.4f}, rel err {s.mean_abs_rel_err:.2e}, "
                f"steps {steps}, breakdowns {rep.n_breakdowns}, stuck {rep.n_nonconverged}"
            )
