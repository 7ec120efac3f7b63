"""
The sharp cyclic correlation bound
==================================

For mean-zero unit vectors x of length n, the cyclic correlation
sum(x[j] * x[j-1]) never exceeds cos(2*pi/n), and the bound is attained
exactly by samples of a single harmonic.  This script pokes at that
claim from three sides: random search, the closed-form extremizer, and
an eigensolver on the odd vectors.
"""

import numpy as np

from wirtinger import (
    check_inequality,
    check_inequality_rows,
    cyclic_correlation,
    discrete_bound,
    extremal_vector,
    extremal_span_residual,
    oracle_max,
    random_unit_zero_mean_rows,
)

n = 24
bound = discrete_bound(n)
print(f"n = {n}, bound cos(2*pi/n) = {bound:.15f}")

# random search: 50k mean-zero unit vectors, none should beat the bound
rng = np.random.default_rng(0)
xs = random_unit_zero_mean_rows(n, 50_000, rng)
slacks = check_inequality_rows(xs)  # bound - correlation: the least slack has the best
best = cyclic_correlation(xs[slacks.argmin()])
print(f"best of 50000 random vectors   {best:.15f}  (gap {bound - best:.3e})")

# the extremizer: first-harmonic samples with a^2 + b^2 = 2/n
a = np.sqrt(2.0 / n)
x_star = extremal_vector(n, a, 0.0)
report = check_inequality(x_star)
print(f"extremal vector correlation    {report.correlation:.15f}  (slack {report.slack:.3e})")

# phase does not matter: any (a, b) on the circle a^2 + b^2 = 2/n works
for theta in (0.3, 1.1, 2.8):
    x = extremal_vector(n, a * np.cos(theta), a * np.sin(theta))
    print(f"  rotated by {theta:.1f}: slack = {check_inequality(x).slack:.3e}")

# independent confirmation: maximize the quadratic form directly
result = oracle_max(n)
print(f"eigensolver maximum            {result.value:.15f}")
print(f"difference from closed form    {abs(result.value - bound):.3e}")

# the argmax must live in the first-harmonic plane
residual = extremal_span_residual(result.argmax)
print(f"argmax distance from span      {residual:.3e}")
