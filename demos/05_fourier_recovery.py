"""
Fourier coefficients from interpolants alone
============================================

Classically a_j and b_j come from integrals of f against cos(jt) and
sin(jt).  Here they are recovered without any integral of f itself:
inner products of piecewise-linear interpolants, rescaled by the basis
interpolant norm, reproduce the coefficients exactly for trigonometric
polynomials and to O(n^-2) in general.  The norm cancels on each plane
H_j, so fourier_discrete computes the same projection as (2/n) times a
coefficient of one real FFT of the samples.
"""

import numpy as np

from wirtinger import adaptive_simpson, fourier_discrete, fourier_quadrature, named_function, partial_sum

f = named_function("mix13")  # sin t + 0.5 cos 3t
n, jmax = 513, 5

table_d = fourier_discrete(f, n, jmax)
table_q = fourier_quadrature(f, jmax)
print(f"{f.label}: interpolant route at n={n} vs adaptive quadrature")
print(f"{'j':>3} {'a (interp)':>14} {'b (interp)':>14} {'|da|':>9} {'|db|':>9}")
for j, a_d, b_d in table_d.coefficients:
    _, a_q, b_q = table_q.coefficients[j - 1]
    print(f"{j:3d} {a_d:14.10f} {b_d:14.10f} {abs(a_d - a_q):9.2e} {abs(b_d - b_q):9.2e}")
print("exact for a trig polynomial below the aliasing threshold")
print()

# a genuinely non-trigonometric function: the odd cubic t(2pi-t)(pi-t)/pi^3
# has sine coefficients 12 / (pi^3 j^3) and no cosine part
g = named_function("cubicodd")
table = fourier_quadrature(g, 4, tol=1e-12)
print(f"{g.label}: quadrature coefficients vs 12/(pi^3 j^3)")
for j, a_j, b_j in table.coefficients:
    exact = 12.0 / (np.pi**3 * j**3)
    print(f"  j={j}  a={a_j:+.2e}  b={b_j:.12f}  closed form {exact:.12f}")
print()

# truncation error of partial sums, measured in L2 over one period
table_g = fourier_discrete(g, 1025, 6)
print("partial sums of the cubic: L2 truncation error")
for order in range(0, 7):
    p = partial_sum(table_g, order)
    err2 = adaptive_simpson(lambda t: (g.value(t) - p.value(t)) ** 2, 0.0, 2 * np.pi, tol=1e-12)
    print(f"  order {order}: error {np.sqrt(max(err2, 0.0)):.6e}")
print("every order helps: the cubic carries a sine term at each j, falling off like j^-3")
