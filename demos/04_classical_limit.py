"""
Recovering the classical picture by refinement
==============================================

Sampling a smooth 2*pi-periodic function on n points and interpolating
linearly gives energies that converge to the continuum integrals at
second order.  The sweep below watches int L^2 and int L'^2 approach
pi for f = sin, and shows the spectral tail telling first harmonics
apart from everything else.
"""

import numpy as np

from wirtinger import named_function, rayleigh_sweep

PI = np.pi
sizes = [8, 16, 32, 64, 128, 256]

report = rayleigh_sweep(named_function("sin1"), sizes)
print("f(t) = sin t: both energies converge to pi")
print(f"{'n':>5} {'int L^2':>12} {'err':>10} {'ratio':>7} {'int L(prime)^2':>14} {'err':>10} {'ratio':>7}")
prev_l2 = prev_h1 = None
for row in report:
    e_l2 = abs(row.energy_l2 - PI)
    e_h1 = abs(row.energy_h1 - PI)
    r_l2 = f"{prev_l2 / e_l2:7.2f}" if prev_l2 else "      -"
    r_h1 = f"{prev_h1 / e_h1:7.2f}" if prev_h1 else "      -"
    print(f"{row.n:5d} {row.energy_l2:12.8f} {e_l2:10.2e} {r_l2} {row.energy_h1:14.8f} {e_h1:10.2e} {r_h1}")
    prev_l2, prev_h1 = e_l2, e_h1
print("error ratios near 4 = second-order convergence")
print()

# first-harmonic samples are exactly extremal at every n: slack 0, no tail
print(f"{'n':>5} {'slack':>10} {'tail':>10}")
for row in report:
    print(f"{row.n:5d} {row.slack:10.2e} {row.tail_energy:10.2e}")
print()

# a second harmonic is nowhere near extremal: slack stays order n^-2
# and half of the energy fraction sits in the k >= 2 blocks
report2 = rayleigh_sweep(named_function("sin2"), sizes)
print("f(t) = sin 2t")
print(f"{'n':>5} {'slack * n^2':>12} {'tail':>10}")
for row in report2:
    print(f"{row.n:5d} {row.slack * row.n**2:12.6f} {row.tail_energy:10.6f}")
print(f"slack * n^2 tends to 6*pi^2 = {6 * PI**2:.6f}; tail locks at 1/2")
