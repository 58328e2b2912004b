"""How large must a block of a harmonic chain be to have its own temperature?

Walks the temperature axis for the nearest-neighbour oscillator chain and
prints the minimal group size under both criteria, then converts group sizes
into physical lengths for a few materials using their Debye temperature and
lattice constant. High temperatures settle on a plateau n ~ 2 alpha / delta;
low temperatures grow like (Theta/T)^3.

Run:  python3 demos/harmonic_lengths.py
"""
from __future__ import annotations

import numpy as np

from localtemp.canonical import AccuracyParams
from localtemp.harmonic import (
    HarmonicModel,
    asymptotic_nmin,
    min_length,
    nmin,
)

acc = AccuracyParams(alpha=10.0, delta=0.01)

print("minimal group size across the temperature axis (alpha=10, delta=0.01)")
print(f"{'T/Theta':>10}  {'n_cond':>10}  {'n_lin':>8}  {'n_min':>10}  binding")
for t in np.geomspace(1e-3, 1e2, 11):
    rep = nmin(float(t), acc)
    print(
        f"{t:10.4g}  {rep.n_cond_const:>10}  {rep.n_linearity:>8}"
        f"  {rep.n_min:>10}  {rep.binding.value}"
    )

print()
print("asymptotic estimate against the full computation (valid away from")
print("the crossover near T/Theta ~ 0.09)")
for t in (0.005, 0.02, 5.0, 50.0):
    exact = nmin(t, acc).n_min
    approx = asymptotic_nmin(t, acc)
    print(f"  T/Theta = {t:<7g} exact {exact:>12d}   asymptotic {approx:14.1f}")

print()
print("physical lengths l_min = n_min * a0")
materials = [
    ("iron", 470.0, 2.5e-10, 5000.0),
    ("carbon", 2230.0, 1.5e-10, 270.0),
    ("silicon", 645.0, 2.4e-10, 1.0),
]
for name, theta, a0, temp in materials:
    model = HarmonicModel(theta=theta, a0=a0)
    t = temp / theta
    l = min_length(t, acc, model)
    print(f"  {name:8s} at {temp:6.0f} K (T/Theta = {t:9.5f}):  l_min = {l:.4g} m")

print()
print("silicon near 1 K needs a block of order ten centimetres: at low")
print("temperature the thermal wavelength of the soft modes spans that many")
print("lattice sites before a group can carry its own canonical state.")
