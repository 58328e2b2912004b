"""The three tractable coupling cases of the transverse-field chain.

The symmetric and antisymmetric coupling combinations K = (Jx+Jy)/2B and
L = (Jx-Jy)/2B select which criterion decides the minimal group size (B is
the unit of energy, so a model is K and L alone and temperatures are T/B):

  ConstWidth (|K| = |L|)      the junction width is occupation independent,
                              only the constant condition matters;
  FullyAnisotropic (K = 0)    the width varies maximally, the linearity
                              condition dominates;
  Isotropic (L = 0)           below |K| = 1 a sharper all-states bound
                              applies; above it the constant condition
                              returns with a T^-3 low-temperature law.

Anything else is rejected: no criterion covers it.

Run:  python3 demos/ising_coupling_cases.py
"""
from __future__ import annotations

import numpy as np

from localtemp.canonical import AccuracyParams
from localtemp.ising import IsingModel, UnsupportedCouplingError, nmin

acc = AccuracyParams(alpha=10.0, delta=0.01)


def sweep(model, label, grid):
    print(f"{label}  [{model.coupling_case.value}]")
    print(f"  {'T/B':>8}  {'n_cond':>14}  {'n_lin':>8}  {'n_min':>14}")
    for t in grid:
        rep = nmin(float(t), acc, model)
        print(
            f"  {t:8.3g}  {rep.n_cond_const:>14}  {rep.n_linearity:>8}"
            f"  {rep.n_min:>14}"
        )
    print()


sweep(
    IsingModel(0.1, 0.1),
    "K = L = 0.1 (weak, constant width)",
    np.geomspace(0.1, 10.0, 5),
)
sweep(
    IsingModel(10.0, 10.0),
    "K = L = 10 (strong, constant width; threshold moves up with coupling)",
    np.geomspace(1.0, 100.0, 5),
)
sweep(
    IsingModel(0.0, 10.0),
    "K = 0, L = 10 (fully anisotropic; linearity bound ~ 1/T)",
    np.geomspace(0.1, 10.0, 5),
)
sweep(
    IsingModel(0.1, 0.0),
    "K = 0.1, L = 0 (isotropic below the critical ratio)",
    np.geomspace(1e-3, 1.0, 4),
)
sweep(
    IsingModel(10.0, 0.0),
    "K = 10, L = 0 (isotropic above the critical ratio; n_min ~ T^-3)",
    np.geomspace(1e-3, 1.0, 4),
)

print("a coupling outside the three cases is refused:")
try:
    nmin(1.0, acc, IsingModel(2.0, 3.0))
except UnsupportedCouplingError as exc:
    print(f"  UnsupportedCouplingError: {exc}")
