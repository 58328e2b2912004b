"""Exact diagonalization against every analytic building block.

Small transverse-field chains (up to 10 sites) are solved exactly and
compared with the closed forms the criteria are built from: the free-mode
group spectrum, the interaction mean and width per product state, the
Gaussian shape of the energy distribution w_a (from the chain's free-fermion
form), and the error-function formula for the thermal diagonal <a|rho|a>.
Energies are in units of the field B, so a model is K and L alone and the
inverse temperature is beta B.

Run:  python3 demos/oracle_verification.py
"""
from __future__ import annotations

from localtemp.ising import IsingModel
from localtemp.oracle import (
    moments_check,
    rho_diag_check,
    skewness_by_groups,
    spectrum_check,
)

model = IsingModel(k_param=0.3, l_param=0.0)

print("1. open-group spectrum vs the mode formula (exact at L = 0)")
for n in (2, 3, 4):
    deviation = spectrum_check(n, model).max_spectrum_deviation
    print(f"   n = {n}: max deviation {deviation:.3e}")

print()
print("2. interaction statistics of every product state (6 sites, 3 groups of 2)")
report = moments_check(6, 3, model)
print(f"   max |eps_a|                      {report.max_abs_eps:.3e}")
print(f"   max |dense width - junction sum| {report.max_delta_sq_formula_dev:.3e}")
print(f"   max |w_a mean - (E_a + eps_a)|   {report.max_mean_identity_dev:.3e}")
print(f"   max |w_a variance - width|       {report.max_var_identity_dev:.3e}")

print()
print("3. w_a turns Gaussian as groups are added (max |skewness| falls)")
for row in skewness_by_groups(10, 5, model):
    print(f"   {row.n_groups} groups ({row.sites} sites): {row.max_abs_skewness:.6f}")

print()
print("4. thermal diagonal: error-function formula vs dense (beta B = 1)")
for n_groups in (2, 3, 4):
    report = rho_diag_check(2 * n_groups, n_groups, model, 1.0)
    print(
        f"   {n_groups} groups: max |dlog| = {report.max_abs_log_deviation:.6f}"
        f"  ({report.per_junction:.6f} per junction)"
    )

print()
print("the absolute formula error grows additively with the junction count")
print("while the error per junction shrinks, which is the Gaussian limit at")
print("work: each junction contributes an independent width.")
