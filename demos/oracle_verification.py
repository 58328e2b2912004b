"""Dense diagonalization against every analytic building block.

Small transverse-field chains (up to 10 sites) are solved exactly and
compared with the closed forms the criteria are built from: the free-mode
group spectrum, the interaction mean and width per product state, the
Gaussian shape of the energy distribution w_a, and the error-function
formula for the thermal diagonal <a|rho|a>.

Run:  python3 demos/oracle_verification.py
"""
from __future__ import annotations

import numpy as np

from localtemp.canonical import GroupStatistics, rho_diag
from localtemp.ising import IsingModel, delta_sq, group_energy, occupation_patterns
from localtemp.oracle import (
    DenseThermalSystem,
    build_hamiltonian,
    distribution_moments,
    interaction_statistics,
    occupations_by_energy,
    product_basis,
    product_statistics,
    rho_product_diag,
    thermal_state,
    w_a_distribution,
)

model = IsingModel.from_kl(1.0, 0.3, 0.0)

print("1. open-group spectrum vs the mode formula (exact at L = 0)")
for n in (2, 3, 4):
    dense = np.sort(np.linalg.eigvalsh(build_hamiltonian(n, model)))
    formula = np.sort(group_energy(occupation_patterns(n), model))
    print(f"   n = {n}: max deviation {np.max(np.abs(dense - formula)):.3e}")

print()
print("2. interaction statistics per product state (6 sites, 3 groups of 2)")
pb = product_basis(6, 2, model)
occs = occupations_by_energy(model, 2)
worst_eps = 0.0
worst_dsq = 0.0
for a in range(2**6):
    eps, dsq = product_statistics(pb, a)
    worst_eps = max(worst_eps, abs(eps))
    states = [occs[(a >> (2 * g)) % 4] for g in range(3)]
    formula = sum(delta_sq(states[g], states[g + 1], model) for g in range(2))
    worst_dsq = max(worst_dsq, abs(dsq - formula))
print(f"   max |eps_a|                      {worst_eps:.3e}")
print(f"   max |dense width - junction sum| {worst_dsq:.3e}")

print()
print("3. w_a turns Gaussian as groups are added (max |skewness| falls)")
for n_groups in (3, 4, 5):
    sys = DenseThermalSystem.solve(build_hamiltonian(2 * n_groups, model), 1.0)
    pb_g = product_basis(2 * n_groups, 2, model)
    worst = 0.0
    for a in range(4**n_groups):
        if product_statistics(pb_g, a)[1] < 1e-12:
            continue
        worst = max(worst, abs(distribution_moments(w_a_distribution(sys, pb_g, a))[2]))
    print(f"   {n_groups} groups ({2 * n_groups} sites): {worst:.6f}")

print()
print("4. thermal diagonal: error-function formula vs dense (beta B = 1)")
for n_groups in (2, 3, 4):
    sys = DenseThermalSystem.solve(build_hamiltonian(2 * n_groups, model), 1.0)
    pb_g = product_basis(2 * n_groups, 2, model)
    log_z, _ = thermal_state(sys)
    dense_diag = rho_product_diag(sys, pb_g)
    eps, dsq = interaction_statistics(pb_g)
    wide = dsq >= 1e-12
    stats = GroupStatistics(
        e_a=pb_g.product_energies[wide],
        eps_a=eps[wide],
        delta_sq_a=dsq[wide],
        e0=float(np.min(sys.eigenvalues)),
        e1=float(np.max(sys.eigenvalues)),
    )
    predicted = rho_diag(stats, sys.beta, log_z)
    worst = float(np.max(np.abs(predicted - np.log(dense_diag[wide]))))
    per_junction = worst / (n_groups - 1)
    print(
        f"   {n_groups} groups: max |dlog| = {worst:.6f}"
        f"  ({per_junction:.6f} per junction)"
    )

print()
print("the absolute formula error grows additively with the junction count")
print("while the error per junction shrinks, which is the Gaussian limit at")
print("work: each junction contributes an independent width.")
