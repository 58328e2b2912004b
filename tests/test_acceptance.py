"""Acceptance suite: one test per shipped guarantee, numbered for -v output.

Each test states its tolerance inline. Goldens come from an independent
high-precision implementation kept outside the package; none are produced by
the code under test.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from localtemp.canonical import AccuracyParams, GroupStatistics, rho_diag
from localtemp.harmonic import HarmonicModel, asymptotic_nmin, min_length
from localtemp.harmonic import nmin as harmonic_nmin
from localtemp.ising import (
    IsingModel,
    delta_sq,
    group_energy,
    nmin_linearity,
    occupation_patterns,
)
from localtemp.ising import nmin as ising_nmin
from localtemp.oracle import (
    Boundary,
    DenseThermalSystem,
    build_hamiltonian,
    harmonic_mode_check,
    interaction_statistics,
    occupations_by_energy,
    product_basis,
    product_moments,
    skewness_by_groups,
    thermal_state,
)
from localtemp.specfun import bose_integrand, erfcx, integrate, min_integer_above

ACC = AccuracyParams(alpha=10.0, delta=0.01)


def test_criterion_01_high_t_harmonic_plateau():
    start = time.perf_counter()
    for t in (5.0, 10.0, 100.0):
        exact = harmonic_nmin(t, ACC).n_min
        assert 1900 <= exact <= 2100  # within 5% of 2 alpha/delta
        plateau = min_integer_above(asymptotic_nmin(t, ACC))
        assert plateau == 2001
        assert 2000 <= plateau <= 2101
    assert time.perf_counter() - start < 1.0


def test_criterion_02_low_t_harmonic_scaling():
    start = time.perf_counter()
    grid = np.geomspace(1e-4, 1e-2, 7)
    n_values = np.array([harmonic_nmin(float(t), ACC).n_min for t in grid], float)
    slope, intercept = np.polyfit(np.log(1.0 / grid), np.log(n_values), 1)
    assert abs(slope - 3.0) <= 0.05
    prefactor = math.exp(intercept)
    expected = 3.0 * ACC.alpha / (2.0 * math.pi**2)
    assert abs(prefactor - expected) / expected <= 0.05
    assert time.perf_counter() - start < 2.0


def test_criterion_03_material_length_scales():
    silicon = HarmonicModel(theta=645.0, a0=2.4e-10)
    l_si = min_length(1.0 / 645.0, ACC, silicon)
    assert 0.05 <= l_si <= 0.2

    # iron golden follows the plateau estimator, not the full pipeline
    t_iron = 5000.0 / 470.0
    l_fe = min_integer_above(asymptotic_nmin(t_iron, ACC)) * 2.5e-10
    assert abs(l_fe - 5.0e-7) / 5.0e-7 <= 0.02

    carbon = HarmonicModel(theta=2230.0, a0=1.5e-10)
    l_c = min_length(270.0 / 2230.0, ACC, carbon)
    assert abs(l_c - 1.3e-7) / 1.3e-7 <= 0.05


def test_criterion_04_harmonic_criteria_crossover():
    # root of low-T branch minus plateau, bracketed then bisected
    plateau = asymptotic_nmin(2.0, ACC)

    def gap(t):
        return asymptotic_nmin(t, ACC) - plateau

    lo, hi = 0.01, 0.9
    assert gap(lo) > 0 > gap(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    crossover = 0.5 * (lo + hi)
    assert abs(crossover - 0.091) <= 0.005


def test_criterion_05_ising_const_width_thresholds():
    grid = np.geomspace(0.1, 100.0, 200)
    thresholds = {}
    for coupling in (0.1, 10.0):
        model = IsingModel.from_kl(1.0, coupling, coupling)
        start = time.perf_counter()
        n_values = [ising_nmin(float(t), ACC, model).n_min for t in grid]
        assert time.perf_counter() - start < 2.0
        above = [i for i, n in enumerate(n_values) if n > 1]
        assert above, "criterion must bind at the cold end"
        last = above[-1]
        assert last < grid.size - 1  # trivially satisfiable above the threshold
        assert all(n == 1 for n in n_values[last + 1 :])
        thresholds[coupling] = float(grid[last])
    assert thresholds[10.0] > thresholds[0.1]
    # measured thresholds agree with the frozen roots to one grid step
    step = math.log(grid[1] / grid[0])
    for coupling, root in ((0.1, 0.755987105272306), (10.0, 27.571296748746548)):
        assert abs(math.log(thresholds[coupling] / root)) <= 1.5 * step


def test_criterion_06_ising_isotropic_low_t_slope():
    model = IsingModel.from_kl(1.0, 10.0, 0.0)
    grid = np.geomspace(1e-3, 1e-2, 6)
    n_values = [ising_nmin(float(t), ACC, model).n_min for t in grid]
    slope, _ = np.polyfit(np.log(grid), np.log(np.array(n_values, float)), 1)
    assert abs(slope - (-3.0)) <= 0.1


def test_criterion_07_ising_linearity_exact_integer():
    model = IsingModel.from_kl(1.0, 0.0, 10.0)
    assert nmin_linearity(1.0, ACC, model) == 2501


def test_criterion_08_oracle_exact_at_zero_anisotropy():
    start = time.perf_counter()
    # open-group spectra as multisets
    for k_param in (0.3, 1.7):
        model = IsingModel.from_kl(1.0, k_param, 0.0)
        for n in (2, 3, 4):
            dense = np.sort(np.linalg.eigvalsh(build_hamiltonian(n, model)))
            formula = np.sort(group_energy(occupation_patterns(n), model))
            assert float(np.max(np.abs(dense - formula))) <= 1e-10

    # interaction means and widths on an 8-site chain split into pairs
    model = IsingModel.from_kl(1.0, 0.3, 0.0)
    eps, dsq = interaction_statistics(product_basis(8, 2, model))
    assert np.max(np.abs(eps)) <= 1e-10
    occs = occupations_by_energy(model, 2)
    for a in range(2**8):
        states = [occs[(a >> (2 * g)) % 4] for g in range(4)]
        formula = sum(delta_sq(states[g], states[g + 1], model) for g in range(3))
        assert abs(dsq[a] - formula) <= 1e-10
    assert time.perf_counter() - start < 30.0


def test_criterion_09_oracle_moment_identities():
    for k_param in (0.0, 0.3, 1.2):
        for l_param in (0.0, 0.4, 2.0):
            model = IsingModel.from_kl(1.0, k_param, l_param)
            sys = DenseThermalSystem.solve(build_hamiltonian(8, model), 1.0)
            pb = product_basis(8, 2, model)
            eps, dsq = interaction_statistics(pb)
            mean, var, _ = product_moments(sys, pb)
            assert np.max(np.abs(mean - (pb.product_energies + eps))) <= 1e-10
            assert np.max(np.abs(var - dsq)) <= 1e-10


def test_criterion_10_clt_skewness_trend():
    start = time.perf_counter()
    model = IsingModel.from_kl(1.0, 0.3, 0.0)
    # the check skips zero-width product states: a point distribution has no shape
    rows = skewness_by_groups(10, 5, model, 1.0)
    maxima = [row.max_abs_skewness for row in rows if row.n_groups >= 3]
    for worst, target in zip(maxima, (2.0, 1.632993, 1.5), strict=True):
        assert math.isclose(worst, target, rel_tol=1e-5)
    assert maxima[0] > maxima[1] > maxima[2]
    assert time.perf_counter() - start < 120.0


def test_criterion_11_anisotropy_spectrum_deviation():
    model = IsingModel.from_kl(1.0, 0.0, 1.0)
    dense = np.sort(np.linalg.eigvalsh(build_hamiltonian(2, model)))
    formula = np.sort(group_energy(occupation_patterns(2), model))
    deviation = float(np.max(np.abs(dense - formula)))
    assert abs(deviation - (math.sqrt(5.0) - 2.0)) <= 1e-10


def test_criterion_12_harmonic_dispersion_identity():
    model = HarmonicModel(theta=2.0, a0=1.0)
    for n in range(1, 65):
        assert harmonic_mode_check(n, model) <= 1e-10 * model.omega0**2


def test_criterion_13_special_functions():
    table = [
        (-8.0, 2.0),
        (-5.0, 1.9999999999984626),
        (-3.0, 1.9999779095030015),
        (-2.0, 1.9953222650189528),
        (-1.5, 1.9661051464753108),
        (-1.0, 1.8427007929497148),
        (-0.5, 1.5204998778130465),
        (-0.25, 1.276326390168237),
        (0.0, 1.0),
        (0.25, 0.7236736098317631),
        (0.5, 0.4795001221869535),
        (0.75, 0.28884436634648486),
        (1.0, 0.15729920705028513),
        (1.5, 0.033894853524689274),
        (2.0, 0.004677734981047266),
        (2.5, 0.0004069520174449589),
        (3.0, 2.209049699858544e-05),
        (4.0, 1.541725790028002e-08),
        (6.0, 2.1519736712498913e-17),
        (10.0, 2.088487583762545e-45),
    ]
    for x, expected in table:
        got = erfcx(x) * math.exp(-x * x)
        assert abs(got - expected) <= 1e-13 * max(abs(expected), 1e-300)
    debye = integrate(bose_integrand, 0.0, 50.0)
    assert abs(debye - math.pi**2 / 6.0) <= 1e-9
