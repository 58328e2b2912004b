"""Criteria for the existence of local temperature in coupled quantum chains.

Subpackages by concern: specfun (scalar numerics), canonical
(model-independent criteria), harmonic and ising (chain-specific bounds),
oracle (dense small-chain verification), cli (command line front end).
"""
from .canonical import (
    AccuracyParams,
    Binding,
    CriterionReport,
    GroupStatistics,
)
from .ising import CouplingCase, IsingModel, UnsupportedCouplingError

__version__ = "0.1.0"

__all__ = [
    "AccuracyParams",
    "Binding",
    "CouplingCase",
    "CriterionReport",
    "GroupStatistics",
    "IsingModel",
    "UnsupportedCouplingError",
    "__version__",
]
