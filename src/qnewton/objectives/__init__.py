"""Objective functions: benchmark catalog, bead-chain energies, mini-batches."""

from .base import Objective, fd_gradient, fd_hessian
from .catalog import (catalog_entries, catalog_listing, default_start,
                      make_benchmark)
from .protein import (pair_coupling, parse_sequence, protein_energy,
                      protein_objective)
from .stochastic import (StochasticObjective, make_stochastic_griewank,
                         sample_batch_objective)

__all__ = [
    "Objective", "fd_gradient", "fd_hessian",
    "catalog_entries", "catalog_listing", "default_start", "make_benchmark",
    "pair_coupling", "parse_sequence", "protein_energy", "protein_objective",
    "StochasticObjective", "make_stochastic_griewank",
    "sample_batch_objective",
]
