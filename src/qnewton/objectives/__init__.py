"""Objective functions: benchmark catalog, bead-chain energies, mini-batches."""

from .base import FD_GRAD_STEP, FD_HESS_STEP, Objective, fd_gradient, fd_hessian
from .catalog import (CatalogEntry, catalog_entries, catalog_listing,
                      default_start, make_benchmark, resolve_entry)
from .protein import (pair_coupling, parse_sequence, protein_energy,
                      protein_objective)
from .stochastic import (StochasticObjective, make_stochastic_griewank,
                         sample_batch_objective)

__all__ = [
    "FD_GRAD_STEP", "FD_HESS_STEP", "Objective", "fd_gradient", "fd_hessian",
    "CatalogEntry", "catalog_entries", "catalog_listing", "default_start",
    "make_benchmark", "resolve_entry",
    "pair_coupling", "parse_sequence", "protein_energy", "protein_objective",
    "StochasticObjective", "make_stochastic_griewank",
    "sample_batch_objective",
]
