"""Exact loop densities of the O(1) dense loop model on a cylinder.

Closed-form rational densities for any even circumference, an exact T-Q
re-derivation, coefficient-exact functional-identity checks, an independent
link-pattern transfer-matrix oracle, a numeric six-vertex cross-check and a
Monte Carlo estimator.
"""

from .closed_form import DensityRecord, density_record, nu_c_exact, nu_nc_exact
from .cyclotomic import Cyclotomic, CycPoly, gamma_ratio, pochhammer
from .errors import ComputationError
from .fsz import (
    KUMMER_SHIFTS,
    DerivativeBundle,
    FszSolution,
    bethe_residual,
    build_fsz,
    densities_via_tq,
    fq_fp_closed_eval,
    kummer_contiguous,
    quantity_a,
    quantity_c,
)
from .montecarlo import LoopCensus, MCConfig, MCStats, run, sample_lattice
from .tq_identities import verify_suite, verify_t_form, verify_tq_tp, verify_wronskian
from .transfer_oracle import LinkState, oracle_densities, row_transfer_matrix, sixvertex_check

__version__ = "0.1.0"

__all__ = [
    "ComputationError",
    "Cyclotomic",
    "CycPoly",
    "DensityRecord",
    "DerivativeBundle",
    "FszSolution",
    "KUMMER_SHIFTS",
    "LinkState",
    "LoopCensus",
    "MCConfig",
    "MCStats",
    "bethe_residual",
    "build_fsz",
    "densities_via_tq",
    "density_record",
    "fq_fp_closed_eval",
    "gamma_ratio",
    "kummer_contiguous",
    "nu_c_exact",
    "nu_nc_exact",
    "oracle_densities",
    "pochhammer",
    "quantity_a",
    "quantity_c",
    "row_transfer_matrix",
    "run",
    "sample_lattice",
    "sixvertex_check",
    "verify_suite",
    "verify_t_form",
    "verify_tq_tp",
    "verify_wronskian",
]
