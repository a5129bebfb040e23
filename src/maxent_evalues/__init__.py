"""Growth-rate-optimal e-values for maximum entropy model tests on 2xk binary tables."""

from .diagnostics import (
    RegretCurve,
    fit_log_slope,
    gap_r,
    gap_r_prime,
    regret,
    regret_curve,
    theorem1_diagnostic,
    worst_case_r_prime,
)
from .evariables import (
    RiprSolution,
    Statistic,
    decide,
    e_power,
    ripr_solve,
)
from .models import Table
from .numerics import Pmf, binomial_pmf, convolve_all
from .priors import PriorSpec, induced_group_pmf
from .table_io import NetworkInput, network_to_table, parse_table

__all__ = [
    "NetworkInput",
    "Pmf",
    "PriorSpec",
    "RegretCurve",
    "RiprSolution",
    "Statistic",
    "Table",
    "binomial_pmf",
    "convolve_all",
    "decide",
    "e_power",
    "fit_log_slope",
    "gap_r",
    "gap_r_prime",
    "induced_group_pmf",
    "network_to_table",
    "parse_table",
    "regret",
    "regret_curve",
    "ripr_solve",
    "theorem1_diagnostic",
    "worst_case_r_prime",
]
