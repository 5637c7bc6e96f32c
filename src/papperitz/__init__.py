"""Closed-form and numerical solutions of
(1+z^2)^2 y'' + 2az(1+z^2) y' + 4(b+cz) y = 0."""

from .closed_form import (
    BasisMember,
    DegeneracyClass,
    DerivedParams,
    EquationParams,
    Jet2,
    derive_params,
    eval_basis,
    eval_solution,
    fit_ivp,
    solution_jets,
    wronskian,
)
from .hypergeom import (
    EvalStrategy,
    HypParams,
    gauss_2f1,
    gauss_2f1_jets,
    raw_series,
    select_strategy,
    series_jets,
)
from .mobius import principal_power
from .oracle import (
    IntegrationControl,
    PathSpec,
    VerifyReport,
    compare_closed_numeric,
    integrate_ivp,
    residual_z,
)

__all__ = [
    "BasisMember", "DegeneracyClass", "DerivedParams", "EquationParams",
    "Jet2", "derive_params", "eval_basis", "eval_solution", "fit_ivp",
    "solution_jets", "wronskian", "EvalStrategy", "HypParams",
    "gauss_2f1", "gauss_2f1_jets", "raw_series", "select_strategy",
    "series_jets", "principal_power", "IntegrationControl", "PathSpec",
    "VerifyReport", "compare_closed_numeric", "integrate_ivp", "residual_z",
]

__version__ = "0.1.0"
