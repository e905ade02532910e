"""Exact sigma-dimension of systems of algebraic difference equations.

Exact values for monomial sigma-ideals and univariate sigma-monomials
(covering density), convergent upper bounds for general systems
(truncated Groebner dimension sequences), plus the supporting machinery:
free-set tests, minimum hitting sets, the column-pick automaton of a
family (window numbers, and interval transversals tau(E, i) as the window
numbers of the family {-E}), a coverage automaton with exact
minimum-mean-cycle search, and a finite-field solution oracle.
"""

from .covering import IntSet, PeriodicComplement, covering_density, optimal_complement, reflect, tau_interval
from .engine import (
    CapExceededError,
    DimensionReport,
    DimEntry,
    LinearTail,
    detect_eventual_linear,
    monomialize,
    not_free_certificate,
    sigma_dim,
    sigma_dim_family,
    sigma_dim_univariate_monomial,
    truncated_dim_sequence,
)
from .families import (
    EMPTY,
    EmptyDimension,
    SigmaFamily,
    SupportSet,
    UnitIdealError,
    family_from_monomials,
    is_free,
    max_free_subset,
    monomial_krull_dim,
    tau_family,
    window_dim,
    window_taus,
)
from .groebner import (
    LEX,
    GroebnerBasis,
    MonomialOrder,
    buchberger,
    eliminate,
    elimination_order,
    leading_monomial_ideal,
    reduce,
)
from .lab import (
    BudgetExceededError,
    TruncatedSolutionSet,
    empirical_free_check,
    enumerate_truncated_solutions,
    projection_count,
)
from .meancycle import CertificateError
from .parsing import ParseError, parse_polynomial, polynomial_text
from .polynomials import DifferencePolynomial, SigmaMonomial, SigmaVariable

__version__ = "0.1.0"
