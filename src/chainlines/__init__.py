"""chainlines: when do chains of lines connect two general points of a variety?

Four layers, one per concern:

* :mod:`chainlines.chow` -- exact sparse arithmetic in the Chow ring of a
  product of projective spaces (integer coefficients, truncated monomials).
* :mod:`chainlines.criteria` -- the closed-form tests: the chain-connectivity
  inequality, minimal chain length, complete-intersection length, Fano index,
  line-family dimension, chain-locus bound, sharpness family.
* :mod:`chainlines.chains` -- the intersection classes that certify and count
  chains of a given length, including witness monomials and the condition
  tally.
* :mod:`chainlines.finite_geometry` -- exhaustive cross-checks over a prime
  field: point/line enumeration, line containment, chain search, loci,
  connectivity reports.

The ``chainlines`` command exposes all of it for batch use.
"""

from .chow import ChowClass, Monomial, ProductSpace, hyperplane, one, zero
from .criteria import (
    DefiningData,
    SharpnessReport,
    ci_length,
    fano_index_ci,
    lx_dim_ci,
    min_chain_length,
    rc_criterion,
    sharpness_report,
    wa_bound,
)
from .chains import (
    ChainProblem,
    ConditionTally,
    CountingFactors,
    ExpectedDimensionError,
    NegativeExpectedDimensionError,
    PositiveExpectedDimensionError,
    Witness,
    chain_count,
    class_term_count,
    condition_tally,
    counting_class,
    counting_factors,
    existence_class,
    expected_dimension,
    witness_exponents,
    witness_monomial,
)
from .finite_geometry import (
    BudgetExceededError,
    Chain,
    ChainGraph,
    ConnectivityReport,
    HomogPoly,
    Line,
    PrimeField,
    VarietyParseError,
    VarietySpec,
    chain_search,
    connectivity_report,
    coordinate_hyperplane,
    enumerate_points,
    eval_poly,
    fermat_cubic,
    format_point,
    format_variety,
    line_in_variety,
    line_points,
    line_through,
    lines_through,
    load_variety,
    locus,
    normalize_point,
    on_variety,
    parse_point,
    parse_variety,
    split_quadric,
)

__version__ = "0.1.0"
