"""chainlines: when do chains of lines connect two general points of a variety?

Four layers, one per concern:

* :mod:`chainlines.chow` -- classes in the Chow ring of a product of
  projective spaces as sparse values (integer coefficients, truncated
  monomials), and their text.
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

Importing the package loads no layer.  Each name in ``__all__`` is looked
up in its layer on first access (``__getattr__``, PEP 562), which imports
that layer and keeps the name here; a layer's own name imports it too.  So
a command loads only the layers it runs: ``check`` only ``criteria``,
``lines`` only ``finite_geometry``.  What ``chains`` and ``finite_geometry``
share lives here, so that neither loads the other: LENGTH_BUDGET and
BudgetExceededError.  Each of them binds both names at module level, where
the tests can patch its own LENGTH_BUDGET.
"""

__version__ = "0.1.0"

# hard cap on the chain length of the commands whose work and output grow
# with it whatever the input: explore's max_length (one fraction per length,
# finite_geometry), and the l of witness and class (O(l) values per term,
# chains)
LENGTH_BUDGET = 10**5


class BudgetExceededError(ValueError):
    """Raised when a request would exceed a hard budget: LENGTH_BUDGET, the
    ENUMERATION_BUDGET of finite_geometry or a class budget of chains."""


_LAYERS = {
    "chow": "ChowClass Monomial ProductSpace",
    "criteria": "DefiningData SharpnessReport ci_length fano_index_ci lx_dim_ci "
                "min_chain_length rc_criterion sharpness_report wa_bound",
    "chains": "ChainProblem ConditionTally ExpectedDimensionError "
              "NegativeExpectedDimensionError PositiveExpectedDimensionError Witness "
              "chain_count class_term_count class_text condition_tally counting_class "
              "existence_class expected_dimension witness_exponents witness_monomial",
    "finite_geometry": "Chain ChainGraph ConnectivityReport HomogPoly Line PrimeField "
                       "VarietyParseError VarietySpec chain_search connectivity_report "
                       "coordinate_hyperplane enumerate_points eval_poly fermat_cubic "
                       "format_point format_variety line_points lines_through "
                       "load_variety locus normalize_point on_variety parse_point "
                       "parse_variety split_quadric",
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names.split()}

__all__ = ["BudgetExceededError", *_LAYER_OF]


def __getattr__(name: str):
    layer = _LAYER_OF.get(name, name)
    if layer not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{layer}")
    if layer == name:  # the import bound the layer here already
        return module
    value = globals()[name] = getattr(module, name)  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
