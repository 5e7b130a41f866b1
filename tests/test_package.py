"""The package's exports: the names listed here and no other, each the very
object of its layer, and one budget error shared by the layers that refuse
work."""

import importlib

import pytest

import chainlines
from chainlines import chains, finite_geometry
from chainlines.chains import ChainProblem, witness_exponents
from chainlines.criteria import DefiningData

# every name the package exports, by the layer that defines or re-exports it
EXPORTS = {
    "chow": ["ChowClass", "Monomial", "ProductSpace"],
    "criteria": ["DefiningData", "SharpnessReport", "ci_length", "fano_index_ci", "lx_dim_ci",
                 "min_chain_length", "rc_criterion", "sharpness_report", "wa_bound"],
    "chains": ["ChainProblem", "ConditionTally", "ExpectedDimensionError",
               "NegativeExpectedDimensionError", "PositiveExpectedDimensionError", "Witness",
               "chain_count", "class_term_count", "class_text", "condition_tally",
               "counting_class", "existence_class", "expected_dimension",
               "witness_exponents", "witness_monomial"],
    "finite_geometry": ["BudgetExceededError", "Chain", "ChainGraph", "ConnectivityReport",
                        "HomogPoly", "Line", "PrimeField", "VarietyParseError", "VarietySpec",
                        "chain_search", "connectivity_report", "coordinate_hyperplane",
                        "enumerate_points", "eval_poly", "fermat_cubic", "format_point",
                        "format_variety", "line_points", "lines_through", "load_variety",
                        "locus", "normalize_point", "on_variety", "parse_point",
                        "parse_variety", "split_quadric"],
}
NAMES = {name for names in EXPORTS.values() for name in names}


def test_star_import_gives_exactly_the_exports():
    namespace = {}
    exec("from chainlines import *", namespace)
    assert set(namespace) - {"__builtins__"} == NAMES
    assert sorted(chainlines.__all__) == sorted(NAMES)


@pytest.mark.parametrize("layer", EXPORTS)
def test_each_export_is_its_layers_object(layer):
    module = importlib.import_module(f"chainlines.{layer}")
    assert getattr(chainlines, layer) is module
    for name in EXPORTS[layer]:
        assert getattr(chainlines, name) is getattr(module, name), name


def test_dir_lists_every_export():
    assert NAMES <= set(dir(chainlines))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chainlines.no_such_name
    assert not hasattr(chainlines, "LENGTH")
    with pytest.raises(ImportError):
        exec("from chainlines import no_such_name", {})


def test_one_budget_error_across_the_layers():
    assert chains.BudgetExceededError is finite_geometry.BudgetExceededError
    assert chainlines.BudgetExceededError is finite_geometry.BudgetExceededError
    assert chains.LENGTH_BUDGET == finite_geometry.LENGTH_BUDGET == chainlines.LENGTH_BUDGET
    # a chains refusal is caught as the finite_geometry error
    problem = ChainProblem(DefiningData((3,), 4), chains.LENGTH_BUDGET + 1)
    with pytest.raises(finite_geometry.BudgetExceededError, match="budget"):
        witness_exponents(problem)


def test_each_layer_patches_its_own_length_budget(monkeypatch):
    # the tests of each layer patch its own binding; the other is untouched
    monkeypatch.setattr(chains, "LENGTH_BUDGET", 5)
    assert finite_geometry.LENGTH_BUDGET == chainlines.LENGTH_BUDGET > 5
    with pytest.raises(chainlines.BudgetExceededError):
        witness_exponents(ChainProblem(DefiningData((3,), 4), 6))
    assert witness_exponents(ChainProblem(DefiningData((3,), 4), 5))
