"""The package's public surface: the pipeline at the top level, the rest in submodules."""

import importlib

import sobolev1d

PIPELINE = [
    "minimize",
    "extremal",
    "rayleigh_quotient",
    "build_green",
    "Potential",
    "make_constant",
    "make_example",
    "make_monotone_step",
    "make_piecewise_constant",
    "potential_from_log_derivative",
    "potential_from_spec",
    "SolverError",
    "__version__",
]

# The building blocks, by the submodule they are imported from.
SUBMODULE_NAMES = {
    "fcurve": [
        "CriticalPoint",
        "CriticalPointScan",
        "EquivalenceReport",
        "FCurve",
        "build_fcurve",
        "check_minimality_equivalence",
        "find_critical_points",
    ],
    "fundamental": [
        "ComparisonReport",
        "EnvelopeReport",
        "ExtremalFunction",
        "LogSolution",
        "ResidualReport",
        "check_comparison",
        "check_envelope_bounds",
        "check_riccati_residual",
        "decay_inset",
        "extremal_function",
        "solve_log_solution",
    ],
    "green": ["GreenEvaluator", "GreenResidualReport", "gaussian_test", "residual_check"],
    "minimizer": ["MinimizationReport", "classify_attainment", "default_window"],
    "oracle": ["DiscreteRayleighProblem", "discrete_first_step", "discrete_minimize"],
}


def test_top_level_exports_the_pipeline():
    assert sobolev1d.__all__ == PIPELINE
    assert [name for name in PIPELINE if not hasattr(sobolev1d, name)] == []


def test_building_blocks_import_from_their_submodules():
    missing = [
        f"{module}.{name}"
        for module, names in SUBMODULE_NAMES.items()
        for name in names
        if not hasattr(importlib.import_module(f"sobolev1d.{module}"), name)
    ]
    assert missing == []
    assert set(sobolev1d.__all__).isdisjoint(sum(SUBMODULE_NAMES.values(), []))
