"""The public names of the package.

Removing a field or helper must not drop a name from ``minsection.__all__``
unnoticed; a deliberate change edits this list and says why in CHANGES.md.
"""

import minsection as ms

PUBLIC_NAMES = (
    "BoundaryStepWarning",
    "BracketError",
    "BracketTriplet",
    "ConvexityCertificate",
    "ConvexityError",
    "CriticalPoint",
    "DegenerateCriticalPointError",
    "DerivativeReport",
    "EigenSummary",
    "EquivalenceReport",
    "ImplicitTrace",
    "MeritFunction",
    "MinimalSection1D",
    "MorseCensus",
    "NestingReport",
    "ParameterSplit",
    "PartiallyLinearModel",
    "ProblemCatalogEntry",
    "ProblemDefinition",
    "ProblemFileError",
    "RankDeficiencyError",
    "RegularizationRecovery",
    "SliceProblem",
    "SolveError",
    "SolveReport",
    "SubLevelInterval",
    "SubMinimizeError",
    "SubMinimum",
    "Tolerances",
    "TraceError",
    "TraceIndexWarning",
    "as_parameter_vector",
    "bracket_on_grid",
    "build_partially_linear",
    "build_residual_merit",
    "catalog",
    "census_report",
    "check_outward_gradient",
    "default_box",
    "eigen_index",
    "equivalence_report",
    "fd_gradient",
    "fd_hessian",
    "fd_y_block",
    "find_critical_points",
    "format_solve_report",
    "get_problem",
    "golden_refine",
    "is_positive_definite",
    "linear_lsq_solve",
    "load_data_csv",
    "load_problem_file",
    "minimal_section_1d",
    "model_split",
    "morse_equality_audit",
    "nesting_check",
    "probe_full_convexity",
    "probe_y_convexity",
    "random_quadratic_problem",
    "recover_from_anchor",
    "solve_direct",
    "solve_hierarchical",
    "solve_slice",
    "subminimize_linear",
    "subminimize_newton",
    "sublevel_interval",
    "trace_implicit",
    "write_section_csv",
)


def test_all_names_are_pinned():
    assert len(PUBLIC_NAMES) == 68
    assert sorted(ms.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(ms.__all__)) == len(ms.__all__)
    assert all(hasattr(ms, name) for name in PUBLIC_NAMES)
