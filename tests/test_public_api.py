"""The public names of the package, and the values a caller can set.

Removing a field or helper must not drop a name from ``minsection.__all__``
unnoticed, and adding an option must not grow the settable values
unnoticed; a deliberate change edits the list or the count and says why in
CHANGES.md.
"""

import importlib
import inspect

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
    "Refusal",
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
    assert len(PUBLIC_NAMES) == 69
    assert sorted(ms.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(ms.__all__)) == len(ms.__all__)
    assert all(hasattr(ms, name) for name in PUBLIC_NAMES)


def test_refusal_types_are_pinned():
    # every refusal type derives from Refusal and keeps the base it had
    # before Refusal, so an ``except ValueError`` or ``except RuntimeError``
    # still catches it
    bases = {
        ms.numerics.NonFiniteValueError: ValueError,
        ms.RankDeficiencyError: ValueError,
        ms.DegenerateCriticalPointError: ValueError,
        ms.ConvexityError: RuntimeError,
        ms.SubMinimizeError: RuntimeError,
        ms.BracketError: RuntimeError,
        ms.SolveError: RuntimeError,
        ms.TraceError: RuntimeError,
    }
    found, stack = set(), [ms.Refusal]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("minsection.") and cls not in found:
                found.add(cls)
                stack.append(cls)
    assert found == set(bases)
    assert all(issubclass(cls, base) for cls, base in bases.items())


#: The modules whose ``__all__`` makes up the public surface.
MODULES = ("", ".morse", ".numerics", ".problem_io", ".problems", ".sections", ".solver",
           ".subminimize")


def _defaulted(fn):
    parameters = inspect.signature(fn).parameters.values()
    return [p.name for p in parameters if p.default is not inspect.Parameter.empty]


def settable_values():
    """Every defaulted parameter of the public surface: of each function in
    an ``__all__``, and of each class's constructor (a dataclass's fields)
    and public methods. Exception classes are not counted."""
    values, seen = [], set()
    for suffix in MODULES:
        module = importlib.import_module("minsection" + suffix)
        for name in module.__all__:
            obj = getattr(module, name)
            if id(obj) in seen or not callable(obj):
                continue
            seen.add(id(obj))
            if not inspect.isclass(obj):
                values += [f"{name}({p})" for p in _defaulted(obj)]
            elif not issubclass(obj, BaseException):
                values += [f"{name}({p})" for p in _defaulted(obj.__init__)]
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if not attr.startswith("_") and inspect.isfunction(member):
                        values += [f"{name}.{attr}({p})" for p in _defaulted(member)]
    return values


def test_settable_values_are_pinned():
    # a new knob is a deliberate edit of this count, said why in CHANGES.md
    values = settable_values()
    assert len(values) == len(set(values)) == 55, values
