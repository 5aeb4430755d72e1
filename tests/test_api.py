"""The public surface of curvlab, and the names the benchmark in curvbench/ reaches.

The benchmark wraps library functions by name and imports others; a rename or
a deletion there fails only the traced benchmark run, so these tests read
curvbench/ (never edit it) and pin the names it needs.
"""

import importlib
import re
import types
from pathlib import Path

import pytest

import curvlab
import curvlab.cli  # noqa: F401  (curvbench runs the CLI module)
from helpers import load_repo_module

CURVBENCH = Path(__file__).resolve().parents[1] / "curvbench"

PUBLIC = (
    "AlgebraicCurvatureTensor", "CHECKS", "CommutationError", "ComplexIsometry", "ComplexJacobiOracle",
    "ComplexLine", "ComplexModel", "ComplexStructure", "CurvatureBasis", "CurvlabError",
    "DimensionMismatchError", "DimensionNotMultipleOf4Error", "EquivalenceViolationError", "IdentityReport",
    "InconsistentOracleError", "InvalidVectorError", "JacobiOracle", "LineStructureMismatchError", "ModelFile",
    "ModelFormatError", "NonFiniteEntryError", "NotAntiInvolutionError", "NotCompatibleError",
    "NotOrthogonalError", "NotSquareError", "OddDimensionError", "PreconditionError", "QNotConstantError",
    "QNotZeroError", "QuaternionTriple", "SparseEntryConflictError", "SymmetryViolationError",
    "UnknownConstraintTagError", "build_A0", "build_APhi", "build_quaternion_triple", "check_compatibility",
    "check_gray_yano", "check_sato", "check_symmetries", "check_vanhecke", "complex_curvature_operator",
    "complex_jacobi", "complex_line", "counterexample_model", "curvature_space_basis", "curvature_space_dim",
    "gray_classify", "jacobi", "jacobi_equivalence_check", "lemma23_battery", "load_model", "merged_spectrum",
    "pullback", "q_quartic", "random_curvature_tensor", "reconstruct_from_complex_jacobi",
    "reconstruct_from_jacobi", "ricci", "run_check", "save_model", "spanning_lines",
    "standard_complex_structure", "star_ricci", "subspace_dimension", "theta_map", "twistor_point_model",
    "validate_complex_isometry", "validate_complex_structure", "validate_or_project",
)

# (owner, name) of each name taken out of the library: the test fixtures now
# live in tests/helpers.py and the discrepancy audit in its script
DELETED = (
    ("identities", "p2_map"),
    ("errors", "NotInA3Error"),
    ("operators", "curvature_operator"),
    ("operators", "holomorphic_sectional_curvature"),
    ("tensors", "tensor_inner_product"),
    ("tensors.AlgebraicCurvatureTensor", "evaluate"),
    ("spaces.ComplexLine", "same_line"),
    ("spaces", "random_orthogonal"),
    ("spaces", "random_unit_vector"),
    ("constructions", "discrepancy_audit"),
)


def _resolve(dotted: str):
    """``curvlab.<module>[.<attribute>]`` for a dotted path under the package."""
    module, _, attribute = dotted.partition(".")
    owner = importlib.import_module(f"curvlab.{module}")
    return getattr(owner, attribute) if attribute else owner


def test_public_names_are_listed():
    public = {
        name
        for name in dir(curvlab)
        if not name.startswith("_") and not isinstance(getattr(curvlab, name), types.ModuleType)
    }
    assert sorted(public) == sorted(PUBLIC)


@pytest.mark.parametrize("owner,name", DELETED, ids=[name for _, name in DELETED])
def test_deleted_names_are_gone(owner, name):
    with pytest.raises(AttributeError):
        getattr(_resolve(owner), name)
    with pytest.raises(AttributeError):
        getattr(curvlab, name)


def test_every_traced_function_resolves():
    # the tracer wraps each (module, function) by getattr on curvlab.<module>
    targets = load_repo_module("curvbench/tracing.py").TARGETS
    assert targets
    for module, func in targets:
        assert callable(getattr(_resolve(module), func)), (module, func)


def test_every_name_curvbench_imports_exists():
    # ``from curvlab[.module] import a, b`` and ``curvlab.name``, in code and
    # in the command strings that sweep.py hands to child processes
    found = set()
    for file in ("worker.py", "sweep.py", "test_checks.py"):
        text = (CURVBENCH / file).read_text()
        for module, names in re.findall(r"from curvlab(?:\.(\w+))? import ([\w, ]+)", text):
            found.update((module, name.strip()) for name in names.split(","))
        found.update(("", name) for name in re.findall(r"\bcurvlab\.(\w+)", text))
    assert ("tensors", "curvature_space_basis") in found and ("", "load_model") in found
    for module, name in sorted(found):
        owner = _resolve(module) if module else curvlab
        assert hasattr(owner, name), (module, name)
