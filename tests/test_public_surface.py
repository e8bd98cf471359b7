"""The package's public names and the verify suites, pinned.

The suite names are the benchmark's ``verify.suite.*`` metrics, so their
order is part of the surface too.  Each module other than ``__init__``
uses every name it imports: a name imported and never used is a stale
dependency that no test run would show.
"""

import ast
from pathlib import Path

import pytest

import entanglekit
from entanglekit.verify import run_all

PUBLIC = [
    "BipartiteDims",
    "BipartiteVector",
    "ClassicalSeparableCert",
    "ClassicalState",
    "Classification",
    "CompositeClassicalState",
    "DEFAULT_EPS",
    "DensityOperator",
    "EntangledCertificate",
    "MixedEnsemble",
    "PhaseSpace",
    "ProductCertificate",
    "PureState",
    "RangeReport",
    "SchemaError",
    "SchmidtDecomposition",
    "SeparableCertificate",
    "SeparableDecomposition",
    "Tolerance",
    "Verdict",
    "ZeroVectorError",
    "__version__",
    "check_range_criterion",
    "classical_pure",
    "classical_tensor",
    "classify",
    "classify_classical",
    "coefficient_matrix",
    "is_density",
    "is_hermitian",
    "is_positive",
    "is_product_composite",
    "kron_op",
    "kron_vec",
    "marginal",
    "mix",
    "partial_trace",
    "product_pure",
    "projector",
    "range_basis",
    "rank",
    "schmidt",
    "separable_density",
]

# proposition demos that live in entanglekit.verify, and helpers nothing called
REMOVED = [
    "adjoint",
    "ccr_trace_obstruction",
    "composite_pure",
    "decompose_pure",
    "eig_hermitian",
    "expectation",
    "factor_positive",
    "inner",
    "inner_bipartite",
    "is_elementary",
    "is_pure_density",
    "mixture_vs_superposition",
    "trace",
]

SUITES = [
    "classical-convex-decomposition",
    "classical-point-mass-tensor",
    "classical-separability",
    "self-adjoint-real-quadratic-forms",
    "positive-factorization",
    "projector-laws",
    "mixture-density-laws",
    "schmidt-rank-dichotomy",
    "product-projector-identity",
    "product-state-separability",
    "range-criterion",
    "entangled-pure-states",
    "traceless-commutators",
    "trace-basis-independence",
]


def test_public_names_are_pinned():
    assert sorted(entanglekit.__all__) == PUBLIC
    for name in PUBLIC:
        assert hasattr(entanglekit, name), name
    for name in REMOVED:
        assert not hasattr(entanglekit, name), name


def test_verify_suites_run_in_order():
    assert [r.name for r in run_all(instances=1)] == SUITES


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, in import order."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


_MODULES = sorted(p for p in Path(entanglekit.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_named():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .quantum import DensityOperator, _built_density\n"
        "def f(m) -> DensityOperator:\n"
        "    return np.asarray(m)\n"
    )
    assert _unused_imports(source) == ["os", "_built_density"]
