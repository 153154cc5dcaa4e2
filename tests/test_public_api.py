"""The package namespace holds the paper's public objects and nothing else.

Stage types and per-point helpers stay importable from their modules, with
no stability promise; the benchmark reaches the library only through the
public names (and the `io` and `cli` modules).
"""

import ast
import glob
import importlib
import importlib.util
import os

import pytest

import momentkit as mk

PUBLIC = {
    # errors
    "ConditioningError", "ConsistencyError", "DomainError", "IndeterminateError",
    "MomentKitError", "ParameterError", "ShiftConsistencyError", "SolvabilityError",
    "ValidationError",
    # moments and measures
    "MomentSequence", "SolvabilityReport", "check_solvability", "generate_from_measure",
    "DiscreteMatrixMeasure",
    # Schur parameters and extensions
    "SchurParameter", "unitary_extension", "inverse_cayley",
    # the model and its transform
    "Model", "build_model", "TransformEvaluator", "NevanlinnaValue",
    # reconstruction
    "HerglotzReport", "IntervalMass", "MomentFit", "ReconstructedDistribution",
    "asymptotic_moments", "herglotz_check", "reconstruct_distribution", "recover_discrete",
    "stieltjes_perron",
    # criterion 9
    "w0_isometry_check",
}

INTERNAL = {
    "gramspace": ["GramSpace", "EmbeddingI", "build_embeddings", "build_shift", "construct_space"],
    "cayley": ["CayleyData", "cayley_transform", "resolvent_link_check"],
    "nevanlinna": ["BlockSet", "blocks", "frobenius_topleft", "direct_oracle",
                   "transform_matrix", "evaluate_matrix"],
}

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_all_is_the_public_set_and_bound():
    assert len(PUBLIC) == 31
    assert len(mk.__all__) == len(set(mk.__all__))
    assert set(mk.__all__) == PUBLIC
    for name in mk.__all__:
        assert getattr(mk, name) is not None, name


@pytest.mark.parametrize("module, name",
                         [(mod, name) for mod, names in INTERNAL.items() for name in names])
def test_stage_names_live_in_their_modules(module, name):
    assert not hasattr(mk, name)
    assert getattr(importlib.import_module(f"momentkit.{module}"), name) is not None


def test_l2_element_api_is_gone():
    l2space = importlib.import_module("momentkit.l2space")
    for name in ("L2Element", "psi_inner"):
        assert not hasattr(l2space, name) and not hasattr(mk, name)
    assert l2space.__all__ == ["w0_isometry_check"]


def bench_attributes():
    """Every `mk.<name>` and `self.mk.<name>` in bench/*.py, parsed from the source."""
    found = set()
    for path in glob.glob(os.path.join(BENCH, "*.py")):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "mk") or (
                    isinstance(owner, ast.Attribute) and owner.attr == "mk"):
                found.add(node.attr)
    return found


def test_bench_uses_only_public_names():
    used = bench_attributes()
    assert "build_model" in used and "w0_isometry_check" in used  # the parse sees them
    modules = {name for name in used
               if importlib.util.find_spec(f"momentkit.{name}") is not None}
    assert modules == {"cli", "io"}
    assert used - modules <= set(mk.__all__)
