"""Production evaluation has no engine option and no oracles.

No production signature takes an ``engine`` argument, and the
reference evaluators (recursive tree walks, the seed greedy rescan)
live in ``tests/oracles.py`` rather than under ``src/repro``.
"""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.analysis.counters import StepCounts
from repro.analysis.footprint import estimate_footprint
from repro.analysis.sweep import (
    _sweep_domain_uncached,
    compute_sweep_rows,
    sweep_domain,
)
from repro.check.tape import equivalence_diagnostics
from repro.exec.tasks import sweep_shard, sweep_shard_key
from repro.graph.traversal import GraphIndex, evaluate_sizes
from repro.symbolic.solve import evalf_fn

EVALUATORS = [
    sweep_domain,
    _sweep_domain_uncached,
    compute_sweep_rows,
    StepCounts.sweep_series,
    estimate_footprint,
    GraphIndex.slot_sizes,
    evaluate_sizes,
    evalf_fn,
    equivalence_diagnostics,
    sweep_shard,
    sweep_shard_key,
]

ORACLE_SUFFIXES = ("_treewalk", "_reference")


@pytest.mark.parametrize("fn", EVALUATORS,
                         ids=lambda fn: fn.__qualname__)
def test_no_engine_parameter(fn):
    assert "engine" not in inspect.signature(fn).parameters


def _defined_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                       ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name.rsplit(".", 1)[-1], 0


def test_no_oracles_in_production_modules():
    root = Path(repro.__file__).parent
    found = [
        f"{path.relative_to(root)}:{line}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name, line in _defined_names(ast.parse(path.read_text()))
        if name.endswith(ORACLE_SUFFIXES)
    ]
    assert found == []
