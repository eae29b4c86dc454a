"""Lint driver: run every pass over a graph, a model, or the registry.

The driver is what ``repro-lint`` (and CI) calls: it builds one
:class:`~repro.check.dataflow.DataflowIndex` per graph, runs the
structural, dataflow, cost, autodiff, tape, and interval passes, and
applies rule filtering (``--select`` / ``--ignore``) plus per-graph
suppressions (``BuiltModel.meta["lint_suppress"]``, a list of rule
codes or family prefixes).  Registry-wide runs additionally lint the
planner's solver preconditions (the M family) as a pseudo-row keyed
``planner.subbatch`` — those proofs are per curve family, not per
model graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..graph.graph import Graph
from ..graph.tensor import Tensor
from .absint import BindingDomain
from .autodiff import autodiff_diagnostics
from .costs import cost_diagnostics
from .dataflow import DataflowIndex
from .diagnostics import Diagnostic, filter_diagnostics
from .graph_lint import dataflow_diagnostics
from .intervals import interval_diagnostics, model_binding_domain
from .structure import structural_diagnostics
from .tape import equivalence_diagnostics, verify_tape

__all__ = ["lint_graph", "lint_model", "lint_registry",
           "SOLVER_KEY"]

#: pseudo-domain key the M-family findings appear under in
#: :func:`lint_registry` output (they are per solver curve family,
#: not per model graph)
SOLVER_KEY = "planner.subbatch"


def _tape_diagnostics(graph: Graph) -> List[Diagnostic]:
    """Verify the graph's size program and aggregate-count tapes."""
    from ..graph.traversal import size_program

    out: List[Diagnostic] = []
    exprs, program = size_program(graph)
    out.extend(verify_tape(program, label=f"{graph.name}.sizes"))
    # randomized equivalence of the production tape on every distinct
    # size expression (a few dozen per graph)
    out.extend(equivalence_diagnostics(
        exprs, prog=program, label=f"{graph.name}.sizes"))

    aggregates = [
        graph.total_flops(),
        graph.total_bytes_accessed(),
        graph.parameter_count(),
        graph.algorithmic_io_bytes(),
    ]
    from ..symbolic.compile import compile_batch

    program = compile_batch(aggregates)
    out.extend(verify_tape(program, label=f"{graph.name}.aggregates"))
    out.extend(equivalence_diagnostics(
        aggregates, prog=program, label=f"{graph.name}.aggregates"))
    # the fused tape and its codegen form (the production evaluator)
    # must agree with the tree too: statically verify the fused tape
    # (T001–T003 + the T005 fusion contract) and replay both derived
    # forms against evalf (T004)
    fused = program.fused()
    out.extend(verify_tape(fused, label=f"{graph.name}.aggregates.fused"))
    for name, form in (("fused", fused), ("codegen", program.codegen())):
        out.extend(equivalence_diagnostics(
            aggregates, prog=form,
            label=f"{graph.name}.aggregates.{name}"))
    for d in out:
        d.graph = graph.name
    return out


def lint_graph(
    graph: Graph,
    *,
    loss: Optional[Tensor] = None,
    param_grads: Optional[Dict[str, str]] = None,
    domain: Optional[BindingDomain] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
    suppress: Sequence[str] = (),
) -> List[Diagnostic]:
    """Run all graph-level pass families over one graph.

    ``domain`` declares per-symbol ranges for the interval (I-family)
    proofs; without one the conservative default ranges apply.
    """
    index = DataflowIndex(graph, loss=loss)
    diagnostics: List[Diagnostic] = []
    diagnostics.extend(structural_diagnostics(graph))
    diagnostics.extend(dataflow_diagnostics(graph, loss=loss, index=index))
    diagnostics.extend(cost_diagnostics(graph))
    diagnostics.extend(autodiff_diagnostics(
        graph, loss=loss, param_grads=param_grads, index=index))
    diagnostics.extend(_tape_diagnostics(graph))
    diagnostics.extend(interval_diagnostics(graph, domain))
    return filter_diagnostics(
        diagnostics, select=select, ignore=ignore, suppress=suppress)


def lint_model(model, *,
               select: Optional[Sequence[str]] = None,
               ignore: Sequence[str] = ()) -> List[Diagnostic]:
    """Lint a :class:`~repro.models.base.BuiltModel`.

    Uses the model's loss as the dataflow root, the recorded
    ``param_grads`` map for autodiff verification, the registry sweep
    ranges as the interval-proof domain, and honors the per-graph
    ``meta["lint_suppress"]`` rule list.
    """
    return lint_graph(
        model.graph,
        loss=model.loss,
        param_grads=model.meta.get("param_grads"),
        domain=model_binding_domain(model),
        select=select,
        ignore=ignore,
        suppress=tuple(model.meta.get("lint_suppress", ())),
    )


def lint_registry(
    domains: Optional[Sequence[str]] = None,
    *,
    training: bool = True,
    select: Optional[Sequence[str]] = None,
    ignore: Sequence[str] = (),
) -> Dict[str, List[Diagnostic]]:
    """Lint every registry model; returns {domain key: diagnostics}.

    A full-registry run (no explicit ``domains``) also verifies the
    planner's bisection preconditions (M family) under the
    ``planner.subbatch`` pseudo-key — one proof covers every model the
    solver can plan for.
    """
    from ..models.registry import DOMAINS, build_symbolic
    from .solver_lint import solver_diagnostics

    keys = list(domains) if domains else sorted(DOMAINS)
    out: Dict[str, List[Diagnostic]] = {}
    for key in keys:
        model = build_symbolic(key, training=training)
        out[key] = lint_model(model, select=select, ignore=ignore)
    if not domains:
        out[SOLVER_KEY] = filter_diagnostics(
            solver_diagnostics(), select=select, ignore=ignore)
    return out
