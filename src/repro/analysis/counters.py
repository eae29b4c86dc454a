"""Training-step requirement counters (§2.1 quantities, per model).

Wraps a built model and exposes the paper's four algorithmic measures,
as expressions symbolic in subbatch ``b`` (and the model-size symbol
when the builder left one free):

* FLOPs per training step, and per sample (the linear-in-``b``
  coefficient — the quantity Figure 7 plots);
* bytes accessed per step, split into the batch-independent part
  (weight traffic, the ``λp`` term) and the per-sample part
  (activation traffic, the ``µb√p`` term) — Figure 8;
* graph-level operational intensity — Figure 9;
* algorithmic IO.
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import BindingError
from ..models.base import BuiltModel
from ..obs.metrics import counter as _obs_counter
from ..symbolic import CompiledExpr, Expr, coefficient, compile_batch, compile_expr

__all__ = ["StepCounts"]

# Effectiveness of the per-StepCounts tape cache: a hit means a sweep
# or report evaluation replayed an existing tape instead of recompiling
# its aggregate expressions.
_TAPE_HIT = _obs_counter("analysis.tape_cache.hit")
_TAPE_MISS = _obs_counter("analysis.tape_cache.miss")

#: aggregates evaluated per sweep row, in SweepRow order
_SWEEP_AGGREGATES: Tuple[str, ...] = (
    "params",
    "flops_per_sample",
    "step_flops",
    "step_bytes",
    "bytes_fixed",
    "bytes_per_sample",
)


class StepCounts:
    """Lazily-computed aggregate counts for one model's training step."""

    def __init__(self, model: BuiltModel):
        if not model.meta.get("training_step_built"):
            raise ValueError(
                f"model {model.domain} has no training step; call "
                "with_training_step() first so counts cover fwd+bwd+update"
            )
        self.model = model
        self._cache: dict = {}
        self._compiled: Dict[Tuple[str, ...], CompiledExpr] = {}

    # -- raw aggregates -----------------------------------------------------
    @property
    def params(self) -> Expr:
        return self.model.graph.parameter_count()

    @property
    def step_flops(self) -> Expr:
        """Algorithmic FLOPs for one training step (symbolic in b)."""
        return self.model.graph.total_flops()

    @property
    def step_bytes(self) -> Expr:
        """Algorithmic bytes accessed for one training step."""
        return self.model.graph.total_bytes_accessed()

    @property
    def io_bytes(self) -> Expr:
        """Algorithmic IO (training-data bytes) per step."""
        return self.model.graph.algorithmic_io_bytes()

    # -- decompositions in the subbatch -------------------------------------
    def _coeff(self, key: str, expr_name: str, power: int) -> Expr:
        cache_key = (key, power)
        if cache_key not in self._cache:
            expr = getattr(self, expr_name)
            self._cache[cache_key] = coefficient(
                expr, self.model.batch, power
            )
        return self._cache[cache_key]

    @property
    def flops_per_sample(self) -> Expr:
        """FLOPs linear in b — per-sample compute (Fig. 7's y-axis)."""
        return self._coeff("flops", "step_flops", 1)

    @property
    def flops_fixed(self) -> Expr:
        """Batch-independent FLOPs (weight update etc.)."""
        return self._coeff("flops", "step_flops", 0)

    @property
    def bytes_per_sample(self) -> Expr:
        """Bytes linear in b — activation traffic (the µ√p term)."""
        return self._coeff("bytes", "step_bytes", 1)

    @property
    def bytes_fixed(self) -> Expr:
        """Batch-independent bytes — weight traffic (the λp term)."""
        return self._coeff("bytes", "step_bytes", 0)

    # -- evaluated quantities -------------------------------------------------
    def _checked_dim(self, label: str, value):
        """Boundary guard: dimensions are positive finite reals."""
        if (isinstance(value, bool)
                or not isinstance(value, numbers.Real)):
            raise BindingError(
                f"{label} must be a positive real number, got "
                f"{type(value).__name__} {value!r}",
                hint="sizes and subbatches are numeric knobs (hidden "
                     "width, width multiplier, samples per step)",
            ).add_context(model=self.model.domain)
        value = float(value)
        if not math.isfinite(value) or value <= 0:
            raise BindingError(
                f"{label} must be positive and finite, got {value:g}",
                hint="a dimension of zero or below (or NaN/Inf) makes "
                     "every FLOP/byte formula meaningless",
            ).add_context(model=self.model.domain)
        return value

    def bind(self, size=None, subbatch=None,
             extra: Optional[Mapping] = None) -> dict:
        """Assemble a bindings dict for this model's free symbols.

        The boundary where user knobs become symbol bindings:
        ``size``/``subbatch`` are validated here (positive, finite,
        real), so a bad ``--size``/``--subbatch``/config value raises
        :class:`~repro.errors.BindingError` (E-BIND) naming the model
        instead of surfacing as an overflow ten layers down.
        """
        bindings = dict(extra or {})
        if size is not None:
            if self.model.size_symbol is None:
                raise BindingError(
                    "model was built with a concrete size",
                    hint="rebuild the model with the size symbol left "
                         "free to sweep it",
                ).add_context(model=self.model.domain)
            bindings[self.model.size_symbol] = self._checked_dim(
                "size", size)
        if subbatch is not None:
            bindings[self.model.batch] = self._checked_dim(
                "subbatch", subbatch)
        return bindings

    # -- compiled evaluation --------------------------------------------------
    def compiled(self, *names: str) -> CompiledExpr:
        """Batch-compile the named aggregates (CSE'd, cached).

        One tape serves every subsequent evaluation of these
        aggregates; subtrees common across them (the parameter sum
        inside FLOPs *and* bytes, say) are evaluated once per binding.
        """
        key = tuple(names)
        program = self._compiled.get(key)
        if program is None:
            _TAPE_MISS.inc()
            exprs = [getattr(self, n) for n in names]
            program = (compile_expr(exprs[0]) if len(exprs) == 1
                       else compile_batch(exprs))
            self._compiled[key] = program
        else:
            _TAPE_HIT.inc()
        return program

    def sweep_series(self, sizes: Sequence[float],
                     subbatch: float) -> Dict[str, np.ndarray]:
        """Vectorized sweep: every aggregate at every size in one pass.

        Returns ``{aggregate: array over sizes}`` for the Figure 7–10
        quantities plus a derived ``intensity`` series.  The aggregate
        tape's fused source-codegen form (cached on the tape, so
        lowered once per model) is replayed over the N×S binding
        matrix.
        """
        program = self.compiled(*_SWEEP_AGGREGATES).codegen()
        if self.model.size_symbol is None:
            raise ValueError("model was built with a concrete size")
        rows = [self.bind(size, subbatch) for size in sizes]
        table = program.eval_many(rows)
        series = {
            name: table[:, j] for j, name in enumerate(_SWEEP_AGGREGATES)
        }
        with np.errstate(divide="ignore", invalid="ignore"):
            series["intensity"] = np.where(
                series["step_bytes"] == 0, 0.0,
                series["step_flops"] / series["step_bytes"],
            )
        return series

    def eval_params(self, size=None) -> float:
        return self.compiled("params").codegen()(self.bind(size))

    def eval_step_flops(self, size=None, subbatch=None) -> float:
        return self.compiled("step_flops").codegen()(self.bind(size, subbatch))

    def eval_step_bytes(self, size=None, subbatch=None) -> float:
        return self.compiled("step_bytes").codegen()(self.bind(size, subbatch))

    def eval_flops_per_sample(self, size=None) -> float:
        return self.compiled("flops_per_sample").codegen()(self.bind(size))

    def eval_intensity(self, size=None, subbatch=None) -> float:
        """Graph-level operational intensity, FLOP/B (Fig. 9/11)."""
        bindings = self.bind(size, subbatch)
        flops, total_bytes = self.compiled(
            "step_flops", "step_bytes").codegen()(bindings)
        if total_bytes == 0:
            return 0.0
        return flops / total_bytes
