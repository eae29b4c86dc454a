"""Compiled-tape verifier: slot lifetimes and tape≡tree equivalence.

The CSE'd slot tapes of :mod:`repro.symbolic.compile` are in single-
assignment form — instruction *i* writes slot *i*, exactly once — so a
slot's live range opens at its defining instruction and never closes.
The static pass proves the discipline anyway, so a future register-
reusing compiler (or a corrupted/deserialized tape) cannot silently
read garbage:

* **T001** — every operand slot must be written before it is read
  (a read at or ahead of its write is a read outside the slot's live
  range: the read-after-free of an SSA tape);
* **T002** — opcodes and payload arity must be well-formed, and output
  slots must exist;
* **T003** — every instruction's value must be read by a later
  instruction or be an output (a dead instruction means CSE emitted
  work nothing consumes);
* **T005** — fused instructions (power-product / fused multiply-add,
  produced by :func:`repro.symbolic.compile.fuse_tape`) must carry
  immediate-form payloads: float coefficients and exponents (never a
  slot reference where an immediate belongs), non-empty factor lists,
  and inlined products only inside ``fma`` terms.

:func:`equivalence_diagnostics` adds the dynamic complement: replay
the tape against the recursive ``Expr.evalf`` tree walk at seeded
pseudo-random positive bindings (**T004**).  The tape may be any of the
three forms of a program — plain replay, its ``fused()`` rewrite, or
its ``codegen()`` source — and the lint driver checks each form by
passing it in.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..symbolic.compile import CompiledExpr, compile_batch
from ..symbolic.expr import Expr
from .diagnostics import Diagnostic

__all__ = ["verify_tape", "equivalence_diagnostics"]

# opcode -> (mnemonic, payload slot extractor); mirrors the private
# opcode table of symbolic.compile deliberately: the verifier is an
# independent reading of the tape format, not a call back into it
_OPCODES = {
    0: "const",
    1: "sym",
    2: "add",
    3: "mul",
    4: "pow",
    5: "max",
    6: "min",
    7: "ceil",
    8: "floor",
    9: "log",
    10: "pprod",
    11: "fma",
}


def _operand_slots(opcode: int, payload) -> Optional[List[int]]:
    """Slots an instruction reads; None when the payload is malformed."""
    try:
        if opcode == 0:  # const: float payload
            float(payload)
            return []
        if opcode == 1:  # sym: input-vector index
            return [] if int(payload) >= 0 else None
        if opcode == 2:  # add: (const, ((slot, coeff), ...))
            const, terms = payload
            float(const)
            return [int(slot) for slot, _coeff in terms]
        if opcode == 3:  # mul: (coeff, ((base, exp, is_one), ...))
            coeff, factors = payload
            float(coeff)
            out = []
            for base, exponent, _is_one in factors:
                out.append(int(base))
                out.append(int(exponent))
            return out
        if opcode == 4:  # pow: (base_slot, exp_slot)
            return [int(payload[0]), int(payload[1])]
        if opcode in (5, 6):  # max/min: (slot, ...)
            return [int(s) for s in payload]
        if opcode in (7, 8, 9):  # ceil/floor/log: slot
            return [int(payload)]
        if opcode == 10:  # pprod: (coeff, ((base_slot, exp|None), ...))
            coeff, factors = payload
            float(coeff)
            return [int(base) for base, _exp in factors]
        if opcode == 11:  # fma: (const, ((coeff, slot|pprod), ...))
            const, terms = payload
            float(const)
            out = []
            for _coeff, ref in terms:
                if isinstance(ref, int) and not isinstance(ref, bool):
                    out.append(int(ref))
                else:
                    pcoeff, pfactors = ref
                    float(pcoeff)
                    out.extend(int(base) for base, _exp in pfactors)
            return out
    except (TypeError, ValueError, IndexError):
        return None
    return None


def _fused_payload_problems(opcode: int, payload) -> List[str]:
    """T005: immediate-form discipline of fused instruction payloads.

    ``_operand_slots`` has already accepted the payload's shape; this
    checks the *fusion contract*: exponents and coefficients must be
    float immediates (``None`` meaning exponent one), factor lists must
    be non-empty (an empty product replays as a bare constant — the
    fuser would have emitted ``const``), and ``fma`` inlined products
    must themselves be well-formed.
    """
    def factor_problems(factors, where: str) -> List[str]:
        problems = []
        if not len(factors):
            problems.append(f"{where} has an empty factor list")
        for base, exp in factors:
            if exp is None:
                continue
            if isinstance(exp, bool) or not isinstance(exp, float):
                problems.append(
                    f"{where} exponent {exp!r} is not a float "
                    "immediate (fused exponents are values, not slots)"
                )
        return problems

    if opcode == 10:
        coeff, factors = payload
        problems = factor_problems(factors, "pprod")
        if isinstance(coeff, bool) or not isinstance(coeff, float):
            problems.append(
                f"pprod coefficient {coeff!r} is not a float immediate"
            )
        return problems
    # fma
    problems: List[str] = []
    _const, terms = payload
    if not len(terms):
        problems.append("fma has no terms (should be a const)")
    for coeff, ref in terms:
        if isinstance(coeff, bool) or not isinstance(coeff, float):
            problems.append(
                f"fma coefficient {coeff!r} is not a float immediate"
            )
        if isinstance(ref, int) and not isinstance(ref, bool):
            continue
        pcoeff, pfactors = ref
        if isinstance(pcoeff, bool) or not isinstance(pcoeff, float):
            problems.append(
                f"inlined pprod coefficient {pcoeff!r} is not a float "
                "immediate"
            )
        problems.extend(factor_problems(pfactors, "inlined pprod"))
    return problems


def verify_tape(prog: CompiledExpr, *, label: str = "tape"
                ) -> List[Diagnostic]:
    """Static slot-discipline verification of one compiled tape."""
    out: List[Diagnostic] = []
    n = len(prog.code)
    read_by: List[bool] = [False] * n

    for i, (opcode, payload) in enumerate(prog.code):
        if opcode not in _OPCODES:
            out.append(Diagnostic(
                "T002",
                f"instruction {i} has unknown opcode {opcode!r}",
                obj=f"{label}[{i}]",
            ))
            continue
        slots = _operand_slots(opcode, payload)
        if slots is None:
            out.append(Diagnostic(
                "T002",
                f"instruction {i} ({_OPCODES[opcode]}) has a malformed "
                f"payload {payload!r}",
                obj=f"{label}[{i}]",
            ))
            continue
        if opcode == 1 and int(payload) >= len(prog.symbols):
            out.append(Diagnostic(
                "T002",
                f"instruction {i} reads input slot {payload} but the "
                f"tape has {len(prog.symbols)} symbols",
                obj=f"{label}[{i}]",
            ))
        if opcode in (10, 11):
            for problem in _fused_payload_problems(opcode, payload):
                out.append(Diagnostic(
                    "T005",
                    f"instruction {i} ({_OPCODES[opcode]}): {problem}",
                    obj=f"{label}[{i}]",
                ))
        for s in slots:
            if s < 0 or s >= i:
                out.append(Diagnostic(
                    "T001",
                    f"instruction {i} ({_OPCODES[opcode]}) reads slot "
                    f"{s}, which is {'never' if s >= n else 'not yet'} "
                    "written at that point",
                    obj=f"{label}[{i}]",
                ))
            elif 0 <= s < n:
                read_by[s] = True

    for s in prog.out_slots:
        if not (0 <= s < n):
            out.append(Diagnostic(
                "T002",
                f"output slot {s} is outside the tape (length {n})",
                obj=f"{label}[out]",
            ))
        else:
            read_by[s] = True

    for i, seen in enumerate(read_by):
        if not seen:
            opcode = prog.code[i][0]
            out.append(Diagnostic(
                "T003",
                f"instruction {i} ({_OPCODES.get(opcode, opcode)}) is "
                "never read and is not an output",
                obj=f"{label}[{i}]",
            ))
    return out


def equivalence_diagnostics(exprs: Sequence[Expr], *,
                            prog: Optional[CompiledExpr] = None,
                            label: str = "tape",
                            trials: int = 3,
                            seed: int = 0xC0FFEE,
                            rel_tol: float = 1e-9
                            ) -> List[Diagnostic]:
    """T004: randomized tape≡tree check at positive bindings.

    Compiles ``exprs`` into one batch tape (or verifies a caller-
    provided ``prog``) and compares each output against the recursive
    ``evalf`` at ``trials`` seeded pseudo-random bindings.  ``prog``
    may be a plain tape, its ``fused()`` rewrite or its ``codegen()``
    form; all three must agree with the tree on these scalar paths.
    """
    if prog is None:
        prog = compile_batch(list(exprs))
    rng = random.Random(seed)
    out: List[Diagnostic] = []
    for trial in range(trials):
        binding = {
            s.name: float(rng.randint(2, 64)) for s in prog.symbols
        }
        got = prog(binding)
        if len(prog.out_slots) == 1 and not isinstance(got, list):
            got = [got]
        for j, expr in enumerate(exprs):
            want = expr.evalf(binding)
            scale = max(abs(want), abs(got[j]), 1.0)
            if abs(got[j] - want) > rel_tol * scale:
                out.append(Diagnostic(
                    "T004",
                    f"output {j} evaluates to {got[j]!r} on the tape "
                    f"but {want!r} on the tree at "
                    f"{sorted(binding.items())}",
                    obj=f"{label}[out {j}]",
                ))
        if out:
            break
    return out
