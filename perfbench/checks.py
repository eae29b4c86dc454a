"""Output checks: exhibits against the golden suite's snapshots.

A CLI ``--csv`` block, or a served ``/v1/exhibit`` result rendered as
the lines ``to_csv`` would print, is compared with a golden the way
``tests/golden`` compares snapshots: table cells by their numeric
tokens within a relative tolerance and the text around them exactly,
figure points by label and x/y value.  Exhibits without a golden (the ablations, ``auto_plan``)
must instead read the same on every run of the same sources, which
:class:`ReferenceBlocks` records in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

#: the golden suite's default per-cell relative tolerance
GOLDEN_REL_TOL = 1e-6

_NUM_RE = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?")
_NP_SCALAR_RE = re.compile(r"np\.\w+\((.+)\)")


def numbers_close(a: float, b: float, rel_tol: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b):
        return False
    return abs(a - b) <= max(rel_tol * max(abs(a), abs(b)), 1e-12)


def compare_line(actual: str, expected: str,
                 rel_tol: float = GOLDEN_REL_TOL) -> Optional[str]:
    """None when the lines agree, else why they do not."""
    a_nums = [float(t) for t in _NUM_RE.findall(actual)]
    e_nums = [float(t) for t in _NUM_RE.findall(expected)]
    if (_NUM_RE.sub("#", actual) != _NUM_RE.sub("#", expected)
            or len(a_nums) != len(e_nums)):
        return f"{actual!r} != {expected!r} (text differs)"
    for a, e in zip(a_nums, e_nums):
        if not numbers_close(a, e, rel_tol):
            return f"{actual!r} != {expected!r} ({a!r} vs {e!r})"
    return None


def table_lines(snapshot: Dict) -> List[str]:
    """The CSV lines ``Table.to_csv`` prints for a table snapshot."""
    return ([",".join(snapshot["headers"])]
            + [",".join(row) for row in snapshot["rows"]])


def figure_points(snapshot: Dict) -> List[Tuple[str, float, float]]:
    return [(series["label"], float(x), float(y))
            for series in snapshot["series"]
            for x, y in zip(series["x"], series["y"])]


def parse_number(cell: str) -> float:
    """A CSV number, also in a NumPy scalar's repr (``np.float64(2.5)``)
    as ``Figure.to_csv`` prints values that are NumPy scalars."""
    match = _NP_SCALAR_RE.fullmatch(cell)
    return float(match.group(1) if match else cell)


def parse_figure(lines: Sequence[str]):
    """(label, x, y) points of a ``Figure.to_csv`` block, or None."""
    if not lines or lines[0] != "series,x,y":
        return None
    points = []
    for line in lines[1:]:
        try:
            label, x, y = line.rsplit(",", 2)
            points.append((label, parse_number(x), parse_number(y)))
        except ValueError:
            return None
    return points


def diff_block(name: str, lines: Sequence[str], golden: Dict,
               rel_tol: float = GOLDEN_REL_TOL) -> List[str]:
    """Value-level differences between CSV lines and a golden: table
    cells as the golden suite compares them, figure points by label
    and x/y value."""
    if golden["kind"] == "table":
        expected = table_lines(golden)
        if len(lines) != len(expected):
            return [f"{name}: {len(lines)} lines, golden has "
                    f"{len(expected)}"]
        diffs = []
        for i, (a, e) in enumerate(zip(lines, expected)):
            reason = compare_line(a, e, rel_tol)
            if reason is not None:
                diffs.append(f"{name}, line {i}: {reason}")
        return diffs
    actual = parse_figure(lines)
    expected = figure_points(golden)
    if actual is None or len(actual) != len(expected):
        return [f"{name}: figure block does not match the golden's "
                f"{len(expected)} points"]
    return [f"{name}, point {i}: {a} != {e}"
            for i, (a, e) in enumerate(zip(actual, expected))
            if a[0] != e[0] or not numbers_close(a[1], e[1], rel_tol)
            or not numbers_close(a[2], e[2], rel_tol)]


def snapshot_lines(snapshot: Dict) -> List[str]:
    """The CSV lines ``to_csv`` prints for a golden-format snapshot."""
    if snapshot["kind"] == "table":
        return table_lines(snapshot)
    return ["series,x,y"] + [f"{label},{x!r},{y!r}"
                             for label, x, y in figure_points(snapshot)]


def load_goldens(golden_dir: str) -> Dict[str, Dict]:
    goldens = {}
    for entry in sorted(os.listdir(golden_dir)):
        if entry.endswith(".json"):
            with open(os.path.join(golden_dir, entry)) as handle:
                goldens[entry[:-len(".json")]] = json.load(handle)
    return goldens


def split_blocks(stdout: str) -> List[str]:
    """``repro-report all --csv`` prints one block per exhibit, each
    followed by a blank line."""
    return [b for b in stdout.split("\n\n") if b.strip()]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(root: str) -> str:
    """Digest of every source file under ``root`` (bytecode skipped)."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


class ReferenceBlocks:
    """First-seen digests of golden-less exhibits, per source digest.

    The first run of a source tree records each block's digest; every
    later run (either workload) must reproduce it exactly.
    """

    def __init__(self, path: str, source_digest: str):
        self.path = path
        self.source_digest = source_digest
        self._all: Dict[str, Dict[str, str]] = {}
        if os.path.exists(path):
            with open(path) as handle:
                self._all = json.load(handle)
        self.known = self._all.setdefault(source_digest, {})

    def check(self, name: str, block: str) -> Optional[str]:
        """None when ``block`` matches (or first defines) the
        reference for ``name``."""
        seen = self.known.get(name)
        if seen is None:
            self.known[name] = digest(block)
            return None
        if seen != digest(block):
            return f"{name}: output differs from an earlier run"
        return None

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(self._all, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def check_report_output(stdout: str, names: Sequence[str],
                        goldens: Dict[str, Dict],
                        reference: ReferenceBlocks,
                        outcomes) -> None:
    """Check every exhibit block of one ``all --csv`` run."""
    blocks = split_blocks(stdout)
    if not outcomes.record(len(blocks) == len(names),
                           f"{len(blocks)} CSV blocks for "
                           f"{len(names)} exhibits"):
        return
    for name, block in zip(names, blocks):
        if name in goldens:
            diffs = diff_block(name, block.split("\n"), goldens[name])
            outcomes.record(not diffs, "; ".join(diffs[:3]))
        else:
            reason = reference.check(name, block)
            outcomes.record(reason is None, reason or "")
