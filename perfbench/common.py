"""Checkout layout, isolated child environments and process timing."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from perfbench.checks import ReferenceBlocks, load_goldens, tree_digest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden", "goldens")
#: per-checkout state (golden-less exhibit digests, last trace) and the
#: temp roots every run works in; nothing outside the checkout is used
STATE_DIR = os.path.join(ROOT, ".perfbench")

#: a CLI or daemon process that runs longer than this is killed and
#: counted as failed, so a hung run still ends within the time limit
PROCESS_TIMEOUT_S = 150.0


class PrerequisiteError(RuntimeError):
    """The checkout lacks the program or the goldens to measure."""


@dataclass
class Context:
    seed: int
    seconds: float
    tmp: str
    exhibits: List[str]
    goldens: Dict[str, Dict]
    reference: ReferenceBlocks
    python: str = sys.executable
    children: List[subprocess.Popen] = field(default_factory=list)

    def env(self, cache_dir: str, history: str) -> Dict[str, str]:
        """Child environment: the checkout's sources, and a store and
        run history of its own so ``~/.cache/repro`` is never read."""
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = SRC
        env["REPRO_CACHE_DIR"] = cache_dir
        env["REPRO_HISTORY"] = history
        return env

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.tmp)


def open_context(seed: int, seconds: float) -> Context:
    """Check the checkout holds what the benchmark measures, import the
    exhibit list, and make this run's temp root."""
    for path in (os.path.join(SRC, "repro", "cli.py"), GOLDEN_DIR):
        if not os.path.exists(path):
            raise PrerequisiteError(f"missing {os.path.relpath(path, ROOT)}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.reports import ALL_REPORTS

    # byte-compile once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC],
                   check=True, stdout=subprocess.DEVNULL)
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=STATE_DIR)
    # the checks below import the program into this process too
    os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "harness-store")
    os.environ["REPRO_HISTORY"] = os.path.join(tmp, "harness.history.jsonl")
    reference = ReferenceBlocks(os.path.join(STATE_DIR, "reference.json"),
                                tree_digest(SRC))
    return Context(seed=seed, seconds=seconds, tmp=tmp,
                   exhibits=sorted(ALL_REPORTS),
                   goldens=load_goldens(GOLDEN_DIR),
                   reference=reference)


@dataclass
class ProcessRun:
    returncode: int
    wall_s: float
    maxrss_mb: float
    stdout: str
    stderr: str


def run_process(ctx: Context, cmd: Sequence[str], env: Dict[str, str],
                label: str) -> ProcessRun:
    """Run one child to completion: exit code, wall time, and the peak
    RSS of it and every descendant it waited for (``wait4``)."""
    out_path = os.path.join(ctx.tmp, label + ".out")
    err_path = os.path.join(ctx.tmp, label + ".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        ctx.children.append(proc)
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return ProcessRun(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      stdout, stderr)


def stop_children(ctx: Context, grace_s: float = 10.0) -> None:
    """Terminate, then kill, any child still running, and reap it."""
    for proc in ctx.children:
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(grace_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def median_of(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0
