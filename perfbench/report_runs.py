"""The report workloads: cold and warm ``repro-report all`` processes.

``store_roundtrip`` runs a cold pass on the engine's process pool on a
fresh empty store, then a second process on the populated store; ``paper_nocache`` runs
one serial ``--no-cache`` pass.  Each process is judged by its exit
status and its output, never by its stderr.
"""

from __future__ import annotations

import os
import subprocess
import time
from typing import Dict, List, Tuple

from perfbench.checks import check_report_output
from perfbench.common import (PROCESS_TIMEOUT_S, Context, ProcessRun,
                              median_of, run_process)
from perfbench.stats import Outcomes

#: pool workers of the cold pass.  One worker still takes the engine's
#: pool path; with two, which worker gets which exhibit is a race, each
#: worker memoizes its own sweeps, and the pass's wall time swings
#: 31-46 s with how much sweep work the two end up duplicating
COLD_WORKERS = 1
#: set-ups per run; the median is reported
SETUP_REPEATS = 5
#: a set-up makes the temp root and the empty store from a fresh
#: interpreter, as a CLI process would; a store creation timed inside
#: this process takes ~60 us and swings 3x with file-system state
_MAKE_STORE = ("import sys; from repro.exec.store import ResultStore; "
               "ResultStore(sys.argv[1])")


def _setup(ctx: Context) -> Tuple[float, str]:
    """Median seconds of ``SETUP_REPEATS`` set-ups, and the last root."""
    times: List[float] = []
    root = ""
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        root = ctx.fresh_dir("store-")
        store = os.path.join(root, "store")
        subprocess.run([ctx.python, "-c", _MAKE_STORE, store], check=True,
                       timeout=PROCESS_TIMEOUT_S,
                       env=ctx.env(cache_dir=store, history=os.path.join(
                           root, "setup.history.jsonl")))
        times.append(time.perf_counter() - start)
    return median_of(times), root


def _cli_pass(ctx: Context, root: str, label: str, args: List[str],
              outcomes: Outcomes) -> ProcessRun:
    store = os.path.join(root, "store")
    env = ctx.env(cache_dir=store,
                  history=os.path.join(root, label + ".history.jsonl"))
    cmd = [ctx.python, "-m", "repro.cli", "all", "--csv", *args]
    run = run_process(ctx, cmd, env, label)
    if outcomes.record(run.returncode == 0,
                       f"{label} exited {run.returncode}: "
                       f"{run.stderr.strip()[-300:]}"):
        check_report_output(run.stdout, ctx.exhibits, ctx.goldens,
                            ctx.reference, outcomes)
    return run


def run_store_roundtrip(ctx: Context) -> Dict:
    outcomes = Outcomes()
    setups, colds, warms, rss = [], [], [], []
    start = time.perf_counter()
    while not colds or time.perf_counter() - start < ctx.seconds:
        setup_s, root = _setup(ctx)
        store = os.path.join(root, "store")
        cold = _cli_pass(ctx, root, f"cold{len(colds)}",
                         ["--max-workers", str(COLD_WORKERS),
                          "--cache-dir", store], outcomes)
        warm = _cli_pass(ctx, root, f"warm{len(colds)}",
                         ["--cache-dir", store], outcomes)
        outcomes.record(cold.stdout == warm.stdout,
                        "warm pass output differs from the cold pass")
        setups.append(setup_s)
        colds.append(cold.wall_s)
        warms.append(warm.wall_s)
        rss += [cold.maxrss_mb, warm.maxrss_mb]
    return {
        "outcomes": outcomes,
        "metrics": {
            "setup_s": median_of(setups),
            "cold_wall_s": median_of(colds),
            "warm_wall_s": median_of(warms),
            "peak_rss_mb": max(rss),
        },
        "untraced_wall_s": median_of(colds) + median_of(warms),
        "rounds": len(colds),
    }


def run_paper_nocache(ctx: Context) -> Dict:
    outcomes = Outcomes()
    setups, colds, rss = [], [], []
    start = time.perf_counter()
    while not colds or time.perf_counter() - start < ctx.seconds:
        setup_s, root = _setup(ctx)
        cold = _cli_pass(ctx, root, f"nocache{len(colds)}",
                         ["--no-cache"], outcomes)
        setups.append(setup_s)
        colds.append(cold.wall_s)
        rss.append(cold.maxrss_mb)
    return {
        "outcomes": outcomes,
        "metrics": {
            "setup_s": median_of(setups),
            "cold_wall_s": median_of(colds),
            "peak_rss_mb": max(rss),
        },
        "untraced_wall_s": median_of(colds),
        "rounds": len(colds),
    }
