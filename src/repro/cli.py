"""Command-line entry point: ``repro-report <exhibit> [--csv]``.

Regenerates any table or figure of the paper's evaluation from the
terminal::

    repro-report table1
    repro-report fig9 --csv > fig9.csv
    repro-report all

With the :mod:`repro.obs` flags the same run is also profiled —
``--trace`` writes a Chrome ``trace_events`` JSON (open in
``chrome://tracing`` or https://ui.perfetto.dev) with one span per
report plus every sweep point, tape compile, and schedule underneath
it, and ``--metrics`` prints the counter/histogram summary (cache hit
rates, tape statistics) after the reports::

    repro-report table1 --trace /tmp/t.json --metrics
    repro-report fig10 --trace fig10.json --trace-jsonl fig10.jsonl

Exhibits are independent computations, so ``repro-report all
--max-workers 4`` regenerates them as a task DAG on the
:mod:`repro.exec` process pool, and rendered results are memoized in a
content-addressed on-disk store (keyed on the exhibit name plus a
digest of the package sources, so any source edit invalidates it and
no graph is built just to key a lookup) so a repeated invocation is
warm-start; ``--no-cache`` / ``--cache-dir`` control the store.

Long multi-exhibit runs are resumable: ``--run-dir PATH`` journals
every completed exhibit under ``PATH/.runstate/`` (crash-safe appends),
a first Ctrl-C drains and exits with code 3, and adding ``--resume``
replays journal-verified exhibits instead of recomputing them.
Errors exit 1 with a one-paragraph ``[E-*]`` message (``--debug`` for
the raw traceback).

Diagnostics go to stderr so ``--csv`` output stays pipeable.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from typing import List, Optional

from . import obs
from .artifact import (
    add_exec_arguments,
    add_resilience_arguments,
    run_cli,
    store_from_args,
)
from .exec.engine import ExecutionEngine, Task
from .exec.journal import RunJournal
from .exec.signals import GracefulShutdown
from .exec.tasks import report_exhibit, report_exhibit_key
from .reports import ALL_REPORTS

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Regenerate tables/figures from 'Beyond Human-Level "
                    "Accuracy: Computational Challenges in Deep Learning' "
                    "(Hestness et al., PPoPP 2019).",
        epilog="Use the companion 'repro-lint' command to run the "
               "static analyzer (repro.check) over the model registry.",
    )
    parser.add_argument(
        "exhibit",
        choices=sorted(ALL_REPORTS) + ["all", "describe"],
        help="which paper exhibit to regenerate, or 'describe' for a "
             "Catamount-style per-model analysis",
    )
    parser.add_argument(
        "--csv", action="store_true",
        help="emit CSV instead of a rendered table/chart",
    )
    parser.add_argument(
        "--domain", default="word_lm",
        help="(describe) registry domain: word_lm, char_lm, nmt, "
             "speech, image",
    )
    parser.add_argument(
        "--size", type=float, default=None,
        help="(describe) model-size knob (hidden width or width "
             "multiplier); defaults to mid-sweep",
    )
    parser.add_argument(
        "--subbatch", type=int, default=None,
        help="(describe) subbatch size; defaults to the Table 3 choice",
    )
    add_exec_arguments(parser)
    parser.add_argument(
        "--run-dir", metavar="PATH", default=None,
        help="journal completed exhibits under PATH/.runstate/ so an "
             "interrupted run can be resumed (--resume)",
    )
    add_resilience_arguments(parser)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="enable repro.obs tracing and write a Chrome "
             "trace_events JSON to PATH (chrome://tracing / Perfetto)",
    )
    parser.add_argument(
        "--trace-jsonl", metavar="PATH", default=None,
        help="enable tracing and write one JSON object per span to "
             "PATH (for jq/pandas)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the repro.obs span/metrics summary to stderr "
             "after the reports",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.run_dir:
        parser.error("--resume requires --run-dir")

    observing = bool(args.trace or args.trace_jsonl or args.metrics)
    if observing:
        obs.enable()

    recorder = obs.RunRecorder(
        "repro-report",
        config={"exhibit": args.exhibit, "csv": bool(args.csv),
                "max_workers": args.max_workers,
                "resume": bool(args.resume),
                "trace": bool(args.trace)},
        run_dir=args.run_dir,
        resume=args.resume,
    )

    def body() -> int:
        if args.exhibit == "describe":
            from .reports import describe_domain

            with obs.span("report.describe", "report",
                          domain=args.domain):
                print(describe_domain(args.domain, size=args.size,
                                      subbatch=args.subbatch))
        else:
            names = (sorted(ALL_REPORTS) if args.exhibit == "all"
                     else [args.exhibit])
            store = store_from_args(args)
            tasks = [
                Task(
                    id=f"report:{name}",
                    fn=report_exhibit,
                    args=(name,),
                    key=(report_exhibit_key(name)
                         if store is not None else None),
                )
                for name in names
            ]
            with ExitStack() as stack:
                journal = None
                if args.run_dir:
                    journal = stack.enter_context(
                        RunJournal(args.run_dir, resume=args.resume))
                shutdown = stack.enter_context(GracefulShutdown())
                engine = ExecutionEngine(
                    max_workers=args.max_workers, store=store,
                    journal=journal,
                    stop=shutdown.stop_requested,
                )
                with obs.span("report.generate_all", "report",
                              n_exhibits=len(names),
                              max_workers=args.max_workers):
                    results = engine.run(tasks)
                if journal is not None and journal.skipped:
                    print(f"resumed: {journal.skipped} exhibit(s) "
                          "verified and skipped from the journal",
                          file=sys.stderr)
            for name, task in zip(names, tasks):
                # one span per table/figure: rendering happens in the
                # parent so the trace shows where the time went
                report = results[task.id].value
                with obs.span("report.render", "report", exhibit=name,
                              csv=args.csv):
                    out = (report.to_csv() if args.csv
                           else report.render())
                print(out)
                print()

        if args.trace:
            path = obs.write_chrome_trace(args.trace)
            print(f"wrote Chrome trace: {path}", file=sys.stderr)
        if args.trace_jsonl:
            path = obs.write_jsonl(args.trace_jsonl)
            print(f"wrote span JSONL: {path}", file=sys.stderr)
        if args.metrics:
            print(obs.summary(), file=sys.stderr)
        return 0

    return run_cli(body, debug=args.debug, recorder=recorder)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
