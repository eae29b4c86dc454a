"""Benchmark-regression gate: recorded numbers vs committed floors.

Reads freshly recorded ``BENCH_*.json`` artifacts (repo root) and the
committed ``benchmarks/BENCH_floors.json``, and fails (exit 1) if any
recorded column falls below its floor.  The floors file is the
ratchet: raise a floor when the system gets faster, never lower one to
make CI pass — a floor violation means a measured capability
regressed.

Each top-level floors section is checked against one recorded file
(see ``SECTION_FILES``); sections without an explicit entry come from
``BENCH_compile_eval.json``.  ``--section NAME`` restricts the gate to
one section (the server-gate CI job checks only ``server``, so a
missing compile/eval artifact there is not a failure).

Run:  python benchmarks/check_bench_floors.py [--section NAME]
      (after the pytest benchmark that records the section's file)
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FLOORS = Path(__file__).resolve().parent / "BENCH_floors.json"

#: floors section -> recorded artifact at the repo root
SECTION_FILES = {
    "server": "BENCH_server.json",
    "server_resilience": "BENCH_server_resilience.json",
    "cold_pipeline": "BENCH_cold_pipeline.json",
}
DEFAULT_FILE = "BENCH_compile_eval.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Check recorded BENCH_*.json against "
                    "benchmarks/BENCH_floors.json")
    parser.add_argument(
        "--section", default=None, metavar="NAME",
        help="check only this floors section (default: all)")
    args = parser.parse_args(argv)

    floors = json.loads(FLOORS.read_text())
    recorded_cache = {}

    def recorded_for(section):
        filename = SECTION_FILES.get(section, DEFAULT_FILE)
        if filename not in recorded_cache:
            path = REPO_ROOT / filename
            try:
                recorded_cache[filename] = json.loads(path.read_text())
            except OSError:
                recorded_cache[filename] = None
        return recorded_cache[filename], filename

    failures = []
    checked = 0
    for section, domains in floors.items():
        if section.startswith("_"):
            continue
        if args.section is not None and section != args.section:
            continue
        recorded, filename = recorded_for(section)
        if recorded is None:
            failures.append(f"{section}: {filename} not recorded")
            continue
        for domain, columns in domains.items():
            stats = recorded.get(section, {}).get(domain)
            if stats is None:
                failures.append(
                    f"{section}.{domain}: missing from {filename}"
                )
                continue
            for column, floor in columns.items():
                got = stats.get(column)
                checked += 1
                if got is None:
                    failures.append(
                        f"{section}.{domain}.{column}: column not "
                        f"recorded (floor {floor})"
                    )
                elif got < floor:
                    failures.append(
                        f"{section}.{domain}.{column}: {got} is below "
                        f"the committed floor {floor}"
                    )
                else:
                    print(f"ok  {section}.{domain}.{column}: "
                          f"{got} >= {floor}")

    if args.section is not None and checked == 0 and not failures:
        failures.append(f"no floors found for section {args.section!r}")

    if failures:
        print(f"\n{len(failures)} floor violation(s):", file=sys.stderr)
        for line in failures:
            print(f"  FAIL  {line}", file=sys.stderr)
        return 1
    print(f"\nall {checked} recorded values at or above their floors")
    return 0


if __name__ == "__main__":
    sys.exit(main())
