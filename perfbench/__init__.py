"""Repository benchmark: cold and warm report runs and mixed serving.

Run one workload with ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
