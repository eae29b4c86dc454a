"""Sample statistics and load-generator bookkeeping for the benchmark.

Everything here is pure Python on plain numbers so the self-tests in
``perfbench/tests`` can pin it down without a daemon or a CLI run.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

#: a tail percentile is only reported when at least this many samples
#: lie beyond it; with fewer, one stall decides the figure
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return float(ordered[low] + (ordered[high] - ordered[low])
                 * (rank - low))


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def supported_tail(n: int, candidates: Sequence[float] = (
        99.9, 99.0, 95.0, 90.0, 75.0, 50.0)) -> Optional[float]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples
    beyond it, or None when even the lowest lacks them."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= MIN_BEYOND - 1e-9:
            return q
    return None


def tail_summary(values: Sequence[float], q: float) -> Dict[str, object]:
    """Median and the ``q``-th percentile, with whether ``n`` supports
    that tail and which tail it would support instead."""
    n = len(values)
    return {
        "n": n,
        "p50": percentile(values, 50.0) if n else float("nan"),
        "q": q,
        "tail": percentile(values, q) if n else float("nan"),
        "supported": samples_beyond(n, q) >= MIN_BEYOND - 1e-9,
        "best_supported": supported_tail(n),
    }


def kind_median(samples: Sequence[Tuple[Hashable, float]]) -> float:
    """Mean over request kinds of each kind's median latency.

    Robust to a stall (medians) and to the mix of kinds (equal
    weights): a plain median of a mix sits in the gap between kinds
    and jumps when their shares move.
    """
    by_kind: Dict[Hashable, List[float]] = {}
    for kind, value in samples:
        by_kind.setdefault(kind, []).append(value)
    if not by_kind:
        raise ValueError("no samples")
    return (sum(percentile(v, 50.0) for v in by_kind.values())
            / len(by_kind))


class OpenLoopSchedule:
    """Due times for requests offered at a fixed rate.

    Request ``i`` is due at ``start + i / rate`` whether or not the
    previous one has finished.  Its latency is counted from the due
    time, so a stall also charges the requests queued behind it; the
    generator's own lateness (send time minus due time) is kept apart
    so a slow client is not mistaken for a slow server.
    """

    def __init__(self, start: float, rate: float):
        if rate <= 0:
            raise ValueError("open-loop rate must be positive")
        self.start = start
        self.rate = rate
        self.latencies: List[float] = []
        self.lateness: List[float] = []

    def due(self, index: int) -> float:
        return self.start + index / self.rate

    def record(self, index: int, sent: float, done: float) -> float:
        """Account one completed request; returns its latency."""
        due = self.due(index)
        latency = done - due
        self.latencies.append(latency)
        self.lateness.append(max(0.0, sent - due))
        return latency

    def offered_rate(self, end: float) -> float:
        """Requests actually offered per second up to ``end``."""
        span = end - self.start
        return len(self.latencies) / span if span > 0 else 0.0


class Outcomes:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, what: str = "") -> bool:
        """Count one operation (client threads share one instance)."""
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 20:
                    self.reasons.append(what)
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def response_ok(status: int, body: bytes,
                expected: Optional[bytes] = None) -> bool:
    """Whether one HTTP answer counts as a success.

    Anything but 200 fails — a shed request (429 ``E-BUSY``) is a
    refusal, and a refused request misses every latency limit.  With
    ``expected`` the body must also match it byte for byte.
    """
    if status != 200:
        return False
    return expected is None or body == expected
