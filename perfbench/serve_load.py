"""The ``serve_mixed`` workload: a ``repro-serve`` daemon under load.

Set-up spawns the daemon on a fresh store and primes every hit spec.
A run does that ``SETUPS`` times, one daemon after another, and loads
each daemon for an equal share of the run in two phases, from this one
process over two keep-alive connections:

* phase 1 — two closed-loop clients send warm hits back to back;
* phase 2 — warm hits arrive open-loop at ``HIT_RATE_QPS`` on one
  connection while the other sends unique ``/v1/sweep`` computes back
  to back.

Hits must be byte-identical to their priming answers, exhibits must
match the goldens, and a seeded sample of computes must match an
in-process ``sweep_domain`` call made after the timed window.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.checks import diff_block, snapshot_lines
from perfbench.common import PROCESS_TIMEOUT_S, ROOT, Context, median_of
from perfbench.stats import (OpenLoopSchedule, Outcomes, kind_median,
                             percentile, response_ok, tail_summary)

#: the warm hit set; the heavy domains (char_lm, speech) are left to
#: the report workloads, their first plan alone takes 9-12 s
HIT_SPECS: List[Tuple[str, Dict]] = (
    [("exhibit", {"name": "table1"}), ("exhibit", {"name": "table4"})]
    + [(endpoint, {"domain": domain})
       for domain in ("word_lm", "nmt", "image")
       for endpoint in ("plan", "sweep")]
)
COMPUTE_DOMAINS = ("word_lm", "nmt")
COMPUTE_SIZE_RANGE = (256, 4096)
SETUPS = 2
#: phase 1's share of a daemon's load time: enough closed-loop hits that
#: their per-spec medians hold steady run to run
PHASE1_SHARE = 0.4
#: phase-2 offered hit rate, a quarter of what one connection sustains
#: while computes run (~80/s on 2 CPUs): above that the backlog grows
#: for the whole phase and latency measures its length, and near it
#: the hits' interference makes the compute figures swing
HIT_RATE_QPS = 20.0
#: computes re-run in-process to check the served rows
CHECKED_COMPUTES = 4
HTTP_TIMEOUT_S = 60.0


def compute_requests(seed: int, count: int) -> List[Dict]:
    """``count`` unique seeded sweep requests, alternating domains."""
    rng = random.Random(f"computes-{seed}")
    seen, out = set(), []
    while len(out) < count:
        domain = COMPUTE_DOMAINS[len(out) % len(COMPUTE_DOMAINS)]
        sizes = tuple(sorted(float(s) for s in
                             rng.sample(range(*COMPUTE_SIZE_RANGE), 3)))
        if (domain, sizes) not in seen:
            seen.add((domain, sizes))
            out.append({"domain": domain, "sizes": list(sizes)})
    return out


def hit_order(seed: int, stream: str, count: int) -> List[int]:
    rng = random.Random(f"hits-{seed}-{stream}")
    return [rng.randrange(len(HIT_SPECS)) for _ in range(count)]


class Client:
    """One keep-alive HTTP/1.1 connection to the daemon."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=HTTP_TIMEOUT_S)

    def post(self, endpoint: str, params: Dict) -> Tuple[int, bytes]:
        self.conn.request("POST", f"/v1/{endpoint}",
                          json.dumps(params).encode("utf-8"),
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def get_json(self, path: str) -> Dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class Daemon:
    """A ``repro-serve`` child on its own fresh store."""

    def __init__(self, ctx: Context, label: str):
        root = ctx.fresh_dir(label + "-")
        store = os.path.join(root, "store")
        env = ctx.env(cache_dir=store,
                      history=os.path.join(root, "history.jsonl"))
        self.stderr = open(os.path.join(root, "stderr.log"), "wb")
        self.proc = subprocess.Popen(
            [ctx.python, "-m", "repro.serve", "--port", "0",
             "--cache-dir", store],
            stdout=subprocess.PIPE, stderr=self.stderr, env=env, cwd=ROOT)
        ctx.children.append(self.proc)
        # a daemon that never announces is killed, which ends the read
        timer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
            self.proc.stdout.close()
        if not line:
            raise RuntimeError("repro-serve exited before announcing")
        self.port = json.loads(line)["port"]
        self.maxrss_mb = 0.0

    def stop(self) -> int:
        """SIGTERM, then reap; the exit code (0 = clean drain)."""
        self.proc.send_signal(signal.SIGTERM)
        timer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
            self.stderr.close()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        return self.proc.returncode


def _check_exhibit(ctx: Context, spec: Tuple[str, Dict], body: bytes,
                   outcomes: Outcomes) -> None:
    name = spec[1]["name"]
    try:
        result = json.loads(body)["result"]
    except (ValueError, KeyError):
        outcomes.record(False, f"exhibit {name}: no result in the answer")
        return
    diffs = diff_block(name, snapshot_lines(result), ctx.goldens[name])
    outcomes.record(not diffs, "; ".join(diffs[:3]))


def _set_up(ctx: Context, index: int,
            outcomes: Outcomes) -> Tuple[float, Daemon, List[bytes]]:
    """Spawn, announce and prime every hit spec; (seconds, daemon,
    primed bodies)."""
    start = time.perf_counter()
    daemon = Daemon(ctx, f"serve{index}")
    client = Client(daemon.port)
    bodies = []
    try:
        for spec in HIT_SPECS:
            status, body = client.post(*spec)
            outcomes.record(response_ok(status, body),
                            f"priming {spec} answered {status}")
            bodies.append(body)
    finally:
        client.close()
    elapsed = time.perf_counter() - start
    for spec, body in zip(HIT_SPECS, bodies):
        if spec[0] == "exhibit":
            _check_exhibit(ctx, spec, body, outcomes)
    return elapsed, daemon, bodies


def _closed_loop(port: int, order: List[int], bodies: List[bytes],
                 end: float, latencies: List[Tuple[int, float]],
                 outcomes: Outcomes) -> None:
    client = Client(port)
    try:
        for index in order:
            if time.perf_counter() >= end:
                break
            sent = time.perf_counter()
            status, body = client.post(*HIT_SPECS[index])
            latencies.append((index, time.perf_counter() - sent))
            outcomes.record(response_ok(status, body, bodies[index]),
                            f"phase-1 hit answered {status}")
    finally:
        client.close()


def _open_loop(client: Client, order: List[int], bodies: List[bytes],
               schedule: OpenLoopSchedule, end: float,
               outcomes: Outcomes) -> None:
    for i, index in enumerate(order):
        due = schedule.due(i)
        if due >= end:
            break
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        status, body = client.post(*HIT_SPECS[index])
        schedule.record(i, sent, time.perf_counter())
        outcomes.record(response_ok(status, body, bodies[index]),
                        f"phase-2 hit answered {status}")


def _computes(client: Client, requests: List[Dict], end: float,
              latencies: List[Tuple[str, float]],
              answers: List[Tuple[Dict, bytes]],
              outcomes: Outcomes) -> None:
    for params in requests:
        if time.perf_counter() >= end:
            break
        sent = time.perf_counter()
        status, body = client.post("sweep", params)
        latencies.append((params["domain"], time.perf_counter() - sent))
        if outcomes.record(response_ok(status, body),
                           f"compute answered {status}"):
            answers.append((params, body))


def _check_computes(ctx: Context, answers: List[Tuple[Dict, bytes]],
                    outcomes: Outcomes) -> None:
    """Re-run a seeded sample of computes in-process; rows must be
    identical to the served ones."""
    from dataclasses import asdict

    from repro.analysis import sweep_domain

    rng = random.Random(f"check-{ctx.seed}")
    sample = rng.sample(answers, min(CHECKED_COMPUTES, len(answers)))
    for params, body in sample:
        served = json.loads(body)
        result = sweep_domain(params["domain"],
                              subbatch=served["params"]["subbatch"],
                              sizes=tuple(params["sizes"]))
        expected = json.loads(json.dumps([asdict(r) for r in result.rows]))
        outcomes.record(served["result"]["rows"] == expected,
                        f"served sweep {params} differs from in-process")


def _delta(before: Dict, after: Dict, name: str) -> float:
    def value(snapshot: Dict) -> float:
        return float(snapshot["metrics"].get(name, {}).get("value", 0))

    return value(after) - value(before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Load:
    """Samples and counter deltas pooled over every loaded daemon."""

    COUNTERS = ("exec.store.hit", "exec.store.miss", "serve.coalesce.hit",
                "serve.coalesce.miss", "serve.query.computed",
                "serve.admission.shed", "serve.http.server_errors")

    def __init__(self) -> None:
        #: (hit spec index, seconds) and (domain, seconds)
        self.p1_latencies: List[Tuple[int, float]] = []
        self.p1_wall = 0.0
        self.hit_latencies: List[float] = []
        self.hit_lateness: List[float] = []
        self.offered = 0
        self.compute_latencies: List[Tuple[str, float]] = []
        self.answers: List[Tuple[Dict, bytes]] = []
        self.p2_wall = 0.0
        self.counters = dict.fromkeys(self.COUNTERS, 0.0)


def _load(ctx: Context, daemon: Daemon, index: int, primed: List[bytes],
          requests: List[Dict], seconds: float, load: Load,
          outcomes: Outcomes) -> None:
    """Phase 1 then phase 2 against one daemon, ``seconds`` in all."""
    phase1_s = seconds * PHASE1_SHARE
    phase2_s = seconds - phase1_s
    control = Client(daemon.port)
    try:
        before = control.get_json("/v1/stats")

        start = time.perf_counter()
        end = start + phase1_s
        threads = [threading.Thread(
            target=_closed_loop,
            args=(daemon.port,
                  hit_order(ctx.seed, f"p1-{index}-{t}", 1_000_000),
                  primed, end, load.p1_latencies, outcomes))
            for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        load.p1_wall += time.perf_counter() - start

        hits_client = Client(daemon.port)
        start = time.perf_counter()
        end = start + phase2_s
        schedule = OpenLoopSchedule(start, HIT_RATE_QPS)
        hit_thread = threading.Thread(
            target=_open_loop,
            args=(hits_client,
                  hit_order(ctx.seed, f"p2-{index}",
                            int(HIT_RATE_QPS * phase2_s) + 1),
                  primed, schedule, end, outcomes))
        hit_thread.start()
        _computes(control, requests, end, load.compute_latencies,
                  load.answers, outcomes)
        hit_thread.join()
        load.p2_wall += time.perf_counter() - start
        hits_client.close()
        load.hit_latencies += schedule.latencies
        load.hit_lateness += schedule.lateness
        load.offered += len(schedule.latencies)

        after = control.get_json("/v1/stats")
        for name in Load.COUNTERS:
            load.counters[name] += _delta(before, after, name)
    finally:
        control.close()


def run_serve_mixed(ctx: Context) -> Dict:
    """``SETUPS`` daemons in turn, each set up and then loaded for an
    equal share of ``--seconds``; samples are pooled across them, so
    one daemon's luck does not decide the run."""
    outcomes = Outcomes()
    load = Load()
    setups: List[float] = []
    rss: List[float] = []
    primed: Optional[List[bytes]] = None
    share = ctx.seconds / SETUPS
    requests = compute_requests(ctx.seed, SETUPS * (int(share / 0.05) + 1))
    for index in range(SETUPS):
        elapsed, daemon, bodies = _set_up(ctx, index, outcomes)
        setups.append(elapsed)
        if primed is not None:
            outcomes.record(bodies == primed,
                            "primed answers differ between daemons")
        primed = bodies
        try:
            _load(ctx, daemon, index, bodies,
                  requests[index::SETUPS], share, load, outcomes)
        finally:
            exit_code = daemon.stop()
        outcomes.record(exit_code == 0,
                        f"daemon exited {exit_code} on SIGTERM")
        rss.append(daemon.maxrss_mb)
    _check_computes(ctx, load.answers, outcomes)

    p1 = [seconds for _, seconds in load.p1_latencies]
    computed = [seconds for _, seconds in load.compute_latencies]
    hits = tail_summary(load.hit_latencies, 99.0)
    computes = tail_summary(computed, 90.0)
    counters = load.counters
    lookups = counters["exec.store.hit"] + counters["exec.store.miss"]
    coalesce = counters["serve.coalesce.hit"] + counters["serve.coalesce.miss"]
    return {
        "outcomes": outcomes,
        "metrics": {
            "setup_s": median_of(setups),
            # per-kind medians: robust to a stall and to the mix of
            # word_lm/nmt computes and of hit specs
            "cold_wall_s": kind_median(load.compute_latencies),
            "warm_wall_s": kind_median(load.p1_latencies),
            "peak_rss_mb": max(rss),
        },
        "serve": {
            "hit_qps": len(p1) / load.p1_wall,
            "hit_p50_ms": hits["p50"] * 1e3,
            "hit_p99_ms": hits["tail"] * 1e3,
            "hit_n": hits["n"],
            "hit_p99_supported": hits["supported"],
            "hit_best_tail": hits["best_supported"],
            "compute_p50_ms": computes["p50"] * 1e3,
            "compute_p90_ms": computes["tail"] * 1e3,
            "compute_n": computes["n"],
            "compute_p90_supported": computes["supported"],
            "compute_best_tail": computes["best_supported"],
            "compute_qps": len(computed) / load.p2_wall,
        },
        "layers": {
            "serve.http_p50_s": percentile(p1, 50.0),
            "serve.coalesce_rate": _ratio(counters["serve.coalesce.hit"],
                                          coalesce),
            "serve.query.computed": counters["serve.query.computed"],
            "serve.admission.shed": counters["serve.admission.shed"],
            "serve.http.server_errors":
                counters["serve.http.server_errors"],
            "exec.store.hit_rate": _ratio(counters["exec.store.hit"],
                                          lookups),
            "exec.store.lookups": lookups,
            "loadgen.offered_qps": load.offered / load.p2_wall,
            "loadgen.late_p99_ms":
                percentile(load.hit_lateness, 99.0) * 1e3,
        },
        "replay": {
            "computes": [params for params, _ in load.answers],
            "hits": load.offered,
        },
        # what the traced replay redoes: one set-up, then the phase-2
        # hits and computes of every daemon
        "untraced_wall_s": median_of(setups) + load.p2_wall,
        "rounds": SETUPS,
    }
