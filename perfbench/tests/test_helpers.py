"""Self-tests for the benchmark's helpers.

Run with ``python3 -m pytest perfbench/tests``.
"""

import os
import threading

import pytest

from perfbench.checks import (ReferenceBlocks, check_report_output,
                              load_goldens, snapshot_lines)
from perfbench.layers import Tracer
from perfbench.stats import (OpenLoopSchedule, Outcomes, kind_median,
                             percentile, response_ok, supported_tail,
                             tail_summary)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                          os.pardir, "tests", "golden", "goldens")


# -- tail percentile choice ---------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0),
    (100, 90.0), (40, 75.0), (20, 50.0), (19, None), (0, None),
])
def test_supported_tail_keeps_ten_samples_beyond(n, expected):
    assert supported_tail(n) == expected


def test_tail_summary_flags_an_unsupported_tail():
    summary = tail_summary([float(i) for i in range(1, 54)], 90.0)
    assert summary["n"] == 53
    assert summary["p50"] == 27.0
    assert summary["supported"] is False
    assert summary["best_supported"] == 75.0
    assert tail_summary([1.0] * 1000, 99.0)["supported"] is True


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_kind_median_ignores_the_mix_and_a_stall():
    fast = [("small", 1.0)] * 10
    slow = [("large", 3.0)] * 10
    assert kind_median(fast + slow) == 2.0
    # a shifted mix moves a plain median from 1.0 to 3.0, not this
    assert kind_median(fast[:4] + slow) == 2.0
    assert kind_median(fast + slow[:4]) == 2.0
    # one stall in a kind does not move its median
    assert kind_median(fast + slow + [("small", 500.0)]) == 2.0
    with pytest.raises(ValueError):
        kind_median([])


# -- open-loop accounting -------------------------------------------------------

def test_open_loop_latency_counts_from_the_due_time():
    schedule = OpenLoopSchedule(start=100.0, rate=10.0)
    assert schedule.due(3) == pytest.approx(100.3)
    # on time: latency is the service time
    assert schedule.record(0, sent=100.0, done=100.05) == pytest.approx(0.05)
    # a stall: sent 0.2 s after its due time, served in 0.05 s
    assert schedule.record(1, sent=100.3, done=100.35) == pytest.approx(0.25)
    # sent early is not negative lateness
    schedule.record(2, sent=100.19, done=100.21)
    assert schedule.lateness == pytest.approx([0.0, 0.2, 0.0])
    assert schedule.latencies == pytest.approx([0.05, 0.25, 0.01])
    assert schedule.offered_rate(end=100.5) == pytest.approx(6.0)


def test_open_loop_rejects_a_non_positive_rate():
    with pytest.raises(ValueError):
        OpenLoopSchedule(start=0.0, rate=0.0)


# -- golden CSV comparison ------------------------------------------------------

def _csv_run(goldens, names):
    return "".join("\n".join(snapshot_lines(goldens[n])) + "\n\n"
                   for n in names)


@pytest.fixture
def goldens():
    return load_goldens(GOLDEN_DIR)


def test_golden_blocks_pass_and_a_perturbed_cell_fails(goldens, tmp_path):
    names = ["fig9", "table1", "table3"]
    reference = ReferenceBlocks(str(tmp_path / "ref.json"), "src")
    clean = Outcomes()
    check_report_output(_csv_run(goldens, names), names, goldens,
                        reference, clean)
    assert (clean.attempted, clean.failed) == (4, 0)

    table = goldens["table1"]
    row = next(i for i, r in enumerate(table["rows"])
               if any(c[:1].isdigit() for c in r))
    col = next(j for j, c in enumerate(table["rows"][row])
               if c[:1].isdigit())
    cell = table["rows"][row][col]
    bumped = cell.replace(cell[0], str((int(cell[0]) + 1) % 10), 1)
    table["rows"][row][col] = bumped
    perturbed = Outcomes()
    check_report_output(_csv_run(goldens, names), names,
                        load_goldens(GOLDEN_DIR), reference, perturbed)
    assert perturbed.failed == 1
    assert "table1" in perturbed.reasons[0]


def test_figure_values_compare_within_tolerance(goldens, tmp_path):
    reference = ReferenceBlocks(str(tmp_path / "ref.json"), "src")
    figure = goldens["fig9"]
    figure["series"][0]["y"][0] *= 1 + 1e-9
    ok = Outcomes()
    check_report_output(_csv_run(goldens, ["fig9"]), ["fig9"],
                        load_goldens(GOLDEN_DIR), reference, ok)
    assert ok.failed == 0
    figure["series"][0]["y"][0] *= 1 + 1e-4
    bad = Outcomes()
    check_report_output(_csv_run(goldens, ["fig9"]), ["fig9"],
                        load_goldens(GOLDEN_DIR), reference, bad)
    assert bad.failed == 1


def test_golden_less_blocks_must_repeat(tmp_path):
    path = str(tmp_path / "ref.json")
    first = ReferenceBlocks(path, "src-a")
    assert first.check("auto_plan", "a,b\n1,2") is None
    first.save()
    again = ReferenceBlocks(path, "src-a")
    assert again.check("auto_plan", "a,b\n1,2") is None
    assert again.check("auto_plan", "a,b\n1,3") is not None
    # another source tree starts its own reference
    assert ReferenceBlocks(path, "src-b").check("auto_plan",
                                                "a,b\n1,3") is None


def test_a_missing_block_is_one_failure(goldens, tmp_path):
    reference = ReferenceBlocks(str(tmp_path / "ref.json"), "src")
    outcomes = Outcomes()
    check_report_output(_csv_run(goldens, ["table1"]),
                        ["table1", "table2"], goldens, reference, outcomes)
    assert (outcomes.attempted, outcomes.failed) == (1, 1)


# -- error accounting -----------------------------------------------------------

def test_a_429_counts_as_a_failure():
    outcomes = Outcomes()
    outcomes.record(response_ok(200, b"{}", b"{}"), "hit")
    outcomes.record(response_ok(429, b'{"error": {"code": "E-BUSY"}}'),
                    "shed")
    outcomes.record(response_ok(200, b"{}"), "compute")
    assert (outcomes.attempted, outcomes.failed) == (3, 1)
    assert outcomes.error_rate == pytest.approx(1 / 3)
    assert outcomes.reasons == ["shed"]


def test_a_wrong_body_counts_as_a_failure():
    assert not response_ok(200, b'{"a": 1}', b'{"a": 2}')


def test_outcomes_are_exact_under_concurrent_clients():
    outcomes = Outcomes()

    def client():
        for i in range(20_000):
            outcomes.record(i % 100 != 0)

    threads = [threading.Thread(target=client) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert (outcomes.attempted, outcomes.failed) == (80_000, 800)


# -- traced spans ---------------------------------------------------------------

def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans.extend([
        ["reports.generate_s", 0, 10_000, -1, "r"],
        ["models.build_s", 1_000, 4_000, 0, "r"],
        ["graph.hash_s", 2_000, 3_000, 1, "r"],
        ["models.build_s", 5_000, 6_000, 0, "r"],
    ])
    totals = tracer.self_times()
    assert totals["reports.generate_s"] == pytest.approx(6e-6)
    assert totals["models.build_s"] == pytest.approx(3e-6)
    assert totals["graph.hash_s"] == pytest.approx(1e-6)
    assert sum(totals.values()) == pytest.approx(10e-6)


def test_wrapped_calls_record_nested_spans():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.request = "req-1"
    assert outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert {s[4] for s in tracer.spans} == {"req-1"}
