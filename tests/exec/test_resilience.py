"""Resilience tests: graceful shutdown, engine drain, SIGINT oracle.

The differential oracle at the bottom is the ISSUE's acceptance test:
an artifact run interrupted by SIGINT mid-flight and then resumed must
produce a byte-identical output tree to an uninterrupted run, with the
journal showing at least one skipped (replayed) task.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import EXIT_RESUMABLE, RunInterrupted
from repro.exec.engine import ExecutionEngine, Task
from repro.exec.journal import STATE_DIRNAME, RunJournal
from repro.exec.signals import GracefulShutdown

from ._workers import double, sigterm_disposition


class TestGracefulShutdown:
    def test_first_signal_flips_flag_second_raises(self, tmp_path):
        log = open(os.devnull, "w")
        try:
            with GracefulShutdown(signals=(signal.SIGUSR1,),
                                  stream=log) as shutdown:
                assert not shutdown.stop_requested()
                signal.raise_signal(signal.SIGUSR1)
                assert shutdown.stop_requested()
                with pytest.raises(KeyboardInterrupt):
                    signal.raise_signal(signal.SIGUSR1)
        finally:
            log.close()

    def test_handlers_restored_on_exit(self):
        previous = signal.getsignal(signal.SIGUSR1)
        with GracefulShutdown(signals=(signal.SIGUSR1,)):
            assert signal.getsignal(signal.SIGUSR1) != previous
        assert signal.getsignal(signal.SIGUSR1) == previous


    def test_pool_workers_do_not_inherit_the_drain_handler(self):
        # forked workers would otherwise print "SIGTERM received:
        # draining..." and swallow the signal pool.terminate() sends
        with open(os.devnull, "w") as log, GracefulShutdown(stream=log):
            assert signal.getsignal(signal.SIGTERM) != signal.SIG_DFL
            results = ExecutionEngine(max_workers=1).run(
                [Task(id="t", fn=sigterm_disposition, args=(0,))])
        assert results["t"].value == (True, True)


class TestEngineDrain:
    def test_stop_interrupts_serial_run_resumably(self, tmp_path):
        journal = RunJournal(str(tmp_path))
        calls = []

        def stop():
            return len(calls) >= 2

        tasks = [Task(id=f"t{i}", fn=double, args=(i,))
                 for i in range(4)]
        engine = ExecutionEngine(max_workers=0, journal=journal,
                                 stop=stop)

        def on_result(task, result):
            calls.append(task.id)

        with pytest.raises(RunInterrupted) as info:
            engine.run(tasks, on_result=on_result)
        journal.close()
        err = info.value
        assert sorted(err.results) == ["t0", "t1"]
        assert err.pending == ("t2", "t3")
        # completed tasks are journaled, so a resume skips them
        with RunJournal(str(tmp_path), resume=True) as resumed:
            assert resumed.completed_ids() == ["t0", "t1"]

    def test_resumed_engine_replays_journaled_tasks(self, tmp_path):
        tasks = lambda: [Task(id=f"t{i}", fn=double, args=(i,))
                         for i in range(3)]
        with RunJournal(str(tmp_path)) as journal:
            ExecutionEngine(max_workers=0, journal=journal).run(tasks())
        fresh = []
        with RunJournal(str(tmp_path), resume=True) as journal:
            results = ExecutionEngine(max_workers=0,
                                      journal=journal).run(
                tasks(),
                on_result=lambda task, result: fresh.append(task.id),
            )
            assert journal.skipped == 3
        assert fresh == []  # on_result never fires for replays
        assert [results[f"t{i}"].value for i in range(3)] == [0, 2, 4]
        assert all(results[t].source == "journal" for t in results)

    def test_pool_run_journals_and_resumes(self, tmp_path):
        tasks = lambda: [Task(id=f"t{i}", fn=double, args=(i,))
                         for i in range(4)]
        with RunJournal(str(tmp_path)) as journal:
            ExecutionEngine(max_workers=2, journal=journal).run(tasks())
        with RunJournal(str(tmp_path), resume=True) as journal:
            results = ExecutionEngine(max_workers=2,
                                      journal=journal).run(tasks())
            assert journal.skipped == 4
        assert [results[f"t{i}"].value for i in range(4)] == [0, 2, 4, 6]


CLI = [sys.executable, "-m", "repro.artifact", "--no-cache",
       "--configs", "word_lm:1024,word_lm:2048,image:1,image:2"]


def _env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


def _read_tree(out_dir):
    tree = {}
    for root, dirs, files in os.walk(out_dir):
        dirs[:] = [d for d in dirs if d != STATE_DIRNAME]
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, out_dir)
            with open(path, "rb") as handle:
                tree[rel] = handle.read()
    return tree


class TestInterruptResumeOracle:
    """SIGINT mid-flight + --resume == uninterrupted run, byte for byte."""

    def test_differential_oracle(self, tmp_path):
        interrupted = str(tmp_path / "interrupted")
        oracle = str(tmp_path / "oracle")

        proc = subprocess.Popen(CLI + ["--out", interrupted],
                                env=_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        # interrupt as soon as the first output file is published
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if (os.path.isdir(interrupted)
                    and any(name.startswith("output_")
                            for name in os.listdir(interrupted))):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        assert proc.poll() is None, (
            "run finished before it could be interrupted: "
            + proc.stderr.read().decode())
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == EXIT_RESUMABLE, stderr.decode()
        assert "draining" in stderr.decode()
        # partial tree: some outputs exist, summary does not
        partial = _read_tree(interrupted)
        assert 0 < len(partial) < 5
        assert "summary.txt" not in partial

        resumed = subprocess.run(
            CLI + ["--out", interrupted, "--resume"],
            env=_env(), capture_output=True, timeout=600)
        assert resumed.returncode == 0, resumed.stderr.decode()
        assert b"resumed:" in resumed.stdout

        journal_path = os.path.join(interrupted, STATE_DIRNAME,
                                    "journal.jsonl")
        with open(journal_path) as handle:
            events = [json.loads(line)["event"] for line in handle]
        assert events.count("skipped") >= 1

        clean = subprocess.run(CLI + ["--out", oracle], env=_env(),
                               capture_output=True, timeout=600)
        assert clean.returncode == 0, clean.stderr.decode()
        assert _read_tree(interrupted) == _read_tree(oracle)


class TestCliErrors:
    def test_unknown_domain_exits_1_with_e_bind(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.artifact", "--no-cache",
             "--out", str(tmp_path / "out"),
             "--configs", "word_ml:1024"],
            env=_env(), capture_output=True, timeout=120)
        assert proc.returncode == 1
        stderr = proc.stderr.decode()
        assert "[E-BIND]" in stderr
        assert "word_lm" in stderr  # did-you-mean
        assert "Traceback" not in stderr

    def test_debug_flag_shows_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.artifact", "--no-cache",
             "--out", str(tmp_path / "out"), "--debug",
             "--configs", "word_ml:1024"],
            env=_env(), capture_output=True, timeout=120)
        assert proc.returncode != 0
        assert b"Traceback" in proc.stderr
