"""Store-key invariants: keys are source digest + declared parameters.

Every result-store key is :func:`repro.exec.store.content_key` over a
task's own parameters, and ``content_key`` folds in the per-process
:func:`repro.exec.store.source_digest`.  These tests pin the three
properties that buys:

* an edit to any constant or formula misses the store (no stale
  replays), while an unedited rerun is all hits;
* keys are stable across fresh interpreters;
* no key builder builds or hashes a model graph.
"""

import os
import re
import shutil
import subprocess
import sys

import pytest

import repro
from repro.exec import store as store_module
from repro.exec import tasks
from repro.exec.store import content_key, source_digest
from repro.models import registry
from repro.reports import ALL_REPORTS
from repro.serve import service
from repro.serve.service import ENDPOINTS, AnalysisService

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))

#: one valid request body per serve endpoint
REQUESTS = {
    "sweep": {"domain": "char_lm"},
    "plan": {"domain": "speech"},
    "lint": {},
    "exhibit": {"name": "table3"},
}


def _copy_package(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(PACKAGE_DIR, src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _env(src, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    env["REPRO_HISTORY"] = str(tmp_path / "history.jsonl")
    return env


def _table1(src, tmp_path, store_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "table1", "--csv",
         "--metrics", "--cache-dir", str(store_dir)],
        env=_env(src, tmp_path), capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = {name: int(value) for name, value in re.findall(
        r"^exec\.store\.(hit|miss)\s+counter\s+(\d+)", proc.stderr,
        re.MULTILINE)}
    return proc.stdout, counts


def _word_lm_alpha(csv_text):
    lines = csv_text.splitlines()
    column = lines[0].split(",").index("alpha")
    row = next(line for line in lines if line.startswith("Word LMs"))
    return row.split(",")[column]


class TestStaleReplay:
    def test_edited_constant_misses_and_unedited_rerun_hits(
            self, tmp_path):
        src = _copy_package(tmp_path)
        store_dir = tmp_path / "store"

        cold, counts = _table1(src, tmp_path, store_dir)
        assert _word_lm_alpha(cold) == "13"
        assert counts == {"hit": 0, "miss": 1}

        warm, counts = _table1(src, tmp_path, store_dir)
        assert warm == cold
        assert counts == {"hit": 1, "miss": 0}

        domains = src / "repro" / "scaling" / "domains.py"
        text = domains.read_text()
        assert text.count("alpha=13.0") == 1
        domains.write_text(text.replace("alpha=13.0", "alpha=26.0"))

        edited, counts = _table1(src, tmp_path, store_dir)
        assert _word_lm_alpha(edited) == "26"
        assert counts == {"hit": 0, "miss": 1}


_KEYS_SCRIPT = """
from repro.exec.tasks import (artifact_config_key, report_exhibit_key,
                              sweep_shard_key)
from repro.serve.service import AnalysisService

service = AnalysisService()
print(report_exhibit_key("table1"))
print(artifact_config_key("speech", 2048))
print(sweep_shard_key("char_lm", [512.0, 768.0], 32, True))
print(service.canonical("sweep", {"domain": "word_lm"})[1])
"""


class TestKeyStability:
    def test_fresh_interpreters_agree(self, tmp_path):
        env = _env(os.path.dirname(PACKAGE_DIR), tmp_path)
        outputs = [
            subprocess.run([sys.executable, "-c", _KEYS_SCRIPT], env=env,
                           capture_output=True, text=True, timeout=120,
                           check=True).stdout
            for _ in range(2)
        ]
        assert outputs[0] == outputs[1]
        keys = outputs[0].split()
        assert len(set(keys)) == 4
        assert keys[0] == tasks.report_exhibit_key("table1")

    def test_keys_depend_only_on_their_arguments(self):
        assert (tasks.artifact_config_key("word_lm", 1024)
                == tasks.artifact_config_key("word_lm", 1024.0))
        assert (tasks.artifact_config_key("word_lm", 1024)
                != tasks.artifact_config_key("word_lm", 2048))
        assert (tasks.report_exhibit_key("table1")
                != tasks.report_exhibit_key("table2"))


class TestSourceDigest:
    def test_memoized_hex_digest(self):
        digest = source_digest()
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
        assert source_digest() is digest

    def test_every_key_folds_the_digest(self, monkeypatch):
        before = (tasks.report_exhibit_key("table1"),
                  AnalysisService().canonical("lint", {})[1])
        monkeypatch.setattr(store_module, "source_digest",
                            lambda: "edited-source")
        after = (tasks.report_exhibit_key("table1"),
                 AnalysisService().canonical("lint", {})[1])
        assert before[0] != after[0] and before[1] != after[1]

    def test_covers_sources_not_bytecode(self, tmp_path):
        src = _copy_package(tmp_path)
        script = ("from repro.exec.store import source_digest; "
                  "print(source_digest())")

        def digest():
            return subprocess.run(
                [sys.executable, "-B", "-c", script],
                env=_env(src, tmp_path), capture_output=True, text=True,
                timeout=120, check=True).stdout.strip()

        base = digest()
        cache = src / "repro" / "__pycache__"
        cache.mkdir(exist_ok=True)
        (cache / "stray.py").write_text("x = 1\n")
        assert digest() == base
        report = src / "repro" / "reports" / "tables.py"
        report.write_text(report.read_text() + "\n# edited\n")
        assert digest() != base


class TestNoGraphInKeys:
    """No key builder may build a model or hash graph structure."""

    @pytest.fixture
    def graphs_forbidden(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a key builder touched a model graph")

        monkeypatch.setattr(registry.DomainEntry, "build_model", refuse)
        # the memoized builder too (a warm process skips build_model),
        # under every name it was imported as
        original = registry.build_symbolic
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for name, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, name, refuse)
        from repro.graph import serialize

        monkeypatch.setattr(serialize, "save_graph", refuse)

    def test_task_keys(self, graphs_forbidden):
        keys = [tasks.report_exhibit_key(name) for name in ALL_REPORTS]
        keys += [tasks.artifact_config_key(domain, 1024)
                 for domain in registry.DOMAINS]
        keys += [tasks.sweep_shard_key(domain, [512.0], 16, True)
                 for domain in registry.DOMAINS]
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("endpoint", sorted(ENDPOINTS))
    def test_serve_canonical(self, graphs_forbidden, endpoint):
        clean, key = AnalysisService().canonical(endpoint,
                                                 REQUESTS[endpoint])
        assert key == content_key("serve", endpoint, clean)

    def test_every_endpoint_has_a_request(self):
        assert sorted(REQUESTS) == sorted(ENDPOINTS)


class TestRetiredGraphKeying:
    def test_graph_keying_helpers_are_gone(self):
        from repro.graph import serialize

        for module, name in [(tasks, "domain_hash"),
                             (tasks, "registry_fingerprint"),
                             (tasks, "_DOMAIN_HASHES"),
                             (serialize, "structural_hash"),
                             (serialize, "cost_fingerprint"),
                             (serialize, "_HASH_CACHE"),
                             (service, "_fingerprint_domain")]:
            assert not hasattr(module, name), name
        assert "fingerprint" not in service.Endpoint.__dataclass_fields__
