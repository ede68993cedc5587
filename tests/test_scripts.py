"""Smoke test of the documented experiment script."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_run_corpus_agrees_with_oracle(tmp_path):
    out = tmp_path / "corpus.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_corpus.py"),
         "--count", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(out.read_text())
    assert summary["count"] == 3 and summary["runs"] == 3 * 2 * 7
    assert summary["disagreements"] == []
