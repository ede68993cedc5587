"""Smoke tests of the documented experiment scripts."""

import json
import os
import subprocess
import sys
import time

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


def test_solver_digest_repeats_itself():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, os.path.join(ROOT, "scripts", "solver_digest.py"),
               "--slice", "corpus", "--slice", "colorcode", "--slice", "oracle",
               "--slice", "verify", "--count", "3"]
    start = time.perf_counter()
    outputs = [subprocess.run(command, env=env, capture_output=True, text=True,
                              timeout=60) for _ in range(2)]
    assert time.perf_counter() - start < 10
    for proc in outputs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = outputs[0].stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["corpus", "42"],
                                                    ["colorcode", "42"],
                                                    ["oracle", "22"],
                                                    ["verify", "91"]]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert outputs[1].stdout == outputs[0].stdout


def test_solver_digest_plan_sides_excluded():
    # leaving the plan sides out changes the dp slices' digests, and only
    # theirs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, os.path.join(ROOT, "scripts", "solver_digest.py"),
               "--slice", "corpus", "--slice", "oracle", "--count", "2"]
    outputs = [subprocess.run(command + extra, env=env, capture_output=True,
                              text=True, timeout=60)
               for extra in ([], ["--exclude-plan-sides"])]
    for proc in outputs:
        assert proc.returncode == 0, proc.stdout + proc.stderr
    full, bare = (proc.stdout.splitlines() for proc in outputs)
    assert [line.split()[:2] for line in bare] == [["corpus", "28"], ["oracle", "19"]]
    assert bare[0] != full[0] and bare[1] == full[1]
