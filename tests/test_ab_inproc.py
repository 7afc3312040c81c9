"""Smoke tests of tools/ab_inproc.py on the tiny game of test_harness.py."""

import json
import os
import shutil
import subprocess
import sys

from test_harness import tiny_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "ab_inproc.py")


def run_tool(tmp_path, b_root: str) -> subprocess.CompletedProcess:
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config().canonical_dict()))
    return subprocess.run(
        [sys.executable, TOOL, "--a", ROOT, "--b", b_root, "--config", str(cfg_path),
         "--seed", "1", "--pairs", "2"],
        capture_output=True, text=True, timeout=60)


def test_two_pairs_of_one_checkout(tmp_path):
    proc = run_tool(tmp_path, ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["A", "B"]
    assert all("over 2 warm games" in line for line in lines[:2])
    assert lines[2].startswith("B won ") and lines[2].endswith(" of 2 pairs")
    assert lines[3].startswith("median ratio B/A: ")


def test_other_bytes_fail_the_comparison(tmp_path):
    # B is a copy of this checkout whose model_stats.csv negates each eval
    # accuracy.
    b_root = tmp_path / "b"
    shutil.copytree(os.path.join(ROOT, "src"), b_root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    runner = b_root / "src" / "milab" / "harness" / "runner.py"
    text = runner.read_text()
    assert "repr(tr), repr(ev)" in text
    runner.write_text(text.replace("repr(tr), repr(ev)", "repr(tr), repr(-ev)"))
    proc = run_tool(tmp_path, str(b_root))
    assert proc.returncode == 1
    assert "B cold game: model_stats.csv differs from the first cold game" in proc.stderr


def test_a_skipped_lookup_fails_the_comparison(tmp_path):
    # B is a copy of this checkout whose stats lookups always miss: it writes
    # the same bytes, recomputing every target's accuracies.
    b_root = tmp_path / "b"
    shutil.copytree(os.path.join(ROOT, "src"), b_root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache = b_root / "src" / "milab" / "harness" / "cache.py"
    text = cache.read_text()
    lookup = 'return self._lookup("stats", key, _load_stats)'
    assert lookup in text
    cache.write_text(text.replace(lookup, lookup.replace("key,", 'key + "-never",')))
    proc = run_tool(tmp_path, str(b_root))
    assert proc.returncode == 1
    assert "differs" not in proc.stderr
    assert "B warm game 0: stats_cache_misses is " in proc.stderr
