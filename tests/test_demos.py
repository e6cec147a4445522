"""Smoke tests of the docs: every demo script runs to completion, and
README's module table names only what its modules hold."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_module_table_names_resolve():
    # A function deleted or moved must not leave a stale row.
    table = re.findall(r"^\| `(chaosgame\.\w+)` \| (.*) \|$",
                       (ROOT / "README.md").read_text(), re.M)
    assert len(table) == 5
    for module, contents in table:
        names = re.findall(r"`(\w+)`", contents)
        missing = [n for n in names if not hasattr(importlib.import_module(module), n)]
        assert names and not missing, (module, missing)
