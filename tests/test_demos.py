"""Smoke tests of the docs and sources: every demo script runs to
completion, README's module table names only what its modules hold, each
module reads every name it imports, and every top-level definition is used."""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
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


def test_modules_read_every_name_they_import():
    # No linter runs with the tests, so an import left behind when its last
    # use goes would stay unseen.
    for path in sorted((ROOT / "src" / "chaosgame").glob("*.py")):
        if path.name == "__init__.py":   # it imports to re-export
            continue
        tree = ast.parse(path.read_text())
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert imported <= read, (path.name, sorted(imported - read))


def _reads(tree) -> Counter:
    """How often each name is read in tree, bare or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                   or isinstance(node, ast.Attribute))


def test_every_top_level_definition_is_used():
    # Code that nothing uses is deleted: each top-level function and class
    # of src/ is read somewhere else in src/, used by a demo, or exported by
    # chaosgame/__init__.py.
    import chaosgame

    trees = {path.name: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "chaosgame").glob("*.py"))}
    src_reads = sum(map(_reads, trees.values()), Counter())
    demo_reads = sum((_reads(ast.parse(path.read_text())) for path in DEMOS), Counter())
    unused = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in chaosgame.__all__ and not demo_reads[node.name]
              and not (src_reads - _reads(node))[node.name]]
    assert unused == []
