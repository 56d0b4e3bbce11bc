"""The demo scripts compile and name only what ppclab exports, and none is run; the README's Library quickstart runs."""

import ast
from pathlib import Path

import pytest

import ppclab

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def ppclab_names(tree):
    """Every name a demo takes from ppclab, as (line, name) pairs."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "ppclab"
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ppclab":
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            yield node.lineno, node.attr


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_compiles_and_resolves_its_ppclab_names(path):
    source = path.read_text(encoding="utf-8")
    compile(source, str(path), "exec")
    names = list(ppclab_names(ast.parse(source)))
    missing = [(line, name) for line, name in names if not hasattr(ppclab, name)]
    assert names and not missing, f"{path.name}: unknown ppclab names {missing}"


def test_the_readme_library_quickstart_runs(capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6 and lines[2] == "[]" and lines[3] == "True", lines
