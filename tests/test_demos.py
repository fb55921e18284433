"""Guard the demos: every name a demo imports from `gnls` or
`gnls.<module>` must exist, and every demo but the slow 03 runs to its end."""

import ast
import importlib
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def gnls_imports(path):
    """(module, name) for each `from gnls[.<module>] import name` in `path`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "gnls"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    imports = gnls_imports(path)
    assert imports, f"{path.name} imports nothing from gnls"
    missing = [
        f"{module}.{name}" for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{path.name} imports missing names: {missing}"


# demo 03 takes about 14 s, so only its imports are checked
@pytest.mark.parametrize(
    "path", [p for p in DEMOS if not p.name.startswith("03_")], ids=lambda p: p.name
)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
