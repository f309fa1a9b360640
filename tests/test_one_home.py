"""Each shared name has one home: no fddilab module imports another's
private (``_``-prefixed) names. What two modules share is public."""

import ast
from pathlib import Path

import fddilab

SRC = Path(fddilab.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fddilab"):
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert [hit for path in sorted(SRC.glob("*.py")) for hit in _private_imports(path)] == []


def test_the_check_sees_a_private_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from .mac_sim import _us\nfrom fddilab.spm import _x, ok\n"
                      "from . import __version__\nfrom os import _exit\n")
    assert _private_imports(module) == ["mod.py:1 imports _us", "mod.py:2 imports _x"]
