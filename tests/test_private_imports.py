"""No fedssl module imports another fedssl module's private names, and no
script under scripts/ imports any.

A leading underscore marks a name as its module's own. A module that
imports one from another couples itself to a detail its owner may change
without notice; it should call the owner's public function instead. The
research scripts read the package's public records, as users do.
"""

import ast
from pathlib import Path

import fedssl

PACKAGE_DIR = Path(fedssl.__file__).resolve().parent
SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"


def _private_imports(path: Path) -> list[str]:
    """Each `from <fedssl module> import _name` in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "fedssl"
        found += [f"{path.name}:{node.lineno} imports {node.module}.{alias.name}"
                  for alias in node.names if internal and alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 5
    assert [hit for path in sources for hit in _private_imports(path)] == []


def test_no_script_imports_a_private_fedssl_name():
    scripts = sorted(SCRIPTS_DIR.glob("*.py"))
    assert len(scripts) >= 3
    assert [hit for path in scripts for hit in _private_imports(path)] == []


def test_the_guard_sees_a_private_import(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from .semisup import KlStats, _kl_rows\nfrom numpy import _NoValue\n",
                      encoding="utf-8")
    assert _private_imports(source) == ["probe.py:1 imports semisup._kl_rows"]
