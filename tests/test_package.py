"""Every name the package exports is reached by the package itself.

A name ``tactica/__init__.py`` imports must be read, as a Name or Attribute node, by
package code outside its own definition: a command runs it, or another entry point
does.  The library API that README names for calling from Python is the exception.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tactica"

# Library entry points that README documents and no command runs.
LIBRARY_API = {"replay_with_recorded_eps", "simulate_dialogue"}


def unused_exports(package: Path) -> list[str]:
    """Names ``package/__init__.py`` imports that no module of ``package`` reads outside
    the top-level definition that holds them."""
    init = ast.parse((package / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)     # a definition does not use itself
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return sorted(exported - used)


def test_every_exported_name_is_used_by_the_package():
    assert sorted(set(unused_exports(PACKAGE)) - LIBRARY_API) == []


def test_a_name_read_only_by_itself_or_a_docstring_is_unused(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .mod import Cls, called, documented, recursive\n")
    (tmp_path / "mod.py").write_text('''
def called():
    return 1


def recursive(n):
    return recursive(n - 1) if n else 0


def documented():
    """Unlike called(), nothing reads documented."""


class Cls:
    pass


def user(obj):
    return called() + obj.Cls
''')
    assert unused_exports(tmp_path) == ["documented", "recursive"]
