"""Every name the package exports, and every public member of its classes, is reached by
the package itself.

A name ``tactica/__init__.py`` imports must be read, as a Name or Attribute node, by
package code outside its own definition: a command runs it, or another entry point
does.  A public method or property of a top-level class must be read as an attribute by
package code outside its own body.  The library API that README names for calling from
Python is the exception.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tactica"

# Library entry points that README documents and no command runs.
LIBRARY_API = {"replay_with_recorded_eps", "simulate_dialogue"}
# Members that README's Python examples read and no command does.
LIBRARY_MEMBERS = {"CommentedRun.theta_values"}


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


def unread_members(package: Path) -> list[str]:
    """``Class.member`` for each public method or property of a top-level class of
    ``package`` that no module of ``package`` reads as an attribute outside its own body."""
    trees = [ast.parse(path.read_text()) for path in package.glob("*.py")]
    reads = [(node.attr, id(node)) for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    unread = []
    for cls in (top for tree in trees for top in tree.body if isinstance(top, ast.ClassDef)):
        for member in cls.body:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                own = {id(node) for node in ast.walk(member)}
                if not any(attr == member.name and node not in own for attr, node in reads):
                    unread.append(f"{cls.name}.{member.name}")
    return sorted(unread)


def test_every_public_member_is_read_by_the_package():
    assert sorted(set(unread_members(PACKAGE)) - LIBRARY_MEMBERS) == []


def test_a_member_read_only_by_itself_or_a_test_is_unread(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import Result\n")
    (tmp_path / "mod.py").write_text('''
class Result:
    def total(self):
        return self.total() if self.nested else 0

    @property
    def size(self):
        return 1

    @property
    def shown(self):
        return self.size

    def _private(self):
        return 0
''')
    (tmp_path / "use.py").write_text("def report(result):\n    return result.shown\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text("def test_total(r):\n    r.total()\n")
    assert unread_members(tmp_path) == ["Result.total"]
