"""Every public function, method and class in `src/` has a caller in the
package or in `perfbench/`, and every private one has one in the package.
Every public instance attribute that `src/` sets (`self.name = ...`) is
loaded somewhere in the package or in `perfbench/` too.

A method is used where its name is loaded as an attribute (`obj.name`); a
module-level function or class also where its name is loaded bare.  So a
name that only a docstring, a comment, a keyword argument or an assignment
target (a loop variable, say) spells does not count, and `__init__.py`
re-exports do not count either.  A name whose only callers are tests belongs
in `tests/oracles.py`, not in `src/`.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rennermonoids"

# Public names kept without a caller in the package, each with its reason.
ALLOWED: dict[str, str] = {}


def _public_definitions(path: Path):
    """Module-level functions and classes, and the methods of those classes,
    as (name, is_method) pairs, private names included."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, False
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, True) for m in node.body if isinstance(m, ast.FunctionDef))


def _loads(paths) -> tuple[Counter, Counter]:
    """Attribute loads (`obj.name`) and bare name loads, by name."""
    attrs, names = Counter(), Counter()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs[node.attr] += 1
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names[node.id] += 1
    return attrs, names


def test_every_public_name_in_src_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py"))
    users = [p for p in sources if p.name != "__init__.py"]
    attrs, names = _loads(users + sorted((ROOT / "perfbench").glob("*.py")))
    unused = {
        name
        for path in sources
        for name, is_method in _public_definitions(path)
        if not name.startswith("_") and not attrs[name] and (is_method or not names[name])
    }
    flagged = sorted(unused - ALLOWED.keys())
    assert not flagged, f"public names with no caller in src/ or perfbench/: {flagged}"


def _instance_attributes(path: Path):
    """Attribute names stored on ``self`` anywhere in the module."""
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr


def test_every_public_instance_attribute_in_src_is_read():
    sources = sorted(PACKAGE.glob("*.py"))
    users = [p for p in sources if p.name != "__init__.py"]
    attrs, _ = _loads(users + sorted((ROOT / "perfbench").glob("*.py")))
    unread = sorted(
        {
            name
            for path in sources
            for name in _instance_attributes(path)
            if not name.startswith("_") and not attrs[name]
        }
    )
    assert not unread, f"public instance attributes never read in src/ or perfbench/: {unread}"


def test_every_private_helper_in_src_has_a_load_in_src():
    """A private function, class or method is loaded somewhere in `src/`
    (a method as an attribute), so a helper that a change leaves without a
    caller is flagged too."""
    sources = sorted(PACKAGE.glob("*.py"))
    attrs, names = _loads(sources)
    unused = sorted(
        name
        for path in sources
        for name, is_method in _public_definitions(path)
        if name.startswith("_")
        and not name.startswith("__")
        and not (attrs[name] or (not is_method and names[name]))
    )
    assert not unused, f"private helpers with no load in src/: {unused}"
