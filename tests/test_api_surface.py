"""Every public function, method and class in `src/` has a caller in the
package or in `perfbench/`.

Uses are NAME tokens, so a name that only a docstring or a comment mentions
does not count, and `__init__.py` re-exports do not count either.  A name
whose only callers are tests belongs in `tests/oracles.py`, not in `src/`.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rennermonoids"

# Public names kept without a caller in the package, each with its reason.
ALLOWED: dict[str, str] = {}


def _public_definitions(path: Path) -> list[str]:
    """Module-level functions and classes, and the methods of those classes."""
    defs = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node.name)
        if isinstance(node, ast.ClassDef):
            defs += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
    return [name for name in defs if not name.startswith("_")]


def _name_tokens(paths) -> Counter:
    counts = Counter()
    for path in paths:
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        counts.update(t.string for t in tokens if t.type == tokenize.NAME)
    return counts


def test_every_public_name_in_src_has_a_caller():
    sources = sorted(PACKAGE.glob("*.py"))
    defined = Counter(name for path in sources for name in _public_definitions(path))
    users = [p for p in sources if p.name != "__init__.py"]
    uses = _name_tokens(users + sorted((ROOT / "perfbench").glob("*.py")))
    # Each definition contributes one NAME token of its own, after def or class.
    unused = sorted(name for name in defined if uses[name] <= defined[name])
    flagged = [name for name in unused if name not in ALLOWED]
    assert not flagged, f"public names with no caller in src/ or perfbench/: {flagged}"

