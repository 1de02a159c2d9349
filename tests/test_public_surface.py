"""No public name without a caller outside the tests.

Every name in a tfsim module's ``__all__`` exists, and is read somewhere in ``src/``
outside its own definition, or in ``demos/`` or ``bench/``. What only a test reads is
not public: a test computes it from the primitive it would wrap.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "tfsim").glob("*.py"))
CALLERS = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

#: Public names that only tests read, each with the reason it stays.
ALLOWED = {
    "hafnian_perm_sum": "independent oracle: the literal sum over perfect matchings",
    "interferometer": "independent oracle: the state-level apply_fbs path that the batched "
    "sector signal of metrology's estimators is checked against",
    "__version__": "package metadata",
}

TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in CALLERS}


def is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def public_names(path):
    for node in TREES[path].body:
        if is_all(node):
            return ast.literal_eval(node.value)
    return None


def references(path, own=None):
    """Names ``path`` reads: loaded names, attributes, imported names and string constants
    equal to a name (bench/tracing.py looks its targets up by string). ``__all__`` and the
    top-level definition of ``own`` are skipped."""
    found = set()
    stack = [
        node for node in TREES[path].body
        if not is_all(node) and getattr(node, "name", None) != own
    ]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize(
    "path", [m for m in MODULES if public_names(m) is not None], ids=lambda path: path.stem
)
def test_every_public_name_has_a_caller_outside_the_tests(path):
    names = public_names(path)
    module = importlib.import_module("tfsim" if path.stem == "__init__" else f"tfsim.{path.stem}")
    assert [name for name in names if not hasattr(module, name)] == []
    unread = [
        name for name in names
        if name not in ALLOWED
        and not any(name in references(caller, name if caller == path else None)
                    for caller in CALLERS)
    ]
    assert unread == []


def test_every_allowed_name_is_public():
    public = {name for path in MODULES for name in public_names(path) or ()}
    assert set(ALLOWED) <= public
