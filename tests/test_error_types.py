"""Every exception class of ``boskraus.errors`` is raised somewhere in ``src/``.

An ``ast`` scan of the package: an error type whose last ``raise`` is gone
promises callers a failure that cannot happen, so it is deleted with its
raiser.  A raise is matched by the raised name (``raise E(...)``, ``raise E``
or ``raise errors.E(...)``).  ``BoskrausError`` is the base class callers
catch; nothing raises it directly.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boskraus"
BASE = "BoskrausError"


def _error_classes() -> list[str]:
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def _raised_names() -> set[str]:
    names = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            names.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return names


def test_scan_finds_the_error_classes_and_their_raises():
    classes = _error_classes()
    assert BASE in classes and "InvalidParameter" in classes
    assert "InvalidParameter" in _raised_names()


def test_every_error_class_is_raised():
    raised = _raised_names()
    unraised = [name for name in _error_classes() if name != BASE and name not in raised]
    assert unraised == [], "error classes that nothing in src/ raises: " + ", ".join(unraised)
