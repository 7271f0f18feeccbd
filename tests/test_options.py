"""Every defaulted parameter of a public ``boskraus`` function is set by some call.

An ``ast`` scan of ``src/``, ``tests/`` and ``perfbench/``: a default that no
call overrides, by keyword or by position, is a setting nothing exercises, so
it belongs in the code as a constant.  Calls are matched by the called name
(``f(...)`` or ``module.f(...)``).  Positional arguments from a ``*args``
argument on, and ``**kwargs``, bind to parameters the scan cannot tell, so they
set none.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boskraus"
SCANNED = ("src", "tests", "perfbench")


def _defaulted_parameters(func: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter with a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i, positional[i].arg) for i in range(first, len(positional))]
    out += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _public_options() -> dict[str, list[tuple[int | None, str]]]:
    options = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                options[f"{path.stem}.{node.name}"] = _defaulted_parameters(node)
    return options


def _set_by_calls() -> dict[str, tuple[set[int], set[str]]]:
    """Called name -> (positions, keywords) some call of that name sets."""
    seen: dict[str, tuple[set[int], set[str]]] = {}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                positions, keywords = seen.setdefault(name, (set(), set()))
                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        break
                    positions.add(i)
                keywords.update(k.arg for k in node.keywords if k.arg is not None)
    return seen


def test_scan_finds_the_package_functions():
    options = _public_options()
    assert "kraus.build_discrete" in options
    assert (3, "defect_limit") in options["kraus.build_discrete"]


def test_every_default_is_set_by_some_call():
    calls = _set_by_calls()
    unset = []
    for qualname, params in _public_options().items():
        positions, keywords = calls.get(qualname.split(".")[1], (set(), set()))
        unset += [f"{qualname}({name})" for position, name in params
                  if name not in keywords and position not in positions]
    assert unset == [], "defaulted parameters that no call sets: " + ", ".join(unset)
