"""Every name the benchmark reads from the package still resolves.

``perfbench`` is read here as text, with ``ast``; it is neither imported nor
edited.  Its tracer wraps the ``<module>.<function>`` names of ``TRACED`` and
``BUILDERS`` in the ``boskraus`` module it names, and its workloads read
``bk.<name>`` off the package (``bk`` is ``boskraus``, with ``boskraus.cli``
imported).  A function that leaves the module the tracer looks it up in would
stop that layer's span or fail the pass; a package name that goes would fail
the workload.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import pytest

import boskraus
import boskraus.cli  # noqa: F401 (the benchmark's worker imports it, and the workloads read bk.cli)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def module_tuple(path: Path, name: str) -> tuple:
    """The literal tuple that ``path`` assigns to ``name`` at module level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{path.name} assigns no {name}")


def bk_reads(source: str) -> list[str]:
    """The dotted path of every attribute chain read off the name ``bk`` in ``source``."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "bk":
            paths.add(".".join(reversed(chain)))
    return sorted(paths)


TRACED = module_tuple(PERFBENCH / "tracer.py", "TRACED")
BUILDERS = module_tuple(PERFBENCH / "tracer.py", "BUILDERS")
WORKLOAD_READS = bk_reads((PERFBENCH / "workloads.py").read_text())


def test_scans_find_the_names():
    assert bk_reads("bk.cli.main(argv)\nbk.state_new('fock', 4)\nother.bk\nbk\n") == ["cli", "cli.main", "state_new"]
    assert "kraus.raw_completeness_defect" in TRACED
    assert "state_new" in WORKLOAD_READS


@pytest.mark.parametrize("name", sorted(set(TRACED + BUILDERS)))
def test_traced_name_is_a_function_of_its_module(name):
    module, attr = name.split(".")
    assert inspect.isfunction(getattr(importlib.import_module(f"boskraus.{module}"), attr, None))


@pytest.mark.parametrize("path", WORKLOAD_READS)
def test_workload_read_is_a_package_attribute(path):
    functools.reduce(getattr, path.split("."), boskraus)
