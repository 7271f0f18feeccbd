"""Every storage kind answers the same readers, and only ``families`` looks at the storage.

``KINDS`` lists one family of every way the package builds one; a new storage
kind is checked by adding an entry.
"""

import ast
import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from references import position_kraus, read_record

from boskraus.analysis import product_family, simultaneous_diagonality
from boskraus.channels import ChannelSpec
from boskraus.errors import BoskrausError, InvalidParameter
from boskraus.families import KrausFamily, ProductFamily
from boskraus.fock import coherent_disc_grid, random_mixed_state
from boskraus.kraus import apply_matrix, build_continuous, build_discrete, completeness_defect, rank_one_d
from boskraus.scheme import kraus_from_scheme, mix_matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boskraus"
STORAGE_ATTRIBUTES = {"coeffs", "band", "origin", "_ops", "_output_table", "_weights", "kets", "bra_rows", "scales",
                      "resolution", "points", "point_scales", "cutoff", "quadrature_defect", "_defect_at_build"}
INDEX_TYPES = {"DiscreteIndex", "QuadratureIndex"}
TAGS = {"origin", "family", "discrete"} | INDEX_TYPES  # what a defect rule must not be picked from
N = 16

KINDS = {
    "D": lambda: build_discrete(ChannelSpec("D", 0.8), 40, N),
    "C1": lambda: build_discrete(ChannelSpec("C1", 0.7), N - 1, N),
    "C2": lambda: build_discrete(ChannelSpec("C2", 1.3), 80, N),
    "A1": lambda: build_discrete(ChannelSpec("A1"), N - 1, N),
    "I": lambda: build_discrete(ChannelSpec("I"), 0, N),
    "A2": lambda: build_continuous(ChannelSpec("A2"), 40, N),
    "B1": lambda: build_continuous(ChannelSpec("B1", noise_a=0.5), 40, N),
    "B1-zero-noise": lambda: build_continuous(ChannelSpec("B1"), 40, N),
    "rank-one": lambda: rank_one_d(0.8, *coherent_disc_grid(6.0, 8, 8), N, probe_check=False),
    "scheme": lambda: kraus_from_scheme(mix_matrix(ChannelSpec("D", 0.8)), 10, N),
    "scheme-position-A2": lambda: position_kraus(mix_matrix(ChannelSpec("A2")), 40, N),
    "scheme-position-B1": lambda: position_kraus(mix_matrix(ChannelSpec("B1", noise_a=1.0)), 40, N),
    "product": lambda: product_family(build_discrete(ChannelSpec("C2", 1.3), 80, N),
                                      build_discrete(ChannelSpec("C1", 0.7), N - 1, N), 3),
}


def storage_reads(source: str) -> list[str]:
    """Each read of a storage attribute and each ``isinstance`` test on an index type in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE_ATTRIBUTES:
            found.append(f"line {node.lineno}: .{node.attr}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            found += [f"line {node.lineno}: isinstance(..., {name})" for name in sorted(names & INDEX_TYPES)]
    return found


def test_scan_finds_storage_reads():
    source = "f.coeffs\nf._ops is None\nisinstance(f.index, (kraus.QuadratureIndex, int))\nf(origin='scheme')\n"
    assert sorted(storage_reads(source)) == ["line 1: .coeffs", "line 2: ._ops",
                                             "line 3: isinstance(..., QuadratureIndex)"]


def test_only_families_looks_at_the_storage():
    reads = {path.name: storage_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "families.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def test_families_imports_nothing_from_kraus():
    imports = [node for node in ast.walk(ast.parse((PACKAGE / "families.py").read_text()))
               if isinstance(node, ast.ImportFrom)]
    assert all(node.module != "kraus" and "kraus" not in {alias.name for alias in node.names} for node in imports)


def storage_kinds(source: str) -> list[ast.ClassDef]:
    """``KrausFamily`` and the classes of ``source`` that derive from it."""
    return [node for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
            and (node.name == "KrausFamily" or any(getattr(base, "id", None) == "KrausFamily" for base in node.bases))]


def rule_picks(source: str) -> list[str]:
    """Each branch in a storage kind's ``__init__``, and each read of ``origin``, ``.family`` or an index
    type in its ``defect``: the places a defect rule could be picked from tags."""
    found = []
    for kind in storage_kinds(source):
        for method in (f for f in kind.body if isinstance(f, ast.FunctionDef)):
            for node in ast.walk(method):
                if method.name == "__init__" and isinstance(node, (ast.If, ast.IfExp)):
                    found.append(f"{kind.name}.__init__ line {node.lineno}: branch")
                if method.name == "defect" and (getattr(node, "attr", None) in TAGS or getattr(node, "id", None) in TAGS):
                    found.append(f"{kind.name}.defect line {node.lineno}: {getattr(node, 'attr', None) or node.id}")
    return found


def test_scan_finds_rule_picks():
    source = ("class KrausFamily:\n"
              "    def __init__(self, origin):\n        self.rule = 1 if origin else 2\n"
              "    def defect(self, block):\n        return self.spec.family\n"
              "class Kind(KrausFamily):\n"
              "    def __init__(self):\n        if True:\n            pass\n"
              "    def defect(self, block):\n        return isinstance(self.index, QuadratureIndex) or self.origin\n"
              "class Other:\n    def __init__(self):\n        if True:\n            pass\n")
    assert sorted(rule_picks(source)) == ["Kind.__init__ line 8: branch", "Kind.defect line 11: QuadratureIndex",
                                          "Kind.defect line 11: origin", "KrausFamily.__init__ line 3: branch",
                                          "KrausFamily.defect line 5: family"]


def test_every_kind_owns_its_defect_rule():
    # no storage kind's constructor branches, and no defect is read off the origin, family or index type
    source = (PACKAGE / "families.py").read_text()
    assert len(storage_kinds(source)) == 5
    assert rule_picks(source) == []


def origin_reads(source: str) -> list[str]:
    """Each read of ``origin`` in a function of ``source`` but ``to_json_dict`` and ``_dual``, save an
    ``__init__`` storing it as ``self.origin`` or handing it to ``super().__init__`` as it is."""
    found = []
    for function in (f for f in ast.walk(ast.parse(source)) if isinstance(f, ast.FunctionDef)):
        if function.name in ("to_json_dict", "_dual"):
            continue
        handed = set()
        for node in ast.walk(function) if function.name == "__init__" else ():
            if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["self.origin"]:
                handed.add(id(node.value))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "super().__init__":
                handed |= {id(arg) for arg in node.args} | {id(kw.value) for kw in node.keywords}
        for node in ast.walk(function):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name == "origin" and isinstance(node.ctx, ast.Load) and id(node) not in handed:
                found.append(f"{function.name} line {node.lineno}")
    return found


def test_scan_finds_origin_reads():
    source = ("class K:\n"
              "    def __init__(self, origin):\n        self.origin = origin\n"
              "        self.own = origin == 'product'\n        super().__init__(origin=origin)\n"
              "    def defect(self):\n        return self.origin\n"
              "    def _dual(self):\n        return self.origin\n"
              "    def to_json_dict(self):\n        return self.origin\n")
    assert origin_reads(source) == ["__init__ line 4", "defect line 7"]


def test_no_reader_but_the_json_writer_reads_the_origin():
    # a dual hands it on; no constructor derives a flag from it
    source = (PACKAGE / "families.py").read_text()
    assert origin_reads(source) == []
    assert "_defect_at_build" not in source and "_own_products" not in source


def test_a_dual_keeps_its_kind_and_origin():
    c1 = build_discrete(ChannelSpec("C1", 0.7), N - 1, N)
    product = product_family(c1, c1, 3)
    back = product.dual()
    assert (type(back), back.origin) == (ProductFamily, "product")
    gram, _ = back.product_gram(2)  # the Gram matrix of its own first four operators, products already
    assert np.array_equal(gram, np.einsum("aij,bij->ab", back.ops[:4].conj(), back.ops[:4]))


def dense_action(ops: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``sum_l W_l M W_l^dag`` as two GEMMs over the flattened stack."""
    n_ops, n, _ = ops.shape
    left = np.concatenate(list(ops @ mat), axis=1)  # [W_0 M, W_1 M, ...]
    return left @ ops.conj().transpose(0, 2, 1).reshape(n_ops * n, n)


def ordered(family: KrausFamily, count: int) -> np.ndarray:
    """The first ``count`` operators: by label, or center-out in the modulus of a quadrature node."""
    nodes = getattr(family.index, "nodes", None)
    order = np.arange(len(family)) if nodes is None else np.argsort(np.abs(nodes))
    return family.ops[order[:count]]


def outcome(call):
    try:
        return call()
    except BoskrausError as exc:
        return type(exc), str(exc)


def test_only_the_base_class_derives_the_stack_and_every_kind_makes_operators():
    kinds = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
             for node in storage_kinds((PACKAGE / "families.py").read_text())}
    assert len(kinds) == 5
    assert {name for name, methods in kinds.items() if methods & {"ops", "operators", "__len__"}} == {"KrausFamily"}
    # a kind with storage of its own makes its operators; one without (ProductFamily) keeps the dense stack's
    assert all("_operators_at" in methods for methods in kinds.values() if "__init__" in methods)


@pytest.mark.parametrize("kind", ["D", "C1", "C2", "A1", "I", "A2", "B1", "B1-zero-noise", "rank-one"])
def test_no_reader_but_ops_builds_the_stack(kind):
    family = KINDS[kind]()
    mat = random_mixed_state(5, 4, N).mat
    for read in (lambda: apply_matrix(family, mat), lambda: family.defect(None), lambda: family.operators(3),
                 lambda: family.product_gram(2), lambda: simultaneous_diagonality(family), family.to_json_dict):
        outcome(read)
        assert family._ops is None
    assert family.ops is family.ops


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_answers_the_readers_as_its_stack_defines(kind):
    family = KINDS[kind]()
    mat = random_mixed_state(5, 4, N).mat
    assert np.max(np.abs(apply_matrix(family, mat) - dense_action(family.ops, mat))) <= 1e-13
    for count in (1, 3, len(family)):
        assert np.array_equal(family.operators(count), ordered(family, count))
    for block in (None, 1, N):
        assert outcome(lambda: family.defect(block)) == outcome(lambda: completeness_defect(family, block))


@pytest.mark.parametrize("kind", KINDS)
def test_json_roundtrip_of_every_kind(kind):
    family = KINDS[kind]()
    data = family.to_json_dict()
    back = read_record(json.loads(json.dumps(data)))
    assert back.to_json_dict() == data
    assert np.array_equal(back.ops, family.ops)
    assert (back.spec, back.origin, back.completeness_defect) == (family.spec, family.origin,
                                                                  family.completeness_defect)


VALID = build_discrete(ChannelSpec("C1", 0.7), 3, 4, defect_limit=2.0).to_json_dict()
VALID_QUADRATURE = build_continuous(ChannelSpec("A2"), 32, 4).to_json_dict()


def malformed(edit) -> dict:
    """A copy of ``VALID`` changed in place by ``edit``."""
    data = copy.deepcopy(VALID)
    edit(data)
    return data


@pytest.mark.parametrize("data", [
    malformed(lambda d: d.update(dim=0)),
    malformed(lambda d: d.update(dim=-4)),
    malformed(lambda d: d.update(dim=4.5)),
    malformed(lambda d: d.update(dim=True)),
], ids=["zero", "negative", "fraction", "bool"])
def test_json_dim_must_be_a_positive_integer(data):
    with pytest.raises(InvalidParameter, match="dim"):
        read_record(data)


@pytest.mark.parametrize("key,level", [("rows", -1), ("rows", 4), ("cols", 4), ("cols", 1.5)],
                         ids=["negative-row", "row-past-dim", "col-past-dim", "fractional-col"])
def test_json_levels_must_lie_inside_the_space(key, level):
    with pytest.raises(InvalidParameter, match="levels"):
        read_record(malformed(lambda d: d["operators"][1][key].__setitem__(0, level)))


@pytest.mark.parametrize("key", ["rows", "cols", "re", "im"])
def test_json_entry_lists_must_match_in_length(key):
    # a one-element list would otherwise be broadcast over every entry
    data = malformed(lambda d: d["operators"][0].update({key: d["operators"][0][key][:1]}))
    with pytest.raises(InvalidParameter, match="differ in length"):
        read_record(data)


@pytest.mark.parametrize("key,value", [("re", float("nan")), ("im", float("inf"))])
def test_json_values_must_be_finite(key, value):
    with pytest.raises(InvalidParameter, match="non-finite"):
        read_record(malformed(lambda d: d["operators"][0][key].__setitem__(0, value)))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_json_defect_must_be_finite(value):
    with pytest.raises(InvalidParameter, match="defect"):
        read_record(malformed(lambda d: d.update(completeness_defect=value)))


@pytest.mark.parametrize("ell_max", [40, 2, 2.0])
def test_json_discrete_index_counts_the_operators(ell_max):
    with pytest.raises(InvalidParameter, match="ell_max"):
        read_record(malformed(lambda d: d["index_kind"].update(ell_max=ell_max)))


@pytest.mark.parametrize("edit", [
    lambda idx: idx.update(nodes=idx["nodes"][:-1]),
    lambda idx: idx.update(weights=idx["weights"] + [1.0]),
    lambda idx: idx.update(nodes=idx["nodes"][:-1], weights=idx["weights"][:-1]),
], ids=["nodes", "weights", "both"])
def test_json_quadrature_counts_agree(edit):
    data = copy.deepcopy(VALID_QUADRATURE)
    edit(data["index_kind"])
    with pytest.raises(InvalidParameter, match="differ"):
        read_record(data)


def test_json_origin_must_be_known():
    with pytest.raises(InvalidParameter, match="origin"):
        read_record(malformed(lambda d: d.update(origin="handmade")))


def test_json_valid_record_loads():
    assert read_record(copy.deepcopy(VALID)).to_json_dict() == VALID


@pytest.mark.parametrize("key,value", [("kappa", "0.7"), ("kappa", True), ("kappa", "abc"), ("kappa", [0.7]),
                                       ("a", "0"), ("a", False)],
                         ids=["string-kappa", "bool-kappa", "word-kappa", "list-kappa", "string-noise", "bool-noise"])
def test_json_spec_numbers_must_be_real_numbers(key, value):
    name = "kappa" if key == "kappa" else "noise_a"
    with pytest.raises(InvalidParameter, match=f"^{name} must be a real number, got {re.escape(repr(value))}$"):
        read_record(malformed(lambda d: d["spec"].update({key: value})))


@pytest.mark.parametrize("kappa", [0.7, np.float64(0.7), np.float32(0.5), 1, np.int64(1)],
                         ids=["float", "numpy-float64", "numpy-float32", "int", "numpy-int"])
def test_spec_takes_any_real_number(kappa):
    spec = ChannelSpec("C1", kappa, np.float64(0.25))
    assert type(spec.kappa) is float and spec.kappa == float(kappa)
    assert type(spec.noise_a) is float and spec.noise_a == 0.25
