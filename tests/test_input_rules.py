"""One rule per kind of input value, and the refusals no other test reaches.

``errors`` holds the rules: a count (``_count``), a real number and a finite real
array of a fixed shape (``_real_array``, a 2x2 matrix by default).  No other module
tests an argument for ``numbers.Integral`` or ``bool``, and each class that takes a
2x2 matrix calls the array rule in its ``__post_init__``.  ``REFUSALS`` lists one call
for each ``raise`` of the package that no other test reaches, and the NaN inputs that
once passed every check, with the exception each raises.
"""

import ast
import os
from pathlib import Path

import numpy as np
import pytest

from boskraus import cli
from boskraus.analysis import classicality_check, product_family, zeno_kappa
from boskraus.channels import ChannelSpec, closed_form_action, parse_channel
from boskraus.errors import (
    DimMismatch,
    InvalidParameter,
    NotPositiveDefinite,
    Unclassifiable,
    UnsupportedFamily,
    _count,
    _real_array,
)
from boskraus.fock import (
    TruncatedOperator,
    _check_populations,
    coherent_amplitudes,
    fock_state,
    hermite_quadrature,
    q_function,
    random_mixed_state,
    thermal_state,
)
from boskraus.kraus import apply_matrix, build_continuous, build_discrete, rank_one_d
from boskraus.phasespace import GaussianMoments, Symplectic2, XYPair, classify, covariance_map, table2_compose
from boskraus.scheme import MixMatrix, generating_form, kraus_from_scheme, mix_matrix

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boskraus"
MATRIX_CLASSES = {"XYPair", "Symplectic2", "GaussianMoments", "MixMatrix"}
NAN = [[np.nan, 0.0], [0.0, 1.0]]


def c1(n_cut=16, ell_max=4):
    return build_discrete(ChannelSpec("C1", 0.7), ell_max, n_cut, defect_limit=2.0)


def quietly(call):
    """``call()`` with numpy's overflow and invalid-value warnings off."""
    def run():
        with np.errstate(over="ignore", invalid="ignore"):
            return call()
    return run


REFUSALS = {
    # zeno_kappa's modes
    "zeno-unknown-mode": (lambda: zeno_kappa("bogus", 2, 1), InvalidParameter),
    "zeno-amplifier-without-total": (lambda: zeno_kappa("amplifier", 2, 1), InvalidParameter),
    # product_family's three guards
    "product-dims-differ": (lambda: product_family(c1(8, 4), c1(16, 4), 1), DimMismatch),
    "product-continuous-factor": (lambda: product_family(*[build_continuous(ChannelSpec("A2"), 32, 8)] * 2, 1),
                                  UnsupportedFamily),
    "product-block-past-the-family": (lambda: product_family(c1(), c1(), 5), InvalidParameter),
    "classicality-no-diagnostic": (lambda: classicality_check(ChannelSpec("B2", noise_a=0.5), [thermal_state(2.0, 8)],
                                                              np.zeros(1)), UnsupportedFamily),
    # KrausFamily.dual's refusals
    "dual-unlabeled": (lambda: kraus_from_scheme(mix_matrix(ChannelSpec("D", 0.8)), 2, 4).dual(), UnsupportedFamily),
    "dual-no-rule": (lambda: build_discrete(ChannelSpec("A1"), 4, 8).dual(), UnsupportedFamily),
    # ChannelSpec and parse_channel
    "spec-unknown-family": (lambda: ChannelSpec("Z"), InvalidParameter),
    "spec-missing-kappa": (lambda: ChannelSpec("D"), InvalidParameter),
    "spec-C1-gain-above-1": (lambda: ChannelSpec("C1", 1.5), InvalidParameter),
    "parse-unknown-family": (lambda: parse_channel("Z:0.5"), InvalidParameter),
    "parse-missing-kappa": (lambda: parse_channel("C1"), UnsupportedFamily),
    # closed_form_action's two guards
    "closed-form-label-past-the-cutoff": (lambda: closed_form_action(ChannelSpec("C1", 0.5), 4, 0, 4),
                                          InvalidParameter),
    "closed-form-noisy": (lambda: closed_form_action(ChannelSpec("C1", 0.5, 1.0), 0, 0, 4), UnsupportedFamily),
    # fock
    "operator-not-square": (lambda: TruncatedOperator(np.zeros((2, 3))), InvalidParameter),
    "populations-non-finite-row": (lambda: _check_populations(np.array([[0.5, 0.5], [np.nan, 1.0]]), 0.0),
                                   InvalidParameter),
    "mixed-state-rank-past-the-cutoff": (lambda: random_mixed_state(0, 5, 4), InvalidParameter),
    "fock-level-past-the-cutoff": (lambda: fock_state(4, 4), InvalidParameter),
    "q-function-nan-point": (lambda: q_function(thermal_state(2.0, 8), np.nan), InvalidParameter),
    "amplitudes-infinite-point": (lambda: coherent_amplitudes(np.array([0.5, np.inf]), 8), InvalidParameter),
    # kraus
    "apply-matrix-dims-differ": (lambda: apply_matrix(c1(), np.eye(8)), DimMismatch),
    "rank-one-negative-kappa": (lambda: rank_one_d(-1.0, np.zeros(2), np.ones(2), 8), InvalidParameter),
    "rank-one-shapes-differ": (lambda: rank_one_d(0.8, np.zeros(3), np.ones(4), 8), InvalidParameter),
    "continuous-noisy-A2": (lambda: build_continuous(ChannelSpec("A2", noise_a=1.0), 32, 8), UnsupportedFamily),
    "continuous-banded-family": (lambda: build_continuous(ChannelSpec("C1", 0.5), 32, 8), UnsupportedFamily),
    "continuous-whole-float-nodes": (lambda: build_continuous(ChannelSpec("A2"), 64.0, 16), InvalidParameter),
    "quadrature-whole-float-nodes": (lambda: hermite_quadrature(64.0), InvalidParameter),
    # phasespace: the 2x2 rule, each class's domain check, classify
    "xy-shape": (lambda: XYPair(np.eye(3), np.eye(2)), InvalidParameter),
    "xy-complex": (lambda: XYPair(np.eye(2), np.eye(2) + 0j), InvalidParameter),
    "xy-ragged": (lambda: XYPair([[1.0, 0.0], [0.0]], np.eye(2)), InvalidParameter),
    "xy-Y-not-symmetric": (lambda: XYPair(np.eye(2), [[1.0, 0.5], [0.0, 1.0]]), InvalidParameter),
    "xy-Y-not-psd": (lambda: XYPair(np.eye(2), -np.eye(2)), InvalidParameter),
    "symplectic-shape": (lambda: Symplectic2(np.eye(3)), InvalidParameter),
    "symplectic-nan": (lambda: Symplectic2(NAN), InvalidParameter),
    "moments-covariance-not-symmetric": (lambda: GaussianMoments(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]),
                                         InvalidParameter),
    "moments-below-the-uncertainty-bound": (lambda: GaussianMoments(np.zeros(2), 0.5 * np.eye(2)), InvalidParameter),
    "moments-nan-mean": (lambda: GaussianMoments([np.nan, 0.0], np.eye(2)), InvalidParameter),
    "moments-mean-of-three": (lambda: GaussianMoments(np.zeros(3), np.eye(2)), InvalidParameter),
    "covariance-map-nan-mean": (lambda: covariance_map(XYPair(np.eye(2), np.zeros((2, 2))),
                                                       GaussianMoments([np.nan, 0.0], np.eye(2))), InvalidParameter),
    "compose-noise-past-the-float-range": (lambda: table2_compose(ChannelSpec("C1", 0.5), ChannelSpec("C1", 0.5),
                                                                  1e-310), InvalidParameter),
    # sqrt(det Y) 0.7467 sits below C1(0.5)'s 0.75 while the CP defect, about -5e-9, passes
    "classify-below-the-quantum-limit": (lambda: classify(XYPair(0.5 * np.eye(2), np.diag([1e6, 0.5575e-6]))),
                                         Unclassifiable),
    # scheme
    "mixer-for-A1": (lambda: mix_matrix(ChannelSpec("A1")), UnsupportedFamily),
    "mixer-shape": (lambda: MixMatrix(np.eye(3)), InvalidParameter),
    "mixer-singular": (lambda: MixMatrix(np.zeros((2, 2))), InvalidParameter),
    "mixer-nan": (lambda: MixMatrix(NAN), InvalidParameter),
    "scheme-nan-mixer": (lambda: kraus_from_scheme(MixMatrix(NAN), 2, 4), InvalidParameter),
    # 1 + M^T M overflows to a matrix with no eigenvalues; the quadrature cannot resolve a 100:1 stretch
    "generating-form-overflow": (quietly(lambda: generating_form(MixMatrix(np.diag([1e200, 1e-200])))),
                                 NotPositiveDefinite),
    "generating-form-self-check": (lambda: generating_form(MixMatrix(np.diag([100.0, 0.01]))), NotPositiveDefinite),
    # cli
    "compose-verify-out-of-range": (lambda: cli.cmd_compose(cli.build_parser().parse_args(
        ["compose", "C1:0.5", "C1:0.5", "--lambda", "1e200", "--verify"])), InvalidParameter),
}


@pytest.mark.parametrize("call,error", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error):
    with pytest.raises(error):
        call()


def test_the_identity_is_its_own_dual():
    family = build_discrete(ChannelSpec("I"), 0, 8)
    assert family.dual() is family


def test_a_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "out.json"), "{}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value,least", [(True, 0), (2.0, 0), (np.float64(3.0), 0), ("3", 0), (None, 0), (-1, 0),
                                         (1, 2), (np.nan, 0)])
def test_count_rule_refuses(value, least):
    with pytest.raises(InvalidParameter, match=f"^n must be an integer of at least {least}, got "):
        _count(value, "n", least)


@pytest.mark.parametrize("value", [0, 3, np.int64(3), np.uint8(3)])
def test_count_rule_takes_integers(value):
    assert _count(value, "n") == value and type(_count(value, "n")) is int


@pytest.mark.parametrize("value,shape", [(NAN, (2, 2)), ([[np.inf, 0], [0, 1]], (2, 2)), (np.eye(2) + 0j, (2, 2)),
                                         (np.eye(2, dtype=bool), (2, 2)), ([0.0, np.nan], (2,)), ([0.0, 1.0], (2, 2)),
                                         (np.zeros((2, 1)), (2,)), ("ab", (2,)), ([[1.0], [1.0, 2.0]], (2, 2))])
def test_array_rule_refuses(value, shape):
    with pytest.raises(InvalidParameter, match=rf"^m must be a finite real array of shape \({shape[0]},"):
        _real_array(value, "m", shape)


def test_array_rule_keeps_a_float_array_and_converts_integers():
    m = np.eye(2)
    assert _real_array(m, "m") is m
    assert _real_array([[1, 0], [0, 1]], "m").dtype == np.float64


def argument_type_tests(source: str) -> list[str]:
    """Each ``isinstance`` test in ``source`` against ``numbers.Integral`` (or ``Integral``) or ``bool``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
            names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.args[1])}
            found += [f"line {node.lineno}: {name}" for name in sorted(names & {"Integral", "bool"})]
    return found


def matrix_rule_calls(source: str) -> dict[str, bool]:
    """For each class of ``MATRIX_CLASSES`` in ``source``, whether its ``__post_init__`` calls ``_real_array``."""
    calls = {}
    for cls in (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef) and n.name in MATRIX_CLASSES):
        post = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"]
        calls[cls.name] = any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_real_array"
                              for f in post for n in ast.walk(f))
    return calls


def test_scans_find_what_they_look_for():
    source = ("import numbers\n"
              "def f(x):\n    return isinstance(x, numbers.Integral) and not isinstance(x, bool)\n"
              "def g(x):\n    return isinstance(x, (float, Integral))\n"
              "class XYPair:\n    def __post_init__(self):\n        self.x = _real_array(self.x, 'X')\n"
              "class MixMatrix:\n    def __post_init__(self):\n        self.m = np.asarray(self.m)\n"
              "    def other(self):\n        return _real_array(self.m, 'm')\n")
    assert sorted(argument_type_tests(source)) == ["line 3: Integral", "line 3: bool", "line 5: Integral"]
    assert matrix_rule_calls(source) == {"XYPair": True, "MixMatrix": False}


def test_only_errors_tests_an_argument_for_an_integer_or_bool():
    found = {path.name: argument_type_tests(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "errors.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert argument_type_tests((PACKAGE / "errors.py").read_text())  # the rules themselves


def test_each_matrix_class_checks_its_input_by_the_array_rule():
    calls = {}
    for path in sorted(PACKAGE.glob("*.py")):
        calls.update(matrix_rule_calls(path.read_text()))
    assert calls == dict.fromkeys(MATRIX_CLASSES, True)
