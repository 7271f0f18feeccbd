"""Reference code that only the tests use: a reader of the JSON record ``KrausFamily.to_json_dict``
writes, the scheme's continuous-index oracle for the A2 mixer and the unit shear, and the states,
characteristic functions and scheme matrix elements the tests compare the package with.

``read_record`` checks the writer: it reads a record back as the dense stack it lists, a
``StoredDefectFamily`` with the defect the record stores (so it answers that defect on the default block,
0 on the empty block, and raises on any other).  ``position_kraus`` derives the A2 and B1 operators from the position integral
of the two-mode scheme, with no closed displacement form.  ``phase_averaged_state`` is a diagonal
state built by ``DensityMatrix._diagonal``, ``char_ordered`` the ordered characteristic functions
from ``char_weyl``, and ``matrix_element`` one two-mode element of the scheme's Taylor box.
"""

import math

import numpy as np

from boskraus import fock
from boskraus.channels import ChannelSpec
from boskraus.errors import BoskrausError, InvalidParameter, OrderTooLarge, _count
from boskraus.families import DiscreteIndex, KrausFamily, QuadratureIndex, _check_stack_bytes, _identity_defect
from boskraus.fock import DensityMatrix, char_weyl, hermite_psi_table, hermite_quadrature
from boskraus.scheme import A2_MIX, B1_MIX, MAX_ORDER, GeneratingForm, MixMatrix, _taylor_box
from boskraus.special import log_factorial

ORIGINS = ("closed-form", "product", "rank-one", "scheme")


class UnsupportedShape(BoskrausError):
    """A position-mixing matrix has a shape outside the cases ``position_kraus`` handles."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidParameter(message)


class StoredDefectFamily(KrausFamily):
    """A dense stack that answers the defect its producer measured on rows the stack no longer holds: a
    JSON record's, or ``position_kraus``'s completeness integral.  Without one it measures its stack, as
    its dual does."""

    def __init__(self, spec, ops, index, origin="closed-form", completeness_defect=None):
        super().__init__(spec, ops, index, origin)
        self._defect_at_build = completeness_defect

    def defect(self, block):
        if self._defect_at_build is None:
            return super().defect(block)
        if block is None or block == self.dim // 2:
            return self._defect_at_build
        if block == 0:
            return 0.0
        raise InvalidParameter(f"the rows past the cutoff this family's defect was measured with are gone; "
                               f"only the block {self.dim // 2} is known")


def read_record(data: dict) -> StoredDefectFamily:
    """The dense family of a :meth:`KrausFamily.to_json_dict` record; malformed input raises ``InvalidParameter``."""
    dim, records, idx = data["dim"], data["operators"], data["index_kind"]
    _count(dim, "dim", 1)
    _check_stack_bytes(len(records), dim)
    ops = np.zeros((len(records), dim, dim), dtype=np.complex128)
    for k, rec in enumerate(records):
        rows, cols, re, im = (np.asarray(rec[key], dtype=float) for key in ("rows", "cols", "re", "im"))
        _require(rows.ndim == 1 and rows.shape == cols.shape == re.shape == im.shape,
                 f"operator {k}: rows, cols, re and im differ in length")
        _require(np.all(np.isin(rows, np.arange(dim)) & np.isin(cols, np.arange(dim))),
                 f"operator {k}: rows and columns must be levels in 0..{dim - 1}")
        _require(np.all(np.isfinite([re, im])), f"operator {k} has a non-finite entry")
        ops[k][rows.astype(int), cols.astype(int)] = re + 1j * im
    if idx["kind"] == "discrete":
        ell_max = idx["ell_max"]
        _require(_count(ell_max, "ell_max") + 1 == len(ops),
                 f"discrete index ell_max={ell_max!r} does not count {len(ops)} operators")
        index = DiscreteIndex(int(ell_max))
    else:
        _require(idx["kind"] == "quadrature", f"unknown index kind {idx['kind']!r}")
        nodes, weights = np.asarray(idx["nodes"], dtype=float), np.asarray(idx["weights"], dtype=float)
        imag = np.asarray(idx.get("nodes_im", nodes * 0.0), dtype=float)
        _require(nodes.shape == imag.shape == weights.shape == (len(ops),),
                 f"{nodes.size} nodes, {weights.size} weights and {len(ops)} operators differ")
        _require(np.all(np.isfinite([nodes, imag, weights])), "quadrature nodes and weights must be finite")
        if "nodes_im" in idx:
            nodes = nodes.astype(np.complex128)
            nodes.imag = imag
        index = QuadratureIndex(nodes, weights)
    defect = float(data["completeness_defect"])
    _require(math.isfinite(defect), f"completeness defect must be finite, got {defect}")
    origin = data.get("origin", "closed-form")
    _require(origin in ORIGINS, f"unknown family origin {origin!r}; expected one of {ORIGINS}")
    spec = data["spec"]
    spec = None if spec is None else ChannelSpec(spec["family"], spec.get("kappa"), spec.get("a", 0.0))
    return StoredDefectFamily(spec, ops, index, origin, defect)


def _shape_matches(m: np.ndarray, ref: np.ndarray) -> bool:
    return bool(np.max(np.abs(m - ref)) < 1e-12)


def _overlap_table(n_cut: int, qs: np.ndarray, shifted_order: int | None = None) -> np.ndarray:
    """``g[i, m, n] = integral psi_m(x) psi_n(x - q_i) dx`` by exact quadrature.

    Centering at ``q/2`` makes the integrand a polynomial times
    ``exp(-t^2)``, so Gauss-Hermite with enough nodes is exact.
    """
    t, w = hermite_quadrature(n_cut + 2)
    n_hi = n_cut - 1 if shifted_order is None else shifted_order
    left = hermite_psi_table(n_cut - 1, t[:, None] + 0.5 * qs)
    right = hermite_psi_table(n_hi, t[:, None] - 0.5 * qs)
    return np.einsum("k,mki,nki->imn", w, left, right, optimize=True)


def position_kraus(mix: MixMatrix, node_count: int, n_cut: int) -> StoredDefectFamily:
    """Continuous-index Kraus operators for the two singular-position mixers, as a dense stack.

    For the A2 shape the ancilla position integral collapses to
    ``V_q[m, n] = g(m, 0, q) psi_n(q)``; for the unit shear it gives
    ``V_q[m, n] = psi_0(q) g(m, n, q)`` with ``g`` the shifted-wavefunction
    overlap evaluated by quadrature (no closed displacement form is used).
    The family is built with the defect of the completeness integral on the
    default block: the position resolution for A2, and for B1 the quadrature
    of the Gaussian weight, as the displacement factor is unitary.
    """
    m = mix.m
    _check_stack_bytes(node_count, n_cut)
    x, w = hermite_quadrature(node_count)
    if _shape_matches(m, A2_MIX):
        psi = hermite_psi_table(n_cut - 1, x)
        g = _overlap_table(n_cut, x, shifted_order=0)
        ops = np.sqrt(w)[:, None, None] * (g * psi.T[:, None, :])
        spec, defect = ChannelSpec("A2"), _identity_defect(np.einsum("i,ni,mi->nm", w, psi, psi), None)
    elif _shape_matches(m, B1_MIX):
        psi0 = np.pi ** (-0.25) * np.exp(-0.5 * x**2)
        ops = (np.sqrt(w) * psi0)[:, None, None] * _overlap_table(n_cut, x)
        spec, defect = ChannelSpec("B1", noise_a=1.0), float(abs(np.sum(w / np.sqrt(np.pi) * np.exp(-x**2)) - 1.0))
    else:
        raise UnsupportedShape("only the A2 mixer and the unit shear are supported")
    return StoredDefectFamily(spec, ops.astype(np.complex128), QuadratureIndex(x, w), "scheme", defect)


def phase_averaged_state(lam: float, n_cut: int) -> DensityMatrix:
    """Phase-averaged coherent state: Poissonian diagonal ``e^-lam lam^n / n!``, with a tail mass of at
    most ``DEFAULT_TAIL_TOL``.  The tail is read as ``fock.poisson_tail``, so a test that patches it
    there patches it here."""
    _count(n_cut, "n_cut")
    if lam < 0:
        raise InvalidParameter("Poisson parameter must be nonnegative")
    tail = fock.poisson_tail(lam, n_cut)
    fock._check_tail(tail, fock.DEFAULT_TAIL_TOL, f"phase_averaged({lam})")
    n = np.arange(n_cut)
    logp = -lam + n * np.log(lam) - log_factorial(n) if lam > 0 else np.where(n == 0, 0.0, -np.inf)
    return DensityMatrix._diagonal(np.exp(logp), tail)


def char_ordered(rho: DensityMatrix, xi: complex, order: str) -> complex:
    """Normal or antinormal ordered characteristic function.

    ``chi_N = chi_W exp(+|xi|^2/2)`` and ``chi_A = chi_W exp(-|xi|^2/2)``.
    """
    if order == "normal":
        return char_weyl(rho, xi) * np.exp(0.5 * abs(xi) ** 2)
    if order == "antinormal":
        return char_weyl(rho, xi) * np.exp(-0.5 * abs(xi) ** 2)
    raise InvalidParameter(f"order must be 'normal' or 'antinormal', got {order!r}")


def matrix_element(form: GeneratingForm, m1: int, m2: int, n1: int, n2: int) -> float:
    """Two-mode metaplectic matrix element ``<m1 m2|U|n1 n2>``."""
    for order in (m1, m2, n1, n2):
        if order < 0:
            raise InvalidParameter(f"orders must be nonnegative, got {order}")
        if order > MAX_ORDER:
            raise OrderTooLarge(f"order {order} exceeds the stable limit {MAX_ORDER}")
    if (n1 + 1) * (n2 + 1) * (m1 + 1) * (m2 + 1) > 20_000_000:
        raise OrderTooLarge("joint orders need an infeasibly large coefficient box")
    t = _taylor_box(form.q, (n1 + 1, n2 + 1, m1 + 1, m2 + 1))
    return float(form.prefactor * t[n1, n2, m1, m2])
