"""Closed-form Kraus families for the canonical quantum-limited channels.

The discrete families are single-band matrices in the Fock basis:

* phase conjugation ``D(kappa)``::

      T_l = (1+k^2)^(-1/2) sum_n (1+k^2)^(-n/2) (1+k^-2)^(-(l-n)/2)
            sqrt(C(l,n)) |l-n><n|,        l = 0, 1, 2, ...

* attenuator ``C1(kappa)``::

      B_l = sum_m sqrt(C(m+l,l)) (1-k^2)^(l/2) k^m |m><m+l|

* amplifier ``C2(kappa)``::

      A_l = k^-1 sum_m sqrt(C(m+l,l)) (1-k^-2)^(l/2) k^-m |m+l><m|

``A1`` is ``C1(0)``.  The singular family ``A2`` and the single-quadrature
noise family ``B1(a)`` carry a continuous index and are discretized on
Gauss-Hermite nodes, with the square root of the quadrature weight
absorbed into each operator so that ``sum_i W_i^dag W_i`` approximates the
completeness integral.

A family is stored in one of two kinds, fixed by its class when it is built;
readers call its methods (see :class:`KrausFamily`) and never test the storage.
:class:`BandedFamily` (``D``, ``C1``, ``C2``, ``A1``, ``I``) holds a real table
``c`` of shape ``(ell_max + 1, N)`` over the whole band and its orientation,
which :func:`_placement` alone turns into positions: ``"anti"`` (D) puts
``c[l, n]`` at ``(l - n, n)``, ``"upper"`` (C1, A1, I) ``c[l, m]`` at
``(m, m + l)``, ``"lower"`` (C2) at ``(m + l, m)``; its readers read the table
and build the dense stack only when a caller asks for ``ops``.
:class:`KrausFamily` holds a dense stack (quadrature, scheme, product, rank-one
and JSON-loaded families) and reads it under rules its constructor picks from
how the stack was built.

All coefficient evaluation is done in log space (gammaln), never through
factorial ratios.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermite, gammaln, roots_hermite

from .channels import ChannelSpec
from .errors import (
    AllocationTooLarge,
    DefectTooLarge,
    DimMismatch,
    GridTooCoarse,
    InvalidParameter,
    UnsupportedFamily,
)
from .fock import (
    DensityMatrix,
    TruncatedOperator,
    _check_displacement_cutoff,
    _displacement_chunks,
    bandwidth,
    coherent_amplitudes,
    displacement_op,  # noqa: F401  a name of this module, kept for code that patches it
    hermite_psi_table,
    thermal_state,
    trace_distance,
)

DEFECT_HARD_LIMIT = 1e-4
SUGGEST_ELL_CAP = 100000
MAX_DENSE_BYTES = 1 << 30
RANK_ONE_PROBE_TOL = 1e-4  # trace distance a rank-one grid may miss the thermal probe by


@dataclass(frozen=True)
class DiscreteIndex:
    """Kraus label runs over l = 0 .. ell_max."""

    ell_max: int


@dataclass(frozen=True, eq=False)
class QuadratureIndex:
    """Continuous Kraus label discretized on quadrature nodes.

    ``weights`` are the full integration weights; sqrt(weight) is already
    absorbed into the stored operators.
    """

    nodes: np.ndarray
    weights: np.ndarray


ORIGINS = ("closed-form", "product", "rank-one", "scheme")
BANDED_FAMILIES = ("D", "C1", "C2", "A1", "I")


class KrausFamily:
    """An ordered Kraus family held as a dense stack ``ops`` of shape ``(n_ops, dim, dim)``, plus
    channel metadata.  Readers call :meth:`act`, :meth:`defect`, :meth:`operators`,
    :meth:`product_gram`, :meth:`diagonal_basis`, :meth:`dual` and :meth:`to_json_dict`, which
    read the stack under the rules the constructor picks from ``(spec, index, origin)``.
    :meth:`banded` gives a :class:`BandedFamily`, whose readers read its table instead.
    ``keeps_diagonal`` says whether :meth:`act` maps a diagonal matrix into a fresh ``np.zeros``
    matrix and writes only its diagonal, which ``apply`` relies on."""

    keeps_diagonal = False

    def __init__(self, spec: ChannelSpec | None, ops: np.ndarray | None,
                 index: DiscreteIndex | QuadratureIndex, completeness_defect: float,
                 origin: str = "closed-form"):
        _require(origin in ORIGINS, f"unknown family origin {origin!r}; expected one of {ORIGINS}")
        self.spec = spec
        self.index = index
        self.completeness_defect = completeness_defect
        self.origin = origin
        self._ops = ops
        self.discrete = isinstance(index, DiscreteIndex)
        family = None if spec is None else spec.family
        # a defect rule takes the family as an argument, so that no family refers to itself
        if not self.discrete and family == "A2":
            self._defect_rule = lambda fam, block: _position_resolution_defect(
                index.nodes, index.weights, fam.dim, block)
        elif not self.discrete and family == "B1":  # the displacement factor is exactly unitary
            a = max(spec.noise_a, 1e-300)
            self._defect_rule = lambda fam, block: float(abs(np.sum(
                index.weights / np.sqrt(np.pi * a) * np.exp(-index.nodes**2 / a)) - 1.0)) if spec.noise_a > 0 else 0.0
        elif origin == "rank-one" and family == "D":
            self._defect_rule = _coherent_defect
        elif origin == "scheme" and self.discrete:
            self._defect_rule = _stored_defect
        else:
            self._defect_rule = lambda fam, block: raw_completeness_defect(fam.ops, block)
        self._own_products = origin == "product"  # the operators are already products W_m W_n
        self._taller = not self.discrete and family == "B1" and spec.noise_a > 0

    @classmethod
    def banded(cls, spec: ChannelSpec, coeffs: np.ndarray, band: str,
               completeness_defect: float) -> "BandedFamily":
        return BandedFamily(spec, coeffs, band, completeness_defect)

    @property
    def ops(self) -> np.ndarray:
        return self._ops

    @property
    def dim(self) -> int:
        return self._ops.shape[1]

    def __len__(self) -> int:
        return len(self._ops)

    def act(self, mat: np.ndarray) -> np.ndarray:
        """``sum_l W_l M W_l^dag``: two flattened BLAS products instead of a per-operator loop."""
        n_ops, n, _ = self.ops.shape
        tmp = (self.ops.reshape(n_ops * n, n) @ mat).reshape(n_ops, n, n)
        left = np.ascontiguousarray(tmp.transpose(1, 0, 2)).reshape(n, n_ops * n)
        right = self.ops.conj().transpose(0, 2, 1).reshape(n_ops * n, n)
        return left @ right

    def defect(self, block: int | None) -> float:
        """Completeness defect on the protected block ``j < block`` (half the space for None)."""
        return self._defect_rule(self, block)

    def operators(self, count: int) -> np.ndarray:
        """The first ``count`` operators; quadrature nodes go center-out, so neighbors overlap."""
        if self.discrete:
            return self.ops[:count]
        return self.ops[np.argsort(np.abs(np.real(self.index.nodes)))[:count]]

    def product_gram(self, count: int) -> tuple[np.ndarray, float]:
        """Gram matrix ``"aij,bij->ab"`` of the products ``W_m^dag W_n`` (``m, n < count``, by
        batched ``matmul``) and the largest entry of its part carried by the top 8 rows and
        columns (0 for a continuous index)."""
        need = count * count if self._own_products else count
        if need > len(self):
            raise InvalidParameter(f"family has only {len(self)} operators, need {need}")
        if self._own_products:
            prods = self.ops[:need]
        else:
            ops = self.operators(count)
            prods = (np.swapaxes(ops.conj(), 1, 2)[:, None] @ ops[None]).reshape(count * count, self.dim, self.dim)
        gram = np.einsum("aij,bij->ab", prods.conj(), prods)
        if not self.discrete:
            return gram, 0.0
        top = np.concatenate([prods[:, -8:].reshape(len(prods), -1), prods[:, :-8, -8:].reshape(len(prods), -1)], axis=1)
        return gram, float(np.max(np.abs(top.conj() @ top.T)))

    def diagonal_basis(self, chunks, tol: float) -> tuple[bool, str]:
        """The verdict of ``analysis.simultaneous_diagonality``, each test to ``tol`` of the largest
        ``|W_l^dag W_l|`` entry.  A B1 stack is re-evaluated with extra rows by the displacement
        kernel ``chunks``, so that the unitary factor's product closes, and its first ``dim``
        columns kept."""
        ops = self.ops
        if self._taller:
            nodes = np.real(self.index.nodes)
            beta_max = float(np.max(np.abs(nodes))) / np.sqrt(2.0)
            n_ext = int(np.ceil(1.2 * (beta_max + np.sqrt(self.dim)) ** 2)) + 8
            scales = np.sqrt(np.abs(np.einsum("lij,lij->l", ops, ops.conj())))
            ops = np.empty((len(nodes), n_ext, self.dim), dtype=np.complex128)
            for part, stack in chunks(nodes / np.sqrt(2.0), n_ext):
                ops[part] = stack[:, :, :self.dim]
            norm = np.sqrt(np.abs(np.einsum("lij,lij->l", ops, ops.conj())))
            ops = ops * (scales / np.maximum(norm, 1e-300))[:, None, None]
        prods = np.swapaxes(ops.conj(), 1, 2) @ ops
        mags = np.abs(prods)
        scale = max(float(np.max(mags)), 1e-300)
        level = np.arange(self.dim)
        mags[:, level, level] = 0.0
        if np.max(mags) < tol * scale:
            return _fock_or_any(np.diagonal(prods, axis1=1, axis2=2).real, tol * scale)
        if self.discrete:
            return False, "none"
        # each product a multiple of the projector onto the position wavefunction at its node
        table = hermite_psi_table(self.dim - 1, np.real(self.index.nodes))
        for p, v in zip(prods, table.T.astype(complex)):
            coeff = float(np.real(v.conj() @ p @ v)) / max(float((v.conj() @ v).real), 1e-300)**2
            if np.max(np.abs(p - coeff * np.outer(v, v.conj()))) > 1e-8 * scale:
                return False, "none"
        return True, "position"

    def dual(self) -> "KrausFamily":
        """The dual trace-preserving family: the adjoints ``kappa W_l^dag`` of this family's own
        operators, never the dual's closed form.  ``kappa T_l(kappa)^dag = T_l(1/kappa)`` takes
        D(kappa) to D(1/kappa), ``kappa A_l(kappa)^dag = B_l(1/kappa)`` C2(kappa) to C1(1/kappa)
        and ``kappa B_l(kappa)^dag = A_l(1/kappa)`` back; the identity is its own dual."""
        if not self.discrete:
            raise UnsupportedFamily("continuous-index families have no discrete dual here")
        spec = self.spec
        if spec is None:
            raise UnsupportedFamily("cannot form the dual of an unlabeled family")
        if spec.family == "I":
            return self
        if spec.family not in ("D", "C1", "C2") or not spec.quantum_limited:
            raise UnsupportedFamily(f"no dual rule for {spec}")
        if spec.kappa == 0.0:
            raise InvalidParameter("dual of the kappa=0 attenuator is not defined")
        return self._dual(ChannelSpec({"D": "D", "C1": "C2", "C2": "C1"}[spec.family], 1.0 / spec.kappa))

    def _dual(self, new_spec: ChannelSpec) -> "KrausFamily":
        ops = self.spec.kappa * np.transpose(self.ops.conj(), (0, 2, 1))
        # built by the rules of this stack, with the defect of the dual stack itself
        return KrausFamily(new_spec, ops, self.index, raw_completeness_defect(ops), self.origin)

    def _square_operators(self):
        return self.ops

    def to_json_dict(self) -> dict:
        if self.discrete:
            index = {"kind": "discrete", "ell_max": self.index.ell_max}
        else:
            nodes = self.index.nodes
            index = {"kind": "quadrature", "nodes": nodes.real.tolist(), "weights": self.index.weights.tolist()}
            if np.iscomplexobj(nodes):  # rank-one families sit on complex nodes
                index["nodes_im"] = nodes.imag.tolist()
        operators = []
        for op in self._square_operators():
            rows, cols = np.nonzero(op)
            operators.append({"rows": rows.tolist(), "cols": cols.tolist(),
                              "re": op[rows, cols].real.tolist(), "im": op[rows, cols].imag.tolist()})
        return {
            "spec": self.spec.to_json_dict() if self.spec is not None else None,
            "index_kind": index,
            "dim": self.dim,
            "completeness_defect": float(self.completeness_defect),
            "origin": self.origin,
            "operators": operators,
        }

    @staticmethod
    def from_json_dict(data: dict) -> "KrausFamily":
        """The dense family of a :meth:`to_json_dict` record; malformed input raises ``InvalidParameter``."""
        dim, records, idx = data["dim"], data["operators"], data["index_kind"]
        _require(_is_count(dim) and dim >= 1, f"dim must be an integer of at least 1, got {dim!r}")
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
            _require(_is_count(ell_max) and ell_max + 1 == len(ops),
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
        spec = None if data["spec"] is None else ChannelSpec.from_json_dict(data["spec"])
        family = KrausFamily(spec, ops, index, defect, data.get("origin", "closed-form"))
        if family.origin == "closed-form" and family.discrete and spec is not None \
                and spec.family in BANDED_FAMILIES and spec.quantum_limited:
            family._defect_rule = _stored_defect  # a banded family's record keeps no rows past the cutoff
        return family


class BandedFamily(KrausFamily):
    """A single-band family held as its table ``coeffs`` of shape ``(ell_max + 1, dim)`` and its
    ``band`` orientation.  ``ops`` (above ``MAX_DENSE_BYTES``: ``AllocationTooLarge``) and the
    ``output_table`` that :meth:`act` reads are built on first read and cached."""

    keeps_diagonal = True

    def __init__(self, spec: ChannelSpec, coeffs: np.ndarray, band: str, completeness_defect: float):
        super().__init__(spec, None, DiscreteIndex(coeffs.shape[0] - 1), completeness_defect)
        self.coeffs = coeffs
        self.band = band
        self._output_table: np.ndarray | None = None

    @property
    def ops(self) -> np.ndarray:
        if self._ops is None:
            self._ops = _square_stack(self.coeffs, self.band)
        return self._ops

    @property
    def output_table(self) -> np.ndarray:
        """``T[s, t]``, the weight of ``|t><s|`` in the one operator joining source level ``s``
        to output level ``t`` (0 where none does): ``_square_stack(coeffs, band).sum(0).T``."""
        if self._output_table is None:
            _, rows, cols, values = _square_placement(self.coeffs, self.band)
            self._output_table = np.zeros((self.dim, self.dim))
            self._output_table[cols, rows] = values
        return self._output_table

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def __len__(self) -> int:
        return len(self.coeffs)

    def act(self, mat: np.ndarray) -> np.ndarray:
        """``sum_l W_l M W_l^dag``, one step per populated offset ``k`` of ``M``.

        The diagonals of ``M`` at ``+-k`` feed only the output diagonals at ``+-k``, with one
        pair of :attr:`output_table` weights per source ``s`` and output ``t``: C1 and C2 keep
        the offset (``T[s, t] * T[s + k, t + k]`` takes ``M[s, s + k]`` to ``(t, t + k)``), D
        flips it (``T[s + k, t] * T[s, t + k]`` takes it to ``(t + k, t)``).  Each output entry
        sums the terms of one dense block update per ``l`` in its order, by increasing source
        (``np.add.reduce`` over a leading axis adds whole slices in turn); the zero terms of
        pairs no operator joins change no bit, and the real and imaginary parts round like the
        complex product of a real coefficient.  A diagonal ``M`` writes only the diagonal of the
        zeros allocated here.
        """
        table, dim, flip = self.output_table, self.dim, self.band == "anti"
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        out = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(bandwidth(mat) + 1):
            size = dim - k
            pair = table[k:, :size] * table[:size, k:] if flip else table[:size, :size] * table[k:, k:]
            terms = pair * _diagonal_parts(mat, k)[..., None]
            _diagonal_parts(out, k, swap=flip)[...] += np.add.reduce(terms, axis=2)
        return out

    def defect(self, block: int | None) -> float:
        return _table_defect(self.coeffs, self.band, block)

    def operators(self, count: int) -> np.ndarray:
        return _square_stack(self.coeffs[:count], self.band)

    def product_gram(self, count: int) -> tuple[np.ndarray, float]:
        """:meth:`KrausFamily.product_gram` off the table, bit for bit.

        Each product ``W_m^dag W_n`` has at most one entry per output level ``t``, at
        ``(c_m(t), c_n(t))``, so it is one diagonal (offset ``c_n - c_m``), and products on
        different diagonals are orthogonal.  Each block of the Gram matrix is one einsum over
        whole diagonals in increasing row order, the order of the dense contraction (``matmul``
        would block the sums).  At ``count = 1`` the dense path runs: einsum sums a one-entry
        output in buffer-sized chunks of the flat product, which a diagonal cannot repeat.
        """
        if count == 1 or count > len(self):  # the dense path also reports a short family
            return super().product_gram(count)
        dim = self.dim
        ell, rows, cols, values = _square_placement(self.coeffs[:count], self.band)
        col = np.full((count, dim), -1)
        val = np.zeros((count, dim))
        col[ell, rows], val[ell, rows] = cols, values
        m, n, t = np.nonzero((col[:, None] >= 0) & (col[None] >= 0))
        pair = m * count + n
        diags = np.zeros((count * count, dim), dtype=np.complex128)
        diags[pair, col[m, t]] = val[m, t] * val[n, t]
        offsets = np.zeros(count * count, dtype=int)  # a pair with no entry may sit on any diagonal
        offsets[pair] = col[n, t] - col[m, t]
        gram = np.zeros((count * count, count * count), dtype=np.complex128)
        level = np.arange(dim)
        border = 0.0
        for d in np.unique(offsets):
            pick = np.flatnonzero(offsets == d)
            block = diags[pick]
            gram[np.ix_(pick, pick)] = np.einsum("ai,bi->ab", block.conj(), block)
            top = block[:, (level >= dim - 8) | (level + d >= dim - 8)]
            border = max(border, float(np.max(np.abs(top.conj() @ top.T), initial=0.0)))
        return gram, border

    def diagonal_basis(self, chunks, tol: float) -> tuple[bool, str]:
        """Every ``W_l^dag W_l`` is diagonal; its diagonal is read off the squared table."""
        diags = _band_gram_diagonals(self.coeffs, self.band)
        return _fock_or_any(diags, tol * max(float(np.max(diags)), 1e-300))

    def _dual(self, new_spec: ChannelSpec) -> "BandedFamily":
        """C1 and C2 exchange the table scaled by ``kappa``; D reads each row backwards, and
        its entries below the square block, which only the defect reads, are the dual's own."""
        kappa = self.spec.kappa
        if self.band == "anti":
            # kappa T_l^dag puts kappa c[l, n] at (n, l - n): entry (l, l - n) of the dual table
            coeffs, band = _band_table(new_spec, self.index.ell_max, self.dim)
            ell, rows, _ = _placement(coeffs, band)
            inside = (rows >= 0) & (rows < self.dim)
            coeffs[inside] = kappa * self.coeffs[ell[inside], rows[inside]]
        else:
            coeffs, band = kappa * self.coeffs, {"upper": "lower", "lower": "upper"}[self.band]
        return KrausFamily.banded(new_spec, coeffs, band, _table_defect(coeffs, band))

    def _square_operators(self):
        """The square operators one at a time, under the size limit of the unbuilt stack."""
        _check_stack_bytes(*self.coeffs.shape)
        dim = self.dim
        ell, rows, cols, values = _square_placement(self.coeffs, self.band)
        bounds = np.searchsorted(ell, np.arange(len(self) + 1))  # entries come grouped by operator
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            op = np.zeros((dim, dim), dtype=np.complex128)
            op[rows[lo:hi], cols[lo:hi]] = values[lo:hi]
            yield op


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InvalidParameter(message)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _log_binom_sqrt(n, k):
    """0.5 * log C(n, k), vectorized."""
    return 0.5 * (gammaln(np.asarray(n) + 1) - gammaln(np.asarray(k) + 1) - gammaln(np.asarray(n) - np.asarray(k) + 1))


def _band_table(spec: ChannelSpec, ell_max: int, n_cut: int) -> tuple[np.ndarray, str]:
    """Coefficient table ``(ell_max + 1, n_cut)`` and band orientation of a
    quantum-limited single-band family; the identity has one row."""
    fam = spec.family
    if fam == "I":
        return np.ones((1, n_cut)), "upper"
    kappa = 0.0 if fam == "A1" else spec.kappa
    ell = np.arange(ell_max + 1)[:, None]
    m = np.arange(n_cut)[None, :]
    coeffs = np.zeros((ell_max + 1, n_cut))
    if fam == "D":
        ell, n = np.broadcast_arrays(ell, m)
        in_band = n <= ell
        ell, n = ell[in_band], n[in_band]
        coeffs[in_band] = np.exp(
            _log_binom_sqrt(ell, n)
            - 0.5 * (n + 1) * math.log1p(kappa**2)
            - 0.5 * (ell - n) * math.log1p(kappa**-2)
        )
        return coeffs, "anti"
    orientation = "lower" if fam == "C2" else "upper"
    if kappa == 1.0:  # identity channel
        coeffs[0] = 1.0
    elif kappa == 0.0:  # A1 end: B_l = |0><l|
        coeffs[:, 0] = 1.0
    elif fam == "C2":
        coeffs[:] = np.exp(
            -math.log(kappa)
            + _log_binom_sqrt(m + ell, ell)
            + 0.5 * ell * math.log(1.0 - kappa**-2)
            - m * math.log(kappa)
        )
    else:
        coeffs[:] = np.exp(_log_binom_sqrt(m + ell, ell) + 0.5 * ell * math.log(1.0 - kappa**2)
                           + m * math.log(kappa))
    return coeffs, orientation


def _check_stack_bytes(n_ops: int, dim: int) -> None:
    """Raise ``AllocationTooLarge`` for a complex ``(n_ops, dim, dim)`` stack above ``MAX_DENSE_BYTES``."""
    n_bytes = n_ops * dim * dim * 16
    if n_bytes > MAX_DENSE_BYTES:
        raise AllocationTooLarge(f"dense stack of {n_ops} operators at N={dim} needs {n_bytes:.3e} bytes")


def _placement(coeffs: np.ndarray, band: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Operator index, row and column of every entry of a coefficient table
    (see the module docstring), whether or not it lands inside the square block."""
    ell, j = np.indices(coeffs.shape)
    rows, cols = {"anti": (ell - j, j), "upper": (j, j + ell), "lower": (j + ell, j)}[band]
    return ell, rows, cols


def _square_placement(coeffs: np.ndarray, band: str) -> tuple[np.ndarray, ...]:
    """Operator index, row, column and value of the table entries that land
    inside the square block."""
    dim = coeffs.shape[1]
    ell, rows, cols = _placement(coeffs, band)
    inside = (rows >= 0) & (rows < dim) & (cols < dim)
    return ell[inside], rows[inside], cols[inside], coeffs[inside]


def _square_stack(coeffs: np.ndarray, band: str) -> np.ndarray:
    """Dense ``(ell_max + 1, N, N)`` stack of the table entries that land
    inside the square block."""
    n_ops, dim = coeffs.shape
    _check_stack_bytes(n_ops, dim)
    ell, rows, cols, values = _square_placement(coeffs, band)
    ops = np.zeros((n_ops, dim, dim), dtype=np.complex128)
    ops[ell, rows, cols] = values
    return ops


def _table_defect(coeffs: np.ndarray, band: str, block: int | None = None) -> float:
    """``max |(sum_l W_l^dag W_l)[j, j] - 1|`` over the protected block ``j < block``.

    Every ``W_l^dag W_l`` is diagonal, so the operator norm of the defect is
    its largest diagonal entry: the sum of the squares placed in column ``j``
    over the whole band (the range cutoff does not enter), by increasing
    ``l``.  The default block is half the column space.
    """
    dim = coeffs.shape[1]
    b = min(dim // 2 if block is None else block, dim)
    squares = coeffs[:, :b] ** 2  # no entry of a later column lands in the block
    _, _, cols = _placement(squares, band)
    protected = cols < b
    diag = np.bincount(cols[protected], squares[protected], minlength=b)
    return float(np.max(np.abs(diag - 1.0), initial=0.0))


def raw_completeness_defect(ops: np.ndarray, block: int | None = None) -> float:
    """Operator norm of ``sum W^dag W - 1`` on the protected lower block.

    Accepts rectangular stacks ``(n_ops, n_rows, n_cols)``: the sum runs
    over the full row range so the range cutoff does not masquerade as an
    index-sum deficiency.  The default block is half the column space, and
    only its columns enter: one small product per operator (batched
    ``matmul``), summed over the operators.
    """
    cols = ops[:, :, :ops.shape[-1] // 2 if block is None else block]
    gram = (np.swapaxes(cols.conj(), 1, 2) @ cols).sum(0)
    return _identity_defect(gram, len(gram))


def _identity_defect(s: np.ndarray, block: int | None) -> float:
    b = len(s) // 2 if block is None else block
    return float(np.linalg.norm((s - np.eye(len(s)))[:b, :b], ord=2))


def completeness_defect(family: "KrausFamily | np.ndarray", block: int | None = None) -> float:
    """Completeness defect of a family (:meth:`KrausFamily.defect`) or of a bare stack on its
    protected lower block; a negative block raises ``InvalidParameter``."""
    if block is not None and block < 0:
        raise InvalidParameter(f"the protected block must be nonnegative, got {block}")
    if isinstance(family, np.ndarray):
        return raw_completeness_defect(family, block)
    return family.defect(block)


def _coherent_defect(family: KrausFamily, block: int | None) -> float:
    kappa, index = family.spec.kappa, family.index
    vecs = coherent_amplitudes(np.conj(index.nodes) * (1.0 / np.sqrt(1.0 + kappa**2)), family.dim) \
        * np.sqrt(index.weights / (np.pi * (1.0 + kappa**2)))[:, None]
    return _identity_defect(np.einsum("li,lk->ik", vecs, vecs.conj()), block)


def _stored_defect(family: KrausFamily, block: int | None) -> float:
    """The defect stored at build time, for a stack that has lost the rows past the cutoff it was
    measured with (a scheme family, a banded family's dense record): it answers the default block
    it was measured on, and an empty block has none."""
    if block is None or block == family.dim // 2:
        return family.completeness_defect
    if block == 0:
        return 0.0
    raise InvalidParameter(f"the rows past the cutoff this family's defect was measured with are gone; "
                           f"only the block {family.dim // 2} is known")


def _position_resolution_defect(nodes: np.ndarray, weights: np.ndarray, dim: int,
                                block: int | None = None) -> float:
    psi = hermite_psi_table(dim - 1, nodes)
    return _identity_defect(np.einsum("i,ni,mi->nm", weights, psi, psi), block)


def suggest_ell_max(spec: ChannelSpec, n_protect: int, tol: float = 1e-12) -> int:
    """Smallest index cut keeping the completeness tail below ``tol``.

    The per-level weights of ``sum_l (W_l^dag W_l)[n, n]`` decay
    geometrically in l; the worst protected level is ``n_protect - 1``.
    Raises ``DefectTooLarge`` when the tail is still above ``tol`` at
    ``SUGGEST_ELL_CAP``.
    """
    fam = spec.family
    if fam in ("I", "A1") or (fam == "C1"):
        return max(n_protect - 1, 0) if fam != "I" else 0
    n = n_protect - 1
    if fam == "D":
        ratio = 1.0 / (1.0 + spec.kappa**-2)
        # weight(l) = C(l, n) (1+k^2)^(-1-n) ratio^(l-n), l >= n
        log_w = -(n + 1) * math.log1p(spec.kappa**2)
        term = math.exp(log_w)  # l = n term, C(n,n)=1
        ell, remaining = n, 1.0 - term
        while remaining > tol and ell < SUGGEST_ELL_CAP:
            ell += 1
            term *= ratio * ell / (ell - n)
            remaining -= term
    elif fam == "C2":
        if spec.kappa == 1.0:
            return 0
        ratio = 1.0 - spec.kappa**-2
        term = spec.kappa ** (-2.0 * (n + 1))  # l = 0 term at level n
        ell, remaining = 0, 1.0 - term
        while remaining > tol and ell < SUGGEST_ELL_CAP:
            ell += 1
            term *= ratio * (n + ell) / ell
            remaining -= term
    else:
        raise UnsupportedFamily(
            f"family {fam} has no quantum-limited discrete Kraus list; noisy: use compose/synthesize")
    if remaining > tol:
        raise DefectTooLarge(
            f"{spec} at n_protect={n_protect}: completeness tail {remaining:.3e} > {tol:.1e} "
            f"at the index cap ell_max={SUGGEST_ELL_CAP}")
    return ell


def build_discrete(spec: ChannelSpec, ell_max: int, n_cut: int,
                   defect_limit: float = DEFECT_HARD_LIMIT) -> KrausFamily:
    """Closed-form Kraus family for ``D``, ``C1``, ``C2``, ``A1`` or the identity.

    The family stores its coefficient table over the whole band; its
    square operators are the truncation to ``n_cut`` levels.  The recorded
    defect is the index-sum deficit on the protected domain block,
    measured before the range cutoff is imposed.
    """
    if not spec.quantum_limited:
        raise UnsupportedFamily(f"{spec}: noisy; use compose/synthesize")
    if spec.family not in BANDED_FAMILIES:
        raise UnsupportedFamily(
            f"family {spec.family} has no quantum-limited discrete Kraus list; noisy: use compose/synthesize")
    if ell_max < 0:
        raise InvalidParameter(f"ell_max must be nonnegative, got {ell_max}")
    coeffs, band = _band_table(spec, ell_max, n_cut)
    defect = _table_defect(coeffs, band)
    if defect > defect_limit:
        raise DefectTooLarge(
            f"{spec} at ell_max={ell_max}, n_cut={n_cut}: defect {defect:.3e} > {defect_limit:.1e}"
        )
    return KrausFamily.banded(spec, coeffs, band, defect)


def _node_count(node_count) -> int:
    """``node_count`` as an int, which ``scipy.special.roots_hermite`` takes: a whole number >= 1."""
    if isinstance(node_count, bool) or not isinstance(node_count, numbers.Real) \
            or not float(node_count).is_integer() or node_count < 1:
        raise InvalidParameter(f"node count must be a whole number of at least 1, got {node_count!r}")
    return int(node_count)


def _gauss_hermite(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.special.roots_hermite(node_count)``: nodes and weights for ``integral e^(-x^2) f(x) dx``.

    Up to 150 nodes scipy solves the Golub-Welsch eigenproblem with
    ``scipy.linalg.eigvals_banded``, whose first import costs about 65 ms.
    This repeats its steps with ``np.linalg.eigvalsh`` on the same tridiagonal
    matrix (the same bits for every count from 1 to 150): one Newton step on
    the eigenvalues, the log-normalized weight formula, symmetrization and
    normalization to ``sqrt(pi)``.  Above 150 scipy's asymptotic rule imports
    no linalg and is called as it is.
    """
    n = _node_count(node_count)
    if n > 150:
        return roots_hermite(n)
    b = np.sqrt(np.arange(1, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1))
    y = eval_hermite(n, x)
    dy = 2.0 * n * eval_hermite(n - 1, x)
    x -= y / dy
    # fm and dy span many decades: scale each by its geometric midrange before the product
    fm = eval_hermite(n - 1, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= np.sqrt(np.pi) / w.sum()
    return x, w


def hermite_quadrature(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and total weights for ``integral dq f(q)``.

    Returns ``(x, w)`` with ``sum w_i f(x_i) ~ integral f`` for integrands
    decaying at least like ``exp(-x^2)``; ``w = w_GH * exp(x^2)``.
    """
    x, w = _gauss_hermite(node_count)
    return x, _times_exp_square(w, x)


def _times_exp_square(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``w * exp(x^2)``, with 0 at the nodes whose Gauss-Hermite weight
    underflowed: there ``exp(x^2)`` overflows and the product is not finite.
    Such nodes (|x| above ~27) carry no weight for an integrand that decays
    like ``exp(-x^2)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = w * np.exp(x**2)
    out[~np.isfinite(out)] = 0.0
    return out


def build_continuous(spec: ChannelSpec, node_count: int, n_cut: int) -> KrausFamily:
    """Quadrature-discretized Kraus family for ``A2`` or ``B1(a)``.

    A2 operators are ``V_q = |q/sqrt(2)) <q|`` (coherent ket, position
    bra); B1 operators are Gaussian-weighted displacements
    ``Z_q = (pi a)^(-1/4) exp(-q^2/(2a)) D(q/sqrt(2))``.  Both are
    premultiplied by the square root of their quadrature weight.  The B1
    displacements come from the stack kernel of ``fock``, a bounded chunk of
    nodes at a time, each operator equal to ``displacement_op`` of its node
    bit for bit; every node is checked before the stack is allocated.  Both
    families take the displacement cutoff check: ``n_cut`` must be an integer
    in ``2..1020`` (``InvalidParameter`` below, ``OrderTooLarge`` above).
    """
    if _node_count(node_count) < 32:
        raise InvalidParameter(f"node_count must be at least 32, got {node_count}")
    _check_displacement_cutoff(n_cut)
    fam = spec.family
    if fam == "A2":
        if not spec.quantum_limited:
            raise UnsupportedFamily("noisy A2: compose the quantum-limited family with added noise")
        _check_stack_bytes(node_count, n_cut)
        x, w = hermite_quadrature(node_count)
        ops = coherent_amplitudes(x / np.sqrt(2.0), n_cut)[:, :, None] * hermite_psi_table(n_cut - 1, x).T[:, None, :]
        ops *= np.sqrt(w)[:, None, None]
        index = QuadratureIndex(x, w)
        defect = _position_resolution_defect(x, w, n_cut)
    elif fam == "B1":
        a = spec.noise_a
        if a == 0.0:
            ops = np.eye(n_cut, dtype=np.complex128)[None, :, :]
            return KrausFamily(spec, ops, QuadratureIndex(np.zeros(1), np.ones(1)), 0.0)
        _check_stack_bytes(node_count, n_cut)
        # substitute q = sqrt(a) t: (pi a)^(-1/2) integral dq e^(-q^2/a) D(q/sqrt2) rho D^dag
        t, w = _gauss_hermite(node_count)
        q = np.sqrt(a) * t
        chunks = _displacement_chunks(q / np.sqrt(2.0), n_cut)
        scale = np.sqrt(w / np.sqrt(np.pi))
        ops = np.empty((node_count, n_cut, n_cut), dtype=np.complex128)
        for part, stack in chunks:
            np.multiply(scale[part, None, None], stack, out=ops[part])
        index = QuadratureIndex(q, _times_exp_square(w * np.sqrt(a), t))
        # the displacement factor is exactly unitary, so only the Gaussian
        # quadrature itself can fall short of the completeness integral
        defect = float(abs(np.sum(w) / np.sqrt(np.pi) - 1.0))
    else:
        raise UnsupportedFamily(f"family {fam} is not a continuous-index family")
    if not np.isfinite(defect) or defect > DEFECT_HARD_LIMIT:
        raise DefectTooLarge(f"{spec}: defect {defect:.3e} > {DEFECT_HARD_LIMIT:.1e}; raise node_count or n_cut")
    return KrausFamily(spec, ops, index, defect)


def builder(spec: ChannelSpec) -> tuple:
    """The builder of ``spec``'s family, looked up at call time, and the size it takes: a node
    count for A2 and B1, an index cut for every other tag (``build_discrete`` rejects the rest)."""
    return (build_continuous, "nodes") if spec.family in ("A2", "B1") else (build_discrete, "ell_max")


def _band_gram_diagonals(coeffs: np.ndarray, band: str) -> np.ndarray:
    """Diagonals ``(ell_max + 1, N)`` of the truncated ``W_l^dag W_l`` of a
    single-band family: ``c^2`` at the column of each entry that lands inside
    the square block.  Each operator has at most one entry per row and
    column, so no diagonal entry sums two squares and no off-diagonal one is
    nonzero."""
    ell, _, cols, values = _square_placement(coeffs, band)
    diags = np.zeros(coeffs.shape)
    diags[ell, cols] = values**2
    return diags


def _fock_or_any(diags: np.ndarray, limit: float) -> tuple[bool, str]:
    """The basis tag of products diagonal in the Fock basis: ``any`` when each diagonal is flat to ``limit``."""
    return True, "any" if np.max(np.abs(diags - diags[:, :1]), initial=0.0) < limit else "fock"


def _diagonal_parts(square: np.ndarray, k: int, swap: bool = False) -> np.ndarray:
    """Float view ``[i, j, s]`` of a C-contiguous complex square matrix: part ``j``
    (real, imaginary) of entry ``s`` of its diagonal at offset ``+k`` (``i = 0``)
    and ``-k`` (``i = 1``, present for ``k > 0``); ``swap`` exchanges the two.
    Writing to the view writes to the matrix."""
    dim = square.shape[0]
    plus, minus = 16 * k, 16 * dim * k  # byte offsets of the first entries
    first, second = (minus, plus) if swap else (plus, minus)
    return np.ndarray((2 if k else 1, 2, dim - k), np.float64, square, first, (second - first, 8, 16 * dim + 16))


def apply_matrix(family: KrausFamily, mat: np.ndarray) -> np.ndarray:
    """Raw operator-sum action ``sum_l W_l M W_l^dag`` (no renormalization), by :meth:`KrausFamily.act`."""
    if mat.shape[0] != family.dim:
        raise DimMismatch(f"operator dim {mat.shape[0]} != family dim {family.dim}")
    return family.act(mat)


def apply(family: KrausFamily, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel; renormalize and report leakage in ``tail_mass``.

    The in-cutoff trace after the operator sum falls short of 1 by the
    input tail plus whatever the channel pushed past the cutoff; the
    output is symmetrized, rescaled to unit trace and that shortfall is
    recorded.

    A diagonal state under a family that ``keeps_diagonal`` (the banded
    ones) costs one step on the Fock diagonal: the operator sum writes only
    the diagonal of its zeros, the symmetrization and rescaling run on that
    diagonal in place, and :meth:`DensityMatrix._diagonal` checks the state
    there.  These are the dense path's operations on the same entries, and
    the dense path leaves the zeros as they are, so every bit is the same.
    Every other input takes the dense path over the whole matrix.
    """
    out = apply_matrix(family, rho.mat)
    diagonal = rho.bandwidth == 0 and family.keeps_diagonal
    part = out.reshape(-1)[::len(out) + 1] if diagonal else out  # the diagonal as a writable view
    part[...] = 0.5 * (part + part.conj().T)
    tr = float(np.trace(out).real)
    if tr <= 1e-12:
        raise InvalidParameter("channel output has vanishing trace inside the cutoff")
    part[...] = part / tr
    leak = max(0.0, 1.0 - tr)
    return DensityMatrix._diagonal(out, leak) if diagonal else DensityMatrix(TruncatedOperator(out), leak)


def dual(family: KrausFamily) -> KrausFamily:
    """The dual trace-preserving family, :meth:`KrausFamily.dual`."""
    return family.dual()


def coherent_disc_grid(radius: float, n_radial: int, n_angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar quadrature for ``integral_disc f(alpha) d^2 alpha``.

    Gauss-Legendre in the radius, uniform (trapezoidal, exact for
    trigonometric polynomials) in the angle.  Returns complex nodes and
    positive weights.
    """
    r, wr = np.polynomial.legendre.leggauss(n_radial)
    r = 0.5 * radius * (r + 1.0)
    wr = 0.5 * radius * wr * r  # includes the r dr Jacobian
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    wt = 2.0 * np.pi / n_angular
    alphas = (r[:, None] * np.exp(1j * theta)[None, :]).ravel()
    weights = (wr[:, None] * wt * np.ones(n_angular)[None, :]).ravel()
    return alphas, weights


def rank_one_d(kappa: float, alphas: np.ndarray, weights: np.ndarray, n_cut: int,
               probe_check: bool = True) -> KrausFamily:
    """Rank-one (entanglement-breaking) Kraus family for ``D(kappa)``.

    Each operator is

        T'_alpha = (1+kappa^2)^(-1/2)
                   |alpha / sqrt(1+kappa^-2)> <conj(alpha) / sqrt(1+kappa^2)|

    carrying ``sqrt(weight / pi)`` so the family sums the coherent-state
    resolution ``rho' = pi^-1 integral T' rho T'^dag d^2 alpha``.
    """
    if kappa <= 0:
        raise InvalidParameter("kappa must be positive")
    alphas = np.asarray(alphas, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if alphas.shape != weights.shape:
        raise InvalidParameter("alphas and weights must have matching shapes")
    _check_stack_bytes(alphas.size, n_cut)
    ket_scale = 1.0 / np.sqrt(1.0 + kappa**-2)
    bra_scale = 1.0 / np.sqrt(1.0 + kappa**2)  # also the prefactor (1+kappa^2)^(-1/2)
    kets = coherent_amplitudes(alphas.ravel() * ket_scale, n_cut)
    bras = coherent_amplitudes(np.conj(alphas.ravel()) * bra_scale, n_cut)
    ops = kets[:, :, None] * bras.conj()[:, None, :]
    ops *= (bra_scale * np.sqrt(weights.ravel() / np.pi))[:, None, None]
    family = KrausFamily(ChannelSpec("D", kappa), ops, QuadratureIndex(alphas, weights), 0.0, origin="rank-one")
    family.completeness_defect = completeness_defect(family)
    if probe_check:
        probe = thermal_state(2.0, n_cut, tail_tol=1.0)
        reference = apply(build_discrete(ChannelSpec("D", kappa), suggest_ell_max(ChannelSpec("D", kappa), n_cut), n_cut), probe)
        got = apply(family, probe)
        dev = trace_distance(got, reference)
        if dev > RANK_ONE_PROBE_TOL:
            raise GridTooCoarse(f"rank-one grid misses the channel output by {dev:.3e} on the thermal probe")
    return family


def closed_form_action(spec: ChannelSpec, m: int, n: int, n_cut: int) -> TruncatedOperator:
    """Image of ``|m><n|`` under the channel, from the summed band formulas.

    D(kappa) with ``n = m + delta``::

        |m+d><m|  ->  (1+k^2)^(-1-m-d/2) (1+k^-2)^(-d/2)
                      sum_j (j+m+d)! (1+k^-2)^(-j)
                            / sqrt((m+d)! m! j! (j+d)!)   |j><j+d|

    C1(kappa)::

        |m><n| -> sum_l sqrt(C(m,l) C(n,l)) (1-k^2)^l k^(m+n-2l) |m-l><n-l|

    C2(kappa)::

        |m><n| -> k^(-2-m-n) sum_l sqrt(C(m+l,l) C(n+l,l)) (1-k^-2)^l
                  |m+l><n+l|
    """
    if not (0 <= m < n_cut and 0 <= n < n_cut):
        raise InvalidParameter("Fock labels must sit inside the cutoff")
    if not spec.quantum_limited:
        raise UnsupportedFamily(f"{spec}: closed forms cover quantum-limited members only")
    out = np.zeros((n_cut, n_cut), dtype=np.complex128)
    fam = spec.family
    k = spec.kappa
    if fam == "D":
        # phase conjugation swaps the band orientation: |lo+d><lo| -> sum_j c_j |j><j+d|
        lo, delta = min(m, n), abs(m - n)
        j = np.arange(n_cut - delta)
        logc = (
            -(1.0 + lo + 0.5 * delta) * math.log1p(k**2)
            - 0.5 * delta * math.log1p(k**-2)
            - 0.5 * (gammaln(lo + delta + 1) + gammaln(lo + 1))
            + gammaln(j + lo + delta + 1)
            - j * math.log1p(k**-2)
            - 0.5 * (gammaln(j + 1) + gammaln(j + delta + 1))
        )
        if m >= n:
            out[j, j + delta] = np.exp(logc)
        else:
            out[j + delta, j] = np.exp(logc)
        return TruncatedOperator(out)
    if fam in ("C1", "A1"):
        kk = 0.0 if fam == "A1" else k
        if kk == 0.0:
            if m == n:
                out[0, 0] = 1.0
            return TruncatedOperator(out)
        if kk == 1.0:
            out[m, n] = 1.0
            return TruncatedOperator(out)
        for ell in range(min(m, n) + 1):
            out[m - ell, n - ell] = math.exp(
                _log_binom_sqrt(m, ell) + _log_binom_sqrt(n, ell)
                + ell * math.log(1.0 - kk**2) + (m + n - 2 * ell) * math.log(kk)
            )
        return TruncatedOperator(out)
    if fam == "C2":
        if k == 1.0:
            out[m, n] = 1.0
            return TruncatedOperator(out)
        for ell in range(n_cut - max(m, n)):
            out[m + ell, n + ell] = math.exp(
                -(2.0 + m + n) * math.log(k)
                + _log_binom_sqrt(m + ell, ell) + _log_binom_sqrt(n + ell, ell)
                + ell * math.log(1.0 - k**-2)
            )
        return TruncatedOperator(out)
    raise UnsupportedFamily(f"no closed-form Fock action for family {fam}")
