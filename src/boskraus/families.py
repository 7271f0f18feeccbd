"""How a Kraus family is stored, and what each storage answers.

A family is stored in one of five kinds, fixed by its class when it is built;
readers call its methods (see :class:`KrausFamily`) and never test the storage,
and each kind answers its own completeness defect.  Only this module reads a
kind's fields.  Each kind makes operators in one place,
``_operators_at(labels)``, and :class:`KrausFamily` alone derives from it
``ops`` (the whole stack, cached) and ``operators(count)`` (the first
``count``, built alone), both after checking the size of what they build, and
the operators the JSON writer lists, a bounded chunk of labels at a time.  No
reader but ``ops`` builds the whole stack; only the JSON writer reads ``origin``.

:class:`BandedFamily` (``D``, ``C1``, ``C2``, ``A1``, ``I``) holds a real table
``c`` of shape ``(ell_max + 1, N)`` over the whole band and its orientation,
which :func:`_placement` alone turns into positions: ``"anti"`` (D) puts
``c[l, n]`` at ``(l - n, n)``, ``"upper"`` (C1, A1, I) ``c[l, m]`` at
``(m, m + l)``, ``"lower"`` (C2) at ``(m + l, m)``; its readers read the table,
and its operators are table rows scattered into the square.  Every
``W_l^dag W_l`` is diagonal, so its defect is read off the squared table.
:func:`_band_table` evaluates the single-band closed forms:

* phase conjugation ``D(kappa)``::

      T_l = (1+k^2)^(-1/2) sum_n (1+k^2)^(-n/2) (1+k^-2)^(-(l-n)/2)
            sqrt(C(l,n)) |l-n><n|,        l = 0, 1, 2, ...

* attenuator ``C1(kappa)``::

      B_l = sum_m sqrt(C(m+l,l)) (1-k^2)^(l/2) k^m |m><m+l|

* amplifier ``C2(kappa)``::

      A_l = k^-1 sum_m sqrt(C(m+l,l)) (1-k^-2)^(l/2) k^-m |m+l><m|

``A1`` is ``C1(0)``.  All of them are evaluated in log space
(``special.log_factorial``, and ``special.xlogy``, whose ``0 log 0 = 0`` makes
A1 = C1(0), C1(1) and C2(1) points of the same formulas).

:class:`RankOneFamily` holds the entanglement-breaking families whose operators
are rank one, ``W_p = s_p |k_p><conj(r_p)|`` (``A2``: the coherent ket of
``q_p / sqrt(2)`` and the position bra at ``q_p``; ``kraus.rank_one_d``), as the
kets, the bra rows and the scales: it acts by two GEMMs of ``P x N`` factors,
its operators are outer products of factor rows, and its defect is that of the
resolution of the identity its builder forms.
:class:`DisplacementFamily` holds ``B1(a > 0)``, whose nodes are mirror images
``+-x`` and whose operators are real displacements with ``D(-x) = D(x)^T``, as
the nonnegative arguments and their scales: it acts by streaming the real
displacement kernel of ``fock`` over those nodes, two real GEMMs per chunk, its
operators come from that kernel at the nodes asked for, and its defect is the
Gaussian quadrature's on every nonempty block.
:class:`KrausFamily` holds a dense stack as its producer made it (the scheme's
Taylor slice with every row its defect needs, or a dual): ``ops`` are its top
``dim`` rows, and its defect is measured on every row, on every block.  Of a
:class:`ProductFamily`, products already, ``product_gram`` reads the first ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import ChannelSpec, _log_binom_sqrt
from .errors import AllocationTooLarge, InvalidParameter, UnsupportedFamily
from .fock import (MAX_DENSE_BYTES, _displaced_basis, _displacement_chunks, _fock_or_any, _ket_sum, bandwidth,
                   hermite_psi_table)
from .special import xlogy

JSON_ENTRY_BYTES = 512  # peak bytes per listed entry of a JSON record, its lists, _round12's copy and text (tracemalloc)
_JSON_CHUNK_BYTES = 8 << 20  # bytes of the operators the JSON writer builds at once


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


class KrausFamily:
    """An ordered Kraus family held as a dense stack ``(n_ops, rows, dim)``, ``rows >= dim``, whose top ``dim``
    rows are ``ops``, plus channel metadata.  Readers call :meth:`act`, :meth:`defect`, :meth:`operators`,
    :meth:`product_gram`, :meth:`diagonal_basis`, :meth:`dual` and :meth:`to_json_dict`, and each storage kind
    answers them from what it holds: a :class:`BandedFamily` (``kraus.build_discrete``) reads its table, a
    :class:`RankOneFamily` (A2, ``kraus.rank_one_d``) its kets, bra rows and scales, a :class:`DisplacementFamily`
    (B1) streams its displacements, and the dense stack measures its defect on every row it holds.  A kind
    makes operators only in :meth:`_operators_at`; ``ops``, :meth:`operators`, ``len`` and the JSON writer are
    defined here alone.  ``keeps_diagonal`` says whether the family takes ``|s><s|`` to a mix of ``|t><t|``,
    so that ``apply`` steps a diagonal state as the level populations :meth:`BandedFamily.populations` maps."""

    keeps_diagonal = False

    def __init__(self, spec: ChannelSpec | None, ops: np.ndarray | None,
                 index: DiscreteIndex | QuadratureIndex, origin: str = "closed-form"):
        self.spec = spec
        self.index = index
        self.origin = origin
        self._ops = ops
        self.discrete = isinstance(index, DiscreteIndex)

    @cached_property
    def completeness_defect(self) -> float:
        """The defect on the default block, half the space: :meth:`defect` of None, measured once."""
        return self.defect(None)

    @cached_property
    def ops(self) -> np.ndarray:
        """The top ``dim`` rows of the stack in label order, cached; a kind that holds none builds it first,
        :meth:`_operators_at` of every label (above ``MAX_DENSE_BYTES``: ``AllocationTooLarge`` first)."""
        if self._ops is None:
            _check_stack_bytes(len(self), self.dim)
            self._ops = self._operators_at(np.arange(len(self)))
        return self._ops[:, :self.dim]

    @property
    def dim(self) -> int:
        return self._ops.shape[2]

    def __len__(self) -> int:
        return self.index.ell_max + 1 if self.discrete else len(self.index.nodes)

    def act(self, mat: np.ndarray) -> np.ndarray:
        """``sum_l W_l M W_l^dag``: two flattened BLAS products instead of a per-operator loop."""
        n_ops, n, _ = self.ops.shape
        tmp = (self.ops.reshape(n_ops * n, n) @ mat).reshape(n_ops, n, n)
        left = np.ascontiguousarray(tmp.transpose(1, 0, 2)).reshape(n, n_ops * n)
        right = self.ops.conj().transpose(0, 2, 1).reshape(n_ops * n, n)
        return left @ right

    def defect(self, block: int | None) -> float:
        """Completeness defect on the protected block ``j < block`` (half the space for None), measured
        on every row of the stack, so that the range cutoff is not taken for an index-sum deficit."""
        return raw_completeness_defect(self._ops, block)

    def operators(self, count: int) -> np.ndarray:
        """The first ``count`` operators, built alone (above ``MAX_DENSE_BYTES``: ``AllocationTooLarge``
        first); quadrature nodes go center-out by ``|node|``, so neighbors overlap."""
        labels = (np.arange(len(self)) if self.discrete else np.argsort(np.abs(self.index.nodes)))[:count]
        _check_stack_bytes(len(labels), self.dim)
        return self._operators_at(labels)

    def _operators_at(self, labels: np.ndarray) -> np.ndarray:
        """The operators at the labels ``labels``: the one place a storage kind makes operators."""
        return self._ops[labels, :self.dim]

    def product_gram(self, count: int) -> tuple[np.ndarray, float]:
        """Gram matrix ``"aij,bij->ab"`` of the products ``W_m^dag W_n`` (``m, n < count``, :meth:`_products`)
        and the largest entry of its part carried by the top 8 rows and columns (0 for a continuous index)."""
        prods = self._products(count)
        gram = np.einsum("aij,bij->ab", prods.conj(), prods)
        if not self.discrete:
            return gram, 0.0
        top = np.concatenate([prods[:, -8:].reshape(len(prods), -1), prods[:, :-8, -8:].reshape(len(prods), -1)], axis=1)
        return gram, float(np.max(np.abs(top.conj() @ top.T)))

    def _products(self, count: int) -> np.ndarray:
        """The products ``W_m^dag W_n``, ``(m, n)`` row-major, by batched ``matmul`` after size checks."""
        _check_gram(count, count, len(self))
        _check_stack_bytes(count * count, self.dim)
        ops = self.operators(count)
        return (np.swapaxes(ops.conj(), 1, 2)[:, None] @ ops[None]).reshape(count * count, self.dim, self.dim)

    def diagonal_basis(self, tol: float) -> tuple[bool, str]:
        """The verdict of ``analysis.simultaneous_diagonality``, each test to ``tol`` of the largest
        ``|W_l^dag W_l|`` entry."""
        prods = np.swapaxes(self.ops.conj(), 1, 2) @ self.ops
        mags = np.abs(prods)
        scale = max(float(np.max(mags)), 1e-300)
        level = np.arange(self.dim)
        mags[:, level, level] = 0.0
        if np.max(mags) < tol * scale:
            return _fock_or_any(np.diagonal(prods, axis1=1, axis2=2).real, tol * scale)
        return False, "none"

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
        return type(self)(new_spec, ops, self.index, self.origin)

    def _json_entries(self) -> tuple[int, int]:
        """A bound on the nonzero entries a JSON record lists, and the bytes of the stack held while it
        is written."""
        return int(np.count_nonzero(self.ops)), self._ops.nbytes

    def to_json_dict(self) -> dict:
        """The record of the spec, index, dim, defect, origin and the nonzero entries of each operator,
        its operators built a bounded chunk at a time; ``AllocationTooLarge`` before any list when the
        held stack and ``JSON_ENTRY_BYTES`` per listed entry would pass ``MAX_DENSE_BYTES``."""
        entries, held = self._json_entries()
        if held + entries * JSON_ENTRY_BYTES > MAX_DENSE_BYTES:
            raise AllocationTooLarge(f"the JSON record of {entries} entries needs about "
                                     f"{held + entries * JSON_ENTRY_BYTES:.3e} bytes")
        if self.discrete:
            index = {"kind": "discrete", "ell_max": self.index.ell_max}
        else:
            nodes = self.index.nodes
            index = {"kind": "quadrature", "nodes": nodes.real.tolist(), "weights": self.index.weights.tolist()}
            if np.iscomplexobj(nodes):  # rank-one families sit on complex nodes
                index["nodes_im"] = nodes.imag.tolist()
        operators, labels = [], np.arange(len(self))
        step = max(1, _JSON_CHUNK_BYTES // (16 * self.dim**2))
        for start in range(0, len(self), step):
            for op in self._operators_at(labels[start:start + step]):
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


class ProductFamily(KrausFamily):
    """The products of ``analysis.product_family``: :meth:`product_gram` reads its own first ``count^2`` operators."""

    def _products(self, count: int) -> np.ndarray:
        _check_gram(count, count * count, len(self))
        return self.ops[:count * count]


class BandedFamily(KrausFamily):
    """A single-band family held as its table ``coeffs`` of shape ``(ell_max + 1, dim)`` and its
    ``band`` orientation, one table row per label of ``index``.  The ``output_table`` that :meth:`act`
    reads and its square, the weights :meth:`populations` reads, are built on first read and cached."""

    keeps_diagonal = True

    def __init__(self, spec: ChannelSpec, coeffs: np.ndarray, band: str, index: DiscreteIndex | QuadratureIndex):
        super().__init__(spec, None, index)
        self.coeffs = coeffs
        self.band = band
        self._output_table: np.ndarray | None = None
        self._weights: np.ndarray | None = None

    def _operators_at(self, labels: np.ndarray) -> np.ndarray:
        """The table rows ``labels`` scattered into their square operators."""
        k, rows, cols, values = _square_placement(self.coeffs[labels], self.band, labels)
        ops = np.zeros((len(labels), self.dim, self.dim), dtype=np.complex128)
        ops[k, rows, cols] = values
        return ops

    @property
    def output_table(self) -> np.ndarray:
        """``T[s, t]``, the weight of ``|t><s|`` in the one operator joining source level ``s``
        to output level ``t`` (0 where none does): ``ops.sum(0).T``."""
        if self._output_table is None:
            _, rows, cols, values = _square_placement(self.coeffs, self.band)
            self._output_table = np.zeros((self.dim, self.dim))
            self._output_table[cols, rows] = values
        return self._output_table

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def act(self, mat: np.ndarray) -> np.ndarray:
        """``sum_l W_l M W_l^dag``, one step per populated offset ``k`` of ``M``.

        The diagonals of ``M`` at ``+-k`` feed only the output diagonals at ``+-k``, with one
        pair of :attr:`output_table` weights per source ``s`` and output ``t``: C1 and C2 keep
        the offset (``T[s, t] * T[s + k, t + k]`` takes ``M[s, s + k]`` to ``(t, t + k)``), D
        flips it (``T[s + k, t] * T[s, t + k]`` takes it to ``(t + k, t)``); at ``k = 0`` the
        pair is ``T * T``, the weights :meth:`populations` reads.  Each output entry sums the
        terms of one dense block update per ``l`` in its order, by increasing source
        (:func:`_offset_step`); the zero terms of pairs no operator joins change no bit, and the
        real and imaginary parts round like the complex product of a real coefficient.
        """
        table, dim, flip = self.output_table, self.dim, self.band == "anti"
        mat = np.ascontiguousarray(mat, dtype=np.complex128)
        out = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(bandwidth(mat) + 1):
            size = dim - k
            pair = table[k:, :size] * table[:size, k:] if flip else table[:size, :size] * table[k:, k:]
            _diagonal_parts(out, k, swap=flip)[...] += _offset_step(pair, _diagonal_parts(mat, k))
        return out

    def populations(self, p: np.ndarray) -> np.ndarray:
        """``p'_t = sum_s W[s, t] p_s``: the diagonal of :meth:`act` of ``diag(p)`` for real level
        populations ``p``, the offset-0 step of :meth:`act` on the vector alone.  ``W = T * T``
        (:attr:`output_table`), the weight with which level ``s`` feeds level ``t``, is cached."""
        if self._weights is None:
            self._weights = self.output_table * self.output_table
        return _offset_step(self._weights, p)

    def defect(self, block: int | None) -> float:
        return _table_defect(self.coeffs, self.band, block)

    def product_gram(self, count: int) -> tuple[np.ndarray, float]:
        """:meth:`KrausFamily.product_gram` off the table: the Gram matrix bit for bit, the border
        to a few ulp, as it sums each diagonal's top entries apart, in another order than the dense
        strip (1 ulp off for C1(0.7) at N = 32 to 128).

        Each product ``W_m^dag W_n`` has at most one entry per output level ``t``, at
        ``(c_m(t), c_n(t))``, so it is one diagonal (offset ``c_n - c_m``), and products on
        different diagonals are orthogonal.  Each block of the Gram matrix is one einsum over
        whole diagonals in increasing row order, the order of the dense contraction (``matmul``
        would block the sums).  At ``count = 1`` the dense path runs: einsum sums a one-entry
        output in buffer-sized chunks of the flat product, which a diagonal cannot repeat.
        """
        if count == 1 or count > len(self) or count**4 * 16 > MAX_DENSE_BYTES:
            return super().product_gram(count)  # which also reports a short family and an oversized Gram matrix
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

    def diagonal_basis(self, tol: float) -> tuple[bool, str]:
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
        return BandedFamily(new_spec, coeffs, band, self.index)

    def _json_entries(self) -> tuple[int, int]:
        return int(np.count_nonzero(_square_placement(self.coeffs, self.band)[3])), 0


class RankOneFamily(KrausFamily):
    """A family of rank-one operators ``W_p = s_p |k_p><conj(r_p)|`` held as the kets ``kets`` ``(P, N)``,
    the bra rows ``bra_rows`` ``(P, N)`` (``r_p`` is row ``p`` of the matrix of ``<conj(r_p)|``) and the
    scales ``scales`` ``(P,)``: A2 and ``kraus.rank_one_d``.  Each ket is a unit vector before the cutoff,
    so ``sum_p W_p^dag W_p`` is the resolution of the identity ``sum_p s_p^2 |conj(r_p)><conj(r_p)|``,
    which its builder forms and passes as ``resolution`` ``(N, N)``: A2's in position states,
    ``rank_one_d``'s in coherent states."""

    def __init__(self, spec: ChannelSpec, kets: np.ndarray, bra_rows: np.ndarray, scales: np.ndarray,
                 index: QuadratureIndex, resolution: np.ndarray, origin: str = "closed-form"):
        super().__init__(spec, None, index, origin=origin)
        self.kets, self.bra_rows, self.scales, self.resolution = kets, bra_rows, scales, resolution

    def _operators_at(self, labels: np.ndarray) -> np.ndarray:
        """Each ``k_p r_p^T``, then times ``s_p``: the expressions of the dense stack this storage replaced."""
        ops = self.kets[labels, :, None] * self.bra_rows[labels, None, :]
        ops *= self.scales[labels, None, None]
        return ops

    @property
    def dim(self) -> int:
        return self.kets.shape[1]

    def defect(self, block: int | None) -> float:
        return _identity_defect(self.resolution, block)

    def act(self, mat: np.ndarray) -> np.ndarray:
        """``sum_p q_p |k_p><k_p|`` with ``q_p = s_p^2 r_p M conj(r_p)``: two GEMMs and no stack."""
        rows = self.bra_rows
        return _ket_sum(self.kets, np.einsum("pi,pi->p", rows @ mat, rows.conj()) * self.scales**2)

    def diagonal_basis(self, tol: float) -> tuple[bool, str]:
        """``W_p^dag W_p = |w_p><w_p|`` with ``w_p = |s_p| |k_p| conj(r_p)``: its largest entry is the
        largest ``|w_p|^2``, its largest off-diagonal one the product of the two largest ``|w_p|`` entries
        and its diagonal ``|w_p|^2``.  It is a multiple of the projector onto the position wavefunction
        ``v_p`` at its node when the part ``e_p`` of ``w_p`` off ``v_p`` keeps ``max|e_p| (2 max|u_p| +
        max|e_p|)``, a bound on every entry of ``|w_p><w_p| - |u_p><u_p|`` (``u_p`` the part along
        ``v_p``), within ``1e-8`` of the largest entry."""
        w = self.bra_rows.conj() * (np.abs(self.scales) * np.linalg.norm(self.kets, axis=1))[:, None]
        mags = np.sort(np.abs(w), axis=1)
        scale = max(float(np.max(mags[:, -1])) ** 2, 1e-300)
        if np.max(mags[:, -1] * mags[:, -2]) < tol * scale:
            return _fock_or_any(np.abs(w) ** 2, tol * scale)
        v = hermite_psi_table(self.dim - 1, np.real(self.index.nodes)).T
        along = v * (np.sum(v * w, axis=1) / np.maximum(np.sum(v * v, axis=1), 1e-300))[:, None]
        off = np.max(np.abs(w - along), axis=1)
        if np.max(off * (2.0 * np.max(np.abs(along), axis=1) + off)) > 1e-8 * scale:
            return False, "none"
        return True, "position"

    def _json_entries(self) -> tuple[int, int]:
        """At most ``nnz(k_p) nnz(r_p)`` entries per operator, counted before the stack is built."""
        per_op = np.count_nonzero(self.kets, axis=1) * np.count_nonzero(self.bra_rows, axis=1)
        return int(np.sum(per_op * (self.scales != 0))), 0


class DisplacementFamily(KrausFamily):
    """B1 with ``a > 0``: the operators ``s_p D(x_p)`` on Gauss-Hermite nodes, which are mirror images
    ``+-x`` with equal weights to the bit.  It holds the nonnegative arguments ``points`` (ascending,
    the zero node of an odd count first), their ``point_scales`` and the ``cutoff``; the operator at
    ``-x`` is ``D(-x) = D(x)^T``.  No operator is held: :meth:`act` and :meth:`diagonal_basis` stream
    the displacement kernel a bounded chunk at a time."""

    def __init__(self, spec: ChannelSpec, points: np.ndarray, point_scales: np.ndarray, cutoff: int,
                 index: QuadratureIndex, quadrature_defect: float):
        super().__init__(spec, None, index)
        self.points, self.point_scales, self.cutoff = points, point_scales, cutoff
        self.quadrature_defect = quadrature_defect

    def _operators_at(self, nodes: np.ndarray) -> np.ndarray:
        """``s_p D(x_p)`` at the node indices ``nodes`` alone, one kernel chunk at a time.  Node ``i`` is
        ``+-points[j]`` with the scale ``point_scales[j]``, ``j = |2 i + 1 - len| // 2`` counting out from
        the center; the kernel gives ``D(-x)`` as ``D(x)^T`` bit for bit."""
        scales = self.point_scales[np.abs(2 * nodes + 1 - len(self)) // 2]
        ops = np.empty((len(nodes), self.dim, self.dim), dtype=np.complex128)
        for part, stack in _displacement_chunks(self.index.nodes[nodes] / np.sqrt(2.0), self.dim):
            ops[part] = stack * scales[part, None, None]
        return ops

    @property
    def dim(self) -> int:
        return self.cutoff

    def defect(self, block: int | None) -> float:
        """The build defect on every nonempty block: the displacement factor is unitary, so only the
        Gaussian quadrature itself falls short of the completeness integral."""
        return 0.0 if block == 0 else self.quadrature_defect

    def _json_entries(self) -> tuple[int, int]:
        """A displacement fills its square."""
        return len(self) * self.dim**2, 0

    def act(self, mat: np.ndarray) -> np.ndarray:
        """``sum_p s_p^2 (D_p M D_p^T + D_p^T M D_p)`` over the nonnegative nodes, in real arithmetic.

        With ``S = diag((-1)^m)``, ``D_p = S D_p^T S``, so both terms are ``R(Y) = sum_p W_p^T Y W_p``
        (``W_p = s_p D_p``, real): ``R(Y)`` for the mirror term and ``S R(S Y S) S`` for the other, over
        ``Y`` in the real and (when not zero) imaginary parts of ``M``.  Per chunk of the real kernel,
        ``R(Y)`` takes a batched GEMM ``Y W_p`` and one ``W^T (Y W)`` over the chunk's flattened stack,
        so no more than two chunks are held at once.  The zero node of an odd count enters both terms
        at half weight.
        """
        n, sign = self.dim, (-1.0) ** np.arange(self.dim)
        parts = [np.ascontiguousarray(y) for y in ((mat.real, mat.imag) if np.any(mat.imag) else (mat.real,))]
        ys = parts + [y * sign * sign[:, None] for y in parts]
        scales = self.point_scales.copy()
        scales[:len(self) % 2] *= np.sqrt(0.5)
        out = np.zeros((len(ys), n, n))
        for part, stack in _displacement_chunks(self.points, n):
            stack *= scales[part, None, None]
            for term, y in zip(out, ys):
                term += stack.reshape(-1, n).T @ (y @ stack).reshape(-1, n)
        out = out[:len(parts)] + out[len(parts):] * sign * sign[:, None]
        return out[0] + 1j * out[1] if len(out) > 1 else out[0].astype(np.complex128)

    def diagonal_basis(self, tol: float) -> tuple[bool, str]:
        """:func:`fock._displaced_basis` over the nonnegative nodes: the product of a mirror operator is
        ``S`` times that of its twin times ``S``, with the same diagonal and entry magnitudes."""
        return _displaced_basis(self.points, self.point_scales, self.dim, tol)


def _band_table(spec: ChannelSpec, ell_max: int, n_cut: int) -> tuple[np.ndarray, str]:
    """Coefficient table ``(ell_max + 1, n_cut)`` and band orientation of a quantum-limited single-band
    family; the identity has one row.  C1 (A1 at kappa = 0) and C2 take one expression over their whole
    gain range: ``xlogy`` gives ``0 log 0 = 0``, and the ``exp`` of its ``-inf`` gives 0.  A build above
    ``MAX_DENSE_BYTES`` raises ``AllocationTooLarge`` first."""
    fam = spec.family
    if fam == "I":
        return np.ones((1, n_cut)), "upper"
    n_bytes = (ell_max + 1) * n_cut * 56  # peak bytes per entry of build and defect, D's the most (tracemalloc)
    if n_bytes > MAX_DENSE_BYTES:
        raise AllocationTooLarge(f"the table of {ell_max + 1} rows at N={n_cut} needs about {n_bytes:.3e} bytes")
    kappa = 0.0 if fam == "A1" else spec.kappa
    ell = np.arange(ell_max + 1)[:, None]
    m = np.arange(n_cut)[None, :]
    if fam == "D":
        coeffs = np.zeros((ell_max + 1, n_cut))
        ell, n = np.broadcast_arrays(ell, m)
        in_band = n <= ell
        ell, n = ell[in_band], n[in_band]
        coeffs[in_band] = np.exp(
            _log_binom_sqrt(ell, n)
            - 0.5 * (n + 1) * math.log1p(kappa**2)
            - 0.5 * (ell - n) * math.log1p(kappa**-2)
        )
        return coeffs, "anti"
    if fam == "C2":
        return np.exp(-math.log(kappa) + _log_binom_sqrt(m + ell, ell) + xlogy(0.5 * ell, 1.0 - kappa**-2)
                      - m * math.log(kappa)), "lower"
    return np.exp(_log_binom_sqrt(m + ell, ell) + xlogy(0.5 * ell, 1.0 - kappa**2) + xlogy(m, kappa)), "upper"


def _check_stack_bytes(n_ops: int, dim: int) -> None:
    """Raise ``AllocationTooLarge`` for a complex ``(n_ops, dim, dim)`` stack above ``MAX_DENSE_BYTES``."""
    n_bytes = n_ops * dim * dim * 16
    if n_bytes > MAX_DENSE_BYTES:
        raise AllocationTooLarge(f"dense stack of {n_ops} operators at N={dim} needs {n_bytes:.3e} bytes")


def _check_gram(count: int, need: int, have: int) -> None:
    if need > have:
        raise InvalidParameter(f"family has only {have} operators, need {need}")
    if count**4 * 16 > MAX_DENSE_BYTES:
        raise AllocationTooLarge(f"the Gram matrix of {count * count} products needs {count**4 * 16:.3e} bytes")


def _placement(coeffs: np.ndarray, band: str, labels: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Table row, row and column of every entry of a coefficient table whose rows are the operators
    ``labels`` (by default row ``l`` is operator ``l``; see the module docstring), whether or not it
    lands inside the square block."""
    k, j = np.indices(coeffs.shape)
    ell = k if labels is None else labels[k]
    rows, cols = {"anti": (ell - j, j), "upper": (j, j + ell), "lower": (j + ell, j)}[band]
    return k, rows, cols


def _square_placement(coeffs: np.ndarray, band: str, labels: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Table row, row, column and value of the table entries that land
    inside the square block."""
    dim = coeffs.shape[1]
    k, rows, cols = _placement(coeffs, band, labels)
    inside = (rows >= 0) & (rows < dim) & (cols < dim)
    return k[inside], rows[inside], cols[inside], coeffs[inside]


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


def _offset_step(pair: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """``sum_s pair[s, t] parts[..., s]``, by increasing source ``s``, the order of one dense block
    update per ``l``: ``np.einsum`` without ``optimize`` (so no BLAS) runs ``t`` innermost and adds
    the rows of ``pair`` in turn, with no ``pair``-sized temporary.  Its loops multiply and add
    unfused where numpy's baseline SIMD has no FMA (x86-64), as ``pair * parts[..., None]``
    reduced over ``s`` does, bit for bit."""
    return np.einsum("st,...s->...t", pair, parts)


def _diagonal_parts(square: np.ndarray, k: int, swap: bool = False) -> np.ndarray:
    """Float view ``[i, j, s]`` of a C-contiguous complex square matrix: part ``j``
    (real, imaginary) of entry ``s`` of its diagonal at offset ``+k`` (``i = 0``)
    and ``-k`` (``i = 1``, present for ``k > 0``); ``swap`` exchanges the two.
    Writing to the view writes to the matrix."""
    dim = square.shape[0]
    plus, minus = 16 * k, 16 * dim * k  # byte offsets of the first entries
    first, second = (minus, plus) if swap else (plus, minus)
    return np.ndarray((2 if k else 1, 2, dim - k), np.float64, square, first, (second - first, 8, 16 * dim + 16))
