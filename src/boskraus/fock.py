"""Truncated Fock-space linear algebra.

Everything in this package lives on the span of the number states
``|0>, ..., |N_cut - 1>``.  Conventions used throughout:

* quadratures obey ``[q, p] = i`` and ``alpha = (q + i p) / sqrt(2)``;
* covariances are reported in doubled units so the vacuum covariance is
  the identity and a thermal state has covariance ``a0 * I`` with
  ``a0 = 2 <n> + 1``;
* the displacement operator is ``D(xi) = exp(xi a^dag - conj(xi) a)`` and
  the Weyl characteristic function is ``chi_W(xi) = tr(D(xi) rho)``.

States carry an explicit ``tail_mass`` recording the probability that the
untruncated state assigns beyond the cutoff, so truncation error is never
silent.  A state also records its ``bandwidth``, scanned once on
construction.  A diagonal state (thermal, Fock, and their images under
the single-band channels) keeps only its vector of level populations, built
and checked by the private ``DensityMatrix._diagonal``; its matrix is built
on the first read of ``mat``.  ``DensityMatrix.diagonal`` reads the
populations of any state, and the readers of a diagonal state's populations
never build the matrix: :func:`trace_distance` of two of them
sorts the difference of their populations, ``analysis.thermal_estimate``
weighs them, and ``kraus.apply`` steps them under a banded family.  The
checks of such a state (:func:`_check_populations`), its trace and the
distance of two of them take a block of population rows as well, which is how
``analysis.iterate`` checks and measures the steps it never builds as states.

Gaussian Fock amplitudes come from two table kernels, each serving every
caller with one vectorized step per recurrence index over all points:
:func:`coherent_amplitudes` (coherent kets), which repeats the scalar
arithmetic it replaced bit for bit, and the displacement kernel
:func:`_real_displacement_stack`.  At a real point ``D(x)`` is real and
``D(x)^T = D(-x)``, so one triangle of real tables gives the matrix and its
mirror; a complex point turns the real matrix at its modulus by its phase
(:func:`_rotated_displacement_stack`).  :func:`_displacement_chunks` runs the
kernel a bounded chunk of points at a time for :func:`displacement_op`, the
B1 Kraus family (its action, its operators when read) and the B1
diagonality check (``analysis``), and :func:`_displaced_basis` decides that
check from the stream.  ``_ket_sum`` weighs a table of kets into
``sum_p w_p |k_p><k_p|`` by one GEMM: the action of a
rank-one Kraus family and the D classicality rebuild.  The quadrature rules
of the continuous-index families (Gauss-Hermite nodes, the polar disc grid)
live here too, beside the oscillator wavefunctions.  :func:`_quadrature_moments`
gives the exact Weyl-symmetric quadrature moments behind
``analysis.cumulants`` and ``phasespace.moments_from_density``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AllocationTooLarge, CutoffTooSmall, DimMismatch, InvalidParameter, OrderTooLarge, _count
from .special import eval_hermite, poisson_tail

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-2
MAX_DENSE_BYTES = 1 << 30  # the largest array a build may ask for
DISPLACEMENT_CHUNK_BYTES = 8 << 20  # tables of one chunk of a displacement stack
_ENTRY_BYTES = 24  # per point and matrix entry that a chunk is sized by; the kernels hold 16 (a table and a matrix)

_PI_QUARTER = np.pi ** (-0.25)


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """A complex matrix on the span of ``|0>, ..., |dim - 1>``.

    The recorded ``mat`` is read-only and no other array writes it: an array
    the caller passes in, or a view of one, is copied first.  So what is
    recorded about it (a state's ``bandwidth`` and checks) stays true.
    """

    mat: np.ndarray

    def __post_init__(self):
        mat = np.ascontiguousarray(self.mat, dtype=np.complex128)
        _check_square(mat.shape, mat)
        if mat.flags.writeable or mat.base is not None:
            mat = mat.copy() if mat is self.mat or mat.base is not None else mat
            mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        """The entries ``<n|op|n>``."""
        return np.diagonal(self.mat)


class _DiagonalOperator(TruncatedOperator):
    """The operator ``diag(values)``, kept as its own read-only copy of ``values`` (real, or complex
    when given so) and checked on it alone.  ``mat``, ``np.diag`` of the values as complex numbers,
    is built on first read and cached, read-only like every recorded matrix."""

    def __init__(self, values: np.ndarray):
        values = np.array(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
        _check_square((values.size, values.size), values)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @cached_property
    def mat(self) -> np.ndarray:
        mat = np.diag(self.values.astype(np.complex128))
        mat.flags.writeable = False
        return mat

    @property
    def dim(self) -> int:
        return self.values.size

    @property
    def diagonal(self) -> np.ndarray:
        return self.values


def _check_square(shape: tuple, entries: np.ndarray) -> None:
    """Raise ``InvalidParameter`` unless ``shape`` is square with at least 2 levels and ``entries``
    (the matrix, or the only entries that can be nonzero) are finite."""
    if len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidParameter(f"operator must be square, got shape {shape}")
    if shape[0] < 2:
        raise InvalidParameter("cutoff dimension must be at least 2")
    if not np.all(np.isfinite(entries)):
        raise InvalidParameter("operator entries must be finite")


def _diagonal_trace(values: np.ndarray) -> np.ndarray:
    """``np.trace`` of ``diag(v)`` for each row ``v`` of ``values`` (the levels last): the pairwise sum of
    the values as complex numbers, which rounds otherwise than the real pairwise sum of the same numbers."""
    return np.add.reduce(values.astype(np.complex128), axis=-1).real  # np.sum's own reduction


def _check_state(tail_mass, skew: float, lowest: float, tr: float) -> None:
    """The checks of a density operator, in order, from its ``tail_mass``, the largest entry of
    ``|rho - rho^dag|``, its lowest eigenvalue and its trace: ``tail_mass`` in [0, 1], Hermiticity,
    eigenvalue floor and the trace window that ``tail_mass`` allows (``InvalidParameter``)."""
    if not 0.0 <= tail_mass <= 1.0:
        raise InvalidParameter(f"tail_mass must be nonnegative and at most 1, got {tail_mass}")
    if skew > HERMITICITY_TOL:
        raise InvalidParameter("density matrix is not Hermitian to tolerance")
    if lowest < -EIGENVALUE_TOL:
        raise InvalidParameter(f"density matrix has eigenvalue {lowest:.3e} < -{EIGENVALUE_TOL}")
    if not (1.0 - tail_mass - TRACE_TOL <= tr <= 1.0 + TRACE_TOL):
        raise InvalidParameter(f"trace {tr:.12g} outside [{1.0 - tail_mass - TRACE_TOL:.12g}, {1.0 + TRACE_TOL:.12g}]")


def _check_populations(values: np.ndarray, tail_mass) -> None:
    """Check the states ``diag(v)``, one per row ``v`` of ``values`` (the levels last), with the tail
    mass ``tail_mass`` (an array of one per row, or one for all), as :class:`DensityMatrix` checks each:
    finite entries, then :func:`_check_state`.  A diagonal is Hermitian iff it is real, and is its own
    eigenvalues and trace.  The first failing row raises its first failing check; no row past a
    non-finite one is read."""
    rows = head = np.reshape(values, (-1, np.shape(values)[-1]))
    if not np.isfinite(rows).all():
        head = rows[:int(np.argmin(np.isfinite(rows).all(axis=1)))]
    skew = (2.0 * np.max(np.abs(head.imag), axis=1)).tolist() if np.iscomplexobj(head) else [0.0] * len(head)
    tails = tail_mass.tolist() if isinstance(tail_mass, np.ndarray) else [tail_mass] * len(rows)
    facts = zip(tails, skew, np.min(head.real, axis=1).tolist(), _diagonal_trace(head).tolist())
    for state in facts:
        _check_state(*state)
    if len(head) < len(rows):
        raise InvalidParameter("operator entries must be finite")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A truncated density operator with its recorded out-of-cutoff mass.

    Invariants checked on construction: ``tail_mass`` in [0, 1], Hermiticity
    to 1e-12 entrywise, eigenvalues above -1e-10, and trace within the window
    allowed by ``tail_mass``.  The construction scans the matrix once for its
    :func:`bandwidth` and records it as ``bandwidth``, which the checks,
    ``kraus.apply`` and :func:`trace_distance` read; the matrix is
    read-only (:class:`TruncatedOperator`).  A state that is diagonal in the
    Fock basis is checked on its :attr:`diagonal`: it is Hermitian iff that
    is real, and has it for eigenvalues and its sum for trace, with no LAPACK
    call.  The thermal and Fock states and a banded family's
    image of a diagonal state are built by :meth:`_diagonal` from their
    populations alone, and build no matrix until ``mat`` is read.
    """

    op: TruncatedOperator
    tail_mass: float = 0.0
    bandwidth: int = field(init=False, repr=False)

    def __post_init__(self):
        if not hasattr(self, "bandwidth"):  # recorded beforehand by the diagonal path
            object.__setattr__(self, "bandwidth", bandwidth(self.op.mat))
        if self.bandwidth == 0:  # the zeros around the diagonal pass every check
            _check_populations(self.op.diagonal, self.tail_mass)
            return
        mat = self.op.mat
        _check_state(self.tail_mass, np.max(np.abs(mat - mat.conj().T)), np.linalg.eigvalsh(mat).min(),
                     float(np.trace(mat).real))

    @classmethod
    def _diagonal(cls, values: np.ndarray, tail_mass: float) -> "DensityMatrix":
        """The state ``diag(values)``, which keeps a copy of ``values`` and is checked on it alone.

        Each check of the constructor (square with 2 levels, finite entries, ``tail_mass`` in [0, 1],
        Hermiticity, eigenvalue floor, trace window) runs on the vector with the same tolerance and
        message, so it gives the verdict it gives on the whole matrix, which is never built here.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "op", _DiagonalOperator(values))
        object.__setattr__(rho, "tail_mass", tail_mass)
        object.__setattr__(rho, "bandwidth", 0)
        rho.__post_init__()
        return rho

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def dim(self) -> int:
        return self.op.dim

    @property
    def diagonal(self) -> np.ndarray:
        """The level populations ``<n|rho|n>``, read-only: the vector a diagonal state keeps, or
        the real part of the matrix's diagonal."""
        return self.op.diagonal.real


def bandwidth(mat: np.ndarray) -> int:
    """Largest ``|m - n|`` over the nonzero entries ``mat[m, n]``; 0 for a diagonal or zero matrix.

    A matrix whose off-diagonal words are all zero bits is diagonal, which one count of the
    nonzero words tells; any other matrix is scanned row by row (``-0.0`` is zero there).
    """
    square = np.ascontiguousarray(mat, dtype=np.complex128)
    words = square.view(np.uint64).reshape(*square.shape, 2)
    if np.count_nonzero(words) == np.count_nonzero(np.diagonal(words)):
        return 0
    parts = square.view(np.float64) != 0
    nonzero = parts.view(np.uint16) != 0  # an entry is nonzero iff either of its parts is
    first = nonzero.argmax(axis=1)  # first and last nonzero column of each row
    last = len(nonzero) - 1 - nonzero[:, ::-1].argmax(axis=1)
    rows = np.arange(len(nonzero))
    return int(np.max(np.where(nonzero.any(axis=1), np.maximum(rows - first, last - rows), 0), initial=0))


def _check_tail(tail: float, tail_tol: float, what: str) -> None:
    if tail > tail_tol:
        raise CutoffTooSmall(f"{what}: tail mass {tail:.3e} exceeds {tail_tol:.3e}; raise the cutoff")


def fock_state(n: int, n_cut: int) -> DensityMatrix:
    """Number state ``|n><n|``."""
    populations = np.zeros(_count(n_cut, "n_cut", _count(n, "n") + 1))
    populations[n] = 1.0
    return DensityMatrix._diagonal(populations, 0.0)


def coherent_amplitudes(alpha: complex | np.ndarray, n_cut: int) -> np.ndarray:
    """Fock amplitudes ``<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!)``, shape ``shape(alpha) + (n_cut,)``.

    One step of ``v_n = v_(n-1) alpha / sqrt(n)`` per ``n`` serves all points, in real arithmetic that
    repeats NumPy's scalar complex multiply and divide operation by operation (its array complex multiply
    rounds differently): every entry equals the scalar loop bit for bit, signs of zero included.
    Every point must be finite (``InvalidParameter``), and a table whose readers (:func:`q_function`)
    would pass ``MAX_DENSE_BYTES`` raises ``AllocationTooLarge``, both before anything is allocated.
    """
    a = np.asarray(alpha, dtype=np.complex128)
    n_bytes = a.size * n_cut * 65  # q_function's peak bytes per point and level (tracemalloc)
    if n_bytes > MAX_DENSE_BYTES:
        raise AllocationTooLarge(f"the amplitudes of {a.size} points at N={n_cut} need about {n_bytes:.3e} bytes")
    if not np.isfinite(a).all():
        raise InvalidParameter(f"coherent amplitudes need finite points, got {a[~np.isfinite(a)][0]}")
    ar, ai = a.real[()], a.imag[()]  # NumPy scalars for a scalar alpha
    parts = np.empty((2, n_cut) + a.shape)
    parts[0, 0], parts[1, 0] = re, im = 1.0, 0.0
    for n, scale in enumerate(1.0 / np.sqrt(np.arange(1, n_cut)), 1):
        pr, pi = re * ar - im * ai, re * ai + im * ar
        re, im = (pr + pi * 0.0) * scale, (pi - pr * 0.0) * scale  # NumPy's division by (sqrt(n), 0)
        parts[0, n], parts[1, n] = re, im
    v = np.empty((n_cut,) + a.shape, dtype=np.complex128)
    v.real, v.imag = parts
    gauss = np.exp(-0.5 * np.array([abs(z) ** 2 for z in a.ravel().tolist()]).reshape(a.shape))
    return np.ascontiguousarray(np.moveaxis(v * gauss, 0, -1))


def _ket_sum(kets: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``sum_p weights[p] |k_p><k_p|`` over the rows ``k_p`` of ``kets``: one GEMM ``(K^T diag(w)) conj(K)``."""
    return (kets.T * weights) @ kets.conj()


def coherent_state(alpha: complex, n_cut: int, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityMatrix:
    """Coherent state ``|alpha><alpha|`` with exact Poissonian tail mass."""
    _count(n_cut, "n_cut")
    tail = poisson_tail(abs(alpha) ** 2, n_cut)
    _check_tail(tail, tail_tol, f"coherent({alpha})")
    if n_cut < 2:  # the state check's verdict, before the amplitudes index level 0 (a nan tail passes above)
        raise InvalidParameter("cutoff dimension must be at least 2")
    v = coherent_amplitudes(alpha, n_cut)
    return DensityMatrix(TruncatedOperator(np.outer(v, v.conj())), tail)


def thermal_state(a0: float, n_cut: int, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityMatrix:
    """Thermal state with covariance parameter ``a0 = 2 <n> + 1``.

    Diagonal ``(1 - x) x^n`` with ``x = (a0 - 1) / (a0 + 1)``; the mass
    beyond the cutoff is exactly ``x^n_cut``.
    """
    _count(n_cut, "n_cut")
    if a0 < 1.0:
        raise InvalidParameter(f"thermal parameter must satisfy a0 >= 1, got {a0}")
    x = (a0 - 1.0) / (a0 + 1.0)
    tail = x**n_cut
    _check_tail(tail, tail_tol, f"thermal({a0})")
    diag = (1.0 - x) * x ** np.arange(n_cut)
    return DensityMatrix._diagonal(diag, tail)


def random_mixed_state(seed: int, rank: int, n_cut: int) -> DensityMatrix:
    """Random rank-``rank`` mixed state supported inside the cutoff."""
    _count(n_cut, "n_cut", _count(rank, "rank", 1))
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n_cut, rank)) + 1j * rng.normal(size=(n_cut, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityMatrix(TruncatedOperator(mat), 0.0)


def state_new(kind: str, n_cut: int, *, n: int = 0, alpha: complex = 0.0, a0: float = 1.0) -> DensityMatrix:
    """Dispatch constructor used by the CLI: ``kind`` is ``fock`` (level ``n``),
    ``coherent`` (amplitude ``alpha``) or ``thermal`` (parameter ``a0``); the
    last two allow a tail mass up to ``DEFAULT_TAIL_TOL``."""
    if kind == "fock":
        return fock_state(n, n_cut)
    if kind == "coherent":
        return coherent_state(alpha, n_cut)
    if kind == "thermal":
        return thermal_state(a0, n_cut)
    raise InvalidParameter(f"unknown state kind {kind!r}")


def _abs_squared(z) -> float:
    """``abs(z) ** 2`` as the scalar code computes it (``np.abs`` of an array rounds differently),
    infinite where the square overflows."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def _check_displacement_cutoff(n_cut) -> None:
    """A displacement cutoff is an integer of at least 2 (``InvalidParameter``); above 1020 the
    Laguerre table of :func:`displacement_op` overflows (``OrderTooLarge``)."""
    if _count(n_cut, "displacement cutoff", 2) > 1020:
        raise OrderTooLarge(f"displacement cutoff limited to 1020, got {n_cut}")


def _displacement_points(xi, n_cut: int) -> tuple[np.ndarray, np.ndarray, object]:
    """Check every point of ``xi`` and the cutoff; return the points flattened, their ``|xi|^2`` and
    the kernel that makes their matrices: :func:`_real_displacement_stack` for real points,
    :func:`_rotated_displacement_stack` for complex ones."""
    _check_displacement_cutoff(n_cut)
    points = np.asarray(xi)
    if points.dtype.kind not in "iufc":
        raise InvalidParameter(f"displacement argument must be a number, got {xi!r}")
    points = points.ravel()
    x = np.array([_abs_squared(z) for z in points.tolist()], dtype=float)
    bad = np.flatnonzero(~(x * n_cut <= 1e6))
    if bad.size:
        if np.isnan(x[bad[0]]):
            raise InvalidParameter(f"displacement argument must be finite, got {points[bad[0]]}")
        raise InvalidParameter(f"displacement argument too large: |xi|^2 = {x[bad[0]]:.3e}")
    return points, x, _rotated_displacement_stack if points.dtype.kind == "c" else _real_displacement_stack


def _displacement_chunks(xi, n_cut: int):
    """Check every point of ``xi`` and the cutoff, then return an iterator of ``(part, stack)``.

    ``stack[i]`` is the matrix of ``D(xi.ravel()[part][i])``; consecutive parts cover the points in
    order.  Real points give real matrices (:func:`_real_displacement_stack`) and complex points
    complex ones, the real matrix at ``|xi|`` rotated (:func:`_rotated_displacement_stack`).  The
    arrays of one chunk take about ``DISPLACEMENT_CHUNK_BYTES`` (at least one point), so a caller
    that copies each chunk into its own array holds little more than that array.
    """
    points, x, kernel = _displacement_points(xi, n_cut)
    step = max(1, DISPLACEMENT_CHUNK_BYTES // (_ENTRY_BYTES * n_cut**2))
    parts = [slice(s, min(s + step, points.size)) for s in range(0, points.size, step)]
    return ((part, kernel(points[part], x[part], n_cut)) for part in parts)


def _real_displacement_stack(xi: np.ndarray, x: np.ndarray, n_cut: int, out: np.ndarray | None = None) -> np.ndarray:
    """The real matrices ``D(xi[i])`` of real points ``xi`` (``x[i] = xi[i]^2``), shape ``(P, N, N)``.

    :func:`displacement_op`'s closed form read from ``[k, delta]`` tables (smaller label, offset
    ``|m - n|``) with a leading axis over the points: one Laguerre step per ``k`` and one prefactor
    step per ``delta`` serve every point.  A real point has a real chain ``xi^delta / sqrt(delta!)``
    and ``-conj(xi) = -xi``, so the ``m < n`` triangle is the ``m > n`` one transposed, times
    ``(-1)^(n - m)``: ``D(xi)^T = D(-xi) = S D(xi) S`` with ``S = diag((-1)^m)``, and one real
    prefactor table gives both triangles.  Each Laguerre row is multiplied into the table as the
    recurrence makes it, and the triangles are copied out a band of rows at a time, so the table and
    the matrices are the only arrays of their size.  Given a complex ``out`` of the result's shape,
    the matrices are written to it as complex numbers and the table is kept in its imaginary parts,
    which end zero: the result then takes no memory beyond ``out``.
    """
    points, levels = xi.size, np.arange(n_cut)
    shape = (points, n_cut, n_cut)
    real, pref = (np.empty(shape), np.empty(shape)) if out is None else (out.real, out.imag)
    pref[:, 0, 0] = 1.0
    pref[:, 0, 1:] = np.cumprod(xi[:, None] / np.sqrt(levels[1:]), axis=1)
    ratio = pref[0, 1:]  # sqrt(k / (k + delta)) for k >= 1, made once and copied to every point
    np.add(levels[1:, None], levels, out=ratio)
    np.divide(levels[1:, None], ratio, out=ratio)
    np.sqrt(ratio, out=ratio)
    pref[1:, 1:] = ratio
    np.cumprod(pref, axis=1, out=pref)
    # L_k^(delta)(x) for k + delta < N, by the stable upward recurrence in k; the table entries past
    # k + delta = N - 1 are never read
    before, lag = np.zeros((points, n_cut - 1)), np.ones((points, n_cut - 1))  # L_(-1) = 0, L_0 = 1
    for k in range(n_cut - 1):
        w = n_cut - 1 - k
        d = levels[:w]
        before, lag = lag, ((2 * k + 1 + d - x[:, None]) * lag[:, :w] - (k + d) * before[:, :w]) / (k + 1)
        pref[:, k + 1, :w] *= lag
    pref *= np.exp(-0.5 * x)[:, None, None]
    # skew[i, m, n] = pref[i, m, n - m]: for m <= n the magnitude of entry (m, n), and for m >= n that of
    # entry (n, m), a strided view of the table; the sign (-1)^(n - m) of the m < n triangle is a product
    skew = np.lib.stride_tricks.as_strided(pref, shape, (pref.strides[0], pref.strides[1] - pref.strides[2],
                                                         pref.strides[2]))
    band = max(1, n_cut // 8)  # numpy copies a band first when the table shares the buffer of ``out``
    for rows in (slice(s, s + band) for s in range(0, n_cut, band)):
        m = levels[rows, None]
        np.multiply(skew[:, rows], np.where((m < levels) & (m % 2 != levels % 2), -1.0, 1.0), out=real[:, rows])
        np.copyto(real[:, rows], skew.swapaxes(1, 2)[:, rows], where=m > levels)
    if out is None:
        return real
    pref[...] = 0.0
    return out


def _rotated_displacement_stack(xi: np.ndarray, x: np.ndarray, n_cut: int,
                                out: np.ndarray | None = None) -> np.ndarray:
    """The complex matrices ``D(xi[i])`` (``x[i] = |xi[i]|^2``), shape ``(P, N, N)``, in ``out`` when given.

    Rotation covariance, ``D(r u) = R D(r) R^dag`` with ``R = diag(u^m)``, ``r = |xi|`` and
    ``u = xi / r`` (1 at 0), makes entry ``(m, n)`` the real matrix's times ``u^(m - n)``.  Each part
    of ``xi`` is divided by the real ``r`` (a complex division would overflow at subnormal points),
    and the powers of ``u`` come from one product chain per point.  The real matrices are made in the
    result's own buffer and turned in place.
    """
    r = np.abs(xi)
    u = np.ones_like(xi)
    np.divide(xi.real, r, out=u.real, where=r > 0)
    np.divide(xi.imag, r, out=u.imag, where=r > 0)
    turns = np.ones((xi.size, 2 * n_cut - 1), dtype=np.complex128)  # u^(m - n) at column n_cut - 1 + m - n
    np.cumprod(np.broadcast_to(u[:, None], (xi.size, n_cut - 1)), axis=1, out=turns[:, n_cut:])
    np.conjugate(turns[:, n_cut:][:, ::-1], out=turns[:, :n_cut - 1])
    if out is None:
        out = np.empty((xi.size, n_cut, n_cut), dtype=np.complex128)
    _real_displacement_stack(r, x, n_cut, out)
    # toeplitz[i, m, n] = turns[i, n_cut - 1 + m - n]
    toeplitz = np.lib.stride_tricks.as_strided(turns[:, n_cut - 1:], out.shape,
                                               (turns.strides[0], turns.strides[1], -turns.strides[1]))
    return np.multiply(toeplitz, out, out=out)


def _frobenius(ops: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack."""
    return np.sqrt(np.abs(np.einsum("lij,lij->l", ops, ops.conj())))


def _displaced_basis(points: np.ndarray, scales: np.ndarray, dim: int, tol: float) -> tuple[bool, str]:
    """The verdict of :meth:`families.KrausFamily.diagonal_basis` for operators ``scales[p] D(points[p])``
    re-evaluated by :func:`_displacement_chunks` with ``n_ext > dim`` rows, one chunk at a time: their first
    ``dim`` columns, scaled to the Frobenius norm ``scales[p]`` times that of the square ``D(points[p])``,
    give the products.  A displacement's product is near a multiple of the identity on
    ``dim >= 2`` levels, never a rank-one position projector, so the tag is ``fock`` or ``any`` when every
    product is diagonal, and ``none`` otherwise."""
    n_ext = int(np.ceil(1.2 * (float(np.max(np.abs(points))) + np.sqrt(dim)) ** 2)) + 8
    top, off, diags = 1e-300, 0.0, []
    level = np.arange(dim)
    for part, stack in _displacement_chunks(points, n_ext):
        cols = stack[:, :, :dim]
        target = scales[part] * _frobenius(stack[:, :dim, :dim])
        cols = cols * (target / np.maximum(_frobenius(cols), 1e-300))[:, None, None]
        mags = np.abs(np.swapaxes(cols.conj(), 1, 2) @ cols)
        top = max(top, float(np.max(mags)))
        diags.append(mags[:, level, level])
        mags[:, level, level] = 0.0
        off = max(off, float(np.max(mags)))
    return _fock_or_any(np.concatenate(diags), tol * top) if off < tol * top else (False, "none")


def _fock_or_any(diags: np.ndarray, limit: float) -> tuple[bool, str]:
    """The basis tag of products diagonal in the Fock basis: ``any`` when each diagonal is flat to ``limit``."""
    return True, "any" if np.max(np.abs(diags - diags[:, :1]), initial=0.0) < limit else "fock"


def displacement_op(xi: complex, n_cut: int) -> TruncatedOperator:
    """Matrix of ``D(xi) = exp(xi a^dag - conj(xi) a)`` on the truncated space.

    Entries are evaluated from the associated-Laguerre closed form

        <m|D(xi)|n> = sqrt(n!/m!) xi^(m-n) L_n^(m-n)(|xi|^2) e^(-|xi|^2/2)   (m >= n)

    with the ``m < n`` triangle given by ``sqrt(m!/n!)(-conj(xi))^(n-m)
    L_m^(n-m)(|xi|^2) e^(-|xi|^2/2)``.  Every entry is read from tables indexed
    ``[k, delta]`` (smaller label, offset ``|m - n|``).  The Laguerre table
    depends on ``|xi|^2`` only and serves both triangles; a stable upward
    recurrence fills it, one vector step per ``k`` across all offsets.  No
    factorial ratios of large arguments are formed.  A real ``xi`` gives its
    real matrix; a complex one the real matrix at ``|xi|`` with entry
    ``(m, n)`` times ``u^(m - n)``, ``u = xi / |xi|``.  This is a one-point
    call of the kernel that the B1 family streams for its action, its
    operators and its diagonality check.

    The cutoff must be an integer of at least 2 and ``xi`` a finite number with
    ``|xi|^2 n_cut <= 1e6`` (``InvalidParameter``, before anything is
    allocated).  Above a cutoff of 1020 the unscaled table
    (``L_k^(delta)(0) = C(k + delta, k)``) overflows: ``OrderTooLarge``.
    """
    if np.ndim(xi) != 0:
        raise InvalidParameter(f"displacement_op takes one point, got shape {np.shape(xi)}")
    points, x, kernel = _displacement_points(xi, n_cut)
    mat = np.empty((n_cut, n_cut), dtype=np.complex128)
    kernel(points, x, n_cut, mat[None])
    mat.flags.writeable = False  # the kernel's views of it are gone, so nothing else writes it
    return TruncatedOperator(mat)


def char_weyl(rho: DensityMatrix, xi: complex) -> complex:
    """Weyl-ordered characteristic function ``tr(D(xi) rho)``, as ``sum(D * rho^T)`` over the matrix.

    ``analysis.cumulants`` gives the derivatives of its logarithm at 0 exactly, from quadrature
    moments, without evaluating it.
    """
    d = displacement_op(xi, rho.dim).mat
    return complex(np.sum(d * rho.mat.T))


def q_function(rho: DensityMatrix, alpha: complex | np.ndarray) -> float | np.ndarray:
    """Husimi function without the 1/pi, ``Q(alpha) = <alpha|rho|alpha>``: ``v^dag rho v`` for every
    point of ``alpha`` by two stacked matmuls, which make the vector-matrix and dot calls of the
    per-point product ``v.conj() @ rho.mat @ v``, so each value is its value bit for bit."""
    kets = coherent_amplitudes(alpha, rho.dim)
    flat = kets.reshape(-1, rho.dim)
    vals = ((flat.conj()[:, None, :] @ rho.mat) @ flat[:, :, None]).real.reshape(-1)
    if np.min(vals, initial=0.0) < -1e-12:
        raise InvalidParameter(f"Q function came out negative: {vals.min():.3e}")
    return float(vals[0]) if kets.ndim == 1 else vals.reshape(kets.shape[:-1])


def hermite_psi_table(n_max: int, x) -> np.ndarray:
    """All L2-normalized oscillator wavefunctions ``psi_n(x)`` for ``n = 0..n_max``; shape
    ``(n_max+1,) + shape(x)``.

    ``psi_0 = pi^(-1/4) exp(-x^2/2)`` and
    ``psi_(n+1) = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_(n-1)``.
    The Gaussian weight here is exp(-x^2/2); the squared weight that
    sometimes appears in print is not normalizable against H_n.
    """
    if _count(n_max, "order") > 2000:
        raise OrderTooLarge("oscillator wavefunction order limited to 2000")
    xs = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xs.shape)
    out[0], before = _PI_QUARTER * np.exp(-0.5 * xs**2), 0.0  # psi_0 and the zero seed psi_(-1)
    for n in range(n_max):
        out[n + 1], before = np.sqrt(2.0 / (n + 1)) * xs * out[n] - np.sqrt(n / (n + 1)) * before, out[n]
    return out


def _gauss_hermite(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.special.roots_hermite(node_count)``: nodes and weights for ``integral e^(-x^2) f(x) dx``.

    Up to 150 nodes scipy solves the Golub-Welsch eigenproblem with
    ``scipy.linalg.eigvals_banded``.  This repeats its steps with
    ``np.linalg.eigvalsh`` on the same tridiagonal matrix and
    ``special.eval_hermite`` (the same bits for every count from 1 to 150): one
    Newton step on the eigenvalues, the log-normalized weight formula,
    symmetrization and normalization to ``sqrt(pi)``.  Above 150 scipy's
    asymptotic rule needs Airy zeros: that branch alone imports
    ``scipy.special``, and calls it as it is.
    """
    n = _count(node_count, "node count", 1)
    if n > 150:
        from scipy.special import roots_hermite

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


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``(1/2) ||rho - sigma||_1`` from the eigenvalues of ``rho - sigma``.

    When both states are diagonal (their recorded ``bandwidth`` is 0) the eigenvalues are the
    sorted difference of their populations (:attr:`DensityMatrix.diagonal`), and neither matrix
    is read.
    """
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dims differ: {rho.dim} vs {sigma.dim}")
    if rho.bandwidth == sigma.bandwidth == 0:
        return float(_population_distance(rho.diagonal, sigma.diagonal))
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat))))


def _population_distance(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The trace distance of ``diag(p)`` and ``diag(q)`` for each pair of rows (the levels last): half the
    sum of ``|p - q|`` in the sorted order in which ``eigvalsh`` would list the eigenvalues."""
    return 0.5 * np.sum(np.abs(np.sort(p - q, axis=-1)), axis=-1)


def _quadrature_moments(rho: DensityMatrix, max_order: int) -> np.ndarray:
    """Weyl-symmetric moments ``mu[m1, m2]`` of ``Y1 = -sqrt(2) p``, ``Y2 = sqrt(2) q``; NaN above ``max_order``.

    ``tr(rho A^n)`` with ``A = cos t Y1 + sin t Y2 = c a + conj(c) a^dag``, ``c = sin t + i cos t``,
    is ``sum_k C(n, k) cos^k t sin^(n-k) t mu[k, n - k]``: its values at ``n + 1`` angles give the
    moments of order ``n`` by one binomial solve.  ``A`` is tridiagonal, so each power is two
    shifted-slice products on the columns of ``rho``, padded by ``max_order`` levels that hold
    every ``A^n rho`` exactly.  The moments are divided by ``tr rho``.
    """
    root = np.sqrt(np.arange(1.0, rho.dim + max_order))[:, None]  # <m|a|m+1>
    mu = np.full((max_order + 1, max_order + 1), np.nan)
    for order in range(max_order + 1):
        theta = np.pi * np.arange(order + 1) / (order + 1)
        c = (np.sin(theta) + 1j * np.cos(theta))[:, None, None]
        power = np.zeros((order + 1, root.size + 1, rho.dim), dtype=complex)
        power[:, :rho.dim] = rho.mat
        for _ in range(order):
            nxt = np.zeros_like(power)
            nxt[:, :-1] = c * root * power[:, 1:]
            nxt[:, 1:] += c.conj() * root * power[:, :-1]
            power = nxt
        k = np.arange(order + 1)
        binom = np.array([math.comb(order, j) for j in k])
        system = binom * np.cos(theta)[:, None] ** k * np.sin(theta)[:, None] ** (order - k)
        mu[k, order - k] = np.linalg.solve(system, np.einsum("aii->a", power[:, :rho.dim]).real)
    return mu / mu[0, 0]
