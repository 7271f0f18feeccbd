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
construction.  A diagonal state (thermal, Fock, phase-averaged, and their
images under the single-band channels) is checked and compared on its
diagonal: its eigenvalues are its sorted diagonal, :func:`trace_distance` of
two of them sorts the difference of their diagonals, and ``kraus.apply``
builds a banded family's image of one through the private
``DensityMatrix._diagonal``, which runs every check on the diagonal alone.

Gaussian Fock amplitudes come from two table kernels, each serving every
caller with one vectorized step per recurrence index over all points:
:func:`coherent_amplitudes` (coherent kets) and the displacement stack behind
:func:`displacement_op`, which also builds the B1 Kraus operators
(``kraus.build_continuous``), the B1 diagonality check and the cumulant grid
(``analysis``) a bounded chunk of points at a time.  Both repeat the scalar
arithmetic they replaced, so every value is the same bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammainc, gammaln

from .errors import (
    CutoffTooSmall,
    DimMismatch,
    InvalidParameter,
    OrderTooLarge,
)

HERMITICITY_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
TRACE_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-2
DISPLACEMENT_CHUNK_BYTES = 8 << 20  # tables of one chunk of a displacement stack
_DISPLACEMENT_ENTRY_BYTES = 56  # per point and matrix entry: Laguerre 8, prefactors 2 x 16, gathered 16

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
        _check_square(mat, mat)
        if mat.flags.writeable or mat.base is not None:
            mat = mat.copy() if mat is self.mat or mat.base is not None else mat
            mat.flags.writeable = False
        object.__setattr__(self, "mat", mat)

    @classmethod
    def _diagonal(cls, mat: np.ndarray) -> "TruncatedOperator":
        """The operator of ``mat``, a C-contiguous complex square matrix whose off-diagonal entries
        are ``np.zeros`` that nothing wrote, with its entries checked on the diagonal alone; ``mat``
        becomes read-only."""
        _check_square(mat, np.diagonal(mat))
        mat.flags.writeable = False
        op = object.__new__(cls)
        object.__setattr__(op, "mat", mat)
        return op

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "re": self.mat.real.ravel().tolist(),
            "im": self.mat.imag.ravel().tolist(),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TruncatedOperator":
        dim = int(data["dim"])
        mat = np.asarray(data["re"], dtype=float) + 1j * np.asarray(data["im"], dtype=float)
        return TruncatedOperator(mat.reshape(dim, dim))


def _check_square(mat: np.ndarray, entries: np.ndarray) -> None:
    """Raise ``InvalidParameter`` unless ``mat`` is square with at least 2 levels and ``entries``
    (the matrix, or the only entries that can be nonzero) are finite."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidParameter(f"operator must be square, got shape {mat.shape}")
    if mat.shape[0] < 2:
        raise InvalidParameter("cutoff dimension must be at least 2")
    if not np.all(np.isfinite(entries)):
        raise InvalidParameter("operator entries must be finite")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A truncated density operator with its recorded out-of-cutoff mass.

    Invariants checked on construction: Hermiticity to 1e-12 entrywise,
    eigenvalues above -1e-10, and trace within the window allowed by
    ``tail_mass``.  The construction scans the matrix once for its
    :func:`bandwidth` and records it as ``bandwidth``, which the checks,
    ``kraus.apply`` and :func:`trace_distance` read; the matrix is
    read-only (:class:`TruncatedOperator`).  The eigenvalues of a state that is
    diagonal in the Fock basis (thermal, Fock, phase-averaged, and their
    images under the single-band channels) are its sorted diagonal, with no
    LAPACK call, and its Hermiticity is read off the diagonal.  A banded
    family's image of a diagonal state is built by :meth:`_diagonal`, which
    runs every check on the diagonal alone.
    """

    op: TruncatedOperator
    tail_mass: float = 0.0
    bandwidth: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.tail_mass < 0:
            raise InvalidParameter("tail_mass must be nonnegative")
        mat = self.op.mat
        if not hasattr(self, "bandwidth"):  # recorded beforehand by the diagonal path
            object.__setattr__(self, "bandwidth", bandwidth(mat))
        # a diagonal matrix is Hermitian iff its diagonal is real: the zeros around it pass
        part = np.diagonal(mat) if self.bandwidth == 0 else mat
        if np.max(np.abs(part - part.conj().T)) > HERMITICITY_TOL:
            raise InvalidParameter("density matrix is not Hermitian to tolerance")
        evals = _eigvals(mat, self.bandwidth)
        if evals.min() < -EIGENVALUE_TOL:
            raise InvalidParameter(f"density matrix has eigenvalue {evals.min():.3e} < -{EIGENVALUE_TOL}")
        tr = float(np.trace(mat).real)
        if not (1.0 - self.tail_mass - TRACE_TOL <= tr <= 1.0 + TRACE_TOL):
            raise InvalidParameter(
                f"trace {tr:.12g} outside [{1.0 - self.tail_mass - TRACE_TOL:.12g}, {1.0 + TRACE_TOL:.12g}]"
            )

    @classmethod
    def _diagonal(cls, mat: np.ndarray, tail_mass: float) -> "DensityMatrix":
        """The state of ``mat``, a C-contiguous complex square matrix whose off-diagonal entries
        are ``np.zeros`` that nothing wrote, checked on its diagonal alone.

        Zeros are finite, and a matrix that is zero off its diagonal is Hermitian iff its diagonal
        is real, has its diagonal for eigenvalues and its diagonal's sum for trace.  So each check
        of the constructor (finite entries, ``tail_mass`` sign, Hermiticity, eigenvalue floor,
        trace window), run on the diagonal with the same tolerance and message, gives the verdict
        it gives on the whole matrix, which is never scanned.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "op", TruncatedOperator._diagonal(mat))
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

    def to_json_dict(self) -> dict:
        out = self.op.to_json_dict()
        out["tail_mass"] = float(self.tail_mass)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "DensityMatrix":
        return DensityMatrix(TruncatedOperator.from_json_dict(data), float(data.get("tail_mass", 0.0)))


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


def hermitian_eigvals(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, as ``np.linalg.eigvalsh`` returns them.

    A diagonal matrix (bandwidth 0) gives its sorted real diagonal without a
    LAPACK call.  LAPACK's reduction leaves such a matrix as it is, so it
    returns the same values (signs of zero aside), unless the largest entry
    lies outside about ``[1e-146, 1e146]``: there it rescales the matrix and
    rounds, and the sorted diagonal is the exact answer.
    """
    return _eigvals(mat, bandwidth(mat))


def _eigvals(mat: np.ndarray, band: int) -> np.ndarray:
    """:func:`hermitian_eigvals` of a matrix whose :func:`bandwidth` is ``band``."""
    if band == 0:
        return np.sort(np.diagonal(mat).real)
    return np.linalg.eigvalsh(mat)


def _check_tail(tail: float, tail_tol: float, what: str) -> None:
    if tail > tail_tol:
        raise CutoffTooSmall(f"{what}: tail mass {tail:.3e} exceeds {tail_tol:.3e}; raise the cutoff")


def fock_state(n: int, n_cut: int) -> DensityMatrix:
    """Number state ``|n><n|``."""
    if not 0 <= n < n_cut:
        raise InvalidParameter(f"need 0 <= n < n_cut, got n={n}, n_cut={n_cut}")
    mat = np.zeros((n_cut, n_cut), dtype=np.complex128)
    mat[n, n] = 1.0
    return DensityMatrix(TruncatedOperator(mat), 0.0)


def coherent_amplitudes(alpha: complex | np.ndarray, n_cut: int) -> np.ndarray:
    """Fock amplitudes ``<n|alpha> = exp(-|alpha|^2/2) alpha^n / sqrt(n!)``, shape ``shape(alpha) + (n_cut,)``.

    One step of ``v_n = v_(n-1) alpha / sqrt(n)`` per ``n`` serves all points, in real arithmetic that
    repeats NumPy's scalar complex multiply and divide operation by operation (its array complex multiply
    rounds differently): every entry equals the scalar loop bit for bit, signs of zero included.
    """
    a = np.asarray(alpha, dtype=np.complex128)
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


def _poisson_tail(lam: float, n_cut: int) -> float:
    # P(Poisson(lam) >= n_cut), regularized lower incomplete gamma.
    return float(gammainc(n_cut, lam))


def coherent_state(alpha: complex, n_cut: int, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityMatrix:
    """Coherent state ``|alpha><alpha|`` with exact Poissonian tail mass."""
    tail = _poisson_tail(abs(alpha) ** 2, n_cut)
    _check_tail(tail, tail_tol, f"coherent({alpha})")
    v = coherent_amplitudes(alpha, n_cut)
    return DensityMatrix(TruncatedOperator(np.outer(v, v.conj())), tail)


def thermal_state(a0: float, n_cut: int, tail_tol: float = DEFAULT_TAIL_TOL) -> DensityMatrix:
    """Thermal state with covariance parameter ``a0 = 2 <n> + 1``.

    Diagonal ``(1 - x) x^n`` with ``x = (a0 - 1) / (a0 + 1)``; the mass
    beyond the cutoff is exactly ``x^n_cut``.
    """
    if a0 < 1.0:
        raise InvalidParameter(f"thermal parameter must satisfy a0 >= 1, got {a0}")
    x = (a0 - 1.0) / (a0 + 1.0)
    tail = x**n_cut
    _check_tail(tail, tail_tol, f"thermal({a0})")
    diag = (1.0 - x) * x ** np.arange(n_cut)
    return DensityMatrix(TruncatedOperator(np.diag(diag.astype(np.complex128))), tail)


def phase_averaged_state(lam: float, n_cut: int) -> DensityMatrix:
    """Phase-averaged coherent state: Poissonian diagonal ``e^-lam lam^n / n!``,
    with a tail mass of at most ``DEFAULT_TAIL_TOL``."""
    if lam < 0:
        raise InvalidParameter("Poisson parameter must be nonnegative")
    tail = _poisson_tail(lam, n_cut)
    _check_tail(tail, DEFAULT_TAIL_TOL, f"phase_averaged({lam})")
    n = np.arange(n_cut)
    logp = -lam + n * np.log(lam) - gammaln(n + 1) if lam > 0 else np.where(n == 0, 0.0, -np.inf)
    return DensityMatrix(TruncatedOperator(np.diag(np.exp(logp).astype(np.complex128))), tail)


def random_mixed_state(seed: int, rank: int, n_cut: int) -> DensityMatrix:
    """Random rank-``rank`` mixed state supported inside the cutoff."""
    if not 1 <= rank <= n_cut:
        raise InvalidParameter(f"need 1 <= rank <= n_cut, got rank={rank}")
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
    if isinstance(n_cut, bool) or not isinstance(n_cut, numbers.Integral) or n_cut < 2:
        raise InvalidParameter(f"displacement cutoff must be an integer of at least 2, got {n_cut!r}")
    if n_cut > 1020:
        raise OrderTooLarge(f"displacement cutoff limited to 1020, got {n_cut}")


def _displacement_chunks(xi, n_cut: int):
    """Check every point of ``xi`` and the cutoff, then return an iterator of ``(part, stack)``.

    ``stack[i]`` is the matrix of ``D(xi.ravel()[part][i])``; consecutive parts cover the points in
    order.  The tables of one chunk take about ``DISPLACEMENT_CHUNK_BYTES`` (at least one point), so
    a caller that copies each chunk into its own array holds little more than that array.
    """
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
    step = max(1, DISPLACEMENT_CHUNK_BYTES // (_DISPLACEMENT_ENTRY_BYTES * n_cut**2))
    parts = [slice(s, min(s + step, points.size)) for s in range(0, points.size, step)]
    return ((part, _displacement_stack(points[part], x[part], n_cut)) for part in parts)


def _displacement_chains(xi: np.ndarray, n_cut: int) -> np.ndarray:
    """``arg^j / sqrt(j!)`` for ``j < n_cut``, ``arg = xi`` and ``arg = -conj(xi)``: shape ``(P, 2, n_cut)``.

    One step per ``j`` for all points, in real arithmetic that repeats the scalar chain
    ``p *= arg / np.sqrt(j)`` operation by operation.  For a complex point ``xi`` is a Python
    complex, divided as ``(a + b*0) / c``, and ``-conj(xi)`` a NumPy ``complex128``, multiplied
    by the reciprocal, ``(a + b*0) * (1/c)``; a real point is divided in both chains.  Each
    product is Python's and NumPy's scalar complex multiply, ``(pr*qr - pi*qi, pr*qi + pi*qr)``.
    """
    c = np.sqrt(np.arange(1, n_cut))
    if xi.dtype.kind == "c":
        ar, ai = xi.real, xi.imag
        ur, ui = -ar, ai
        step_re = np.stack([(ar + ai * 0.0)[:, None] / c, (ur + ui * 0.0)[:, None] * (1.0 / c)], axis=1)
        step_im = np.stack([(ai - ar * 0.0)[:, None] / c, (ui - ur * 0.0)[:, None] * (1.0 / c)], axis=1)
    else:  # an integer 0 negates to +0: negate before the cast
        step_re = np.stack([xi.astype(float)[:, None] / c, np.negative(xi).astype(float)[:, None] / c], axis=1)
        step_im = np.zeros_like(step_re)
    parts = np.empty((2, xi.size, 2, n_cut))
    parts[0, ..., 0], parts[1, ..., 0] = pr, pi = 1.0, 0.0
    for j in range(1, n_cut):
        qr, qi = step_re[..., j - 1], step_im[..., j - 1]
        pr, pi = pr * qr - pi * qi, pr * qi + pi * qr
        parts[0, ..., j], parts[1, ..., j] = pr, pi
    out = np.empty((xi.size, 2, n_cut), dtype=np.complex128)
    out.real, out.imag = parts
    return out


def _displacement_stack(xi: np.ndarray, x: np.ndarray, n_cut: int) -> np.ndarray:
    """``D(xi[i])`` for every point of the 1-d array ``xi`` (``x[i] = |xi[i]|^2``), shape ``(P, N, N)``.

    The ``[k, delta]`` Laguerre and prefactor tables of :func:`displacement_op`'s closed form, with a
    leading axis over the points: one Laguerre step per ``k`` and one prefactor chain step per ``j``
    serve every point, and one gather reads the stack.
    """
    offsets = np.arange(n_cut)
    m, n = np.ogrid[:n_cut, :n_cut]
    at = (m < n) * n_cut**2 + np.minimum(m, n) * n_cut + np.abs(m - n)  # flat [triangle, k, delta]
    lag = np.zeros((xi.size, n_cut, n_cut))
    lag[:, 0] = 1.0
    lag[:, 1, :-1] = 1.0 + offsets[:-1] - x[:, None]
    for k in range(1, n_cut - 1):
        w = n_cut - 1 - k
        d = offsets[:w]
        lag[:, k + 1, :w] = ((2 * k + 1 + d - x[:, None]) * lag[:, k, :w] - (k + d) * lag[:, k - 1, :w]) / (k + 1)
    # sqrt(k!/(k+delta)!) arg^delta, m >= n then m < n: the chain at k = 0, a real factor per k
    pref = np.empty((xi.size, 2, n_cut, n_cut), dtype=np.complex128)
    pref[:, :, 0] = _displacement_chains(xi, n_cut)
    k = np.arange(1, n_cut)[:, None]
    pref[:, :, 1:] = np.sqrt(k / (k + offsets))
    np.cumprod(pref, axis=2, out=pref)
    pref *= lag[:, None]
    del lag  # not live during the gather below
    pref *= np.exp(-0.5 * x)[:, None, None, None]
    return pref.reshape(xi.size, -1)[:, at]


def displacement_op(xi: complex, n_cut: int) -> TruncatedOperator:
    """Matrix of ``D(xi) = exp(xi a^dag - conj(xi) a)`` on the truncated space.

    Entries are evaluated from the associated-Laguerre closed form

        <m|D(xi)|n> = sqrt(n!/m!) xi^(m-n) L_n^(m-n)(|xi|^2) e^(-|xi|^2/2)   (m >= n)

    with the ``m < n`` triangle given by ``sqrt(m!/n!)(-conj(xi))^(n-m)
    L_m^(n-m)(|xi|^2) e^(-|xi|^2/2)``.  Every entry is read from tables indexed
    ``[k, delta]`` (smaller label, offset ``|m - n|``).  The Laguerre table
    depends on ``|xi|^2`` only and serves both triangles; a stable upward
    recurrence fills it, one vector step per ``k`` across all offsets.  No
    factorial ratios of large arguments are formed.  This is a one-point call
    of the stack kernel that also builds the B1 family and the cumulant grid,
    so every one of their operators is this matrix bit for bit.

    The cutoff must be an integer of at least 2 and ``xi`` a finite number with
    ``|xi|^2 n_cut <= 1e6`` (``InvalidParameter``, before anything is
    allocated).  Above a cutoff of 1020 the unscaled table
    (``L_k^(delta)(0) = C(k + delta, k)``) overflows: ``OrderTooLarge``.
    """
    if np.ndim(xi) != 0:
        raise InvalidParameter(f"displacement_op takes one point, got shape {np.shape(xi)}")
    (_, stack), = _displacement_chunks(xi, n_cut)
    return TruncatedOperator(stack[0])


def char_weyl(rho: DensityMatrix, xi: complex) -> complex:
    """Weyl-ordered characteristic function ``tr(D(xi) rho)``, as ``sum(D * rho^T)`` over the matrix.

    ``analysis.cumulants`` takes its grid of these values from one stack of
    displacements, with the same sum over each slice, so its values are this
    function's bit for bit.
    """
    d = displacement_op(xi, rho.dim).mat
    return complex(np.sum(d * rho.mat.T))


def char_ordered(rho: DensityMatrix, xi: complex, order: str) -> complex:
    """Normal or antinormal ordered characteristic function.

    ``chi_N = chi_W exp(+|xi|^2/2)`` and ``chi_A = chi_W exp(-|xi|^2/2)``.
    """
    if order == "normal":
        return char_weyl(rho, xi) * np.exp(0.5 * abs(xi) ** 2)
    if order == "antinormal":
        return char_weyl(rho, xi) * np.exp(-0.5 * abs(xi) ** 2)
    raise InvalidParameter(f"order must be 'normal' or 'antinormal', got {order!r}")


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


def hermite_psi(n: int, x):
    """L2-normalized oscillator wavefunction ``psi_n(x)``.

    ``psi_0 = pi^(-1/4) exp(-x^2/2)`` and
    ``psi_(n+1) = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_(n-1)``.
    The Gaussian weight here is exp(-x^2/2); the squared weight that
    sometimes appears in print is not normalizable against H_n.
    """
    if n < 0:
        raise InvalidParameter("order must be nonnegative")
    return hermite_psi_table(n, x)[n]


def hermite_psi_table(n_max: int, x) -> np.ndarray:
    """All ``psi_n(x)`` for ``n = 0..n_max``; shape ``(n_max+1,) + shape(x)``."""
    if n_max > 2000:
        raise OrderTooLarge("oscillator wavefunction order limited to 2000")
    xs = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xs.shape)
    out[0] = _PI_QUARTER * np.exp(-0.5 * xs**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * xs * out[n] - np.sqrt(n / (n + 1)) * out[n - 1]
    return out


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """``(1/2) ||rho - sigma||_1`` from the eigenvalues of ``rho - sigma`` (:func:`hermitian_eigvals`).

    When both states are diagonal (their recorded ``bandwidth`` is 0) the eigenvalues are the
    sorted ``diag(rho) - diag(sigma)``, which is the diagonal of the difference, and the
    ``N x N`` difference is never formed.
    """
    if rho.dim != sigma.dim:
        raise DimMismatch(f"dims differ: {rho.dim} vs {sigma.dim}")
    if rho.bandwidth == sigma.bandwidth == 0:
        evals = np.sort((np.diagonal(rho.mat) - np.diagonal(sigma.mat)).real)
    else:
        evals = hermitian_eigvals(rho.mat - sigma.mat)
    return float(0.5 * np.sum(np.abs(evals)))


def quadrature_ops(n_cut: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated ``q = (a + a^dag)/sqrt(2)`` and ``p = (a - a^dag)/(i sqrt(2))``."""
    a = np.diag(np.sqrt(np.arange(1, n_cut)), 1).astype(np.complex128)
    q = (a + a.conj().T) / np.sqrt(2.0)
    p = (a - a.conj().T) / (1j * np.sqrt(2.0))
    return q, p
