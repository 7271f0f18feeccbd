"""The (X, Y) calculus for single-mode Gaussian channels.

A Gaussian channel acts on the Weyl characteristic function as
``chi'(xi) = chi(X xi) exp(-xi^T Y xi / 2)`` with ``X`` real and ``Y``
symmetric PSD.  Canonical representatives (sigma3 = diag(1, -1)):

    D(kappa; a)  : X = -kappa sigma3        Y = (1 + kappa^2 + a) I
    C1(kappa; a) : X = kappa I              Y = (1 - kappa^2 + a) I
    C2(kappa; a) : X = kappa I              Y = (kappa^2 - 1 + a) I
    A1(a)        : X = 0                    Y = (1 + a) I
    A2(a)        : X = (I + sigma3)/2       Y = (1 + a) I
    B2(a)        : X = I                    Y = a I
    B1(a)        : X = I                    Y = (a/2)(I + sigma3)
    identity     : X = I                    Y = 0

Complete positivity is the matrix inequality
``Y + i(Omega - X^T Omega X) >= 0`` with ``Omega = [[0, 1], [-1, 0]]``;
every canonical quantum-limited row above saturates it.

Moments are carried in doubled units (vacuum covariance = identity) and
propagate as ``cov' = X^T cov X + Y``, ``mean' = X^T mean``.  Composition
follows "first acts first": if channel 1 is applied before channel 2,

    X = X1 X2,    Y = X2^T Y1 X2 + Y2 .
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .errors import (
    InvalidParameter,
    NotCompletelyPositive,
    TailTooLarge,
    Unclassifiable,
    UnsupportedFamily,
    UnsupportedPair,
    _real_array,
)
from .fock import DensityMatrix, _quadrature_moments

OMEGA = np.array([[0.0, 1.0], [-1.0, 0.0]])
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]])

CP_TOL = 1e-8
CLASSIFY_TOL = 1e-9  # how close to a boundary gain or a zero invariant classify snaps
MOMENT_TAIL_LIMIT = 1e-4  # largest tail mass moments_from_density reads moments from


def _min_eigenvalue(y: np.ndarray, g: float) -> float:
    """Smaller eigenvalue of the Hermitian ``Y + i g Omega`` for a real 2x2 ``Y``,
    read from its lower triangle as ``eigvalsh`` reads it:
    ``(y00 + y11)/2 - hypot((y00 - y11)/2, y10, g)``."""
    return float((y[0, 0] + y[1, 1]) / 2 - math.hypot((y[0, 0] - y[1, 1]) / 2, y[1, 0], g))


def cp_defect(x: np.ndarray, y: np.ndarray) -> float:
    """Most negative eigenvalue of ``Y + i(Omega - X^T Omega X)`` (0 if CP).

    For a 2x2 ``X``, ``X^T Omega X = det(X) Omega``, so the matrix is
    ``Y + i(1 - det X) Omega`` and its eigenvalues have a closed form.
    """
    return min(0.0, _min_eigenvalue(y, 1.0 - (x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0])))


@dataclass(frozen=True, eq=False)
class XYPair:
    """A completely positive Gaussian channel in (X, Y) form."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = _real_array(self.x, "X"), _real_array(self.y, "Y")
        if not np.max(np.abs(y - y.T)) <= 1e-10:
            raise InvalidParameter("Y must be symmetric")
        if not _min_eigenvalue(y, 0.0) >= -1e-12:
            raise InvalidParameter("Y must be positive semidefinite")
        defect = cp_defect(x, y)
        if not defect >= -CP_TOL:
            raise NotCompletelyPositive(f"(X, Y) violates complete positivity by {defect:.3e}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", 0.5 * (y + y.T))


@dataclass(frozen=True, eq=False)
class Symplectic2:
    """An element of Sp(2, R) = SL(2, R)."""

    s: np.ndarray

    def __post_init__(self):
        s = _real_array(self.s, "symplectic matrix")
        if not abs(np.linalg.det(s) - 1.0) <= 1e-10:
            raise InvalidParameter(f"det S = {np.linalg.det(s)!r} != 1")
        object.__setattr__(self, "s", s)


def rotation(theta: float) -> Symplectic2:
    c, s = np.cos(theta), np.sin(theta)
    return Symplectic2(np.array([[c, -s], [s, c]]))


def squeeze(lam: float) -> Symplectic2:
    if not (0 < lam < math.inf and 1.0 / float(lam) < math.inf):  # a numpy scalar would warn
        raise InvalidParameter(f"squeeze parameter must be positive with a finite inverse, got {lam!r}")
    return Symplectic2(np.diag([lam, 1.0 / lam]))


@dataclass(frozen=True, eq=False)
class GaussianMoments:
    """Mean vector and covariance in doubled (vacuum = identity) units."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean, cov = _real_array(self.mean, "mean", (2,)), _real_array(self.cov, "covariance")
        if not np.max(np.abs(cov - cov.T)) <= 1e-8:
            raise InvalidParameter("covariance must be symmetric")
        umin = _min_eigenvalue(cov, 1.0)
        if not umin >= -1e-6:
            raise InvalidParameter(f"covariance violates the uncertainty bound by {umin:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))


def canonical_xy(spec: ChannelSpec) -> XYPair:
    """Canonical (X, Y) for a channel spec (module docstring table), y0 from ``quantum_limited_noise``."""
    fam, k = spec.family, spec.kappa
    if fam == "B1":
        return XYPair(np.eye(2), 0.5 * spec.noise_a * (np.eye(2) + SIGMA3))
    if fam == "D":
        x = -k * SIGMA3
    elif fam in ("C1", "C2"):
        x = k * np.eye(2)
    elif fam == "A1":
        x = np.zeros((2, 2))
    elif fam == "A2":
        x = 0.5 * (np.eye(2) + SIGMA3)
    else:  # B2, I
        x = np.eye(2)
    return XYPair(x, (spec.quantum_limited_noise() + spec.noise_a) * np.eye(2))


def classify(xy: XYPair) -> ChannelSpec:
    """Recover the canonical spec from symplectic invariants.

    Family from the rank and determinant sign of X with
    ``kappa = sqrt(|det X|)``; classical noise from the invariant
    ``sqrt(det Y)`` minus the quantum-limited threshold.  The B1 noise
    magnitude is gauge (any positive value is symplectically reachable),
    so the trace of Y in the presented frame is reported.  Boundary cases snap
    within ``CLASSIFY_TOL``.
    """
    x, y = xy.x, xy.y
    if cp_defect(x, y) < -CP_TOL:
        raise NotCompletelyPositive("input pair is not a channel")
    det_x = float(np.linalg.det(x))
    det_y = max(float(np.linalg.det(y)), 0.0)
    sing = np.linalg.svd(x, compute_uv=False)
    sqrt_det_y = float(np.sqrt(det_y))

    def _noisy(family: str, kappa: float | None = None) -> ChannelSpec:
        y0 = ChannelSpec(family, kappa).quantum_limited_noise()
        a = sqrt_det_y - y0
        if a < -1e-6:
            raise Unclassifiable(
                f"nearest form {family}: noise invariant {sqrt_det_y:.6g} sits below "
                f"its quantum limit {y0:.6g} (residual {a:.3e})")
        return ChannelSpec(family, kappa, max(a, 0.0))

    if sing[0] <= CLASSIFY_TOL:  # X = 0
        return _noisy("A1").normalized(CLASSIFY_TOL)
    if abs(det_x) <= CLASSIFY_TOL * sing[0] ** 2:  # rank one
        return _noisy("A2").normalized(CLASSIFY_TOL)
    kappa = float(np.sqrt(abs(det_x)))
    if det_x < 0.0:
        return _noisy("D", kappa)
    if abs(kappa - 1.0) <= CLASSIFY_TOL:
        # B family: distinguish by the rank of Y
        y_evals = np.linalg.eigvalsh(y)
        if y_evals.max() <= CLASSIFY_TOL:
            return ChannelSpec("I")
        if det_y <= CLASSIFY_TOL * y_evals.max() ** 2:
            return ChannelSpec("B1", noise_a=float(np.trace(y)))
        return _noisy("B2")
    return _noisy("C1" if kappa < 1.0 else "C2", kappa).normalized(CLASSIFY_TOL)


def compose_xy(first: XYPair, second: XYPair) -> XYPair:
    """Composite of two channels, ``first`` applied before ``second``."""
    x = first.x @ second.x
    y = second.x.T @ first.y @ second.x + second.y
    return XYPair(x, y)


def _table_pair(spec2: ChannelSpec, spec1: ChannelSpec) -> tuple[ChannelSpec, ChannelSpec]:
    """``(second, first)`` as composition-table rows.

    The identity rides the C1 rows as C1(1) and the erasure A1 as C1(0);
    raises ``UnsupportedPair`` for noisy channels and for families without
    a table row.
    """
    pair = [ChannelSpec("C1", 1.0) if s.family == "I" else s for s in (spec2, spec1)]
    if not all(s.quantum_limited for s in pair):
        raise UnsupportedPair("composition table covers quantum-limited channels only")
    pair = [ChannelSpec("C1", 0.0) if s.family == "A1" else s for s in pair]
    allowed = ("D", "C1", "C2", "A2")
    if any(s.family not in allowed for s in pair):
        raise UnsupportedPair(f"no table entry for {pair[0].family} after {pair[1].family}")
    return pair[0], pair[1]


def _conjugator_or_erasure(k: float, a: float) -> ChannelSpec:
    # a conjugator-tagged composite with vanishing gain is the erasure
    # family (X = 0), which is where its zero-kappa limit lives
    if k <= CLASSIFY_TOL:
        return ChannelSpec("A1", noise_a=a)
    return ChannelSpec("D", k, a)


def table1_compose(spec2: ChannelSpec, spec1: ChannelSpec) -> ChannelSpec:
    """Closed-form composition of canonical quantum-limited channels.

    ``spec1`` acts first, ``spec2`` second.  The entries (second acting on
    first) for families D, C1, C2, A2:

    ==========  ==========  =================================================
    second      first       composite
    ==========  ==========  =================================================
    D(k2)       D(k1)       C1(k; 2 k2^2 (1+k1^2)) if k<=1 else C2(k; 2(1+k2^2))
    D(k2)       C1(k1)      D(k; 2 k2^2 (1-k1^2))
    D(k2)       C2(k1)      D(k; 0)
    D(k2)       A2          A2(2 k2^2)
    C1(k2)      D(k1)       D(k; 0)
    C1(k2)      C1(k1)      C1(k; 0)
    C1(k2)      C2(k1)      C1(k; 2 k2^2 (k1^2-1)) if k<=1 else C2(k; 2(1-k2^2))
    C1(k2)      A2          A2(0)
    C2(k2)      D(k1)       D(k; 2(k2^2-1))
    C2(k2)      C1(k1)      C1(k; 2(k2^2-1)) if k<=1 else C2(k; 2 k2^2 (1-k1^2))
    C2(k2)      C2(k1)      C2(k; 0)
    C2(k2)      A2          A2(2(k2^2-1))
    A2          D(k1)       A2(sqrt(k1^2+2) - 1)
    A2          C1(k1)      A2(sqrt(2-k1^2) - 1)
    A2          C2(k1)      A2(k1 - 1)
    A2          A2          A2(sqrt(2) - 1)
    ==========  ==========  =================================================

    with ``k = k1 k2`` throughout.  A gain within ``CLASSIFY_TOL`` of 0 (the
    erasure ``A1``) or of 1 snaps as :func:`classify` snaps it.
    """
    s2, s1 = _table_pair(spec2, spec1)
    f1, f2 = s1.family, s2.family
    k1, k2 = s1.kappa, s2.kappa

    def c_branch(k: float, a_low: float, a_high: float) -> ChannelSpec:
        if k <= 1.0:
            return ChannelSpec("C1", k, a_low).normalized(CLASSIFY_TOL)
        return ChannelSpec("C2", k, a_high).normalized(CLASSIFY_TOL)

    if f2 == "A2":
        if f1 == "D":
            noise = np.sqrt(k1**2 + 2.0) - 1.0
        elif f1 == "C1":
            noise = np.sqrt(2.0 - k1**2) - 1.0
        elif f1 == "C2":
            noise = k1 - 1.0
        else:
            noise = np.sqrt(2.0) - 1.0
        if f1 == "C1" and k1 <= CLASSIFY_TOL:
            # the erased input never reaches the projector: X vanishes
            return ChannelSpec("A1", noise_a=float(noise))
        return ChannelSpec("A2", noise_a=float(noise))
    if f1 == "A2":
        noise = {"D": 2.0 * k2**2, "C1": 0.0, "C2": 2.0 * (k2**2 - 1.0)}[f2]
        if f2 == "C1" and k2 <= CLASSIFY_TOL:
            return ChannelSpec("A1", noise_a=float(noise))
        return ChannelSpec("A2", noise_a=float(noise))
    k = k1 * k2
    if f2 == "D":
        if f1 == "D":
            return c_branch(k, 2.0 * k2**2 * (1.0 + k1**2), 2.0 * (1.0 + k2**2))
        if f1 == "C1":
            return _conjugator_or_erasure(k, 2.0 * k2**2 * (1.0 - k1**2))
        return ChannelSpec("D", k, 0.0)  # f1 == "C2"
    if f2 == "C1":
        if f1 == "D":
            return _conjugator_or_erasure(k, 0.0)
        if f1 == "C1":
            return ChannelSpec("C1", k, 0.0).normalized(CLASSIFY_TOL)
        return c_branch(k, 2.0 * k2**2 * (k1**2 - 1.0), 2.0 * (1.0 - k2**2))
    # f2 == "C2"
    if f1 == "D":
        return ChannelSpec("D", k, 2.0 * (k2**2 - 1.0))
    if f1 == "C1":
        return c_branch(k, 2.0 * (k2**2 - 1.0), 2.0 * k2**2 * (1.0 - k1**2))
    return ChannelSpec("C2", k, 0.0).normalized(CLASSIFY_TOL)


def table2_compose(spec2: ChannelSpec, spec1: ChannelSpec, lam: float, theta: float = 0.0) -> ChannelSpec:
    """Composition with an arbitrary symplectic mismatch between the pair.

    ``lam`` is the singular value of the intervening symplectic for the
    nonsingular rows; for the rows whose second factor is A2 it is the
    eigenvalue of its Gram square, whose rotated (1,1) element
    ``p11 = lam cos^2(theta) + lam^-1 sin^2(theta)`` is what the singular
    projector picks out.  The family, gain and ``lam = 1`` noise are
    :func:`table1_compose`'s; the mismatch adds its change of ``sqrt(det Y)``,
    which is 0 at ``lam = 1``: there every ``theta`` gives Table 1 exactly.  A ``lam`` that puts that
    noise past the float range raises ``InvalidParameter`` naming it.
    """
    if not (0.0 < lam < np.inf and np.isfinite(theta)):
        raise InvalidParameter(f"lambda must be positive and finite and theta finite, got {lam}, {theta}")
    base = table1_compose(spec2, spec1)
    s2, s1 = _table_pair(spec2, spec1)
    y1 = s1.quantum_limited_noise()
    if s2.family == "A2":  # s = p11 - 1, exactly 0 at lam = 1, with no inf * 0 at a subnormal lam and theta = 0
        cos2, sin2 = np.cos(theta) ** 2, np.sin(theta) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            s = (lam - 1.0) * cos2 + sin2 / lam - sin2
            excess = np.sqrt(1.0 + y1 + y1 * s) - np.sqrt(1.0 + y1)  # negative when p11 < 1
        if not np.isfinite(excess):  # sin^2/lam overflowed: 1 + y1 + y1 s = 1 + y1 lam cos^2 + y1 sin^2/lam
            root = math.hypot(math.sqrt(1.0 + y1 * lam * cos2), math.sqrt(y1) * abs(math.sin(theta)) / math.sqrt(lam))
            excess = root - math.sqrt(1.0 + y1)
    else:
        c, d = s2.kappa**2 * y1, s2.quantum_limited_noise()
        t = lam - 1.0 / lam if c * d else 0.0  # no mismatch noise without both; 0 * inf would be nan
        try:
            excess = np.sqrt((c + d) ** 2 + c * d * t**2) - (c + d)
        except OverflowError:  # t^2 leaves the float range (|log lam| above about 354): the root by hypot
            excess = math.hypot(c + d, math.sqrt(c * d) * t) - (c + d)
    if excess == 0.0:
        return base
    if not base.noise_a + excess < math.inf:
        raise InvalidParameter(f"lambda={lam!r} puts the composite's noise past the float range")
    fam = "B2" if base.family == "I" else base.family
    return ChannelSpec(fam, base.kappa, max(base.noise_a + excess, 0.0)).normalized(CLASSIFY_TOL)


def synthesize_noisy(target: ChannelSpec) -> tuple[ChannelSpec, ChannelSpec]:
    """Quantum-limited (inner, outer) pair composing to a noisy target.

    The attenuator route realizes C1(kappa; a), A1(a) and B2(a) as
    ``C2(k2) after C1(kappa / k2)`` with ``k2 = sqrt(1 + a/2)``; the
    amplifier route uses ``k2 = sqrt(kappa^2 + a/2)``; the noisy
    conjugator defaults to ``C2(sqrt(1 + a/2)) after D``.  A quantum-limited
    target passes through as ``(target, I)``.  Single quadrature noise (B1)
    admits no such pair, and a noisy A2 none made of table rows.
    """
    a = target.noise_a
    if a == 0.0:
        return target, ChannelSpec("I")
    if target.family == "B1":
        raise UnsupportedFamily("single-quadrature noise is not a composite of quantum-limited pairs")
    if target.family == "A2":
        raise UnsupportedFamily("noisy A2 needs a continuous-index factor; not provided here")
    if target.family in ("C1", "A1", "B2", "I"):
        kappa = target.kappa if target.family == "C1" else (0.0 if target.family == "A1" else 1.0)
        k2 = float(np.sqrt(1.0 + 0.5 * a))
        return ChannelSpec("C1", kappa / k2), ChannelSpec("C2", k2)
    if target.family == "C2":
        k2 = float(np.sqrt(target.kappa**2 + 0.5 * a))
        return ChannelSpec("C1", target.kappa / k2), ChannelSpec("C2", k2)
    # D(kappa; a) via the amplifier: a = 2 (k2^2 - 1)
    k2 = float(np.sqrt(1.0 + 0.5 * a))
    return ChannelSpec("D", target.kappa / k2), ChannelSpec("C2", k2)


def covariance_map(xy: XYPair, g: GaussianMoments) -> GaussianMoments:
    """Propagate Gaussian moments: ``cov' = X^T cov X + Y``, ``mean' = X^T mean``."""
    return GaussianMoments(xy.x.T @ g.mean, xy.x.T @ g.cov @ xy.x + xy.y)


def moments_from_density(rho: DensityMatrix) -> GaussianMoments:
    """First and symmetrized second quadrature moments of a truncated state
    whose tail mass is below ``MOMENT_TAIL_LIMIT``.

    They are the order-2 Weyl-symmetric moments of ``fock._quadrature_moments``
    (``Y1 = -sqrt(2) p``, ``Y2 = sqrt(2) q``), which pads the state: ``<q^2>``
    keeps the ``N-1 -> N -> N-1`` term that the truncated ``q @ q`` drops, so
    ``|N-1>`` on ``N`` levels has covariance ``2N - 1``.
    """
    if rho.tail_mass >= MOMENT_TAIL_LIMIT:
        raise TailTooLarge(f"tail mass {rho.tail_mass:.3e} too large for reliable moments")
    mu = _quadrature_moments(rho, 2)
    cross = mu[1, 0] * mu[0, 1] - mu[1, 1]
    cov = np.array([[mu[0, 2] - mu[0, 1] ** 2, cross], [cross, mu[2, 0] - mu[1, 0] ** 2]])
    return GaussianMoments(np.array([mu[0, 1], -mu[1, 0]]) / np.sqrt(2.0), cov)
