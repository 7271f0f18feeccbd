"""Kraus operators from the two-mode metaplectic generating integral.

This module is an independent route to the same operators as
:mod:`boskraus.kraus`.  For a two-mode linear canonical transformation
that does not mix positions with momenta, ``S = M (+) (M^-1)^T``, the
two-mode Fock matrix elements of the metaplectic unitary are Taylor
coefficients of a Gaussian generating function

    F(z1, z2, eta1, eta2) = pi^-1 integral dx1 dx2
        exp{ -1/2 [ (x1 - eta1 sqrt2)^2 + (x2 - eta2 sqrt2)^2
                    + (x1' - z1 sqrt2)^2 + (x2' - z2 sqrt2)^2
                    - eta1^2 - eta2^2 - z1^2 - z2^2 ] },   x' = M x,

    C^(m1 m2)_(n1 n2) = (n1! n2! m1! m2!)^(-1/2)
        d^m1_eta1 d^m2_eta2 d^n1_z1 d^n2_z2 F |_0 .

Carrying out the x integrals leaves ``F = prefactor exp(v^T Q v / 2)``
with ``v = (z1, z2, eta1, eta2)``; Kraus operators of the induced
single-mode channel (vacuum ancilla) are read off as
``W_l[m1, n1] = C^(m1 l)_(n1 0)``.

Taylor coefficients are extracted by one linear recurrence on the scaled
coefficients ``t[k] = sqrt(k!) [v^k] exp(v^T Q v / 2)``, with the
square-root factorials folded in as it runs; it stays stable to ``MAX_ORDER``,
which bounds the ``n_cut + ell_max`` rows of the slice ``kraus_from_scheme`` keeps.
The recurrence fills a whole slab of the first axis at once from the two
slabs below it, and the first slab is the same problem on the remaining
axes (the slab scheme of Miatto & Quesada, Quantum 4, 366 (2020)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelSpec
from .errors import InvalidParameter, NotPositiveDefinite, OrderTooLarge, UnsupportedFamily, _count, _real_array
from .families import DiscreteIndex, KrausFamily
from .fock import _gauss_hermite

MAX_ORDER = 120

A2_MIX = np.array([[0.0, 1.0], [1.0, -1.0]])
B1_MIX = np.array([[1.0, -1.0], [0.0, 1.0]])


@dataclass(frozen=True, eq=False)
class MixMatrix:
    """Position block of a two-mode symplectic ``M (+) (M^-1)^T``."""

    m: np.ndarray

    def __post_init__(self):
        m = _real_array(self.m, "mix matrix")
        if not abs(np.linalg.det(m)) > 1e-12:
            raise InvalidParameter("mix matrix must be invertible")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True, eq=False)
class GeneratingForm:
    """``F(v) = prefactor * exp(v^T q v / 2)`` with ``v = (z1, z2, eta1, eta2)``."""

    prefactor: float
    q: np.ndarray


def mix_matrix(spec: ChannelSpec) -> MixMatrix:
    """Canonical position-block for each channel family.

    D(kappa) uses the hyperbolic mixer with ``sinh mu = kappa``; C1 the
    two-mode rotation with ``cos theta = kappa``; C2 the two-mode squeeze
    with ``cosh nu = kappa``.
    """
    fam = spec.family
    if fam == "D":
        k, c = spec.kappa, np.sqrt(1.0 + spec.kappa**2)
        return MixMatrix(np.array([[-k, c], [c, -k]]))
    if fam == "C1":
        k, s = spec.kappa, np.sqrt(1.0 - spec.kappa**2)
        return MixMatrix(np.array([[k, s], [-s, k]]))
    if fam == "C2":
        k, s = spec.kappa, np.sqrt(spec.kappa**2 - 1.0)
        return MixMatrix(np.array([[k, -s], [-s, k]]))
    if fam == "A2":
        return MixMatrix(A2_MIX)
    if fam == "B1":
        return MixMatrix(B1_MIX)
    if fam == "I":
        return MixMatrix(np.eye(2))
    raise UnsupportedFamily(f"no direct-sum mixer stored for family {fam}")


def _quadrature_check(form: GeneratingForm, m: np.ndarray) -> None:
    # Direct 2D Gauss-Hermite evaluation of the defining integral at five seeded random v.
    rng = np.random.default_rng(7)
    x, w = _gauss_hermite(60)
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    ww = np.outer(w, w)
    for _ in range(5):
        v = rng.uniform(-0.6, 0.6, size=4)
        z1, z2, e1, e2 = v
        xp1 = m[0, 0] * x1 + m[0, 1] * x2
        xp2 = m[1, 0] * x1 + m[1, 1] * x2
        # integrand = exp(-x1^2 - x2^2) * g; pull the Gauss-Hermite weight out
        expo = (
            -0.5 * ((x1 - e1 * np.sqrt(2)) ** 2 + (x2 - e2 * np.sqrt(2)) ** 2
                    + (xp1 - z1 * np.sqrt(2)) ** 2 + (xp2 - z2 * np.sqrt(2)) ** 2
                    - e1**2 - e2**2 - z1**2 - z2**2)
            + x1**2 + x2**2
        )
        val = float(np.sum(ww * np.exp(expo)) / np.pi)
        ref = form.prefactor * np.exp(0.5 * v @ form.q @ v)
        if not abs(val - ref) <= 1e-10 * max(1.0, abs(ref)):
            raise NotPositiveDefinite(
                f"generating form fails its quadrature self-check: {val!r} vs {ref!r}"
            )


def generating_form(mix: MixMatrix) -> GeneratingForm:
    """Carry out the Gaussian x-integration analytically.

    With ``A = 1 + M^T M`` and ``b = M^T z + eta`` the integral gives

        F = 2 det(A)^(-1/2) exp( b^T A^-1 b - (|z|^2 + |eta|^2) / 2 ).

    ``A`` is positive definite for every real invertible ``M``; the check
    is kept because it guards the whole scheme's domain assumption.  Every
    build compares F with a direct quadrature of the defining integral at
    five seeded random points and raises ``NotPositiveDefinite`` when they
    differ.
    """
    m = mix.m
    a = np.eye(2) + m.T @ m
    evals = np.linalg.eigvalsh(a)
    if not evals.min() > 1e-12:
        raise NotPositiveDefinite("x-integration quadratic form is not positive definite")
    prefactor = 2.0 / np.sqrt(np.linalg.det(a))
    a_inv = np.linalg.inv(a)
    b = np.zeros((2, 4))
    b[:, 0:2] = m.T  # z-part
    b[:, 2:4] = np.eye(2)  # eta-part
    q = 2.0 * b.T @ a_inv @ b - np.eye(4)
    q = 0.5 * (q + q.T)
    form = GeneratingForm(float(prefactor), q)
    _quadrature_check(form, m)
    return form


def _taylor_box(q: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Scaled Taylor coefficients ``t[k] = sqrt(k!) [v^k] exp(v^T q v / 2)`` on a box.

    Filled one slab of axis 0 at a time from the recurrence

        sqrt(k0) t[k0] = q00 sqrt(k0-1) t[k0-2] + sum_{j>0} q0j sqrt(m_j) shift_j(t[k0-1])

    where ``shift_j`` lowers index ``j`` by one (zero at ``m_j = 0``).  Slab
    0 is the same problem on the remaining axes.  Terms are summed in axis
    order and each is ``(q sqrt(m)) t``, the order a per-cell recurrence
    that lowers the first nonzero index uses.
    """
    if not shape:
        return np.ones(())
    t = np.zeros(shape)
    t[0] = _taylor_box(q[1:, 1:], shape[1:])
    lowered = []
    for j in range(1, len(shape)):
        # slab cells with m_j > 0, the cells one below them along j, q0j sqrt(m_j)
        pre = (slice(None),) * (j - 1)
        root = np.sqrt(np.arange(1, shape[j])).reshape((-1,) + (1,) * (len(shape) - 1 - j))
        lowered.append((pre + (slice(1, None),), pre + (slice(None, -1),), q[0, j] * root))
    for k0 in range(1, shape[0]):
        acc = np.zeros(shape[1:]) if k0 == 1 else q[0, 0] * np.sqrt(k0 - 1) * t[k0 - 2]
        for above, below, coeff in lowered:
            acc[above] += coeff * t[k0 - 1][below]
        t[k0] = acc / np.sqrt(k0)
    return t


def kraus_from_scheme(mix: MixMatrix, ell_max: int, n_cut: int) -> KrausFamily:
    """Kraus operators ``W_l[m1, n1] = C^(m1 l)_(n1 0)`` from the scheme alone.

    The family holds the whole complex slice, the ``n_cut + ell_max`` output
    rows an input level below ``n_cut`` reaches; ``ops`` are the top ``n_cut``,
    and the defect is measured on every row, so on every block it reads the
    index sum, not the range cutoff.  Before any work: ``InvalidParameter`` unless
    ``ell_max >= 0`` and ``n_cut >= 2`` are integers, ``OrderTooLarge`` past ``MAX_ORDER``.
    """
    _count(ell_max, "ell_max")
    _count(n_cut, "n_cut", 2)
    if n_cut + ell_max - 1 > MAX_ORDER:
        raise OrderTooLarge(f"the defect needs {n_cut + ell_max} output rows, past the stable order {MAX_ORDER}")
    form = generating_form(mix)
    # the ancilla-vacuum slice n2 = 0 closes under the recurrence; its axes
    # are (z1, eta1, eta2) = (n1, m1, m2) and operators are indexed [m2][m1][n1]
    slice_q = form.q[np.ix_([0, 2, 3], [0, 2, 3])]
    t = _taylor_box(slice_q, (n_cut, n_cut + ell_max, ell_max + 1))
    full = form.prefactor * np.transpose(t, (2, 1, 0)).astype(np.complex128)
    return KrausFamily(None, full, DiscreteIndex(ell_max), "scheme")
