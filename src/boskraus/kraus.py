"""Building and stepping the closed-form Kraus families of the canonical quantum-limited channels.

:func:`build_discrete` gives the single-band families ``D``, ``C1``, ``C2``,
``A1`` and the identity from their coefficient tables (``families._band_table``,
where the closed forms are written out), after checking their completeness
defect.  The singular family ``A2`` and the single-quadrature noise family
``B1(a)`` carry a continuous index and are discretized on Gauss-Hermite nodes
(the rules live in ``fock``) by :func:`build_continuous`, with the square root
of the quadrature weight absorbed into each operator so that
``sum_i W_i^dag W_i`` approximates the completeness integral; zero-noise ``B1``
is the identity's one-row table on the one node ``q = 0``.  :func:`rank_one_d`
gives the rank-one family of ``D`` on a coherent-state grid.  :func:`apply`
steps a state under a family, and a diagonal state under a banded one as its
level populations.

How a family is stored is decided in ``families``; nothing here reads the
storage, and every reader calls a family's methods.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .channels import ChannelSpec
from .errors import DefectTooLarge, DimMismatch, GridTooCoarse, InvalidParameter, UnsupportedFamily, _count
from .families import (
    BandedFamily,
    DiscreteIndex,
    DisplacementFamily,
    KrausFamily,
    QuadratureIndex,
    RankOneFamily,
    _band_table,
    raw_completeness_defect,
)
from .fock import (
    DensityMatrix,
    TruncatedOperator,
    _check_displacement_cutoff,
    _diagonal_trace,
    _displacement_chunks,
    _gauss_hermite,
    _times_exp_square,
    coherent_amplitudes,
    hermite_psi_table,
    hermite_quadrature,
    thermal_state,
    trace_distance,
)

DEFECT_HARD_LIMIT = 1e-4
SUGGEST_ELL_CAP = 100000
RANK_ONE_PROBE_TOL = 1e-4  # trace distance a rank-one grid may miss the thermal probe by
BANDED_FAMILIES = ("D", "C1", "C2", "A1", "I")


def completeness_defect(family: "KrausFamily | np.ndarray", block: int | None = None) -> float:
    """Completeness defect of a family (:meth:`KrausFamily.defect`) or of a bare stack on its
    protected lower block; ``InvalidParameter`` unless ``block`` is None or a nonnegative integer."""
    if block is not None:
        _count(block, "block")
    if isinstance(family, np.ndarray):
        return raw_completeness_defect(family, block)
    return family.defect(block)


def suggest_ell_max(spec: ChannelSpec, n_protect: int, tol: float = 1e-12) -> int:
    """Smallest index cut keeping the completeness tail below ``tol``.

    The per-level weights of ``sum_l (W_l^dag W_l)[n, n]`` decay
    geometrically in l; the worst protected level is ``n_protect - 1``.  Its first
    weights below the normal floats are stepped as logarithms.  Raises ``DefectTooLarge``
    when the tail is still above ``tol`` at ``SUGGEST_ELL_CAP``.  Before any work:
    ``InvalidParameter`` unless ``n_protect`` is an integer of at least 1 and ``tol`` is positive,
    and :func:`build_discrete`'s ``UnsupportedFamily`` for a spec it refuses.
    """
    _count(n_protect, "n_protect", 1)
    if not tol > 0:
        raise InvalidParameter(f"tol must be positive, got {tol!r}")
    _check_banded(spec)
    fam = spec.family
    if fam in ("I", "A1", "C1"):
        return n_protect - 1 if fam != "I" else 0
    n = n_protect - 1
    # level n's weight at ell = first + j is negative binomial in j: C(n + j, j) term_0 ratio^j
    if fam == "D":
        ratio = 1.0 / (1.0 + spec.kappa**-2)
        log_term, first = -(n + 1) * math.log1p(spec.kappa**2), n  # (1+k^2)^(-1-n)
        term = math.exp(log_term)
    else:  # C2
        ratio = 1.0 - spec.kappa**-2
        term, first = spec.kappa ** (-2.0 * (n + 1)), 0
        log_term = -2.0 * (n + 1) * math.log(spec.kappa)
    j = 0
    while term < sys.float_info.min and first + j < SUGGEST_ELL_CAP:  # a subnormal product loses its digits
        j += 1
        log_term += math.log(ratio * (n + j) / j)
        term = math.exp(log_term)
    remaining = 1.0 - term  # the subnormal weights before it leave 1 as it is
    while remaining > tol and first + j < SUGGEST_ELL_CAP:
        j += 1
        term *= ratio * (n + j) / j
        remaining -= term
    if remaining > tol:
        raise DefectTooLarge(
            f"{spec} at n_protect={n_protect}: completeness tail {remaining:.3e} > {tol:.1e} "
            f"at the index cap ell_max={SUGGEST_ELL_CAP}")
    return first + j


def _check_banded(spec: ChannelSpec) -> None:
    """``UnsupportedFamily`` unless ``spec`` is a quantum-limited member of ``BANDED_FAMILIES``."""
    if not spec.quantum_limited:
        raise UnsupportedFamily(f"{spec}: noisy; use compose/synthesize")
    if spec.family not in BANDED_FAMILIES:
        raise UnsupportedFamily(
            f"family {spec.family} has no quantum-limited discrete Kraus list; noisy: use compose/synthesize")


def build_discrete(spec: ChannelSpec, ell_max: int, n_cut: int,
                   defect_limit: float = DEFECT_HARD_LIMIT) -> KrausFamily:
    """Closed-form Kraus family for ``D``, ``C1``, ``C2``, ``A1`` or the identity.

    The family stores its coefficient table over the whole band; its
    square operators are the truncation to ``n_cut`` levels.  The recorded
    defect is the index-sum deficit on the protected domain block,
    measured before the range cutoff is imposed.  ``InvalidParameter``
    unless ``ell_max >= 0`` and ``n_cut >= 2`` are integers and
    ``defect_limit >= 0``.
    """
    _check_banded(spec)
    _count(ell_max, "ell_max")
    _count(n_cut, "n_cut", 2)
    if not defect_limit >= 0:
        raise InvalidParameter(f"defect_limit must be nonnegative, got {defect_limit!r}")
    coeffs, band = _band_table(spec, ell_max, n_cut)
    family = BandedFamily(spec, coeffs, band, DiscreteIndex(len(coeffs) - 1))
    defect = family.completeness_defect
    if not defect <= defect_limit:
        raise DefectTooLarge(
            f"{spec} at ell_max={ell_max}, n_cut={n_cut}: defect {defect:.3e} > {defect_limit:.1e}"
        )
    return family


def build_continuous(spec: ChannelSpec, node_count: int, n_cut: int) -> KrausFamily:
    """Quadrature-discretized Kraus family for ``A2`` or ``B1(a)``.

    A2 operators are ``V_q = |q/sqrt(2)) <q|`` (coherent ket, position
    bra); B1 operators are Gaussian-weighted displacements
    ``Z_q = (pi a)^(-1/4) exp(-q^2/(2a)) D(q/sqrt(2))``.  Both are
    premultiplied by the square root of their quadrature weight.  B1 with
    ``a > 0`` is a :class:`DisplacementFamily`: every node is checked here,
    and its displacements come from the real displacement kernel of ``fock``
    only when needed, a bounded chunk of nodes at a time; each operator it
    builds is ``displacement_op`` of its node times its scale, bit for bit.
    Both families take the displacement cutoff check: ``n_cut`` must be an
    integer in ``2..1020`` (``InvalidParameter`` below, ``OrderTooLarge``
    above).
    """
    _count(node_count, "node_count", 32)
    _check_displacement_cutoff(n_cut)
    fam = spec.family
    if fam == "A2":
        if not spec.quantum_limited:
            raise UnsupportedFamily("noisy A2: compose the quantum-limited family with added noise")
        x, w = hermite_quadrature(node_count)
        psi = hermite_psi_table(n_cut - 1, x)
        family = RankOneFamily(spec, coherent_amplitudes(x / np.sqrt(2.0), n_cut), psi.T, np.sqrt(w),
                               QuadratureIndex(x, w), np.einsum("i,ni,mi->nm", w, psi, psi))
    elif fam == "B1":
        a = spec.noise_a
        if a == 0.0:  # the identity's one-row table on the one node q = 0
            return BandedFamily(spec, *_band_table(ChannelSpec("I"), 0, n_cut),
                                QuadratureIndex(np.zeros(1), np.ones(1)))
        # substitute q = sqrt(a) t: (pi a)^(-1/2) integral dq e^(-q^2/a) D(q/sqrt2) rho D^dag
        t, w = _gauss_hermite(node_count)
        q = np.sqrt(a) * t
        points = q / np.sqrt(2.0)
        _displacement_chunks(points, n_cut)  # checks every node; computes nothing
        half = slice(len(t) // 2, None)  # the nonnegative nodes: the rule is symmetric to the bit
        index = QuadratureIndex(q, _times_exp_square(w * np.sqrt(a), t))
        family = DisplacementFamily(spec, points[half], np.sqrt(w[half] / np.sqrt(np.pi)), n_cut, index,
                                    float(abs(np.sum(w) / np.sqrt(np.pi) - 1.0)))
    else:
        raise UnsupportedFamily(f"family {fam} is not a continuous-index family")
    defect = family.completeness_defect
    if not defect <= DEFECT_HARD_LIMIT:
        raise DefectTooLarge(f"{spec}: defect {defect:.3e} > {DEFECT_HARD_LIMIT:.1e}; raise node_count or n_cut")
    return family


def builder(spec: ChannelSpec) -> tuple:
    """The builder of ``spec``'s family, looked up at call time, and the size it takes: a node
    count for A2 and B1, an index cut for every other tag (``build_discrete`` rejects the rest)."""
    return (build_continuous, "nodes") if spec.family in ("A2", "B1") else (build_discrete, "ell_max")


def apply_matrix(family: KrausFamily, mat: np.ndarray) -> np.ndarray:
    """Raw operator-sum action ``sum_l W_l M W_l^dag`` (no renormalization), by :meth:`KrausFamily.act`."""
    _check_dim(family, mat.shape[0])
    return family.act(mat)


def _check_dim(family: KrausFamily, dim: int) -> None:
    if dim != family.dim:
        raise DimMismatch(f"operator dim {dim} != family dim {family.dim}")


def apply(family: KrausFamily, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel; renormalize and report leakage in ``tail_mass``.

    The in-cutoff trace after the operator sum falls short of 1 by the
    input tail plus whatever the channel pushed past the cutoff; the
    output is symmetrized, rescaled to unit trace and that shortfall is
    recorded.

    A diagonal state under a family that ``keeps_diagonal`` (the banded
    ones) is stepped as its level populations by :func:`_population_step`,
    and :meth:`DensityMatrix._diagonal` checks the vector and keeps it as the
    state; no matrix is built, and every bit is that of the dense path.
    Every other input takes the dense path over the whole matrix.
    """
    if rho.bandwidth == 0 and family.keeps_diagonal:
        return DensityMatrix._diagonal(*_population_step(family, rho.diagonal))
    out = apply_matrix(family, rho.mat)
    out[...] = 0.5 * (out + out.conj().T)
    tr = float(np.trace(out).real)
    leak = _leak(tr)
    out[...] = out / tr
    return DensityMatrix(TruncatedOperator(out), leak)


def _population_step(family: KrausFamily, p: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """``apply`` on ``diag(p)`` as level populations: :meth:`BandedFamily.populations` of ``p``, rescaled
    to unit trace (into ``out`` when given), and the leak.  The symmetrization leaves a real vector as it
    is, the trace is summed in the complex order of ``np.trace`` and the rescale is the product by
    ``1 / tr`` that numpy's complex division by a real performs, so every bit is that of the dense path."""
    _check_dim(family, p.shape[-1])
    new = family.populations(p)
    tr = float(_diagonal_trace(new))
    leak = _leak(tr)
    return np.multiply(new, 1.0 / tr, out=out), leak


def _leak(tr: float) -> float:
    """The mass a step's output trace ``tr`` lost past the cutoff; a vanishing trace raises ``InvalidParameter``."""
    if tr <= 1e-12:
        raise InvalidParameter("channel output has vanishing trace inside the cutoff")
    return max(0.0, 1.0 - tr)


def dual(family: KrausFamily) -> KrausFamily:
    """The dual trace-preserving family, :meth:`KrausFamily.dual`."""
    return family.dual()


def rank_one_d(kappa: float, alphas: np.ndarray, weights: np.ndarray, n_cut: int,
               probe_check: bool = True) -> KrausFamily:
    """Rank-one (entanglement-breaking) Kraus family for ``D(kappa)``.

    Each operator is

        T'_alpha = (1+kappa^2)^(-1/2)
                   |alpha / sqrt(1+kappa^-2)> <conj(alpha) / sqrt(1+kappa^2)|

    carrying ``sqrt(weight / pi)`` so the family sums the coherent-state
    resolution ``rho' = pi^-1 integral T' rho T'^dag d^2 alpha``.  With
    ``probe_check``, a grid that misses the channel output on a thermal probe
    raises ``GridTooCoarse``, and then one whose completeness defect passes
    ``DEFECT_HARD_LIMIT`` raises ``DefectTooLarge``; ``InvalidParameter`` unless ``kappa`` is a gain
    ``ChannelSpec("D", kappa)`` takes and ``n_cut >= 2`` is an integer.
    """
    spec = ChannelSpec("D", kappa)
    _count(n_cut, "n_cut", 2)
    alphas = np.asarray(alphas, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    if alphas.shape != weights.shape:
        raise InvalidParameter("alphas and weights must have matching shapes")
    alphas, weights = alphas.ravel(), weights.ravel()
    ket_scale = 1.0 / np.sqrt(1.0 + kappa**-2)
    bra_scale = 1.0 / np.sqrt(1.0 + kappa**2)  # also the prefactor (1+kappa^2)^(-1/2)
    kets = coherent_amplitudes(alphas * ket_scale, n_cut)
    bras = coherent_amplitudes(np.conj(alphas) * bra_scale, n_cut)
    vecs = bras * np.sqrt(weights / (np.pi * (1.0 + kappa**2)))[:, None]
    family = RankOneFamily(spec, kets, bras.conj(), bra_scale * np.sqrt(weights / np.pi),
                           QuadratureIndex(alphas, weights), vecs.T @ vecs.conj(), origin="rank-one")
    if probe_check:
        probe = thermal_state(2.0, n_cut, tail_tol=1.0)
        reference = apply(build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut), probe)
        got = apply(family, probe)
        dev = trace_distance(got, reference)
        if dev > RANK_ONE_PROBE_TOL:
            raise GridTooCoarse(f"rank-one grid misses the channel output by {dev:.3e} on the thermal probe")
        if not family.completeness_defect <= DEFECT_HARD_LIMIT:
            raise DefectTooLarge(f"rank-one grid: defect {family.completeness_defect:.3e} > {DEFECT_HARD_LIMIT:.1e}")
    return family
