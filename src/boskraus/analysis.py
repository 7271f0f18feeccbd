"""Dynamical and structural channel analyses.

Covers iterated channel action, the thermal step and fixed point read off
a channel's (X, Y) row, phase-space cumulants and their transformation
laws, interrupted (Zeno-like) attenuation/amplification, the Gram-matrix
extremality test on ``{W_m^dag W_n}``, product Kraus families for
composites, and the classicality diagnostics of each family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChannelSpec
from .errors import (
    CutoffTooSmall,
    DimMismatch,
    InvalidParameter,
    UnsupportedFamily,
    UnsupportedPair,
)
from .fock import (
    DensityMatrix,
    _check_counts,
    _check_populations,
    _is_count,
    _ket_sum,
    _population_distance,
    _quadrature_moments,
    coherent_amplitudes,
    coherent_disc_grid,
    coherent_state,
    hermite_psi_table,
    q_function,
    trace_distance,
)
from .families import DiscreteIndex, KrausFamily, ProductFamily, _check_stack_bytes
from .kraus import (
    _population_step,
    apply,
    build_continuous,
    build_discrete,
    suggest_ell_max,
)
from .phasespace import canonical_xy, table1_compose

GRAM_THRESHOLD = 1e-8  # numerical rank cut, relative to the largest singular value
DIAGONALITY_TOL = 1e-12  # off-diagonal and spread limit, relative to the largest |W^dag W| entry
CLASSICALITY_TOL = 1e-6
MAX_CUMULANT_ORDER = 14  # the highest order the tests check against a closed form (|1>)
_BLOCK_BYTES = 1 << 16  # the level-population rows ``iterate`` steps into before it checks them


def thermal_estimate(rho: DensityMatrix) -> float:
    """Thermal covariance parameter from the mean photon number, a0 = 2<n>+1."""
    return float(_population_a0(rho.diagonal))


def _population_a0(populations: np.ndarray) -> np.ndarray:
    """``2 <n> + 1`` of each row of level populations (the levels last)."""
    return 2.0 * np.sum(np.arange(populations.shape[-1]) * populations, axis=-1) + 1.0


@dataclass(frozen=True)
class Trajectory:
    """What repeated channel application leaves: the last state ``final``, the thermal estimate of
    every state visited (the start first), the trace distance of each step, and ``lost_mass``,
    ``1 - prod_i (1 - tail_mass_i)`` over the steps' outputs, the share of the start the cutoff has
    dropped along the way.  No other state is kept, and of a diagonal trajectory no state but
    ``final`` is built."""

    final: DensityMatrix
    a0_estimates: list[float]
    step_distances: list[float]
    lost_mass: float


def iterate(family: KrausFamily, rho0: DensityMatrix, steps: int) -> Trajectory:
    """Apply the channel ``steps`` times, recording per-step diagnostics.

    A diagonal start under a family that ``keeps_diagonal`` never builds a state per step: each step
    is the diagonal branch of ``apply`` (:func:`kraus._population_step`) written into a row of a fixed
    block of level-population rows, ``_BLOCK_BYTES`` in all, so memory does not grow with ``steps``.
    Each filled block gets, over all its rows at once, the checks of a state
    (:func:`fock._check_populations`), the step distances of ``trace_distance`` and the estimates of
    :func:`thermal_estimate`; only ``final`` is built.  The bits, and the error of the first failing
    step, are those of a loop of ``apply``, which every other start takes, holding the state it is on
    and the next.
    """
    if not (_is_count(steps) and steps >= 1):
        raise InvalidParameter(f"steps must be an integer of at least 1, got {steps!r}")
    if rho0.bandwidth == 0 and family.keeps_diagonal:
        return _iterate_populations(family, rho0, steps)
    a0s = [thermal_estimate(rho0)]
    dists: list[float] = []
    kept = 1.0
    rho = rho0
    for _ in range(steps):
        nxt = apply(family, rho)
        dists.append(trace_distance(nxt, rho))
        rho = nxt
        a0s.append(thermal_estimate(rho))
        kept *= 1.0 - rho.tail_mass
    return Trajectory(rho, a0s, dists, 1.0 - kept)


def _iterate_populations(family: KrausFamily, rho0: DensityMatrix, steps: int) -> Trajectory:
    """:func:`iterate` of a diagonal start under a family that ``keeps_diagonal``, a block of rows at a time."""
    rows = min(steps, max(1, _BLOCK_BYTES // (8 * rho0.dim)))
    block = np.empty((rows + 1, rho0.dim))  # row 0 holds the state before the block's first step
    leaks = np.empty(rows)
    block[0] = rho0.diagonal
    a0s, dists, kept = [thermal_estimate(rho0)], [], 1.0
    for start in range(0, steps, rows):
        n = min(rows, steps - start)
        try:
            for j in range(n):
                leaks[j] = _population_step(family, block[j], block[j + 1])[1]
        except InvalidParameter:
            _check_populations(block[1:j + 1], leaks[:j])  # the verdict of an earlier step comes first
            raise
        _check_populations(block[1:n + 1], leaks[:n])
        dists += _population_distance(block[1:n + 1], block[:n]).tolist()
        a0s += _population_a0(block[1:n + 1]).tolist()
        for leak in leaks[:n].tolist():
            kept *= 1.0 - leak
        block[0] = block[n]
    return Trajectory(DensityMatrix._diagonal(block[0], float(leaks[n - 1])), a0s, dists, 1.0 - kept)


def _thermal_law(spec: ChannelSpec) -> tuple[float, float]:
    """``(g, y)`` of ``a0 -> g a0 + y``, the image of a thermal covariance ``a0 I`` under the row of
    :func:`phasespace.canonical_xy`: ``g = X[0,0]^2``, ``y = Y[0,0]``.  ``UnsupportedFamily`` where it is
    not thermal: ``X`` is not diagonal of one magnitude, or ``Y`` not a multiple of I (A2, noisy B1)."""
    xy = canonical_xy(spec)
    (x, x01), (x10, x11) = xy.x.tolist()
    (y, y01), (y10, y11) = xy.y.tolist()
    if x01 or x10 or y01 or y10 or abs(x11) != abs(x) or y11 != y:
        raise UnsupportedFamily(f"{spec} does not keep thermal states thermal")
    return x**2, y


def thermal_step(spec: ChannelSpec, a0: float) -> float:
    """One step ``a0 -> g a0 + y`` of the thermal parameter (:func:`_thermal_law`), noise included;
    ``InvalidParameter`` unless ``1 <= a0 < inf``."""
    if not 1.0 <= a0 < math.inf:
        raise InvalidParameter(f"thermal parameter must be finite and >= 1, got {a0}")
    g, y = _thermal_law(spec)
    return g * a0 + y


def fixed_point(spec: ChannelSpec) -> float | None:
    """Attracting thermal parameter ``y / (1 - g)`` of :func:`thermal_step`, noise included, or None
    where no thermal state attracts: ``g >= 1`` (amplifiers, D(kappa >= 1), the identity, classical
    noise) or a row that does not keep thermal states thermal."""
    try:
        g, y = _thermal_law(spec)
    except UnsupportedFamily:
        return None
    return y / (1.0 - g) if g < 1.0 else None


def cumulants(rho: DensityMatrix, max_order: int) -> np.ndarray:
    """Phase-space cumulants gamma[m1, m2] of log chi_W, exact from quadrature moments.

    Defined as d^m1/d(i xi1)^m1 d^m2/d(i xi2)^m2 log chi_W at xi = 0 with
    xi = xi1 + i xi2.  In these units a thermal state has
    gamma[2,0] = gamma[0,2] = a0 and all higher cumulants zero; entries
    with m1 + m2 > max_order are NaN and gamma[0,0] is 0.

    As ``D(xi) = exp(i (xi1 Y1 + xi2 Y2))``, ``chi_W`` generates the moments of :func:`_quadrature_moments`
    (nothing is truncated); the bivariate moment-cumulant recursion turns them into ``gamma``, exact up to
    roundoff at every order tested: ``|1>`` matches its closed form to 3e-15 relative through order 20.
    ``max_order`` must be an integer in ``0..MAX_CUMULANT_ORDER`` (``InvalidParameter``, before any work).
    """
    if not _is_count(max_order) or max_order < 0:
        raise InvalidParameter(f"cumulant order must be a nonnegative integer, got {max_order!r}")
    if max_order > MAX_CUMULANT_ORDER:
        raise InvalidParameter(f"cumulants supported up to total order {MAX_CUMULANT_ORDER}")
    mu = _quadrature_moments(rho, max_order)
    out = np.full_like(mu, np.nan)
    for m in np.ndindex(mu.shape):  # every m - j with 0 < j <= m comes earlier
        if sum(m) <= max_order:
            a = 0 if m[0] else 1  # d_a chi = chi d_a log chi along an axis with m[a] >= 1
            out[m] = mu[m] - sum(math.comb(m[a] - 1, j[a]) * math.comb(m[1 - a], j[1 - a])
                                 * mu[j] * out[m[0] - j[0], m[1] - j[1]]
                                 for j in np.ndindex(m[0] + 1, m[1] + 1) if any(j) and j[a] < m[a])
    out[0, 0] = 0.0
    return out


def zeno_kappa(mode: str, n_interrupts: int, steps: int, total: float | None = None) -> float:
    """Net gain after ``steps`` interrupted evolutions of length total/N.

    Attenuator: kappa = cos(total / N)^steps with total defaulting to
    pi/2 (total attenuation when uninterrupted).  Amplifier:
    kappa = cosh(total / N)^steps.  ``n_interrupts >= 1`` and ``steps >= 0`` must be integers.
    """
    if not (_is_count(n_interrupts) and _is_count(steps) and n_interrupts >= 1 and steps >= 0):
        raise InvalidParameter(f"need integer counts, n_interrupts >= 1, steps >= 0; got {n_interrupts!r}, {steps!r}")
    if total is not None and not np.isfinite(total):
        raise InvalidParameter(f"the total evolution parameter must be finite, got {total}")
    if mode == "attenuator":
        total = 0.5 * np.pi if total is None else total
        return float(np.cos(total / n_interrupts) ** steps)
    if mode == "amplifier":
        if total is None:
            raise InvalidParameter("amplifier mode needs the total squeeze parameter")
        return float(np.cosh(total / n_interrupts) ** steps)
    raise InvalidParameter(f"mode must be 'attenuator' or 'amplifier', got {mode!r}")


@dataclass(frozen=True, eq=False)
class GramReport:
    """Singular spectrum of the Gram matrix of ``{W_m^dag W_n}``."""

    block: int
    singular_values: np.ndarray
    numerical_rank: int
    threshold: float


def gram_rank(family: KrausFamily, k: int) -> GramReport:
    """Numerical rank of the Gram matrix of the products ``W_m^dag W_n``.

    A channel is extremal iff these products are linearly independent, i.e. the
    Gram matrix of the first ``(k+1)^2`` products (:meth:`KrausFamily.product_gram`)
    has full rank: singular values above ``GRAM_THRESHOLD`` of the largest.  The
    :class:`families.ProductFamily` of :func:`product_family` holds two-factor products
    already, so it takes the Gram matrix of its own first ``(k+1)^2`` operators: a
    dependent product set cannot certify extremality of the composite.

    A cutoff probe guards against band truncation silently deflating the products:
    above 16 levels, the Gram part carried by the entries in the top 8 rows or
    columns must stay below ``1e-8`` of the largest singular value.  Quadrature
    families are exempt: truncated position states gain norm with the cutoff
    without affecting linear independence.
    """
    count = _block_count(k)
    gram, border = family.product_gram(count)
    sv = np.linalg.svd(gram, compute_uv=False)
    if family.dim > 16 and border > 1e-8 * max(sv[0], 1e-300):
        # banded products decay along their band; if the entries in the top
        # rows or columns still carry Gram weight, the cutoff clipped them
        raise CutoffTooSmall("Gram entries still change when the top of the cutoff is dropped")
    rank = int(np.sum(sv > GRAM_THRESHOLD * sv[0]))
    return GramReport(count * count, sv, rank, GRAM_THRESHOLD)


def _block_count(k) -> int:
    """``k + 1`` operators for the block index ``k``; ``InvalidParameter`` unless ``k`` is a nonnegative integer."""
    _check_counts(k=k)
    if k < 0:
        raise InvalidParameter(f"the block index k must be nonnegative, got {k}")
    return k + 1


def product_family(outer: KrausFamily, inner: KrausFamily, k: int) -> ProductFamily:
    """The ``(k+1)^2`` products (outer_m inner_n) as a :class:`families.ProductFamily`.

    Applying it agrees with applying ``inner`` then ``outer``; its spec is
    the composition-table entry for the pair.  Only the first ``k + 1``
    operators of each factor are built; a banded factor keeps its stack
    unbuilt.  A product stack above ``MAX_DENSE_BYTES`` raises
    ``AllocationTooLarge`` before anything is built.
    """
    if outer.dim != inner.dim:
        raise DimMismatch(f"dims differ: {outer.dim} vs {inner.dim}")
    if not (outer.discrete and inner.discrete):
        raise UnsupportedFamily("product families need two discrete-index factors")
    count = _block_count(k)
    if count > len(outer) or count > len(inner):
        raise InvalidParameter("not enough operators for the requested block")
    _check_stack_bytes(count * count, outer.dim)  # the products
    ops = outer.operators(count)[:, None] @ inner.operators(count)[None]
    ops = ops.reshape(count * count, outer.dim, outer.dim)
    spec = None
    if outer.spec is not None and inner.spec is not None:
        try:
            spec = table1_compose(outer.spec, inner.spec)
        except UnsupportedPair:
            spec = None
    return ProductFamily(spec, ops, DiscreteIndex(count * count - 1), "product")


@dataclass(frozen=True)
class ClassicalityReport:
    """Per-probe outcome of a family's phase-space scaling diagnostic."""

    spec: ChannelSpec
    check: str
    max_deviation: float
    passed: bool
    details: dict = field(default_factory=dict)


def classicality_check(spec: ChannelSpec, probes: list[DensityMatrix],
                       grid: np.ndarray) -> list[ClassicalityReport]:
    """Family-specific phase-space verification on the given probes.

    C1 sends coherent states to attenuated coherent states; C2 scales the
    Husimi function, ``Q'(alpha) = kappa^-2 Q(alpha/kappa)``; D outputs a
    state whose diagonal weight is the conjugate-scaled input Q, checked
    by rebuilding the output from that weight (one weighted sum of coherent
    projectors on a 48x48 disc grid, :func:`fock._ket_sum`); the weight is
    nonnegative everywhere sampled.  A2 outputs the position-diagonal weight
    ``<q|rho|q>`` at its quadrature nodes, checked nonnegative, each value by
    the stacked matmuls of :func:`fock.q_function`.  A probe passes below
    ``CLASSICALITY_TOL`` (ten times that for the D rebuild).
    """
    reports = []
    fam = spec.family
    if not probes or np.size(grid) == 0:
        raise InvalidParameter("need at least one probe state and one grid point")
    n_cut = probes[0].dim
    if fam in ("C1", "C2", "D"):
        ell = suggest_ell_max(spec, n_cut, 1e-13)
        family = build_discrete(spec, ell, n_cut)
    if fam == "C1":
        lowering = np.diag(np.sqrt(np.arange(1, n_cut)), 1)
        for probe in probes:
            out = apply(family, probe)
            # coherent probes only: the center is <a>
            mean_in = complex(np.trace(probe.mat @ lowering))
            target = coherent_state(spec.kappa * mean_in, n_cut, tail_tol=1.0)
            dev = trace_distance(out, target)
            reports.append(ClassicalityReport(spec, "coherent-to-coherent", dev, dev < CLASSICALITY_TOL))
    elif fam == "C2":
        for probe in probes:
            out = apply(family, probe)
            dev = float(np.max(np.abs(q_function(out, grid) - q_function(probe, grid / spec.kappa) / spec.kappa**2)))
            reports.append(ClassicalityReport(spec, "husimi-scaling", dev, dev < CLASSICALITY_TOL))
    elif fam == "D":
        k = spec.kappa
        radius = 1.2 * (np.sqrt(spec.quantum_limited_noise()) * (np.max(np.abs(grid)) + 4.0))
        alphas, weights = coherent_disc_grid(radius, 48, 48)
        kets = coherent_amplitudes(alphas, n_cut)
        for probe in probes:
            out = apply(family, probe)
            coeffs = (weights / np.pi) * (q_function(probe, np.conj(alphas) / k) / k**2)
            rebuilt = _ket_sum(kets, coeffs)
            tr = float(np.trace(rebuilt).real)
            dev = float(np.max(np.abs(rebuilt / tr - out.mat)))
            negative = float(np.min(q_function(probe, np.conj(grid) / k) / k**2))
            ok = dev < 10 * CLASSICALITY_TOL and negative >= -1e-12
            reports.append(ClassicalityReport(spec, "conjugated-q-weight", dev, ok,
                                              {"min_weight": float(negative)}))
    elif fam == "A2":
        table = hermite_psi_table(n_cut - 1, build_continuous(spec, max(2 * n_cut, 64), n_cut).index.nodes).T
        for probe in probes:
            diag_weight = ((table.conj()[:, None, :] @ probe.mat) @ table[:, :, None]).real
            dev = max(0.0, -float(np.min(diag_weight)))
            reports.append(ClassicalityReport(spec, "position-weight-nonnegative", dev, dev < CLASSICALITY_TOL))
    else:
        raise UnsupportedFamily(f"no classicality diagnostic for family {fam}")
    return reports


def simultaneous_diagonality(family: KrausFamily) -> tuple[bool, str]:
    """Whether all ``W^dag W`` are simultaneously diagonal, and in what basis.

    Returns a basis tag: ``fock`` when every product is diagonal in the
    number basis, ``any`` when every product is a multiple of the
    identity, ``position`` when each product is the (rank-one) projector
    onto a position wavefunction, and ``none`` otherwise.  The family
    decides (:meth:`KrausFamily.diagonal_basis`); a B1 family re-evaluates
    its displacements with the stack kernel :func:`fock._displacement_chunks`.
    """
    return family.diagonal_basis(DIAGONALITY_TOL)
