"""Core Fock-space operations against independent oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import genlaguerre, roots_hermite

from references import char_ordered, phase_averaged_state

from boskraus import fock, kraus
from boskraus.channels import ChannelSpec
from boskraus.errors import (
    CutoffTooSmall,
    DimMismatch,
    InvalidParameter,
    OrderTooLarge,
)
from boskraus.fock import (
    DensityMatrix,
    TruncatedOperator,
    char_weyl,
    coherent_amplitudes,
    coherent_state,
    displacement_op,
    fock_state,
    hermite_psi_table,
    q_function,
    random_mixed_state,
    state_new,
    thermal_state,
    trace_distance,
)


DISPLACEMENT_RTOL = 1e-13  # of the largest entry: a complex point is the real matrix at |xi| turned by its phase


def close_to(got: np.ndarray, want: np.ndarray) -> bool:
    """Within ``DISPLACEMENT_RTOL`` of the largest entry of ``want``: how a complex point's matrix compares."""
    return np.max(np.abs(got - want)) <= DISPLACEMENT_RTOL * np.max(np.abs(want))


def displacement_expm(xi: complex, dim: int) -> np.ndarray:
    """Independent oracle: matrix exponential of xi a^dag - conj(xi) a."""
    a = np.diag(np.sqrt(np.arange(1, dim)), 1)
    return expm(xi * a.conj().T - np.conj(xi) * a)


def reference_displacement_op(xi: complex, n_cut: int) -> TruncatedOperator:
    """Per-entry Laguerre loops, one diagonal at a time: the reference the
    table form of ``displacement_op`` reproduces, at a real point by value and
    at a complex one to ``DISPLACEMENT_RTOL``."""
    x = abs(xi) ** 2
    if x * n_cut > 1e6:
        raise InvalidParameter(f"displacement argument too large: |xi|^2 = {x:.3e}")
    gauss = np.exp(-0.5 * x)
    mat = np.zeros((n_cut, n_cut), dtype=np.complex128)
    for arg, lower in ((xi, True), (-np.conj(xi), False)):
        # lower=True fills m >= n with m - n = delta; lower=False fills m < n.
        start = 0 if lower else 1
        for delta in range(start, n_cut):
            klen = n_cut - delta
            # prefactor p_k = sqrt(k!/(k+delta)!) arg^delta, built multiplicatively
            pref = np.empty(klen, dtype=np.complex128)
            p0 = 1.0 + 0.0j
            for j in range(1, delta + 1):
                p0 *= arg / np.sqrt(j)
            pref[0] = p0
            for k in range(1, klen):
                pref[k] = pref[k - 1] * np.sqrt(k / (k + delta))
            # L_k^(delta)(x) upward in k
            lag = np.empty(klen)
            lag[0] = 1.0
            if klen > 1:
                lag[1] = 1.0 + delta - x
            for k in range(1, klen - 1):
                lag[k + 1] = ((2 * k + 1 + delta - x) * lag[k] - (k + delta) * lag[k - 1]) / (k + 1)
            vals = pref * lag * gauss
            idx = np.arange(klen)
            if lower:
                mat[idx + delta, idx] = vals
            else:
                mat[idx, idx + delta] = vals
    return TruncatedOperator(mat)


def reference_coherent_amplitudes(alpha: complex, n_cut: int) -> np.ndarray:
    """The scalar recurrence the table form of ``coherent_amplitudes`` must
    reproduce bit for bit."""
    v = np.empty(n_cut, dtype=np.complex128)
    v[0] = 1.0
    for n in range(1, n_cut):
        v[n] = v[n - 1] * alpha / np.sqrt(n)
    return v * np.exp(-0.5 * abs(alpha) ** 2)


def reference_table(alphas: np.ndarray, n_cut: int) -> np.ndarray:
    return np.array([reference_coherent_amplitudes(al, n_cut) for al in alphas])


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal bit patterns: ``np.array_equal`` plus the signs of zeros."""
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                  np.ascontiguousarray(b).view(np.uint64))


def reference_q_function(rho: DensityMatrix, alpha: complex) -> float:
    v = reference_coherent_amplitudes(alpha, rho.dim)
    val = complex(v.conj() @ rho.mat @ v)
    if val.real < -1e-12:
        raise InvalidParameter(f"Q function came out negative: {val.real:.3e}")
    return float(val.real)


class TestStates:
    def test_vacuum_is_trivial(self):
        rho = fock_state(0, 8)
        expect = np.zeros((8, 8))
        expect[0, 0] = 1.0
        assert np.array_equal(rho.mat, expect)
        assert rho.tail_mass == 0.0

    def test_thermal_geometric_ratio(self):
        rho = thermal_state(3.0, 64)
        diag = np.diag(rho.mat).real
        np.testing.assert_allclose(diag[1:] / diag[:-1], 0.5, atol=1e-14)
        assert rho.tail_mass == pytest.approx(0.5**64)

    def test_coherent_poissonian_diagonal(self):
        # oracle: direct Poisson evaluation
        rho = coherent_state(1.0, 32)
        expect = np.array([math.exp(-1.0) / math.factorial(k) for k in range(32)], dtype=float)
        np.testing.assert_allclose(np.diag(rho.mat).real, expect, atol=1e-15)
        tail = 1.0 - sum(math.exp(-1.0) / math.factorial(k) for k in range(32))
        assert rho.tail_mass == pytest.approx(tail, abs=1e-18)

    def test_phase_averaged_matches_poisson(self):
        rho = phase_averaged_state(2.5, 48)
        expect = [math.exp(-2.5) * 2.5**k / math.factorial(k) for k in range(48)]
        np.testing.assert_allclose(np.diag(rho.mat).real, expect, rtol=1e-12)

    def test_random_mixed_valid(self):
        rho = random_mixed_state(7, 3, 24)
        assert np.trace(rho.mat).real == pytest.approx(1.0)
        assert np.linalg.matrix_rank(rho.mat, tol=1e-10) == 3

    def test_cutoff_guard(self):
        with pytest.raises(CutoffTooSmall):
            thermal_state(10.0, 8)
        with pytest.raises(InvalidParameter):
            thermal_state(0.5, 32)

    @pytest.mark.parametrize("make", [
        lambda: thermal_state(2.0, 5.5),  # would be 6 levels with the tail x^5.5 of none
        lambda: phase_averaged_state(1.0, 6.5),
        lambda: coherent_state(0.5, 8.5),
        lambda: random_mixed_state(0, 2.0, 6),
        lambda: fock_state(1.5, 8),
        lambda: fock_state(True, 8),
    ], ids=["thermal-cutoff", "phase-averaged-cutoff", "coherent-cutoff", "mixed-rank", "fock-level", "fock-bool"])
    def test_counts_must_be_integers(self, make):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            make()

    @pytest.mark.parametrize("make", [
        lambda: thermal_state(1.0, -3),  # 0.0 ** -3 divides by zero
        lambda: thermal_state(2.0, -3),  # the tail x^-3 reads as a mass of 27
        lambda: coherent_state(0.5, -3),
        lambda: phase_averaged_state(1.0, -3),
    ], ids=["thermal-vacuum", "thermal", "coherent", "phase-averaged"])
    def test_cutoff_must_be_nonnegative(self, make):
        with pytest.raises(InvalidParameter, match="^n_cut must be nonnegative, got -3$"):
            make()

    @pytest.mark.parametrize("alpha,n_cut", [(0.0, 0), (math.nan, 0), (0.0, 1)])
    def test_coherent_state_below_two_levels_is_a_typed_error(self, alpha, n_cut):
        # the tail P(N >= 0) of the vacuum is nan, which the tail check lets through
        with pytest.raises(InvalidParameter, match="^cutoff dimension must be at least 2$"):
            coherent_state(alpha, n_cut)

    def test_dispatcher(self):
        assert np.array_equal(state_new("fock", 8, n=2).mat, fock_state(2, 8).mat)
        with pytest.raises(InvalidParameter):
            state_new("bogus", 8)

    def test_density_matrix_invariants_enforced(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5  # not Hermitian
        with pytest.raises(InvalidParameter):
            DensityMatrix(TruncatedOperator(bad), 0.0)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.array_equal(displacement_op(0.0, 16).mat, np.eye(16))

    def test_vacuum_matrix_element(self):
        xi = 0.63 - 0.22j
        d = displacement_op(xi, 16)
        assert d.mat[0, 0] == pytest.approx(np.exp(-0.5 * abs(xi) ** 2))

    @pytest.mark.parametrize("xi", [0.4, -0.9 + 0.7j, 1.3j])
    def test_against_matrix_exponential(self, xi):
        # oracle: expm on a taller space, compared on the lower block
        dim, tall = 24, 48
        d = displacement_op(xi, dim).mat
        ref = displacement_expm(xi, tall)[:dim, :dim]
        assert np.max(np.abs(d - ref)[: dim // 2, : dim // 2]) < 1e-12
        assert d[1, 0] == pytest.approx(xi * np.exp(-0.5 * abs(xi) ** 2))

    def test_inverse_on_lower_block(self):
        # the product of two truncations leaks once (sqrt(block) + |xi|)^2
        # approaches the cutoff, so |xi| <= 2 needs the taller space
        for xi in (0.8, 1.5 - 0.7j, 2.0j):
            d = displacement_op(xi, 96).mat
            dinv = displacement_op(-xi, 96).mat
            err = np.linalg.norm((d @ dinv - np.eye(96))[:48, :48])
            assert err < 1e-8
        for xi in (0.5, 0.7j):
            d = displacement_op(xi, 32).mat
            dinv = displacement_op(-xi, 32).mat
            assert np.linalg.norm((d @ dinv - np.eye(32))[:16, :16]) < 1e-8

    def test_laguerre_closed_form(self):
        # cross-check a generic entry against scipy's Laguerre evaluation
        xi = 0.8 + 0.3j
        x = abs(xi) ** 2
        d = displacement_op(xi, 12).mat
        want = (
            math.sqrt(math.factorial(2) / math.factorial(5))
            * xi**3
            * genlaguerre(2, 3)(x)
            * np.exp(-x / 2)
        )
        assert d[5, 2] == pytest.approx(want, rel=1e-13)

    def test_overflow_guard(self):
        with pytest.raises(InvalidParameter):
            displacement_op(300.0, 64)


class TestDisplacementTable:
    """The Laguerre-table form reproduces the per-entry loops: exactly at a real point, and to
    ``DISPLACEMENT_RTOL`` at a complex one."""

    @pytest.mark.parametrize("n_cut", [2, 3, 16, 48, 128])
    @pytest.mark.parametrize("xi", [0.0, 0.4, -0.9 + 0.7j, 1.3j, 0.5 + 0.2j, 3 + 1j])
    def test_bit_identical_on_grid(self, xi, n_cut):
        got, want = displacement_op(xi, n_cut).mat, reference_displacement_op(xi, n_cut).mat
        assert close_to(got, want) if isinstance(xi, complex) else np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(radius=st.floats(0.0, 4.0), angle=st.floats(0.0, 2 * np.pi), n_cut=st.integers(2, 96))
    def test_bit_identical_property(self, radius, angle, n_cut):
        xi = complex(radius * np.cos(angle), radius * np.sin(angle))
        assert close_to(displacement_op(xi, n_cut).mat, reference_displacement_op(xi, n_cut).mat)

    def test_b1_family_and_char_weyl_bit_identical(self, monkeypatch):
        spec = ChannelSpec("B1", noise_a=0.5)
        rho = random_mixed_state(5, 3, 64)
        points = (0.02, 0.3 - 0.1j, -0.7 + 0.4j, 1.1j)
        fam = kraus.build_continuous(spec, 64, 64)
        chis = [char_weyl(rho, xi) for xi in points]
        monkeypatch.setattr(fock, "displacement_op", reference_displacement_op)
        assert np.array_equal(fam.ops, kraus.build_continuous(spec, 64, 64).ops)
        want = [char_weyl(rho, xi) for xi in points]
        assert chis[0] == want[0]  # the one real point
        assert np.max(np.abs(np.subtract(chis, want))) <= DISPLACEMENT_RTOL

    @pytest.mark.parametrize("xi,n_cut", [(300.0, 64), (40j, 1000), (1e3, 2)])
    def test_same_overflow_guard(self, xi, n_cut):
        with pytest.raises(InvalidParameter):
            displacement_op(xi, n_cut)
        with pytest.raises(InvalidParameter):
            reference_displacement_op(xi, n_cut)


    def test_largest_cutoff_is_finite(self):
        assert np.array_equal(displacement_op(0.0, 1020).mat, np.eye(1020))

    @pytest.mark.parametrize("xi", [0.0, 0.3, 1 + 0.5j])
    def test_cutoff_above_limit_raises_before_overflow(self, xi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OrderTooLarge):
                displacement_op(xi, 1021)

    def test_peak_memory_per_entry(self):
        xi, n_cut = 0.5 + 0.2j, 512
        displacement_op(xi, 8)
        tracemalloc.start()
        try:
            got = displacement_op(xi, n_cut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n_cut**2
        assert close_to(got.mat, reference_displacement_op(xi, n_cut).mat)


class TestCoherentTable:
    """The table form of ``coherent_amplitudes`` reproduces the scalar loop exactly."""

    @pytest.mark.parametrize("n_cut", [2, 3, 16, 48, 128, 256])
    @pytest.mark.parametrize("alpha", [0, 0.0, 0j, 0.7 - 1.3j, np.complex128(-2.1 + 0.4j), 1.9,
                                       np.float64(-0.35), 3j, np.complex128(6.0 + 7.5j)])
    def test_scalar_bit_identical(self, alpha, n_cut):
        assert same_bits(coherent_amplitudes(alpha, n_cut), reference_coherent_amplitudes(alpha, n_cut))

    @pytest.mark.parametrize("n_cut", [2, 3, 16, 48, 128, 256])
    def test_array_bit_identical(self, rng, n_cut):
        for scale in (0.1, 1.0, 3.0, 10.0):
            pts = scale * (rng.normal(size=40) + 1j * rng.normal(size=40))
            assert same_bits(coherent_amplitudes(pts, n_cut), reference_table(pts, n_cut))
            assert same_bits(coherent_amplitudes(pts.real, n_cut), reference_table(pts.real, n_cut))
            assert same_bits(coherent_amplitudes(1j * pts.imag, n_cut), reference_table(1j * pts.imag, n_cut))

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=6),
           n_cut=st.integers(2, 128))
    def test_bit_identical_property(self, points, n_cut):
        alphas = np.array([r * np.cos(t) + 1j * r * np.sin(t) for r, t in points])
        table = coherent_amplitudes(alphas, n_cut)
        assert same_bits(table, reference_table(alphas, n_cut))
        assert same_bits(coherent_amplitudes(complex(alphas[0]), n_cut), table[0])

    def test_shapes(self):
        assert coherent_amplitudes(0.3j, 5).shape == (5,)
        grid = np.linspace(-1, 1, 6).reshape(2, 3) * (1 + 0.5j)
        table = coherent_amplitudes(grid, 7)
        assert table.shape == (2, 3, 7) and table.flags.c_contiguous
        assert np.array_equal(table[1, 2], reference_coherent_amplitudes(grid[1, 2], 7))

    def test_array_q_function_equals_pointwise(self, rng):
        rho = random_mixed_state(4, 3, 48)
        grid = (rng.uniform(-2, 2, size=(5, 7)) + 1j * rng.uniform(-2, 2, size=(5, 7)))
        vals = q_function(rho, grid)
        assert vals.shape == (5, 7)
        assert vals.tolist() == [[reference_q_function(rho, al) for al in row] for row in grid]
        assert q_function(rho, grid[0, 0]) == reference_q_function(rho, grid[0, 0])

    def test_array_q_function_rejects_a_negative_value(self):
        # eigenvalue -5e-11 passes the state check, Q(0) = -5e-11 does not
        rho = DensityMatrix(TruncatedOperator(np.diag([-5e-11, 1.0 + 5e-11, 0.0, 0.0])), 0.0)
        with pytest.raises(InvalidParameter):
            q_function(rho, np.array([1.5, 0.0, 2.0j]))
        with pytest.raises(InvalidParameter):
            reference_q_function(rho, 0.0)

    def test_a2_family_equals_reference_build(self):
        x, w = kraus.hermite_quadrature(64)
        psi = fock.hermite_psi_table(15, x)
        want = np.stack([np.sqrt(w[i]) * np.outer(reference_coherent_amplitudes(x[i] / np.sqrt(2.0), 16), psi[:, i])
                         for i in range(64)])
        assert same_bits(kraus.build_continuous(ChannelSpec("A2"), 64, 16).ops, want)

    def test_rank_one_family_and_defect_equal_reference_build(self):
        kappa, n_cut = 0.8, 24
        alphas, weights = fock.coherent_disc_grid(7.0, 20, 24)
        fam = kraus.rank_one_d(kappa, alphas, weights, n_cut, probe_check=False)
        pref = 1.0 / np.sqrt(1.0 + kappa**2)
        ket_scale = 1.0 / np.sqrt(1.0 + kappa**-2)
        bra_scale = 1.0 / np.sqrt(1.0 + kappa**2)
        want = np.stack([
            (pref * np.sqrt(w / np.pi)) * np.outer(reference_coherent_amplitudes(al * ket_scale, n_cut),
                                                   reference_coherent_amplitudes(np.conj(al) * bra_scale, n_cut).conj())
            for al, w in zip(alphas, weights)
        ])
        assert same_bits(fam.ops, want)
        vecs = np.stack([
            reference_coherent_amplitudes(np.conj(al) * bra_scale, n_cut) * np.sqrt(w / (np.pi * (1.0 + kappa**2)))
            for al, w in zip(alphas, weights)
        ])
        s = vecs.T @ vecs.conj()  # one GEMM; the einsum loop it replaced sums in another order
        assert np.max(np.abs(s - np.einsum("li,lk->ik", vecs, vecs.conj()))) <= 1e-14
        assert fam.completeness_defect == float(np.linalg.norm((s - np.eye(n_cut))[:12, :12], ord=2))


class TestCharacteristicFunctions:
    def test_vacuum_gaussian(self):
        vac = fock_state(0, 32)
        for xi in (0.3, 0.7 - 0.2j):
            assert char_weyl(vac, xi) == pytest.approx(np.exp(-0.5 * abs(xi) ** 2))

    def test_at_origin_equals_trace(self):
        rho = thermal_state(4.0, 48, tail_tol=1.0)
        assert char_weyl(rho, 0.0) == pytest.approx(1.0 - rho.tail_mass)

    def test_thermal_against_series_oracle(self):
        # oracle: sum the geometric Laguerre series term by term
        # (150 terms leave a remainder below ratio^150 ~ 1e-27)
        a0, xi = 3.0, 0.45 - 0.3j
        x = abs(xi) ** 2
        ratio = (a0 - 1.0) / (a0 + 1.0)
        series = sum((1 - ratio) * ratio**n * genlaguerre(n, 0)(x) for n in range(150))
        series *= np.exp(-x / 2)
        rho = thermal_state(a0, 64)
        got = char_weyl(rho, xi)
        assert got == pytest.approx(series, rel=1e-10)
        assert got == pytest.approx(np.exp(-0.5 * a0 * x), rel=1e-10)

    def test_hermitian_symmetry(self):
        rho = random_mixed_state(3, 4, 24)
        xi = 0.5 + 0.2j
        assert char_weyl(rho, -xi) == pytest.approx(np.conj(char_weyl(rho, xi)))

    def test_bounded_by_one(self, rng):
        rho = random_mixed_state(11, 6, 32)
        for _ in range(25):
            xi = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(char_weyl(rho, xi)) <= 1.0 + 1e-10

    def test_ordered_factors(self):
        vac = fock_state(0, 32)
        assert char_ordered(vac, 0.9, "normal") == pytest.approx(1.0)
        assert char_ordered(vac, 0.9, "antinormal") == pytest.approx(np.exp(-0.81))
        th = thermal_state(3.0, 64)
        assert char_ordered(th, 1.0, "antinormal") == pytest.approx(np.exp(-2.0), rel=1e-10)
        with pytest.raises(InvalidParameter):
            char_ordered(vac, 0.1, "weyl")


class TestQFunction:
    def test_vacuum(self):
        vac = fock_state(0, 32)
        assert q_function(vac, 1.2 - 0.5j) == pytest.approx(np.exp(-(1.2**2 + 0.5**2)))

    def test_fock_one(self):
        f1 = fock_state(1, 32)
        al = 0.8 + 0.1j
        assert q_function(f1, al) == pytest.approx(abs(al) ** 2 * np.exp(-abs(al) ** 2))

    def test_coherent_overlap(self):
        beta = 0.9 - 0.4j
        rho = coherent_state(beta, 48)
        for al in (0.0, 0.5 + 0.5j, -1.0j):
            assert q_function(rho, al) == pytest.approx(np.exp(-abs(al - beta) ** 2), abs=1e-12)

    def test_disc_integral_returns_mass(self):
        # quadrature over a disc large enough that the coherent tail < 1e-6
        rho = coherent_state(0.7, 48)
        r, wr = np.polynomial.legendre.leggauss(80)
        radius = 6.5
        r = 0.5 * radius * (r + 1.0)
        wr = 0.5 * radius * wr * r
        theta = 2 * np.pi * np.arange(64) / 64
        total = sum(
            wri * (2 * np.pi / 64) * q_function(rho, ri * np.exp(1j * t))
            for ri, wri in zip(r, wr)
            for t in theta
        ) / np.pi
        assert total == pytest.approx(1.0 - rho.tail_mass, abs=1e-6)


class TestHermite:
    def test_ground_state_value(self):
        assert hermite_psi_table(0, 0.0)[0] == pytest.approx(np.pi**-0.25)

    def test_odd_parity(self):
        assert hermite_psi_table(1, 0.0)[1] == 0.0
        assert hermite_psi_table(3, 0.7)[3] == pytest.approx(-hermite_psi_table(3, -0.7)[3])

    def test_normalized_by_quadrature(self):
        # oracle: Gauss-Hermite quadrature of psi_3^2
        x, w = roots_hermite(60)
        vals = np.array([hermite_psi_table(3, xi)[3] for xi in x])
        integral = np.sum(w * np.exp(x**2) * vals**2)
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_recurrence_consistency(self):
        x = 0.83
        lhs = hermite_psi_table(5, x)[5]
        rhs = np.sqrt(2 / 5) * x * hermite_psi_table(4, x)[4] - np.sqrt(4 / 5) * hermite_psi_table(3, x)[3]
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_order_guard(self):
        with pytest.raises(OrderTooLarge):
            hermite_psi_table(2001, 0.0)[2001]

    @pytest.mark.parametrize("make", [
        lambda: hermite_psi_table(-1, 0.3),
        lambda: hermite_psi_table(2.5, 0.3),
        lambda: hermite_psi_table(1.5, 0.3)[1],
        lambda: hermite_psi_table(True, 0.3)[1],  # a boolean index would pick the rows psi_0 and psi_1
    ], ids=["table-negative", "table-fractional", "psi-fractional", "psi-bool"])
    def test_order_must_be_a_nonnegative_integer(self, make):
        with pytest.raises(InvalidParameter, match="^order must be"):
            make()


class TestTraceDistance:
    def test_identical_states(self):
        rho = thermal_state(2.0, 32)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(fock_state(0, 16), fock_state(1, 16)) == pytest.approx(1.0)

    def test_diagonal_oracle(self):
        # both diagonal: half the absolute eigenvalue gap, summed directly
        vac = fock_state(0, 48)
        th = thermal_state(1.2, 48)
        p = np.diag(vac.mat).real
        q = np.diag(th.mat).real
        assert trace_distance(vac, th) == pytest.approx(0.5 * np.sum(np.abs(p - q)), abs=1e-14)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            trace_distance(fock_state(0, 16), fock_state(0, 24))


@settings(max_examples=200, deadline=None)
@given(n_cut=st.integers(1, 64), width_frac=st.floats(0.0, 1.0), density=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_bandwidth_is_the_widest_nonzero_offset(n_cut, width_frac, density, seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n_cut, n_cut)) * (rng.random((n_cut, n_cut)) < 0.5) \
        + 1j * rng.normal(size=(n_cut, n_cut)) * (rng.random((n_cut, n_cut)) < 0.5)
    rows, cols = np.indices(mat.shape)
    mat[(np.abs(rows - cols) > width_frac * (n_cut - 1)) | (rng.random(mat.shape) > density)] = -0.0
    nz_rows, nz_cols = np.nonzero(mat)
    assert fock.bandwidth(mat) == int(np.max(np.abs(nz_rows - nz_cols), initial=0))


class TestDiagonalEigenvalues:
    def test_off_diagonal_entry_takes_lapack(self, monkeypatch):
        mat = thermal_state(2.0, 16).mat.copy()
        mat[3, 4] = mat[4, 3] = 1e-3
        assert fock.bandwidth(mat) == 1
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        DensityMatrix(TruncatedOperator(np.diag(np.diag(mat))), thermal_state(2.0, 16).tail_mass)
        assert calls == []
        DensityMatrix(TruncatedOperator(mat), thermal_state(2.0, 16).tail_mass)
        assert len(calls) == 1

    def test_negative_diagonal_entry_still_raises(self):
        diag = np.full(16, 1.0 / 15)
        diag[7] = -2e-10
        diag[0] += 2e-10 - 1.0 / 15
        with pytest.raises(InvalidParameter, match="eigenvalue"):
            DensityMatrix(TruncatedOperator(np.diag(diag.astype(np.complex128))))

    def test_non_hermitian_diagonal_still_raises(self):
        mat = np.diag(np.full(8, 0.125, dtype=np.complex128))
        mat[2, 2] += 1e-11j
        with pytest.raises(InvalidParameter, match="Hermitian"):
            DensityMatrix(TruncatedOperator(mat))

    def test_trace_window_still_checked(self):
        with pytest.raises(InvalidParameter, match="trace"):
            DensityMatrix(TruncatedOperator(np.diag(np.full(8, 0.126, dtype=np.complex128))))

    @pytest.mark.parametrize("n_cut", [16, 96, 512])
    def test_trace_distance_of_diagonal_states_is_the_eigvalsh_value(self, n_cut):
        rho, sigma = thermal_state(3.0, n_cut), phase_averaged_state(2.5, n_cut)
        want = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.mat - sigma.mat))))
        assert trace_distance(rho, sigma) == want
        assert trace_distance(fock_state(1, n_cut), rho) == \
            float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(fock_state(1, n_cut).mat - rho.mat))))
