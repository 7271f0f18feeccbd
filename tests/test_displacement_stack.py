"""The displacement kernel against the one-point tables it replaced, the
exact cumulants against the finite-difference stencil they replaced,
Gauss-Hermite nodes without ``scipy.linalg``, and the argument checks in front
of them."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from test_fock import close_to, reference_displacement_op

from boskraus import analysis, fock, kraus
from boskraus.analysis import cumulants, simultaneous_diagonality
from boskraus.channels import ChannelSpec
from boskraus.errors import InvalidParameter, OrderTooLarge
from boskraus.fock import (
    TruncatedOperator,
    _displacement_chunks,
    char_weyl,
    coherent_state,
    displacement_op,
    fock_state,
    thermal_state,
)
from boskraus.kraus import _gauss_hermite, build_continuous, hermite_quadrature
from boskraus.phasespace import OMEGA, canonical_xy, classify, compose_xy, cp_defect, table1_compose

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_table_displacement_op(xi: complex, n_cut: int) -> TruncatedOperator:
    """The one-point Laguerre-table ``displacement_op`` that the stack kernel
    replaced, verbatim: a slice of the stack at a real point reproduces it bit
    for bit where no entry underflows (an underflowed zero may differ in sign,
    equal by value), at a complex point to ``DISPLACEMENT_RTOL``."""
    if n_cut > 1020:
        raise OrderTooLarge(f"displacement cutoff limited to 1020, got {n_cut}")
    x = abs(xi) ** 2
    if x * n_cut > 1e6:
        raise InvalidParameter(f"displacement argument too large: |xi|^2 = {x:.3e}")
    gauss = np.exp(-0.5 * x)
    offsets = np.arange(n_cut)
    lag = np.zeros((n_cut, n_cut))
    lag[:1] = 1.0
    lag[1:2, :-1] = 1.0 + offsets[:-1] - x
    for k in range(1, n_cut - 1):
        w = n_cut - 1 - k
        d = offsets[:w]
        lag[k + 1, :w] = ((2 * k + 1 + d - x) * lag[k, :w] - (k + d) * lag[k - 1, :w]) / (k + 1)
    # sqrt(k!/(k+delta)!) arg^delta, m >= n then m < n: scalar chain at k = 0, real factor per k
    pref = np.ones((2, n_cut, n_cut), dtype=np.complex128)
    arg_upper = -np.conj(xi)
    p_lower = p_upper = 1.0 + 0.0j
    for j in range(1, n_cut):
        p_lower *= xi / np.sqrt(j)
        p_upper *= arg_upper / np.sqrt(j)
        pref[:, 0, j] = p_lower, p_upper
    k = np.arange(1, n_cut)[:, None]
    pref[:, 1:] = np.sqrt(k / (k + offsets))
    np.cumprod(pref, axis=1, out=pref)
    pref *= lag
    pref *= gauss
    del lag  # not live during the gather below
    m, n = np.ogrid[:n_cut, :n_cut]
    return TruncatedOperator(pref[(m < n).astype(int), np.minimum(m, n), np.abs(m - n)])


def _fd_weights(order: int, offsets: np.ndarray) -> np.ndarray:
    """Fornberg finite-difference weights for the given derivative order."""
    n = offsets.size
    if order >= n:
        raise InvalidParameter("stencil too small for requested order")
    w = np.zeros((n, order + 1))
    w[0, 0] = 1.0
    c1, c4 = 1.0, offsets[0]
    for i in range(1, n):
        c2, c5, c4 = 1.0, c4, offsets[i]
        for j in range(i):
            c3 = offsets[i] - offsets[j]
            c2 *= c3
            if j == i - 1:
                for k in range(min(i, order), 0, -1):
                    w[i, k] = c1 * (k * w[i - 1, k - 1] - c5 * w[i - 1, k]) / c2
                w[i, 0] = -c1 * c5 * w[i - 1, 0] / c2
            for k in range(min(i, order), 0, -1):
                w[j, k] = (c4 * w[j, k] - k * w[j, k - 1]) / c3
            w[j, 0] = c4 * w[j, 0] / c3
        c1 = c2
    return w[:, order]


def reference_cumulant_table(rho, max_order, h):
    """The finite-difference table ``analysis.cumulants`` took of ``log char_weyl``, one point at a time."""
    half = (max_order + 1) // 2 + 1
    offsets = np.arange(-half, half + 1)
    grid = np.empty((offsets.size, offsets.size), dtype=complex)
    for i, oi in enumerate(offsets):
        for j, oj in enumerate(offsets):
            grid[i, j] = np.log(char_weyl(rho, complex(oi * h, oj * h)))
    out = np.full((max_order + 1, max_order + 1), np.nan)
    for m1 in range(max_order + 1):
        for m2 in range(max_order + 1 - m1):
            if m1 == m2 == 0:
                out[0, 0] = 0.0
                continue
            w1 = _fd_weights(m1, offsets * h)
            w2 = _fd_weights(m2, offsets * h)
            val = np.einsum("i,j,ij->", w1, w2, grid)
            out[m1, m2] = ((-1j) ** (m1 + m2) * val).real
    return out


def reference_cumulants(rho, max_order, h=2e-2):
    """Richardson-refined stencil cumulants: off the exact values by up to 1.2e-5 at order 4 on ``|1>``."""
    coarse = reference_cumulant_table(rho, max_order, h)
    fine = reference_cumulant_table(rho, max_order, 0.5 * h)
    return (4.0 * fine - coarse) / 3.0


def reference_b1_ops(a, node_count, n_cut):
    """The B1 stack as ``build_continuous`` built it, one ``displacement_op`` per node."""
    t, w = roots_hermite(node_count)
    q = np.sqrt(a) * t
    ops = np.empty((node_count, n_cut, n_cut), dtype=np.complex128)
    for i in range(node_count):
        ops[i] = np.sqrt(w[i] / np.sqrt(np.pi)) * reference_table_displacement_op(q[i] / np.sqrt(2.0), n_cut).mat
    return ops


def stack_of(points, n_cut):
    return np.concatenate([stack for _, stack in _displacement_chunks(points, n_cut)])


def real_point_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """``got``, the real matrix of a real point, against a reference whose imaginary part is zero: every
    nonzero entry bit for bit, and every zero by value (a chain that underflows may sign it either way)."""
    nonzero = want.real != 0
    return (got.dtype == np.float64 and not np.any(want.imag) and np.array_equal(got, want.real)
            and got[nonzero].tobytes() == want.real[nonzero].tobytes())


class TestStackAgainstOnePoint:
    @pytest.mark.parametrize("n_cut", [2, 3, 16, 48, 97])
    def test_real_and_complex_points(self, rng, n_cut):
        reals = 2.0 * rng.normal(size=12)
        complexes = [complex(z) for z in 1.5 * (rng.normal(size=12) + 1j * rng.normal(size=12))]
        for d, x in zip(stack_of(reals, n_cut), reals):
            assert d.astype(complex).tobytes() == reference_table_displacement_op(np.float64(x), n_cut).mat.tobytes()
        for d, xi in zip(stack_of(np.array(complexes), n_cut), complexes):
            assert close_to(d, reference_table_displacement_op(xi, n_cut).mat)

    @pytest.mark.parametrize("n_cut", [2, 3])
    def test_first_laguerre_step_is_the_general_step(self, n_cut):
        # the kernel starts the recurrence from L_(-1) = 0; the reference writes L_1 = 1 + delta - x
        for x in (0.25, -0.7, 1.3, -2.9, 3.0, 10.0):
            want = reference_table_displacement_op(x, n_cut).mat.tobytes()
            assert displacement_op(x, n_cut).mat.tobytes() == want
            assert stack_of(np.array([x]), n_cut)[0].astype(complex).tobytes() == want

    @pytest.mark.parametrize("xi", [0, 0.0, -0.0, 3, 1.5, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), 2j])
    def test_one_point_signed_zeros(self, xi):
        # D(0) is compared by value: the signs of its zeros are not kept
        got, want = displacement_op(xi, 9).mat, reference_table_displacement_op(xi, 9).mat
        if isinstance(xi, complex) and xi != 0:
            assert close_to(got, want)
        elif xi == 0:
            assert np.array_equal(got, want)
        else:
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2 * np.pi)), min_size=1, max_size=5),
           n_cut=st.integers(2, 96), real=st.booleans())
    def test_every_slice_property(self, points, n_cut, real):
        if real:
            xs = np.array([r * np.cos(t) for r, t in points])
            want = [reference_table_displacement_op(x, n_cut).mat for x in xs]
        else:
            xs = np.array([complex(r * np.cos(t), r * np.sin(t)) for r, t in points])
            want = [reference_table_displacement_op(complex(x), n_cut).mat for x in xs]
        got = stack_of(xs, n_cut)
        assert all((real_point_bits if real else close_to)(d, w) for d, w in zip(got, want))
        one_point = reference_displacement_op(xs[0] if real else complex(xs[0]), n_cut).mat
        assert real_point_bits(got[0], one_point) if real else close_to(got[0], one_point)
        # a NumPy complex128 scalar divides by reciprocals in both chains of the reference
        scalar = np.complex128(xs[0])
        assert np.max(np.abs(displacement_op(scalar, n_cut).mat
                             - reference_table_displacement_op(scalar, n_cut).mat)) <= 1e-14

    def test_chunks_cover_the_points_in_order(self, monkeypatch):
        monkeypatch.setattr(fock, "DISPLACEMENT_CHUNK_BYTES", 3 * fock._ENTRY_BYTES * 16**2)
        points = np.linspace(-1.0, 1.0, 8)
        for kind in (float, complex):
            parts = [(part, stack.shape) for part, stack in _displacement_chunks(points.astype(kind), 16)]
            assert [p for p, _ in parts] == [slice(0, 3), slice(3, 6), slice(6, 8)]
            assert [s for _, s in parts] == [(3, 16, 16), (3, 16, 16), (2, 16, 16)]
        for d, x in zip(stack_of(points, 16), points):
            assert d.astype(complex).tobytes() == reference_table_displacement_op(x, 16).mat.tobytes()
        for d, x in zip(stack_of(points * (0.6 + 0.8j), 16), points):
            assert close_to(d, reference_table_displacement_op(x * (0.6 + 0.8j), 16).mat)

    @pytest.mark.parametrize("n_cut", [8, 64, 256])
    def test_complex_chunk_peak_memory(self, n_cut):
        # the per-entry arrays fill the budget; a complex chunk adds its 2N - 1 phases per point
        step = fock.DISPLACEMENT_CHUNK_BYTES // (fock._ENTRY_BYTES * n_cut**2)
        chunks = _displacement_chunks((0.6 + 0.8j) * np.linspace(0.1, 2.0, 2 * step), n_cut)
        next(_displacement_chunks(np.array([0.5j]), 4))
        tracemalloc.start()
        try:
            _, stack = next(chunks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(stack) == step
        assert peak <= 1.25 * fock.DISPLACEMENT_CHUNK_BYTES

    @pytest.mark.parametrize("xi", [0.7, -1.3, 0.5 + 0.4j], ids=["real", "negative", "complex"])
    def test_one_point_peak_memory(self, xi):
        # the matrix is made in the buffer it is returned in: no second copy, no table beside it
        displacement_op(xi, 16)
        tracemalloc.start()
        try:
            op = displacement_op(xi, 512)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * op.mat.nbytes
        assert not op.mat.flags.writeable and op.mat.base is None
        want = reference_table_displacement_op(xi, 512).mat  # by value: signs of underflowed zeros differ
        assert np.array_equal(op.mat, want) if isinstance(xi, float) else close_to(op.mat, want)


class TestExactCumulants:
    @pytest.mark.parametrize("rho", [thermal_state(2.0, 48), fock_state(1, 32), coherent_state(0.6 - 0.3j, 40)],
                             ids=["thermal", "fock", "coherent"])
    @pytest.mark.parametrize("max_order", [2, 4])
    def test_against_the_stencil(self, rho, max_order):
        got, want = cumulants(rho, max_order), reference_cumulants(rho, max_order)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got - want)) <= 2e-5


class TestReadersAgainstOnePoint:
    @pytest.mark.parametrize("a,nodes,n_cut", [(0.5, 64, 64), (1.7, 48, 24), (0.05, 33, 7)])
    def test_b1_ops(self, a, nodes, n_cut):
        # every nonzero node bit for bit; the zero node of an odd count by value (its signs of zero move)
        fam = build_continuous(ChannelSpec("B1", noise_a=a), nodes, n_cut)
        want, zero = reference_b1_ops(a, nodes, n_cut), fam.index.nodes == 0
        assert fam.ops[~zero].tobytes() == want[~zero].tobytes()
        assert np.array_equal(fam.ops[zero], want[zero]) and zero.sum() == nodes % 2

    @pytest.mark.parametrize("a,nodes,n_cut", [(0.5, 64, 24), (2.0, 40, 16)])
    def test_simultaneous_diagonality_tag(self, a, nodes, n_cut, monkeypatch):
        fam = build_continuous(ChannelSpec("B1", noise_a=a), nodes, n_cut)
        got = simultaneous_diagonality(fam)
        monkeypatch.setattr(fock, "_displacement_chunks", lambda xi, n_cut: (
            (slice(i, i + 1), reference_table_displacement_op(x, n_cut).mat[None])
            for i, x in enumerate(xi)))
        assert got == simultaneous_diagonality(fam) == (True, "any")

    def test_b1_build_peak_memory(self):
        spec, nodes, n_cut = ChannelSpec("B1", noise_a=0.5), 256, 128
        build_continuous(spec, 64, 16)
        tracemalloc.start()
        try:
            fam = build_continuous(spec, nodes, n_cut)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fam.ops.nbytes == nodes * n_cut**2 * 16
        assert peak <= 1.25 * fam.ops.nbytes


class TestArgumentChecks:
    @pytest.mark.parametrize("n_cut", [-3, 0, 1, 2.5, 48.0, True, "8"])
    def test_bad_cutoff(self, n_cut):
        with pytest.raises(InvalidParameter):
            displacement_op(0.3, n_cut)

    @pytest.mark.parametrize("xi", [math.nan, complex(math.nan, 0.2), complex(0.1, math.nan)])
    def test_nan_point_raises_before_allocating(self, xi):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParameter, match="finite"):
                displacement_op(xi, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1000**2

    @pytest.mark.parametrize("xi", ["0.3", None, np.array([0.1, 0.2])])
    def test_not_one_number(self, xi):
        with pytest.raises(InvalidParameter):
            displacement_op(xi, 8)

    def test_first_offending_point_is_named(self):
        with pytest.raises(InvalidParameter) as exc:
            _displacement_chunks(np.array([0.1, 300.0, 400.0]), 64)
        assert str(exc.value) == "displacement argument too large: |xi|^2 = 9.000e+04"
        with pytest.raises(InvalidParameter, match="finite"):
            _displacement_chunks(np.array([0.1, math.nan, 400.0]), 64)
        for xi in (1e200, complex(1e200, 1.0), math.inf):
            with pytest.raises(InvalidParameter, match="too large"):
                displacement_op(xi, 8)

    def test_order_too_large_message(self):
        with pytest.raises(OrderTooLarge) as exc:
            _displacement_chunks(np.array([math.nan]), 1021)
        assert str(exc.value) == "displacement cutoff limited to 1020, got 1021"

    @pytest.mark.parametrize("nodes", [40.5, 0, -4, math.nan, "64"])
    def test_continuous_node_count(self, nodes):
        for spec in (ChannelSpec("B1", noise_a=0.5), ChannelSpec("A2")):
            with pytest.raises(InvalidParameter):
                build_continuous(spec, nodes, 16)

    @pytest.mark.parametrize("n_cut,error", [(2.5, InvalidParameter), (1, InvalidParameter), (True, InvalidParameter),
                                             (1021, OrderTooLarge)])
    @pytest.mark.parametrize("spec", [ChannelSpec("A2"), ChannelSpec("B1", noise_a=0.5), ChannelSpec("B1")],
                             ids=["A2", "B1", "B1-zero-noise"])
    def test_continuous_cutoff(self, spec, n_cut, error):
        with pytest.raises(error):
            build_continuous(spec, 64, n_cut)

    @pytest.mark.parametrize("nodes", [0, -1, 2.5, math.inf, None])
    def test_quadrature_node_count(self, nodes):
        with pytest.raises(InvalidParameter):
            hermite_quadrature(nodes)

    @pytest.mark.parametrize("kwargs", [dict(max_order=-1), dict(max_order=2.0),
                                        dict(max_order=analysis.MAX_CUMULANT_ORDER + 1)])
    def test_cumulant_arguments_checked_before_any_point(self, kwargs, monkeypatch):
        def no_moments(*args):
            raise AssertionError("a moment was evaluated")
        monkeypatch.setattr(analysis, "_quadrature_moments", no_moments)
        with pytest.raises(InvalidParameter):
            cumulants(thermal_state(2.0, 16), **{"max_order": 2, **kwargs})


class TestGaussHermite:
    def test_equals_scipy_up_to_150(self):
        for n in range(1, 151):
            x, w = _gauss_hermite(n)
            xr, wr = roots_hermite(n)
            assert x.tobytes() == xr.tobytes() and w.tobytes() == wr.tobytes(), n

    @pytest.mark.parametrize("n", [151, 400])
    def test_asymptotic_rule_passes_through(self, n):
        x, w = _gauss_hermite(n)
        xr, wr = roots_hermite(n)
        assert x.tobytes() == xr.tobytes() and w.tobytes() == wr.tobytes()

    def test_builds_import_no_scipy_linalg(self):
        code = (
            "import sys\n"
            "import boskraus as bk\n"
            "bk.kraus_from_scheme(bk.mix_matrix(bk.ChannelSpec('D', 0.8)), 12, 16)\n"
            "bk.build_continuous(bk.ChannelSpec('B1', noise_a=0.5), 64, 16)\n"
            "bk.build_continuous(bk.ChannelSpec('A2'), 64, 16)\n"
            "print('scipy.linalg' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"


GAINS = {"D": st.floats(0.05, 5.0), "C1": st.floats(0.0, 1.0), "C2": st.floats(1.0, 5.0)}
NOISE = st.floats(0.0, 10.0)


@st.composite
def any_spec(draw, noisy=True):
    family = draw(st.sampled_from(["D", "C1", "C2", "A1", "A2", "B1", "B2", "I"]))
    kappa = draw(GAINS[family]) if family in GAINS else None
    noise = draw(NOISE) if noisy and family != "I" else 0.0
    return ChannelSpec(family, kappa, noise)


class TestChannelProperties:
    @settings(max_examples=300, deadline=None)
    @given(spec=any_spec())
    def test_canonical_pair_is_cp_with_slack_equal_to_the_noise(self, spec):
        xy = canonical_xy(spec)
        scale = 1.0 + np.max(np.abs(xy.y))
        assert cp_defect(xy.x, xy.y) >= -1e-12 * scale
        lowest = np.linalg.eigvalsh(xy.y.astype(complex) + 1j * (OMEGA - xy.x.T @ OMEGA @ xy.x)).min()
        # every row but B1 sits its noise above the quantum limit; B1 leaves one quadrature untouched
        assert lowest == pytest.approx(0.0 if spec.family == "B1" else spec.noise_a, abs=1e-12 * scale)

    @settings(max_examples=400, deadline=None)
    @given(s1=any_spec(noisy=False), s2=any_spec(noisy=False))
    def test_table1_equals_classified_composition(self, s1, s2):
        table_rows = ("D", "C1", "C2", "A1", "A2", "I")
        assume(s1.family in table_rows and s2.family in table_rows)
        # both snap the erasure edge at CLASSIFY_TOL, but classify reads the gain product as
        # sqrt|det X|, so near the B point between the C families (gain product 1) they may split
        gains = [1.0 if s.family == "I" else 0.0 if s.family == "A1" else s.kappa for s in (s1, s2)]
        if None not in gains:
            assume(abs(gains[0] * gains[1] - 1.0) > 1e-6)
        want = table1_compose(s2, s1)
        got = classify(compose_xy(canonical_xy(s1), canonical_xy(s2)))
        assert got.family == want.family, (s1, s2)
        if want.kappa is not None:
            assert got.kappa == pytest.approx(want.kappa, rel=1e-9, abs=1e-9)
        assert got.noise_a == pytest.approx(want.noise_a, rel=1e-9, abs=1e-9)
