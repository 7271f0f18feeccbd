"""The (X, Y) calculus: classification, composition tables, moments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_for

from boskraus.channels import ChannelSpec
from boskraus.errors import (
    InvalidParameter,
    NotCompletelyPositive,
    TailTooLarge,
    UnsupportedFamily,
    UnsupportedPair,
)
from boskraus.fock import coherent_state, fock_state, thermal_state, trace_distance
from boskraus.kraus import apply
from boskraus.phasespace import (
    CLASSIFY_TOL,
    OMEGA,
    SIGMA3,
    GaussianMoments,
    Symplectic2,
    XYPair,
    _min_eigenvalue,
    _table_pair,
    canonical_xy,
    classify,
    compose_xy,
    covariance_map,
    cp_defect,
    moments_from_density,
    rotation,
    squeeze,
    synthesize_noisy,
    table1_compose,
    table2_compose,
)

QL_SPECS = [
    ChannelSpec("D", 2.0), ChannelSpec("D", 0.8), ChannelSpec("C1", 0.5),
    ChannelSpec("C2", 1.3), ChannelSpec("A1"), ChannelSpec("A2"),
    ChannelSpec("B2"), ChannelSpec("B1"), ChannelSpec("I"),
]


def draw_spec(rng, family: str) -> ChannelSpec:
    if family == "D":
        return ChannelSpec("D", rng.uniform(0.4, 2.2))
    if family == "C1":
        return ChannelSpec("C1", rng.uniform(0.2, 0.95))
    if family == "C2":
        return ChannelSpec("C2", rng.uniform(1.05, 2.2))
    return ChannelSpec("A2")


class TestCanonicalForms:
    def test_conjugator_row(self):
        xy = canonical_xy(ChannelSpec("D", 2.0))
        np.testing.assert_array_equal(xy.x, -2.0 * SIGMA3)
        np.testing.assert_array_equal(xy.y, 5.0 * np.eye(2))

    def test_identity_row(self):
        xy = canonical_xy(ChannelSpec("I"))
        np.testing.assert_array_equal(xy.x, np.eye(2))
        np.testing.assert_array_equal(xy.y, np.zeros((2, 2)))

    def test_classical_noise_row(self):
        xy = canonical_xy(ChannelSpec("B2", noise_a=0.7))
        np.testing.assert_array_equal(xy.x, np.eye(2))
        np.testing.assert_array_equal(xy.y, 0.7 * np.eye(2))

    def test_noisy_identity_row_is_classical_noise(self):
        # I(a) reads as B2(a), which is what the pair synthesize_noisy gives for it composes to
        spec = ChannelSpec("I", noise_a=0.3)
        inner, outer = synthesize_noisy(spec)
        for xy in (canonical_xy(spec), compose_xy(canonical_xy(inner), canonical_xy(outer))):
            got = classify(xy)
            assert got.family == "B2" and got.noise_a == pytest.approx(0.3, abs=1e-12)

    def test_single_quadrature_noise_row(self):
        xy = canonical_xy(ChannelSpec("B1", noise_a=1.2))
        np.testing.assert_allclose(xy.y, np.diag([1.2, 0.0]))

    def test_every_quantum_limited_row_is_threshold_cp(self):
        # each canonical row saturates the positivity inequality exactly
        for spec in QL_SPECS:
            xy = canonical_xy(spec)
            m = xy.y.astype(complex) + 1j * (OMEGA - xy.x.T @ OMEGA @ xy.x)
            evals = np.linalg.eigvalsh(m)
            assert evals.min() > -1e-12
            if spec.family not in ("B1", "B2", "I"):
                assert evals.min() < 1e-12  # threshold, not slack

    def test_cp_violation_rejected(self):
        with pytest.raises(NotCompletelyPositive):
            XYPair(2.0 * np.eye(2), 0.1 * np.eye(2))

    @settings(max_examples=200, deadline=None)
    @given(x=st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4),
           y=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
    def test_closed_form_gates_equal_eigvalsh(self, x, y):
        x, y = np.reshape(x, (2, 2)), np.reshape(y, (2, 2))
        scale = 1.0 + np.max(np.abs(y)) + np.max(np.abs(x)) ** 2
        m = y.astype(complex) + 1j * (OMEGA - x.T @ OMEGA @ x)
        assert cp_defect(x, y) == pytest.approx(min(0.0, np.linalg.eigvalsh(m).min()), abs=1e-14 * scale)
        for g in (0.0, 1.0):  # the PSD check of Y and the uncertainty check of a covariance
            want = np.linalg.eigvalsh(y.astype(complex) + 1j * g * OMEGA).min()
            assert _min_eigenvalue(y, g) == pytest.approx(want, abs=1e-14 * scale)

    def test_nan_covariance_rejected(self):
        with pytest.raises(InvalidParameter):
            GaussianMoments(np.zeros(2), np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("x,y", [
        (np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]), ([[np.nan, 0.0], [0.0, 1.0]], np.eye(2)),
        (np.eye(2), [[np.inf, 0.0], [0.0, 1.0]]), ([[1.0, -np.inf], [0.0, 1.0]], np.eye(2)),
    ], ids=["nan-y", "nan-x", "inf-y", "inf-x"])
    def test_non_finite_pair_rejected(self, x, y):
        # NaN compares False in the symmetry, PSD and CP gates, so it must be caught before them
        with pytest.raises(InvalidParameter, match="finite"):
            XYPair(x, y)


class TestClassify:
    @pytest.mark.parametrize("spec", QL_SPECS + [
        ChannelSpec("D", 0.8, 1.5), ChannelSpec("C1", 0.5, 0.5), ChannelSpec("C2", 1.3, 2.0),
        ChannelSpec("A1", noise_a=0.7), ChannelSpec("A2", noise_a=0.2),
        ChannelSpec("B1", noise_a=1.2), ChannelSpec("B2", noise_a=0.4),
    ])
    def test_roundtrip(self, spec):
        got = classify(canonical_xy(spec))
        want = spec.normalized()
        assert got.family == want.family
        if want.kappa is not None:
            assert got.kappa == pytest.approx(want.kappa, abs=1e-10)
        assert got.noise_a == pytest.approx(want.noise_a, abs=1e-10)

    def test_noisy_attenuator_example(self):
        got = classify(XYPair(0.5 * np.eye(2), 1.25 * np.eye(2)))
        assert got.family == "C1"
        assert got.kappa == pytest.approx(0.5)
        assert got.noise_a == pytest.approx(0.5)

    def test_invariance_under_symplectic_dressing(self, rng):
        # classification sees only the double-coset invariants
        for _ in range(50):
            spec = draw_spec(rng, rng.choice(["D", "C1", "C2", "A2"]))
            xy = canonical_xy(spec)
            s1 = (rotation(rng.uniform(0, np.pi)).s @ squeeze(rng.uniform(0.7, 1.4)).s)
            s2 = (squeeze(rng.uniform(0.7, 1.4)).s @ rotation(rng.uniform(0, np.pi)).s)
            dressed = XYPair(s1 @ xy.x @ s2, s2.T @ xy.y @ s2)
            got = classify(dressed)
            assert got.family == spec.normalized().family
            if spec.kappa is not None:
                assert got.kappa == pytest.approx(spec.kappa, abs=1e-9)

    def test_noisy_channels_dress_invariantly(self, rng):
        # the classical-noise reading survives arbitrary frames too
        for spec in (ChannelSpec("D", 0.8, 1.5), ChannelSpec("C2", 1.3, 2.0),
                     ChannelSpec("C1", 0.6, 0.9), ChannelSpec("A2", noise_a=0.4)):
            xy = canonical_xy(spec)
            s1 = rotation(rng.uniform(0, 3)).s @ squeeze(1.3).s
            s2 = squeeze(0.8).s @ rotation(rng.uniform(0, 3)).s
            got = classify(XYPair(s1 @ xy.x @ s2, s2.T @ xy.y @ s2))
            assert got.family == spec.family
            assert got.noise_a == pytest.approx(spec.noise_a, abs=1e-9)

    @pytest.mark.parametrize("lam", [1e-310, np.float64(1e-310), 5e-324, math.inf, 0.0, -1.0, math.nan])
    @pytest.mark.filterwarnings("error")
    def test_squeeze_needs_a_finite_inverse(self, lam):
        # 1/lam = inf made det S = inf, which Symplectic2 reported as a bare determinant
        with pytest.raises(InvalidParameter, match="squeeze parameter"):
            squeeze(lam)

    def test_rejects_non_cp(self):
        bad = XYPair(np.eye(2), np.zeros((2, 2)))
        object.__setattr__(bad, "x", 3.0 * np.eye(2))  # bypass construction check
        with pytest.raises(NotCompletelyPositive):
            classify(bad)


class TestCompose:
    def test_identity_neutral(self):
        ident = canonical_xy(ChannelSpec("I"))
        xy = canonical_xy(ChannelSpec("C2", 1.4))
        both = compose_xy(ident, xy)
        np.testing.assert_allclose(both.x, xy.x)
        np.testing.assert_allclose(both.y, xy.y)

    def test_classical_noise_adds(self):
        a = compose_xy(canonical_xy(ChannelSpec("B2", noise_a=0.4)),
                       canonical_xy(ChannelSpec("B2", noise_a=0.9)))
        got = classify(a)
        assert got.family == "B2"
        assert got.noise_a == pytest.approx(1.3)

    def test_order_convention(self):
        # attenuate-then-amplify differs from amplify-then-attenuate noise
        c1 = canonical_xy(ChannelSpec("C1", 0.5))
        c2 = canonical_xy(ChannelSpec("C2", 1.6))
        first_att = classify(compose_xy(c1, c2))
        first_amp = classify(compose_xy(c2, c1))
        assert first_att.noise_a == pytest.approx(2 * (1.6**2 - 1))
        assert first_amp.noise_a == pytest.approx(2 * 0.25 * (1.6**2 - 1))


class TestTable1:
    def test_known_entries(self):
        assert str(table1_compose(ChannelSpec("C2", 1.5), ChannelSpec("C1", 0.4))) == "C1(0.6; 2.5)"
        got = table1_compose(ChannelSpec("D", 2.0), ChannelSpec("D", 1.0))
        assert (got.family, got.kappa) == ("C2", 2.0)
        assert got.noise_a == pytest.approx(2 * (1 + 4.0))
        got = table1_compose(ChannelSpec("C1", 0.7), ChannelSpec("D", 1.2))
        assert (got.family, got.noise_a) == ("D", 0.0)  # quantum-limited conjugator
        got = table1_compose(ChannelSpec("D", 0.9), ChannelSpec("C2", 1.5))
        assert (got.family, got.noise_a) == ("D", 0.0)

    def test_semigroup_rows(self):
        got = table1_compose(ChannelSpec("C1", 0.9), ChannelSpec("C1", 0.8))
        assert (got.family, got.kappa, got.noise_a) == ("C1", pytest.approx(0.72), 0.0)
        got = table1_compose(ChannelSpec("C2", 1.2), ChannelSpec("C2", 1.3))
        assert (got.family, got.kappa, got.noise_a) == ("C2", pytest.approx(1.56), 0.0)

    def test_singular_rows(self):
        assert table1_compose(ChannelSpec("A2"), ChannelSpec("A2")).noise_a == pytest.approx(np.sqrt(2) - 1)
        assert table1_compose(ChannelSpec("C1", 0.8), ChannelSpec("A2")).noise_a == 0.0
        got = table1_compose(ChannelSpec("A2"), ChannelSpec("C2", 1.4))
        assert got.noise_a == pytest.approx(0.4)

    def test_identity_passthrough(self):
        got = table1_compose(ChannelSpec("I"), ChannelSpec("D", 1.3))
        assert (got.family, got.kappa, got.noise_a) == ("D", 1.3, 0.0)

    def test_rejects_noisy_and_unsupported(self):
        with pytest.raises(UnsupportedPair):
            table1_compose(ChannelSpec("C1", 0.5, 1.0), ChannelSpec("C1", 0.5))
        with pytest.raises(UnsupportedPair):
            table1_compose(ChannelSpec("B1"), ChannelSpec("C1", 0.5))

    def test_agrees_with_classified_composition(self, rng):
        fams = ["D", "C1", "C2", "A2"]
        checked = 0
        for _ in range(1000):
            s1 = draw_spec(rng, rng.choice(fams))
            s2 = draw_spec(rng, rng.choice(fams))
            ks = [s.kappa for s in (s1, s2) if s.kappa is not None]
            if len(ks) == 2 and abs(ks[0] * ks[1] - 1.0) < 0.03:
                continue  # boundary between the B point and the C families
            checked += 1
            want = table1_compose(s2, s1)
            got = classify(compose_xy(canonical_xy(s1), canonical_xy(s2)))
            assert got.family == want.family, (s1, s2)
            if want.kappa is not None:
                assert got.kappa == pytest.approx(want.kappa, abs=1e-9)
            assert got.noise_a == pytest.approx(want.noise_a, abs=1e-9)
        assert checked > 900


def dressed_compose(s2: ChannelSpec, s1: ChannelSpec, lam: float, theta: float) -> XYPair:
    """Composite with an intervening symplectic between the canonical pair.

    For a nonsingular second factor the relevant parameter is the singular
    value of the middle symplectic; when the second factor is the singular
    projector family it is the eigenvalue of its Gram square together with
    the diagonalizing rotation.
    """
    xy1, xy2 = canonical_xy(s1), canonical_xy(s2)
    if s2.family == "A2":
        g = np.diag([np.sqrt(lam), 1 / np.sqrt(lam)]) @ rotation(theta).s.T
    else:
        g = np.diag([lam, 1.0 / lam])
    return compose_xy(compose_xy(xy1, XYPair(g, np.zeros((2, 2)))), xy2)


TABLE2_CASES = [
    (ChannelSpec("C1", 0.8), ChannelSpec("C1", 0.6)),
    (ChannelSpec("C2", 1.3), ChannelSpec("C2", 1.2)),
    (ChannelSpec("C2", 1.4), ChannelSpec("C1", 0.5)),
    (ChannelSpec("C2", 1.4), ChannelSpec("C1", 0.85)),
    (ChannelSpec("C1", 0.6), ChannelSpec("C2", 1.9)),
    (ChannelSpec("C1", 0.9), ChannelSpec("C2", 1.05)),
    (ChannelSpec("D", 0.7), ChannelSpec("D", 0.9)),
    (ChannelSpec("D", 1.4), ChannelSpec("D", 1.1)),
    (ChannelSpec("D", 1.2), ChannelSpec("C1", 0.7)),
    (ChannelSpec("D", 0.8), ChannelSpec("C2", 1.5)),
    (ChannelSpec("C2", 1.5), ChannelSpec("D", 0.6)),
    (ChannelSpec("C1", 0.7), ChannelSpec("D", 0.5)),
    (ChannelSpec("C1", 0.8), ChannelSpec("A2")),
    (ChannelSpec("C2", 1.2), ChannelSpec("A2")),
    (ChannelSpec("D", 1.1), ChannelSpec("A2")),
]

# every quantum-limited family the composition tables take, gains included
TABLE_SPECS = st.one_of(
    st.floats(0.05, 4.0).map(lambda k: ChannelSpec("D", k)),
    st.floats(0.0, 1.0).map(lambda k: ChannelSpec("C1", k)),
    st.floats(1.0, 4.0).map(lambda k: ChannelSpec("C2", k)),
    st.sampled_from([ChannelSpec("A1"), ChannelSpec("A2"), ChannelSpec("I")]),
)

A2_SECOND_CASES = [
    (ChannelSpec("A2"), ChannelSpec("C1", 0.7)),
    (ChannelSpec("A2"), ChannelSpec("C2", 1.4)),
    (ChannelSpec("A2"), ChannelSpec("D", 0.9)),
    (ChannelSpec("A2"), ChannelSpec("A2")),
]


def reference_table2(spec2: ChannelSpec, spec1: ChannelSpec, lam: float, theta: float) -> ChannelSpec:
    """``table2_compose`` as it decided the family and gain itself, apart from ``table1_compose``,
    and took the noise as the invariant ``sqrt(det Y)`` minus the composite's quantum limit."""
    s2, s1 = _table_pair(spec2, spec1)
    f1, f2 = s1.family, s2.family
    y1 = s1.quantum_limited_noise()
    if f2 == "A2":
        p11 = lam * np.cos(theta) ** 2 + np.sin(theta) ** 2 / lam
        sqrt_det_y = float(np.sqrt(1.0 + y1 * p11))
    else:
        c, d = s2.kappa**2 * y1, s2.quantum_limited_noise()
        sqrt_det_y = float(np.sqrt((c + d) ** 2 + c * d * (lam - 1.0 / lam) ** 2))
    if "A2" in (f1, f2):  # the projector survives unless the other factor is the erasure
        other = s1 if f2 == "A2" else s2
        bare = ChannelSpec("A1" if other.family == "C1" and other.kappa <= CLASSIFY_TOL else "A2")
    else:
        k = s1.kappa * s2.kappa
        if (f1 == "D") != (f2 == "D"):  # one conjugator: the composite conjugates, or erases at vanishing gain
            bare = ChannelSpec("A1") if k <= CLASSIFY_TOL else ChannelSpec("D", k)
        else:
            bare = ChannelSpec("C1" if k <= 1.0 else "C2", k)
    noise = max(sqrt_det_y - bare.quantum_limited_noise(), 0.0)
    return ChannelSpec(bare.family, bare.kappa, noise).normalized(CLASSIFY_TOL)


class TestTable2:
    def test_last_row_example(self):
        got = table2_compose(ChannelSpec("A2"), ChannelSpec("A2"), 2.0, 0.0)
        assert got.family == "A2"
        assert got.noise_a == pytest.approx(np.sqrt(3.0) - 1.0)

    def test_first_row_formula(self):
        k2, k1, lam = 0.8, 0.6, 1.7
        got = table2_compose(ChannelSpec("C1", k2), ChannelSpec("C1", k1), lam)
        inner = (1 - k2**2 * k1**2) ** 2 + k2**2 * (1 - k1**2) * (1 - k2**2) * (lam - 1 / lam) ** 2
        assert got.noise_a == pytest.approx(np.sqrt(inner) - (1 - k2**2 * k1**2))

    @pytest.mark.parametrize("lam", [1.0, 1.5, 3.0])
    def test_matches_dressed_composition(self, lam):
        for s2, s1 in TABLE2_CASES:
            want = table2_compose(s2, s1, lam)
            got = classify(dressed_compose(s2, s1, lam, 0.0))
            assert got.family == want.family, (s2, s1, lam)
            if want.kappa is not None:
                assert got.kappa == pytest.approx(want.kappa, abs=1e-9)
            assert got.noise_a == pytest.approx(want.noise_a, abs=1e-9)

    @pytest.mark.parametrize("lam", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("theta", [0.0, np.pi / 4])
    def test_singular_second_rows(self, lam, theta):
        for s2, s1 in A2_SECOND_CASES:
            want = table2_compose(s2, s1, lam, theta)
            got = classify(dressed_compose(s2, s1, lam, theta))
            assert got.family == want.family
            assert got.noise_a == pytest.approx(want.noise_a, abs=1e-9)

    def test_reduces_to_canonical_table(self):
        for s2, s1 in TABLE2_CASES + A2_SECOND_CASES:
            t1 = table1_compose(s2, s1)
            t2 = table2_compose(s2, s1, 1.0, 0.37)
            assert t1.family == t2.family
            if t1.kappa is not None:
                assert t2.kappa == pytest.approx(t1.kappa, abs=1e-12)
            assert t2.noise_a == pytest.approx(t1.noise_a, abs=1e-12)

    @settings(max_examples=400, deadline=None)
    @given(pair=st.tuples(TABLE_SPECS, TABLE_SPECS), theta=st.floats(0.0, np.pi))
    def test_unit_lambda_is_canonical_table_property(self, pair, theta):
        s2, s1 = pair
        t1 = table1_compose(s2, s1)
        t2 = table2_compose(s2, s1, 1.0, theta)
        assert t2.family == t1.family
        assert t2.kappa == t1.kappa
        assert t2.noise_a == pytest.approx(t1.noise_a, rel=1e-11, abs=1e-11)

    @settings(max_examples=400, deadline=None)
    @given(pair=st.tuples(TABLE_SPECS, TABLE_SPECS),
           theta=st.floats(allow_nan=False, allow_infinity=False))
    def test_unit_lambda_is_canonical_table_exactly(self, pair, theta):
        # the mismatch noise vanishes exactly at lambda = 1, whatever theta
        s2, s1 = pair
        assert table2_compose(s2, s1, 1.0, theta) == table1_compose(s2, s1)

    @settings(max_examples=400, deadline=None)
    @given(pair=st.tuples(TABLE_SPECS, TABLE_SPECS), lam=st.floats(0.1, 10.0).filter(lambda x: x != 1.0),
           theta=st.floats(0.0, np.pi))
    def test_mismatch_keeps_the_family_and_gain_of_the_reference(self, pair, lam, theta):
        s2, s1 = pair
        got, want = table2_compose(s2, s1, lam, theta), reference_table2(s2, s1, lam, theta)
        assert (got.family, got.kappa) == (want.family, want.kappa)
        assert abs(got.noise_a - want.noise_a) <= 1e-12

    @pytest.mark.parametrize("outer,inner", [
        (ChannelSpec("C1", 0.5), ChannelSpec("C1", 0.5)), (ChannelSpec("D", 0.5), ChannelSpec("C2", 1.5)),
        (ChannelSpec("C1", 0.5), ChannelSpec("A2")), (ChannelSpec("A2"), ChannelSpec("C1", 0.5)),
    ], ids=["C1-C1", "D-C2", "C1-A2", "A2-C1"])
    @pytest.mark.parametrize("lam", [1e200, 1e-200])
    def test_far_mismatch_gives_a_finite_spec(self, outer, inner, lam):
        # (lam - 1/lam)^2 overflows past |log lam| ~ 354, the noise does not: it grows as
        # |lam - 1/lam| (as its square root when the singular projector acts last)
        got = table2_compose(outer, inner, lam, 0.3)
        near = table2_compose(outer, inner, np.sqrt(lam), 0.3)
        base = table1_compose(outer, inner)
        assert (got.family, got.kappa) == (base.family, base.kappa)
        assert np.isfinite(got.noise_a) and got.noise_a > 0.0
        assert got.noise_a == pytest.approx(near.noise_a * (1e50 if outer.family == "A2" else 1e100), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    def test_subnormal_mismatch_with_the_projector_last_is_the_zero_limit(self, lam):
        # at theta = 0 the sine term vanishes whatever 1/lam is: no inf * 0, no warning,
        # and p11 = lam -> 0 leaves the quantum-limited projector
        got = table2_compose(ChannelSpec("A2"), ChannelSpec("C1", 0.5), lam, 0.0)
        assert got == table2_compose(ChannelSpec("A2"), ChannelSpec("C1", 0.5), 1e-300, 0.0) == ChannelSpec("A2")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", [1e-310, 5e-324])
    def test_subnormal_mismatch_with_a_rotation_adds_finite_noise(self, lam):
        # sin^2(theta)/lam overflows at a subnormal lam, but the noise sqrt(1 + y1 p11) - sqrt(1 + y1),
        # about sqrt(y1 sin^2(theta) / lam), is finite
        got = table2_compose(ChannelSpec("A2"), ChannelSpec("C1", 0.5), lam, 0.3)
        want = math.sqrt(0.75) * math.sin(0.3) / math.sqrt(lam)
        assert got.family == "A2" and math.isfinite(got.noise_a)
        assert got.noise_a == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_zero_gain_boundaries(self, lam):
        # pairs involving the erasure slot C1(0) = A1 degenerate to the
        # A1 family (X vanishes on one side of the product)
        erase = ChannelSpec("C1", 0.0)
        cases = [
            (ChannelSpec("D", 1.5), erase), (erase, ChannelSpec("D", 1.2)),
            (erase, ChannelSpec("C2", 1.4)), (ChannelSpec("A2"), erase),
            (erase, ChannelSpec("A2")), (ChannelSpec("C2", 1.3), erase),
            (ChannelSpec("D", 1.5), ChannelSpec("A1")),
        ]
        for s2, s1 in cases:
            want = table2_compose(s2, s1, lam, 0.3)
            got = classify(dressed_compose(s2, s1, lam, 0.3))
            assert want.family == got.family == "A1", (s2, s1)
            assert got.noise_a == pytest.approx(want.noise_a, abs=1e-9)
        got = table1_compose(ChannelSpec("D", 1.5), erase)
        assert (got.family, got.noise_a) == ("A1", pytest.approx(4.5))

    def test_mismatch_only_adds_noise(self):
        # the nonsingular rows are noisier away from lambda = 1
        for s2, s1 in TABLE2_CASES[:12]:
            base = table2_compose(s2, s1, 1.0).noise_a
            for lam in (1.3, 2.0, 4.0):
                assert table2_compose(s2, s1, lam).noise_a >= base - 1e-12

    def test_invalid_lambda(self):
        with pytest.raises(InvalidParameter):
            table2_compose(ChannelSpec("C1", 0.5), ChannelSpec("C1", 0.5), -1.0)


class TestSynthesize:
    def test_classical_noise_channel(self):
        inner, outer = synthesize_noisy(ChannelSpec("B2", noise_a=1.0))
        assert outer == ChannelSpec("C2", np.sqrt(1.5))
        assert inner.family == "C1" and inner.kappa == pytest.approx(1 / np.sqrt(1.5))
        got = table1_compose(outer, inner)
        assert got.family == "B2"
        assert got.noise_a == pytest.approx(1.0)

    def test_quantum_limited_passthrough(self):
        inner, outer = synthesize_noisy(ChannelSpec("C1", 0.5))
        assert inner == ChannelSpec("C1", 0.5)
        assert outer.family == "I"

    @pytest.mark.parametrize("target", [
        ChannelSpec("C1", 0.6, 0.8), ChannelSpec("C2", 1.4, 1.2),
        ChannelSpec("D", 0.9, 2.0), ChannelSpec("A1", noise_a=0.5),
        ChannelSpec("B2", noise_a=2.5),
    ])
    def test_composition_recovers_target(self, target):
        inner, outer = synthesize_noisy(target)
        assert inner.quantum_limited and outer.quantum_limited
        got = table1_compose(outer, inner)
        assert got.family == target.normalized().family
        if target.kappa is not None:
            assert got.kappa == pytest.approx(target.kappa, abs=1e-12)
        assert got.noise_a == pytest.approx(target.noise_a, abs=1e-12)

    def test_projector_passes_through_and_composes_back(self):
        # like every other quantum-limited target
        inner, outer = synthesize_noisy(ChannelSpec("A2"))
        assert (inner, outer) == (ChannelSpec("A2"), ChannelSpec("I"))
        assert table1_compose(outer, inner) == ChannelSpec("A2")

    def test_noisy_projector_refused(self):
        with pytest.raises(UnsupportedFamily, match="continuous-index"):
            synthesize_noisy(ChannelSpec("A2", noise_a=0.5))

    def test_single_quadrature_refused(self):
        with pytest.raises(UnsupportedFamily):
            synthesize_noisy(ChannelSpec("B1", noise_a=1.0))

    def test_synthesized_classical_noise_acts_correctly(self):
        # operator-level oracle: classical noise turns a coherent state into
        # a thermal blur around the same center
        from boskraus.fock import DensityMatrix, TruncatedOperator, displacement_op
        from boskraus.kraus import apply, build_discrete, suggest_ell_max

        a, beta, n_cut = 0.8, 0.6 + 0.3j, 64
        inner, outer = synthesize_noisy(ChannelSpec("B2", noise_a=a))
        rho = coherent_state(beta, n_cut)
        out = apply(build_discrete(outer, suggest_ell_max(outer, n_cut, 1e-14), n_cut),
                    apply(build_discrete(inner, n_cut - 1, n_cut), rho))
        d = displacement_op(beta, n_cut).mat
        th = thermal_state(1.0 + a, n_cut)
        target = DensityMatrix(TruncatedOperator(d @ th.mat @ d.conj().T), th.tail_mass + 1e-9)
        assert trace_distance(out, target) < 1e-9

    def test_synthesized_noisy_conjugator_acts_correctly(self):
        # noisy conjugation sends a coherent center to its conjugate,
        # rescaled, inside a thermal blur of covariance 1 + 2k^2 + a
        from boskraus.fock import DensityMatrix, TruncatedOperator, displacement_op
        from boskraus.kraus import apply, build_discrete, suggest_ell_max

        k, a, beta, n_cut = 0.9, 1.2, 0.5 - 0.2j, 64
        inner, outer = synthesize_noisy(ChannelSpec("D", k, a))
        rho = coherent_state(beta, n_cut)
        out = apply(build_discrete(outer, suggest_ell_max(outer, n_cut, 1e-14), n_cut),
                    apply(build_discrete(inner, suggest_ell_max(inner, n_cut, 1e-14), n_cut), rho))
        d = displacement_op(k * np.conj(beta), n_cut).mat
        th = thermal_state(1.0 + 2 * k**2 + a, n_cut)
        target = DensityMatrix(TruncatedOperator(d @ th.mat @ d.conj().T), th.tail_mass + 1e-9)
        assert trace_distance(out, target) < 1e-8


class TestMoments:
    def test_vacuum(self):
        g = moments_from_density(fock_state(0, 32))
        np.testing.assert_allclose(g.mean, 0.0, atol=1e-14)
        np.testing.assert_allclose(g.cov, np.eye(2), atol=1e-12)

    def test_thermal(self):
        g = moments_from_density(thermal_state(2.5, 64))
        np.testing.assert_allclose(g.cov, 2.5 * np.eye(2), atol=1e-9)

    def test_coherent_mean(self):
        al = 0.7 - 0.4j
        g = moments_from_density(coherent_state(al, 48))
        np.testing.assert_allclose(
            g.mean, [np.sqrt(2) * al.real, np.sqrt(2) * al.imag], atol=1e-10)
        np.testing.assert_allclose(g.cov, np.eye(2), atol=1e-9)

    def test_top_level_state_is_not_truncated(self):
        # <q^2> of |15> keeps the 15 -> 16 -> 15 term: covariance 2 * 15 + 1 on 16 levels as on 32
        small, big = moments_from_density(fock_state(15, 16)), moments_from_density(fock_state(15, 32))
        np.testing.assert_allclose(small.cov, 31.0 * np.eye(2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(small.cov, big.cov, rtol=0, atol=1e-12)

    def test_tail_guard(self):
        heavy = thermal_state(9.0, 24, tail_tol=1.0)
        with pytest.raises(TailTooLarge):
            moments_from_density(heavy)

    def test_covariance_map_identity_and_fixed_point(self):
        g = GaussianMoments(np.array([0.3, -0.1]), np.eye(2))
        out = covariance_map(canonical_xy(ChannelSpec("I")), g)
        np.testing.assert_allclose(out.cov, g.cov)
        out = covariance_map(canonical_xy(ChannelSpec("C1", 0.7)), GaussianMoments(np.zeros(2), np.eye(2)))
        np.testing.assert_allclose(out.cov, np.eye(2))  # vacuum fixed

    def test_conjugator_thermal_map(self):
        k, a0 = 0.8, 3.0
        out = covariance_map(canonical_xy(ChannelSpec("D", k)),
                             GaussianMoments(np.zeros(2), a0 * np.eye(2)))
        np.testing.assert_allclose(out.cov, (k**2 * a0 + 1 + k**2) * np.eye(2))

    def test_kraus_consistency_thermal(self):
        # operator-sum moments equal the phase-space map on a thermal probe
        n_cut = 64
        g_in = moments_from_density(thermal_state(2.0, n_cut))
        for spec in (ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3), ChannelSpec("D", 0.8)):
            fam = family_for(spec, n_cut)
            got = moments_from_density(apply(fam, thermal_state(2.0, n_cut)))
            want = covariance_map(canonical_xy(spec), g_in)
            np.testing.assert_allclose(got.cov, want.cov, atol=1e-5)


def test_symplectic_validation():
    with pytest.raises(InvalidParameter):
        Symplectic2(np.diag([2.0, 1.0]))
    assert rotation(0.3).s @ rotation(-0.3).s == pytest.approx(np.eye(2))
