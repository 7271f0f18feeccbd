"""Kraus families: closed forms, application, duality, rank-one forms."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from conftest import family_for, padded_random_state
from references import char_ordered, read_record

from boskraus.channels import ChannelSpec, closed_form_action
from boskraus.errors import (
    DefectTooLarge,
    GridTooCoarse,
    InvalidParameter,
    UnsupportedFamily,
)
from boskraus.analysis import thermal_estimate, thermal_step
from boskraus.fock import (
    bandwidth,
    coherent_amplitudes,
    coherent_disc_grid,
    coherent_state,
    fock_state,
    hermite_psi_table,
    thermal_state,
    trace_distance,
)
from boskraus.kraus import (
    SUGGEST_ELL_CAP,
    KrausFamily,
    apply,
    apply_matrix,
    build_continuous,
    build_discrete,
    completeness_defect,
    dual,
    hermite_quadrature,
    rank_one_d,
    suggest_ell_max,
)


class TestDiscreteBuilders:
    def test_d_first_operator(self):
        # lowest conjugator operator is a pure vacuum projector
        for k in (0.5, 1.0, 2.0):
            fam = build_discrete(ChannelSpec("D", k), 6, 16, defect_limit=2.0)
            expect = np.zeros((16, 16))
            expect[0, 0] = (1 + k**2) ** -0.5
            np.testing.assert_allclose(fam.ops[0], expect, atol=1e-15)

    def test_d_symbolic_entry(self):
        # T_1 at unit gain is (|1><0| + |0><1|) / 2
        fam = build_discrete(ChannelSpec("D", 1.0), 4, 16, defect_limit=2.0)
        t1 = fam.ops[1]
        assert t1[1, 0] == pytest.approx(0.5)
        assert t1[0, 1] == pytest.approx(0.5)
        assert np.count_nonzero(t1) == 2

    def test_c1_unit_gain_is_identity(self):
        fam = build_discrete(ChannelSpec("C1", 1.0), 8, 16)
        np.testing.assert_array_equal(fam.ops[0], np.eye(16))
        assert np.all(fam.ops[1:] == 0)

    def test_a1_is_rank_one_ladder(self):
        fam = build_discrete(ChannelSpec("A1"), 15, 16)
        for ell in range(16):
            expect = np.zeros((16, 16))
            expect[0, ell] = 1.0
            np.testing.assert_array_equal(fam.ops[ell], expect)

    def test_band_structure_exact(self):
        # every entry off the designated band is exactly zero
        d = build_discrete(ChannelSpec("D", 0.7), 12, 24, defect_limit=2.0)
        for ell in range(13):
            r, c = np.nonzero(d.ops[ell])
            assert np.all(r + c == ell)
        c1 = build_discrete(ChannelSpec("C1", 0.6), 12, 24, defect_limit=2.0)
        c2 = build_discrete(ChannelSpec("C2", 1.4), 12, 24, defect_limit=2.0)
        for ell in range(13):
            r, c = np.nonzero(c1.ops[ell])
            assert np.all(c - r == ell)
            r, c = np.nonzero(c2.ops[ell])
            assert np.all(r - c == ell)

    def test_trace_orthogonality(self):
        for spec in (ChannelSpec("D", 0.8), ChannelSpec("C1", 0.5), ChannelSpec("C2", 1.5)):
            fam = build_discrete(spec, 10, 32, defect_limit=2.0)
            for m in range(11):
                for n in range(m + 1, 11):
                    assert abs(np.trace(fam.ops[m].conj().T @ fam.ops[n])) < 1e-12

    def test_d_frobenius_norms_equal(self):
        k = 0.9
        fam = build_discrete(ChannelSpec("D", k), 40, 64, defect_limit=2.0)
        norms = [np.sum(np.abs(fam.ops[l]) ** 2) for l in range(30)]
        np.testing.assert_allclose(norms, 1.0 / (1 + k**2), rtol=1e-12)

    def test_defect_guard(self):
        with pytest.raises(DefectTooLarge):
            build_discrete(ChannelSpec("D", 1.0), 3, 32)

    def test_noisy_rejected(self):
        with pytest.raises(UnsupportedFamily):
            build_discrete(ChannelSpec("C1", 0.5, 1.0), 8, 16)
        with pytest.raises(UnsupportedFamily):
            build_discrete(ChannelSpec("B2", noise_a=0.0), 8, 16)

    @pytest.mark.parametrize("ell_max,n_cut", [(4, 0), (4, 1), (4, 2.5), (2.5, 16), (4, True), ("4", 16)])
    @pytest.mark.parametrize("family", ["D", "C1", "C2", "A1", "I"])
    def test_sizes_are_checked(self, family, ell_max, n_cut):
        spec = ChannelSpec(family, {"D": 0.8, "C1": 0.7, "C2": 1.3}.get(family))
        with pytest.raises(InvalidParameter, match="must be an integer"):
            build_discrete(spec, ell_max, n_cut)

    def test_negative_ell_max_message(self):
        with pytest.raises(InvalidParameter) as exc:
            build_discrete(ChannelSpec("D", 0.8), -1, 16)
        assert str(exc.value) == "ell_max must be an integer of at least 0, got -1"


def reference_suggest_ell_max(spec: ChannelSpec, n_protect: int, tol: float) -> int:
    """The index cut of D and C2 as two negative-binomial loops, one per family, as
    ``suggest_ell_max`` ran them before they became one; a first weight below the normal
    floats is stepped as its logarithm until it is one."""
    n = n_protect - 1
    if spec.family == "D":
        ratio = 1.0 / (1.0 + spec.kappa**-2)
        log_term = -(n + 1) * math.log1p(spec.kappa**2)
        term, ell = math.exp(log_term), n
        while term < sys.float_info.min and ell < SUGGEST_ELL_CAP:
            ell += 1
            log_term += math.log(ratio * ell / (ell - n))
            term = math.exp(log_term)
        remaining = 1.0 - term
        while remaining > tol and ell < SUGGEST_ELL_CAP:
            ell += 1
            term *= ratio * ell / (ell - n)
            remaining -= term
    else:
        if spec.kappa == 1.0:
            return 0
        ratio = 1.0 - spec.kappa**-2
        log_term = -2.0 * (n + 1) * math.log(spec.kappa)
        term, ell = spec.kappa ** (-2.0 * (n + 1)), 0
        while term < sys.float_info.min and ell < SUGGEST_ELL_CAP:
            ell += 1
            log_term += math.log(ratio * (n + ell) / ell)
            term = math.exp(log_term)
        remaining = 1.0 - term
        while remaining > tol and ell < SUGGEST_ELL_CAP:
            ell += 1
            term *= ratio * (n + ell) / ell
            remaining -= term
    if remaining > tol:
        raise DefectTooLarge(
            f"{spec} at n_protect={n_protect}: completeness tail {remaining:.3e} > {tol:.1e} "
            f"at the index cap ell_max={SUGGEST_ELL_CAP}")
    return ell


class TestCompleteness:
    def test_identity_family(self):
        fam = build_discrete(ChannelSpec("I"), 0, 16)
        assert fam.completeness_defect == 0.0

    def test_c1_full_index_is_exact(self):
        fam = build_discrete(ChannelSpec("C1", 0.9), 48, 48)
        assert fam.completeness_defect < 1e-10

    def test_c2_geometric_tail(self):
        # index cut chosen so the geometric tail (1 - k^-2)^l is < 1e-14
        k = 1.5
        ell_max = int(np.ceil(np.log(1e-14) / np.log(1 - k**-2)))
        fam = build_discrete(ChannelSpec("C2", k), ell_max + 48, 48)
        assert fam.completeness_defect < 1e-8

    def test_suggest_ell_max_hits_target(self):
        for spec in (ChannelSpec("D", 0.8), ChannelSpec("C2", 1.3)):
            ell = suggest_ell_max(spec, 32, 1e-12)
            fam = build_discrete(spec, ell, 32)
            assert fam.completeness_defect < 1e-10

    @pytest.mark.parametrize("n_protect", [0, -3, 2.5, True])
    @pytest.mark.parametrize("family", ["D", "C1", "C2", "A1", "I"])
    def test_suggest_ell_max_needs_a_protected_level(self, family, n_protect):
        spec = ChannelSpec(family, {"D": 0.8, "C1": 0.7, "C2": 1.3}.get(family))
        with pytest.raises(InvalidParameter, match="n_protect"):
            suggest_ell_max(spec, n_protect)

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["D", "C2"]), gain=st.floats(0.0, 1.0), n_protect=st.integers(1, 600),
           log_tol=st.floats(-16.0, -3.0))
    def test_suggest_ell_max_is_the_two_loops(self, family, gain, n_protect, log_tol):
        # D takes kappa in (0.05, 3.05), C2 in [1, 4]
        spec = ChannelSpec(family, 0.05 + 3.0 * gain if family == "D" else 1.0 + 3.0 * gain)
        tol = 10.0**log_tol
        outcomes = []
        for reader in (suggest_ell_max, reference_suggest_ell_max):
            try:
                outcomes.append(reader(spec, n_protect, tol))
            except DefectTooLarge as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("spec,n_protect", [(ChannelSpec("D", 1.8), 512), (ChannelSpec("D", 2.5), 512),
                                                (ChannelSpec("D", 1.3), 768), (ChannelSpec("C2", 2.0), 640),
                                                (ChannelSpec("C2", 2.0), 768), (ChannelSpec("C2", 2.5), 512)])
    def test_underflowing_first_weight(self, spec, n_protect):
        # the worst level's first weight is subnormal or 0, where a product recurrence never recovers
        ell = suggest_ell_max(spec, n_protect, 1e-10)
        assert build_discrete(spec, ell, n_protect).completeness_defect <= 1e-10

    @pytest.mark.parametrize("spec,n_protect", [
        (ChannelSpec("D", 0.8, 0.5), 48), (ChannelSpec("C2", 1.3, 0.2), 48), (ChannelSpec("A1", noise_a=0.4), 48),
        (ChannelSpec("C1", 0.5, 0.3), 16), (ChannelSpec("A2"), 16), (ChannelSpec("B2", noise_a=0.5), 16),
    ], ids=["D", "C2", "A1", "C1", "A2", "B2"])
    def test_suggest_ell_max_refuses_what_build_discrete_refuses(self, spec, n_protect):
        # a noisy spec once got a cut for its quantum-limited part (147, 106, 47 and 15)
        with pytest.raises(UnsupportedFamily) as built:
            build_discrete(spec, 8, n_protect)
        with pytest.raises(UnsupportedFamily) as suggested:
            suggest_ell_max(spec, n_protect)
        assert str(suggested.value) == str(built.value)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-3])
    def test_suggest_ell_max_needs_a_positive_tolerance(self, tol):
        # nan ignored the tolerance; a tolerance <= 0 ran the loop to the cap
        with pytest.raises(InvalidParameter, match="tol must be positive"):
            suggest_ell_max(ChannelSpec("D", 0.8), 16, tol)

    @pytest.mark.parametrize("limit", [float("nan"), -1.0])
    def test_defect_limit_must_be_nonnegative(self, limit):
        with pytest.raises(InvalidParameter, match="defect_limit"):
            build_discrete(ChannelSpec("D", 0.8), 3, 32, defect_limit=limit)

    def test_suggest_ell_max_raises_when_tail_not_converged(self):
        # D(1e3) keeps almost all weight beyond any cut below the 100000 cap
        with pytest.raises(DefectTooLarge, match="completeness tail"):
            suggest_ell_max(ChannelSpec("D", 1e3), 32)

    def test_public_defect_matches_stored(self):
        spec = ChannelSpec("C2", 1.4)
        fam = build_discrete(spec, suggest_ell_max(spec, 32), 32)
        assert completeness_defect(fam) == pytest.approx(fam.completeness_defect, abs=1e-14)

    @pytest.mark.parametrize("kind", ["D", "C1", "C2", "A1", "I", "A2", "B1", "B1-zero-noise", "rank-one",
                                      "scheme", "product", "json", "stack"])
    def test_negative_block_raises(self, kind):
        from boskraus.analysis import product_family
        from boskraus.scheme import kraus_from_scheme, mix_matrix

        c1 = build_discrete(ChannelSpec("C1", 0.7), 15, 16)
        family = {
            "D": lambda: build_discrete(ChannelSpec("D", 0.8), 40, 16),
            "C1": lambda: c1,
            "C2": lambda: build_discrete(ChannelSpec("C2", 1.3), 80, 16),
            "A1": lambda: build_discrete(ChannelSpec("A1"), 15, 16),
            "I": lambda: build_discrete(ChannelSpec("I"), 0, 16),
            "A2": lambda: build_continuous(ChannelSpec("A2"), 64, 24),
            "B1": lambda: build_continuous(ChannelSpec("B1", noise_a=0.5), 32, 16),
            "B1-zero-noise": lambda: build_continuous(ChannelSpec("B1", noise_a=0.0), 32, 16),
            "rank-one": lambda: rank_one_d(0.8, *coherent_disc_grid(6.0, 12, 16), 16, probe_check=False),
            "scheme": lambda: kraus_from_scheme(mix_matrix(ChannelSpec("D", 0.8)), 10, 16),
            "product": lambda: product_family(c1, c1, 3),
            "json": lambda: read_record(json.loads(json.dumps(c1.to_json_dict()))),
            "stack": lambda: c1.ops,
        }[kind]()
        with pytest.raises(InvalidParameter, match="must be an integer of at least 0"):
            completeness_defect(family, block=-1)
        assert completeness_defect(family, block=0) == 0.0


class TestApply:
    def test_identity_channel(self):
        rho = padded_random_state(0, 12, 24)
        fam = build_discrete(ChannelSpec("I"), 0, 24)
        assert trace_distance(apply(fam, rho), rho) < 1e-14

    def test_attenuator_scales_coherent(self):
        rho = coherent_state(1.3 - 0.4j, 48)
        fam = build_discrete(ChannelSpec("C1", 0.7), 47, 48)
        out = apply(fam, rho)
        assert trace_distance(out, coherent_state(0.7 * (1.3 - 0.4j), 48)) < 1e-8

    def test_unit_conjugator_heats_vacuum(self):
        # the self-dual conjugator takes the vacuum to the x = 1/2 thermal state
        spec = ChannelSpec("D", 1.0)
        fam = family_for(spec, 48)
        out = apply(fam, fock_state(0, 48))
        diag = np.diag(out.mat).real
        np.testing.assert_allclose(diag[1:] / diag[:-1], 0.5, atol=1e-10)
        assert trace_distance(out, thermal_state(3.0, 48, tail_tol=1.0)) < 1e-9

    def test_leakage_recorded_and_renormalized(self):
        rho = fock_state(30, 32)
        fam = family_for(ChannelSpec("C2", 1.4), 32)
        out = apply(fam, rho)
        assert np.trace(out.mat).real == pytest.approx(1.0)
        assert out.tail_mass > 0.01  # genuinely pushed past the cutoff

    def test_fock_image_matches_binomial(self):
        # attenuator takes |n><n| to a binomial mixture over lower levels
        n, k = 6, 0.75
        fam = build_discrete(ChannelSpec("C1", k), 47, 48)
        out = apply(fam, fock_state(n, 48))
        diag = np.diag(out.mat).real
        for ell in range(n + 1):
            expect = math.comb(n, ell) * (1 - k**2) ** (n - ell) * k ** (2 * ell)
            assert diag[ell] == pytest.approx(expect, rel=1e-12)
        assert np.all(diag[n + 1:] < 1e-15)

    def test_amplifier_supports_upward_only(self):
        fam = family_for(ChannelSpec("C2", 1.3), 48)
        out = apply(fam, fock_state(5, 48))
        diag = np.diag(out.mat).real
        assert np.all(diag[:5] == 0.0)
        assert diag[5] > 0


class TestOrderedFunctionAlgebra:
    def test_conjugator_normal_to_antinormal(self):
        # the conjugate-argument map between the output normal-ordered and
        # the input antinormal-ordered characteristic functions
        k, n_cut = 0.8, 64
        fam = family_for(ChannelSpec("D", k), n_cut)
        rho = padded_random_state(4, 16, n_cut)
        out = apply(fam, rho)
        for xi in (0.35, 0.2 - 0.4j, 0.5j):
            lhs = char_ordered(out, xi, "normal")
            rhs = char_ordered(rho, -k * np.conj(xi), "antinormal")
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_attenuator_scales_normal_ordered(self):
        k, n_cut = 0.7, 64
        fam = build_discrete(ChannelSpec("C1", k), n_cut - 1, n_cut)
        rho = padded_random_state(8, 16, n_cut)
        out = apply(fam, rho)
        for xi in (0.4, 0.3 + 0.2j):
            assert char_ordered(out, xi, "normal") == pytest.approx(
                char_ordered(rho, k * xi, "normal"), abs=1e-9)

    def test_amplifier_scales_antinormal_ordered(self):
        k, n_cut = 1.3, 64
        fam = family_for(ChannelSpec("C2", k), n_cut)
        rho = padded_random_state(9, 12, n_cut)
        out = apply(fam, rho)
        for xi in (0.4, 0.25 - 0.3j):
            assert char_ordered(out, xi, "antinormal") == pytest.approx(
                char_ordered(rho, k * xi, "antinormal"), abs=1e-9)


class TestClosedFormAction:
    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("D", 1.3),
                                      ChannelSpec("C1", 0.6), ChannelSpec("C2", 1.4)])
    def test_matches_operator_sum(self, spec):
        n_cut = 32
        fam = family_for(spec, n_cut, 1e-14)
        for (m, n) in [(0, 0), (2, 2), (4, 1), (1, 5), (7, 7)]:
            probe = np.zeros((n_cut, n_cut), dtype=complex)
            probe[m, n] = 1.0
            direct = apply_matrix(fam, probe)
            closed = closed_form_action(spec, m, n, n_cut).mat
            assert np.max(np.abs(direct - closed)) < 1e-10

    def test_attenuator_binomial_row(self):
        spec = ChannelSpec("C1", 0.6)
        out = closed_form_action(spec, 4, 4, 16).mat
        for ell in range(5):
            expect = math.comb(4, ell) * (1 - 0.36) ** (4 - ell) * 0.36**ell
            assert out[ell, ell].real == pytest.approx(expect, rel=1e-12)

    def test_hermiticity_pairing(self):
        spec = ChannelSpec("D", 0.9)
        a = closed_form_action(spec, 3, 6, 24).mat
        b = closed_form_action(spec, 6, 3, 24).mat
        np.testing.assert_allclose(a, b.conj().T, atol=1e-14)

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            closed_form_action(ChannelSpec("A2"), 0, 0, 16)

    @pytest.mark.parametrize("spec,m,n,n_cut", [
        (ChannelSpec("C1", 0.5), 1.5, 1, 4),
        (ChannelSpec("C1", 0.5), True, 1, 4),  # would run as m = 1
        (ChannelSpec("D", 0.5), 1, 1, 4.5),
    ], ids=["fractional-label", "bool-label", "fractional-cutoff"])
    def test_labels_and_cutoff_must_be_integers(self, spec, m, n, n_cut):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            closed_form_action(spec, m, n, n_cut)


class TestDuality:
    @pytest.mark.parametrize("k", [0.5, 0.8, 1.25, 2.0])
    def test_conjugator_reciprocal(self, k):
        fam = build_discrete(ChannelSpec("D", k), 12, 32, defect_limit=2.0)
        ref = build_discrete(ChannelSpec("D", 1.0 / k), 12, 32, defect_limit=2.0)
        assert np.max(np.abs(dual(fam).ops - ref.ops)) < 1e-13
        assert dual(fam).spec == ChannelSpec("D", 1.0 / k)

    @pytest.mark.parametrize("k", [1.25, 2.0])
    def test_amplifier_attenuator_pair(self, k):
        a = build_discrete(ChannelSpec("C2", k), 12, 32, defect_limit=2.0)
        b = build_discrete(ChannelSpec("C1", 1.0 / k), 12, 32, defect_limit=2.0)
        assert np.max(np.abs(dual(a).ops - b.ops)) < 1e-13
        assert np.max(np.abs(dual(b).ops - a.ops)) < 1e-13

    def test_involution(self):
        fam = build_discrete(ChannelSpec("C1", 0.5), 10, 24, defect_limit=2.0)
        back = dual(dual(fam))
        assert np.max(np.abs(back.ops - fam.ops)) < 1e-14
        assert back.spec == fam.spec

    def test_almost_unitality(self):
        # sum W W^dag = kappa^-2 on the protected block, i.e. the rescaled
        # adjoint family is itself complete
        for spec in (ChannelSpec("D", 0.8), ChannelSpec("C2", 1.5)):
            fam = build_discrete(spec, suggest_ell_max(spec, 80, 1e-13), 64)
            assert completeness_defect(dual(fam)) < 1e-6
        spec = ChannelSpec("C1", 0.7)
        ell = suggest_ell_max(ChannelSpec("C2", 1 / 0.7), 80, 1e-13)
        fam = build_discrete(spec, ell, 64)
        assert completeness_defect(dual(fam)) < 1e-6

    def test_zero_gain_has_no_dual(self):
        fam = build_discrete(ChannelSpec("C1", 0.0), 10, 16)
        with pytest.raises(InvalidParameter):
            dual(fam)

    def test_continuous_rejected(self):
        fam = build_continuous(ChannelSpec("A2"), 48, 24)
        with pytest.raises(UnsupportedFamily):
            dual(fam)


class TestContinuousFamilies:
    def test_b1_zero_noise_is_identity(self):
        fam = build_continuous(ChannelSpec("B1", noise_a=0.0), 48, 16)
        assert len(fam) == 1
        np.testing.assert_array_equal(fam.ops[0], np.eye(16))

    def test_a2_defect_small(self):
        fam = build_continuous(ChannelSpec("A2"), 96, 64)
        assert fam.completeness_defect < 1e-6

    def test_b1_defect_small(self):
        fam = build_continuous(ChannelSpec("B1", noise_a=0.5), 64, 64)
        assert fam.completeness_defect < 1e-12

    def test_a2_vacuum_against_quadrature_oracle(self):
        # oracle: direct quadrature of the position-diagonal coherent mixture
        n_cut = 48
        fam = build_continuous(ChannelSpec("A2"), 96, n_cut)
        out = apply(fam, fock_state(0, n_cut))
        x, w = roots_hermite(120)
        psi = hermite_psi_table(0, x)
        oracle = np.zeros((n_cut, n_cut))
        for xi, wi in zip(x, w):
            ket = coherent_amplitudes(xi / np.sqrt(2.0), n_cut).real
            oracle += wi * np.exp(xi**2) * (np.pi**-0.25 * np.exp(-xi**2 / 2)) ** 2 * np.outer(ket, ket)
        oracle /= np.trace(oracle)
        assert np.max(np.abs(out.mat - oracle)) < 1e-10

    def test_a2_fock_one_diagonal_weight(self):
        # output weight along the position axis follows |psi_1(q)|^2
        n_cut = 48
        fam = build_continuous(ChannelSpec("A2"), 96, n_cut)
        out = apply(fam, fock_state(1, n_cut))
        x, w = roots_hermite(120)
        oracle = np.zeros((n_cut, n_cut))
        for xi, wi in zip(x, w):
            psi1 = np.sqrt(2.0) * xi * np.pi**-0.25 * np.exp(-xi**2 / 2)
            ket = coherent_amplitudes(xi / np.sqrt(2.0), n_cut).real
            oracle += wi * np.exp(xi**2) * psi1**2 * np.outer(ket, ket)
        oracle /= np.trace(oracle)
        assert np.max(np.abs(out.mat - oracle)) < 1e-10

    def test_b1_is_gaussian_displacement_mixture(self):
        # oracle: quadrature over displaced states with the Gaussian weight
        from boskraus.fock import displacement_op

        n_cut, a = 40, 0.8
        fam = build_continuous(ChannelSpec("B1", noise_a=a), 64, n_cut)
        rho = coherent_state(0.5, n_cut)
        out = apply(fam, rho)
        t, w = roots_hermite(64)
        oracle = np.zeros((n_cut, n_cut), dtype=complex)
        for ti, wi in zip(t, w):
            d = displacement_op(np.sqrt(a) * ti / np.sqrt(2.0), n_cut).mat
            oracle += (wi / np.sqrt(np.pi)) * d @ rho.mat @ d.conj().T
        oracle /= np.trace(oracle).real
        assert np.max(np.abs(out.mat - oracle)) < 1e-12

    def test_b1_widens_only_position(self):
        from boskraus.phasespace import moments_from_density

        a = 0.6
        fam = build_continuous(ChannelSpec("B1", noise_a=a), 64, 64)
        g0 = moments_from_density(thermal_state(1.5, 64))
        g1 = moments_from_density(apply(fam, thermal_state(1.5, 64)))
        assert g1.cov[0, 0] - g0.cov[0, 0] == pytest.approx(a, abs=1e-8)
        assert g1.cov[1, 1] - g0.cov[1, 1] == pytest.approx(0.0, abs=1e-8)

    def test_node_count_guard(self):
        with pytest.raises(InvalidParameter):
            build_continuous(ChannelSpec("A2"), 16, 32)

    @pytest.mark.parametrize("nodes", [64, 399, 400, 600])
    def test_quadrature_weights_finite(self, nodes):
        # from ~400 nodes some Gauss-Hermite weights underflow and exp(x^2)
        # overflows; those nodes carry weight 0, every finite weight is w exp(x^2)
        x, w = hermite_quadrature(nodes)
        t, w_gh = roots_hermite(nodes)
        with np.errstate(over="ignore", invalid="ignore"):
            raw = w_gh * np.exp(t**2)
        finite = np.isfinite(raw)
        assert np.array_equal(x, t)
        assert np.array_equal(w[finite], raw[finite])
        assert np.all(w[~finite] == 0.0)
        assert (nodes < 399) == finite.all()

    @pytest.mark.parametrize("nodes", [400, 600])
    def test_a2_many_nodes(self, nodes):
        fam = build_continuous(ChannelSpec("A2"), nodes, 16)
        assert np.all(np.isfinite(fam.index.weights))
        assert fam.completeness_defect < 1e-12
        assert completeness_defect(fam) == fam.completeness_defect

    @pytest.mark.parametrize("nodes", [400, 600])
    def test_b1_many_nodes(self, nodes):
        fam = build_continuous(ChannelSpec("B1", noise_a=0.5), nodes, 16)
        assert np.all(np.isfinite(fam.index.weights))
        assert fam.completeness_defect < 1e-12
        assert completeness_defect(fam) < 1e-12

    def test_non_finite_defect_rejected(self, monkeypatch):
        from boskraus import families

        monkeypatch.setattr(families, "_identity_defect", lambda *args: float("nan"))
        with pytest.raises(DefectTooLarge):
            build_continuous(ChannelSpec("A2"), 64, 16)


class TestSemigroup:
    @pytest.mark.parametrize("seed", range(3))
    def test_attenuator(self, seed):
        rho = padded_random_state(seed, 24, 48)
        f1 = build_discrete(ChannelSpec("C1", 0.8), 47, 48)
        f2 = build_discrete(ChannelSpec("C1", 0.9), 47, 48)
        f12 = build_discrete(ChannelSpec("C1", 0.72), 47, 48)
        assert trace_distance(apply(f2, apply(f1, rho)), apply(f12, rho)) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_amplifier(self, seed):
        rho = padded_random_state(seed + 10, 24, 48)
        f1 = family_for(ChannelSpec("C2", 1.3), 48, 1e-14)
        f2 = family_for(ChannelSpec("C2", 1.2), 48, 1e-14)
        f12 = family_for(ChannelSpec("C2", 1.56), 48, 1e-14)
        assert trace_distance(apply(f2, apply(f1, rho)), apply(f12, rho)) < 1e-9


class TestRankOne:
    def setup_method(self):
        self.alphas, self.weights = coherent_disc_grid(9.0, 44, 64)

    def test_every_operator_rank_one(self):
        fam = rank_one_d(0.8, self.alphas, self.weights, 32, probe_check=False)
        for op in fam.ops[::37]:
            sv = np.linalg.svd(op, compute_uv=False)
            assert sv[1] < 1e-12 * max(sv[0], 1.0)

    def test_reproduces_channel(self):
        fam = rank_one_d(0.8, self.alphas, self.weights, 48)
        ref = family_for(ChannelSpec("D", 0.8), 48)
        for probe in (thermal_state(2.0, 48), fock_state(2, 48)):
            assert trace_distance(apply(fam, probe), apply(ref, probe)) < 1e-6

    def test_output_weight_is_scaled_q(self):
        # the diagonal weight of the output evaluated at the rank-one centers
        # equals the conjugate-rescaled input Husimi function
        from boskraus.fock import q_function

        k = 0.8
        probe = coherent_state(0.4 + 0.2j, 48)
        ref = family_for(ChannelSpec("D", k), 48)
        out = apply(ref, probe)
        # rebuild from the claimed weight and compare
        rebuilt = np.zeros((48, 48), dtype=complex)
        for al, w in zip(self.alphas, self.weights):
            weight = q_function(probe, np.conj(al) / k) / k**2
            ket = coherent_amplitudes(al, 48)
            rebuilt += (w / np.pi) * weight * np.outer(ket, ket.conj())
        rebuilt /= np.trace(rebuilt).real
        assert np.max(np.abs(rebuilt - out.mat)) < 1e-8

    def test_quadrature_convergence(self):
        # doubling the grid changes the thermal output below the target
        probe = thermal_state(2.0, 40)
        coarse = rank_one_d(0.8, *coherent_disc_grid(9.0, 30, 44), 40, probe_check=False)
        fine = rank_one_d(0.8, *coherent_disc_grid(9.0, 60, 88), 40, probe_check=False)
        assert trace_distance(apply(coarse, probe), apply(fine, probe)) < 1e-8

    def test_coarse_grid_rejected(self):
        alphas, weights = coherent_disc_grid(2.0, 4, 8)
        with pytest.raises(GridTooCoarse):
            rank_one_d(0.8, alphas, weights, 32)


def test_no_finite_rank_in_attenuator_span(rng):
    # truncated surrogate of the no-finite-rank property: any sparse
    # combination of the attenuator band operators keeps numerical rank
    # >= block - (lowest contributing band index) on the protected block.
    # Unit-modulus coefficients keep the triangular blocks conditioned
    # well enough for a 1e-9 relative threshold (the exact rank statement
    # allows arbitrarily skewed spectra otherwise).
    n_cut, ell_max, k = 24, 8, 0.85
    fam = build_discrete(ChannelSpec("C1", k), ell_max, n_cut, defect_limit=2.0)
    block = n_cut - ell_max
    for trial in range(200):
        support = rng.choice(ell_max + 1, size=rng.integers(1, 9), replace=False)
        coeffs = np.exp(2j * np.pi * rng.uniform(size=support.size))
        m = np.tensordot(coeffs, fam.ops[support], axes=(0, 0))[:block, :block]
        sv = np.linalg.svd(m, compute_uv=False)
        rank = int(np.sum(sv > 1e-9 * sv[0]))
        lowest = int(support.min())
        assert rank >= block - lowest
        if lowest <= 1:
            assert rank >= block - 1
    # the amplifier span inherits the property through the adjoint pairing
    amp = build_discrete(ChannelSpec("C2", 1.0 / k), ell_max, n_cut, defect_limit=2.0)
    assert np.max(np.abs(dual(amp).ops - fam.ops)) < 1e-13


# gain ranges per family; output a0 at most 8.5 keeps the N=128 thermal tail under 1e-13
INVARIANT_GAINS = {"D": (0.2, 1.5), "C1": (0.05, 0.95), "C2": (1.05, 1.6)}
A0_OUT_MAX, N_INVARIANT = 8.5, 128


class TestDiagonalStates:
    """Invariants over random gains and thermal inputs whose tails are under tolerance."""

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(sorted(INVARIANT_GAINS)), gain=st.floats(0.0, 1.0), a0_frac=st.floats(0.0, 1.0))
    def test_thermal_input_maps_by_thermal_step(self, family, gain, a0_frac):
        lo, hi = INVARIANT_GAINS[family]
        spec = ChannelSpec(family, lo + gain * (hi - lo))
        # largest input a0 whose image stays at or below A0_OUT_MAX
        a0_max = min(A0_OUT_MAX, (A0_OUT_MAX - thermal_step(spec, 1.0)) / spec.kappa**2 + 1.0)
        a0 = 1.0 + a0_frac * (a0_max - 1.0)
        rho = thermal_state(a0, N_INVARIANT)
        assert rho.tail_mass < 1e-13
        fam = build_discrete(spec, suggest_ell_max(spec, N_INVARIANT), N_INVARIANT)
        raw = apply_matrix(fam, rho.mat)
        out = apply(fam, rho)
        assert bandwidth(raw) == bandwidth(out.mat) == 0
        assert abs(np.trace(out.mat).real - 1.0) < 1e-12
        assert abs(np.trace(raw).real + out.tail_mass - 1.0) < 1e-12
        assert abs(thermal_estimate(out) - thermal_step(spec, a0)) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["C1", "C2"]), gains=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           a0=st.floats(1.0, 4.0), level=st.integers(0, 8))
    def test_semigroup(self, family, gains, a0, level):
        n_cut = 64
        lo, hi = (0.05, 1.0) if family == "C1" else (1.0, 1.25)
        k1, k2 = (lo + g * (hi - lo) for g in gains)

        def build(kappa):
            spec = ChannelSpec(family, kappa)
            # every band index that reaches the square block: the action inside it is exact
            return build_discrete(spec, max(suggest_ell_max(spec, n_cut), n_cut - 1), n_cut)

        for rho in (thermal_state(a0, n_cut), fock_state(level, n_cut)):
            twice = apply(build(k1), apply(build(k2), rho))
            once = apply(build(k1 * k2), rho)
            assert np.max(np.abs(twice.mat - once.mat)) < 1e-12


def test_json_roundtrip_of_complex_nodes():
    fam = rank_one_d(0.8, *coherent_disc_grid(6.0, 8, 8), 16, probe_check=False)
    assert np.iscomplexobj(fam.index.nodes)
    back = read_record(json.loads(json.dumps(fam.to_json_dict())))
    assert back.index.nodes.dtype == np.complex128
    assert np.array_equal(back.index.nodes, fam.index.nodes)
    assert np.array_equal(back.index.weights, fam.index.weights)
    assert np.array_equal(back.ops, fam.ops)


def test_json_of_real_nodes_has_no_imaginary_list():
    data = build_continuous(ChannelSpec("A2"), 48, 16).to_json_dict()
    assert list(data["index_kind"]) == ["kind", "nodes", "weights"]
    assert read_record(data).index.nodes.dtype == np.float64


def test_json_roundtrip():
    fam = build_discrete(ChannelSpec("C2", 1.3), 8, 16, defect_limit=2.0)
    back = read_record(fam.to_json_dict())
    assert np.max(np.abs(back.ops - fam.ops)) == 0.0
    assert back.spec == fam.spec
    assert back.completeness_defect == fam.completeness_defect
    cont = build_continuous(ChannelSpec("A2"), 48, 16)
    back = read_record(cont.to_json_dict())
    assert np.max(np.abs(back.ops - cont.ops)) < 1e-16
