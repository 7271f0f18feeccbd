"""Fixed points, cumulants, Zeno curves, extremality and classicality."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import family_for, padded_random_state
from references import phase_averaged_state
from test_fock import reference_coherent_amplitudes, reference_q_function

from boskraus import analysis
from boskraus.analysis import (
    MAX_CUMULANT_ORDER,
    GramReport,
    classicality_check,
    cumulants,
    fixed_point,
    gram_rank,
    iterate,
    product_family,
    simultaneous_diagonality,
    thermal_estimate,
    thermal_step,
    zeno_kappa,
)
from boskraus.channels import ChannelSpec
from boskraus.cli import main
from boskraus.errors import CutoffTooSmall, InvalidParameter, UnsupportedFamily
from boskraus.fock import (
    DEFAULT_TAIL_TOL,
    DensityMatrix,
    TruncatedOperator,
    coherent_state,
    displacement_op,
    fock_state,
    coherent_disc_grid,
    hermite_psi_table,
    random_mixed_state,
    thermal_state,
    trace_distance,
)
from boskraus.families import DiscreteIndex, KrausFamily, ProductFamily, QuadratureIndex, _band_gram_diagonals
from boskraus.kraus import (
    apply,
    build_continuous,
    build_discrete,
    completeness_defect,
    dual,
    suggest_ell_max,
)
from boskraus.phasespace import GaussianMoments, canonical_xy, covariance_map, table1_compose


@st.composite
def thermal_specs(draw):
    """A spec of D, C1, C2, A1, B2 or I, quantum-limited or noisy."""
    family = draw(st.sampled_from(["D", "C1", "C2", "A1", "B2", "I"]))
    gains = {"D": st.floats(0.05, 3.0), "C1": st.floats(0.0, 1.0), "C2": st.floats(1.0, 3.0)}
    kappa = draw(gains[family]) if family in gains else None
    return ChannelSpec(family, kappa, draw(st.just(0.0) | st.floats(0.0, 5.0)))


class TestThermalRecursion:
    def test_conjugator_fixed_point_value(self):
        spec = ChannelSpec("D", 0.8)
        target = fixed_point(spec)
        assert target == pytest.approx(41.0 / 9.0)
        assert thermal_step(spec, target) == pytest.approx(target)

    def test_attenuator_vacuum_fixed(self):
        assert thermal_step(ChannelSpec("C1", 0.44), 1.0) == pytest.approx(1.0)
        assert fixed_point(ChannelSpec("C1", 0.3)) == 1.0
        assert fixed_point(ChannelSpec("A1")) == 1.0

    def test_amplifier_strictly_heats(self):
        assert thermal_step(ChannelSpec("C2", 1.5), 1.0) == pytest.approx(3.5)
        assert fixed_point(ChannelSpec("C2", 2.0)) is None

    def test_hot_conjugators_have_none(self):
        assert fixed_point(ChannelSpec("D", 1.0)) is None
        assert fixed_point(ChannelSpec("D", 1.7)) is None

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            thermal_step(ChannelSpec("D", 0.8), 0.5)
        with pytest.raises(UnsupportedFamily):
            thermal_step(ChannelSpec("A2"), 2.0)

    @pytest.mark.parametrize("a0", [math.nan, math.inf])
    def test_non_finite_thermal_parameter(self, a0):
        for spec in (ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)):
            with pytest.raises(InvalidParameter, match="finite"):
                thermal_step(spec, a0)

    @settings(max_examples=200, deadline=None)
    @given(spec=thermal_specs(), a0=st.floats(1.0, 1e3))
    def test_step_is_the_covariance_map_of_a_thermal_state(self, spec, a0):
        cov = covariance_map(canonical_xy(spec), GaussianMoments(np.zeros(2), a0 * np.eye(2))).cov
        assert cov[0, 1] == 0.0 and cov[1, 1] == cov[0, 0]
        assert thermal_step(spec, a0) == pytest.approx(cov[0, 0], rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(spec=thermal_specs())
    def test_fixed_point_is_fixed_by_the_step(self, spec):
        target = fixed_point(spec)
        if target is not None:
            assert thermal_step(spec, target) == pytest.approx(target, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(kappa=st.floats(0.0, 0.999), noise=st.floats(0.0, 5.0))
    def test_noisy_attenuator_fixed_point(self, kappa, noise):
        assert fixed_point(ChannelSpec("C1", kappa, noise)) == pytest.approx(1.0 + noise / (1.0 - kappa**2), rel=1e-12)

    def test_noisy_step_keeps_the_noise(self):
        # the step of a noisy attenuator is kappa^2 a0 + 1 - kappa^2 + a, not that of C1(0.7) alone
        assert thermal_step(ChannelSpec("C1", 0.7, 0.3), 2.0) == pytest.approx(1.79, rel=1e-12)

    @pytest.mark.parametrize("kappa", np.linspace(0.01, 0.99, 99).tolist())
    def test_conjugator_fixed_point_bits(self, kappa):
        # the bits the fixedpoint experiment prints
        assert fixed_point(ChannelSpec("D", kappa)) == (1.0 + kappa**2) / (1.0 - kappa**2)

    def test_rows_that_leave_thermal_states_have_none(self):
        for spec in (ChannelSpec("A2"), ChannelSpec("A2", noise_a=0.4), ChannelSpec("B1", noise_a=0.5)):
            assert fixed_point(spec) is None
            with pytest.raises(UnsupportedFamily):
                thermal_step(spec, 2.0)


ITERATE_FAMILIES = {fam: family_for(ChannelSpec(fam, kappa), 16)
                    for fam, kappa in (("C1", 0.7), ("C2", 1.2), ("D", 0.8), ("A2", None))}


class TestIterate:
    def test_conjugator_attracts_everything(self):
        spec = ChannelSpec("D", 0.8)
        fam = family_for(spec, 64)
        for a0 in (1.0, 7.0):
            traj = iterate(fam, thermal_state(a0, 64), 40)
            assert traj.a0_estimates[-1] == pytest.approx(41.0 / 9.0, abs=1e-2)
        traj = iterate(fam, fock_state(3, 64), 40)
        assert traj.a0_estimates[-1] == pytest.approx(41.0 / 9.0, abs=1e-2)

    def test_contraction_rate_matches_recursion(self):
        # the per-step gap shrinks by kappa^2 after transients
        spec = ChannelSpec("D", 0.8)
        fam = family_for(spec, 64)
        traj = iterate(fam, thermal_state(7.0, 64), 12)
        target = fixed_point(spec)
        gaps = np.abs(np.array(traj.a0_estimates) - target)
        rates = gaps[5:10] / gaps[4:9]
        np.testing.assert_allclose(rates, 0.64, rtol=0.1)

    def test_attenuator_cools_to_vacuum(self):
        fam = build_discrete(ChannelSpec("C1", 0.7), 63, 64)
        traj = iterate(fam, thermal_state(5.0, 64), 60)
        assert traj.a0_estimates[-1] == pytest.approx(1.0, abs=1e-6)
        assert trace_distance(traj.final, fock_state(0, 64)) < 1e-6

    def test_amplifier_monotone_heating(self):
        fam = family_for(ChannelSpec("C2", 1.2), 64)
        traj = iterate(fam, fock_state(0, 64), 10)
        diffs = np.diff(traj.a0_estimates)
        assert np.all(diffs > 0)
        # matches the affine recursion while truncation is negligible
        assert traj.a0_estimates[1] == pytest.approx(thermal_step(ChannelSpec("C2", 1.2), 1.0), abs=1e-8)

    def test_distances_decrease(self):
        fam = family_for(ChannelSpec("D", 0.6), 48)
        traj = iterate(fam, thermal_state(4.0, 48), 15)
        assert traj.step_distances[-1] < traj.step_distances[0]
        assert all(d >= 0 for d in traj.step_distances)

    def test_lost_mass_compounds_the_steps_tails(self):
        # the amplifier pushes most of the state past N=48 in 12 steps, though no one step's
        # tail reaches half of it: a0 47.3 against the exact 1084.6
        spec = ChannelSpec("C2", 1.3)
        traj = iterate(family_for(spec, 48), thermal_state(1.0, 48), 12)
        assert traj.lost_mass == pytest.approx(0.915, abs=1e-3)
        assert traj.final.tail_mass == pytest.approx(0.39, abs=1e-2)
        exact = 1.0
        for _ in range(12):
            exact = thermal_step(spec, exact)
        assert exact == pytest.approx(1084.6, abs=0.1) and traj.a0_estimates[-1] < 50.0

    @pytest.mark.parametrize("steps", [True, 2.0, 0, -1])
    @pytest.mark.parametrize("start", ["diagonal", "coherent"])
    def test_steps_must_be_a_positive_integer(self, steps, start):
        rho = thermal_state(2.0, 16) if start == "diagonal" else coherent_state(0.5, 16)
        with pytest.raises(InvalidParameter, match="steps"):
            iterate(family_for(ChannelSpec("D", 0.8), 16), rho, steps)

    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from([("C1", "coherent"), ("C1", "random"), ("C2", "coherent"), ("C2", "random"),
                                 ("D", "coherent"), ("D", "random"), ("A2", "thermal")]),
           radius=st.floats(0.1, 1.0), phase=st.floats(0.0, 2 * math.pi), seed=st.integers(0, 2**16),
           steps=st.integers(1, 5))
    def test_general_loop_is_a_loop_of_apply(self, case, radius, phase, seed, steps):
        # a start off the diagonal, or a family that does not keep it (A2), takes the loop over states
        family = ITERATE_FAMILIES[case[0]]
        rho = {"coherent": lambda: coherent_state(radius * np.exp(1j * phase), 16),
               "random": lambda: random_mixed_state(seed, 3, 16),
               "thermal": lambda: thermal_state(1.0 + 2.0 * radius, 16)}[case[1]]()
        assert rho.bandwidth > 0 or not family.keeps_diagonal
        traj = iterate(family, rho, steps)
        a0s, dists, kept = [thermal_estimate(rho)], [], 1.0
        for _ in range(steps):
            nxt = apply(family, rho)
            dists.append(trace_distance(nxt, rho))
            rho = nxt
            a0s.append(thermal_estimate(rho))
            kept *= 1.0 - rho.tail_mass
        assert np.array(traj.a0_estimates).tobytes() == np.array(a0s).tobytes()
        assert np.array(traj.step_distances).tobytes() == np.array(dists).tobytes()
        assert traj.final.mat.tobytes() == rho.mat.tobytes() and traj.final.tail_mass == rho.tail_mass
        assert np.float64(traj.lost_mass).tobytes() == np.float64(1.0 - kept).tobytes()

    def test_lost_mass_of_a_converging_run_stays_small(self):
        traj = iterate(family_for(ChannelSpec("D", 0.8), 96), thermal_state(10.0, 96), 40)
        assert 1e-9 < traj.lost_mass < 1e-8
        assert traj.lost_mass < DEFAULT_TAIL_TOL


FOCK1_CUMULANTS = {
    # from log chi = log(1 - r^2) - r^2/2 = -(3/2) r^2 - r^4/2 - ...,
    # r^2 = xi1^2 + xi2^2
    (2, 0): 3.0, (0, 2): 3.0, (4, 0): -12.0, (0, 4): -12.0, (2, 2): -4.0,
    (1, 0): 0.0, (3, 0): 0.0, (2, 1): 0.0, (1, 1): 0.0,
}


def squeezed_superposition(r: float, phase: float, weight: float, n_cut: int, levels: int = 32) -> DensityMatrix:
    """The squeezed vacuum ``S(r e^(i phase))|0>`` on its first ``levels`` levels plus ``weight |1>``,
    normalized: a non-Gaussian pure state."""
    k = np.arange(levels // 2)
    log_amp = 0.5 * np.array([math.lgamma(2 * j + 1) for j in k]) - k * math.log(2.0) \
        - np.array([math.lgamma(j + 1) for j in k])
    amp = np.zeros(n_cut, dtype=complex)
    amp[0:levels:2] = np.exp(log_amp) * (-np.exp(1j * phase) * np.tanh(r)) ** k / np.sqrt(np.cosh(r))
    amp[1] += weight
    amp /= np.linalg.norm(amp)
    return DensityMatrix(TruncatedOperator(np.outer(amp, amp.conj())), 0.0)


class TestCumulants:
    def test_fock_one_against_analytic_series(self):
        g = cumulants(fock_state(1, 32), 4)
        for (m1, m2), want in FOCK1_CUMULANTS.items():
            assert g[m1, m2] == pytest.approx(want, abs=2e-5), (m1, m2)

    def test_gaussian_states_have_no_higher_cumulants(self):
        for rho in (fock_state(0, 32), thermal_state(2.0, 48)):
            g = cumulants(rho, 4)
            for m1 in range(5):
                for m2 in range(5 - m1):
                    if m1 + m2 >= 3:
                        assert abs(g[m1, m2]) < 1e-6

    def test_second_cumulant_is_thermal_parameter(self):
        g = cumulants(thermal_state(3.2, 64), 2)
        assert g[2, 0] == pytest.approx(3.2, abs=1e-7)
        assert g[0, 0] == 0.0

    def test_attenuator_law_on_fock_probe(self):
        # gamma' = kappa^(m1+m2) gamma at orders 3 and 4
        k, n_cut = 0.75, 48
        fam = build_discrete(ChannelSpec("C1", k), n_cut - 1, n_cut)
        rho = fock_state(1, n_cut)
        gi = cumulants(rho, 4)
        go = cumulants(apply(fam, rho), 4)
        for (m1, m2) in [(4, 0), (2, 2), (0, 4)]:
            want = k ** (m1 + m2) * gi[m1, m2]
            assert go[m1, m2] == pytest.approx(want, rel=1e-3)
        for (m1, m2) in [(3, 0), (2, 1)]:  # vanish on phase-symmetric probes
            assert abs(go[m1, m2]) < 1e-5

    def test_conjugator_law_alternates_sign(self):
        k, n_cut = 0.8, 48
        fam = family_for(ChannelSpec("D", k), n_cut)
        rho = random_mixed_state(5, 3, 12)
        big = np.zeros((n_cut, n_cut), dtype=complex)
        big[:12, :12] = rho.mat
        from boskraus.fock import DensityMatrix, TruncatedOperator

        rho = DensityMatrix(TruncatedOperator(big), 0.0)
        gi = cumulants(rho, 4)
        go = cumulants(apply(fam, rho), 4)
        for (m1, m2) in [(3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (2, 2)]:
            want = (-1.0) ** m1 * k ** (m1 + m2) * gi[m1, m2]
            scale = max(abs(want), 1e-3)
            assert abs(go[m1, m2] - want) / scale < 1e-2, (m1, m2)

    def test_amplifier_law(self):
        k, n_cut = 1.3, 64
        fam = family_for(ChannelSpec("C2", k), n_cut)
        rho = fock_state(1, n_cut)
        gi = cumulants(rho, 4)
        go = cumulants(apply(fam, rho), 4)
        for (m1, m2) in [(4, 0), (2, 2)]:
            want = k ** (m1 + m2) * gi[m1, m2]
            assert go[m1, m2] == pytest.approx(want, rel=1e-3)

    def test_fock_one_exact_to_order_six(self):
        # the r^6 term of log chi is -r^6/3
        want = {**FOCK1_CUMULANTS, (6, 0): 240.0, (0, 6): 240.0, (4, 2): 48.0, (2, 4): 48.0}
        g = cumulants(fock_state(1, 32), 6)
        for m1 in range(7):
            for m2 in range(7 - m1):
                assert abs(g[m1, m2] - want.get((m1, m2), 0.0)) <= 1e-9, (m1, m2)

    def test_fock_one_exact_to_the_order_cap(self):
        # log chi of |1> is -r^2/2 + log(1 - r^2), a function of r^2 = xi1^2 + xi2^2: gamma[2k, 0] is
        # (-1)^(k+1) (2k)! / k above k = 1 (3 at k = 1), and
        # gamma[2j, 2k - 2j] = gamma[2k, 0] C(k, j) (2j)! (2k - 2j)! / (2k)!
        top = MAX_CUMULANT_ORDER
        assert top == 14
        g = cumulants(fock_state(1, 32), top)
        assert [g[n, 0] for n in (8, 10, 12, 14)] == pytest.approx([-10080, 725760, -79833600, 12454041600],
                                                                   rel=1e-12, abs=0)
        for m1 in range(top + 1):
            for m2 in range(top + 1 - m1):
                order = m1 + m2
                if order < 2:
                    continue
                k = (order + 1) // 2
                pure = (-1) ** k * math.factorial(2 * k) * (-1.5 if k == 1 else -1.0 / k)
                want = 0.0 if m1 % 2 or m2 % 2 else pure * math.comb(k, m1 // 2) * math.factorial(m1) \
                    * math.factorial(m2) / math.factorial(order)
                assert abs(g[m1, m2] - want) <= 1e-12 * abs(pure), (m1, m2)

    def test_top_level_state_is_not_truncated(self):
        # |15> on 16 levels has the cumulants of |15> on 32: the padding holds every power
        small, big = cumulants(fock_state(15, 16), 6), cumulants(fock_state(15, 32), 6)
        assert np.array_equal(np.isnan(small), np.isnan(big))
        assert np.nanmax(np.abs(small - big)) <= 1e-12 * np.nanmax(np.abs(big))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), family=st.sampled_from(["C1", "C2", "D"]), seed=st.integers(0, 2**32 - 1),
           block=st.integers(2, 8))
    def test_gain_law_exact_at_orders_three_and_four(self, data, family, seed, block):
        kappa = data.draw({"C1": st.floats(0.1, 0.95), "C2": st.floats(1.05, 1.3), "D": st.floats(0.3, 1.0)}[family])
        n_cut = 64
        rho = padded_random_state(seed, block, n_cut, rank=block)
        gi = cumulants(rho, 4)
        go = cumulants(apply(family_for(ChannelSpec(family, kappa), n_cut), rho), 4)
        for m1 in range(5):
            for m2 in range(max(3 - m1, 0), 5 - m1):
                sign = (-1) ** m1 if family == "D" else 1
                assert abs(go[m1, m2] - sign * kappa ** (m1 + m2) * gi[m1, m2]) <= 1e-8, (m1, m2)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), family=st.sampled_from(["C1", "C2"]),
           kind=st.sampled_from(["fock", "random", "squeezed"]), seed=st.integers(0, 2**32 - 1))
    def test_gain_law_scales_orders_three_to_six(self, data, family, kind, seed):
        # C1 and C2 have X = kappa I, and their noise Y reaches only order 2, so every cumulant of
        # order 3 to 6 is multiplied by kappa^(m1 + m2); the cutoffs keep the output's tail mass
        # under 1e-12, and roundoff is measured against the output's variance to the order's power
        kappa = data.draw({"C1": st.floats(0.1, 0.95), "C2": st.floats(1.05, 1.4)}[family])
        n_cut = 48 if family == "C1" else 160
        if kind == "fock":
            rho = fock_state(data.draw(st.integers(1, 6)), n_cut)
        elif kind == "random":
            block = data.draw(st.integers(2, 10))
            rho = padded_random_state(seed, block, n_cut, rank=data.draw(st.integers(1, block)))
        else:
            rho = squeezed_superposition(data.draw(st.floats(0.1, 0.8)), data.draw(st.floats(0.0, 2 * np.pi)),
                                         data.draw(st.floats(0.2, 2.0)), n_cut)
        out = apply(family_for(ChannelSpec(family, kappa), n_cut), rho)
        assert out.tail_mass < 1e-12
        gi, go = cumulants(rho, 6), cumulants(out, 6)
        var = max(go[2, 0], go[0, 2])
        for m1 in range(7):
            for m2 in range(max(3 - m1, 0), 7 - m1):
                order = m1 + m2
                assert abs(go[m1, m2] - kappa**order * gi[m1, m2]) <= 1e-11 * var ** (order / 2), (m1, m2)

    def test_conjugator_fixed_point_is_gaussian(self):
        # five D(0.8) steps scale every fourth-order cumulant by 0.8^(4 * 5)
        rho = fock_state(1, 64)
        gi = cumulants(rho, 4)
        go = cumulants(iterate(family_for(ChannelSpec("D", 0.8), 64), rho, 5).final, 4)
        for m in [(4, 0), (2, 2), (0, 4)]:
            assert abs(go[m] - 0.8**20 * gi[m]) <= 1e-7, m


class TestZeno:
    def test_total_attenuation_single_shot(self):
        assert zeno_kappa("attenuator", 1, 1) == pytest.approx(0.0, abs=1e-16)

    def test_closed_forms(self):
        # frozen oracle values from direct evaluation of the product formulas
        assert zeno_kappa("attenuator", 10, 10) == pytest.approx(0.8834851836794666, abs=1e-12)
        assert zeno_kappa("amplifier", 1, 1, total=2.0) == pytest.approx(np.cosh(2.0), abs=1e-12)
        assert zeno_kappa("amplifier", 10, 10, total=2.0) == pytest.approx(np.cosh(0.2) ** 10, abs=1e-12)

    @pytest.mark.parametrize("mode", ["attenuator", "amplifier"])
    @pytest.mark.parametrize("total", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_total_raises(self, mode, total):
        with pytest.raises(InvalidParameter, match="finite"):
            zeno_kappa(mode, 2, 1, total)

    @pytest.mark.parametrize("n_interrupts,steps", [(2, -1), (2.5, 1), (True, 1), (2, 1.0), (2, False), (0, 0)])
    def test_counts_must_be_integers(self, n_interrupts, steps):
        with pytest.raises(InvalidParameter, match="must be an integer of at least"):
            zeno_kappa("attenuator", n_interrupts, steps)

    def test_interruption_slows_both(self):
        atten = [zeno_kappa("attenuator", n, n) for n in (1, 2, 5, 10)]
        assert atten == sorted(atten)  # less attenuation with more interrupts
        amp = [zeno_kappa("amplifier", n, n, total=2.0) for n in (1, 2, 5, 10)]
        assert amp == sorted(amp, reverse=True)

    def test_channel_iteration_cross_check(self):
        # iterating the one-segment attenuator equals the closed-form gain
        n, n_cut = 5, 48
        seg = build_discrete(ChannelSpec("C1", np.cos(np.pi / (2 * n))), n_cut - 1, n_cut)
        rho = thermal_state(3.0, n_cut)
        traj = iterate(seg, rho, n)
        direct = apply(build_discrete(ChannelSpec("C1", zeno_kappa("attenuator", n, n)), n_cut - 1, n_cut), rho)
        assert trace_distance(traj.final, direct) < 1e-8

    def test_amplifier_iteration_cross_check(self):
        n, n_cut = 6, 64
        kappa_step = float(np.cosh(1.2 / n))
        seg = family_for(ChannelSpec("C2", kappa_step), n_cut)
        traj = iterate(seg, fock_state(0, n_cut), n)
        total = family_for(ChannelSpec("C2", kappa_step**n), n_cut)
        assert trace_distance(traj.final, apply(total, fock_state(0, n_cut))) < 1e-8


def conjugator_block(k, delta, ell, j):
    if j > ell:
        return 0.0
    return (
        math.sqrt(math.comb(ell, j) * math.comb(ell + delta, j + delta))
        * (1 + k**2) ** (-j - delta / 2 - 1)
        * (1 + k**-2) ** (-(ell - j))
    )


def attenuator_block(k, delta, ell, j):
    if j < ell:
        return 0.0
    return (
        math.sqrt(math.comb(j, ell) * math.comb(j + delta, ell + delta))
        * (1 - k**2) ** (ell + delta / 2)
        * k ** (2 * (j - ell))
    )


def amplifier_block(k, delta, ell, j):
    return (
        k**-2
        * math.sqrt(math.comb(ell + j + delta, ell + delta) * math.comb(ell + j + delta, j + delta))
        * (1 - k**-2) ** (ell + delta / 2)
        * k ** (-(2 * j + delta))
    )


def reference_gram_rank(family, k, threshold=1e-8, tail_check=True):
    """``gram_rank`` with its products from the plain contraction and its
    cutoff probe from a second Gram matrix, as it was before the batched
    ``matmul`` and the border product."""
    if k < 0:
        raise InvalidParameter(f"the block index k must be nonnegative, got {k}")
    count = k + 1
    if family.origin == "product":
        if count * count > len(family):
            raise InvalidParameter(f"family has only {len(family)} operators, need {count * count}")
        prods = family.ops[: count * count]
    else:
        if count > len(family):
            raise InvalidParameter(f"family has only {len(family)} operators, need {count}")
        ops = family.operators(count)
        prods = np.einsum("mji,njk->mnik", ops.conj(), ops).reshape(count * count, family.dim, family.dim)
    gram = np.einsum("aij,bij->ab", prods.conj(), prods)
    sv = np.linalg.svd(gram, compute_uv=False)
    if tail_check and family.dim > 16 and isinstance(family.index, DiscreteIndex):
        shrink = family.dim - 8
        small = prods[:, :shrink, :shrink]
        gram_small = np.einsum("aij,bij->ab", small.conj(), small)
        if np.max(np.abs(gram_small - gram)) > 1e-8 * max(sv[0], 1e-300):
            raise CutoffTooSmall("Gram entries still change when the top of the cutoff is dropped")
    rank = int(np.sum(sv > threshold * sv[0]))
    return GramReport(count * count, sv, rank, threshold)


def reference_simultaneous_diagonality(family, tol=1e-12):
    """``simultaneous_diagonality`` over the dense stack of every family, with
    its products from the plain contraction, as it was before banded families
    read the coefficient table."""
    ops = family.ops
    spec = family.spec
    if spec is not None and spec.family == "B1" and isinstance(family.index, QuadratureIndex) \
            and spec.noise_a > 0:
        nodes = np.asarray(family.index.nodes, dtype=float)
        beta_max = float(np.max(np.abs(nodes))) / np.sqrt(2.0)
        n_ext = int(np.ceil(1.2 * (beta_max + np.sqrt(family.dim)) ** 2)) + 8
        scales = np.sqrt(np.abs(np.einsum("lij,lij->l", ops, ops.conj())))
        ops = np.stack([
            displacement_op(q / np.sqrt(2.0), n_ext).mat[:, :family.dim] for q in nodes
        ])
        norm = np.sqrt(np.abs(np.einsum("lij,lij->l", ops, ops.conj())))
        ops = ops * (scales / np.maximum(norm, 1e-300))[:, None, None]
    prods = np.einsum("lji,ljk->lik", ops.conj(), ops)
    scale = max(float(np.max(np.abs(prods))), 1e-300)
    off = prods - np.einsum("lii,ij->lij", prods, np.eye(family.dim, dtype=complex))
    if np.max(np.abs(off)) < tol * scale:
        diags = np.einsum("lii->li", prods).real
        spread = np.max(np.abs(diags - diags[:, :1]), initial=0.0)
        if spread < tol * scale:
            return True, "any"
        return True, "fock"
    if isinstance(family.index, QuadratureIndex):
        nodes = family.index.nodes
        table = hermite_psi_table(family.dim - 1, np.real(nodes))
        for i in range(len(family)):
            p = prods[i]
            v = table[:, i].astype(complex)
            vv = max(float((v.conj() @ v).real), 1e-300)
            coeff = float(np.real(v.conj() @ p @ v)) / vv**2
            resid = np.max(np.abs(p - coeff * np.outer(v, v.conj())))
            if resid > 1e-8 * scale:
                return False, "none"
        return True, "position"
    return False, "none"


def reference_product_stack(outer, inner, count):
    """The product stack of ``product_family`` from the plain contraction over both full stacks."""
    ops = np.einsum("mij,njk->mnik", outer.ops[:count], inner.ops[:count])
    return ops.reshape(count * count, outer.dim, outer.dim)


EXTREMAL_SPECS = [ChannelSpec("D", 0.5), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)]


class TestGramReference:
    @pytest.mark.parametrize("spec", EXTREMAL_SPECS)
    @pytest.mark.parametrize("n_cut", [48, 64])
    @pytest.mark.parametrize("k", [3, 6])
    def test_singular_values_equal_the_reference(self, spec, n_cut, k):
        fam = build_discrete(spec, max(suggest_ell_max(spec, n_cut), k), n_cut)
        rep = gram_rank(fam, k)
        want = reference_gram_rank(fam, k)
        assert rep.singular_values.tobytes() == want.singular_values.tobytes()
        assert (rep.block, rep.numerical_rank) == (want.block, want.numerical_rank)
        assert fam._ops is None

    @pytest.mark.parametrize("spec,n_cut,raises", [
        (ChannelSpec("C1", 0.9), 24, True), (ChannelSpec("C1", 0.9), 48, True),
        (ChannelSpec("C2", 1.3), 24, True), (ChannelSpec("C2", 1.3), 32, True),
        (ChannelSpec("C2", 1.3), 48, False), (ChannelSpec("C2", 2.0), 24, False),
        (ChannelSpec("D", 0.9), 24, False),
    ])
    def test_cutoff_probe_agrees_with_the_reference(self, spec, n_cut, raises):
        # the border Gram is what the reference's difference of two Gram matrices measures
        fam = build_discrete(spec, max(suggest_ell_max(spec, n_cut), 6), n_cut)
        if raises:
            for reader in (gram_rank, reference_gram_rank):
                with pytest.raises(CutoffTooSmall):
                    reader(fam, 6)
        else:
            assert gram_rank(fam, 6).numerical_rank == reference_gram_rank(fam, 6).numerical_rank

    @pytest.mark.parametrize("row,col", [(0, 31), (31, 0), (30, 31), (23, 24)])
    def test_cutoff_probe_reads_the_top_rows_and_columns(self, row, col):
        ops = np.zeros((1, 32, 32), dtype=complex)
        ops[0, 0, 0], ops[0, row, col] = 1.0, 1e-3
        fam = ProductFamily(None, ops, DiscreteIndex(0), "product")
        for reader in (gram_rank, reference_gram_rank):
            with pytest.raises(CutoffTooSmall):
                reader(fam, 0)
        ops[0, row, col] = 0.0
        ops[0, 23, 23] = 1e-3  # the last level the probe keeps
        assert gram_rank(fam, 0).numerical_rank == 1

    @settings(max_examples=40, deadline=None)
    @given(family=st.sampled_from(["D", "C1", "C2"]), kappa=st.floats(0.05, 0.95), n_cut=st.integers(17, 128),
           k=st.integers(0, 8))
    def test_band_gram_equals_the_reference(self, family, kappa, n_cut, k):
        # D and C1 take the gain as drawn; C2 its reciprocal, in (1.05, 20)
        spec = ChannelSpec(family, 1.0 / kappa if family == "C2" else kappa)
        fam = build_discrete(spec, k, n_cut, defect_limit=1.0)
        outcomes = []
        for reader in (gram_rank, reference_gram_rank):
            try:
                rep = reader(fam, k)
                outcomes.append((rep.singular_values.tobytes(), rep.block, rep.numerical_rank))
            except CutoffTooSmall:
                outcomes.append(CutoffTooSmall)
        assert outcomes[0] == outcomes[1]
        assert fam._ops is None

    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)])
    @pytest.mark.parametrize("n_cut", [32, 64, 128])
    def test_band_product_gram_against_the_dense_path(self, spec, n_cut):
        # the Gram matrix keeps the dense bits; the border sums in another order
        fam = build_discrete(spec, suggest_ell_max(spec, n_cut), n_cut)
        gram, border = fam.product_gram(7)
        want_gram, want_border = KrausFamily.product_gram(fam, 7)
        assert gram.tobytes() == want_gram.tobytes()
        assert abs(border - want_border) <= 4 * np.spacing(want_border)

    def test_band_gram_builds_no_product_stack(self):
        spec = ChannelSpec("D", 0.5)
        fam = build_discrete(spec, suggest_ell_max(spec, 512), 512)
        tracemalloc.start()
        try:
            rep = gram_rank(fam, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.numerical_rank == 49
        assert peak < 16e6  # the dense (49, 512, 512) product stack alone is 205 MB
        assert fam._ops is None

    @pytest.mark.parametrize("outer,inner", [
        (ChannelSpec("C2", 1.4), ChannelSpec("C1", 0.7)), (ChannelSpec("D", 0.8), ChannelSpec("D", 1.3)),
        (ChannelSpec("C1", 0.7), ChannelSpec("D", 1.2)), (ChannelSpec("D", 0.6), ChannelSpec("C2", 1.2)),
        (ChannelSpec("A1"), ChannelSpec("C2", 1.5)), (ChannelSpec("I"), ChannelSpec("D", 0.8)),
    ])
    def test_product_family_streams_its_factors(self, outer, inner):
        first, second = (build_discrete(spec, max(suggest_ell_max(spec, 40), 6), 40) for spec in (outer, inner))
        count = min(7, len(first))  # the identity has one operator
        prod = product_family(first, second, count - 1)
        assert first._ops is None and second._ops is None
        want = reference_product_stack(first, second, count)
        assert prod.ops.tobytes() == want.tobytes()
        assert prod.completeness_defect == completeness_defect(want)


class TestExtremality:
    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.5), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)])
    @pytest.mark.parametrize("k", [3, 5, 6])
    def test_full_rank(self, spec, k):
        fam = build_discrete(spec, max(suggest_ell_max(spec, 64, 1e-13), 8), 64)
        rep = gram_rank(fam, k)
        assert rep.numerical_rank == rep.block == (k + 1) ** 2
        assert rep.singular_values[-1] > 1e-8 * rep.singular_values[0]

    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.5), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)])
    def test_banded_family_builds_only_the_operators_it_reads(self, spec):
        fam = build_discrete(spec, suggest_ell_max(spec, 64, 1e-13), 64)
        rep = gram_rank(fam, 6)
        assert fam._ops is None
        dense = build_discrete(spec, suggest_ell_max(spec, 64, 1e-13), 64)
        dense.ops  # materialize the whole stack: the reader must see the same entries
        want = gram_rank(dense, 6)
        assert np.array_equal(rep.singular_values, want.singular_values)
        assert rep.numerical_rank == want.numerical_rank == 49

    def test_negative_block_raises(self):
        fam = build_discrete(ChannelSpec("D", 0.5), 8, 16, defect_limit=1.0)
        with pytest.raises(InvalidParameter):
            gram_rank(fam, -1)

    def test_quadrature_family_full_rank(self):
        fam = build_continuous(ChannelSpec("A2"), 96, 64)
        rep = gram_rank(fam, 6)
        assert rep.numerical_rank == 49

    def test_conjugator_products_match_band_coefficients(self):
        k, n_cut = 0.8, 48
        fam = build_discrete(ChannelSpec("D", k), 16, n_cut, defect_limit=2.0)
        for delta in (0, 1, 3):
            for ell in (0, 2, 5):
                prod = fam.ops[ell + delta].conj().T @ fam.ops[ell]
                for j in range(10):
                    assert prod[j + delta, j].real == pytest.approx(
                        conjugator_block(k, delta, ell, j), abs=1e-10)

    def test_attenuator_products_match_band_coefficients(self):
        k, n_cut = 0.7, 48
        fam = build_discrete(ChannelSpec("C1", k), 16, n_cut, defect_limit=2.0)
        for delta in (0, 2):
            for ell in (0, 1, 4):
                prod = fam.ops[ell + delta].conj().T @ fam.ops[ell]
                for j in range(12):
                    assert prod[j + delta, j].real == pytest.approx(
                        attenuator_block(k, delta, ell, j), abs=1e-10)

    def test_amplifier_products_match_band_coefficients(self):
        k, n_cut = 1.4, 48
        fam = build_discrete(ChannelSpec("C2", k), 16, n_cut, defect_limit=2.0)
        for delta in (0, 2):
            for ell in (0, 1, 4):
                prod = fam.ops[ell + delta].conj().T @ fam.ops[ell]
                for j in range(12):
                    assert prod[j, j + delta].real == pytest.approx(
                        amplifier_block(k, delta, ell, j), abs=1e-10)

    def test_unit_conjugator_doubly_stochastic_yet_extremal(self):
        spec = ChannelSpec("D", 1.0)
        fam = build_discrete(spec, suggest_ell_max(spec, 80, 1e-13), 64)
        assert completeness_defect(dual(fam)) < 1e-6  # unital within truncation
        rep = gram_rank(fam, 6)
        assert rep.numerical_rank == 49  # hence not a mixture of unitaries


class TestProductFamilies:
    def test_apply_matches_sequential(self):
        inner = family_for(ChannelSpec("C1", 0.7), 48)
        outer = family_for(ChannelSpec("C2", 1.3), 48)
        prod = product_family(outer, inner, 30)
        rho = thermal_state(2.0, 48)
        sequential = apply(outer, apply(inner, rho))
        assert trace_distance(apply(prod, rho), sequential) < 1e-9
        assert prod.spec is not None and prod.spec.family == "C1"

    def test_attenuated_conjugator_products_vanish(self):
        d = build_discrete(ChannelSpec("D", 1.2), 8, 48, defect_limit=2.0)
        c1 = build_discrete(ChannelSpec("C1", 0.7), 8, 48, defect_limit=2.0)
        for m in range(9):
            for n in range(9):
                prod = c1.ops[m] @ d.ops[n]
                if m > n:
                    assert np.max(np.abs(prod)) == 0.0
                if m == n:
                    # multiples of the vacuum projector
                    nz = np.nonzero(prod)
                    assert set(zip(*nz)) <= {(0, 0)}

    def test_deficient_family_detected(self):
        d = build_discrete(ChannelSpec("D", 1.2), 8, 64, defect_limit=2.0)
        c1 = build_discrete(ChannelSpec("C1", 0.7), 8, 64, defect_limit=2.0)
        rep = gram_rank(product_family(c1, d, 6), 6)
        assert rep.numerical_rank < 49

    def test_spec_none_only_for_pairs_without_a_table_entry(self, monkeypatch):
        # a noisy spec (as a JSON-loaded family may carry) has no table entry
        inner = build_discrete(ChannelSpec("C1", 0.7), 4, 16, defect_limit=2.0)
        noisy = KrausFamily(ChannelSpec("C1", 0.7, 0.2), inner.ops, inner.index)
        assert product_family(noisy, inner, 3).spec is None
        assert product_family(inner, inner, 3).spec == table1_compose(inner.spec, inner.spec)

        def broken(spec2, spec1):
            raise ValueError("defect inside the composition table")

        monkeypatch.setattr(analysis, "table1_compose", broken)
        with pytest.raises(ValueError, match="composition table"):
            product_family(inner, inner, 3)

    @pytest.mark.parametrize("k", [-1, 1.5, True], ids=["negative", "float", "bool"])
    def test_product_block_index_must_be_a_nonnegative_integer(self, k):
        c1 = build_discrete(ChannelSpec("C1", 0.7), 4, 16, defect_limit=2.0)
        with pytest.raises(InvalidParameter, match="k must be"):
            product_family(c1, c1, k)

    @pytest.mark.parametrize("k", [1.5, True], ids=["float", "bool"])
    def test_gram_block_index_must_be_an_integer(self, k):
        with pytest.raises(InvalidParameter, match="k must be an integer"):
            gram_rank(build_discrete(ChannelSpec("C1", 0.7), 4, 16, defect_limit=2.0), k)

    def test_amplified_attenuator_independent(self):
        c2 = build_discrete(ChannelSpec("C2", 1.4), 8, 64, defect_limit=2.0)
        c1 = build_discrete(ChannelSpec("C1", 0.7), 8, 64, defect_limit=2.0)
        rep = gram_rank(product_family(c2, c1, 5), 5)
        assert rep.numerical_rank == 36


class TestClassicality:
    def test_amplifier_husimi_scaling(self):
        grid = np.array([x + 1j * y for x in np.linspace(-1.2, 1.2, 5) for y in np.linspace(-1.2, 1.2, 5)])
        reps = classicality_check(ChannelSpec("C2", 1.5), [fock_state(1, 64)], grid)
        assert reps[0].passed and reps[0].max_deviation < 1e-6

    def test_attenuator_coherent_scaling(self):
        grid = np.zeros(1, dtype=complex)
        reps = classicality_check(ChannelSpec("C1", 0.7), [coherent_state(0.9 + 0.4j, 64)], grid)
        assert reps[0].passed and reps[0].max_deviation < 1e-8

    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.5)])
    def test_empty_grid_raises(self, spec):
        with pytest.raises(InvalidParameter):
            classicality_check(spec, [coherent_state(0.6, 16)], np.zeros(0, dtype=complex))

    def test_conjugator_outputs_classical(self):
        grid = np.array([0.2 + 0.1j, -0.5j, 0.8, -0.3 - 0.3j])
        reps = classicality_check(ChannelSpec("D", 0.8), [coherent_state(0.6, 48)], grid)
        assert reps[0].passed
        assert reps[0].details["min_weight"] >= -1e-12

    def test_singular_family_weight_nonnegative(self):
        grid = np.zeros(1, dtype=complex)
        reps = classicality_check(ChannelSpec("A2"), [fock_state(1, 64)], grid)
        assert reps[0].passed

    def test_singular_family_reports_positive_zero(self):
        reps = classicality_check(ChannelSpec("A2"), [fock_state(1, 48)], np.zeros(1, dtype=complex))
        assert reps[0].max_deviation == 0.0
        assert math.copysign(1.0, reps[0].max_deviation) == 1.0

    @pytest.mark.parametrize("spec,probe", [
        (ChannelSpec("C2", 1.5), fock_state(1, 24)),
        (ChannelSpec("D", 0.8), coherent_state(0.7, 24)),
        (ChannelSpec("D", 0.8), coherent_state(0.5 + 0.3j, 32)),
    ])
    def test_deviations_equal_the_pointwise_reference(self, spec, probe):
        # the per-point loops these checks ran before the coherent table
        n_cut = probe.dim
        grid = np.random.default_rng(3).uniform(-1.2, 1.2, size=(25, 2)) @ np.array([1.0, 1.0j])
        out = apply(build_discrete(spec, suggest_ell_max(spec, n_cut, 1e-13), n_cut), probe)
        rep = classicality_check(spec, [probe], grid)[0]
        if spec.family == "C2":
            devs = [abs(reference_q_function(out, al) - reference_q_function(probe, al / spec.kappa) / spec.kappa**2)
                    for al in grid]
            assert rep.max_deviation == float(max(devs))
            return
        k = spec.kappa
        weight = lambda al: reference_q_function(probe, np.conj(al) / k) / k**2
        alphas, weights = coherent_disc_grid(1.2 * (np.sqrt(1.0 + k**2) * (np.max(np.abs(grid)) + 4.0)), 48, 48)
        kets = np.array([reference_coherent_amplitudes(al, n_cut) for al in alphas])
        coeffs = np.array([(w / np.pi) * weight(al) for al, w in zip(alphas, weights)])
        rebuilt = (kets.T * coeffs) @ kets.conj()  # the same weighted GEMM, from the per-point references
        assert rep.max_deviation == float(np.max(np.abs(rebuilt / float(np.trace(rebuilt).real) - out.mat)))
        looped = np.zeros((n_cut, n_cut), dtype=np.complex128)
        for ket, c in zip(kets, coeffs):  # the sum in point order; the GEMM orders it otherwise
            looped += c * np.outer(ket, ket.conj())
        assert abs(rep.max_deviation - float(np.max(np.abs(looped / float(np.trace(looped).real) - out.mat)))) <= 1e-15
        assert rep.details["min_weight"] == min(weight(al) for al in grid)


class TestPhotonStatistics:
    def test_attenuator_preserves_poissonian(self):
        # phase-averaged Poissonian input stays Poissonian (rescaled mean)
        lam, k, n_cut = 2.0, 0.7, 64
        fam = build_discrete(ChannelSpec("C1", k), n_cut - 1, n_cut)
        out = apply(fam, phase_averaged_state(lam, n_cut))
        want = phase_averaged_state(lam * k**2, n_cut)
        assert trace_distance(out, want) < 1e-10

    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C2", 1.3)])
    def test_conjugator_and_amplifier_super_poissonian(self, spec):
        n_cut = 64
        fam = family_for(spec, n_cut)
        out = apply(fam, phase_averaged_state(2.0, n_cut))
        n = np.arange(n_cut)
        p = np.diag(out.mat).real
        mean = float(np.sum(n * p))
        var = float(np.sum(n**2 * p)) - mean**2
        assert var / mean > 1.0 + 1e-6  # Fano factor above the Poisson point


class TestSimultaneousDiagonality:
    def test_fock_banded_families(self):
        for spec in (ChannelSpec("D", 0.8), ChannelSpec("C1", 0.6), ChannelSpec("C2", 1.5)):
            fam = build_discrete(spec, 10, 32, defect_limit=2.0)
            assert simultaneous_diagonality(fam) == (True, "fock")

    def test_product_families(self):
        c2 = build_discrete(ChannelSpec("C2", 1.4), 6, 32, defect_limit=2.0)
        c1 = build_discrete(ChannelSpec("C1", 0.7), 6, 32, defect_limit=2.0)
        assert simultaneous_diagonality(product_family(c2, c1, 4)) == (True, "fock")

    def test_position_family(self):
        fam = build_continuous(ChannelSpec("A2"), 64, 32)
        assert simultaneous_diagonality(fam) == (True, "position")

    def test_random_unitary_family(self):
        fam = build_continuous(ChannelSpec("B1", noise_a=0.5), 48, 48)
        assert simultaneous_diagonality(fam) == (True, "any")

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), family=st.sampled_from(["D", "C1", "C2", "A1", "I"]), n_cut=st.integers(4, 64))
    def test_table_diagonals_are_the_dense_products(self, data, family, n_cut):
        kappa = {"D": st.floats(0.3, 3.0), "C1": st.floats(0.1, 0.95), "C2": st.floats(1.05, 3.0)}.get(family)
        spec = ChannelSpec(family, data.draw(kappa)) if kappa is not None else ChannelSpec(family)
        fam = build_discrete(spec, data.draw(st.integers(0, 2 * n_cut)), n_cut, defect_limit=1e300)
        diags = _band_gram_diagonals(fam.coeffs, fam.band)
        ops = fam.operators(len(fam))
        dense = np.einsum("lji,ljk->lik", ops.conj(), ops)
        off_diagonal = ~np.eye(n_cut, dtype=bool)
        assert np.count_nonzero(dense[:, off_diagonal]) == 0
        assert np.array_equal(np.einsum("lii->li", dense), diags)
        dense_family = KrausFamily(spec, ops, fam.index)
        assert simultaneous_diagonality(fam) == reference_simultaneous_diagonality(dense_family)
        assert fam._ops is None

    @pytest.mark.parametrize("kind", ["D", "C1", "C2", "A1", "I", "product", "product-conjugators", "A2",
                                      "B1", "B1-zero-noise", "random"])
    def test_tag_agrees_with_the_reference(self, kind):
        n_cut = 32
        c1 = build_discrete(ChannelSpec("C1", 0.7), 6, n_cut, defect_limit=2.0)
        c2 = build_discrete(ChannelSpec("C2", 1.4), 6, n_cut, defect_limit=2.0)
        d = build_discrete(ChannelSpec("D", 0.8), 6, n_cut, defect_limit=2.0)
        rng = np.random.default_rng(11)
        random_ops = rng.normal(size=(3, n_cut, n_cut)) + 1j * rng.normal(size=(3, n_cut, n_cut))
        fam = {
            "D": lambda: family_for(ChannelSpec("D", 0.8), n_cut),
            "C1": lambda: family_for(ChannelSpec("C1", 0.6), n_cut),
            "C2": lambda: family_for(ChannelSpec("C2", 1.5), n_cut),
            "A1": lambda: build_discrete(ChannelSpec("A1"), n_cut - 1, n_cut),
            "I": lambda: build_discrete(ChannelSpec("I"), 0, n_cut),
            "product": lambda: product_family(c2, c1, 4),
            "product-conjugators": lambda: product_family(d, d, 4),
            "A2": lambda: build_continuous(ChannelSpec("A2"), 64, n_cut),
            "B1": lambda: build_continuous(ChannelSpec("B1", noise_a=0.5), 48, n_cut),
            "B1-zero-noise": lambda: build_continuous(ChannelSpec("B1", noise_a=0.0), 48, n_cut),
            "random": lambda: KrausFamily(None, random_ops, DiscreteIndex(2)),
        }[kind]()
        got = simultaneous_diagonality(fam)
        assert got == reference_simultaneous_diagonality(fam)
        assert got[1] == {"A2": "position", "B1": "any", "B1-zero-noise": "any", "I": "any",
                          "random": "none"}.get(kind, "fock")


def test_thermal_estimate_matches_parameter():
    assert thermal_estimate(thermal_state(3.7, 96)) == pytest.approx(3.7, abs=1e-6)
    assert thermal_estimate(fock_state(2, 16)) == pytest.approx(5.0)


def test_artifacts_equal_the_reference_readers(capsys, tmp_path, monkeypatch):
    """``extremal`` and ``verify-all`` write the same bytes with the former readers patched in."""
    argvs = {"extremal": ["extremal", "--ncut", "64"], "verify-all": ["verify-all", "--ncut", "48"]}
    artifacts = {"extremal": "extremal.json", "verify-all": "verify_all.json"}

    def run_all(root):
        for name, argv in argvs.items():
            assert main(["experiment", *argv, "--output-dir", str(root / name)]) == 0
        capsys.readouterr()
        return {name: (root / name / artifacts[name]).read_bytes() for name in argvs}

    current = run_all(tmp_path / "current")
    monkeypatch.setattr(analysis, "gram_rank", reference_gram_rank)
    monkeypatch.setattr(analysis, "simultaneous_diagonality", reference_simultaneous_diagonality)
    assert run_all(tmp_path / "reference") == current
