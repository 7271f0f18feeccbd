"""Metaplectic generating-integral oracle against the closed forms."""

import math

import numpy as np
import pytest

from references import UnsupportedShape, position_kraus

from boskraus.channels import ChannelSpec
from boskraus.errors import InvalidParameter, OrderTooLarge
from boskraus.fock import displacement_op, fock_state, thermal_state, trace_distance
from boskraus.kraus import apply, build_continuous, build_discrete, completeness_defect, raw_completeness_defect
from boskraus.scheme import (
    MAX_ORDER,
    MixMatrix,
    generating_form,
    kraus_from_scheme,
    matrix_element,
    mix_matrix,
)


def conjugator_element(k, m1, m2, n1, n2):
    """Double-sum closed form for the hyperbolic mixer's matrix elements."""
    total = 0.0
    for j in range(n1 + 1):
        for r in range(m1 + 1):
            if n2 != r + j or m2 != n1 - j + m1 - r:
                continue
            p = m1 + j - r
            term = (
                math.comb(n1, j) * math.comb(m1, r)
                * (-1.0) ** p * (1 + k**-2) ** (-p / 2)
                * (1 + k**2) ** (-(n1 - j + r) / 2)
                * (-1.0) ** (m1 - r)
                * math.factorial(n2) * math.factorial(m2)
            )
            total += term
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2) * math.factorial(m1) * math.factorial(m2))
    return (1 + k**2) ** -0.5 * total / norm


def rotation_element(k, m1, m2, n1, n2):
    """Double-sum closed form for the beamsplitter mixer's matrix elements."""
    s = math.sqrt(1 - k**2)
    total = 0.0
    for r in range(n1 + 1):
        for j in range(n2 + 1):
            if m2 != r + j or m1 != n1 + n2 - r - j:
                continue
            total += (
                math.comb(n1, r) * math.comb(n2, j)
                * (-1.0) ** (n2 - j) * k ** (n1 - r + j) * s ** (r + n2 - j)
                * math.factorial(m1) * math.factorial(m2)
            )
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2) * math.factorial(m1) * math.factorial(m2))
    return total / norm


def squeezer_element(k, m1, m2, n1, n2):
    """Double-sum closed form for the two-mode squeezer's matrix elements."""
    s = math.sqrt(1 - k**-2)
    total = 0.0
    for r in range(n2 + 1):
        for j in range(m1 + 1):
            if n1 != r + j or m2 != n2 + m1 - r - j:
                continue
            total += (
                math.comb(n2, r) * math.comb(m1, j)
                * (-1.0) ** r * s ** (r + m1 - j) * k ** (-(n2 + j - r))
            )
    norm = math.sqrt(math.factorial(n1) * math.factorial(n2) * math.factorial(m1) * math.factorial(m2))
    return k**-1 * math.factorial(n1) * math.factorial(m2) * total / norm


def reference_taylor_slice(form, n1_max, ell_max, m1_max):
    """Per-cell recurrence on the ancilla-vacuum slice: the reference the
    slab kernel must reproduce bit for bit.

    Returns ``t[n1, m1, m2] = sqrt(n1! m1! m2!) * taylor(F/prefactor)``.
    """
    for order in (n1_max, ell_max, m1_max):
        if order > MAX_ORDER:
            raise OrderTooLarge(f"order {order} exceeds the stable limit {MAX_ORDER}")
    q = form.q
    # v index order: 0=z1, 1=z2, 2=eta1, 3=eta2; slice axis layout (z1, eta1, eta2)
    axis_of = {0: 0, 2: 1, 3: 2}
    t = np.zeros((n1_max + 1, m1_max + 1, ell_max + 1))
    t[0, 0, 0] = 1.0
    for total in range(1, n1_max + m1_max + ell_max + 1):
        for k0 in range(min(total, n1_max) + 1):
            rem = total - k0
            for k2 in range(min(rem, m1_max) + 1):
                k3 = rem - k2
                if k3 > ell_max:
                    continue
                k = (k0, k2, k3)
                # increment the first nonzero axis: k = m + e_i
                i_axis = next(ax for ax in range(3) if k[ax] > 0)
                i = (0, 2, 3)[i_axis]
                m_idx = list(k)
                m_idx[i_axis] -= 1
                acc = 0.0
                for j in (0, 2, 3):
                    j_axis = axis_of[j]
                    if m_idx[j_axis] == 0:
                        continue
                    lower = list(m_idx)
                    lower[j_axis] -= 1
                    acc += q[i, j] * np.sqrt(m_idx[j_axis]) * t[tuple(lower)]
                t[tuple(k)] = acc / np.sqrt(k[i_axis])
    return t


def reference_matrix_element(form, m1, m2, n1, n2):
    """Per-cell recurrence over the whole 4-D box: the reference for
    ``matrix_element``."""
    for order in (m1, m2, n1, n2):
        if order < 0:
            raise InvalidParameter("orders must be nonnegative")
        if order > MAX_ORDER:
            raise OrderTooLarge(f"order {order} exceeds the stable limit {MAX_ORDER}")
    if (n1 + 1) * (n2 + 1) * (m1 + 1) * (m2 + 1) > 20_000_000:
        raise OrderTooLarge("joint orders need an infeasibly large coefficient box")
    q = form.q
    size = (n1 + 1, n2 + 1, m1 + 1, m2 + 1)
    t = np.zeros(size)
    t[0, 0, 0, 0] = 1.0
    target = (n1, n2, m1, m2)
    for total in range(1, sum(target) + 1):
        for k0 in range(min(total, n1) + 1):
            for k1 in range(min(total - k0, n2) + 1):
                for k2 in range(min(total - k0 - k1, m1) + 1):
                    k3 = total - k0 - k1 - k2
                    if k3 > m2:
                        continue
                    k = (k0, k1, k2, k3)
                    i = next(ax for ax in range(4) if k[ax] > 0)
                    m_idx = list(k)
                    m_idx[i] -= 1
                    acc = 0.0
                    for j in range(4):
                        if m_idx[j] == 0:
                            continue
                        lower = list(m_idx)
                        lower[j] -= 1
                        acc += q[i, j] * np.sqrt(m_idx[j]) * t[tuple(lower)]
                    t[k] = acc / np.sqrt(k[i])
    return float(form.prefactor * t[target])


def reference_scheme_kraus(mix, ell_max, n_cut):
    """``(ops, defect)`` of ``kraus_from_scheme`` built on the reference slice."""
    form = generating_form(mix)
    n_rows = min(n_cut + ell_max, MAX_ORDER + 1)
    t = reference_taylor_slice(form, n_cut - 1, ell_max, n_rows - 1)
    full = form.prefactor * np.transpose(t, (2, 1, 0)).astype(np.complex128)
    return np.ascontiguousarray(full[:, :n_cut, :]), raw_completeness_defect(full)


# (spec, grid of (m1, m2, n1, n2) extents) from the double-sum tests below
MATRIX_ELEMENT_GRIDS = [
    (ChannelSpec("D", 0.5), (5, 5, 5, 3)), (ChannelSpec("D", 0.8), (5, 5, 5, 3)),
    (ChannelSpec("D", 1.6), (5, 5, 5, 3)),
    (ChannelSpec("C1", 0.4), (7, 4, 7, 4)), (ChannelSpec("C1", 0.9), (7, 4, 7, 4)),
    (ChannelSpec("C2", 1.2), (6, 6, 4, 4)), (ChannelSpec("C2", 1.9), (6, 6, 4, 4)),
]


class TestSlabKernel:
    """The slab recurrence reproduces the per-cell recurrence exactly."""

    @pytest.mark.parametrize("spec", [
        ChannelSpec("D", 0.8), ChannelSpec("D", 1.3), ChannelSpec("C1", 0.7),
        ChannelSpec("C2", 1.3), ChannelSpec("I"),
    ])
    def test_scheme_kraus_bit_identical(self, spec):
        mix = mix_matrix(spec)
        ops, defect = reference_scheme_kraus(mix, 30, 48)
        sch = kraus_from_scheme(mix, 30, 48)
        assert np.array_equal(sch.ops, ops)
        assert sch.completeness_defect == defect

    @pytest.mark.parametrize("spec,grid", MATRIX_ELEMENT_GRIDS)
    def test_matrix_element_bit_identical(self, spec, grid):
        form = generating_form(mix_matrix(spec))
        for orders in np.ndindex(*grid):
            assert matrix_element(form, *orders) == reference_matrix_element(form, *orders), orders

    @pytest.mark.parametrize("spec", [ChannelSpec("D", 0.8), ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)])
    @pytest.mark.parametrize("n_cut,ell_max", [(110, 10), (64, 56)])
    def test_near_max_order_matches_closed_form(self, spec, n_cut, ell_max):
        # the Taylor box reaches row order 119 and MAX_ORDER = 120
        sch = kraus_from_scheme(mix_matrix(spec), ell_max, n_cut)
        ref = build_discrete(spec, ell_max, n_cut, defect_limit=2.0)
        assert np.max(np.abs(sch.ops - ref.ops)) < 1e-12

    @pytest.mark.parametrize("ell_max,n_cut", [(-1, 16), (3, 0), (-2, -1)])
    def test_invalid_sizes_rejected(self, ell_max, n_cut):
        with pytest.raises(InvalidParameter):
            kraus_from_scheme(mix_matrix(ChannelSpec("C1", 0.5)), ell_max, n_cut)

    def test_orders_above_limit_rejected(self):
        with pytest.raises(OrderTooLarge):
            kraus_from_scheme(mix_matrix(ChannelSpec("C1", 0.5)), MAX_ORDER + 1, 16)
        with pytest.raises(OrderTooLarge):
            kraus_from_scheme(mix_matrix(ChannelSpec("C1", 0.5)), 4, MAX_ORDER + 2)

    def test_negative_matrix_element_order_rejected(self):
        form = generating_form(mix_matrix(ChannelSpec("C1", 0.5)))
        with pytest.raises(InvalidParameter):
            matrix_element(form, 0, -1, 0, 0)


class TestGeneratingForm:
    def test_prefactors(self):
        assert generating_form(mix_matrix(ChannelSpec("D", 0.8))).prefactor == pytest.approx((1 + 0.64) ** -0.5)
        assert generating_form(mix_matrix(ChannelSpec("C1", 0.7))).prefactor == pytest.approx(1.0)
        assert generating_form(mix_matrix(ChannelSpec("C2", 1.4))).prefactor == pytest.approx(1 / 1.4)

    def test_conjugator_quadratic_form(self):
        # exponent carries only eta1*eta2, z1*z2 and the cross pairings
        k = 0.9
        q = generating_form(mix_matrix(ChannelSpec("D", k))).q
        c_hyp = (1 + k**-2) ** -0.5
        c_gain = (1 + k**2) ** -0.5
        # v ordering: (z1, z2, eta1, eta2)
        assert q[2, 3] == pytest.approx(c_hyp)
        assert q[0, 1] == pytest.approx(-c_hyp)
        assert q[2, 1] == pytest.approx(c_gain)
        assert q[3, 0] == pytest.approx(c_gain)
        assert np.max(np.abs(np.diag(q))) < 1e-14
        assert abs(q[2, 0]) < 1e-14 and abs(q[3, 1]) < 1e-14

    def test_rotation_quadratic_form(self):
        k = 0.6
        s = math.sqrt(1 - k**2)
        q = generating_form(mix_matrix(ChannelSpec("C1", k))).q
        assert q[3, 0] == pytest.approx(s)
        assert q[3, 1] == pytest.approx(k)
        assert q[2, 0] == pytest.approx(k)
        assert q[2, 1] == pytest.approx(-s)
        assert abs(q[2, 3]) < 1e-14 and abs(q[0, 1]) < 1e-14

    def test_squeezer_quadratic_form(self):
        k = 1.3
        s = math.sqrt(1 - k**-2)
        q = generating_form(mix_matrix(ChannelSpec("C2", k))).q
        assert q[2, 0] == pytest.approx(1 / k)
        assert q[3, 1] == pytest.approx(1 / k)
        assert q[2, 3] == pytest.approx(s)
        assert q[0, 1] == pytest.approx(-s)

    def test_quadrature_self_check_runs(self):
        # the random-point comparison is part of every build
        generating_form(MixMatrix(np.array([[0.3, 1.1], [-0.9, 0.4]])))


class TestMatrixElements:
    def test_value_at_zero_orders(self):
        form = generating_form(mix_matrix(ChannelSpec("C2", 1.5)))
        assert matrix_element(form, 0, 0, 0, 0) == pytest.approx(form.prefactor)

    @pytest.mark.parametrize("k", [0.5, 0.8, 1.6])
    def test_conjugator_against_double_sum(self, k):
        form = generating_form(mix_matrix(ChannelSpec("D", k)))
        worst = 0.0
        for m1 in range(5):
            for m2 in range(5):
                for n1 in range(5):
                    for n2 in range(3):
                        got = matrix_element(form, m1, m2, n1, n2)
                        want = conjugator_element(k, m1, m2, n1, n2)
                        worst = max(worst, abs(got - want))
        assert worst < 1e-12

    @pytest.mark.parametrize("k", [0.4, 0.9])
    def test_rotation_against_double_sum(self, k):
        form = generating_form(mix_matrix(ChannelSpec("C1", k)))
        worst = 0.0
        for m1 in range(7):
            for m2 in range(4):
                for n1 in range(7):
                    for n2 in range(4):
                        got = matrix_element(form, m1, m2, n1, n2)
                        want = rotation_element(k, m1, m2, n1, n2)
                        worst = max(worst, abs(got - want))
        assert worst < 1e-12

    @pytest.mark.parametrize("k", [1.2, 1.9])
    def test_squeezer_against_double_sum(self, k):
        form = generating_form(mix_matrix(ChannelSpec("C2", k)))
        worst = 0.0
        for m1 in range(6):
            for m2 in range(6):
                for n1 in range(4):
                    for n2 in range(4):
                        got = matrix_element(form, m1, m2, n1, n2)
                        want = squeezer_element(k, m1, m2, n1, n2)
                        worst = max(worst, abs(got - want))
        assert worst < 1e-12

    def test_selection_rules(self):
        # the conjugator couples only m2 = n1 + m1 - n2 sectors
        form = generating_form(mix_matrix(ChannelSpec("D", 1.1)))
        assert matrix_element(form, 2, 1, 1, 0) == pytest.approx(0.0, abs=1e-15)
        assert matrix_element(form, 1, 0, 0, 2) == pytest.approx(0.0, abs=1e-15)

    def test_order_guard(self):
        form = generating_form(mix_matrix(ChannelSpec("C1", 0.5)))
        with pytest.raises(OrderTooLarge):
            matrix_element(form, 121, 0, 0, 0)


class TestSchemeKraus:
    @pytest.mark.parametrize("spec", [
        ChannelSpec("D", 0.6), ChannelSpec("D", 0.9), ChannelSpec("D", 1.3),
        ChannelSpec("C1", 0.4), ChannelSpec("C1", 0.7), ChannelSpec("C1", 0.9),
        ChannelSpec("C2", 1.2), ChannelSpec("C2", 1.5), ChannelSpec("C2", 1.8),
    ])
    def test_matches_closed_form(self, spec):
        sch = kraus_from_scheme(mix_matrix(spec), 10, 21)
        ref = build_discrete(spec, 10, 21, defect_limit=2.0)
        assert np.max(np.abs(sch.ops - ref.ops)) < 1e-10
        assert sch.origin == "scheme"

    def test_identity_mixer(self):
        sch = kraus_from_scheme(mix_matrix(ChannelSpec("I")), 3, 12)
        np.testing.assert_allclose(sch.ops[0], np.eye(12), atol=1e-14)
        assert np.max(np.abs(sch.ops[1:])) < 1e-14

    def test_completeness_from_scheme_alone(self):
        # tracing a vacuum ancilla yields a channel: the scheme's own
        # operators sum to the identity on the protected block
        from boskraus.kraus import suggest_ell_max

        for spec in (ChannelSpec("D", 0.7), ChannelSpec("C2", 1.3)):
            ell = suggest_ell_max(spec, 16, 1e-9)
            sch = kraus_from_scheme(mix_matrix(spec), ell, 16)
            assert sch.completeness_defect < 1e-6
        sch = kraus_from_scheme(mix_matrix(ChannelSpec("C1", 0.8)), 15, 16)
        assert sch.completeness_defect < 1e-10

    def test_public_defect_is_the_build_defect(self):
        # the square ops lose the band weight of the discarded extra rows, so
        # their own sum W^dag W is off by ~0.08: the build defect is the answer
        sch = kraus_from_scheme(mix_matrix(ChannelSpec("C2", 1.3)), 92, 48)
        assert sch.completeness_defect < 1e-13
        assert completeness_defect(sch) == sch.completeness_defect
        with pytest.raises(InvalidParameter, match="gone"):
            completeness_defect(sch, 8)


class TestPositionKraus:
    def test_a2_matches_direct_construction(self):
        direct = build_continuous(ChannelSpec("A2"), 48, 24)
        sch = position_kraus(mix_matrix(ChannelSpec("A2")), 48, 24)
        assert np.max(np.abs(direct.ops - sch.ops)) < 1e-12

    def test_b1_recovers_weighted_displacements(self):
        # the unit-shear mixer reproduces the Gaussian-weighted displacement
        # family at unit noise, node by node
        sch = position_kraus(mix_matrix(ChannelSpec("B1", noise_a=1.0)), 48, 24)
        direct = build_continuous(ChannelSpec("B1", noise_a=1.0), 48, 24)
        assert np.max(np.abs(sch.ops - direct.ops)) < 1e-12

    def test_b1_single_node_value(self):
        # Z_q = pi^(-1/4) exp(-q^2/2) D(q/sqrt2), checked at one node
        sch = position_kraus(mix_matrix(ChannelSpec("B1", noise_a=1.0)), 48, 20)
        i = 10
        q = sch.index.nodes[i]
        w = sch.index.weights[i]
        want = np.sqrt(w) * np.pi**-0.25 * np.exp(-q**2 / 2) * displacement_op(q / np.sqrt(2), 20).mat
        assert np.max(np.abs(sch.ops[i] - want)) < 1e-12

    def test_probe_states_agree(self):
        n_cut = 32
        direct = build_continuous(ChannelSpec("A2"), 64, n_cut)
        sch = position_kraus(mix_matrix(ChannelSpec("A2")), 64, n_cut)
        for probe in (fock_state(0, n_cut), thermal_state(2.0, n_cut)):
            assert trace_distance(apply(direct, probe), apply(sch, probe)) < 1e-8

    def test_unsupported_shape(self):
        with pytest.raises(UnsupportedShape):
            position_kraus(MixMatrix(np.array([[1.0, 0.5], [0.0, 1.0]])), 48, 16)
