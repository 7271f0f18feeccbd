"""The general formulas at the ends of the gain range and at the first step of each recurrence.

``scipy.special.xlogy`` takes ``0 log 0`` to 0, so A1 (C1 at kappa = 0) and the identity ends
C1(1) and C2(1) are ordinary points of the C1 and C2 formulas, and the Hermite and Laguerre
recurrences start from a zero seed.  The references below are the hand-written branches and
first steps those formulas replaced, verbatim; every comparison is bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boskraus.channels import ChannelSpec, _log_binom_sqrt, closed_form_action
from boskraus.errors import InvalidParameter
from boskraus.fock import _PI_QUARTER, hermite_psi_table
from boskraus.kraus import _band_table, coherent_disc_grid, rank_one_d, suggest_ell_max

ENDS = [ChannelSpec("A1"), ChannelSpec("C1", 0.0), ChannelSpec("C1", 1.0), ChannelSpec("C2", 1.0)]
END_IDS = ["A1", "C1(0)", "C1(1)", "C2(1)"]


def reference_band_table(spec, ell_max, n_cut):
    """``kraus._band_table`` with its branches at kappa = 0 and 1."""
    fam = spec.family
    if fam == "I":
        return np.ones((1, n_cut)), "upper"
    kappa = 0.0 if fam == "A1" else spec.kappa
    ell = np.arange(ell_max + 1)[:, None]
    m = np.arange(n_cut)[None, :]
    coeffs = np.zeros((ell_max + 1, n_cut))
    if fam == "D":
        ell, n = np.broadcast_arrays(ell, m)
        in_band = n <= ell
        ell, n = ell[in_band], n[in_band]
        coeffs[in_band] = np.exp(
            _log_binom_sqrt(ell, n)
            - 0.5 * (n + 1) * math.log1p(kappa**2)
            - 0.5 * (ell - n) * math.log1p(kappa**-2)
        )
        return coeffs, "anti"
    orientation = "lower" if fam == "C2" else "upper"
    if kappa == 1.0:  # identity channel
        coeffs[0] = 1.0
    elif kappa == 0.0:  # A1 end: B_l = |0><l|
        coeffs[:, 0] = 1.0
    elif fam == "C2":
        coeffs[:] = np.exp(
            -math.log(kappa)
            + _log_binom_sqrt(m + ell, ell)
            + 0.5 * ell * math.log(1.0 - kappa**-2)
            - m * math.log(kappa)
        )
    else:
        coeffs[:] = np.exp(_log_binom_sqrt(m + ell, ell) + 0.5 * ell * math.log(1.0 - kappa**2)
                           + m * math.log(kappa))
    return coeffs, orientation


def reference_closed_form_action(spec, m, n, n_cut):
    """The C1, A1 and C2 branches of ``closed_form_action`` with the gain ends by hand, as a matrix."""
    out = np.zeros((n_cut, n_cut), dtype=np.complex128)
    k = spec.kappa
    if spec.family in ("C1", "A1"):
        kk = 0.0 if spec.family == "A1" else k
        if kk == 0.0:
            if m == n:
                out[0, 0] = 1.0
            return out
        if kk == 1.0:
            out[m, n] = 1.0
            return out
        for ell in range(min(m, n) + 1):
            out[m - ell, n - ell] = math.exp(
                _log_binom_sqrt(m, ell) + _log_binom_sqrt(n, ell)
                + ell * math.log(1.0 - kk**2) + (m + n - 2 * ell) * math.log(kk)
            )
        return out
    if k == 1.0:
        out[m, n] = 1.0
        return out
    for ell in range(n_cut - max(m, n)):
        out[m + ell, n + ell] = math.exp(
            -(2.0 + m + n) * math.log(k)
            + _log_binom_sqrt(m + ell, ell) + _log_binom_sqrt(n + ell, ell)
            + ell * math.log(1.0 - k**-2)
        )
    return out


def reference_hermite_psi_table(n_max, x):
    """``hermite_psi_table`` with its first step ``psi_1 = sqrt(2) x psi_0`` by hand."""
    xs = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + xs.shape)
    out[0] = _PI_QUARTER * np.exp(-0.5 * xs**2)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * xs * out[0]
    for n in range(1, n_max):
        out[n + 1] = np.sqrt(2.0 / (n + 1)) * xs * out[n] - np.sqrt(n / (n + 1)) * out[n - 1]
    return out


def same_table(spec, ell_max, n_cut):
    got, want = _band_table(spec, ell_max, n_cut), reference_band_table(spec, ell_max, n_cut)
    return got[1] == want[1] and got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("ell_max, n_cut", [(0, 2), (7, 16), (95, 96), (300, 64), (511, 512)])
@pytest.mark.parametrize("spec", ENDS, ids=END_IDS)
def test_band_table_at_the_gain_ends(spec, ell_max, n_cut):
    assert same_table(spec, ell_max, n_cut)


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(["C1", "C2"]),
       gain=st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1e-8, 1.0 - 2**-53])),
       ell_max=st.integers(0, 80), n_cut=st.integers(2, 120))
def test_band_table_over_the_gain_range(family, gain, ell_max, n_cut):
    # C1 takes kappa in [0, 1], C2 in [1, 4]
    assert same_table(ChannelSpec(family, gain if family == "C1" else 1.0 + 3.0 * gain), ell_max, n_cut)


@pytest.mark.parametrize("n_cut", [2, 9, 24])
@pytest.mark.parametrize("spec", ENDS + [ChannelSpec("C1", 0.7), ChannelSpec("C2", 1.3)],
                         ids=END_IDS + ["C1(0.7)", "C2(1.3)"])
def test_closed_form_action_at_the_gain_ends(spec, n_cut):
    for m in range(n_cut):
        for n in range(n_cut):
            want = reference_closed_form_action(spec, m, n, n_cut)
            assert closed_form_action(spec, m, n, n_cut).mat.tobytes() == want.tobytes()


def test_identity_amplifier_needs_no_index():
    assert [suggest_ell_max(ChannelSpec("C2", 1.0), n) for n in range(1, 201)] == [0] * 200


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 40])
def test_hermite_table_starts_from_the_zero_seed(n_max):
    points = [0.0, -0.0, 1.3, -2.5, np.linspace(-12.0, 12.0, 49), np.array([[0.5, -0.25], [7.0, 1e-300]])]
    for x in points:
        assert hermite_psi_table(n_max, x).tobytes() == reference_hermite_psi_table(n_max, x).tobytes()


@pytest.mark.parametrize("n_cut", [1, 0, 2.0, True])
def test_rank_one_d_needs_two_levels(n_cut):
    alphas, weights = coherent_disc_grid(4.0, 6, 8)
    with pytest.raises(InvalidParameter, match="n_cut must be an integer of at least 2"):
        rank_one_d(0.8, alphas, weights, n_cut, probe_check=False)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
def test_attenuator_tends_to_its_ends_at_rate_eps(eps):
    # the paper's limits: C1(kappa) -> A1 as kappa -> 0 and -> the identity as kappa -> 1
    ell_max, n_cut = 7, 16

    def table(spec):
        return _band_table(spec, ell_max, n_cut)[0]

    erasure, identity = table(ChannelSpec("A1")), table(ChannelSpec("C1", 1.0))
    assert identity[0].tobytes() == table(ChannelSpec("I"))[0].tobytes() and not identity[1:].any()
    # at kappa = eps the second column, sqrt(l + 1) (1 - eps^2)^(l/2) eps, is the farthest entry
    assert np.max(np.abs(table(ChannelSpec("C1", eps)) - erasure)) <= math.sqrt(ell_max + 1) * eps
    # row l carries (1 - kappa^2)^(l/2), about (2 eps)^(l/2) at kappa = 1 - eps: the weights
    # c^2, which the operator sum reads, approach the identity's as O(eps), the entries as O(sqrt(eps))
    near = table(ChannelSpec("C1", 1.0 - eps))
    assert np.max(np.abs(near**2 - identity**2)) <= 2 * n_cut * eps
    assert np.max(np.abs(near - identity)) > math.sqrt(eps)
