"""The package's special functions against ``scipy.special``, which stays a test-only reference.

Each is compared bit for bit on the arguments the package passes, and the
Poisson tail within ``2e-12`` relative where it leaves cephes' power series.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_hermite as scipy_eval_hermite
from scipy.special import gammainc, gammaln
from scipy.special import xlogy as scipy_xlogy

from references import phase_averaged_state

from boskraus import fock, special
from boskraus.errors import InvalidParameter
from boskraus.special import eval_hermite, log_factorial, poisson_tail, xlogy


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


class TestLogFactorial:
    def test_equals_gammaln_up_to_2e5(self):
        k = np.arange(200_001)
        got, want = log_factorial(k), gammaln(k + 1.0)
        assert np.count_nonzero(got.view(np.int64) != want.view(np.int64)) == 0

    def test_scalars_and_shapes(self):
        assert bits(log_factorial(12)) == bits(gammaln(13))
        grid = np.arange(12).reshape(3, 4) * 70
        assert log_factorial(grid).shape == (3, 4) and log_factorial(grid).tobytes() == gammaln(grid + 1.0).tobytes()

    def test_bits_do_not_depend_on_how_the_table_grew(self, monkeypatch):
        k = np.arange(3000)
        monkeypatch.setattr(special, "_log_factorials", np.empty(0))
        at_once = log_factorial(k)
        monkeypatch.setattr(special, "_log_factorials", np.empty(0))
        for top in (0, 5, 13, 999, 1000, 1001, 2999):
            log_factorial(top)
        assert log_factorial(k).tobytes() == at_once.tobytes()

    def test_negative_raises(self):
        with pytest.raises(InvalidParameter):
            log_factorial(np.array([3, -1]))


class TestXlogy:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("y", [0.0, 1.0, 0.3, 2.5, 1e-300, math.inf, math.nan, -1.0])
    def test_equals_scipy_with_zero_x(self, y):
        x = np.array([0.0, 0.5, 1.0, 7.0, -2.0, 0.0])
        assert bits(xlogy(x, y)) == bits(scipy_xlogy(x, y))
        assert bits(xlogy(0, y)) == bits(scipy_xlogy(0, y))
        assert bits(xlogy(3, y)) == bits(scipy_xlogy(3, y))

    def test_random_y(self):
        rng = np.random.default_rng(11)
        x = np.concatenate([[0.0], rng.uniform(0.0, 200.0, 63)])
        for y in rng.uniform(0.0, 1.0, 200):
            assert bits(xlogy(x, y)) == bits(scipy_xlogy(x, y))

    def test_shape_of_the_band_table_powers(self):
        ell, m = 0.5 * np.arange(7)[:, None], np.arange(5)[None, :]
        assert xlogy(ell, 0.0).shape == (7, 1) and xlogy(m, 0.0).shape == (1, 5)


class TestEvalHermite:
    @pytest.mark.filterwarnings("error")
    def test_equals_scipy_up_to_200(self):
        # the grid reaches past the overflow of the highest orders: inf and nan bits match too
        x = np.concatenate([np.linspace(-30.0, 30.0, 601), [0.0, -0.0, math.inf, -math.inf, math.nan]])
        mismatches = sum(np.count_nonzero(eval_hermite(n, x).view(np.int64) != scipy_eval_hermite(n, x).view(np.int64))
                         for n in range(201))
        assert mismatches == 0


class TestPoissonTail:
    def test_series_range_is_bit_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(1380):
            n = int(rng.integers(1, 1001))
            lam = float(rng.uniform(0.0, 0.6 * n))
            assert bits(poisson_tail(lam, n)) == bits(gammainc(n, lam)), (lam, n)

    @pytest.mark.parametrize("lam,n", [(1e-300, 500), (1e-20, 40), (3.0, 1000), (0.59, 1), (7.1, 12)])
    def test_series_edges_are_bit_equal(self, lam, n):
        assert bits(poisson_tail(lam, n)) == bits(gammainc(n, lam))

    @pytest.mark.parametrize("lo,hi", [(0.6, 1.0), (1.0, 1.5), (1.5, 6.0)])
    def test_elsewhere_within_2e_12(self, lo, hi):
        rng = np.random.default_rng(int(10 * hi))
        for _ in range(1000):
            n = int(rng.integers(1, 1001))
            lam = float(rng.uniform(lo * n, hi * n))
            assert poisson_tail(lam, n) == pytest.approx(float(gammainc(n, lam)), rel=2e-12, abs=0.0), (lam, n)

    @pytest.mark.parametrize("n", [0, 1, 12, 13, 500])
    @pytest.mark.parametrize("lam", [0.0, math.inf, math.nan, -1.0, 1e-310, 1e300])
    def test_edge_values_are_scipy_s(self, lam, n):
        got, want = poisson_tail(lam, n), float(gammainc(n, lam))
        assert got == want or (math.isnan(got) and math.isnan(want))


@pytest.mark.parametrize("build", [phase_averaged_state, lambda lam, n: fock.coherent_state(math.sqrt(lam), n)],
                         ids=["phase-averaged", "coherent"])
@pytest.mark.parametrize("lam,n_cut", [(0.0, 0), (math.inf, 0), (math.nan, 0), (math.inf, 5), (math.nan, 5),
                                       (0.0, 5), (-1.0, 5), (50.0, 10), (1e-310, 1), (3.0, 1)])
def test_edge_states_raise_as_with_scipy_s_tail(build, lam, n_cut, monkeypatch):
    def outcome():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                state = build(lam, n_cut)
            return np.asarray(state.diagonal).tobytes(), bits(state.tail_mass)
        except Exception as exc:  # the coherent build of lam = -1 fails in math.sqrt, before the package
            return type(exc), str(exc)

    got = outcome()
    monkeypatch.setattr(fock, "poisson_tail", lambda lam, n: float(gammainc(n, lam)))
    assert got == outcome()
