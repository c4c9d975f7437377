"""The radiation ratio H_n'(z)/H_n(z) of dtn.hankel_ratio against scipy."""
import numpy as np
import pytest
from scipy.special import h1vp, hankel1

from helmray.dtn import hankel_ratio

Z_GRID = [0.3, 0.5, 1.0, 2.0, 5.0, 8.0, 11.5, 12.5, 20.0, 50.0, 100.0, 200.0]


@pytest.mark.parametrize("z", Z_GRID)
def test_hankel_ratio_against_scipy(z):
    for n in list(range(0, 20)) + [int(z) + 5, int(2 * z + 60)]:
        mine = hankel_ratio(n, z)
        with np.errstate(all="ignore"):
            ref = h1vp(n, z) / hankel1(n, z)
        if np.isfinite(ref):
            assert abs(mine - ref) <= 1e-10 * abs(ref), (n, z)


def test_ratio_even_in_order():
    for n in (1, 3, 8):
        assert hankel_ratio(-n, 3.3) == hankel_ratio(n, 3.3)


def test_ratio_rejects_nonpositive_argument():
    for z in (0.0, -1.0):
        with pytest.raises(ValueError):
            hankel_ratio(3, z)


def test_ratio_large_argument_asymptote():
    # H_0'/H_0 -> i - 1/(2z) + O(z^-2)
    z = 1e4
    assert abs(hankel_ratio(0, z) - (1j - 1.0 / (2.0 * z))) <= 1e-6


def test_ratio_far_evanescent_order_is_finite():
    # n = 10,000 at z = 1: H_n overflows, the ratio tends to -n/z
    r = hankel_ratio(10_000, 1.0)
    assert np.isfinite(r)
    assert abs(r - (-10_000.0)) <= 1e-6 * 10_000.0


def test_ratio_deep_evanescent_crosscheck():
    # regime where scipy's Hankel overflows: leading behavior is -n/z
    r = hankel_ratio(900, 2.0)
    assert r.imag == pytest.approx(0.0, abs=1e-12)
    assert r.real == pytest.approx(-450.0, rel=1e-2)
