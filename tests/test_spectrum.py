import math

import numpy as np
import pytest

from resonance import spectrum as sp


def test_eigenvalue_closed_forms():
    assert sp.eigenvalue(1, math.pi) == pytest.approx(1.0, abs=1e-15)
    assert sp.eigenvalue(2, 2 * math.pi) == pytest.approx(1.0, abs=1e-15)
    assert sp.eigenvalue(3, 2 * math.pi) == pytest.approx(2.25, abs=1e-15)


def test_eigenvalue_monotone_and_period_scaling():
    for T in (1.0, 2 * math.pi, 17.3):
        vals = [sp.eigenvalue(j, T) for j in range(1, 9)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert sp.eigenvalue(3, 2 * T) == pytest.approx(sp.eigenvalue(3, T) / 4)


def test_curve_passes_through_equal_double_eigenvalue():
    # substituting sqrt(mu) = 2 j pi / T into the curve equation gives
    # (pi/T) * 2 * (T / (2 j pi)) = 1/j exactly
    for T in (2 * math.pi, 5.0):
        for j in range(1, 7):
            mu = sp.eigenvalue(2 * j, T)
            r = sp.curve_residual(sp.SpectrumPoint(mu, mu, T), j)
            assert abs(r) < 1e-12


def test_semi_axes_curve():
    assert sp.curve_residual(sp.SpectrumPoint(5.0, 0.0, 2 * math.pi), 0) == 0.0
    assert sp.curve_residual(sp.SpectrumPoint(5.0, 1.0, 2 * math.pi), 0) == 5.0


def test_residual_positive_near_vertical_asymptote():
    T = 2 * math.pi
    mu1 = sp.eigenvalue(1, T)
    r = sp.curve_residual(sp.SpectrumPoint(mu1, 1e8, T), 1)
    assert 0 < r < 1e-3


def test_residual_symmetric_in_mu_nu():
    rng = np.random.default_rng(3)
    for _ in range(100):
        mu, nu = rng.uniform(0.1, 50, 2)
        T = rng.uniform(0.5, 20)
        j = int(rng.integers(1, 6))
        a = sp.curve_residual(sp.SpectrumPoint(mu, nu, T), j)
        b = sp.curve_residual(sp.SpectrumPoint(nu, mu, T), j)
        assert a == pytest.approx(b, rel=1e-14)


def test_residual_strictly_decreasing_in_mu():
    T = 3.7
    mus = np.geomspace(0.01, 1e4, 60)
    vals = [sp.curve_residual(sp.SpectrumPoint(m, 2.0, T), 2) for m in mus]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def _bisect_residual_root(nu, j, T):
    mu_j = sp.eigenvalue(j, T)
    lo, hi = mu_j, 4.0 * mu_j
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if sp.curve_residual(sp.SpectrumPoint(mid, nu, T), j) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_asymptote_recovery_at_large_nu():
    # the root of the residual in mu tends to the vertical asymptote;
    # relative error ~ 2*pi*j/(T*sqrt(nu)) so T is sized accordingly
    for j, T in ((1, 100.0), (2, 300.0)):
        mu_root = _bisect_residual_root(1e10, j, T)
        mu_j = sp.eigenvalue(j, T)
        assert abs(mu_root - mu_j) / mu_j < 1e-6


def test_sample_curve_points_lie_on_curve():
    T = 2 * math.pi
    for j in (1, 3):
        for mu, nu in sp.sample_curve(j, T, n=50):
            r = sp.curve_residual(sp.SpectrumPoint(mu, nu, T), j)
            assert abs(r) < 1e-10
