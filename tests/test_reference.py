"""Quadrature against 30-digit ``mpmath`` integrals.

The other quadrature tests compare with scipy's double-precision ``quad``,
which cannot tell an error of 1e-15 from one of 1e-12.  Here each reference
is an ``mpmath.quad`` at 30 significant digits, broken at the points where
the integrand changes scale or has a kink, so the tests bound the error that
the program really makes.  The bounds are the measured errors with a margin
of about two.
"""

import functools
import itertools

import mpmath as mp
import numpy as np
import pytest

import varalloc.oracle as oracle
from varalloc.oracle import (
    CovarianceSpec,
    EstimatorConfig,
    GaussianVector,
    expected_max_batch,
    expected_max_independent,
    psd_factor,
)

DPS = 30
# Gauss-Legendre at rising degree until two degrees agree: on these smooth
# pieces it reached 30 digits in about a third of tanh-sinh's time.
METHOD = "gauss-legendre"


@pytest.fixture(autouse=True)
def _precision():
    with mp.workdps(DPS):
        yield


def _mp_expected_max(means, stddevs):
    """E max_i X_i for independent X_i ~ N(means_i, stddevs_i^2), as an mpf.

    c + integral_c^u (1 - prod_i Phi((t - mu_i) / s_i)) dt on [c, u], with c
    and u 40 deviations below and above the highest lower and upper tails: at
    30 digits the neglected tails are zero.  Point masses are a floor.
    """
    live = [(mp.mpf(float(m)), mp.mpf(float(s))) for m, s in zip(means, stddevs) if s > 0]
    floor = max((mp.mpf(float(m)) for m, s in zip(means, stddevs) if s == 0), default=-mp.inf)
    lo = max([m - 40 * s for m, s in live] + [floor])
    hi = max(m + 40 * s for m, s in live)
    if floor >= hi:
        return floor
    points = {lo, hi}
    for m, s in live:
        points.update(p for k in (-40, -12, -6, -3, 0, 3, 6, 12, 40) if lo < (p := m + k * s) < hi)

    def survival(t):
        f = mp.mpf(1)
        for m, s in live:
            f *= mp.ncdf((t - m) / s)
        return 1 - f

    value, err = mp.quad(survival, sorted(points), error=True, method=METHOD)
    assert err < mp.mpf(10) ** (5 - DPS)
    return lo + value


def _mp_uniform(n, sigma):
    """E max of n iid N(0, sigma^2) as an mpf: one CDF power per node."""
    s = mp.mpf(float(sigma))
    cdf = lambda t: mp.ncdf(t / s) ** n  # noqa: E731
    below = mp.quad(cdf, [-mp.inf, *(s * k for k in (-10, -6, -4, -2, -1, 0))], method=METHOD)
    above = mp.quad(lambda t: 1 - cdf(t), [s * k for k in (0, 1, 2, 4, 6, 10, 40)], method=METHOD)
    return above - below


def _random_rows():
    """Rows of width 3-8: deviations spread over 1e-8..1, exact ties, and point masses."""
    rng = np.random.default_rng(41)
    rows = []
    for r in range(12):
        width = int(rng.integers(3, 9))
        sigs = rng.uniform(0.0, 1.0, width) * 10.0 ** rng.uniform(-8, 0, width)
        means = rng.normal(0.0, 0.3, width)
        if r % 3 == 1:
            sigs[1:] = sigs[0]  # equal deviations
            means[1::2] = means[0]  # and some equal columns
        if r % 4 == 2:
            sigs[-1] = 0.0  # a point mass, a floor inside the integral
        rows.append((means, sigs))
    return rows


@functools.cache
def _random_references():
    with mp.workdps(DPS):
        return [_mp_expected_max(m, s) for m, s in _random_rows()]


def _rel_error(value, ref):
    return float(abs(mp.mpf(float(value)) - ref) / abs(ref))


class TestIndependent:
    def test_subdiv_1_on_random_rows(self):
        # Measured: at most 2.9e-16 relative (12 rows).
        errors = [_rel_error(expected_max_batch(m, s)[0], ref)
                  for (m, s), ref in zip(_random_rows(), _random_references())]
        assert max(errors) <= 1e-15

    def test_values_closed_by_the_companion_on_random_rows(self):
        # Every row closes on the first level, with the bits of subdiv 1.
        cfg = EstimatorConfig(method="quadrature")
        errors = []
        for (m, s), ref in zip(_random_rows(), _random_references()):
            value = expected_max_independent(GaussianVector(m, s), cfg).value
            assert value == expected_max_batch(m, s)[0]
            errors.append(_rel_error(value, ref))
        assert max(errors) <= 1e-15

    # Width n with deviation 1/sqrt(n) against about twice the measured
    # relative error of the value ``expected_max_independent`` reports
    # (1.1e-15, 7.8e-16, 3.0e-15, 2.8e-14, 7.6e-13, 2.9e-15).  Equal
    # deviations put every knot of the row on the same 15 panels, so the
    # subdiv-1 error grows with n: 2.8e-14 at 128 and 7.6e-13 at 256, far
    # inside the absolute tolerance of 1e-9.  At 512 subdiv 1 is off by
    # 1.9e-11, and the companion, 5.3e-10 away, sends the row on to subdiv 2.
    UNIFORM = {3: 3e-15, 16: 2e-15, 64: 6e-15, 128: 6e-14, 256: 1.5e-12, 512: 6e-15}

    @pytest.mark.parametrize("n", sorted(UNIFORM))
    def test_uniform_rows(self, n):
        sigma = n**-0.5
        value = expected_max_independent(GaussianVector([0.0] * n, [sigma] * n),
                                         EstimatorConfig()).value
        ref = _mp_uniform(n, sigma)
        assert _rel_error(value, ref) <= self.UNIFORM[n]
        # Absolute error far inside the tolerance, whichever level closed the row.
        assert float(abs(mp.mpf(value) - ref)) <= 1e-12


def _mp_envelope(c, b):
    """E max_i (c_i + b_i Z), Z ~ N(0, 1), for mpf intercepts and slopes: line i
    is on top over [lo_i, hi_i], found by its crossings with every other line."""
    total = mp.mpf(0)
    for i in range(len(c)):
        lo, hi = -mp.inf, mp.inf
        for k in range(len(c)):
            if k == i:
                continue
            if b[k] == b[i]:
                if c[k] > c[i] or (c[k] == c[i] and k < i):
                    lo, hi = mp.inf, -mp.inf  # never on top
                continue
            x = (c[k] - c[i]) / (b[i] - b[k])  # where lines i and k cross
            if b[k] < b[i]:
                lo = max(lo, x)
            else:
                hi = min(hi, x)
        if lo < hi:
            total += c[i] * (mp.ncdf(hi) - mp.ncdf(lo)) + b[i] * (mp.npdf(lo) - mp.npdf(hi))
    return total


def _mp_rank2(mu, a, b):
    """E max_i (mu_i + a_i T + b_i Z) for independent standard T and Z, as an mpf.

    The inner expectation over Z is ``_mp_envelope``; the outer integral over T
    is broken where two lines of equal slope in Z cross and where three lines
    meet in one point, the only places the inner value can have a kink.  Two
    lines of different slopes cross at a Z that moves with T; the inner value
    changes fastest where that Z passes 0, so the integral is also broken at
    that T and at 2, 4 and 8 times the T-scale of the passage on either side.
    """
    mu, a, b = ([mp.mpf(float(x)) for x in v] for v in (mu, a, b))
    points = {mp.mpf(-12), mp.mpf(0), mp.mpf(12)}
    for i, k in itertools.combinations(range(len(mu)), 2):
        if a[i] == a[k]:
            continue
        t = (mu[k] - mu[i]) / (a[i] - a[k])  # intercepts mu + a T equal
        scale = abs((b[i] - b[k]) / (a[i] - a[k]))
        points.update(t + scale * j for j in (-8, -4, -2, 0, 2, 4, 8))
    for p, q, r in itertools.combinations(range(len(mu)), 3):
        def det(c):
            return (b[q] - b[p]) * (c[r] - c[p]) - (b[r] - b[p]) * (c[q] - c[p])

        if det(a) != 0:
            points.add(-det(mu) / det(a))
    points = sorted(t for t in points if abs(t) <= 12)
    value, err = mp.quad(
        lambda t: mp.npdf(t) * _mp_envelope([m + x * t for m, x in zip(mu, a)], b),
        [-mp.inf, *points, mp.inf], error=True, method=METHOD)
    assert err < mp.mpf(10) ** (5 - DPS)
    return value


class TestRank2:
    # A rank-2 factor: five loaded rows and one constant.
    L = np.array([[0.3, 0.1], [-0.2, 0.25], [0.1, -0.3], [0.0, 0.0], [0.2, 0.2], [0.35, -0.05]])
    MEANS = np.array([0.1, 0.3, 0.0, 0.25, 0.05, -0.1])

    @pytest.mark.parametrize("sets", [
        [(0, 1, 2), (1, 4)],
        [(0, 1, 2, 3), (2, 4, 5), (0, 5)],
    ])
    def test_exact_set_maxima(self, sets):
        # Measured: at most 1e-16 relative per total.
        c = CovarianceSpec(self.MEANS, self.L @ self.L.T)
        factor = psd_factor(c.matrix)
        assert factor.shape[1] == 2
        est, failed = oracle._exact_set_maxima(c, factor, sets, EstimatorConfig().quadrature_tolerance)
        assert failed == {} and est.half_width == 0.0
        ref = mp.fsum(_mp_rank2(self.MEANS[list(s)], *self.L[list(s)].T) for s in sets)
        assert _rel_error(est.value, ref) <= 1e-15
