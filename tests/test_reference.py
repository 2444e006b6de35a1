"""Quadrature and closed forms against 30-digit ``mpmath`` integrals.

The other quadrature tests compare with scipy's double-precision ``quad``,
which cannot tell an error of 1e-15 from one of 1e-12.  Here each reference
is an ``mpmath.quad`` at 30 significant digits, broken at the points where
the integrand changes scale or has a kink, so the tests bound the error that
the program really makes.  The bounds are the measured errors with a margin
of about two.
"""

import functools
import itertools
import math

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
    mu, a, b = ([mp.mpf(x) for x in v] for v in (mu, a, b))  # floats exactly, or mpf
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
        # Measured: at most 1e-16 relative per set.
        c = CovarianceSpec(self.MEANS, self.L @ self.L.T)
        factor = psd_factor(c.matrix)
        assert factor.shape[1] == 2
        values, failed = oracle._exact_set_maxima(c, factor, sets,
                                                  EstimatorConfig().quadrature_tolerance)
        assert failed == {}
        for value, s in zip(values, sets):
            assert _rel_error(value, _mp_rank2(self.MEANS[list(s)], *self.L[list(s)].T)) <= 1e-15


def _mp_three_lines(means, cov):
    """E max_i X_i over at most three jointly Gaussian lines, as an mpf.

    The affine reduction: E max_i X_i = E max_i (mu_i + D_i z), where D_0 = 0
    and D_1, D_2 are the rows of the Cholesky factor of the Gram matrix G of
    X_i - X_0, taken at 30 digits from the float inputs.  Its second column,
    the smaller, is the outer coordinate of ``_mp_rank2``; two lines are
    ``_mp_envelope``'s.  Line order does not change the value.
    """
    mu = [mp.mpf(float(x)) for x in means]
    S = [[mp.mpf(float(x)) for x in row] for row in cov]
    G = [[S[i][k] - S[i][0] - S[0][k] + S[0][0] for k in range(1, len(mu))]
         for i in range(1, len(mu))]
    if len(mu) == 1 or not any(G[i][i] for i in range(len(G))):
        return max(mu)
    if G[0][0] == 0:  # line 1 is line 0 moved: factor the other first
        mu, G = [mu[0], mu[2], mu[1]], [row[::-1] for row in G[::-1]]
    root = mp.sqrt(G[0][0])
    if len(mu) == 2:
        return _mp_envelope(mu, [mp.mpf(0), root])
    det = G[0][0] * G[1][1] - G[0][1] ** 2
    inner = [mp.mpf(0), root, G[0][1] / root]
    return _mp_rank2(mu, [mp.mpf(0), mp.mpf(0), mp.sqrt(max(det, 0) / G[0][0])], inner)


def _near_plane(seed, ratio, concurrent=False):
    """Three lines whose differences X_i - X_0 have det G / (G_11 G_22) = ratio:
    line 2 is line 0 plus a multiple of line 1 - line 0 plus an orthogonal
    part.  ``concurrent`` puts its mean on the same line, the hardest case
    for the closed form, whose gamma_k|il is then a ratio of small numbers."""
    rng = np.random.default_rng(seed)
    L0, L1, u = rng.normal(size=(3, 3)) * 0.4
    d1 = L1 - L0
    u -= u @ d1 / (d1 @ d1) * d1
    lam = rng.uniform(-1.5, 1.5)
    u *= math.sqrt(ratio / (1 - ratio)) * np.linalg.norm(lam * d1) / np.linalg.norm(u)
    F = np.array([L0, L1, L0 + lam * d1 + u])
    mu = rng.uniform(0.0, 1.0, 3)
    if concurrent:
        mu[2] = mu[0] + lam * (mu[1] - mu[0])
    cov = F @ F.T
    return mu, 0.5 * (cov + cov.T)


def _gram_ratio(cov):
    H = (cov + cov[:1, :1]) - (cov[:, :1] + cov[:1, :])
    return (H[1, 1] * H[2, 2] - H[1, 2] ** 2) / (H[1, 1] * H[2, 2])


class TestThreeLines:
    """``_three_line_maxima`` against 30-digit references after the affine reduction."""

    @staticmethod
    def _random(seed, rank, w=3):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(w, rank)) * 0.45
        cov = f @ f.T
        return rng.uniform(0.0, 1.0, w), 0.5 * (cov + cov.T)

    def _check(self, mu, cov, bound, integrated=False):
        values, took, failed = oracle._three_line_maxima(mu[None], cov[None], 1e-9)
        assert failed == {} and took.tolist() == [integrated]
        error = float(abs(mp.mpf(float(values[0])) - _mp_three_lines(mu, cov)))
        assert error <= bound, error
        return error

    # Measured: at most 3.8e-16 on every set of the next four tests.
    BOUND = 8e-16

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_full_rank(self, seed):
        mu, cov = self._random(seed, 3)
        assert np.linalg.matrix_rank(cov) == 3
        self._check(mu, cov, self.BOUND)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_rank_two(self, seed):
        mu, cov = self._random(seed, 2)
        self._check(mu, cov, self.BOUND)

    def test_floor_line(self):
        # Two loaded lines of rank 2 and a constant above both means.
        mu, cov = self._random(6, 2, w=2)
        lines = np.append(mu, 0.9)
        full = np.zeros((3, 3))
        full[:2, :2] = cov
        self._check(lines, full, self.BOUND)

    def test_equal_means(self):
        mu, cov = self._random(7, 3)
        self._check(np.full(3, 0.4), cov, self.BOUND)
        # Two equal lines: d = 1, the envelope with a duplicate.
        self._check(np.array([0.3, 0.3, 0.5]), np.array(
            [[0.2, 0.2, 0.05], [0.2, 0.2, 0.05], [0.05, 0.05, 0.3]]), self.BOUND)

    def test_collinear_and_narrow_sets(self):
        # d = 1: line 2 - line 0 = 2 (line 1 - line 0), at rank 2; d = 0: three
        # copies of one line with different means; then one and two lines.
        F = np.array([[0.3, 0.1], [0.1, 0.3], [-0.1, 0.5]])
        cov = F @ F.T
        assert abs(_gram_ratio(cov)) <= 1e-15
        mu = np.array([0.8040317224555162, 0.01886389299064406, 0.07670282893403546])
        self._check(mu, cov, self.BOUND)
        same = np.full((3, 3), 0.3)
        values, _, _ = oracle._three_line_maxima(mu[None], same[None], 1e-9)
        assert values[0] == mu.max()
        self._check(mu[:2], cov[:2, :2], self.BOUND)
        self._check(mu[:1], cov[:1, :1], 0.0)

    @pytest.mark.parametrize("concurrent", [False, True])
    @pytest.mark.parametrize("ratio,closed", [(3e-6, True), (3e-7, False), (1e-9, False)])
    def test_near_the_threshold(self, ratio, closed, concurrent):
        # Measured: the closed form just above _GRAM_TOL (1e-6) within 2.3e-14
        # on concurrent lines and 9.3e-17 otherwise; the quadrature below it
        # within 2.1e-16.
        mu, cov = _near_plane(11, ratio, concurrent)
        assert _gram_ratio(cov) == pytest.approx(ratio, rel=1e-3)
        self._check(mu, cov, 5e-14 if closed and concurrent else self.BOUND,
                    integrated=not closed)


def _mp_bivariate_cdf(h, k, rho):
    """P(U <= h, V <= k) for standard normals of correlation rho, as an mpf."""
    h, k, rho = (mp.mpf(float(x)) for x in (h, k, rho))
    s = mp.sqrt(1 - rho * rho)
    return mp.quad(lambda x: mp.npdf(x) * mp.ncdf((k - rho * x) / s), [-mp.inf, min(h, 0), h])


@pytest.mark.parametrize("h,k,rho", [
    (0.7, -1.3, 0.4), (-0.2, -2.5, -0.8), (1.1, 0.9, 0.999), (-1.5, 0.6, -0.9999),
    (0.0, 0.8, 0.3), (0.0, -0.8, -0.6), (1.2, 0.0, 0.5), (-0.4, 0.0, 0.95), (0.0, 0.0, 0.3),
    (0.0, 0.0, -0.97), (1e-300, -0.5, 0.2)])
def test_bivariate_cdf_branches(h, k, rho):
    # Owen's formula, its one-zero and two-zero branches; measured within 7.5e-17.
    got = oracle._bivariate_cdf(np.array([h]), np.array([k]), np.array([rho]),
                                np.array([math.sqrt(1 - rho * rho)]))[0]
    assert float(abs(mp.mpf(float(got)) - _mp_bivariate_cdf(h, k, rho))) <= 2e-16
