"""Reference computations made apart from varalloc.

Nothing here imports the package under test.  Expected maxima of
independent Gaussians come from adaptive 1-D quadrature
(``scipy.integrate.quad``) of the survival function of the maximum;
correlated expected maxima come from Monte Carlo on the benchmark's own
generator (Philox, not the program's PCG64 streams).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import log_ndtr

# P(X < mu - 12 sigma) = Phi(-12) < 2e-33, so the truncated tails are far
# below every tolerance the checks use.
_TAIL = 12.0
_MC_CHUNK = 1 << 18


def emax_independent(means, sigmas) -> float:
    """E[max_i X_i] for independent X_i ~ N(means[i], sigmas[i]^2).

    Uses E max = lo + int_lo^hi (1 - prod_i Phi((t - mu_i) / s_i)) dt, with
    lo at or above every point mass, so point masses contribute a factor 1.
    The integrand is evaluated as -expm1(sum log Phi), which keeps full
    relative precision where the product is close to 1.
    """
    means = np.asarray(means, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    live = sigmas > 0
    if not live.any():
        return float(means.max())
    mu = means[live]
    s = sigmas[live]
    if (~live).any():
        floor = float(means[~live].max())
    else:
        floor = -math.inf
    if mu.size == 1 and floor == -math.inf:
        return float(mu[0])
    lo = max(floor, float((mu - _TAIL * s).max()))
    hi = float((mu + _TAIL * s).max())
    if hi <= lo:
        return lo

    def survival(t: float) -> float:
        return float(-np.expm1(log_ndtr((t - mu) / s).sum()))

    knots = np.concatenate([mu + k * s for k in (-3.0, -1.0, 0.0, 1.0, 3.0)])
    knots = np.unique(knots[(knots > lo) & (knots < hi)])
    if knots.size > 40:
        knots = knots[:: math.ceil(knots.size / 40)]
    val, _ = quad(survival, lo, hi, points=knots if knots.size else None,
                  epsabs=1e-13, epsrel=1e-13, limit=500)
    return lo + val


def emax_correlated_mc(means, cov, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo E[max_i X_i] for X ~ N(means, cov): (estimate, standard error).

    The factor comes from a clipped eigendecomposition, so singular
    (perfectly correlated or zero-variance) matrices sample correctly.
    """
    means = np.asarray(means, dtype=float)
    w, vecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    factor = vecs * np.sqrt(np.clip(w, 0.0, None))
    rng = np.random.Generator(np.random.Philox(seed))
    s1 = 0.0
    s2 = 0.0
    done = 0
    while done < samples:
        count = min(_MC_CHUNK, samples - done)
        mx = (rng.standard_normal((count, means.size)) @ factor.T + means).max(axis=1)
        s1 += float(mx.sum())
        s2 += float(np.square(mx).sum())
        done += count
    mean = s1 / samples
    var = max((s2 - samples * mean * mean) / (samples - 1), 0.0)
    return mean, math.sqrt(var / samples)


def erdos_renyi_sets(n: int, m: int, p: float, seed: int) -> list[list[int]]:
    """Memberships of the documented Erdos-Renyi family: each (variable, set)
    pair joins with probability p; an empty set is drawn again."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(m):
        mask = rng.random(n) < p
        while not mask.any():
            mask = rng.random(n) < p
        sets.append([int(i) for i in np.flatnonzero(mask)])
    return sets


def budget_grid_points(n: int, limit: int, count: int, seed: int) -> np.ndarray:
    """`count` integer vectors k >= 0 with sum k_i^2 <= limit.

    Half are pushed to the budget boundary (where the maximum lies, since E
    max grows with every sigma_i), half are spread through the interior.
    """
    rng = np.random.default_rng(seed)
    radius = math.sqrt(limit)
    out = []
    for j in range(count):
        direction = np.abs(rng.standard_normal(n))
        direction /= np.linalg.norm(direction)
        scale = radius if j % 2 == 0 else radius * rng.uniform() ** (1.0 / n)
        # Flooring only shrinks coordinates, so the budget still holds.
        out.append(np.floor(direction * scale).astype(np.int64))
    return np.asarray(out)
