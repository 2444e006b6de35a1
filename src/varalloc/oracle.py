"""Expected-maximum estimators for Gaussian vectors.

This module is the objective function used by every solver and verifier: it
evaluates E[max_i X_i] for independent and jointly Gaussian vectors to
controlled accuracy.  Three routes are provided: closed forms, quadrature
and Monte Carlo.  Independent vectors take the first two under ``auto``.
Under a covariance matrix Sigma = L L^T a set of at most three members takes
them at any rank, a larger set when the factor has rank r <= 2, and any
other set Monte Carlo.

Closed forms (exact):

    E[max(X, t)]      = t Phi((t-mu)/s) + mu Phi((mu-t)/s) + s phi((t-mu)/s)
    E[max(X1, X2)]    = mu1 Phi(d/th) + mu2 Phi(-d/th) + th phi(d/th),
                        d = mu1 - mu2,  th = sqrt(s1^2 + s2^2)

Quadrature (deterministic, tolerance-controlled): with F_i the CDF of
N(mu_i, s_i^2) and F(t) = prod_i F_i(t) the CDF of the maximum,

    E[max_i X_i] = c + integral_c^inf (1 - F(t)) dt,   c <= ess inf allowed,

integrated by composite Gauss-Legendre panels placed at multiples of each
coordinate's standard deviation around its mean, so every CDF transition is
resolved at its own scale.  A coordinate with s_i = 0 is a unit step at
mu_i and contributes the exact constant factor (never a perturbation),
because solvers routinely set most deviations to exactly 0.  Truncating the
upper limit at max_i(mu_i + 10 s_i) and choosing c = max_i(mu_i - 10 s_i)
bounds the neglected tails by sum_i s_i * (phi(10) - 10 Phi(-10)) < 1e-22.
One ladder, ``_refine``, splits panels into 1, 2, 4, 8, 16 parts.  Its first
level on independent rows also takes an 8-point Gauss-Legendre companion on
the same panels and ``ndtr`` products, as QUADPACK pairs rules (Piessens et
al. 1983): a row closes there, with its 10-point value, when the two agree
within tol / 2.  Any other row goes on until two levels agree within tol / 2;
``_check_converged`` reports rows that never do.
Rows of different widths share one batch: a pad column (mean -inf,
deviation 0) is never the maximum and changes no bit, so all quadrature
sets of one objective are refined together, one batch per level.
``_pad_rows`` is the one writer of pad columns, for the sets here, the
count tables of the greedy and the rows of each verifier claim.  A batch
is cut into blocks of rows by the panels each row really has, and a block
into node chunks by its positive-width panels, so memory stays bounded.

Low-rank covariance (exact): with X = mu + L z, max_i X_i is the upper
envelope of the lines mu_i + L_i z.  At r = 1 line i is on top over one
interval [lo_i, hi_i] of z, so E[max_i X_i] is the closed form
sum_i mu_i (Phi(hi_i) - Phi(lo_i)) + L_i (phi(lo_i) - phi(hi_i)); a constant
is a line of slope 0, and of parallel lines only the highest counts.  At
r = 2 that closed form, taken along z_2, is integrated over z_1 by
composite Gauss-Legendre panels on [-10, 10], with edges where the inner
value has a kink or a jump in its second derivative, refined by the same
ladder, all rank-2 sets of a matrix together.  Both have half-width 0.

Three lines (exact, any rank): E max depends only on the means and the
differences X_i - X_0, so a set of at most three members needs the 2 x 2
Gram matrix G of those differences and no factor of Sigma.  Collinear
differences are the envelope above; otherwise Stein's identity gives
E max = sum_i mu_i P_i + sum_{pairs il} theta_il phi(alpha_il) Phi(gamma_k|il),
Clark's (1961) pair terms and bivariate normal orthants P_i through Owen's
(1956) T function, and sets near concurrency take the rank-2 quadrature.

Monte Carlo: chunked sampling with per-chunk generators derived from
(seed, chunk_index), so estimates are bit-reproducible and independent of
any internal parallelism; confidence intervals are normal-approximation
95% half-widths (1.96 s / sqrt(N)).  A chunk is drawn, transformed and
reduced in tiles of at most ``_SAMPLE_TILE`` samples, so the rows a tile
touches stay in cache.  The bits do not move: the tiles read the chunk's one
normal stream in order, each sample's entries are the same dot products, a
maximum is exact, and the sums run over the whole chunk's statistics at
once, in the same order.  The chunk's statistics, the tile's normals and
its work rows are ``_TileBuffers`` that a thread reuses across tiles,
chunks and estimates, which moves no bit either: each is overwritten before
it is read.

Parallelism: ``_pmap`` runs independent quadrature blocks and verifier
trials on the calling thread plus one pool thread per further CPU of the
affinity mask (numpy and ``ndtr`` release the interpreter lock).  Each block
and trial does the same arithmetic on any thread, so results have the same
bits for any worker count.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, owens_t

from .instances import AllocationVector, Instance

__all__ = [
    "GaussianVector",
    "CovarianceSpec",
    "EstimatorConfig",
    "Estimate",
    "EstimationError",
    "QuadratureError",
    "FactorizationError",
    "expected_max_with_floor",
    "expected_max_pair",
    "expected_max_independent",
    "expected_max_correlated",
    "expected_max_batch",
    "graph_objective",
    "graph_objective_correlated",
    "psd_factor",
    "row_max",
    "derive_seed",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Gaussians are numerically constant beyond this many standard deviations.
_TAIL_SIGMAS = 10.0

# Per-coordinate panel knots, in standard deviations around the mean.
_KNOTS = np.array(
    [-10.0, -6.0, -4.0, -3.0, -2.0, -1.25, -0.625,
     0.0, 0.625, 1.25, 2.0, 3.0, 4.0, 6.0, 10.0]
)

_MC_CHUNK = 1 << 18
# Samples per tile of a Monte Carlo chunk or a common-random-numbers block,
# so that a tile's normals, product rows and statistics (128 KiB per row of
# float64 samples) stay in a 2 MiB L2 next to the shared CRN matrix.  On a
# 2-core VM the correlated PTAS candidate loop (n = 3) ran fastest at 2^14,
# 5-10% faster than at 2^13 or 2^15.
_SAMPLE_TILE = 1 << 14
_RANK_TOL = 1e-10  # psd_factor's zero-eigenvalue cut, times max(largest eigenvalue, 1)
_SLOPE_TOL = 1e-9  # rank-2 slopes this close, relative to the largest, are parallel
# Three-line sets with det G < _GRAM_TOL G_11 G_22, G the Gram matrix of the
# differences X_i - X_0, are integrated rather than taken in closed form.  As
# the lines near concurrency the closed form loses accuracy like eps / sqrt of
# that ratio: against 30-digit references it lay up to 2.2e-14 away at 1e-4,
# 2.9e-13 at 1e-6 and 3.6e-12 at 1e-9, while the quadrature stayed within
# 1e-15.  On a 0.2 grid the ratio is at most 5.2e-16 (collinear, d <= 1) or
# at least 0.074.
_GRAM_TOL = 1e-6

# Quadrature nodes in flight inside expected_max_batch, across all threads:
# each node-sized float64 temporary, summed over the blocks evaluated at once,
# stays at 256 KiB whatever the batch size and row width, which keeps the
# working set in cache.
_SLAB_NODES = 1 << 15
# A block holds at most 1 / _BLOCK_SHARE of a worker's node budget in
# panels, so its panel-level arrays (edges, panel indices) fit beside its
# node chunks; blocks of half that size were 5-15% slower.
_BLOCK_SHARE = 4

# Points of the Gauss-Legendre rule on each quadrature panel, and of the
# companion rule that confirms a row's first level on the same panels.  On
# uniform rows of width 64, 128, 256 and 512 the 8-point rule lies 4.9e-13,
# 9.1e-12, 7.0e-11 and 5.3e-10 from the 10-point one (the 6-point rule
# 6.3e-10, 1.4e-9, 1.6e-8 and 4.4e-8).  At the default tolerance (tol / 2 =
# 5e-10) the first level so closes such rows up to width 256, and the 512-wide
# one goes on to subdiv 2.
_GL_POINTS = 10
_COMPANION_POINTS = 8


class EstimationError(Exception):
    """Base class for estimator failures."""


class QuadratureError(EstimationError):
    """Quadrature did not converge within the refinement bound.

    Carries the best estimate reached so far in ``estimate``.
    """

    def __init__(self, message: str, estimate: float):
        super().__init__(message)
        self.estimate = estimate


class FactorizationError(EstimationError):
    """Covariance matrix violates the PSD tolerance and cannot be sampled."""


def derive_seed(seed: int, label: str) -> int:
    """Stable labeled sub-seed: hash of (seed, label), independent of platform."""
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # Deterministic per-chunk stream; reduction order is fixed by chunk index.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))


def _workers() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_pool = None
_pool_lock = threading.Lock()


def _helper_pool(size: int) -> ThreadPoolExecutor:
    # Created on first parallel use, never at import; it lives as long as
    # the process, and its threads idle between calls.
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=size, thread_name_prefix="varalloc")
        return _pool


def _pmap(fn, items) -> list:
    """``[fn(x) for x in items]``, in item order, on every CPU of the process.

    The calling thread and ``_workers() - 1`` pool threads take indices from
    one shared counter, so the caller does a share of the work.  With one
    worker or at most one item this is the plain list comprehension and no
    pool is made.  After an exception no further item is handed out; helpers
    not yet started are cancelled, started ones are waited for, and the
    exception of the lowest index is raised, which is the one the list
    comprehension would raise.  Cancelling before waiting also lets an item
    call ``_pmap`` itself: queued helpers never block the caller.
    Each thread holds one ``_TileBuffers`` over its share of the items, so
    Monte Carlo items reuse their tiles and the memory goes with the map.
    """
    items = list(items)
    workers = _workers()
    if workers <= 1 or len(items) <= 1:
        with _holding_tile_buffers():
            return [fn(x) for x in items]
    out = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    next_index = 0

    def drain():
        nonlocal next_index
        with _holding_tile_buffers():
            while True:
                with lock:
                    if errors or next_index == len(items):
                        return
                    i = next_index
                    next_index += 1
                try:
                    out[i] = fn(items[i])
                except Exception as exc:  # re-raised by the caller below
                    with lock:
                        errors[i] = exc
                    return

    pool = _helper_pool(workers - 1)
    helpers = [pool.submit(drain) for _ in range(min(workers, len(items)) - 1)]
    try:
        drain()
    finally:
        with lock:  # no more hand-outs, also if the caller was interrupted
            next_index = len(items)
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    if errors:
        raise errors[min(errors)]
    return out


def _norm_pdf(z):
    # |z| > 40 underflows to exactly 0; clipping avoids overflow in z^2.
    z = np.minimum(np.abs(z), 40.0)
    return np.exp(-0.5 * np.square(z)) / SQRT_2PI


@dataclass(frozen=True)
class GaussianVector:
    """Independent Gaussian coordinates; a zero stddev is a point mass."""

    means: tuple[float, ...]
    stddevs: tuple[float, ...]

    def __init__(self, means, stddevs):
        means = tuple(float(x) for x in means)
        stddevs = tuple(float(s) for s in stddevs)
        if len(means) != len(stddevs):
            raise ValueError("means and stddevs must have equal length")
        if len(means) < 1:
            raise ValueError("need at least one coordinate")
        for i, (mu, s) in enumerate(zip(means, stddevs)):
            if not (math.isfinite(mu) and math.isfinite(s)):
                raise ValueError(f"coordinate {i} is not finite")
            if s < 0:
                raise ValueError(f"stddevs[{i}] is negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stddevs", stddevs)

    @property
    def n(self) -> int:
        return len(self.means)


class CovarianceSpec:
    """Means plus a symmetric PSD covariance matrix.

    The matrix is symmetrized on construction; the smallest eigenvalue must
    be >= -1e-9 and every off-diagonal entry must respect Cauchy-Schwarz
    within 1e-12.  Arrays are frozen after validation.
    """

    PSD_TOL = -1e-9

    def __init__(self, means, matrix):
        means = np.asarray(means, dtype=float).reshape(-1)
        matrix = np.asarray(matrix, dtype=float)
        n = means.shape[0]
        if n < 1:
            raise ValueError("need at least one coordinate")
        if matrix.shape != (n, n):
            raise ValueError(f"matrix must be {n}x{n}, got {matrix.shape}")
        if not (np.isfinite(means).all() and np.isfinite(matrix).all()):
            raise ValueError("means and matrix must be finite")
        matrix = 0.5 * (matrix + matrix.T)
        d = np.diag(matrix)
        if (d < -1e-12).any():
            raise ValueError("negative diagonal entry")
        bound = np.sqrt(np.outer(np.maximum(d, 0.0), np.maximum(d, 0.0))) + 1e-12
        if (np.abs(matrix) > bound).any():
            i, j = np.unravel_index(np.argmax(np.abs(matrix) - bound), matrix.shape)
            raise ValueError(f"entry ({i}, {j}) violates the Cauchy-Schwarz bound")
        w = np.linalg.eigvalsh(matrix)
        if w[0] < self.PSD_TOL:
            raise ValueError(f"matrix is not PSD (smallest eigenvalue {w[0]:.3e})")
        means.setflags(write=False)
        matrix.setflags(write=False)
        self.means = means
        self.matrix = matrix

    @property
    def n(self) -> int:
        return self.means.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @property
    def support_size(self) -> int:
        return int((np.diag(self.matrix) > 0).sum())

    def __eq__(self, other):
        if not isinstance(other, CovarianceSpec):
            return NotImplemented
        return np.array_equal(self.means, other.means) and np.array_equal(
            self.matrix, other.matrix
        )

    def __repr__(self):
        return f"CovarianceSpec(n={self.n}, trace={self.trace:.6g})"


@dataclass(frozen=True)
class EstimatorConfig:
    """Method selector and accuracy knobs for the estimators."""

    method: str = "auto"
    quadrature_tolerance: float = 1e-9
    mc_samples: int = 2_000_000
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "closed_form", "quadrature", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.quadrature_tolerance < math.inf:
            raise ValueError("quadrature_tolerance must be finite and positive")
        if self.mc_samples < 1000:
            raise ValueError("mc_samples must be at least 1000")
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class Estimate:
    """Value with a 95% confidence half-width (0 for deterministic methods)."""

    value: float
    half_width: float
    method_used: str

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be non-negative")


def expected_max_with_floor(mu: float, sigma: float, floor: float) -> float:
    """E[max(X, t)] for X ~ N(mu, sigma^2) and a constant floor t.

    Exact truncated-normal closed form; sigma = 0 degenerates to max(mu, t).
    """
    for name, x in (("mu", mu), ("sigma", sigma), ("floor", floor)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0.0:
        return max(mu, floor)
    z = (floor - mu) / sigma
    return float(floor * ndtr(z) + mu * ndtr(-z) + sigma * _norm_pdf(z))


def expected_max_pair(mu1: float, sigma1: float, mu2: float, sigma2: float) -> float:
    """E[max(X1, X2)] for independent Gaussians (exact).

    With d = mu1 - mu2 and th = sqrt(s1^2 + s2^2):
    E = mu1 Phi(d/th) + mu2 Phi(-d/th) + th phi(d/th); both sigmas zero
    degenerates to max(mu1, mu2), one sigma zero to the floor form.
    """
    for name, x in (("mu1", mu1), ("sigma1", sigma1), ("mu2", mu2), ("sigma2", sigma2)):
        if not math.isfinite(x):
            raise ValueError(f"{name} must be finite")
    if sigma1 < 0 or sigma2 < 0:
        raise ValueError("sigmas must be non-negative")
    theta = math.hypot(sigma1, sigma2)
    if theta == 0.0:
        return max(mu1, mu2)
    z = (mu1 - mu2) / theta
    return float(mu1 * ndtr(z) + mu2 * ndtr(-z) + theta * _norm_pdf(z))


def _extent(pad: np.ndarray) -> np.ndarray:
    """One past the last real (non-pad) column of each row of the (R, n) mask ``pad``."""
    return pad.shape[1] - np.argmin(pad[:, ::-1], axis=1)


def _pad_rows(means, stddevs, widths) -> tuple[np.ndarray, np.ndarray]:
    """Ragged rows as one ``expected_max_batch`` input: row r keeps its first
    ``widths[r]`` columns of ``means`` (broadcast against ``stddevs``, so it may
    be a scalar) and ``stddevs``, and every later column becomes a pad column
    (-inf, 0), which changes no bit of its row."""
    stddevs = np.asarray(stddevs, dtype=float)
    real = np.arange(stddevs.shape[1]) < np.asarray(widths)[:, None]
    return np.where(real, means, -np.inf), np.where(real, stddevs, 0.0)


def expected_max_batch(means, stddevs, *, subdiv: int = 1) -> np.ndarray:
    """E[max_i X_i] for a batch of independent Gaussian vectors.

    ``stddevs`` has shape (C, n); ``means`` is broadcast against it (shape
    (n,) or (C, n)).  Returns a length-C array.  Panels are rebuilt per row,
    so rows may mix degenerate and non-degenerate coordinates freely, and
    rows of different widths share one call: a pad column, mean -inf and
    deviation 0, is never the maximum and changes no bit of its row
    (``_pad_rows`` writes them).  Every other column is real: a finite mean
    and a finite deviation >= 0.  A ``ValueError`` names the first column
    that is neither, or the first row with no real column; a batch with no
    rows returns an empty array.

    Each panel takes a 10-point Gauss-Legendre rule, and ``subdiv``, a
    positive int (anything else is a ``ValueError``), splits every panel
    evenly.  Unsplit panels already resolve the CDF transitions, since panel
    spacing follows each coordinate's standard deviation: against 30-digit
    ``mpmath`` integrals, subdiv 1 is within 2.9e-16 relative on random rows
    of width 3-8 and 3.0e-15 on 64 equal deviations.  Equal deviations share
    their 15 panels, so the error grows with the width: 7.6e-13 at 256 and
    1.9e-11 at 512 (``tests/test_reference.py``).

    Memory is bounded by ``_SLAB_NODES`` (2^15) floats per temporary across
    all threads: with W workers (``_pmap``) each works within
    ``_SLAB_NODES // W``.  Rows, ordered by their number of real (non-pad)
    columns, are cut into blocks of at most ``_SLAB_NODES // W //
    _BLOCK_SHARE`` panels, counted at the block's width w as 15 w + 2 per
    row; the columns after a block's last real column, padding in all its
    rows, are trimmed.  Within a block, the positive-width panels get nodes
    in chunks of at most ``_SLAB_NODES // W`` nodes, and each row sums its
    own layout in groups of at most ``_SLAB_NODES // W`` floats, both cut at
    whole rows (one row alone may be larger).  A row's value does not depend
    on its block, chunk, batch or thread, so one call over many rows returns
    the bits of one call per row, for any W.

    A row's value is a function of the multiset of its real (mean,
    deviation) columns, compared as bytes.  The limits are maxima and the
    panel edges are sorted (a -0.0 or +0.0 edge or lower limit changes no
    node, weight or sum).  A column with a zero deviation or mu + 10 s at or below the
    lower limit has a factor of exactly 1.0 on every node and is dropped;
    each row's other columns are packed to the left, sorted by the bytes of
    (s, mu), and one equal byte for byte to the previous column of the
    chunk reuses its factor.  Only positive-width panels get nodes.  A row
    with k real columns sums its own layout of 15 k + 2 panels, its terms in
    place and zeros elsewhere, whatever its padding: a pad column's knots
    clip to the lower limit, so it only adds 15 zero-width panels in front.
    """
    if isinstance(subdiv, bool) or not isinstance(subdiv, (int, np.integer)) or subdiv < 1:
        raise ValueError(f"subdiv must be a positive int, got {subdiv!r}")
    return _expected_max_rules(means, stddevs, int(subdiv), (_GL_POINTS,))[0]


def _expected_max_rules(means, stddevs, subdiv: int, rules: tuple) -> np.ndarray:
    """``expected_max_batch`` under each Gauss-Legendre rule of ``rules`` (point counts)
    on the same panels, as a (len(rules), C) array.  The rules share the panel
    edges, the live columns and the ``ndtr`` products over all their nodes, and
    each value has the bits that its rule alone gives."""
    stddevs = np.atleast_2d(np.asarray(stddevs, dtype=float))
    means = np.broadcast_to(np.asarray(means, dtype=float), stddevs.shape)
    ncand, n = stddevs.shape
    if not ncand:
        return np.empty((len(rules), 0))
    pad = means == -np.inf
    ok = np.where(pad, stddevs == 0.0,
                  np.isfinite(means) & np.isfinite(stddevs) & (stddevs >= 0.0))
    if not ok.all():
        r, c = np.argwhere(~ok)[0].tolist()
        raise ValueError(f"row {r}, column {c}: mean {float(means[r, c])!r} and deviation "
                         f"{float(stddevs[r, c])!r} make neither a real column (finite mean, "
                         "finite deviation >= 0) nor a pad column (-inf, 0)")
    real = n - np.count_nonzero(pad, axis=1)
    if not real.all():
        raise ValueError(f"row {int(np.argmin(real))} has no real column")
    order = None
    if (real[1:] < real[:-1]).any():  # blocks and row sums take rows of one width together
        order = np.argsort(real, kind="stable")
        means, stddevs, pad, real = means[order], stddevs[order], pad[order], real[order]
    extent = _extent(pad)
    budget = _SLAB_NODES // _workers()
    limit = budget // _BLOCK_SHARE
    blocks, start = [], 0
    while start < ncand:
        # A block of r rows at width w has r (15 w + 2) panels, and a row at least 17.
        width = np.maximum.accumulate(extent[start:start + limit // (len(_KNOTS) + 2) + 1])
        panels = np.arange(1, len(width) + 1) * (len(_KNOTS) * width + 2)
        stop = start + max(1, int(np.searchsorted(panels, limit, side="right")))
        blocks.append((start, stop))
        start = stop

    def block(rows):
        r0, r1 = rows
        w = int(extent[r0:r1].max())
        return _expected_max_slab(means[r0:r1, :w], stddevs[r0:r1, :w], real[r0:r1], subdiv,
                                  budget, rules)

    values = np.concatenate(_pmap(block, blocks), axis=1)
    if order is None:
        return values
    out = np.empty_like(values)
    out[:, order] = values
    return out


@functools.cache
def _gauss_legendre(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [-1, 1] and weights of the ``points``-point Gauss-Legendre rule."""
    return leggauss(points)


@functools.cache
def _panel_parts(subdiv: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``subdiv`` equal parts of a panel starts and ends, as shares of
    its width from either edge; cached, as ``linspace`` is about 8% of a one-row call."""
    frac = np.linspace(0.0, 1.0, subdiv + 1)
    return frac[:-1], 1.0 - frac[1:]


def _panel_nodes(a: np.ndarray, b: np.ndarray, subdiv: int,
                 nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``nodes`` (on [-1, 1]) on panels [a, b], each split into ``subdiv``
    equal parts, as a node-major (subdiv * len(nodes), panels) array: row k
    holds node k of every panel, so elementwise work runs along the panels.
    Also returns the parts' half-widths, from which ``_node_weights`` makes the
    weights.  A node's value depends on that node alone, not on the others."""
    start, end = _panel_parts(subdiv)
    width = b - a
    a, b = a + start[:, None] * width, b - end[:, None] * width
    half = 0.5 * (b - a)
    t = a[:, None] + (nodes + 1.0)[:, None] * half[:, None]
    return t.reshape(subdiv * len(nodes), len(width)), half


def _node_weights(half: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The ``weights`` of ``_panel_nodes``'s nodes, in the same layout."""
    subdiv, panels = half.shape
    return (weights[:, None] * half[:, None]).reshape(subdiv * len(weights), panels)


def _row_ranges(cost: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Consecutive (start, stop) ranges of rows whose ``cost`` sums to at most ``limit``,
    or of one row where that row alone costs more."""
    ends = np.cumsum(cost)
    ranges, start = [], 0
    while start < len(cost):
        base = ends[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, base + limit, side="right")))
        ranges.append((start, stop))
        start = stop
    return ranges


def _survival_terms(a, b, owner, m_eff, s_eff, subdiv: int, nodes, weights) -> np.ndarray:
    """(1 - prod_i F_i(t)) w on the nodes t, weights w of panels [a, b], node-major
    as ``_panel_nodes``; panel p takes the columns of row ``owner[p]`` of ``m_eff``
    and ``s_eff``.  A column equal, byte for byte, to the previous one reuses its
    factor.  At most four node-sized arrays are live at once."""
    t, half = _panel_nodes(a, b, subdiv, nodes)
    prod = np.ones_like(t)
    key = factor = None
    for i in range(m_eff.shape[1]):
        column = m_eff[:, i].tobytes() + s_eff[:, i].tobytes()
        if column != key:
            key, factor = column, None
            z = t - m_eff[owner, i]
            z /= s_eff[owner, i]
            factor = ndtr(z)
            del z
        prod *= factor
    del t, factor
    np.subtract(1.0, prod, out=prod)
    prod *= _node_weights(half, weights)
    return prod


def _expected_max_slab(means, stddevs, real, subdiv: int, budget: int,
                       rules: tuple) -> np.ndarray:
    """``_expected_max_rules`` on one block; ``real`` counts each row's non-pad columns.

    The nodes of all ``rules`` go through one ``_survival_terms`` per node chunk,
    whose chunks count every node of every rule.  Each rule's terms then fill a
    sum buffer laid out as that rule alone lays it out, so a rule's values do not
    depend on the other rules."""
    rows, width = stddevs.shape
    nodes, weights = (np.concatenate(x) for x in zip(*map(_gauss_legendre, rules)))
    span = len(nodes) * subdiv
    offsets = np.cumsum((0, *rules))
    knots = len(_KNOTS) * width
    lo = (means - _TAIL_SIGMAS * stddevs).max(axis=1)
    hi = (means + _TAIL_SIGMAS * stddevs).max(axis=1)

    # Breakpoints: per-coordinate knots plus the origin (the tail-integral
    # identity splits there) and the limits, clipped into [lo, hi], in one
    # array: a pad column's knots are -inf and clip to lo.
    edges = np.empty((rows, knots + 3))
    bps = edges[:, :knots].reshape(rows, len(_KNOTS), width)
    np.multiply(stddevs[:, None, :], _KNOTS[:, None], out=bps)
    bps += means[:, None, :]
    edges[:, knots], edges[:, knots + 1], edges[:, knots + 2] = 0.0, lo, hi
    np.clip(edges, lo[:, None], hi[:, None], out=edges)
    edges.sort(axis=1)

    # Survival function of the maximum: 1 - prod_i F_i(t).  A factor is
    # exactly 1 on every node (t >= lo) for a degenerate entry, a unit step
    # at or below lo, and where mu + 10 s <= lo puts z >= 10 (ndtr is 1.0).
    # Each row's other (live) entries are packed to the left, sorted by the
    # bytes of (s, mu), so the product depends on the multiset of columns and
    # not on their order; the padding keeps z = +inf, an exact 1.0 factor.
    live = (stddevs > 0) & (means + _TAIL_SIGMAS * stddevs > lo[:, None])
    nlive = np.count_nonzero(live, axis=1)
    m_eff = np.where(live, means, -np.inf)
    s_eff = np.where(live, stddevs, 1.0)
    order = np.lexsort((m_eff.view(np.uint64), s_eff.view(np.uint64), ~live),
                       axis=1)[:, :nlive.max()]
    m_eff = np.take_along_axis(m_eff, order, axis=1)
    s_eff = np.take_along_axis(s_eff, order, axis=1)

    # A zero-width panel's nodes have weight 0.0 and contribute exact zeros,
    # so only positive-width panels get nodes, in row order; ``owner`` is the
    # row a panel came from.  Row r's layout, its last 15 real[r] + 2 panels,
    # starts at ``first[r]`` in the block's layouts laid end to end, and
    # ``slot`` is each positive-width panel's place there.
    wide = edges[:, 1:] > edges[:, :-1]
    owner, col = np.nonzero(wide)
    a, b = edges[owner, col], edges[owner, col + 1]
    layout = len(_KNOTS) * real + 2
    first = np.cumsum(layout) - layout
    slot = col + (first - len(_KNOTS) * (width - real))[owner]
    start = np.concatenate([[0], np.cumsum(np.count_nonzero(wide, axis=1))])

    total = np.empty((len(rules), rows))
    for r0, r1 in _row_ranges(np.diff(start) * span, budget):
        p0, p1, most = start[r0], start[r1], nlive[r0:r1].max()
        terms = _survival_terms(a[p0:p1], b[p0:p1], owner[p0:p1] - r0,
                                m_eff[r0:r1, :most], s_eff[r0:r1, :most], subdiv,
                                nodes, weights)
        terms = terms.reshape(subdiv, len(nodes), -1)
        # Each row sums its own layout with the terms in place, rows of one
        # width together, at most ``budget`` floats at a time.
        cuts = [r0, *(r0 + 1 + np.flatnonzero(np.diff(real[r0:r1]))).tolist(), r1]
        for k, points in enumerate(rules):
            part = subdiv * points  # nodes per panel under this rule
            mine = terms[:, offsets[k]:offsets[k + 1]].reshape(part, -1)
            for g0, g1 in zip(cuts[:-1], cuts[1:]):
                size = int(layout[g0])  # panels per row
                step = max(1, budget // (size * part))
                for q0 in range(g0, g1, step):
                    q1 = min(q0 + step, g1)
                    buf = np.zeros(((q1 - q0) * size, part))
                    panels = slice(start[q0], start[q1])
                    buf[slot[panels] - first[q0]] = mine[:, panels.start - p0:panels.stop - p0].T
                    total[k, q0:q1] = buf.reshape(q1 - q0, -1).sum(axis=1)
    return lo + total


def _refine(level, count: int, tol: float) -> tuple[np.ndarray, dict]:
    """Refine ``count`` rows until each value is confirmed within tol / 2.

    ``level(rows, subdiv)`` returns the values of the index array ``rows``, once per
    level (subdiv 1, 2, 4, 8, 16) on the rows still open.  A level may instead
    return two rows, the values and a companion rule's on the same panels; a row
    whose two agree within tol / 2 closes there with its value.  A level without a
    companion closes the rows that agree with the level before.  A row keeps the
    value of the level that closed it; ``failed`` maps the others to their
    subdiv-16 values.
    """
    values, open_rows, prev = np.empty(count), np.arange(count), None
    for subdiv in (1, 2, 4, 8, 16):
        if not len(open_rows):
            break
        val, *companion = np.atleast_2d(level(open_rows, subdiv))
        values[open_rows] = val
        ref = companion[0] if companion else prev
        if ref is not None:
            still = ~(np.abs(val - ref) <= 0.5 * tol)
            open_rows, val = open_rows[still], val[still]
        prev = val
    return values, dict(zip(open_rows.tolist(), values[open_rows].tolist()))


def _first_of_key(means: np.ndarray, stddevs: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row with its quadrature key.

    A row's key is the multiset of its (mean, deviation) columns, compared as
    bytes, and ``expected_max_batch`` gives every row of one key the same
    bits: a row's value is a function of that multiset alone.  Pad columns
    are columns, so rows with different numbers of real ones never share a
    key.  A run of rows whose last real columns lie within a factor 2 of
    each other is keyed on the columns up to the run's last real one; the
    rest are all pads.
    """
    extent = _extent(means == -np.inf)
    cuts = [0, *(1 + np.flatnonzero(np.diff(np.frexp(extent)[1]))).tolist(), len(means)]
    first, out = {}, []
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        w = extent[r0:r1].max()
        pairs = np.stack([means[r0:r1, :w], stddevs[r0:r1, :w]], axis=2)
        bits = pairs.view(np.uint64)
        order = np.lexsort((bits[..., 0], bits[..., 1]), axis=1)
        keys = pairs.view(np.complex128)[np.arange(r1 - r0)[:, None], order, 0]  # pairs as units
        out += [first.setdefault(key.tobytes(), i) for i, key in enumerate(keys, r0)]
    return np.array(out)


def _quadrature_rows(means, stddevs, tol: float) -> tuple[np.ndarray, dict]:
    """``_refine`` on quadrature rows of shape (R, n), one ``_expected_max_rules`` call
    per level, for the first row of each key of ``_first_of_key``: the other rows
    of a key get its values, which are the bits of refining them alone.

    The first level gives each row the bits of ``expected_max_batch`` at subdiv 1
    and, on the same panels and ``ndtr`` products, the 8-point companion
    (``_COMPANION_POINTS``).  A row whose two agree within tol / 2 closes there;
    any other goes on to subdiv 2, 4, 8 and 16, each with the bits of
    ``expected_max_batch`` at that subdiv, compared with the level before."""
    todo, key = np.unique(_first_of_key(means, stddevs), return_inverse=True)
    values, failed = _refine(lambda rows, subdiv: _expected_max_rules(
        means[todo[rows]], stddevs[todo[rows]], subdiv,
        (_GL_POINTS, _COMPANION_POINTS) if subdiv == 1 else (_GL_POINTS,)), len(todo), tol)
    return values[key], {r: failed[k] for r, k in enumerate(key.tolist()) if k in failed}


def _check_converged(failed: dict, tol: float, name_set: bool = False) -> None:
    """Raise ``QuadratureError`` for the lowest index in ``failed``, with its best estimate;
    with ``name_set``, prefixed "set j: " and chained to the plain error."""
    if failed:
        j = min(failed)
        e = QuadratureError(f"quadrature did not reach tolerance {tol:g} after bounded refinement",
                            estimate=float(failed[j]))
        if name_set:
            raise QuadratureError(f"set {j}: {e}", estimate=e.estimate) from e
        raise e


def _closed_form_expected_max(means: list, stddevs: list) -> float:
    live = [i for i, s in enumerate(stddevs) if s > 0]
    if len(means) == 1:
        return means[0]
    if len(live) == 0:
        return max(means)
    if len(means) == 2:
        return expected_max_pair(means[0], stddevs[0], means[1], stddevs[1])
    if len(live) == 1:
        i = live[0]
        floor = max(mu for j, mu in enumerate(means) if j != i)
        return expected_max_with_floor(means[i], stddevs[i], floor)
    raise ValueError("closed form requires n <= 2 or at most one non-degenerate coordinate")


def _sample_tiles(count: int) -> list[slice]:
    """Consecutive slices of at most ``_SAMPLE_TILE`` samples covering ``range(count)``."""
    return [slice(a, min(a + _SAMPLE_TILE, count)) for a in range(0, count, _SAMPLE_TILE)]


class _TileBuffers:
    """Named float64 work arrays of one thread's Monte Carlo tiles, reused by
    every estimate that holds them.

    ``take(name, shape)`` returns a C-contiguous view of the first
    prod(shape) floats of buffer ``name``, which is replaced by a larger one
    only when a request does not fit.  The contents are whatever the last
    user left: every user overwrites all of its view before reading it.
    ``_mc_estimate`` takes ``chunk`` (up to ``_MC_CHUNK`` floats) and
    ``normals`` (a tile of r columns), its statistics ``block`` (n rows of a
    tile), ``row`` and ``shifted`` (a tile each).  So the buffers hold at
    most ``_MC_CHUNK + _SAMPLE_TILE * (r + n) + 2 * _SAMPLE_TILE`` floats,
    with r the widest draw and n the most rows of a sampled block seen: the
    covariance's dimension for a correlated estimate, the set's width for an
    independent one.  That is 3.25 MiB at r = n = 4.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name: str, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(flat.nbytes for flat in self._flat.values())


_held = threading.local()  # .buffers: the _TileBuffers this thread holds, if any


@contextlib.contextmanager
def _holding_tile_buffers():
    """Hold one ``_TileBuffers`` on this thread for the body, and yield it.

    Every Monte Carlo estimate on this thread inside the body reuses it, so
    many short estimates fault their tiles in once instead of once each; it
    is dropped on exit, so its memory lives no longer than the work that
    uses it.  An inner scope on the same thread keeps the outer one's.
    """
    outer = getattr(_held, "buffers", None)
    if outer is not None:
        yield outer
        return
    _held.buffers = _TileBuffers()
    try:
        yield _held.buffers
    finally:
        _held.buffers = None


def _mc_estimate(seed: int, total: int, width: int, stat_of) -> Estimate:
    """Chunked Monte Carlo mean of a per-sample statistic.

    Chunk ``k`` draws a (count, width) block of standard normals from
    ``_chunk_rng(seed, k)``; ``stat_of(z, out, buffers)`` writes one
    statistic per sample of ``z`` into ``out`` and may take work arrays
    from ``buffers`` under names of its own.  The chunk is drawn from its
    generator in tiles of at most ``_SAMPLE_TILE`` samples, which continues
    the one stream exactly as a single (count, width) draw would, and each
    tile's statistics fill their slice of one chunk-long buffer.  Sums and
    sums of squares run over the whole chunk and accumulate in chunk order,
    so the tile size does not change a bit.

    The chunk buffer, the tile of normals and ``stat_of``'s work arrays are
    the ``_TileBuffers`` this thread holds (see ``_holding_tile_buffers``),
    or else ones that live for this call.  They are checked out for the
    call, so an estimate nested in ``stat_of`` would take fresh ones: no
    buffer is handed out twice at once.  Every one is overwritten before it
    is read, so reuse does not change a bit either.
    """
    held = getattr(_held, "buffers", None)
    buffers = held if held is not None else _TileBuffers()
    _held.buffers = None
    try:
        s1 = 0.0
        s2 = 0.0
        done = 0
        chunk = 0
        while done < total:
            count = min(_MC_CHUNK, total - done)
            rng = _chunk_rng(seed, chunk)
            stat = buffers.take("chunk", (count,))
            for t in _sample_tiles(count):
                z = rng.standard_normal(out=buffers.take("normals", (t.stop - t.start, width)))
                stat_of(z, stat[t], buffers)
            s1 += float(stat.sum())
            s2 += float(np.square(stat, out=stat).sum())
            done += count
            chunk += 1
    finally:
        _held.buffers = held
    mean = s1 / total
    var = max((s2 - total * mean * mean) / (total - 1), 0.0)
    return Estimate(mean, Z95 * math.sqrt(var / total), "monte_carlo")


def row_max(y: np.ndarray, cols, shift=None, out=None, tmp=None) -> np.ndarray:
    """Per-sample maximum of ``y[c] + shift[c]`` over the rows ``c`` in ``cols``.

    ``y`` is a coordinate-major sample block: row ``c`` holds every sample of
    coordinate ``c``.  A chain of ``np.maximum`` over the rows.  Equal, bit for
    bit, to ``(y + shift[:, None])[cols].max(axis=0)``: the additions are the
    same elementwise additions and a maximum is exact.  Every operand is a
    contiguous row, so this is many times faster than ``max(axis=0)`` over a
    short axis and than broadcasting ``shift`` over the whole block.

    With ``shift``, the maximum goes into ``out`` when given, and each
    further shifted row into ``tmp`` when given; both are one row long and
    distinct from ``y``'s rows and each other.  Otherwise they are new
    arrays.  Either way the bits are the same.
    """
    first, *rest = cols
    stat = y[first].copy() if shift is None else np.add(y[first], shift[first], out=out)
    if shift is not None and tmp is None:
        tmp = np.empty_like(stat)
    for c in rest:
        row = y[c] if shift is None else np.add(y[c], shift[c], out=tmp)
        np.maximum(stat, row, out=stat)
    return stat


def _scaled_max(means: np.ndarray, stddevs: np.ndarray):
    """``_mc_estimate``'s ``stat_of`` for independent coordinates: the maximum
    of ``means + stddevs * z`` per sample, from the coordinate-major block
    ``stddevs[:, None] * z.T``."""

    def stat_of(z, out, buffers):
        y = np.multiply(z.T, stddevs[:, None], out=buffers.take("block", (len(means), len(out))))
        row_max(y, range(len(means)), means, out=out, tmp=buffers.take("shifted", out.shape))

    return stat_of


def _set_estimates(means: np.ndarray, stddevs: np.ndarray, sets, cfg: EstimatorConfig,
                   seed_of) -> tuple[list, dict]:
    """E[max_{i in S_j} X_i] per set, from float arrays over all independent variables.

    ``auto`` takes the closed forms (on Python floats, so -0.0 passes
    through) for at most two members or at most one nonzero deviation, and
    quadrature otherwise.  The quadrature sets are rows of one batch, each
    left-packed and padded by ``_pad_rows`` to the widest, and one
    ``_quadrature_rows`` call refines them all together.  Monte
    Carlo set j draws from ``seed_of(j)``.  Returns the estimates in set
    order and ``failed`` as in ``_refine``, keyed by set.
    """
    estimates = [None] * len(sets)
    quad = []  # quadrature sets as (j, member indices)
    for j, members in enumerate(sets):
        idx = list(members)
        m, s = means[idx], stddevs[idx]
        method = cfg.method
        if method == "auto":
            method = "closed_form" if len(idx) <= 2 or np.count_nonzero(s) <= 1 else "quadrature"
        if method == "closed_form":
            estimates[j] = Estimate(_closed_form_expected_max(m.tolist(), s.tolist()),
                                    0.0, "closed_form")
        elif method == "quadrature":
            quad.append((j, idx))
        else:
            estimates[j] = _mc_estimate(seed_of(j), cfg.mc_samples, len(idx), _scaled_max(m, s))
    if not quad:
        return estimates, {}
    quad.sort(key=lambda q: len(q[1]))  # rows of one width together, for keys and blocks
    widths = np.array([len(idx) for _, idx in quad])
    var = np.zeros((len(quad), widths[-1]), dtype=int)  # the variable in each real column
    var[np.arange(widths[-1]) < widths[:, None]] = np.concatenate([idx for _, idx in quad])
    values, failed = _quadrature_rows(*_pad_rows(means[var], stddevs[var], widths),
                                      cfg.quadrature_tolerance)
    for (j, _), value in zip(quad, values.tolist()):
        estimates[j] = Estimate(value, 0.0, "quadrature")
    return estimates, {quad[r][0]: value for r, value in failed.items()}


def expected_max_independent(v: GaussianVector, cfg: EstimatorConfig) -> Estimate:
    """E[max_i X_i] for an independent Gaussian vector.

    ``auto`` uses the exact closed forms for n <= 2 or when at most one
    coordinate is non-degenerate, and quadrature otherwise.
    """
    (est,), failed = _set_estimates(np.asarray(v.means), np.asarray(v.stddevs),
                                    [range(v.n)], cfg, lambda j: cfg.seed)
    _check_converged(failed, cfg.quadrature_tolerance)
    return est


def psd_factor(matrix: np.ndarray) -> np.ndarray:
    """Symmetric factor L with L L^T = matrix, tolerating rank deficiency.

    Eigenvalues below -1e-9 raise; eigenvalues at or below ``_RANK_TOL *
    max(largest, 1)``, an absolute 1e-10 under the unit variance budget, are
    treated as exact zeros, so PSD-but-singular matrices such as perfectly
    correlated blocks sample correctly.  Returns an (n, r) factor with r the
    numerical rank.
    """
    sym = 0.5 * (matrix + matrix.T)
    w, vecs = np.linalg.eigh(sym)
    if w[0] < CovarianceSpec.PSD_TOL:
        raise FactorizationError(
            f"matrix violates the PSD tolerance (smallest eigenvalue {w[0]:.3e})"
        )
    cut = _RANK_TOL * max(float(w[-1]), 1.0)
    keep = w > cut
    return vecs[:, keep] * np.sqrt(w[keep])


def _mc_set_maxima(c: CovarianceSpec, cfg: EstimatorConfig, sets, L: np.ndarray) -> Estimate:
    """Monte Carlo mean of sum_j max_{i in S_j} X_i on joint draws X = mu + L z.

    ``L`` is ``psd_factor(c.matrix)``.  Each tile's centred samples are the
    coordinate-major block ``L @ z.T`` (n, count); each entry is the same
    length-r dot product as in ``z @ L.T`` and as in the product over the
    whole chunk, and the short-first product packs far better in BLAS.  It
    is formed by ``np.matmul(L, z.T, out=...)`` in the thread's reused
    ``block``, with the bits of ``L @ z.T`` (a test pins the two).  Set
    maxima add up in set order, starting from the first set's, each into the
    reused ``row``.
    """

    def total(z, out, buffers):
        y = np.matmul(L, z.T, out=buffers.take("block", (L.shape[0], len(out))))
        shifted = buffers.take("shifted", out.shape)
        first, *rest = sets
        row_max(y, first, c.means, out=out, tmp=shifted)
        if rest:
            row = buffers.take("row", out.shape)
            for members in rest:
                out += row_max(y, members, c.means, out=row, tmp=shifted)

    return _mc_estimate(cfg.seed, cfg.mc_samples, L.shape[1], total)


def _segments(c: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each line ``c[..., i] + b[..., i] z`` is the maximum over the lines, as (lo, hi).

    The slopes ``b`` are one row for all rows of ``c``, or one row each.
    Line i is the maximum exactly on [lo, hi]: lo is its largest crossing
    with a line of smaller slope, hi its smallest crossing with a line of
    larger slope, and it never is when a line of equal slope lies higher, or
    as high with a lower index.  Lines that never are, or only at one point,
    get lo = hi = 0.0, where every term below is an exact zero.
    """
    db = b[..., :, None] - b[..., None, :]  # [..., i, k] = b_i - b_k
    dc = c[..., None, :] - c[..., :, None]  # [..., i, k] = c_k - c_i
    with np.errstate(divide="ignore", invalid="ignore"):
        x = dc / db  # where lines i and k cross; masked below where db == 0
    lo = np.where(db > 0, x, -np.inf).max(axis=-1)
    hi = np.where(db < 0, x, np.inf).min(axis=-1)
    earlier = np.tri(b.shape[-1], k=-1, dtype=bool)  # [i, k]: k < i
    beaten = ((db == 0) & ((dc > 0) | ((dc == 0) & earlier))).any(axis=-1)
    live = (lo < hi) & ~beaten
    return np.where(live, lo, 0.0), np.where(live, hi, 0.0)


def _envelope_mean(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """E max_i (c[..., i] + b[..., i] Z), Z ~ N(0, 1), for each row of intercepts ``c``.

    The maximum is the upper envelope of the lines, so with line i on top
    over [lo_i, hi_i] (``_segments``) the value is
    sum_i c_i (Phi(hi_i) - Phi(lo_i)) + b_i (phi(lo_i) - phi(hi_i)).
    """
    lo, hi = _segments(c, b)
    return (c * (ndtr(hi) - ndtr(lo)) + b * (_norm_pdf(lo) - _norm_pdf(hi))).sum(axis=-1)


def _rank2_kinks(mu: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Points t in (-10, 10) where t -> E max_i (mu_i + a_i t + b_i Z) is not smooth.

    Given the first factor coordinate t, the members are the lines with
    intercepts mu_i + a_i t and slopes b_i in the second, Z.  Two lines of
    equal slope cross at one t, and where they lie on the envelope there the
    value has a kink.  Slopes within ``_SLOPE_TOL`` times the largest |b_i|
    count as equal: an eigen-factor gives equal slopes only up to rounding,
    and a crossing of slopes that close is a kink at any panel width.  Three
    lines meet in one point at the t where the determinant of their rows
    (1, b_i, mu_i + a_i t), linear in t, vanishes; where that point is on the
    envelope, a segment appears or vanishes and the second derivative jumps.
    Candidates are checked in chunks of at most ``_SLAB_NODES`` line values,
    so memory stays bounded for any width.
    """
    w = len(mu)
    found = [np.empty(0)]
    tie = _SLOPE_TOL * float(np.abs(b).max())
    i, j = np.triu_indices(w, 1)
    par = (np.abs(b[i] - b[j]) <= tie) & (a[i] != a[j])
    i, j = i[par], j[par]
    t = (mu[j] - mu[i]) / (a[i] - a[j])
    step = max(1, _SLAB_NODES // (w * w))
    for s in range(0, len(t), step):
        lo, hi = _segments(mu + np.multiply.outer(t[s:s + step], a), b)
        live, rows = lo < hi, np.arange(len(lo))
        found.append(t[s:s + step][live[rows, i[s:s + step]] | live[rows, j[s:s + step]]])
    triples = itertools.combinations(range(w), 3)
    while chunk := list(itertools.islice(triples, max(1, _SLAB_NODES // w))):
        p, q, r = np.array(chunk).T

        def det(c):
            return (b[q] - b[p]) * (c[r] - c[p]) - (b[r] - b[p]) * (c[q] - c[p])

        d0, d1 = det(mu), det(a)
        with_q, with_r = np.abs(b[q] - b[p]) > tie, np.abs(b[r] - b[p]) > tie
        ok = (d1 != 0) & (with_q | with_r)  # p has a partner of another slope
        p, q = p[ok], np.where(with_r, r, q)[ok]
        t = -d0[ok] / d1[ok]
        c = mu + np.multiply.outer(t, a)
        rows = np.arange(len(t))
        z = (c[rows, q] - c[rows, p]) / (b[p] - b[q])  # where lines p and q cross
        top = c[rows, p] + b[p] * z
        gap = (c + np.multiply.outer(z, b)).max(axis=1) - top
        found.append(t[gap <= 1e-9 * (1.0 + np.abs(top) + np.abs(z) * np.abs(b).max())])
    t = np.concatenate(found)
    return t[np.abs(t) < _TAIL_SIGMAS]


def _rank2_level(mu, a, b, edges: np.ndarray, subdiv: int) -> float:
    """E max_i (mu_i + a_i T + b_i Z) by composite Gauss-Legendre over T on ``edges``.

    Each panel is split into ``subdiv`` equal parts with a 10-point rule, and
    the inner expectation over Z is ``_envelope_mean`` on chunks of nodes of
    at most ``_SLAB_NODES`` line pairs.
    """
    nodes, weights = _gauss_legendre(_GL_POINTS)
    t, half = _panel_nodes(edges[:-1], edges[1:], subdiv, nodes)
    t, wt = t.T.reshape(-1), _node_weights(half, weights).T.reshape(-1)
    wt *= _norm_pdf(t)
    step = max(1, _SLAB_NODES // (len(mu) * len(mu)))
    inner = np.concatenate([_envelope_mean(mu + np.multiply.outer(t[s:s + step], a), b)
                            for s in range(0, len(t), step)])
    return float((wt * inner).sum())


def _rank2_values(lines, tol: float) -> tuple[np.ndarray, dict]:
    """E max_i (mu_i + a_i T + b_i Z), T and Z independent N(0, 1), per (mu, a, b) of ``lines``.

    The rank-1 value along Z is integrated over T on the panel knots of
    quadrature in [-10, 10] plus the kinks of ``_rank2_kinks``, and all
    lines are refined together by ``_refine``, whose ``(values, failed)``
    this returns.
    """
    args = [(mu, a, b, np.unique(np.concatenate([_KNOTS, _rank2_kinks(mu, a, b)])))
            for mu, a, b in lines]
    return _refine(lambda rows, subdiv: np.array(
        [_rank2_level(*args[k], subdiv) for k in rows]), len(args), tol)


def _exact_set_maxima(c: CovarianceSpec, L: np.ndarray, sets,
                      tol: float) -> tuple[np.ndarray, dict]:
    """E max_{i in S_j} X_i per set j for X = mu + L z with a factor of rank r <= 2.

    Rank 0 and 1 are closed forms: the envelope value of ``_envelope_mean``
    with z scalar (at rank 0 one constant line, the largest mean), as is a
    set with at most one member of nonzero variance at rank 2.  Rank 2
    integrates the rank-1 value over the first coordinate of z
    (``_rank2_values``, all rank-2 sets together).  Returns the values in set
    order and ``failed`` as in ``_refine``, keyed by set.
    """
    rank = L.shape[1]
    # A zero variance is a constant; its factor row may hold rounding residue.
    L = np.where(np.diag(c.matrix)[:, None] > 0, L, 0.0) if rank else np.zeros((c.n, 1))
    per_set = np.zeros(len(sets))
    rank2, lines = [], []  # the rank-2 sets j and their (mu, a, b)
    for j, members in enumerate(sets):
        idx = list(members)
        mu, f = c.means[idx], L[idx]
        if rank < 2 or np.count_nonzero(f.any(axis=1)) < 2:
            # One dimension: the factor's column, or the length of the one loaded row.
            per_set[j] = _envelope_mean(mu, f[:, 0] if rank < 2 else np.hypot(*f.T))
            continue
        rank2.append(j)
        lines.append((mu, *f.T))
    values, failed = _rank2_values(lines, tol)
    per_set[rank2] = values
    return per_set, {rank2[k]: v for k, v in failed.items()}


def _bivariate_cdf(h, k, rho, s):
    """P(U <= h, V <= k) for standard normals U, V of correlation rho, given
    s = sqrt(1 - rho^2) > 0, by Owen's (1956) T function:

        1/2 Phi(h) + 1/2 Phi(k) - T(h, (k - rho h) / (h s)) - T(k, (h - rho k) / (k s)) - beta,

    beta = 1/2 when h and k have opposite signs and 0 otherwise.  Where one
    limit is 0 this is 1/2 Phi(x) - T(x, -rho / s) in the other limit x, and
    at h = k = 0 it is 1/4 + arcsin(rho) / (2 pi).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        general = (0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, (k - rho * h) / (h * s))
                   - owens_t(k, (h - rho * k) / (k * s)) - np.where((h < 0) != (k < 0), 0.5, 0.0))
    axis = 0.5 * ndtr(h + k) - owens_t(h + k, -rho / s)
    origin = 0.25 + np.arctan2(rho, s) / (2.0 * math.pi)
    return np.where((h == 0) & (k == 0), origin, np.where((h == 0) | (k == 0), axis, general))


# Lines (i, l, k) cycled: pair (i, l) with the third line k, and line i with its rivals l and k.
_CYCLE = (np.array([0, 1, 2]), np.array([1, 2, 0]), np.array([2, 0, 1]))


def _three_line_closed_form(mu: np.ndarray, H: np.ndarray) -> np.ndarray:
    """E max of three lines whose differences span two dimensions, per row.

    ``H[r, a, b]`` is Cov(X_a - X_0, X_b - X_0) of row r.  Stein's identity
    gives E max = sum_i mu_i P_i + sum_{pairs il} theta_il phi(alpha_il)
    Phi(gamma_k|il), with theta_il the deviation of X_i - X_l, alpha_il =
    (mu_i - mu_l) / theta_il, Phi(gamma_k|il) = P(X_k <= X_i | X_i = X_l) and
    P_i = P(X_i >= X_l, X_i >= X_k), a bivariate normal orthant
    (``_bivariate_cdf``).  The pair term is Clark's (1961) for X_i and X_l,
    weighted by the chance that the third line is below both.  Every
    conditional variance and orthant correlation is taken from the Gram
    determinant of the differences, which is the same for any base line.
    """
    i, l, k = _CYCLE
    diag = np.diagonal(H, axis1=1, axis2=2)
    theta2 = diag[:, i] + diag[:, l] - 2.0 * H[:, i, l]
    theta = np.sqrt(theta2)
    root = np.sqrt(H[:, 1, 1] * H[:, 2, 2] - H[:, 1, 2] * H[:, 1, 2])[:, None]
    alpha = (mu[:, i] - mu[:, l]) / theta
    lift = H[:, k, i] - H[:, k, l] - diag[:, i] + H[:, i, l]  # Cov(X_k - X_i, X_i - X_l)
    gamma = ((mu[:, i] - mu[:, k]) * theta2 + lift * (mu[:, i] - mu[:, l])) / (theta * root)
    pair = theta * _norm_pdf(alpha) * ndtr(gamma)
    # Line i above l and k: alpha_ik = -alpha of pair (k, i).
    spread = theta * theta[:, k]
    rho = (diag[:, i] - H[:, i, k] - H[:, l, i] + H[:, l, k]) / spread
    top = mu * _bivariate_cdf(alpha, -alpha[:, k], rho, root / spread)
    return top[:, 0] + top[:, 1] + top[:, 2] + (pair[:, 0] + pair[:, 1] + pair[:, 2])


def _three_line_maxima(means, covs, tol: float) -> tuple[np.ndarray, np.ndarray, dict]:
    """E max_i X_i for K jointly Gaussian sets of at most three lines each.

    ``means`` is (K, w) and ``covs`` (K, w, w), w <= 3; no factor is needed.
    A constant, such as a floor, is a line of zero variance, and a narrower
    set is padded with copies of line 0, which change no value.  E max
    depends only on the means and the differences X_i - X_0, so each set is
    routed by d, the number of eigenvalues of the Gram matrix G of those
    differences above ``psd_factor``'s cut:

    - d <= 1: X_i - X_0 = beta_i Z for one standard normal Z, so the value is
      ``_envelope_mean`` with slopes beta_i (all 0 at d = 0: the largest mean);
    - d = 2: ``_three_line_closed_form``, where det G >= ``_GRAM_TOL`` G_11
      G_22, and below that the rank-2 quadrature (``_rank2_values``) on the
      factor rows (0, 0) and the eigen-factor of G, its smaller direction
      outer.

    Row r's value does not depend on the other rows.  Returns the values, a
    mask of the sets that took quadrature, and ``failed`` as in ``_refine``.
    """
    means, covs = np.asarray(means, dtype=float), np.asarray(covs, dtype=float)
    cols = np.where(np.arange(3) < means.shape[1], np.arange(3), 0)
    mu, cov = means[:, cols], covs[:, cols[:, None], cols]
    # Cov(X_a - X_0, X_b - X_0), added so that it is symmetric bit for bit.
    H = (cov + cov[:, :1, :1]) - (cov[:, :, :1] + cov[:, :1, :])
    G = H[:, 1:, 1:]
    lam, vec = np.linalg.eigh(G)
    lam = np.where(lam > _RANK_TOL * np.maximum(lam[:, 1:], 1.0), lam, 0.0)
    factor = np.zeros((len(mu), 3, 2))
    factor[:, 1:] = vec * np.sqrt(lam)[:, None, :]
    plane = lam[:, 0] > 0.0
    closed = plane & (G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 0, 1]
                      >= _GRAM_TOL * G[:, 0, 0] * G[:, 1, 1])
    integrated = plane & ~closed
    values = np.empty(len(mu))
    values[~plane] = _envelope_mean(mu[~plane], factor[~plane, :, 1])
    values[closed] = _three_line_closed_form(mu[closed], H[closed])
    rows = np.flatnonzero(integrated)
    values[rows], failed = _rank2_values([(mu[r], *factor[r].T) for r in rows], tol)
    return values, integrated, {int(rows[k]): v for k, v in failed.items()}


def _correlated_set_maxima(c: CovarianceSpec, cfg: EstimatorConfig, sets) -> tuple[Estimate, dict]:
    """sum_j E max_{i in S_j} X_i for X ~ N(mu, Sigma), routed set by set.

    Under ``auto`` and ``quadrature`` every set of at most three members
    takes ``_three_line_maxima``, exact at any rank.  The other sets are
    routed by the rank r of ``psd_factor(Sigma)``: ``_exact_set_maxima`` at
    r <= 2, and under ``auto`` ``_mc_set_maxima`` otherwise, where
    ``quadrature`` raises ``ValueError``.  ``monte_carlo`` samples every set
    and ``closed_form`` raises.  Exact set values add up in set order and a
    sampled total comes last.  The label is ``monte_carlo`` when every set
    samples, ``mixed`` when some do, ``quadrature`` when a value was
    integrated (every rank-2 set of four or more members counts) and
    ``closed_form`` otherwise.  Returns ``(estimate, failed)``, ``failed``
    keyed by set.
    """
    if cfg.method == "closed_form":
        raise ValueError("correlated estimation has no closed form for a whole matrix; "
                         "use auto, quadrature or monte_carlo")
    small = [] if cfg.method == "monte_carlo" else [j for j, s in enumerate(sets) if len(s) <= 3]
    wide = sorted(set(range(len(sets))) - set(small))
    per_set, failed, methods, sampled = np.zeros(len(sets)), {}, set(), None
    if small:
        var = np.array([[*s, *[s[0]] * (3 - len(s))] for s in (list(sets[j]) for j in small)])
        values, integrated, fail = _three_line_maxima(
            c.means[var], c.matrix[var[:, :, None], var[:, None, :]], cfg.quadrature_tolerance)
        per_set[small] = values
        failed.update((small[r], v) for r, v in fail.items())
        methods.add("quadrature" if integrated.any() else "closed_form")
    if wide:
        L = psd_factor(c.matrix)
        if cfg.method == "monte_carlo" or (cfg.method == "auto" and L.shape[1] > 2):
            sampled = _mc_set_maxima(c, cfg, [sets[j] for j in wide], L)
            if not small:
                return sampled, {}
        elif L.shape[1] > 2:
            raise ValueError("correlated quadrature needs a factor of rank <= 2 for a set of "
                             f"more than three members, got rank {L.shape[1]}")
        else:
            values, fail = _exact_set_maxima(c, L, [sets[j] for j in wide],
                                             cfg.quadrature_tolerance)
            per_set[wide] = values
            failed.update((wide[r], v) for r, v in fail.items())
            methods.add("quadrature" if L.shape[1] == 2 else "closed_form")
    value = 0.0
    for j in (range(len(sets)) if sampled is None else small):
        value += float(per_set[j])
    if sampled is not None:
        return Estimate(value + sampled.value, sampled.half_width, "mixed"), failed
    return Estimate(value, 0.0, "quadrature" if "quadrature" in methods else "closed_form"), failed


def expected_max_correlated(c: CovarianceSpec, cfg: EstimatorConfig) -> Estimate:
    """E[max_i X_i] for X ~ N(mu, Sigma): exact for n <= 3 or rank <= 2, else seeded Monte Carlo.

    Under ``auto`` at most three variables get ``_three_line_maxima``, a
    closed form at any rank (quadrature near concurrency); more variables
    get a closed form at rank 0 or 1 and quadrature at rank 2, all with
    half-width 0.  Four or more variables of a higher rank, or
    ``monte_carlo``, get a Monte Carlo estimate, deterministic given the
    seed.
    """
    est, failed = _correlated_set_maxima(c, cfg, [range(c.n)])
    _check_converged(failed, cfg.quadrature_tolerance)
    return est


def graph_objective(inst: Instance, alloc: AllocationVector, cfg: EstimatorConfig) -> Estimate:
    """Sum over sets of E[max over the member variables].

    Sets go through the evaluator of ``expected_max_independent``, so each
    gets the bits of that call; quadrature sets are refined together by
    ``_quadrature_rows``.  Values add up in set order.
    A set that does not converge raises ``QuadratureError("set j: ...")``,
    naming the lowest such j.  Monte Carlo sets draw from independent
    per-set streams, so confidence half-widths combine in quadrature.
    """
    if len(alloc.stddevs) != inst.n:
        raise ValueError(f"allocation has length {len(alloc.stddevs)}, expected {inst.n}")
    estimates, failed = _set_estimates(inst.means_array(), alloc.stddevs_array(), inst.sets,
                                       cfg, lambda j: derive_seed(cfg.seed, f"set:{j}"))
    # Chained to the one-set error that expected_max_independent raises.
    _check_converged(failed, cfg.quadrature_tolerance, name_set=True)
    value = 0.0
    var_sum = 0.0
    for est in estimates:
        value += est.value
        var_sum += est.half_width**2
    methods = {est.method_used for est in estimates}
    method = methods.pop() if len(methods) == 1 else "mixed"
    return Estimate(value, math.sqrt(var_sum), method)


def graph_objective_correlated(inst: Instance, c: CovarianceSpec, cfg: EstimatorConfig) -> Estimate:
    """Sum over sets of E[max over the member variables] for X ~ N(mu, Sigma).

    Routed set by set as ``expected_max_correlated`` (``_correlated_set_maxima``):
    exact for a set of at most three members and, at rank <= 2, for every
    set, where a set that does not converge raises
    ``QuadratureError("set j: ...")``; the other sets take per-set maxima of
    shared joint draws.
    """
    if c.n != inst.n:
        raise ValueError(f"covariance dimension {c.n} does not match instance n={inst.n}")
    est, failed = _correlated_set_maxima(c, cfg, inst.sets)
    _check_converged(failed, cfg.quadrature_tolerance, name_set=True)
    return est
