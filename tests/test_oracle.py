"""Estimator tests: closed forms, quadrature vs an independent scipy oracle,
Monte Carlo calibration, and the module invariants."""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import ndtr

from varalloc import cli, solvers
from varalloc.instances import (
    AllocationVector,
    Instance,
    complete_k_subsets_instance,
    cycle_instance,
)
from varalloc.oracle import (
    CovarianceSpec,
    Estimate,
    EstimatorConfig,
    FactorizationError,
    GaussianVector,
    QuadratureError,
    expected_max_batch,
    expected_max_correlated,
    expected_max_independent,
    expected_max_pair,
    expected_max_with_floor,
    graph_objective,
    graph_objective_correlated,
    psd_factor,
    row_max,
)
import varalloc.oracle as oracle

PHI0 = 0.3989422804014327          # pdf of the standard normal at 0
INV_SQRT_PI = 0.5641895835477563   # 1/sqrt(pi)
EMAX3 = 0.8462843753216345         # E max of 3 iid standard normals = 3/(2 sqrt(pi))
PHI1_PLUS_PDF1 = 1.0833154705876864


def scipy_expected_max(means, stddevs):
    """Independent oracle: tail-integral identity via scipy adaptive quadrature."""
    means = np.asarray(means, dtype=float)
    stddevs = np.asarray(stddevs, dtype=float)
    if stddevs.max() == 0:
        return float(means.max())
    T = float(np.abs(means).max() + 12.0 * stddevs.max() + 1.0)

    def cdf(t):
        out = 1.0
        for m, s in zip(means, stddevs):
            out *= ndtr((t - m) / s) if s > 0 else float(t >= m)
        return out

    steps = sorted({float(m) for m, s in zip(means, stddevs) if s == 0 and -T < m < T})
    upper = quad(lambda t: 1.0 - cdf(t), 0.0, T, epsabs=1e-12, limit=400,
                 points=[p for p in steps if p > 0] or None)[0]
    lower = quad(cdf, -T, 0.0, epsabs=1e-12, limit=400,
                 points=[p for p in steps if p < 0] or None)[0]
    return upper - lower


def _full_product_expected_max(means, stddevs, subdiv, points=10):
    """Reference for ``expected_max_batch``: the same panels as one slab, and
    the survival product taken over every coordinate, in the order of the
    bytes of (deviation, mean), with ``ndtr`` on every node (a degenerate
    coordinate contributes 1.0), under the ``points``-point Gauss-Legendre rule."""
    stddevs = np.atleast_2d(np.asarray(stddevs, dtype=float))
    means = np.broadcast_to(np.asarray(means, dtype=float), stddevs.shape)
    ncand, n = stddevs.shape
    order = np.lexsort((means.view(np.uint64), stddevs.view(np.uint64)), axis=1)
    means = np.take_along_axis(means, order, axis=1)
    stddevs = np.take_along_axis(stddevs, order, axis=1)
    lo = (means - 10.0 * stddevs).max(axis=1)
    hi = (means + 10.0 * stddevs).max(axis=1)
    bps = (means[:, None, :] + stddevs[:, None, :] * oracle._KNOTS[:, None]).reshape(ncand, -1)
    bps = np.concatenate([bps, np.zeros((ncand, 1))], axis=1)
    np.clip(bps, lo[:, None], hi[:, None], out=bps)
    edges = np.concatenate([lo[:, None], bps, hi[:, None]], axis=1)
    edges.sort(axis=1)
    a = edges[:, :-1]
    b = edges[:, 1:]
    if subdiv > 1:
        frac = np.linspace(0.0, 1.0, subdiv + 1)
        width = b - a
        a = (a[:, :, None] + width[:, :, None] * frac[:-1]).reshape(ncand, -1)
        b = (b[:, :, None] - width[:, :, None] * (1.0 - frac[1:])).reshape(ncand, -1)
    half = 0.5 * (b - a)
    nodes, weights = leggauss(points)
    t = (a[:, :, None] + half[:, :, None] * (nodes + 1.0)).reshape(ncand, -1)
    wt = (half[:, :, None] * weights).reshape(ncand, -1)
    prod = np.ones_like(t)
    for i in range(n):
        s = stddevs[:, i, None]
        m = means[:, i, None]
        z = (t - m) / np.where(s > 0, s, 1.0)
        prod *= np.where(s > 0, ndtr(z), 1.0)
    return lo + ((1.0 - prod) * wt).sum(axis=1)


def _positive_width_share(means, stddevs):
    """Share of a slab's panels (before subdivision) with positive width."""
    lo = (means - 10.0 * stddevs).max(axis=1, keepdims=True)
    hi = (means + 10.0 * stddevs).max(axis=1, keepdims=True)
    knots = (means[:, None, :] + stddevs[:, None, :] * oracle._KNOTS[:, None]).reshape(len(lo), -1)
    edges = np.sort(np.concatenate(
        [lo, np.clip(knots, lo, hi), np.clip(np.zeros_like(lo), lo, hi), hi], axis=1), axis=1)
    return float((edges[:, 1:] > edges[:, :-1]).mean())


SLAB_KINDS = ["zero_columns", "dominated", "repeated", "random", "degenerate", "live_sets",
              "wide_equal", "signed_zero", "random4"]


def _slab_case(kind):
    """(means, stddevs) for the bit tests against the full-product reference."""
    rng = np.random.default_rng(SLAB_KINDS.index(kind))
    if kind == "degenerate":
        # lo == hi in every row: no panel has positive width, no entry is live.
        means = rng.choice([0.0, -0.0, 0.5], (6, 5))
        means[1] = -0.0
        return means, np.zeros((6, 5))
    if kind == "live_sets":
        # Two or three live entries per row, at different columns; column 0
        # of the last rows is a point mass above every other member's reach.
        means = rng.uniform(0.0, 1.0, (8, 9))
        sigs = np.where(rng.random((8, 9)) < 0.3, rng.uniform(0.1, 0.6, (8, 9)), 0.0)
        sigs[:, 0] = 0.0
        sigs[np.arange(8), rng.integers(1, 9, 8)] = 0.4
        means[6:, 0] = 20.0
        sigs[6:, 1:4] = 0.5
        return means, sigs
    if kind == "wide_equal":
        return np.zeros((1, 256)), np.full((1, 256), 1 / 16)
    if kind == "signed_zero":
        means = np.array([[-0.0, 0.0, 0.5, 0.0], [-0.0, 0.0, -0.0, 0.0],
                          [0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, 0.25, 0.25]])
        sigs = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
                         [0.25, 0.25, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]])
        return means, sigs
    if kind == "random4":
        means = rng.uniform(0.0, 0.1, (40, 4))
        sigs = rng.uniform(0.5, 1.0, (40, 4))
        sigs[rng.random((40, 4)) < 0.1] = 0.0
        return means, sigs
    means = rng.uniform(-2, 2, (12, 9))
    sigs = rng.uniform(0, 1.5, (12, 9))
    if kind == "zero_columns":
        sigs[:, [1, 4, 5]] = 0.0
        sigs[rng.random(sigs.shape) < 0.2] = 0.0
    elif kind == "dominated":
        # Column 0 is a point mass at 40, so lo >= 40: a coordinate with
        # mu_i + 10 s_i <= 40 is dominated in its row, the others are not.
        means[:, 0], sigs[:, 0] = 40.0, 0.0
        means[:, 1:] += 35.0
        sigs[:, 1:] += 1.0
        means[::2, 1:] -= 25.0
        means[1::4, 1:5] -= 25.0
        assert ((means + 10 * sigs <= 40.0) & (sigs > 0)).any(axis=0)[1:].all()
        assert ((means + 10 * sigs > 40.0) & (sigs > 0)).any(axis=0)[1:].all()
    elif kind == "repeated":
        means[:, :] = [0.0, 0.0, -0.0, -0.0, 0.5, 0.5, 0.5, -0.0, 0.5]
        sigs[:, :] = sigs[:, [0]]
        sigs[:, 6] *= 0.5  # the means of column 5, other deviations
        sigs[:, 8] = 0.0
    return means, sigs


class TestClosedForms:
    def test_floor_spot_values(self):
        assert expected_max_with_floor(0, 1, 0) == pytest.approx(PHI0, abs=1e-12)
        assert expected_max_with_floor(5, 0, 0) == 5
        assert expected_max_with_floor(1, 1, 0) == pytest.approx(PHI1_PLUS_PDF1, abs=1e-12)

    def test_pair_spot_values(self):
        assert expected_max_pair(0, 1, 0, 1) == pytest.approx(INV_SQRT_PI, abs=1e-12)
        assert expected_max_pair(0, 1, 0, 0) == pytest.approx(
            expected_max_with_floor(0, 1, 0), abs=1e-15
        )
        assert expected_max_pair(3, 0, 1, 0) == 3

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            expected_max_with_floor(math.nan, 1, 0)
        with pytest.raises(ValueError):
            expected_max_with_floor(0, -1, 0)
        with pytest.raises(ValueError):
            expected_max_pair(0, 1, math.inf, 1)

    @given(
        mu=st.floats(-20, 20),
        sigma=st.floats(0, 5),
        floor=st.floats(-20, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_floor_dominates_inputs(self, mu, sigma, floor):
        val = expected_max_with_floor(mu, sigma, floor)
        assert val >= max(mu, floor) - 1e-12

    @given(
        mu1=st.floats(-10, 10), s1=st.floats(0, 3),
        mu2=st.floats(-10, 10), s2=st.floats(0, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_pair_symmetric(self, mu1, s1, mu2, s2):
        a = expected_max_pair(mu1, s1, mu2, s2)
        b = expected_max_pair(mu2, s2, mu1, s1)
        assert a == pytest.approx(b, abs=1e-12)
        assert a >= max(mu1, mu2) - 1e-12


class TestQuadrature:
    def test_spot_values(self):
        cfg = EstimatorConfig(method="quadrature")
        est = expected_max_independent(GaussianVector((0, 0, 0), (1, 1, 1)), cfg)
        assert est.method_used == "quadrature"
        assert est.half_width == 0.0
        assert est.value == pytest.approx(EMAX3, abs=1e-9)
        pair = expected_max_independent(
            GaussianVector((0, 0), (2**-0.5, 2**-0.5)), cfg
        )
        assert pair.value == pytest.approx(PHI0, abs=1e-9)

    def test_matches_scipy_oracle_on_random_vectors(self):
        rng = np.random.default_rng(11)
        cfg = EstimatorConfig(method="quadrature")
        for _ in range(40):
            n = int(rng.integers(1, 7))
            means = rng.uniform(-2, 2, n)
            sig = rng.uniform(0, 1, n)
            sig[rng.random(n) < 0.3] = 0.0
            ref = scipy_expected_max(means, sig)
            est = expected_max_independent(GaussianVector(means, sig), cfg)
            assert est.value == pytest.approx(ref, abs=5e-9)

    def test_batch_agrees_with_single(self):
        rng = np.random.default_rng(7)
        means = rng.uniform(-1, 1, 5)
        sigs = rng.uniform(0, 1, (64, 5))
        sigs[rng.random((64, 5)) < 0.25] = 0.0
        batch = expected_max_batch(means, sigs)
        cfg = EstimatorConfig(method="quadrature")
        for row, val in zip(sigs, batch):
            est = expected_max_independent(GaussianVector(means, row), cfg)
            assert val == pytest.approx(est.value, abs=1e-9)

    def test_slab_memory_bounded_and_rows_independent_of_slab(self):
        # 2048 rows at n=8 hold 2.5M nodes.  Slabs keep each node temporary
        # at _SLAB_NODES float64s (2^15, 256 KiB: 26 rows here), and the
        # batch holds fewer than eight such temporaries at once, so the peak
        # stays under 2 MiB; a 2048-row slab would need about 120 MiB.
        import tracemalloc

        from varalloc.oracle import _SLAB_NODES

        rng = np.random.default_rng(11)
        means = rng.uniform(0, 1, (2048, 8))
        sigs = rng.uniform(0, 0.5, (2048, 8))
        sigs[rng.random((2048, 8)) < 0.25] = 0.0
        tracemalloc.start()
        try:
            batch = expected_max_batch(means, sigs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _SLAB_NODES * 8
        rows = np.array([expected_max_batch(m, s)[0] for m, s in zip(means, sigs)])
        assert np.array_equal(batch, rows)

    @pytest.mark.parametrize("kind", SLAB_KINDS)
    def test_bits_match_full_product_reference(self, kind):
        means, sigs = _slab_case(kind)
        live = sigs > 0
        if kind == "degenerate":
            assert _positive_width_share(means, sigs) == 0.0 and not live.any()
        elif kind == "live_sets":
            assert len({tuple(row) for row in live}) > 1  # rows differ in their live columns
        for subdiv in (1, 2, 4):
            want = _full_product_expected_max(means, sigs, subdiv)
            got = expected_max_batch(means, sigs, subdiv=subdiv)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            for r in range(len(means)):
                one = expected_max_batch(means[r], sigs[r], subdiv=subdiv)
                assert one.view(np.int64)[0] == want.view(np.int64)[r]

    @pytest.mark.parametrize("kind", [*SLAB_KINDS, "ragged"])
    def test_pad_columns_change_no_bit(self, kind):
        if kind == "ragged":
            # _pad_rows cuts rows of 33, 1, 257 and 5 real columns out of one
            # array; each padded row has the bits of one call on its real columns.
            widths = np.array([33, 1, 257, 5])
            rng = np.random.default_rng(7)
            means, sigs = rng.uniform(-1.0, 1.0, (4, 257)), rng.uniform(0.0, 0.5, (4, 257))
            sigs[rng.random(sigs.shape) < 0.2] = 0.0
            padded_m, padded_s = oracle._pad_rows(means, sigs, widths)
            pads = np.arange(257) >= widths[:, None]
            assert (padded_m[pads] == -np.inf).all() and (padded_s[pads] == 0.0).all()
            for subdiv in (1, 2, 4):
                want = np.array([expected_max_batch(m[:w], s[:w], subdiv=subdiv)[0]
                                 for m, s, w in zip(means, sigs, widths)])
                got = expected_max_batch(padded_m, padded_s, subdiv=subdiv)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
            return
        # Pad columns (-inf, 0) inserted in front of, between and after the
        # real ones, the same in every row.
        means, sigs = _slab_case(kind)
        n = means.shape[1]
        at = [0, n // 2, n // 2, n]
        padded_m = np.insert(means, at, -np.inf, axis=1)
        padded_s = np.insert(sigs, at, 0.0, axis=1)
        for subdiv in (1, 2, 4):
            want = expected_max_batch(means, sigs, subdiv=subdiv)
            got = expected_max_batch(padded_m, padded_s, subdiv=subdiv)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_pad_neutrality_reaches_the_count_tables(self):
        # Row h of the a table, h unit deviations and a zero padded to the
        # widest set, has the bits of its unpadded row.
        a, _ = solvers._count_tables([3, 5, 9], 1e-9)
        for h, value in enumerate(a):
            est = expected_max_independent(GaussianVector([0.0] * (h + 1), [1.0] * h + [0.0]),
                                           EstimatorConfig(method="quadrature"))
            assert np.float64(value).view(np.int64) == np.float64(est.value).view(np.int64)

    def test_ndtr_is_exactly_one_where_factors_are_skipped(self):
        assert ndtr(np.inf) == 1.0
        assert ndtr(np.nextafter(10.0, 0.0)) == 1.0

    def test_ndtr_calls_follow_distinct_live_columns(self, monkeypatch):
        calls = []

        def counting_ndtr(z):
            calls.append(z.size)
            return ndtr(z)

        monkeypatch.setattr(oracle, "ndtr", counting_ndtr)
        wide = np.full((1, 256), 1 / 16)
        for subdiv in (1, 2, 4):
            calls.clear()
            expected_max_batch(0.0, wide, subdiv=subdiv)
            assert len(calls) == 1
            # Equal knots leave at most 15 positive-width panels of 3,842, and
            # only those get nodes.
            assert calls[0] <= 15 * 10 * subdiv
        calls.clear()
        est = expected_max_independent(GaussianVector([0.0] * 256, wide[0]),
                                       EstimatorConfig(method="quadrature"))
        # One call on the first level's 10 + 8 nodes per panel; the companion
        # agrees, so the row closes with the bits of subdiv 1.
        assert len(calls) == 1 and calls[0] <= 15 * 18
        assert est.value == expected_max_batch(0.0, wide, subdiv=1)[0]

        # A point mass sets the lower limit above many knots of the other
        # columns: 66 of the 3 x 62 panels have positive width, and only
        # their nodes reach ndtr.
        rng = np.random.default_rng(5)
        sigs = rng.uniform(0.5, 1.0, (3, 4))
        sigs[:, 2] = 0.0
        means = rng.uniform(0, 0.1, 4)
        assert round(_positive_width_share(np.tile(means, (3, 1)), sigs) * 3 * 62) == 66
        calls.clear()
        expected_max_batch(means, sigs)
        assert calls == [66 * 10] * 3
        # A random 4-wide row: 56 of its 62 panels have positive width.
        means, sigs = rng.uniform(0, 0.1, (1, 4)), rng.uniform(0.5, 1.0, (1, 4))
        assert round(_positive_width_share(means, sigs) * 62) == 56
        calls.clear()
        expected_max_batch(means, sigs)
        assert calls == [560] * 4

        # Two live columns per row, four in the slab: packed to two.
        calls.clear()
        expected_max_batch(rng.uniform(0, 0.1, (2, 4)),
                           [[0.6, 0.7, 0.0, 0.0], [0.0, 0.0, 0.8, 0.9]])
        assert len(calls) == 2

    def test_scale_monotonicity(self):
        # Zero-mean: scaling all deviations by c scales the value by exactly c.
        cfg = EstimatorConfig(method="quadrature")
        base = np.array([0.7, 0.2, 0.4, 0.1])
        v0 = expected_max_independent(GaussianVector((0,) * 4, base), cfg).value
        for c in (1.5, 2.0, 7.0):
            vc = expected_max_independent(GaussianVector((0,) * 4, c * base), cfg).value
            assert vc / c == pytest.approx(v0, abs=1e-8)

    def test_degenerate_consistency(self):
        cfg = EstimatorConfig(method="quadrature")
        v = GaussianVector((0.3, -0.1, 0.5), (0.8, 0.4, 0.2))
        with_low = GaussianVector((0.3, -0.1, 0.5, -1e6), (0.8, 0.4, 0.2, 0.0))
        a = expected_max_independent(v, cfg).value
        b = expected_max_independent(with_low, cfg).value
        assert abs(a - b) < 1e-9

    def test_floor_identity(self):
        # A point mass inside a vector equals the floored closed form.
        cfg = EstimatorConfig(method="quadrature")
        for mu, sig, t in [(0.2, 0.9, 0.0), (-0.4, 0.3, 0.5), (1.0, 1.0, 1.0)]:
            vec = GaussianVector((mu, t), (sig, 0.0))
            got = expected_max_independent(vec, cfg).value
            assert got == pytest.approx(expected_max_with_floor(mu, sig, t), abs=1e-9)

    def test_nonconvergence_raises_with_best_estimate(self, monkeypatch):
        import varalloc.oracle as oracle

        # The first level's companion (2.0) misses its value (1.0), and no
        # later level agrees with the one before.
        calls = iter([[[1.0], [2.0]], [[1.5]], [[1.25]], [[1.375]], [[1.3125]]])

        def fake_rules(means, stddevs, subdiv, rules):
            return np.array(next(calls))

        monkeypatch.setattr(oracle, "_expected_max_rules", fake_rules)
        with pytest.raises(QuadratureError) as exc:
            expected_max_independent(GaussianVector([0.0], [1.0]),
                                     EstimatorConfig(method="quadrature"))
        assert exc.value.estimate == 1.3125
        # One vector is not a set of a graph: no "set j:" prefix, no chained cause.
        assert re.match(r"set \d+:", str(exc.value)) is None
        assert str(exc.value).startswith("quadrature did not reach tolerance 1e-09")
        assert exc.value.__cause__ is None


class TestBatchColumns:
    """``expected_max_batch`` reads real columns (finite mean, finite deviation >= 0)
    and pad columns (-inf, 0), and refuses anything else before any work."""

    @pytest.mark.parametrize("means, sigs, where", [
        ([[0.0, 0.0]], [[-1.0, 1.0]], "row 0, column 0"),  # 10.0 if read as is; 0.564 with |s|
        ([[0.0, 0.0], [0.0, np.nan]], [[1.0, 1.0], [1.0, 1.0]], "row 1, column 1"),
        ([[0.0, np.inf]], [[1.0, 1.0]], "row 0, column 1"),
        ([[0.0, 0.0]], [[1.0, np.inf]], "row 0, column 1"),
        ([[0.0, 0.0]], [[np.nan, 1.0]], "row 0, column 0"),
        ([[0.0, -np.inf]], [[1.0, 0.5]], "row 0, column 1"),  # -inf with a deviation is no pad
    ])
    def test_invalid_column_names_row_and_column(self, means, sigs, where):
        with pytest.raises(ValueError, match=f"^{where}: "):
            expected_max_batch(np.array(means), np.array(sigs))

    @pytest.mark.parametrize("means, sigs, row", [
        (np.zeros((1, 0)), np.zeros((1, 0)), 0),
        ([[0.0, -np.inf], [-np.inf, -np.inf]], np.zeros((2, 2)), 1),
    ])
    def test_row_without_real_column(self, means, sigs, row):
        with pytest.raises(ValueError, match=f"^row {row} has no real column$"):
            expected_max_batch(np.array(means), sigs)

    @pytest.mark.parametrize("width", [0, 1, 6])
    def test_no_rows_give_an_empty_array(self, width):
        out = expected_max_batch(np.zeros((0, width)), np.zeros((0, width)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("subdiv", [0, -1, 2.5, 2.0, np.float64(2.0), True, "2", None])
    def test_subdiv_must_be_a_positive_int(self, subdiv):
        # Unchecked, 0 would divide by zero, -1 make a negative dimension and
        # 2.5 raise a TypeError; an empty batch is refused as well.
        for shape in ((1, 3), (0, 3)):
            with pytest.raises(ValueError, match=r"^subdiv must be a positive int, got "):
                expected_max_batch(np.zeros(shape), np.ones(shape), subdiv=subdiv)

    def test_numpy_int_subdiv_is_an_int(self):
        means, sigs = np.zeros((2, 3)), np.array([[0.5, 0.25, 1.0], [0.1, 0.2, 0.3]])
        want = expected_max_batch(means, sigs, subdiv=2)
        assert np.array_equal(expected_max_batch(means, sigs, subdiv=np.int64(2)), want)

    def test_signed_zero_deviation_and_pad_are_accepted(self):
        got = expected_max_batch(np.array([[0.25, 1.0, -np.inf]]), np.array([[-0.0, 0.0, -0.0]]))
        assert got.tolist() == [1.0]


class TestParallelMap:
    """``oracle._pmap``: ordered results, one pool, lowest-index errors."""

    def test_results_in_item_order_under_stress(self, monkeypatch):
        # More workers than cores and a short switch interval, so that a lost
        # or repeated hand-out of an index would show in ``calls``.
        import sys

        monkeypatch.setattr(oracle, "_workers", lambda: 8)
        monkeypatch.setattr(oracle, "_pool", None)
        calls = [0] * 2000

        def square(x):
            calls[x] += 1
            return x * x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = oracle._pmap(square, range(2000))
        finally:
            sys.setswitchinterval(interval)
            oracle._pool.shutdown()
        assert got == [x * x for x in range(2000)]
        assert calls == [1] * 2000

    def test_empty_input(self):
        assert oracle._pmap(lambda x: x, []) == []

    def test_one_worker_makes_no_pool(self, monkeypatch):
        def no_pool(size):
            raise AssertionError("a pool was requested with one worker")

        monkeypatch.setattr(oracle, "_workers", lambda: 1)
        monkeypatch.setattr(oracle, "_helper_pool", no_pool)
        assert oracle._pmap(lambda x: -x, range(5)) == [0, -1, -2, -3, -4]

    def test_lowest_index_exception_is_raised(self, monkeypatch):
        import time

        monkeypatch.setattr(oracle, "_workers", lambda: 2)

        def fail(i):
            if i == 1:
                time.sleep(0.05)  # the higher index fails first
                raise ValueError("item 1")
            if i == 2:
                raise KeyError("item 2")
            return i

        with pytest.raises(ValueError, match="item 1"):
            oracle._pmap(fail, range(6))
        assert oracle._pmap(lambda i: 2 * i, range(6)) == [0, 2, 4, 6, 8, 10]

    def test_nested_map_returns(self, monkeypatch):
        import threading

        monkeypatch.setattr(oracle, "_workers", lambda: 2)
        result = []

        def outer():
            result.append(oracle._pmap(
                lambda i: oracle._pmap(lambda j: 10 * i + j, range(3)), range(4)))

        runner = threading.Thread(target=outer, daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "nested _pmap did not return"
        assert result == [[[10 * i + j for j in range(3)] for i in range(4)]]


class TestBitsIndependentOfWorkers:
    @pytest.mark.parametrize("rows, n", [(4000, 4), (84, 33), (0, 5)])
    def test_batch(self, monkeypatch, rows, n):
        rng = np.random.default_rng(rows + n)
        means = rng.uniform(-1, 1, (rows, n))
        sigs = rng.uniform(0, 1, (rows, n))
        sigs[rng.random((rows, n)) < 0.25] = 0.0
        got = {}
        for workers in (1, 2):
            monkeypatch.setattr(oracle, "_workers", lambda: workers)
            got[workers] = expected_max_batch(means, sigs)
        assert got[1].shape == (rows,)
        assert np.array_equal(got[1].view(np.int64), got[2].view(np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_widths_give_the_bits_of_one_call_per_row(self, monkeypatch, workers):
        # 600 rows of 1 to 12 real columns in random order, left-packed or with
        # pads in between, cut into several blocks and node chunks.
        monkeypatch.setattr(oracle, "_workers", lambda: workers)
        rng = np.random.default_rng(17)
        rows, n = 600, 12
        means = rng.uniform(-1, 1, (rows, n))
        sigs = rng.uniform(0, 1, (rows, n))
        sigs[rng.random((rows, n)) < 0.2] = 0.0
        real = rng.integers(1, n + 1, rows)
        pad = np.arange(n) >= real[:, None]
        pad[::5] = rng.permuted(pad[::5], axis=1)  # every fifth row has pads in between
        means[pad], sigs[pad] = -np.inf, 0.0
        for subdiv in (1, 4):
            got = expected_max_batch(means, sigs, subdiv=subdiv)
            one = [expected_max_batch(m[~p], s[~p], subdiv=subdiv)[0]
                   for m, s, p in zip(means, sigs, pad)]
            assert np.array_equal(got.view(np.int64), np.array(one).view(np.int64))

    def test_blocks_are_no_wider_than_their_widest_row(self, monkeypatch):
        # One 64-wide set and 2,000 sets of 3: a block holding only 3-wide
        # rows is 3 wide, and only a block with the 64-wide row is 64 wide.
        rng = np.random.default_rng(4)
        n = 94
        sets = [tuple(range(64))] + [tuple(rng.choice(n, 3, replace=False).tolist())
                                     for _ in range(2000)]
        inst = Instance(n, rng.uniform(0, 1, n).tolist(), sets)
        real = oracle._expected_max_slab
        blocks = []

        def recording(means, stddevs, real_columns, subdiv, budget, rules):
            blocks.append((stddevs.shape, int(real_columns.max())))
            return real(means, stddevs, real_columns, subdiv, budget, rules)

        monkeypatch.setattr(oracle, "_expected_max_slab", recording)
        alloc = solvers.uniform_allocation(inst)
        est = graph_objective(inst, alloc, EstimatorConfig())
        assert all(width == widest for (_, width), widest in blocks)
        assert {widest for _, widest in blocks} == {3, 64}
        monkeypatch.setattr(oracle, "_expected_max_slab", real)
        assert _bits(est) == _bits(_reference_graph_objective(inst, alloc, EstimatorConfig()))

    def test_slab_memory_bounded_with_two_workers(self, monkeypatch):
        # The two threads' slabs hold _SLAB_NODES // 2 nodes each, so the
        # bound of test_slab_memory_bounded_and_rows_independent_of_slab
        # holds unchanged.
        import tracemalloc

        from varalloc.oracle import _SLAB_NODES

        monkeypatch.setattr(oracle, "_workers", lambda: 2)
        rng = np.random.default_rng(11)
        means = rng.uniform(0, 1, (2048, 8))
        sigs = rng.uniform(0, 0.5, (2048, 8))
        sigs[rng.random((2048, 8)) < 0.25] = 0.0
        tracemalloc.start()
        try:
            batch = expected_max_batch(means, sigs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _SLAB_NODES * 8
        monkeypatch.setattr(oracle, "_workers", lambda: 1)
        assert np.array_equal(batch, expected_max_batch(means, sigs))


class TestAutoAndMonteCarlo:
    def test_auto_dispatch(self):
        cfg = EstimatorConfig()
        assert expected_max_independent(GaussianVector((7,), (2,)), cfg).value == 7.0
        est = expected_max_independent(GaussianVector((0, 0), (1, 1)), cfg)
        assert est.method_used == "closed_form"
        est3 = expected_max_independent(GaussianVector((0, 0, 0), (1, 1, 1)), cfg)
        assert est3.method_used == "quadrature"
        # one live coordinate among point masses stays closed form
        est_floor = expected_max_independent(
            GaussianVector((0.0, 0.4, -1.0), (1.0, 0.0, 0.0)), cfg
        )
        assert est_floor.method_used == "closed_form"
        assert est_floor.value == pytest.approx(expected_max_with_floor(0, 1, 0.4), abs=1e-15)

    def test_closed_form_unavailable(self):
        cfg = EstimatorConfig(method="closed_form")
        with pytest.raises(ValueError):
            expected_max_independent(GaussianVector((0, 0, 0), (1, 1, 1)), cfg)

    def test_seed_determinism(self):
        cfg = EstimatorConfig(method="monte_carlo", mc_samples=50_000, seed=42)
        v = GaussianVector((0, 0, 0), (1, 0.5, 0.25))
        a = expected_max_independent(v, cfg)
        b = expected_max_independent(v, cfg)
        assert a == b  # bit-identical

    def test_estimator_agreement(self):
        # |quadrature - monte_carlo| <= half_width + 1e-6 in >= 95% of trials.
        rng = np.random.default_rng(123)
        trials = 200
        misses = 0
        for t in range(trials):
            n = int(rng.integers(1, 7))
            means = rng.uniform(-1, 1, n)
            sig = rng.uniform(0, 1, n)
            v = GaussianVector(means, sig)
            qv = expected_max_independent(v, EstimatorConfig(method="quadrature")).value
            mc = expected_max_independent(
                v, EstimatorConfig(method="monte_carlo", mc_samples=100_000, seed=t)
            )
            if abs(qv - mc.value) > mc.half_width + 1e-6:
                misses += 1
        assert misses <= int(0.095 * trials)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(method="magic")
        with pytest.raises(ValueError):
            EstimatorConfig(quadrature_tolerance=0.0)
        with pytest.raises(ValueError):
            EstimatorConfig(quadrature_tolerance=math.inf)
        with pytest.raises(ValueError):
            EstimatorConfig(mc_samples=10)
        with pytest.raises(ValueError):
            Estimate(1.0, -0.1, "quadrature")

    def test_gaussian_vector_validation(self):
        with pytest.raises(ValueError):
            GaussianVector((0, 0), (1,))
        with pytest.raises(ValueError):
            GaussianVector((), ())
        with pytest.raises(ValueError):
            GaussianVector((0,), (-1,))


# The two Monte Carlo loops as they stood before they shared one accumulator
# and the column-chain row maximum; the shared path must keep their bits.

def _reference_mc_independent(v, cfg):
    means, stddevs = np.asarray(v.means), np.asarray(v.stddevs)
    s1 = s2 = 0.0
    done = chunk = 0
    while done < cfg.mc_samples:
        count = min(oracle._MC_CHUNK, cfg.mc_samples - done)
        z = oracle._chunk_rng(cfg.seed, chunk).standard_normal((count, v.n))
        mx = (means + stddevs * z).max(axis=1)
        s1 += float(mx.sum())
        s2 += float(np.square(mx).sum())
        done += count
        chunk += 1
    mean = s1 / cfg.mc_samples
    var = max((s2 - cfg.mc_samples * mean * mean) / (cfg.mc_samples - 1), 0.0)
    return Estimate(mean, oracle.Z95 * math.sqrt(var / cfg.mc_samples), "monte_carlo")


def _reference_mc_joint(c, cfg, reduce_sets=lambda x: x.max(axis=1)):
    L = psd_factor(c.matrix)
    s1 = s2 = 0.0
    done = chunk = 0
    while done < cfg.mc_samples:
        count = min(oracle._MC_CHUNK, cfg.mc_samples - done)
        z = oracle._chunk_rng(cfg.seed, chunk).standard_normal((count, L.shape[1]))
        stat = reduce_sets(z @ L.T + c.means)
        s1 += float(stat.sum())
        s2 += float(np.square(stat).sum())
        done += count
        chunk += 1
    mean = s1 / cfg.mc_samples
    var = max((s2 - cfg.mc_samples * mean * mean) / (cfg.mc_samples - 1), 0.0)
    return Estimate(mean, oracle.Z95 * math.sqrt(var / cfg.mc_samples), "monte_carlo")


class TestMonteCarloAccumulator:
    # 300,000 samples span two chunks of 2^18.
    CFG = EstimatorConfig(method="monte_carlo", mc_samples=300_000, seed=5)

    def test_row_max_matches_max_over_axis(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(1000, 6))
        y[rng.random(y.shape) < 0.2] = 0.0  # exact ties
        shift = rng.uniform(-1, 1, 6)
        x = y + shift
        yt, xt = np.ascontiguousarray(y.T), np.ascontiguousarray(x.T)  # coordinate-major
        for cols in ((0,), (2, 5), (5, 0, 3), range(6)):
            want = x[:, list(cols)].max(axis=1)
            assert np.array_equal(row_max(yt, cols, shift), want)
            assert np.array_equal(row_max(xt, cols), want)

    def test_row_max_leaves_input_unchanged(self):
        y = np.arange(12.0).reshape(4, 3).T.copy()
        row_max(y, (2, 0))
        assert np.array_equal(y, np.arange(12.0).reshape(4, 3).T)

    @pytest.mark.parametrize("count", [1, 7, 1_003, 20_000, 65_536, 2**18])
    def test_short_first_product_matches_sample_major_bits(self, count):
        # Sample blocks are built as ``L @ z.T``; every estimate's bits rest on
        # it equalling the sample-major ``z @ L.T`` exactly, for each width n
        # and numerical rank r of the factor.
        rng = np.random.default_rng(count)
        for n in range(1, 6):
            for r in range(1, n + 1):
                a = rng.normal(size=(n, r))
                L = psd_factor(a @ a.T)
                assert L.shape == (n, r)
                z = rng.standard_normal((count, r))
                assert (L @ z.T).tobytes() == (z @ L.T).T.tobytes()

    def test_independent_matches_reference(self):
        for v in (GaussianVector((0, 0.5, -1), (1, 0.0, 2)), GaussianVector((0.3,), (0.7,))):
            assert expected_max_independent(v, self.CFG) == _reference_mc_independent(v, self.CFG)

    def test_correlated_matches_reference(self):
        for spec in (CovarianceSpec([0, 1, 0.5], [[0.4, 0.1, 0], [0.1, 0.3, -0.1], [0, -0.1, 0.3]]),
                     CovarianceSpec([0, 0.2], [[0.5, 0.5], [0.5, 0.5]])):  # rank 1
            assert expected_max_correlated(spec, self.CFG) == _reference_mc_joint(spec, self.CFG)

    def test_graph_correlated_matches_reference(self):
        inst = Instance(4, [0.1, 0.0, 0.4, 0.2], [(0, 1), (1, 2, 3), (3,), (0, 2)])
        spec = CovarianceSpec(inst.means, np.diag([0.4, 0.3, 0.2, 0.1]) + 0.05)

        def per_sample_total(x):
            total = np.zeros(x.shape[0])
            for members in inst.sets:
                total += x[:, list(members)].max(axis=1)
            return total

        got = graph_objective_correlated(inst, spec, self.CFG)
        assert got == _reference_mc_joint(spec, self.CFG, per_sample_total)

    @pytest.mark.parametrize("tile", [1_000, 4_096, 2**18])
    def test_estimates_do_not_depend_on_the_tile(self, monkeypatch, tile):
        # 300,000 samples are chunks of 262,144 and 37,856: tiles of 1,000
        # leave a short last tile in each, and 2^18 holds every chunk whole.
        inst = Instance(4, [0.1, 0.0, 0.4, 0.2], [(0, 1), (1, 2, 3), (3,), (0, 2)])
        calls = [
            lambda: expected_max_correlated(
                CovarianceSpec([0, 1, 0.5], [[0.4, 0.1, 0], [0.1, 0.3, -0.1], [0, -0.1, 0.3]]),
                self.CFG),
            lambda: expected_max_correlated(
                CovarianceSpec([0, 0.2], [[0.5, 0.5], [0.5, 0.5]]), self.CFG),  # rank 1
            lambda: graph_objective_correlated(
                inst, CovarianceSpec(inst.means, np.diag([0.4, 0.3, 0.2, 0.1]) + 0.05), self.CFG),
            lambda: expected_max_independent(GaussianVector((0, 0.5, -1), (1, 0.0, 2)), self.CFG),
        ]

        def bits(est):
            return est.value.hex(), est.half_width.hex(), est.method_used

        want = [bits(f()) for f in calls]
        monkeypatch.setattr(oracle, "_SAMPLE_TILE", tile)
        assert [bits(f()) for f in calls] == want


# Three loaded variables of rank 3 and a constant: a set of all four has
# affine dimension 3, which only the sampler covers.
RANK3_WITH_CONSTANT = [[0.4, 0.1, 0.0, 0.0], [0.1, 0.3, -0.1, 0.0], [0.0, -0.1, 0.3, 0.0],
                       [0.0, 0.0, 0.0, 0.0]]


class TestCorrelated:
    # These test the sampler, so they ask for it: under auto a matrix of
    # rank <= 2 takes the exact route (TestExactCorrelated).
    def test_perfectly_correlated_is_zero(self):
        spec = CovarianceSpec([0, 0], [[0.5, 0.5], [0.5, 0.5]])
        est = expected_max_correlated(
            spec, EstimatorConfig(method="monte_carlo", mc_samples=200_000, seed=1))
        assert abs(est.value) <= 3 * est.half_width + 1e-9

    def test_anti_correlated_closed_form(self):
        spec = CovarianceSpec([0, 0], [[0.5, -0.5], [-0.5, 0.5]])
        est = expected_max_correlated(
            spec, EstimatorConfig(method="monte_carlo", mc_samples=400_000, seed=1))
        assert est.value == pytest.approx(INV_SQRT_PI, abs=3 * est.half_width)

    def test_diagonal_matches_independent(self):
        spec = CovarianceSpec([0, 0], np.diag([0.5, 0.5]))
        est = expected_max_correlated(
            spec, EstimatorConfig(method="monte_carlo", mc_samples=400_000, seed=2))
        assert est.value == pytest.approx(PHI0, abs=3 * est.half_width)

    def test_method_restriction(self):
        # Quadrature covers a set of four or more members at ranks 0-2 only
        # (three loaded members and a constant here), and no method named
        # closed_form covers a whole matrix.
        spec = CovarianceSpec([0, 1, 0.5, 0.2], RANK3_WITH_CONSTANT)
        assert psd_factor(spec.matrix).shape == (4, 3)
        with pytest.raises(ValueError):
            expected_max_correlated(spec, EstimatorConfig(method="quadrature"))
        with pytest.raises(ValueError):
            expected_max_correlated(CovarianceSpec([0], [[1.0]]),
                                    EstimatorConfig(method="closed_form"))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CovarianceSpec([0, 0], [[1.0, 0.9], [0.9, 0.5]])  # Cauchy-Schwarz
        with pytest.raises(ValueError):
            CovarianceSpec([0, 0], [[0.5, 0.8], [0.8, 0.5]])  # not PSD
        spec = CovarianceSpec([0, 0], [[0.5, 0.5 + 1e-14], [0.5 - 1e-14, 0.5]])
        assert np.allclose(spec.matrix, spec.matrix.T)

    def test_psd_factor_rank_deficient(self):
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        L = psd_factor(m)
        assert L.shape == (2, 1)
        assert np.allclose(L @ L.T, m, atol=1e-12)
        with pytest.raises(FactorizationError):
            psd_factor(np.array([[1.0, 0.0], [0.0, -0.5]]))

    def test_psd_factor_rank_cut_is_absolute_under_the_budget(self):
        # The cut is 1e-10 * max(largest eigenvalue, 1): 1e-10 whenever the
        # largest eigenvalue is at most 1, not a share of it.
        assert psd_factor(np.diag([0.01, 5e-11])).shape == (2, 1)
        assert psd_factor(np.diag([1e-11, 0.0])).shape == (2, 0)

    def test_seed_determinism(self):
        spec = CovarianceSpec([0, 1], [[0.4, 0.1], [0.1, 0.6]])
        cfg = EstimatorConfig(method="monte_carlo", mc_samples=50_000, seed=9)
        assert expected_max_correlated(spec, cfg) == expected_max_correlated(spec, cfg)


def _scipy_line_mean(c, b):
    """E max_i (c_i + b_i Z) by scipy adaptive quadrature, split at every crossing."""
    cross = [(c[k] - c[i]) / (b[i] - b[k]) for i in range(len(c)) for k in range(i)
             if b[i] != b[k]]
    points = sorted({x for x in cross if abs(x) < 12.0}) or None
    lines = list(zip(c.tolist(), b.tolist()))
    return quad(lambda z: max(ci + bi * z for ci, bi in lines) * math.exp(-0.5 * z * z),
                -12.0, 12.0, points=points, epsabs=1e-13, limit=400)[0] / math.sqrt(2 * math.pi)


def scipy_expected_max_correlated(means, factor):
    """Independent oracle: E max_i (mu_i + factor_i . z), z standard normal of rank 1 or 2.

    Rank 2 nests ``_scipy_line_mean`` in a quadrature over the first
    coordinate, split where two lines of equal second-coordinate slope cross
    and where any three lines meet, whether or not on the maximum."""
    mu, f = np.asarray(means, dtype=float), np.asarray(factor, dtype=float)
    if f.shape[1] == 1:
        return _scipy_line_mean(mu, f[:, 0])
    a, b = f[:, 0], f[:, 1]
    kinks = [(mu[j] - mu[i]) / (a[i] - a[j]) for i, j in itertools.combinations(range(len(mu)), 2)
             if b[i] == b[j] and a[i] != a[j]]
    for i, j, k in itertools.combinations(range(len(mu)), 3):
        rows = lambda c: np.array([[1.0, b[i], c[i]], [1.0, b[j], c[j]], [1.0, b[k], c[k]]])
        d0, d1 = np.linalg.det(rows(mu)), np.linalg.det(rows(a))
        if d1 != 0:
            kinks.append(-d0 / d1)
    points = sorted({x for x in kinks if abs(x) < 12.0}) or None
    return quad(lambda t: _scipy_line_mean(mu + a * t, b) * math.exp(-0.5 * t * t),
                -12.0, 12.0, points=points, epsabs=1e-12, limit=400)[0] / math.sqrt(2 * math.pi)


def _random_factor(rng, n, rank):
    """An (n, rank) factor under the unit budget, with a zero row now and then."""
    f = rng.normal(size=(n, rank))
    f[rng.random(n) < 0.25] = 0.0
    return f / math.sqrt(max(float(np.square(f).sum()), 1.0))


def _spec(means, factor):
    f = np.asarray(factor, dtype=float)
    return CovarianceSpec(means, f @ f.T)


class TestExactCorrelated:
    """Rank <= 2 covariance matrices: closed forms at rank 0 and 1, one
    quadrature dimension at rank 2, all with half-width 0."""

    AUTO = EstimatorConfig()

    @pytest.mark.parametrize("m1,s1,m2,s2", [(0.0, 0.7, 0.3, 0.5), (0.2, 1.0, 0.0, 0.0),
                                             (1.0, 0.3, -1.0, 0.9), (0.0, 0.5, 0.0, 0.5),
                                             (0.5, 0.2, 0.4, 0.9)])
    def test_diagonal_pair_matches_clark(self, m1, s1, m2, s2):
        est = expected_max_correlated(CovarianceSpec([m1, m2], np.diag([s1 * s1, s2 * s2])),
                                      self.AUTO)
        # A pair is two lines, exact at any rank.
        assert est.half_width == 0.0
        assert est.method_used == "closed_form"
        assert est.value == pytest.approx(expected_max_pair(m1, s1, m2, s2), abs=1e-13)

    @pytest.mark.parametrize("rho", [-1.0, -0.6, 0.3, 1.0])
    def test_correlated_pair_matches_clark(self, rho):
        # Clark: E max(X1, X2) is the pair formula with theta^2 the variance of X1 - X2.
        m1, s1, m2, s2 = 0.3, 0.6, 0.1, 0.5
        cov = [[s1 * s1, rho * s1 * s2], [rho * s1 * s2, s2 * s2]]
        est = expected_max_correlated(CovarianceSpec([m1, m2], cov), self.AUTO)
        theta = math.sqrt(s1 * s1 + s2 * s2 - 2.0 * rho * s1 * s2)
        assert est.half_width == 0.0
        assert est.value == pytest.approx(expected_max_pair(m1, theta, m2, 0.0), abs=1e-13)

    def test_one_loaded_variable_with_constants(self):
        spec = CovarianceSpec([0.2, 0.5, -0.3, 0.45], np.diag([0.64, 0.0, 0.0, 0.0]))
        est = expected_max_correlated(spec, self.AUTO)
        assert est.method_used == "closed_form"
        assert est.value == pytest.approx(expected_max_with_floor(0.2, 0.8, 0.5), abs=1e-13)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_matches_scipy_integration(self, rank):
        rng = np.random.default_rng(10 + rank)
        for n in range(rank, 5):
            for _ in range(3):
                means = rng.uniform(-0.5, 1.0, n)
                factor = _random_factor(rng, n, rank)
                est = expected_max_correlated(_spec(means, factor), self.AUTO)
                want = scipy_expected_max_correlated(means, factor)
                assert est.half_width == 0.0
                assert est.value == pytest.approx(want, abs=1e-10), (means, factor)

    def test_within_three_half_widths_of_monte_carlo(self):
        # The seeded 2,000,000-sample estimate, on the same matrices.
        rng = np.random.default_rng(21)
        for rank, n in ((1, 3), (2, 3), (2, 4), (1, 4)):
            spec = _spec(rng.uniform(0.0, 1.0, n), _random_factor(rng, n, rank))
            exact = expected_max_correlated(spec, self.AUTO)
            mc = expected_max_correlated(spec, EstimatorConfig(method="monte_carlo", seed=rank))
            assert mc.method_used == "monte_carlo"
            assert exact.value == pytest.approx(mc.value, abs=3 * mc.half_width)

    def test_rank_zero(self):
        inst = Instance(4, [0.1, 0.2, 0.7, 0.3], [(0, 1), (1, 2, 3), (3,)])
        spec = CovarianceSpec(inst.means, np.zeros((4, 4)))
        assert expected_max_correlated(spec, self.AUTO) == Estimate(0.7, 0.0, "closed_form")
        est = graph_objective_correlated(inst, spec, EstimatorConfig(method="quadrature"))
        assert est == Estimate(0.2 + 0.7 + 0.3, 0.0, "closed_form")

    def test_parallel_and_duplicate_rows(self):
        # Parallel lines: the highest wins everywhere, so E max is its mean;
        # duplicates tie, and the lowest index takes the segment.
        spec = _spec([0.1, 0.3, 0.3], [[0.5], [0.5], [0.5]])
        assert expected_max_correlated(spec, self.AUTO).value == pytest.approx(0.3, abs=1e-15)
        spec = _spec([0.0, 0.4, 0.4], [[0.6], [0.0], [0.0]])
        assert expected_max_correlated(spec, self.AUTO).value == pytest.approx(
            expected_max_with_floor(0.0, 0.6, 0.4), abs=1e-15)
        # Rank 2 with equal second-coordinate slopes (a kink of the inner
        # value) and a duplicated row, against scipy and the row dropped.
        factor = [[0.5, 0.3], [-0.4, 0.3], [0.2, -0.5], [0.2, -0.5]]
        means = [0.1, 0.2, 0.0, 0.0]
        est = expected_max_correlated(_spec(means, factor), self.AUTO)
        assert est.method_used == "quadrature"
        assert est.value == pytest.approx(scipy_expected_max_correlated(means, factor), abs=1e-10)
        fewer = expected_max_correlated(_spec(means[:3], factor[:3]), self.AUTO)
        assert est.value == pytest.approx(fewer.value, abs=1e-13)
        # Two lines of one slope: the inner value is max(c_1(t), c_2(t)), with
        # a kink where they cross, and X_1 - X_2 = -0.1 + 0.9 T (Clark, theta 0.9).
        two = _spec(means[:2], factor[:2])
        (got,), _ = oracle._exact_set_maxima(two, np.array(factor[:2]), [range(2)], 1e-9)
        assert got == pytest.approx(expected_max_pair(0.1, 0.9, 0.2, 0.0), abs=1e-13)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_invariant_to_flipped_or_rotated_factor_columns(self, rank):
        rng = np.random.default_rng(30 + rank)
        for _ in range(4):
            spec = _spec(rng.uniform(0.0, 1.0, 4), _random_factor(rng, 4, rank))
            want = expected_max_correlated(spec, self.AUTO).value
            L = psd_factor(spec.matrix)
            turns = [np.diag(d) for d in itertools.product((1.0, -1.0), repeat=rank)]
            if rank == 2:
                for angle in (0.3, 1.1, 2.5, math.pi / 2):
                    c, s = math.cos(angle), math.sin(angle)
                    turns.append(np.array([[c, -s], [s, c]]))
            for q in turns:
                (got,), _ = oracle._exact_set_maxima(spec, L @ q, [range(4)], 1e-9)
                assert got == pytest.approx(want, abs=1e-13)

    @pytest.mark.parametrize("rank", [1, 2])
    def test_overlapping_sets_sum_their_values(self, rank):
        rng = np.random.default_rng(40 + rank)
        sets = [(0, 1), (1, 2, 3), (3,), (0, 2, 4), (0, 1, 2, 4), (4, 1)]
        inst = Instance(5, rng.uniform(0.0, 1.0, 5), sets)
        spec = _spec(inst.means, _random_factor(rng, 5, rank))
        est = graph_objective_correlated(inst, spec, self.AUTO)
        per_set = [graph_objective_correlated(Instance(5, inst.means, [s]), spec, self.AUTO)
                   for s in sets]
        # Set values add left to right from 0.0 (sum() of floats is compensated
        # from Python 3.12 on).
        total = 0.0
        for e in per_set:
            total += e.value
        assert est.value == total
        # Only the set of four members integrates at rank 2.
        assert est.method_used == ("quadrature" if rank == 2 else "closed_form")
        assert est.half_width == 0.0

    def test_rank_three_stays_on_the_sampler(self):
        # Three loaded members of rank 3 plus a constant: four lines whose
        # differences span three dimensions.
        spec = CovarianceSpec([0, 1, 0.5, 0.2], RANK3_WITH_CONSTANT)
        cfg = EstimatorConfig(mc_samples=50_000, seed=3)
        auto = expected_max_correlated(spec, cfg)
        assert auto.method_used == "monte_carlo"
        assert auto == expected_max_correlated(
            spec, EstimatorConfig(method="monte_carlo", mc_samples=50_000, seed=3))
        with pytest.raises(ValueError):
            expected_max_correlated(spec, EstimatorConfig(method="quadrature"))

    def test_nonconvergence_raises_with_best_estimate(self, monkeypatch):
        # Levels made to move by 1e-6 * subdiv never agree within 1e-9.  Sets
        # of at most three members take a closed form, so these have four.
        inst = Instance(4, [0.1, 0.3, 0.0, 0.2], [(2,), (0, 1, 2, 3)])
        spec = _spec(inst.means, [[0.5, 0.2], [-0.3, 0.4], [0.0, 0.0], [0.2, -0.3]])
        want = expected_max_correlated(spec, self.AUTO).value
        level = oracle._rank2_level
        monkeypatch.setattr(oracle, "_rank2_level",
                            lambda *args: level(*args) + 1e-6 * args[-1])
        with pytest.raises(QuadratureError) as err:
            expected_max_correlated(spec, self.AUTO)
        assert err.value.estimate == pytest.approx(want + 16e-6, abs=1e-12)
        with pytest.raises(QuadratureError, match="^set 1: "):
            graph_objective_correlated(inst, spec, self.AUTO)
        # A closed-form set, then two rank-2 sets: both are refined, and the
        # graph names the lower with its subdiv-16 estimate.
        monkeypatch.setattr(oracle, "_rank2_level", level)
        means = [0.1, 0.3, 0.0, 0.2, 0.15]
        inst = Instance(5, means, [(2,), (0, 1, 2, 3), (1, 3, 4, 0, 2)])
        spec = _spec(means, [[0.5, 0.2], [-0.3, 0.4], [0.0, 0.0], [0.2, -0.3], [0.1, 0.1]])
        whole = expected_max_correlated(spec, self.AUTO).value
        set1 = graph_objective_correlated(Instance(5, means, [(0, 1, 2, 3)]), spec,
                                          self.AUTO).value
        seen = []

        def drifting(*args):
            seen.append((len(args[0]), args[-1]))  # (set width, subdiv)
            return level(*args) + 1e-6 * args[-1]

        monkeypatch.setattr(oracle, "_rank2_level", drifting)
        with pytest.raises(QuadratureError) as err:
            graph_objective_correlated(inst, spec, self.AUTO)
        assert {(4, 16), (5, 16)} <= set(seen)
        assert str(err.value).startswith("set 1: quadrature did not reach tolerance 1e-09")
        assert err.value.estimate == pytest.approx(set1 + 16e-6, abs=1e-12)
        assert isinstance(err.value.__cause__, QuadratureError)
        with pytest.raises(QuadratureError) as err:
            expected_max_correlated(spec, self.AUTO)
        assert str(err.value).startswith("quadrature did not reach tolerance 1e-09")
        assert err.value.estimate == pytest.approx(whole + 16e-6, abs=1e-12)
        assert err.value.__cause__ is None


# A rank-2 matrix whose eigen-factor gives members 0, 2 and 3 second-coordinate
# slopes that are equal but for their last bits.
KINK_MATRIX = [[0.2, 0.2, 0.0, 0.1], [0.2, 0.4, 0.2, 0.2], [0.0, 0.2, 0.2, 0.1],
               [0.1, 0.2, 0.1, 0.1]]
KINK_MEANS = [0.8040317224555162, 0.01886389299064406, 0.07670282893403546, 0.0]


class TestThreeLineRoute:
    """Sets of at most three lines: ``_three_line_maxima`` at any rank."""

    AUTO = EstimatorConfig()

    @staticmethod
    def _batch(rng, count):
        means = rng.uniform(-0.5, 1.0, (count, 3))
        factors = rng.normal(size=(count, 3, 3)) * 0.4
        factors[::3, :, 2] = 0.0  # rank 2
        factors[1::3, 2] = factors[1::3, 0]  # a repeated line
        covs = factors @ factors.transpose(0, 2, 1)
        return means, 0.5 * (covs + covs.transpose(0, 2, 1))

    def test_rows_do_not_depend_on_the_batch(self):
        means, covs = self._batch(np.random.default_rng(3), 30)
        values, took, failed = oracle._three_line_maxima(means, covs, 1e-9)
        assert failed == {} and not took.any()
        one = [oracle._three_line_maxima(means[r:r + 1], covs[r:r + 1], 1e-9)[0][0]
               for r in range(len(means))]
        assert values.tolist() == one

    def test_matches_the_rank_two_route(self):
        # At rank <= 2 the route sets of four or more take, with a factor.
        rng = np.random.default_rng(8)
        for w in (1, 2, 3):
            for rank in (1, 2):
                for _ in range(4):
                    means = rng.uniform(-0.5, 1.0, w)
                    spec = _spec(means, _random_factor(rng, w, rank))
                    (want,), _ = oracle._exact_set_maxima(spec, psd_factor(spec.matrix),
                                                          [range(w)], 1e-12)
                    got = oracle._three_line_maxima(means[None], spec.matrix[None], 1e-9)[0]
                    assert got[0] == pytest.approx(want, abs=1e-13)

    def test_rank_three_within_three_half_widths_of_monte_carlo(self):
        rng = np.random.default_rng(9)
        for seed in range(3):
            spec = _spec(rng.uniform(0.0, 1.0, 3), rng.normal(size=(3, 3)) * 0.4)
            assert psd_factor(spec.matrix).shape[1] == 3
            exact = expected_max_correlated(spec, self.AUTO)
            assert exact.half_width == 0.0 and exact.method_used == "closed_form"
            mc = expected_max_correlated(spec, EstimatorConfig(method="monte_carlo", seed=seed))
            assert exact.value == pytest.approx(mc.value, abs=3 * mc.half_width)

    def test_envelope_takes_one_slope_row_per_row(self):
        rng = np.random.default_rng(4)
        c, b = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        b[2, 1] = b[2, 0]  # parallel lines
        want = [oracle._envelope_mean(c[r], b[r]) for r in range(6)]
        assert oracle._envelope_mean(c, b).tolist() == want

    def test_narrow_sets_are_the_pair_and_floor_closed_forms(self):
        # Two lines: Clark's pair on the deviation of their difference.
        cov = np.array([[[0.3, -0.1], [-0.1, 0.2]]])
        got = oracle._three_line_maxima(np.array([[0.2, 0.1]]), cov, 1e-9)[0][0]
        assert got == pytest.approx(expected_max_pair(0.2, math.sqrt(0.7), 0.1, 0.0), abs=1e-15)
        # A loaded line over a floor, and one line alone.
        cov = np.array([[[0.36, 0.0], [0.0, 0.0]]])
        got = oracle._three_line_maxima(np.array([[0.2, 0.5]]), cov, 1e-9)[0][0]
        assert got == pytest.approx(expected_max_with_floor(0.2, 0.6, 0.5), abs=1e-15)
        assert oracle._three_line_maxima(np.array([[0.7]]), np.zeros((1, 1, 1)), 1e-9)[0][0] == 0.7

    def test_routes_by_the_gram_ratio(self, monkeypatch):
        # Line 2 = line 0 + 2 (line 1 - line 0) + an orthogonal part, so that
        # det G / (G_11 G_22) = q: closed above _GRAM_TOL, integrated below
        # it, and the envelope at rounding level.
        L0, L1, u = np.array([0.3, 0.1, 0.0]), np.array([0.1, 0.3, 0.0]), np.array([0, 0, 1.0])
        means = np.array([[0.4, 0.1, 0.3]])

        def route(q):
            F = np.array([L0, L1, 2 * L1 - L0 + math.sqrt(0.32 * q / (1 - q)) * u])
            values, took, failed = oracle._three_line_maxima(means, (F @ F.T)[None], 1e-9)
            assert failed == {}
            return values[0], bool(took[0])

        got = [route(q) for q in (4e-6, 1e-6 * (1 + 1e-5), 1e-6 * (1 - 1e-5), 2.5e-7, 0.0)]
        assert [took for _, took in got] == [False, False, True, True, False]
        # Just above the threshold both routes give the same value.
        monkeypatch.setattr(oracle, "_GRAM_TOL", 1e-5)
        integrated, took = route(1e-6 * (1 + 1e-5))
        assert took and integrated == pytest.approx(got[1][0], abs=1e-13)

    def test_router_mixes_exact_and_sampled_sets(self):
        # Sets of at most three members are exact at rank 3; the set of four
        # (affine dimension 3) samples, and its total comes after theirs.
        means = [0.0, 1.0, 0.5, 0.2]
        spec = CovarianceSpec(means, RANK3_WITH_CONSTANT)
        cfg = EstimatorConfig(mc_samples=50_000, seed=3)
        sets = [(0, 1, 2), (0, 1, 2, 3), (1, 3)]
        est = graph_objective_correlated(Instance(4, means, sets), spec, cfg)
        small = [graph_objective_correlated(Instance(4, means, [s]), spec, cfg) for s in sets[::2]]
        wide = graph_objective_correlated(Instance(4, means, [sets[1]]), spec, cfg)
        assert [e.method_used for e in small] == ["closed_form"] * 2
        assert wide.method_used == "monte_carlo"
        total = small[0].value + small[1].value + wide.value
        assert est == Estimate(total, wide.half_width, "mixed")
        # Under monte_carlo every set samples, as before.
        mc = EstimatorConfig(method="monte_carlo", mc_samples=50_000, seed=3)
        est = graph_objective_correlated(Instance(4, means, sets), spec, mc)
        assert est.method_used == "monte_carlo"

    def test_integrated_set_that_does_not_converge_is_named(self, monkeypatch):
        # Below _GRAM_TOL a set of three takes the rank-2 quadrature, and a
        # set that never converges raises for its index.
        L0, L1, u = np.array([0.3, 0.1, 0.0]), np.array([0.1, 0.3, 0.0]), np.array([0, 0, 1.0])
        F = np.array([L0, L1, 2 * L1 - L0 + 3e-4 * u, [0.0, 0.0, 0.0]])
        inst = Instance(4, [0.4, 0.1, 0.3, 0.2], [(3,), (0, 1, 2)])
        spec = CovarianceSpec(inst.means, F @ F.T)
        want = graph_objective_correlated(inst, spec, self.AUTO)
        assert want.method_used == "quadrature"
        level = oracle._rank2_level
        monkeypatch.setattr(oracle, "_rank2_level", lambda *args: level(*args) + 1e-6 * args[-1])
        with pytest.raises(QuadratureError, match="^set 1: ") as err:
            graph_objective_correlated(inst, spec, self.AUTO)
        assert err.value.estimate == pytest.approx(want.value - 0.2 + 16e-6, abs=1e-12)

    def test_near_parallel_slopes_are_kinks(self):
        # The eigen-factor's slopes for members 0, 2 and 3 differ in their
        # last bits; the kink where lines 0 and 2 cross must be a panel edge,
        # or the levels never agree.
        spec = CovarianceSpec(KINK_MEANS, KINK_MATRIX)
        L = psd_factor(spec.matrix)
        assert L.shape[1] == 2 and len(set(L[[0, 2, 3], 1].tolist())) > 1
        est = expected_max_correlated(spec, self.AUTO)
        assert est.method_used == "quadrature"
        assert est.value == pytest.approx(scipy_expected_max_correlated(
            KINK_MEANS, np.round(L, 15)), abs=1e-10)
        kinks = oracle._rank2_kinks(np.asarray(KINK_MEANS), *L.T)
        assert np.isclose(kinks, (KINK_MEANS[0] - KINK_MEANS[2]) / (L[2, 0] - L[0, 0])).any()


class TestGraphObjective:
    def test_cycle_uniform(self):
        inst = cycle_instance(4, 0.0)
        alloc = AllocationVector((0.5,) * 4)
        est = graph_objective(inst, alloc, EstimatorConfig())
        assert est.value == pytest.approx(math.sqrt(4 / math.pi), abs=1e-9)

    def test_all_degenerate(self):
        inst = Instance(3, (1.0, 2.0, 0.5), [(0, 1), (2,), (0, 2)])
        est = graph_objective(inst, AllocationVector((0.0,) * 3), EstimatorConfig())
        assert est.value == pytest.approx(2.0 + 0.5 + 1.0, abs=1e-12)
        assert est.half_width == 0.0

    def test_single_pair_set(self):
        inst = Instance(2, (0.0, 0.0), [(0, 1)])
        est = graph_objective(inst, AllocationVector((1.0, 0.0)), EstimatorConfig())
        assert est.value == pytest.approx(PHI0, abs=1e-9)

    def test_wrong_length_rejected(self):
        inst = cycle_instance(3, 0.0)
        with pytest.raises(ValueError):
            graph_objective(inst, AllocationVector((0.5, 0.5)), EstimatorConfig())

    def test_mc_half_widths_combine(self):
        inst = cycle_instance(4, 0.0)
        alloc = AllocationVector((0.5,) * 4)
        cfg = EstimatorConfig(method="monte_carlo", mc_samples=50_000, seed=3)
        est = graph_objective(inst, alloc, cfg)
        assert est.method_used == "monte_carlo"
        assert est.value == pytest.approx(math.sqrt(4 / math.pi), abs=4 * est.half_width)
        assert graph_objective(inst, alloc, cfg) == est  # deterministic

    def test_correlated_diagonal_matches_independent(self):
        inst = cycle_instance(4, 0.0)
        spec = CovarianceSpec(inst.means, np.diag([0.25] * 4))
        cfg = EstimatorConfig(method="monte_carlo", mc_samples=400_000, seed=5)
        est = graph_objective_correlated(inst, spec, cfg)
        assert est.value == pytest.approx(math.sqrt(4 / math.pi), abs=3.5 * est.half_width)
        # Under auto every pair is exact, at rank 4.
        est = graph_objective_correlated(inst, spec, EstimatorConfig())
        assert est.half_width == 0.0 and est.method_used == "closed_form"
        assert est.value == pytest.approx(math.sqrt(4 / math.pi), abs=1e-15)

    def test_correlated_single_set_reduction(self):
        inst = Instance(3, (0.0,) * 3, [(0, 1, 2)])
        spec = CovarianceSpec(inst.means, np.diag([0.2, 0.3, 0.5]))
        cfg = EstimatorConfig(mc_samples=100_000, seed=4)
        whole = expected_max_correlated(spec, cfg)
        per_set = graph_objective_correlated(inst, spec, cfg)
        assert per_set == whole

    def test_dimension_mismatch(self):
        inst = cycle_instance(3, 0.0)
        spec = CovarianceSpec([0, 0], np.diag([0.5, 0.5]))
        with pytest.raises(ValueError):
            graph_objective_correlated(inst, spec, EstimatorConfig())


def _reference_quadrature(means, stddevs, tol):
    """One set's refinement on its own: the row at subdiv 1 closes when the
    8-point rule on the same panels (``_full_product_expected_max``) agrees
    with it; otherwise one ``expected_max_batch`` row per level until two
    levels agree."""
    m = np.asarray(means, dtype=float)[None, :]
    s = np.asarray(stddevs, dtype=float)[None, :]
    prev = float(oracle.expected_max_batch(m, s)[0])
    if abs(float(_full_product_expected_max(m, s, 1, points=8)[0]) - prev) <= 0.5 * tol:
        return prev
    for subdiv in (2, 4, 8, 16):
        val = float(oracle.expected_max_batch(m, s, subdiv=subdiv)[0])
        if abs(val - prev) <= 0.5 * tol:
            return val
        prev = val
    raise QuadratureError(
        f"quadrature did not reach tolerance {tol:g} after bounded refinement", estimate=prev)


def _reference_closed_form(means, stddevs):
    """The exact closed forms, chosen per vector from its width and live members."""
    live = [i for i, s in enumerate(stddevs) if s > 0]
    if len(means) == 1:
        return means[0]
    if not live:
        return max(means)
    if len(means) == 2:
        return expected_max_pair(means[0], stddevs[0], means[1], stddevs[1])
    if len(live) == 1:
        i = live[0]
        return expected_max_with_floor(means[i], stddevs[i],
                                       max(mu for j, mu in enumerate(means) if j != i))
    raise ValueError("closed form requires n <= 2 or at most one non-degenerate coordinate")


def _reference_set_estimate(v, cfg, seed):
    """One vector's estimate, each method written out on its own; Monte
    Carlo draws from ``seed``."""
    method = cfg.method
    if method == "auto":
        live = sum(1 for s in v.stddevs if s > 0)
        method = "closed_form" if (v.n <= 2 or live <= 1) else "quadrature"
    if method == "closed_form":
        return Estimate(_reference_closed_form(v.means, v.stddevs), 0.0, "closed_form")
    if method == "quadrature":
        val = _reference_quadrature(v.means, v.stddevs, cfg.quadrature_tolerance)
        return Estimate(val, 0.0, "quadrature")
    means, stddevs = np.asarray(v.means), np.asarray(v.stddevs)
    return oracle._mc_estimate(
        seed, cfg.mc_samples, v.n,
        lambda z: row_max(np.multiply(z.T, stddevs[:, None], order="C"), range(v.n), means))


def _reference_graph_objective(inst, alloc, cfg):
    """``graph_objective`` as one estimate per set, in set order."""
    value = 0.0
    var_sum = 0.0
    methods = set()
    for j, members in enumerate(inst.sets):
        v = GaussianVector([inst.means[i] for i in members], [alloc.stddevs[i] for i in members])
        try:
            est = _reference_set_estimate(v, cfg, oracle.derive_seed(cfg.seed, f"set:{j}"))
        except QuadratureError as e:
            raise QuadratureError(f"set {j}: {e}", estimate=e.estimate) from e
        value += est.value
        var_sum += est.half_width**2
        methods.add(est.method_used)
    method = methods.pop() if len(methods) == 1 else "mixed"
    return Estimate(value, math.sqrt(var_sum), method)


def _bits(est):
    return (np.float64(est.value).view(np.int64), np.float64(est.half_width).view(np.int64),
            est.method_used)


class TestGraphObjectiveBatched:
    """Sets refined together, in one batch of every width, keep the bits of one set at a time."""

    # Widths 1, 2, 3, 4 and 8, several of each; mean 6 dominates the sets
    # holding variable 0 under the uniform split, and variable 1 is -0.0.
    INST = Instance(12, [6.0, -0.0, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0, 1.0, 0.0, 0.0],
                    [(0,), (5,), (1, 2), (0, 3), (0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11),
                     (1, 4, 7, 10), (2, 5, 8, 11), tuple(range(8)), tuple(range(4, 12))])
    ALLOCS = {
        "uniform": AllocationVector([12**-0.5] * 12),
        "sparse": AllocationVector([0.0, 0.0, 0.5, 0.0, 0.5, 0.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.0]),
        "random": AllocationVector(np.random.default_rng(8).dirichlet(np.ones(12)) ** 0.5),
        "one_live": AllocationVector([1.0] + [0.0] * 11),
    }

    @pytest.mark.parametrize("alloc", sorted(ALLOCS))
    @pytest.mark.parametrize("method", ["auto", "quadrature", "closed_form", "monte_carlo"])
    def test_matches_per_set_reference(self, method, alloc):
        cfg = EstimatorConfig(method=method, mc_samples=2000, seed=3)
        alloc = self.ALLOCS[alloc]
        try:
            want = _reference_graph_objective(self.INST, alloc, cfg)
        except ValueError as e:
            assert method == "closed_form"
            with pytest.raises(ValueError, match=re.escape(str(e))):
                graph_objective(self.INST, alloc, cfg)
            return
        assert _bits(graph_objective(self.INST, alloc, cfg)) == _bits(want)

    def test_methods_used(self):
        def used(method, alloc):
            cfg = EstimatorConfig(method=method, mc_samples=2000)
            return graph_objective(self.INST, self.ALLOCS[alloc], cfg).method_used

        assert used("auto", "uniform") == "mixed"
        assert used("auto", "one_live") == "closed_form"
        assert used("quadrature", "uniform") == "quadrature"
        assert used("closed_form", "one_live") == "closed_form"
        assert used("monte_carlo", "uniform") == "monte_carlo"
        with pytest.raises(ValueError, match="closed form requires"):
            used("closed_form", "uniform")

    def test_one_batch_call_per_level_over_all_open_sets(self, monkeypatch):
        # Four sets of width 3, two of width 4 and two of width 8 take
        # quadrature, as rows of one batch padded to width 8.  For the two
        # sets holding variable 0 (mean 6) the first level's companion misses
        # and later levels drift until subdiv 4, so they close at subdiv 8 and
        # the others on the first level.
        calls = []
        real = oracle._expected_max_rules

        def drifting(means, stddevs, subdiv, rules):
            calls.append((np.shape(stddevs), subdiv, rules,
                          sorted(np.count_nonzero(means > -np.inf, axis=1).tolist())))
            out = real(means, stddevs, subdiv, rules)
            out[-1] += np.where(means[:, 0] == 6.0, 1e-6 * min(subdiv, 4), 0.0)
            return out

        monkeypatch.setattr(oracle, "_expected_max_rules", drifting)
        graph_objective(self.INST, self.ALLOCS["uniform"], EstimatorConfig())
        widths = [3, 3, 3, 3, 4, 4, 8, 8]
        assert calls == [((8, 8), 1, (10, 8), widths), ((2, 8), 2, (10,), [3, 8]),
                         ((2, 8), 4, (10,), [3, 8]), ((2, 8), 8, (10,), [3, 8])]

    def test_lowest_failing_set_is_named(self, monkeypatch):
        # Variable 0 marks the sets that never converge: set 2 (width 4) and
        # set 1 (width 3), refined in the same batches.
        inst = Instance(6, [0.75, 0.0, 0.1, 0.2, 0.0, 0.3],
                        [(1, 2, 3, 4), (0, 1, 2), (0, 2, 3, 4), (2, 3, 5)])
        alloc = AllocationVector([0.4] * 6)
        real = oracle._expected_max_rules

        # The values drift and the first level's companion does not.
        def drifting(means, stddevs, subdiv, rules):
            out = real(means, stddevs, subdiv, rules)
            out[0] += np.where(means[:, 0] == 0.75, 1e-6 * subdiv, 0.0)
            return out

        monkeypatch.setattr(oracle, "_expected_max_rules", drifting)
        cfg = EstimatorConfig()
        with pytest.raises(QuadratureError) as want:
            _reference_graph_objective(inst, alloc, cfg)
        with pytest.raises(QuadratureError) as got:
            graph_objective(inst, alloc, cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("set 1: quadrature did not reach tolerance 1e-09")
        assert np.float64(got.value.estimate).view(np.int64) == np.float64(
            want.value.estimate).view(np.int64)
        assert isinstance(got.value.__cause__, QuadratureError)


class TestRefine:
    """``oracle._refine``: one refinement ladder over the rows still open."""

    def test_levels_take_the_open_rows(self):
        # Row 0 agrees at subdiv 2 and row 1 at subdiv 8, each within 1e-12 of
        # the level before; row 2 moves by 1e-6 * subdiv and row 3 is NaN.
        calls = []

        def level(rows, subdiv):
            calls.append((subdiv, rows.tolist()))
            value = {0: 1.0 + 1e-12 * subdiv,
                     1: 2.0 + (1e-12 * subdiv if subdiv >= 4 else 1e-3 * subdiv),
                     2: 3.0 + 1e-6 * subdiv,
                     3: math.nan}
            return np.array([value[r] for r in rows.tolist()])

        values, failed = oracle._refine(level, 4, 1e-9)
        assert calls == [(1, [0, 1, 2, 3]), (2, [0, 1, 2, 3]), (4, [1, 2, 3]),
                         (8, [1, 2, 3]), (16, [2, 3])]
        assert values[:3].tolist() == [1.0 + 2e-12, 2.0 + 8e-12, 3.0 + 16e-6]
        assert sorted(failed) == [2, 3]
        assert failed[2] == 3.0 + 16e-6 and math.isnan(failed[3]) and math.isnan(values[3])

    def test_no_rows(self):
        calls = []
        values, failed = oracle._refine(lambda rows, subdiv: calls.append(subdiv), 0, 1e-9)
        assert len(values) == 0 and failed == {} and calls == []

    def test_companion_closes_rows_on_the_first_level(self):
        # The first level returns each row's value and a companion.  Rows 0
        # and 1 agree with theirs and close there.  Row 2's companion misses,
        # and subdiv 2 agrees with subdiv 1; row 3 drifts by 1e-6 * subdiv
        # and row 4 is NaN, so both follow 2, 4, 8, 16 and fail.
        calls = []
        value = {0: lambda k: 1.0, 1: lambda k: 2.0 + 1e-12 * k, 2: lambda k: 3.0 + 1e-12 * k,
                 3: lambda k: 4.0 + 1e-6 * k, 4: lambda k: math.nan}
        companion = {0: 1.0, 1: 2.0 + 3e-10, 2: 3.0 + 1e-3, 3: 4.0, 4: 5.0}

        def level(rows, subdiv):
            calls.append((subdiv, rows.tolist()))
            got = [value[r](subdiv) for r in rows.tolist()]
            return np.array([got, [companion[r] for r in rows.tolist()]] if subdiv == 1 else got)

        values, failed = oracle._refine(level, 5, 1e-9)
        assert calls == [(1, [0, 1, 2, 3, 4]), (2, [2, 3, 4]), (4, [3, 4]), (8, [3, 4]),
                         (16, [3, 4])]
        # A closed row keeps its first-level value; row 2 keeps subdiv 2's.
        assert values[:4].tolist() == [1.0, 2.0 + 1e-12, 3.0 + 2e-12, 4.0 + 16e-6]
        assert sorted(failed) == [3, 4] and failed[3] == 4.0 + 16e-6 and math.isnan(failed[4])

    def test_all_rows_closed_by_the_companion_make_one_call(self):
        calls = []

        def level(rows, subdiv):
            calls.append(subdiv)
            return np.array([np.ones(len(rows)), np.ones(len(rows)) + 4e-10])

        values, failed = oracle._refine(level, 3, 1e-9)
        assert calls == [1] and values.tolist() == [1.0] * 3 and failed == {}


class TestCompanionRule:
    """The first quadrature level: the 10-point value and the 8-point companion
    on the same panels, in one ``_expected_max_rules`` call."""

    @pytest.mark.parametrize("kind", [*SLAB_KINDS, "ragged"])
    def test_each_rule_keeps_the_bits_it_has_alone(self, kind):
        if kind == "ragged":
            rng = np.random.default_rng(23)
            widths = rng.integers(1, 40, 60)
            sigs = rng.uniform(0.0, 1.0, (60, 40)) * 10.0 ** rng.uniform(-8, 0, (60, 1))
            sigs[rng.random(sigs.shape) < 0.2] = 0.0
            means, sigs = oracle._pad_rows(rng.normal(0.0, 0.5, (60, 40)), sigs, widths)
        else:
            means, sigs = _slab_case(kind)
        pair = oracle._expected_max_rules(means, sigs, 1, (10, 8))
        assert pair.shape == (2, len(sigs))
        one = expected_max_batch(means, sigs, subdiv=1)
        assert np.array_equal(pair[0].view(np.int64), one.view(np.int64))
        eight = oracle._expected_max_rules(means, sigs, 1, (8,))[0]
        assert np.array_equal(pair[1].view(np.int64), eight.view(np.int64))
        if kind != "ragged":  # the reference takes no pad columns
            want = _full_product_expected_max(means, sigs, 1, points=8)
            assert np.array_equal(pair[1].view(np.int64), want.view(np.int64))

    def test_closed_rows_have_the_bits_of_subdiv_1(self, monkeypatch):
        # Random rows of width 3-40, deviations spread over 1e-8..1, and
        # exact ties: every one closes on the first level.
        rng = np.random.default_rng(29)
        vectors = []
        for width in rng.integers(3, 41, 20).tolist():
            sigs = rng.uniform(0.0, 1.0, width) * 10.0 ** rng.uniform(-8, 0, width)
            sigs[: width // 3] = sigs[0]  # ties
            vectors.append(GaussianVector(rng.normal(0.0, 0.3, width), sigs))
        calls = _spy_batch_calls(monkeypatch)
        cfg = EstimatorConfig(method="quadrature")
        for v in vectors:
            calls.clear()
            got = expected_max_independent(v, cfg).value
            assert calls == [(1, 1)]
            want = float(expected_max_batch(np.array(v.means), np.array(v.stddevs))[0])
            assert got.hex() == want.hex()

    def test_wide_uniform_row_falls_through_to_subdiv_2(self, monkeypatch):
        # On 512 equal deviations the companion lies 5.3e-10 from the value,
        # more than tol / 2; the row goes on to subdiv 2, which agrees with
        # subdiv 1, and keeps subdiv 2's bits.  At width 256 (7.0e-11) the
        # first level closes the row.
        tol = EstimatorConfig().quadrature_tolerance
        calls = _spy_batch_calls(monkeypatch)
        for n, gap, levels in ((512, 5.3e-10, [(1, 1), (1, 2)]), (256, 7.0e-11, [(1, 1)])):
            wide = np.full((1, n), n**-0.5)
            value, companion = oracle._expected_max_rules(0.0, wide, 1, (10, 8))[:, 0]
            assert abs(value - companion) == pytest.approx(gap, rel=0.01)
            calls.clear()
            got = expected_max_independent(GaussianVector([0.0] * n, wide[0]),
                                           EstimatorConfig()).value
            assert calls == levels
            want = expected_max_batch(0.0, wide, subdiv=len(levels))[0]
            assert got.hex() == want.hex() and abs(got - value) <= 0.5 * tol

    def test_paired_level_memory_bounded_with_two_workers(self, monkeypatch):
        # Node chunks count the 18 nodes of both rules per panel, so every
        # survival-term array stays within _SLAB_NODES // 2 floats and the
        # peak within the bound of expected_max_batch.
        import tracemalloc

        from varalloc.oracle import _SLAB_NODES

        monkeypatch.setattr(oracle, "_workers", lambda: 2)
        sizes = []
        real = oracle._survival_terms

        def recording(*args):
            out = real(*args)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(oracle, "_survival_terms", recording)
        rng = np.random.default_rng(11)
        means = rng.uniform(0, 1, (2048, 8))
        sigs = rng.uniform(0, 0.5, (2048, 8))
        sigs[rng.random((2048, 8)) < 0.25] = 0.0
        tracemalloc.start()
        try:
            pair = oracle._expected_max_rules(means, sigs, 1, (10, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _SLAB_NODES * 8
        assert len(sizes) > 1 and max(sizes) <= _SLAB_NODES // 2
        assert np.array_equal(pair[0], expected_max_batch(means, sigs))

    def test_graph_round_makes_no_subdiv_2_call(self, tmp_path, monkeypatch):
        # The perfbench graph round at seed 1: generate, log-approx, evaluate
        # and uniform on an Erdos-Renyi instance, and uniform on one set of
        # 256 zero means.  Every quadrature row closes on the first level.
        er, wide = tmp_path / "er.json", tmp_path / "wide.json"
        wide.write_text(json.dumps({"n": 256, "means": [0.0] * 256, "sets": [list(range(256))]}))
        calls = _spy_batch_calls(monkeypatch)
        out = str(tmp_path / "out.json")
        for argv in (["generate", "erdos-renyi", "--n", "24", "--m", "72", "--p", "0.5",
                      "--seed", "1", "--out", str(er)],
                     ["solve", "log-approx", "--in", str(er), "--seed", "1", "--out",
                      str(tmp_path / "la.json")],
                     ["evaluate", "--in", str(tmp_path / "la.json"), "--out", out],
                     ["solve", "uniform", "--in", str(er), "--out", out],
                     ["solve", "uniform", "--in", str(wide), "--out", out]):
            assert cli.run(argv) == 0
        assert len(calls) == 5 and {subdiv for _, subdiv in calls} == {1}


def _spy_batch_calls(monkeypatch) -> list:
    """(rows, subdiv) of every later ``oracle._expected_max_rules`` call, the
    quadrature levels of ``_quadrature_rows`` and ``expected_max_batch``."""
    calls = []
    real = oracle._expected_max_rules

    def counting(means, stddevs, subdiv, rules):
        calls.append((np.shape(stddevs)[0], subdiv))
        return real(means, stddevs, subdiv, rules)

    monkeypatch.setattr(oracle, "_expected_max_rules", counting)
    return calls


def _rearranged(rng, means, stddevs):
    """The row with its columns in a random order."""
    order = rng.permutation(len(means))
    return means[order], stddevs[order]


class TestQuadratureKey:
    """A row's bits and its quadrature key depend only on the multiset of its
    (mean, deviation) columns."""

    @pytest.mark.parametrize("subdiv", [1, 2])
    def test_rearranged_rows_keep_their_bits(self, subdiv):
        # Means of -0.0 and 0.0, repeated columns, and live columns far
        # below a point mass (dead below lo, mean 3 against means near 0).
        rng = np.random.default_rng(19 + subdiv)
        for width in range(3, 9):
            rows = 60
            means = rng.choice([-0.0, 0.0, 0.25, 0.5, 3.0, -1.0], (rows, width),
                               p=[0.2, 0.2, 0.2, 0.2, 0.05, 0.15])
            sigs = rng.choice([0.0, 0.125, 0.25, 0.5], (rows, width), p=[0.4, 0.2, 0.2, 0.2])
            sigs[:, 0] = 0.5  # at least two live columns: a quadrature row
            sigs[:, -1] = 0.25
            moved = [_rearranged(rng, m, s) for m, s in zip(means, sigs)]
            m2 = np.array([m for m, _ in moved])
            s2 = np.array([s for _, s in moved])
            assert not np.array_equal(np.signbit(m2), np.signbit(means))
            assert not np.array_equal(s2[s2 > 0], sigs[sigs > 0])  # live columns move too
            want = expected_max_batch(means, sigs, subdiv=subdiv).view(np.int64)
            got = expected_max_batch(m2, s2, subdiv=subdiv).view(np.int64)
            assert np.array_equal(got, want)
            one = [expected_max_batch(m, s, subdiv=subdiv).view(np.int64)[0] for m, s in moved]
            assert np.array_equal(one, want)
            # Every rearranged row shares the key of its original.
            first = oracle._first_of_key(np.concatenate([means, m2]), np.concatenate([sigs, s2]))
            assert np.array_equal(first[rows:], first[:rows])

    def test_rows_with_one_multiset_share_a_key(self, monkeypatch):
        # Sets 0 and 1 hold the same (mean, deviation) columns, with the
        # live ones in a different order; set 2 is set 0 with its point mass
        # moved.  All three share one key and one refined row.
        inst = Instance(9, [0.1, 0.4, 0.2, 0.4, 0.1, 0.2, 0.2, 0.1, 0.4],
                        [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        alloc = AllocationVector([0.3, 0.4, 0.0, 0.4, 0.3, 0.0, 0.0, 0.3, 0.4])
        first = oracle._first_of_key(
            np.array([[0.1, 0.4, 0.2], [0.4, 0.1, 0.2], [0.2, 0.1, 0.4]]),
            np.array([[0.3, 0.4, 0.0], [0.4, 0.3, 0.0], [0.0, 0.3, 0.4]]))
        assert first.tolist() == [0, 0, 0]
        calls = _spy_batch_calls(monkeypatch)
        cfg = EstimatorConfig()
        got = graph_objective(inst, alloc, cfg)
        assert calls == [(1, 1)]
        # Each set as its own one-row refinement.
        want = sum(_reference_quadrature([inst.means[i] for i in members],
                                         [alloc.stddevs[i] for i in members],
                                         cfg.quadrature_tolerance)
                   for members in inst.sets)
        assert _bits(got) == _bits(Estimate(want, 0.0, "quadrature"))

    def test_relabelled_variables_keep_the_objective_bits(self, tmp_path):
        # One set of four means, listed forwards and in reverse.
        values = []
        for means in ([0.78, 0.31, 0.27, 0.86], [0.86, 0.27, 0.31, 0.78]):
            inst = Instance(4, means, [(0, 1, 2, 3)])
            direct = graph_objective(inst, AllocationVector([0.5] * 4), EstimatorConfig())
            path = tmp_path / "inst.json"
            path.write_text(json.dumps({"n": 4, "means": means, "sets": [[0, 1, 2, 3]]}))
            out = tmp_path / "rep.json"
            assert cli.run(["solve", "uniform", "--in", str(path), "--out", str(out)]) == 0
            values.append((direct.value.hex(), json.loads(out.read_text())["objective"]["value"]))
        assert values[0][0] == values[1][0]
        assert values[0][1].hex() == values[1][1].hex()


class TestSharedKeysInGraphObjective:
    """``graph_objective`` scores one row per key and keeps the bits of
    ``expected_max_independent`` on every set."""

    @pytest.mark.parametrize("solver", ["uniform", "log_approx_graph"])
    def test_complete_k_matches_per_set_estimates(self, solver, monkeypatch):
        inst = complete_k_subsets_instance(8, 4)
        cfg = EstimatorConfig()
        alloc = getattr(solvers, solver)(inst, cfg).allocation
        value = 0.0
        for members in inst.sets:
            v = GaussianVector([inst.means[i] for i in members], [alloc.stddevs[i] for i in members])
            value += expected_max_independent(v, cfg).value
        calls = _spy_batch_calls(monkeypatch)
        assert graph_objective(inst, alloc, cfg).value.hex() == value.hex()
        # Uniform: all 70 sets share one row.  Log-approx puts 0.5 on four
        # variables: sets with 2, 3 or 4 of them take quadrature, one row each.
        assert calls == [({"uniform": 1, "log_approx_graph": 3}[solver], 1)]

    def test_lowest_failing_set_is_named_when_its_key_is_shared(self):
        # At a tolerance of 1e-300 two refinement levels must agree bit for
        # bit.  Set 0 (zero means, equal deviations) does; sets 1 and 3
        # share a key (set 3 moves the point mass) and never do.
        fails = ([0.14, 0.72, 0.28, 0.13], [0.12, 0.19, 0.0, 0.37])
        inst = Instance(11, [0.0, 0.0, 0.0, *fails[0], 0.28, 0.14, 0.72, 0.13],
                        [(0, 1, 2), (3, 4, 5, 6), (0, 7), (7, 8, 9, 10)])
        alloc = AllocationVector([0.3] * 3 + fails[1] + [0.0, 0.12, 0.19, 0.37])
        first = oracle._first_of_key(
            np.array([fails[0], [0.28, 0.14, 0.72, 0.13]]),
            np.array([fails[1], [0.0, 0.12, 0.19, 0.37]]))
        assert first.tolist() == [0, 0]
        cfg = EstimatorConfig(quadrature_tolerance=1e-300)
        with pytest.raises(QuadratureError) as want:
            _reference_graph_objective(inst, alloc, cfg)
        with pytest.raises(QuadratureError) as got:
            graph_objective(inst, alloc, cfg)
        assert str(got.value).startswith("set 1: quadrature did not reach tolerance 1e-300")
        assert str(got.value) == str(want.value)
        assert got.value.estimate.hex() == want.value.estimate.hex()


class TestOneSetEvaluator:
    """``expected_max_independent`` keeps the bits of each method written out alone."""

    VECTORS = {
        "n1": ((0.7,), (0.5,)),
        "n2_one_live": ((0.2, 0.6), (0.0, 0.8)),
        "n2_two_live": ((0.2, 0.6), (0.3, 0.8)),
        "n3_one_live": ((0.1, 0.4, -0.3), (0.0, 0.9, 0.0)),
        "neg_zero_mean": ((-0.0, 0.0, -0.0), (0.0, 0.0, 0.0)),
        "negative_means": ((-1.5, -0.2, -3.0), (0.4, 0.0, 1.1)),
        "five_live": ((0.0, 0.3, -0.1, 0.5, 0.2), (0.5, 0.4, 0.3, 0.2, 0.6)),
    }

    @pytest.mark.parametrize("vec", sorted(VECTORS))
    @pytest.mark.parametrize("method", ["auto", "closed_form", "quadrature", "monte_carlo"])
    def test_matches_reference_bits(self, method, vec):
        cfg = EstimatorConfig(method=method, mc_samples=2000, seed=3)
        v = GaussianVector(*self.VECTORS[vec])
        try:
            want = _reference_set_estimate(v, cfg, cfg.seed)
        except ValueError as e:
            assert method == "closed_form"
            with pytest.raises(ValueError, match=re.escape(str(e))):
                expected_max_independent(v, cfg)
            return
        assert _bits(expected_max_independent(v, cfg)) == _bits(want)
