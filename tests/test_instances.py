"""Instance construction, generators, and serialization round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varalloc.instances import (
    AllocationVector,
    Instance,
    InstanceFormatError,
    complete_k_subsets_instance,
    cycle_instance,
    erdos_renyi_instance,
    parse_instance,
    serialize_instance,
)


class TestInstance:
    def test_normalizes_sets(self):
        inst = Instance(4, (0, 0, 0, 0), [(3, 1), (2,)])
        assert inst.sets == ((1, 3), (2,))
        assert inst.m == 2

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(n=0, means=(), sets=[(0,)]), "positive"),
            (dict(n=2, means=(0.0,), sets=[(0,)]), "length"),
            (dict(n=2, means=(0.0, -1.0), sets=[(0,)]), "means[1]"),
            (dict(n=2, means=(0.0, math.inf), sets=[(0,)]), "means[1]"),
            (dict(n=2, means=(0.0, 0.0), sets=[()]), "sets[0]"),
            (dict(n=2, means=(0.0, 0.0), sets=[(0, 0)]), "sets[0]"),
            (dict(n=2, means=(0.0, 0.0), sets=[(0, 2)]), "sets[0]"),
            (dict(n=2, means=(0.0, 0.0), sets=[]), "at least one"),
            # Entries are checked in the given order, named by their field path.
            (dict(n=2, means=(0.0, 0.0), sets=[(1, 0, 1)]), "sets[0][2] duplicates index 1"),
            (dict(n=2, means=(0.0, 0.0), sets=[(1,), (1, 0, 5)]), "sets[1][2] = 5 outside [0, 1]"),
            (dict(n=2, means=(0.0, 0.0), sets=[(1, -1, 1)]), "sets[0][1] = -1 outside [0, 1]"),
        ],
    )
    def test_invariants_rejected(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment.replace("[", r"\[").replace("]", r"\]")):
            Instance(**kwargs)


class TestAllocationVector:
    def test_budget(self):
        AllocationVector((1.0, 0.0))
        AllocationVector((0.5,) * 4)
        with pytest.raises(ValueError):
            AllocationVector((1.0, 0.1))
        with pytest.raises(ValueError):
            AllocationVector((-0.1,))

    def test_support_size(self):
        assert AllocationVector((0.5, 0.0, 0.1)).support_size == 2


class TestGenerators:
    def test_cycle_examples(self):
        inst = cycle_instance(4, 0.0)
        assert inst.sets == ((0, 1), (1, 2), (2, 3), (0, 3))
        inst3 = cycle_instance(3, 1.0)
        assert inst3.m == 3 and all(mu == 1.0 for mu in inst3.means)
        inst5 = cycle_instance(5, 0.0)
        assert inst5.m == 5 and all(len(s) == 2 for s in inst5.sets)
        with pytest.raises(ValueError):
            cycle_instance(2, 0.0)

    def test_complete_k_examples(self):
        assert complete_k_subsets_instance(4, 2).m == 6
        assert complete_k_subsets_instance(5, 5).sets == ((0, 1, 2, 3, 4),)
        assert complete_k_subsets_instance(6, 1).m == 6
        with pytest.raises(ValueError):
            complete_k_subsets_instance(64, 32)  # guard

    def test_erdos_renyi_full_membership(self):
        inst = erdos_renyi_instance(8, 8, 1.0, seed=3)
        assert all(s == tuple(range(8)) for s in inst.sets)

    def test_erdos_renyi_determinism(self):
        a = erdos_renyi_instance(8, 20, 0.25, seed=7)
        b = erdos_renyi_instance(8, 20, 0.25, seed=7)
        assert a == b
        c = erdos_renyi_instance(8, 20, 0.25, seed=8)
        assert a != c

    def test_erdos_renyi_mean_set_size(self):
        # Mean set size over many sets tracks n*p within 3 binomial sigmas
        # (p large enough that conditioning on non-emptiness is negligible).
        n, m, p = 8, 400, 0.5
        inst = erdos_renyi_instance(n, m, p, seed=7)
        sizes = np.array([len(s) for s in inst.sets])
        se = math.sqrt(n * p * (1 - p) / m)
        assert abs(sizes.mean() - n * p) <= 3 * se

    def test_erdos_renyi_membership_frequency(self):
        # Per-variable inclusion over many single-set draws, compared against
        # the non-empty-conditioned probability p / (1 - (1-p)^n).
        n, p, trials = 10, 0.3, 10_000
        counts = np.zeros(n)
        for seed in range(trials):
            inst = erdos_renyi_instance(n, 1, p, seed=seed)
            for i in inst.sets[0]:
                counts[i] += 1
        q = p / (1.0 - (1.0 - p) ** n)
        se = math.sqrt(q * (1 - q) / trials)
        assert np.all(np.abs(counts / trials - q) <= 3 * se + 1e-12)

    def test_erdos_renyi_membership_frequency_unconditioned(self):
        # With p large enough that resampling probability < 1e-6, the raw
        # inclusion frequency tracks p itself.
        n, p, trials = 10, 0.8, 10_000
        assert (1 - p) ** n < 1e-6
        counts = np.zeros(n)
        for seed in range(trials):
            inst = erdos_renyi_instance(n, 1, p, seed=seed)
            for i in inst.sets[0]:
                counts[i] += 1
        se = math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) <= 3 * se + 1e-12)

    def test_erdos_renyi_validation(self):
        with pytest.raises(ValueError):
            erdos_renyi_instance(4, 4, 0.0, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi_instance(0, 4, 0.5, seed=0)


class TestSerialization:
    def test_round_trip_cycle(self):
        inst = cycle_instance(3, 0.0)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_document_shape(self):
        blob = serialize_instance(cycle_instance(3, 0.25))
        doc = json.loads(blob)
        assert list(doc.keys()) == ["n", "means", "sets"]
        assert doc["means"] == [0.25, 0.25, 0.25]
        assert blob == serialize_instance(cycle_instance(3, 0.25))  # deterministic

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"n": 2, "means": [0.0, -1.0], "sets": [[0]]}, "means[1]"),
            ({"n": 2, "means": [0.0, 0.0], "sets": [[0, 2]]}, "sets[0][1]"),
            ({"n": 2, "means": [0.0, 0.0], "sets": [[]]}, "sets[0]"),
            ({"n": 2, "means": [0.0, 0.0], "sets": [[0, 0]]}, "sets[0][1]"),
            ({"n": 2, "means": [0.0], "sets": [[0]]}, "means"),
            ({"n": 2, "means": [0.0, 0.0]}, "sets"),
            ({"n": -1, "means": [], "sets": [[0]]}, "n"),
            ({"n": 2, "means": [0.0, "x"], "sets": [[0]]}, "means[1]"),
        ],
    )
    def test_rejections_name_fields(self, doc, fragment):
        with pytest.raises(InstanceFormatError) as exc:
            parse_instance(json.dumps(doc))
        assert fragment in str(exc.value)

    def test_integer_beyond_float_range(self):
        # json reads a 401-digit literal as an int, which float() cannot hold.
        doc = '{"n": 1, "means": [1' + "0" * 400 + '], "sets": [[0]]}'
        with pytest.raises(InstanceFormatError, match=r"means\[0\] is out of float range"):
            parse_instance(doc)

    def test_invalid_json(self):
        with pytest.raises(InstanceFormatError):
            parse_instance(b"{not json")
        with pytest.raises(InstanceFormatError):
            parse_instance(b"[1, 2]")

    @given(
        n=st.integers(1, 8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random(self, n, data):
        means = data.draw(
            st.lists(st.floats(0, 100, allow_nan=False), min_size=n, max_size=n)
        )
        m = data.draw(st.integers(1, 5))
        sets = [
            sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
            for _ in range(m)
        ]
        inst = Instance(n, means, sets)
        assert parse_instance(serialize_instance(inst)) == inst
