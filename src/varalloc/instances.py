"""Problem instances: non-negative means plus a system of index sets.

An instance bundles ``n`` variables (identified by their means) with ``m``
non-empty subsets of ``{0, ..., n-1}``.  The objective downstream is the sum
over sets of the expected maximum of the member variables, under a total
variance budget of 1.  Generators for the canonical families (cycles,
complete k-subset systems, Erdos-Renyi random memberships) and a JSON
serialization live here.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Instance",
    "AllocationVector",
    "InstanceFormatError",
    "BUDGET_TOL",
    "erdos_renyi_instance",
    "cycle_instance",
    "complete_k_subsets_instance",
    "parse_instance",
    "serialize_instance",
]

log = logging.getLogger(__name__)

# Slack on the sum-of-squares budget; allocations are accepted up to 1 + BUDGET_TOL.
BUDGET_TOL = 1e-9

# Resampling cap for empty random sets before giving up.
_MAX_RESAMPLE = 10_000

# Guard for complete_k_subsets_instance.
_MAX_SUBSETS = 1_000_000


class InstanceFormatError(ValueError):
    """A serialized instance document violates the schema or an invariant."""


@dataclass(frozen=True)
class Instance:
    """Immutable problem instance.

    ``means`` has length ``n`` with all entries >= 0; ``sets`` is a non-empty
    tuple of sorted, duplicate-free index tuples into ``range(n)``.  Set
    entries are checked in the given order; errors name the field, ``sets[j][k]``.
    """

    n: int
    means: tuple[float, ...]
    sets: tuple[tuple[int, ...], ...]

    def __init__(self, n, means, sets):
        n = int(n)
        if n < 1:
            raise ValueError("n must be a positive integer")
        means = tuple(float(x) for x in means)
        if len(means) != n:
            raise ValueError(f"means has length {len(means)}, expected n={n}")
        for i, mu in enumerate(means):
            if not math.isfinite(mu):
                raise ValueError(f"means[{i}] is not finite")
            if mu < 0:
                raise ValueError(f"means[{i}] is negative")
        norm_sets = []
        for j, s in enumerate(sets):
            seen = set()
            for k, i in enumerate(map(int, s)):
                if not 0 <= i < n:
                    raise ValueError(f"sets[{j}][{k}] = {i} outside [0, {n - 1}]")
                if i in seen:
                    raise ValueError(f"sets[{j}][{k}] duplicates index {i}")
                seen.add(i)
            if not seen:
                raise ValueError(f"sets[{j}] is empty")
            norm_sets.append(tuple(sorted(seen)))
        if not norm_sets:
            raise ValueError("sets must contain at least one set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sets", tuple(norm_sets))

    @property
    def m(self) -> int:
        return len(self.sets)

    def means_array(self) -> np.ndarray:
        return np.asarray(self.means, dtype=float)


@dataclass(frozen=True)
class AllocationVector:
    """Per-variable standard deviations under the budget sum(sigma^2) <= 1."""

    stddevs: tuple[float, ...]

    def __init__(self, stddevs):
        stddevs = tuple(float(s) for s in stddevs)
        for i, s in enumerate(stddevs):
            if not math.isfinite(s):
                raise ValueError(f"stddevs[{i}] is not finite")
            if s < 0:
                raise ValueError(f"stddevs[{i}] is negative")
        total = sum(s * s for s in stddevs)
        if total > 1.0 + BUDGET_TOL:
            raise ValueError(f"variance budget exceeded: sum of squares = {total!r} > 1")
        object.__setattr__(self, "stddevs", stddevs)

    def stddevs_array(self) -> np.ndarray:
        return np.asarray(self.stddevs, dtype=float)

    @property
    def support_size(self) -> int:
        return sum(1 for s in self.stddevs if s > 0)


def erdos_renyi_instance(n: int, m: int, p: float, seed: int) -> Instance:
    """Random membership instance: each (variable, set) pair joins w.p. ``p``.

    Empty sets are resampled until non-empty (count logged); means are all 0.
    Identical arguments always produce identical instances.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if not (0 < p <= 1):
        raise ValueError("p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    sets = []
    resamples = 0
    for j in range(m):
        for attempt in range(_MAX_RESAMPLE):
            mask = rng.random(n) < p
            if mask.any():
                break
            resamples += 1
        else:
            raise ValueError(
                f"set {j} stayed empty after {_MAX_RESAMPLE} resampling attempts (p={p})"
            )
        sets.append(tuple(int(i) for i in np.flatnonzero(mask)))
    if resamples:
        log.debug("erdos_renyi_instance(n=%d, m=%d, p=%g, seed=%d): %d resamples",
                  n, m, p, seed, resamples)
    return Instance(n=n, means=(0.0,) * n, sets=sets)


def cycle_instance(n: int, mu: float) -> Instance:
    """n sets {j, j+1 mod n}, all means equal to ``mu``."""
    if n < 3:
        raise ValueError("cycle requires n >= 3")
    if not (math.isfinite(mu) and mu >= 0):
        raise ValueError("mu must be finite and non-negative")
    sets = [tuple(sorted((j, (j + 1) % n))) for j in range(n)]
    return Instance(n=n, means=(float(mu),) * n, sets=sets)


def complete_k_subsets_instance(n: int, k: int) -> Instance:
    """Every size-k subset of {0, ..., n-1} as a set; means all 0."""
    if not (1 <= k <= n):
        raise ValueError("k must lie in [1, n]")
    count = math.comb(n, k)
    if count > _MAX_SUBSETS:
        raise ValueError(f"binom({n}, {k}) = {count} exceeds the guard {_MAX_SUBSETS}")
    sets = list(itertools.combinations(range(n), k))
    return Instance(n=n, means=(0.0,) * n, sets=sets)


def serialize_instance(inst: Instance) -> bytes:
    """UTF-8 JSON document with deterministic key order and shortest floats."""
    doc = {"n": inst.n, "means": list(inst.means), "sets": [list(s) for s in inst.sets]}
    return (json.dumps(doc) + "\n").encode("utf-8")


def parse_instance(data: bytes | str) -> Instance:
    """Inverse of :func:`serialize_instance`; rejects invalid documents.

    It checks what JSON can get wrong (keys, types, lengths, float range) and
    ``Instance`` the values.  Violations are reported with the path of the
    offending field, e.g. ``means[2]`` or ``sets[0][1]``.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as e:
        raise InstanceFormatError(f"document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise InstanceFormatError("document must be a JSON object")
    for key in ("n", "means", "sets"):
        if key not in doc:
            raise InstanceFormatError(f"missing field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError("n must be a positive integer")
    means = doc["means"]
    if not isinstance(means, list) or len(means) != n:
        raise InstanceFormatError(f"means must be a list of length n={n}")
    for i, mu in enumerate(means):
        if isinstance(mu, bool) or not isinstance(mu, (int, float)):
            raise InstanceFormatError(f"means[{i}] must be a number")
        try:
            float(mu)
        except OverflowError:
            raise InstanceFormatError(f"means[{i}] is out of float range") from None
    sets = doc["sets"]
    if not isinstance(sets, list) or not sets:
        raise InstanceFormatError("sets must be a non-empty list")
    for j, s in enumerate(sets):
        if not isinstance(s, list):
            raise InstanceFormatError(f"sets[{j}] must be a list")
        for k, idx in enumerate(s):
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise InstanceFormatError(f"sets[{j}][{k}] must be an integer")
    try:
        return Instance(n=n, means=means, sets=sets)
    except ValueError as e:
        raise InstanceFormatError(str(e)) from e
