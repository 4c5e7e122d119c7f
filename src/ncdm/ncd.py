"""Normalized compression distance for multisets.

The un-maximized ratio ``ncd1`` is the workhorse: the exact distance is its
maximum over every sub-multiset of cardinality >= 2, the greedy heuristic
approximates that maximum from below in O(n^2) compressions by walking a
chain of nested sub-multisets, and the pairwise distance is the two-element
special case.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compressor import (
    Bz2Backend,
    CompressorBackend,
    SizeCache,
    cached_compress_len,
    serialize_multiset,
)
from .errors import CardinalityLimitError, DegenerateInputError
from .multiset import Element, Multiset
from .parallel import parallel_map, worker_pool

DEFAULT_EPSILON = 0.1
DEFAULT_MAX_CARD = 12


@dataclass(frozen=True)
class NcdValue:
    """A distance in [0, 1 + epsilon] tagged with the formula that produced it.

    ``witness`` is the sub-multiset achieving the maximum for the exact and
    heuristic formulas; it always has cardinality >= 2.
    """

    value: float
    formula: str
    witness: Multiset | None = None


@dataclass(frozen=True)
class GProfile:
    """Compressed sizes entering the ncd1 ratio for one multiset."""

    g_whole: int
    g_singletons: tuple[int, ...]
    g_leave_one_out: tuple[int, ...]

    @property
    def e_g_max(self) -> int:
        """Information-distance approximation: G(X) minus the smallest member size."""
        return self.g_whole - min(self.g_singletons)

    def ncd1(self) -> float:
        denom = max(self.g_leave_one_out)
        if denom <= 0:
            raise DegenerateInputError(
                "max leave-one-out size is 0; inputs look corrupt"
            )
        return self.e_g_max / denom


@dataclass(frozen=True)
class ChainStep:
    """One link of the greedy removal chain.

    ``removed_id`` names the occurrence dropped to form the next link;
    it is None on the final two-element link.
    """

    cardinality: int
    ncd1: float
    removed_id: str | None


@dataclass(frozen=True)
class HeuristicResult:
    ncd: NcdValue
    chain: tuple[ChainStep, ...]

    def to_dict(self) -> dict:
        return {
            "value": self.ncd.value,
            "formula": self.ncd.formula,
            "witness": list(self.ncd.witness.ids()) if self.ncd.witness else None,
            "chain": [
                {"cardinality": s.cardinality, "ncd1": s.ncd1, "removed": s.removed_id}
                for s in self.chain
            ],
        }


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric pairwise-distance matrix with element ids as labels."""

    labels: tuple[str, ...]
    values: np.ndarray

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.labels)
        for row in self.values:
            writer.writerow([f"{v:.9g}" for v in row])
        return buf.getvalue()


class NcdCalculator:
    """Computes compressed sizes and multiset distances against one backend.

    Every size flows through a shared, thread-safe cache keyed by the digest
    of the serialized bytes, so repeated sub-multisets are compressed exactly
    once. It holds one pool of ``jobs`` workers for its lifetime (none when
    ``jobs <= 1``); ``jobs`` changes wall time only, never results.
    """

    def __init__(
        self,
        backend: CompressorBackend | None = None,
        *,
        mode: str = "text",
        cache: SizeCache | None = None,
        jobs: int = 1,
    ) -> None:
        self.backend = backend if backend is not None else Bz2Backend()
        self.mode = mode
        self.cache = cache if cache is not None else SizeCache()
        self._pool = worker_pool(jobs)

    # -- sizes ---------------------------------------------------------

    def g(self, ms: Multiset) -> int:
        """Compressed size of the serialized multiset."""
        if len(ms) == 0:
            raise DegenerateInputError("an empty multiset has no compressed size")
        return cached_compress_len(self.backend, self.cache, serialize_multiset(ms, self.mode))

    def g_element(self, element: Element) -> int:
        return self.g(Multiset([element]))

    def g_profile(self, ms: Multiset) -> GProfile:
        """G(X), G(X minus each occurrence) and G(x) for each x, in one map, largest first."""
        if len(ms) < 2:
            raise DegenerateInputError(f"need >= 2 elements, got {len(ms)}")
        loo = [ms.remove_at(i) for i in range(len(ms))]
        singles = [Multiset([e]) for e in ms]
        unique = list(dict.fromkeys([ms, *loo, *singles]))  # a pair's loo sets are its singles
        size = dict(zip(unique, parallel_map(self.g, unique, self._pool)))
        return GProfile(size[ms], tuple(map(size.get, singles)), tuple(map(size.get, loo)))

    # -- distances -----------------------------------------------------

    def ncd1(self, ms: Multiset) -> NcdValue:
        """The un-maximized ratio; may shrink when a redundant element is added."""
        return NcdValue(self.g_profile(ms).ncd1(), "ncd1")

    def ncd_pairwise(self, x: Element, y: Element) -> NcdValue:
        gx = self.g_element(x)
        gy = self.g_element(y)
        gxy = self.g(Multiset([x, y]))
        return NcdValue((gxy - min(gx, gy)) / max(gx, gy), "pairwise")

    def ncd_exact(self, ms: Multiset, max_card: int = DEFAULT_MAX_CARD) -> NcdValue:
        """Maximum of ncd1 over every sub-multiset with >= 2 members.

        Enumerates the full powerset, so the cardinality is capped. Cardinality
        0 and 1 score 0 by definition. The witness is the first maximizing
        subset in (cardinality, index) order.
        """
        n = len(ms)
        if n < 2:
            return NcdValue(0.0, "exact", None)
        if n > max_card:
            raise CardinalityLimitError(
                f"exact distance enumerates 2^{n} subsets; cap is {max_card}"
            )
        best: float | None = None
        best_witness: Multiset | None = None
        for k in range(2, n + 1):
            for combo in itertools.combinations(range(n), k):
                sub = Multiset([ms[i] for i in combo])
                value = self.g_profile(sub).ncd1()
                if best is None or value > best:
                    best, best_witness = value, sub
        assert best is not None
        return NcdValue(best, "exact", best_witness)

    def ncd_heuristic(self, ms: Multiset) -> HeuristicResult:
        """Greedy lower-bound approximation of the exact distance.

        Repeatedly removes the occurrence whose removal leaves the largest
        compressed remainder (ties: earliest in canonical order) and returns
        the maximum ncd1 seen along the chain. Each round's leave-one-out
        sizes double as the next round's whole-set size, so a fresh cache
        sees at most n(n+1)/2 + 2n distinct compressions.
        """
        chain: list[ChainStep] = []
        best_value: float | None = None
        best_witness: Multiset | None = None
        current, profile = ms, self.g_profile(ms)
        while True:
            k = len(current)
            value = profile.ncd1()
            if best_value is None or value > best_value:
                best_value, best_witness = value, current
            if k == 2:
                chain.append(ChainStep(k, value, None))
                break
            loo, singles = profile.g_leave_one_out, profile.g_singletons
            removed = max(range(k), key=lambda i: (loo[i], -i))
            chain.append(ChainStep(k, value, current[removed].id))
            current = current.remove_at(removed)
            next_loo = tuple(parallel_map(self.g, map(current.remove_at, range(k - 1)), self._pool))
            profile = GProfile(loo[removed], singles[:removed] + singles[removed + 1 :], next_loo)
        assert best_value is not None
        return HeuristicResult(NcdValue(best_value, "heuristic", best_witness), tuple(chain))

    def distance_matrix(self, elements: Sequence[Element]) -> DistanceMatrix:
        """Symmetric matrix of pairwise distances; diagonal is 0 by definition.

        Costs exactly one singleton compression per element plus one pair
        compression per unordered pair on a fresh cache.
        """
        els = list(elements)
        if len(els) < 2:
            raise DegenerateInputError("a distance matrix needs >= 2 elements")
        n = len(els)
        parallel_map(self.g_element, els, self._pool)  # warm singletons once

        def row(i: int) -> list[float]:
            return [self.ncd_pairwise(els[i], y).value for y in els[i + 1 :]]

        matrix = np.zeros((n, n))
        for i, values in enumerate(parallel_map(row, range(n), self._pool)):
            matrix[i, i + 1 :] = matrix[i + 1 :, i] = values
        return DistanceMatrix(tuple(e.id for e in els), matrix)
