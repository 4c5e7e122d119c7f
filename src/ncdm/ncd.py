"""Normalized compression distance for multisets.

The un-maximized ratio ``ncd1`` is the workhorse: the exact distance is its
maximum over every sub-multiset of cardinality >= 2, the greedy heuristic
approximates that maximum from below in O(n^2) compressions by walking a
chain of nested sub-multisets, and the pairwise distance is the two-element
special case.

Every operation first plans its compressed sizes, then scores from them. A
plan is the list of distinct size requests it needs, deduped by request key
as they are generated; ``NcdCalculator._run`` runs it as one map over the
worker pool, longest serialization first, so no worker idles behind a long
request at the tail. Every size but the checkpointed matrix rows comes from
a plan, down to ``g`` and ``ncd_pairwise``. ``g_profiles`` plans the whole
multiset, leave-one-outs and singletons of a batch of multisets: a whole
LOOCV, ``classify`` batch, K-Lists iteration or set of margins is one map.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .compressor import (
    Bz2Backend,
    CompressorBackend,
    SizeCache,
    cached_compress_len,
    prefix_frame,
    request_key,
    serialize_multiset,
    serialized_len,
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


def _pairwise(gx: int, gy: int, gxy: int) -> float:
    return (gxy - min(gx, gy)) / max(gx, gy)


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


class _Plan:
    """Distinct size requests in first-asked order, each kept once under its key."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.slots: dict[bytes, int] = {}
        self.requests: list[tuple[bytes, Multiset]] = []

    def ask(self, ms: Multiset) -> int:
        """Index of ``ms``'s size in the plan's answers; a repeated key gets its first index."""
        key = request_key(ms, self.mode)
        slot = self.slots.setdefault(key, len(self.requests))
        if slot == len(self.requests):
            self.requests.append((key, ms))
        return slot


class NcdCalculator:
    """Computes compressed sizes and multiset distances against one backend.

    Every size flows through a shared, thread-safe cache keyed by the
    request key (framing plus element digests), so repeated sub-multisets
    are compressed exactly once and a cached size is answered without
    serializing. It holds one pool of ``jobs`` workers for its lifetime
    (none when ``jobs <= 1``); ``jobs`` changes wall time only, never
    results.
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
        return self._sizes([ms])[0]

    def _size(self, request: tuple[bytes, Multiset]) -> int:
        key, ms = request
        return cached_compress_len(
            self.backend, self.cache, key, lambda: serialize_multiset(ms, self.mode)
        )

    def _run(self, plan: _Plan) -> list[int]:
        """The sizes of ``plan``'s requests, by index, from one map that starts with the longest.

        Bytes are built only on a cache miss, inside the worker.
        """
        requests = plan.requests
        longest_first = sorted(
            range(len(requests)), key=lambda i: -serialized_len(requests[i][1], self.mode)
        )
        sizes = [0] * len(requests)
        answers = parallel_map(self._size, [requests[i] for i in longest_first], self._pool)
        for i, size in zip(longest_first, answers):
            sizes[i] = size
        return sizes

    def _sizes(self, multisets: Sequence[Multiset]) -> list[int]:
        """Sizes of ``multisets`` in order, from one map over their distinct request keys.

        Deduped by key, not by multiset: copies of one text under different
        ids are one request, so no two workers compress the same bytes.
        """
        plan = _Plan(self.mode)
        slots = [plan.ask(ms) for ms in multisets]
        sizes = self._run(plan)
        return [sizes[slot] for slot in slots]

    def g_profiles(self, multisets: Sequence[Multiset]) -> list[GProfile]:
        """The ``GProfile`` of each multiset, from one map over every distinct request.

        A profile asks for G(X), G(X minus each occurrence) and G(x) for each
        x. Multisets with equal request keys share one profile, and each
        distinct request is compressed at most once, largest first.
        """
        plan = _Plan(self.mode)
        layouts: dict[int, tuple[list[int], list[int]]] = {}
        wholes = []
        for ms in multisets:
            n = len(ms)
            if n < 2:
                raise DegenerateInputError(f"need >= 2 elements, got {n}")
            whole = plan.ask(ms)
            if whole not in layouts:
                layouts[whole] = (
                    [plan.ask(ms.remove_at(i)) for i in range(n)],
                    [plan.ask(Multiset([e])) for e in ms],
                )
            wholes.append(whole)
        sizes = self._run(plan)
        profiles = {
            whole: GProfile(
                sizes[whole],
                tuple(sizes[i] for i in singles),
                tuple(sizes[i] for i in loo),
            )
            for whole, (loo, singles) in layouts.items()
        }
        return [profiles[whole] for whole in wholes]

    def g_profile(self, ms: Multiset) -> GProfile:
        """G(X), G(X minus each occurrence) and G(x) for each x, in one map, largest first."""
        return self.g_profiles([ms])[0]

    # -- distances -----------------------------------------------------

    def ncd1(self, ms: Multiset) -> NcdValue:
        """The un-maximized ratio; may shrink when a redundant element is added."""
        return NcdValue(self.g_profile(ms).ncd1(), "ncd1")

    def ncd_pairwise(self, x: Element, y: Element) -> NcdValue:
        return NcdValue(self.ncd_pairs([(x, y)])[0], "pairwise")

    def ncd_pairs(self, pairs: Sequence[tuple[Element, Element]]) -> list[float]:
        """``ncd_pairwise(x, y).value`` of each pair, from one map over every singleton and pair."""
        sizes = self._sizes(
            [ms for x, y in pairs for ms in (Multiset([x]), Multiset([y]), Multiset([x, y]))]
        )
        return [_pairwise(*sizes[i : i + 3]) for i in range(0, len(sizes), 3)]

    def ncd_exact(self, ms: Multiset, max_card: int = DEFAULT_MAX_CARD) -> NcdValue:
        """Maximum of ncd1 over every sub-multiset with >= 2 members.

        Enumerates the full powerset, so the cardinality is capped; all
        2^n - n - 1 profiles are planned and compressed in one map. Cardinality
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
        subsets = [
            Multiset([ms[i] for i in combo])
            for k in range(2, n + 1)
            for combo in itertools.combinations(range(n), k)
        ]
        values = [profile.ncd1() for profile in self.g_profiles(subsets)]
        # max() keeps the first of equal values: the first maximizing subset.
        best = max(range(len(values)), key=values.__getitem__)
        return NcdValue(values[best], "exact", subsets[best])

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
            next_loo = tuple(self._sizes([current.remove_at(i) for i in range(k - 1)]))
            profile = GProfile(loo[removed], singles[:removed] + singles[removed + 1 :], next_loo)
        assert best_value is not None
        return HeuristicResult(NcdValue(best_value, "heuristic", best_witness), tuple(chain))

    def distance_matrix(self, elements: Sequence[Element]) -> DistanceMatrix:
        """Symmetric matrix of pairwise distances; diagonal is 0 by definition.

        Works on the distinct contents in canonical order, one row task per
        content x: the row asks for G(xy) of every later y, and for G(xx) when
        x occurs more than once, so each size is asked for once, by one task.
        The row compresses ``prefix_frame(x)`` once, into ``backend.after``,
        and each pair on a miss compresses only the framed y from there.
        Values are then scattered back to every id. n distinct elements cost
        n + n(n-1)/2 size requests.
        """
        els = list(elements)
        if len(els) < 2:
            raise DegenerateInputError("a distance matrix needs >= 2 elements")
        singles = self._sizes([Multiset([e]) for e in els])
        distinct = Multiset({e.digest: e for e in els}.values())
        counts = Counter(e.digest for e in els)

        def row(r: int) -> list[int]:
            x = distinct[r]
            after_x = self.backend.after(prefix_frame(x, self.mode))
            return [
                cached_compress_len(
                    after_x,
                    self.cache,
                    request_key((x, y), self.mode),
                    lambda: serialize_multiset((y,), self.mode),
                )
                for y in distinct.elements[r if counts[x.digest] > 1 else r + 1 :]
            ]

        m = len(distinct)
        gxy = np.zeros((m, m), dtype=np.int64)
        for r, sizes in enumerate(parallel_map(row, range(m), self._pool)):
            # Row r covers columns r + 1 .. m - 1, and r itself for a repeated x.
            gxy[r, m - len(sizes) :] = gxy[m - len(sizes) :, r] = sizes
        column = {x.digest: c for c, x in enumerate(distinct)}
        at = [column[e.digest] for e in els]
        n = len(els)
        matrix = np.zeros((n, n))
        for i, j in itertools.combinations(range(n), 2):
            pair = int(gxy[at[i], at[j]])
            matrix[i, j] = matrix[j, i] = _pairwise(singles[i], singles[j], pair)
        return DistanceMatrix(tuple(e.id for e in els), matrix)
