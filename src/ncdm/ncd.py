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

The pairwise matrix does no more Python work per pair than a cache lookup,
and the whole matrix is scored in one array expression.
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
    CompressorBackend,
    SizeCache,
    cached_compress_len,
    check_separator,
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
MAX_EXACT_CARD = 16  # 2^16 - 17 subsets of tiny inputs: 7-10 s, 138 MiB (zlib, 2 vCPUs)


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


class _Plan:
    """Distinct size requests in first-asked order, each kept once under its key.

    A request is an element tuple in canonical order. ``text`` framing checks
    each distinct element for the separator once, as asked, before any lookup.
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.slots: dict[bytes, int] = {}
        self.requests: list[tuple[bytes, tuple[Element, ...]]] = []
        self.checked: set[bytes] = set()

    def ask(self, els: tuple[Element, ...]) -> int:
        """Index of ``els``'s size in the plan's answers; a repeated key gets its first index."""
        for e in els if self.mode == "text" else ():
            if e.digest not in self.checked:
                self.checked.add(check_separator(e).digest)
        key = request_key(els, self.mode)
        slot = self.slots.setdefault(key, len(self.requests))
        if slot == len(self.requests):
            self.requests.append((key, els))
        return slot


class NcdCalculator:
    """Computes compressed sizes and multiset distances against one backend.

    Every size flows through the calculator's own thread-safe cache, which
    it builds for its backend and keys by the request key (framing plus
    element digests), so repeated sub-multisets are compressed exactly once
    and a cached size is answered without serializing. No other calculator
    shares it, so no size is answered for a backend that did not compute it.
    The calculator holds one pool of ``jobs`` workers for its lifetime (none
    when ``jobs <= 1``); ``jobs`` changes wall time only, never results.
    """

    def __init__(self, backend: CompressorBackend, *, mode: str = "text", jobs: int = 1) -> None:
        self.backend = backend
        self.mode = mode
        self.cache = SizeCache(backend.name)
        self._pool = worker_pool(jobs)

    # -- sizes ---------------------------------------------------------

    def g(self, ms: Multiset) -> int:
        """Compressed size of the serialized multiset."""
        if len(ms) == 0:
            raise DegenerateInputError("an empty multiset has no compressed size")
        return self._sizes([ms.elements])[0]

    def _size(self, request: tuple[bytes, tuple[Element, ...]]) -> int:
        key, els = request
        return cached_compress_len(
            self.backend, self.cache, key, lambda: serialize_multiset(els, self.mode)
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

    def _sizes(self, requests: Sequence[tuple[Element, ...]]) -> list[int]:
        """Sizes of ``requests`` in order, from one map over their distinct request keys.

        Deduped by key, not by elements: copies of one text under different
        ids are one request, so no two workers compress the same bytes.
        """
        plan = _Plan(self.mode)
        slots = [plan.ask(els) for els in requests]
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
        for els in (ms.elements for ms in multisets):
            n = len(els)
            if n < 2:
                raise DegenerateInputError(f"ncd1 needs >= 2 elements, got {n}")
            whole = plan.ask(els)
            if whole not in layouts:
                layouts[whole] = (
                    [plan.ask(els[:i] + els[i + 1 :]) for i in range(n)],
                    [plan.ask((e,)) for e in els],
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
        """``ncd_pairwise(x, y).value`` of each pair: the ncd1 of ``{x, y}``, from one map."""
        return [profile.ncd1() for profile in self.g_profiles([Multiset(pair) for pair in pairs])]

    def ncd_exact(self, ms: Multiset, max_card: int = DEFAULT_MAX_CARD) -> NcdValue:
        """Maximum of ncd1 over every sub-multiset with >= 2 members.

        Enumerates the full powerset, so the cardinality is capped by
        ``max_card`` <= ``MAX_EXACT_CARD``; all 2^n - n - 1 profiles are planned
        and compressed in one map. Cardinality 0 and 1 score 0 by definition.
        The witness is the first maximizing subset in (cardinality, index) order.
        """
        if max_card > MAX_EXACT_CARD:
            raise ValueError(f"max_card must be <= {MAX_EXACT_CARD}, got {max_card}")
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
        the maximum ncd1 seen along the chain. Each round is one
        ``g_profile`` map. After the first round, the whole-set size is a
        leave-one-out of the round before and every singleton was sized in
        the first round, so only the new leave-one-outs are compressed: a
        fresh cache sees at most n(n+1)/2 + 2n distinct compressions.
        """
        chain: list[ChainStep] = []
        best_value: float | None = None
        best_witness: Multiset | None = None
        current = ms
        while True:
            profile = self.g_profile(current)
            k = len(current)
            value = profile.ncd1()
            if best_value is None or value > best_value:
                best_value, best_witness = value, current
            if k == 2:
                chain.append(ChainStep(k, value, None))
                break
            loo = profile.g_leave_one_out
            removed = max(range(k), key=lambda i: (loo[i], -i))
            chain.append(ChainStep(k, value, current[removed].id))
            current = current.remove_at(removed)
        assert best_value is not None
        return HeuristicResult(NcdValue(best_value, "heuristic", best_witness), tuple(chain))

    def distance_matrix(self, elements: Sequence[Element]) -> DistanceMatrix:
        """Symmetric matrix of pairwise distances; diagonal is 0 by definition.

        Works on the distinct contents in canonical order, one row task per
        content x: the row asks for G(xy) of every later y, and for G(xx) when
        x occurs more than once, so each size is asked for once, by one task.
        The singles plan checks every element for the separator before any
        lookup. The row compresses ``prefix_frame(x)`` once, into
        ``backend.after``, and each pair on a miss compresses only the framed
        y from there. n distinct elements cost n + n(n-1)/2 size requests.
        The scores are one array expression over every id, equal bit for bit
        to the ncd1 of each pair's ``GProfile``.
        """
        els = list(elements)
        if len(els) < 2:
            raise DegenerateInputError("a distance matrix needs >= 2 elements")
        singles = self._sizes([(e,) for e in els])
        distinct = Multiset({e.digest: e for e in els}.values())
        counts = Counter(e.digest for e in els)
        framed = [serialize_multiset((y,), self.mode) for y in distinct]
        m = len(distinct)

        def row(r: int) -> list[int]:
            x = distinct[r]
            after_x = self.backend.after(prefix_frame(x, self.mode))
            return [
                cached_compress_len(
                    after_x, self.cache, request_key((x, distinct[c]), self.mode), lambda: framed[c]
                )
                for c in range(r if counts[x.digest] > 1 else r + 1, m)
            ]

        gxy = np.zeros((m, m))
        for r, sizes in enumerate(parallel_map(row, range(m), self._pool)):
            # Row r covers columns r + 1 .. m - 1, and r itself for a repeated x.
            gxy[r, m - len(sizes) :] = gxy[m - len(sizes) :, r] = sizes
        column = {x.digest: c for c, x in enumerate(distinct)}
        at = [column[e.digest] for e in els]
        # The pairwise ncd1 over every id at once: each size is an integer
        # below 2**53, so the float subtraction is exact and the division
        # rounds as Python's int / int does.
        g = np.array(singles, dtype=np.float64)
        matrix = gxy[np.ix_(at, at)]
        matrix -= np.minimum.outer(g, g)
        matrix /= np.maximum.outer(g, g)
        np.fill_diagonal(matrix, 0.0)
        return DistanceMatrix(tuple(e.id for e in els), matrix)
