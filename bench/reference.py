"""Independent reference for the benchmark's correctness checks.

Compressed sizes come from the standard library's ``bz2`` and ``zlib``
directly, and a multiset is framed here on its own terms: elements sorted by
(length, bytes) and joined by a newline. Nothing in this module imports
``ncdm.compressor`` or ``ncdm.ncd``, so a fault in the program's framing,
caching or formulas shows up as a disagreement with these values.
"""

from __future__ import annotations

import bz2
import math
import zlib
from statistics import NormalDist
from typing import Mapping, Sequence

COMPRESSORS = {
    "bz2": lambda data: len(bz2.compress(data, 9)),
    "zlib": lambda data: len(zlib.compress(data, 6)),
}

# Scores and distances are ratios of the same integers in the same order, so
# they agree to the last bit; the slack only absorbs a different rounding path.
TOLERANCE = 1e-12


class Reference:
    """Multiset distances against one stock compressor at its default level."""

    def __init__(self, backend: str) -> None:
        self._size_of = COMPRESSORS[backend]
        self._sizes: dict[bytes, int] = {}

    def size(self, elements: Sequence[bytes]) -> int:
        data = b"\n".join(sorted(elements, key=lambda e: (len(e), e)))
        if data not in self._sizes:
            self._sizes[data] = self._size_of(data)
        return self._sizes[data]

    def ncd1(self, elements: Sequence[bytes]) -> float:
        whole = self.size(elements)
        singles = [self.size([e]) for e in elements]
        leave_one_out = [
            self.size(list(elements[:i]) + list(elements[i + 1 :])) for i in range(len(elements))
        ]
        return (whole - min(singles)) / max(leave_one_out)

    def delta(self, x: bytes, klass: Sequence[bytes]) -> float:
        return self.ncd1(list(klass) + [x]) - self.ncd1(klass)

    def pairwise(self, x: bytes, y: bytes) -> float:
        gx, gy = self.size([x]), self.size([y])
        return (self.size([x, y]) - min(gx, gy)) / max(gx, gy)

    def margin(self, a: Sequence[bytes], b: Sequence[bytes]) -> float:
        return self.ncd1(list(a) + list(b)) - self.ncd1(a) - self.ncd1(b)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=TOLERANCE)


def argmin_label(scores: Mapping[str, float]) -> str:
    """Lowest score; equal scores go to the lexicographically smallest label."""
    return min(scores.items(), key=lambda kv: (kv[1], kv[0]))[0]


def wilson_interval(p_hat: float, n: int, level: float = 0.95) -> tuple[float, float]:
    """Closed-form Wilson score interval, clamped to [0, 1]."""
    z = NormalDist().inv_cdf(0.5 + level / 2)
    centre = (p_hat + z * z / (2 * n)) / (1 + z * z / n)
    half = (z / (1 + z * z / n)) * math.sqrt(p_hat * (1 - p_hat) / n + z * z / (4 * n * n))
    return (max(0.0, centre - half), min(1.0, centre + half))
