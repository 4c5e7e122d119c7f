"""Elements and multisets kept in canonical length-increasing lexicographic order."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Element:
    """An immutable byte string plus a stable identifier.

    The identifier carries provenance only (filename, index) and must be
    unique within a corpus; distances depend on ``data`` alone. ``digest`` is
    the SHA-256 of ``data``, computed once here; size requests are keyed by
    it, so a cached size is found without hashing or serializing the data.
    """

    data: bytes
    id: str
    digest: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise TypeError(f"element data must be bytes, got {type(self.data).__name__}")
        object.__setattr__(self, "digest", hashlib.sha256(self.data).digest())


def _sort_key(e: Element) -> tuple[int, bytes]:
    return (len(e.data), e.data)


class Multiset:
    """An ordered bag of elements; duplicates allowed.

    The canonical order (shorter first, then lexicographic by content) is
    restored on every construction, so any permutation of the same bag
    serializes to identical bytes. Instances are immutable; mutating
    operations return new multisets.
    """

    __slots__ = ("_elements",)

    def __init__(self, elements: Iterable[Element] = ()) -> None:
        self._elements = tuple(sorted(elements, key=_sort_key))

    @property
    def elements(self) -> tuple[Element, ...]:
        return self._elements

    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements)

    def __getitem__(self, index: int) -> Element:
        return self._elements[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Multiset({len(self._elements)} elements)"

    def add(self, element: Element) -> "Multiset":
        """Return a new multiset with one more occurrence of ``element``."""
        return Multiset(self._elements + (element,))

    def remove_at(self, index: int) -> "Multiset":
        """Return a new multiset without the occurrence at a canonical position."""
        els = self._elements
        if not 0 <= index < len(els):
            raise IndexError(index)
        return Multiset(els[:index] + els[index + 1 :])

    def union(self, other: "Multiset") -> "Multiset":
        """Bag union: multiplicities add."""
        return Multiset(self._elements + other._elements)
