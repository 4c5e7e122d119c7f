import hashlib
import random

import pytest

from ncdm import Element, Multiset


def E(data: bytes, ident: str | None = None) -> Element:
    return Element(data, ident if ident is not None else data.decode())


def test_element_requires_bytes():
    with pytest.raises(TypeError):
        Element("not bytes", "x")  # type: ignore[arg-type]


def test_element_digest_is_sha256_of_data_and_not_compared():
    a, b = E(b"payload", "a"), E(b"payload", "b")
    assert a.digest == b.digest == hashlib.sha256(b"payload").digest()
    assert E(b"payload", "a") == a and hash(E(b"payload", "a")) == hash(a)
    assert "digest" not in repr(a)


def test_canonical_order_shorter_first():
    ms = Multiset([E(b"aa"), E(b"b")])
    assert [e.data for e in ms] == [b"b", b"aa"]


def test_canonical_order_lexicographic_within_length():
    ms = Multiset([E(b"b"), E(b"a")])
    assert [e.data for e in ms] == [b"a", b"b"]


def test_duplicates_preserved():
    ms = Multiset([E(b"a", "a1"), E(b"a", "a2")])
    assert len(ms) == 2
    assert [e.data for e in ms] == [b"a", b"a"]


def test_permutation_invariance_of_order():
    rng = random.Random(5)
    elements = [E(bytes([rng.randrange(97, 123)]) * rng.randrange(1, 6), f"e{i}") for i in range(12)]
    base = Multiset(elements)
    for _ in range(20):
        shuffled = elements[:]
        rng.shuffle(shuffled)
        assert Multiset(shuffled).elements == base.elements


def test_add_and_remove_round_trip():
    ms = Multiset([E(b"aa"), E(b"b")])
    grown = ms.add(E(b"c"))
    assert len(grown) == 3
    assert len(ms) == 2  # original untouched
    back = grown.remove_at(grown.elements.index(grown[1]))
    assert len(back) == 2


def test_remove_at_drops_one_occurrence():
    ms = Multiset([E(b"a", "a1"), E(b"a", "a2"), E(b"b", "b1")])
    smaller = ms.remove_at(0)
    assert len(smaller) == 2
    assert sum(1 for e in smaller if e.data == b"a") == 1


def test_union_adds_multiplicities():
    a = Multiset([E(b"x", "x1")])
    b = Multiset([E(b"x", "x2"), E(b"y", "y1")])
    u = a.union(b)
    assert len(u) == 3
    assert sum(1 for e in u if e.data == b"x") == 2


def test_equality_and_hash():
    a = Multiset([E(b"a"), E(b"b")])
    b = Multiset([E(b"b"), E(b"a")])
    assert a == b
    assert hash(a) == hash(b)
    assert a != Multiset([E(b"a")])
