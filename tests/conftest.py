"""Shared fixtures and seeded corpus builders.

Two-generator corpora come from disjoint word vocabularies, so elements of
one generator compress well together and poorly against the other; that is
the planted structure the classification and partitioning tests rely on.
"""

from __future__ import annotations

import random
import zlib

import pytest

import ncdm.compressor
import ncdm.ncd
from ncdm import Bz2Backend, Element, NcdCalculator, ZlibBackend

ALPHABET_A = "abcdefghijklm"
ALPHABET_B = "nopqrstuvwxyz"


def make_vocab(seed: int, alphabet: str, n_words: int = 60) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 8)))
        for _ in range(n_words)
    ]


def text_fragment(rng: random.Random, vocab: list[str], n_words: int = 120) -> bytes:
    return " ".join(rng.choice(vocab) for _ in range(n_words)).encode()


def fragment_elements(
    seed: int,
    vocab: list[str],
    count: int,
    n_words: int = 120,
    prefix: str = "e",
) -> list[Element]:
    rng = random.Random(seed)
    return [
        Element(text_fragment(rng, vocab, n_words), id=f"{prefix}{i:03d}")
        for i in range(count)
    ]


def random_element(seed: int, size: int, ident: str) -> Element:
    rng = random.Random(seed)
    return Element(bytes(rng.randrange(256) for _ in range(size)), id=ident)


def random_text_element(seed: int, size: int, ident: str) -> Element:
    # printable and newline-free, so text framing applies
    rng = random.Random(seed)
    return Element(bytes(rng.randrange(32, 127) for _ in range(size)), id=ident)


def phrase_class(
    seed: int,
    alphabet: str,
    count: int,
    pool: int = 100,
    phrases_per: int = 15,
    words_per_phrase: tuple[int, int] = (12, 18),
    prefix: str = "e",
) -> list[Element]:
    """A generator class with graded redundancy.

    Each element samples ``phrases_per`` phrases from a class phrasebook, so
    how well an element compresses against a group grows with the number of
    same-class members in it; two elements alone share only a couple of
    phrases. Disjoint alphabets keep cross-class sharing at zero.
    """
    rng = random.Random(seed)
    vocab = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 8)))
        for _ in range(40)
    ]
    book = [
        " ".join(rng.choice(vocab) for _ in range(rng.randrange(*words_per_phrase)))
        for _ in range(pool)
    ]
    return [
        Element(" ".join(rng.sample(book, phrases_per)).encode(), id=f"{prefix}{i:03d}")
        for i in range(count)
    ]


def near_copy_class(
    seed: int,
    alphabet: str,
    count: int,
    base_words: int = 250,
    mutations: int = 2,
    prefix: str = "e",
) -> list[Element]:
    """A generator class of near-copies: one base text, tiny per-element edits.

    Internal redundancy is so high that no subset of the class is better
    separated than whole classes are from each other.
    """
    rng = random.Random(seed)
    vocab = [
        "".join(rng.choice(alphabet) for _ in range(rng.randrange(3, 8)))
        for _ in range(30)
    ]
    base = [rng.choice(vocab) for _ in range(base_words)]
    out = []
    for i in range(count):
        words = base[:]
        for _ in range(mutations):
            words[rng.randrange(base_words)] = rng.choice(vocab)
        out.append(Element(" ".join(words).encode(), id=f"{prefix}{i:03d}"))
    return out


class PlusOne(ZlibBackend):
    """Reports every compressed size one byte too long."""

    def compress_len(self, data: bytes) -> int:
        return len(zlib.compress(data, self.level)) + 1


@pytest.fixture
def bz2_calc() -> NcdCalculator:
    return NcdCalculator(Bz2Backend(), jobs=1)


@pytest.fixture
def zlib_calc() -> NcdCalculator:
    return NcdCalculator(ZlibBackend(), jobs=1)


@pytest.fixture
def compressions(monkeypatch) -> list[int]:
    """The byte length of every ``compress_len`` call from here on, one entry per call."""
    sizes: list[int] = []
    real = ncdm.compressor.compress_len

    def counting(backend, data):
        sizes.append(len(data))  # list.append is atomic, so worker threads may call it
        return real(backend, data)

    monkeypatch.setattr(ncdm.compressor, "compress_len", counting)
    return sizes


@pytest.fixture
def maps(monkeypatch) -> list:
    """The pool of every ``parallel_map`` a calculator makes from here on (None: inline)."""
    pools: list = []
    real = ncdm.ncd.parallel_map

    def counting(fn, items, pool):
        pools.append(pool)
        return real(fn, items, pool)

    monkeypatch.setattr(ncdm.ncd, "parallel_map", counting)
    return pools
