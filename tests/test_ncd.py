import bz2 as _bz2
import itertools
import random
import zlib as _zlib

import pytest

from ncdm import (
    Bz2Backend,
    CardinalityLimitError,
    DegenerateInputError,
    Element,
    Multiset,
    NcdCalculator,
    SizeCache,
    ZlibBackend,
)
from ncdm.ncd import DEFAULT_EPSILON

from .conftest import (
    ALPHABET_A,
    ALPHABET_B,
    fragment_elements,
    make_vocab,
    random_element,
    random_text_element,
)

# ----------------------------------------------------------------------
# Independent oracle: a deliberately naive powerset enumerator that does
# its own sorting, framing, and direct codec calls. It shares no code with
# the library beyond the Element container.
# ----------------------------------------------------------------------


def oracle_g(parts: list[bytes], codec: str) -> int:
    blob = b"\n".join(sorted(parts, key=lambda b: (len(b), b)))
    if codec == "bz2":
        return len(_bz2.compress(blob, 9))
    return len(_zlib.compress(blob, 6))


def oracle_ncd1(parts: list[bytes], codec: str) -> float:
    whole = oracle_g(parts, codec)
    smallest = min(oracle_g([p], codec) for p in parts)
    biggest_rest = max(
        oracle_g(parts[:i] + parts[i + 1 :], codec) for i in range(len(parts))
    )
    return (whole - smallest) / biggest_rest


def oracle_exact(parts: list[bytes], codec: str) -> float:
    best = None
    for k in range(2, len(parts) + 1):
        for combo in itertools.combinations(range(len(parts)), k):
            value = oracle_ncd1([parts[i] for i in combo], codec)
            if best is None or value > best:
                best = value
    return best


def mixed_multiset(seed: int, size: int) -> Multiset:
    rng = random.Random(seed)
    vocab_a = make_vocab(100, ALPHABET_A)
    vocab_b = make_vocab(200, ALPHABET_B)
    elements = []
    for i in range(size):
        vocab = vocab_a if rng.random() < 0.5 else vocab_b
        words = rng.randrange(20, 60)
        elements.append(
            Element(
                " ".join(rng.choice(vocab) for _ in range(words)).encode(),
                id=f"m{seed}-{i}",
            )
        )
    return Multiset(elements)


# -- g / profile -------------------------------------------------------


def test_g_matches_direct_compression(bz2_calc):
    e = random_text_element(1, 1024, "x")
    ms = Multiset([e])
    assert bz2_calc.g(ms) == len(_bz2.compress(e.data, 9))


def test_g_empty_multiset_rejected(bz2_calc):
    with pytest.raises(DegenerateInputError):
        bz2_calc.g(Multiset())


def test_g_duplicate_pair_near_singleton(zlib_calc):
    e = random_text_element(2, 4096, "x")
    single = zlib_calc.g(Multiset([e]))
    double = zlib_calc.g(Multiset([e, Element(e.data, "x2")]))
    assert abs(double - single) <= 64 + 13  # normality tolerance at this size


def test_g_order_invariant(bz2_calc):
    x = random_text_element(3, 512, "x")
    y = random_text_element(4, 700, "y")
    assert bz2_calc.g(Multiset([x, y])) == bz2_calc.g(Multiset([y, x]))


def test_g_profile_shape(bz2_calc):
    ms = mixed_multiset(7, 4)
    prof = bz2_calc.g_profile(ms)
    assert len(prof.g_singletons) == len(prof.g_leave_one_out) == 4
    assert prof.g_whole > 0
    assert all(s > 0 for s in prof.g_singletons)


# -- e_g_max -----------------------------------------------------------


def test_e_g_max_duplicate_pair_small(zlib_calc):
    e = random_text_element(5, 4096, "x")
    value = zlib_calc.g_profile(Multiset([e, Element(e.data, "x2")])).e_g_max
    assert -77 <= value <= 77  # within tolerance of zero


def test_e_g_max_unrelated_pair():
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)  # binary elements
    x = random_element(6, 4096, "x")
    y = random_element(7, 4096, "y")
    gx = calc.g(Multiset([x]))
    gy = calc.g(Multiset([y]))
    value = calc.g_profile(Multiset([x, y])).e_g_max
    # nothing shared: the pair costs about the larger member on top of the smaller
    assert abs(value - max(gx, gy)) <= 77


def test_e_g_max_never_very_negative(bz2_calc):
    for seed in range(5):
        ms = mixed_multiset(seed, 4)
        size = len(b"".join(e.data for e in ms))
        assert bz2_calc.g_profile(ms).e_g_max >= -(64 + size.bit_length())


def test_e_g_max_requires_two(bz2_calc):
    with pytest.raises(DegenerateInputError):
        bz2_calc.g_profile(Multiset([random_text_element(1, 64, "x")])).e_g_max


# -- ncd1 --------------------------------------------------------------


def test_ncd1_two_elements_reduces_to_pairwise(bz2_calc):
    x = random_text_element(8, 900, "x")
    y = random_text_element(9, 1100, "y")
    pair = bz2_calc.ncd_pairwise(x, y)
    ncd1 = bz2_calc.ncd1(Multiset([x, y]))
    assert ncd1.value == pair.value


def test_ncd1_identical_elements_small():
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)
    e = random_element(10, 4096, "x")
    copies = Multiset([Element(e.data, f"c{i}") for i in range(4)])
    assert calc.ncd1(copies).value <= DEFAULT_EPSILON


def test_ncd1_formula_tag(bz2_calc):
    assert bz2_calc.ncd1(mixed_multiset(1, 3)).formula == "ncd1"


def test_ncd1_requires_two(bz2_calc):
    with pytest.raises(DegenerateInputError):
        bz2_calc.ncd1(Multiset([random_text_element(1, 64, "x")]))


# -- ncd_exact against the oracle ---------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_equals_powerset_oracle(seed, bz2_calc):
    ms = mixed_multiset(seed, 6)
    expected = oracle_exact([e.data for e in ms], "bz2")
    got = bz2_calc.ncd_exact(ms)
    assert got.value == pytest.approx(expected, abs=0)
    assert got.formula == "exact"
    assert got.witness is not None and len(got.witness) >= 2


def test_exact_two_elements_is_ncd1(bz2_calc):
    ms = mixed_multiset(3, 2)
    assert bz2_calc.ncd_exact(ms).value == bz2_calc.ncd1(ms).value


def test_exact_subset_monotone(bz2_calc):
    ms = mixed_multiset(4, 5)
    whole = bz2_calc.ncd_exact(ms).value
    for i in range(len(ms)):
        assert bz2_calc.ncd_exact(ms.remove_at(i)).value <= whole


def test_exact_cardinality_zero_one_is_zero(bz2_calc):
    assert bz2_calc.ncd_exact(Multiset()).value == 0.0
    assert bz2_calc.ncd_exact(Multiset([random_text_element(1, 64, "x")])).value == 0.0


def test_exact_cap_enforced(bz2_calc):
    ms = mixed_multiset(5, 5)
    with pytest.raises(CardinalityLimitError):
        bz2_calc.ncd_exact(ms, max_card=4)


# -- heuristic ----------------------------------------------------------


def test_heuristic_two_elements_single_link(bz2_calc):
    ms = mixed_multiset(6, 2)
    result = bz2_calc.ncd_heuristic(ms)
    assert len(result.chain) == 1
    assert result.chain[0].removed_id is None
    assert result.ncd.value == bz2_calc.ncd1(ms).value


@pytest.mark.parametrize("seed", [10, 11, 12, 13])
def test_heuristic_lower_bounds_exact(seed, bz2_calc):
    ms = mixed_multiset(seed, 6)
    exact = bz2_calc.ncd_exact(ms).value
    heuristic = bz2_calc.ncd_heuristic(ms).ncd.value
    assert heuristic <= exact + 1e-9
    assert heuristic >= bz2_calc.ncd1(ms).value  # max over chain includes the whole set


def test_heuristic_chain_structure(bz2_calc):
    ms = mixed_multiset(14, 5)
    result = bz2_calc.ncd_heuristic(ms)
    cards = [step.cardinality for step in result.chain]
    assert cards == [5, 4, 3, 2]
    assert all(step.removed_id is not None for step in result.chain[:-1])
    assert result.ncd.value == max(step.ncd1 for step in result.chain)
    removed = [s.removed_id for s in result.chain[:-1]]
    assert len(set(removed)) == len(removed)  # each occurrence removed once


def test_heuristic_job_budget(bz2_calc):
    n = 8
    ms = mixed_multiset(15, n)
    cache = SizeCache()
    calc = NcdCalculator(Bz2Backend(), cache=cache, jobs=1)
    calc.ncd_heuristic(ms)
    assert cache.job_count <= n * (n + 1) // 2 + 2 * n


def test_heuristic_report_dict(bz2_calc):
    result = bz2_calc.ncd_heuristic(mixed_multiset(16, 3))
    d = result.to_dict()
    assert set(d) == {"value", "formula", "witness", "chain"}
    assert d["formula"] == "heuristic"
    assert len(d["chain"]) == 2


# -- pairwise -----------------------------------------------------------


def test_pairwise_identity_small():
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)
    x = random_element(20, 4096, "x")
    assert calc.ncd_pairwise(x, Element(x.data, "x2")).value <= DEFAULT_EPSILON


def test_pairwise_symmetric(bz2_calc):
    x = random_text_element(21, 1000, "x")
    y = random_text_element(22, 1200, "y")
    assert bz2_calc.ncd_pairwise(x, y).value == bz2_calc.ncd_pairwise(y, x).value


def test_pairwise_unrelated_near_one():
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)
    x = random_element(23, 4096, "x")
    y = random_element(24, 4096, "y")
    value = calc.ncd_pairwise(x, y).value
    assert 0.9 <= value <= 1.0 + DEFAULT_EPSILON


def test_pairwise_range_mixed_corpus(bz2_calc):
    rng = random.Random(25)
    vocab = make_vocab(300, ALPHABET_A)
    for _ in range(10):
        x = Element(" ".join(rng.choice(vocab) for _ in range(80)).encode(), "x")
        y = Element(" ".join(rng.choice(vocab) for _ in range(80)).encode(), "y")
        value = bz2_calc.ncd_pairwise(x, y).value
        assert 0.0 <= value <= 1.0 + DEFAULT_EPSILON


# -- distance matrix ----------------------------------------------------


def test_matrix_identical_pair():
    calc = NcdCalculator(ZlibBackend(), mode="varint", jobs=1)
    e = random_element(30, 2048, "a")
    dm = calc.distance_matrix([e, Element(e.data, "b")])
    assert dm.labels == ("a", "b")
    for row in dm.values:
        for v in row:
            assert v <= DEFAULT_EPSILON


def test_matrix_symmetric_zero_diagonal(bz2_calc):
    elements = fragment_elements(31, make_vocab(31, ALPHABET_A), 5)
    dm = bz2_calc.distance_matrix(elements)
    n = len(elements)
    for i in range(n):
        assert dm.values[i, i] == 0.0
        for j in range(n):
            assert dm.values[i, j] == dm.values[j, i]


def test_matrix_job_count(bz2_calc):
    n = 6
    elements = fragment_elements(32, make_vocab(32, ALPHABET_B), n)
    cache = SizeCache()
    calc = NcdCalculator(Bz2Backend(), cache=cache, jobs=1)
    calc.distance_matrix(elements)
    assert cache.job_count == n + n * (n - 1) // 2


def test_matrix_parallel_serial_identical_csv():
    elements = fragment_elements(33, make_vocab(33, ALPHABET_A), 6)
    serial = NcdCalculator(Bz2Backend(), jobs=1).distance_matrix(elements)
    parallel = NcdCalculator(Bz2Backend(), jobs=4).distance_matrix(elements)
    assert serial.to_csv() == parallel.to_csv()


def test_matrix_csv_layout(bz2_calc):
    elements = fragment_elements(34, make_vocab(34, ALPHABET_A), 3)
    csv_text = bz2_calc.distance_matrix(elements).to_csv()
    lines = csv_text.strip().split("\n")
    assert len(lines) == 4  # header + 3 rows
    assert lines[0] == ",".join(e.id for e in elements)


# -- cache sharing and determinism ---------------------------------------


def test_warm_cache_gives_identical_values():
    ms = mixed_multiset(40, 5)
    cache = SizeCache()
    calc1 = NcdCalculator(Bz2Backend(), cache=cache, jobs=1)
    first = calc1.ncd_heuristic(ms).ncd.value
    calc2 = NcdCalculator(Bz2Backend(), cache=cache, jobs=1)
    second = calc2.ncd_heuristic(ms).ncd.value
    fresh = NcdCalculator(Bz2Backend(), jobs=1).ncd_heuristic(ms).ncd.value
    assert first == second == fresh


def test_jobs_do_not_change_values():
    ms = mixed_multiset(41, 6)
    serial = NcdCalculator(Bz2Backend(), jobs=1)
    threaded = NcdCalculator(Bz2Backend(), jobs=4)
    assert serial.ncd_heuristic(ms).ncd.value == threaded.ncd_heuristic(ms).ncd.value
    assert serial.ncd_exact(ms).value == threaded.ncd_exact(ms).value
