import bz2 as _bz2
import itertools
import random
import tempfile
import threading
import zlib as _zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdm import (
    Bz2Backend,
    CardinalityLimitError,
    DegenerateInputError,
    Element,
    Multiset,
    NcdCalculator,
    ZlibBackend,
)
import ncdm.ncd
from ncdm import compressor
from ncdm.classify import loocv
from ncdm.compressor import serialize_multiset
from ncdm.ncd import DEFAULT_EPSILON

from .conftest import (
    ALPHABET_A,
    ALPHABET_B,
    PlusOne,
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


pooled_texts = st.lists(
    st.text(alphabet="abcdefg ", min_size=1, max_size=40), min_size=2, max_size=4, unique=True
)


@given(pooled_texts, st.data(), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_g_profiles_equal_one_profile_at_a_time(texts, data, jobs):
    # copies of one text under other ids, and repeated multisets in the list
    pool = [Element(t.encode(), f"{copy}{i}") for i, t in enumerate(texts) for copy in "ab"]
    subsets = st.lists(st.sampled_from(pool), min_size=2, max_size=5, unique_by=lambda e: e.id)
    multisets = [Multiset(m) for m in data.draw(st.lists(subsets, min_size=1, max_size=6))]
    multisets += data.draw(st.lists(st.sampled_from(multisets), max_size=3))
    batch = NcdCalculator(ZlibBackend(), jobs=jobs)
    single = NcdCalculator(ZlibBackend(), jobs=jobs)
    assert batch.g_profiles(multisets) == [single.g_profile(ms) for ms in multisets]
    assert batch.cache.job_count == single.cache.job_count


def test_g_profiles_ask_longest_first(monkeypatch):
    asked = []
    real = ncdm.ncd.parallel_map

    def recording(fn, items, pool):
        items = list(items)
        asked.append([len(serialize_multiset(ms)) for _key, ms in items])
        return real(fn, items, pool)

    monkeypatch.setattr(ncdm.ncd, "parallel_map", recording)
    ms = mixed_multiset(30, 5)
    NcdCalculator(ZlibBackend(), jobs=2).g_profiles([ms.remove_at(0), ms])
    # one map over the 11 requests of ms and the 4 three-element leave-one-outs
    # of ms minus its first element, whose other requests ms already made
    assert len(asked) == 1 and len(asked[0]) == 15
    assert asked[0] == sorted(asked[0], reverse=True)


def test_a_plan_checks_each_distinct_element_for_the_separator_once(monkeypatch):
    checked = []

    def counting(e):
        checked.append(e.id)
        return compressor.check_separator(e)

    monkeypatch.setattr(ncdm.ncd, "check_separator", counting)
    classes = {
        label: Multiset(fragment_elements(seed, make_vocab(seed, alphabet), 4, 40, label))
        for label, seed, alphabet in (("a", 1, ALPHABET_A), ("b", 2, ALPHABET_B))
    }
    calc = NcdCalculator(ZlibBackend(), jobs=2)
    # One plan of 8 folds, each asking for many requests over the same 8 elements.
    loocv(calc, classes)
    assert sorted(checked) == sorted(e.id for ms in classes.values() for e in ms)
    checked.clear()
    loocv(calc, classes)  # warm: every size is cached, every element checked
    assert len(checked) == 8 and calc.cache.hits == calc.cache.lookups / 2
    checked.clear()
    NcdCalculator(ZlibBackend(), mode="varint").g_profiles(list(classes.values()))
    assert checked == []


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


def test_exact_is_one_map_with_the_serial_answer(monkeypatch):
    maps = []
    real = ncdm.ncd.parallel_map

    def counting(fn, items, pool):
        maps.append(pool)
        return real(fn, items, pool)

    ms = mixed_multiset(7, 6)
    reference = NcdCalculator(ZlibBackend(), jobs=1)
    best, witness = None, None
    for k in range(2, len(ms) + 1):
        for combo in itertools.combinations(range(len(ms)), k):
            sub = Multiset([ms[i] for i in combo])
            value = reference.ncd1(sub).value
            if best is None or value > best:
                best, witness = value, sub
    monkeypatch.setattr(ncdm.ncd, "parallel_map", counting)
    calc = NcdCalculator(ZlibBackend(), jobs=2)
    got = calc.ncd_exact(ms)
    assert len(maps) == 1 and maps[0] is not None
    assert (got.value, got.witness) == (best, witness)
    assert calc.cache.job_count == reference.cache.job_count


def test_exact_cap_enforced(bz2_calc):
    ms = mixed_multiset(5, 5)
    with pytest.raises(CardinalityLimitError):
        bz2_calc.ncd_exact(ms, max_card=4)


def test_exact_cap_above_the_ceiling_is_refused_before_any_compression(bz2_calc, monkeypatch):
    calls = []
    monkeypatch.setattr(compressor, "compress_len", lambda *args: calls.append(args))
    for n in (3, ncdm.ncd.MAX_EXACT_CARD + 1):
        with pytest.raises(ValueError, match=f"max_card must be <= {ncdm.ncd.MAX_EXACT_CARD}"):
            bz2_calc.ncd_exact(mixed_multiset(6, n), max_card=ncdm.ncd.MAX_EXACT_CARD + 1)
    assert calls == []


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
    calc = NcdCalculator(Bz2Backend(), jobs=1)
    calc.ncd_heuristic(ms)
    assert calc.cache.job_count <= n * (n + 1) // 2 + 2 * n


@given(pooled_texts, st.data(), st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_heuristic_equals_a_greedy_loop_over_g(texts, data, jobs):
    # copies of one text under other ids give equal sizes, so ties are common
    pool = [Element(t.encode(), f"{copy}{i}") for i, t in enumerate(texts) for copy in "ab"]
    members = st.lists(st.sampled_from(pool), min_size=2, max_size=6, unique_by=lambda e: e.id)
    ms = Multiset(data.draw(members))
    calc = NcdCalculator(ZlibBackend(), jobs=jobs)
    result = calc.ncd_heuristic(ms)

    oracle = NcdCalculator(ZlibBackend(), jobs=1)
    chain, best, witness, current = [], None, None, ms
    while True:
        k = len(current)
        singles = [oracle.g(Multiset([e])) for e in current]
        loo = [oracle.g(current.remove_at(i)) for i in range(k)]
        value = (oracle.g(current) - min(singles)) / max(loo)
        if best is None or value > best:
            best, witness = value, current
        if k == 2:
            chain.append((k, value, None))
            break
        removed = max(range(k), key=lambda i: (loo[i], -i))
        chain.append((k, value, current[removed].id))
        current = current.remove_at(removed)

    assert [(step.cardinality, step.ncd1, step.removed_id) for step in result.chain] == chain
    assert result.ncd.value == best
    assert result.ncd.witness.ids() == witness.ids()
    assert calc.cache.job_count == oracle.cache.job_count


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
    calc = NcdCalculator(Bz2Backend(), jobs=1)
    calc.distance_matrix(elements)
    assert calc.cache.job_count == n + n * (n - 1) // 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_matrix_asks_for_each_size_once(jobs):
    n = 7
    elements = fragment_elements(35, make_vocab(35, ALPHABET_B), n)
    calc = NcdCalculator(ZlibBackend(), jobs=jobs)
    dm = calc.distance_matrix(elements)
    assert calc.cache.lookups == n + n * (n - 1) // 2
    pairwise = NcdCalculator(ZlibBackend(), jobs=1)
    for i, j in itertools.combinations(range(n), 2):
        value = pairwise.ncd_pairwise(elements[i], elements[j]).value
        assert dm.values[i, j] == dm.values[j, i] == value  # bit for bit


def test_matrix_compresses_each_pair_of_repeated_texts_once(monkeypatch):
    calls = []
    lock = threading.Lock()
    real = compressor.compress_len

    def counting(backend, data):
        with lock:
            calls.append(len(data))
        return real(backend, data)

    monkeypatch.setattr(compressor, "compress_len", counting)
    texts = fragment_elements(36, make_vocab(36, ALPHABET_A), 4, n_words=250)
    jobs = 0
    for k in range(20):
        # Each text twice, under different ids, in a different order each time.
        elements = [Element(e.data, f"{e.id}-{copy}") for copy in "ab" for e in texts]
        random.Random(k).shuffle(elements)
        calc = NcdCalculator(Bz2Backend(), jobs=2)
        calc.distance_matrix(elements)
        # 4 singletons, 6 pairs of distinct texts and 4 self-pairs.
        assert calc.cache.job_count == 4 + 6 + 4
        jobs += calc.cache.job_count
    assert len(calls) == jobs


@pytest.mark.parametrize("mode", ["text", "varint"])
def test_matrix_pair_sizes_come_from_a_subclass_override(mode):
    elements = fragment_elements(37, make_vocab(37, ALPHABET_B), 4)
    elements.append(Element(elements[0].data, "copy"))
    calc = NcdCalculator(PlusOne(), mode=mode, jobs=1)
    dm = calc.distance_matrix(elements)
    g = {e.id: len(_zlib.compress(serialize_multiset((e,), mode))) + 1 for e in elements}
    for (i, x), (j, y) in itertools.combinations(enumerate(elements), 2):
        pair = Multiset([x, y])
        gxy = len(_zlib.compress(serialize_multiset(pair, mode))) + 1
        assert calc.g(pair) == gxy  # the size the matrix cached
        expected = (gxy - min(g[x.id], g[y.id])) / max(g[x.id], g[y.id])
        assert dm.values[i, j] == dm.values[j, i] == expected


@given(
    st.lists(st.binary(min_size=0, max_size=64), min_size=2, max_size=7),
    st.lists(st.integers(0, 6), max_size=4),
    st.randoms(use_true_random=False),
    st.sampled_from(["text", "varint"]),
    st.sampled_from([1, 2]),
)
@settings(max_examples=40, deadline=None)
def test_matrix_permutation_invariant(payloads, repeats, rng, mode, jobs):
    if mode == "text":
        payloads = [p.replace(b"\n", b" ") for p in payloads]
    payloads += [payloads[r % len(payloads)] for r in repeats]  # repeated texts
    elements = [Element(p, f"e{i}") for i, p in enumerate(payloads)]
    order = list(range(len(elements)))
    rng.shuffle(order)
    backend = ZlibBackend()
    dm = NcdCalculator(backend, mode=mode, jobs=jobs).distance_matrix(elements)
    shuffled = NcdCalculator(backend, mode=mode, jobs=jobs).distance_matrix(
        [elements[i] for i in order]
    )
    assert shuffled.labels == tuple(dm.labels[i] for i in order)
    assert shuffled.values.tobytes() == dm.values[np.ix_(order, order)].tobytes()


@given(
    st.lists(st.binary(min_size=1, max_size=64), min_size=2, max_size=6),
    st.lists(st.integers(0, 5), max_size=3),
    st.sampled_from(["text", "varint"]),
    st.sampled_from([1, 2]),
)
@settings(max_examples=40, deadline=None)
def test_matrix_is_pairwise_bit_for_bit_and_shares_pair_keys(payloads, repeats, mode, jobs):
    if mode == "text":
        payloads = [p.replace(b"\n", b" ") for p in payloads]
    payloads += [payloads[r % len(payloads)] for r in repeats]  # repeated texts
    elements = [Element(p, f"e{i}") for i, p in enumerate(payloads)]
    calc = NcdCalculator(ZlibBackend(), mode=mode, jobs=jobs)
    dm = calc.distance_matrix(elements)
    g = NcdCalculator(ZlibBackend(), mode=mode, jobs=1).g
    pairs = list(itertools.combinations(range(len(elements)), 2))
    for i, j in pairs:
        x, y = elements[i], elements[j]
        gx, gy, gxy = g(Multiset([x])), g(Multiset([y])), g(Multiset([x, y]))
        expected = (gxy - min(gx, gy)) / max(gx, gy)
        assert dm.values[i, j].hex() == dm.values[j, i].hex() == expected.hex()
    assert not np.diagonal(dm.values).any()
    # A cache warmed by ncd_pairs over the same pairs answers every size the
    # matrix asks for, so its pair keys are request_key((x, y)).
    warm = NcdCalculator(ZlibBackend(), mode=mode, jobs=jobs)
    values = warm.ncd_pairs([(elements[i], elements[j]) for i, j in pairs])
    assert [v.hex() for v in values] == [dm.values[i, j].hex() for i, j in pairs]
    cache = warm.cache
    jobs_before, lookups_before, hits_before = cache.job_count, cache.lookups, cache.hits
    again = warm.distance_matrix(elements)
    assert cache.job_count == jobs_before
    assert cache.hits - hits_before == cache.lookups - lookups_before > 0
    assert again.values.tobytes() == dm.values.tobytes()


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


# -- permutation invariance ----------------------------------------------


@given(
    st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=40), min_size=2, max_size=6),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_ncd1_heuristic_and_exact_are_permutation_invariant(texts, rng):
    elements = [Element(t.encode(), f"e{i}") for i, t in enumerate(texts)]
    shuffled = elements[:]
    rng.shuffle(shuffled)
    answers = []
    for order in (elements, shuffled):
        calc = NcdCalculator(ZlibBackend(), jobs=1)
        ms = Multiset(order)
        answers.append(
            (calc.ncd1(ms).value, calc.ncd_heuristic(ms).ncd.value, calc.ncd_exact(ms).value)
        )
    assert answers[0] == answers[1]
    _ncd1, heuristic, exact = answers[0]
    assert heuristic <= exact


# -- cache sharing and determinism ---------------------------------------


def test_warm_cache_gives_identical_values():
    ms = mixed_multiset(40, 5)
    calc = NcdCalculator(Bz2Backend(), jobs=1)
    first = calc.ncd_heuristic(ms).ncd.value
    cold_jobs = calc.cache.job_count
    second = calc.ncd_heuristic(ms).ncd.value
    assert calc.cache.job_count == cold_jobs  # the second run compresses nothing
    fresh = NcdCalculator(Bz2Backend(), jobs=1).ncd_heuristic(ms).ncd.value
    assert first == second == fresh


def test_jobs_do_not_change_values():
    ms = mixed_multiset(41, 6)
    serial = NcdCalculator(Bz2Backend(), jobs=1)
    threaded = NcdCalculator(Bz2Backend(), jobs=4)
    assert serial.ncd_heuristic(ms).ncd.value == threaded.ncd_heuristic(ms).ncd.value
    assert serial.ncd_exact(ms).value == threaded.ncd_exact(ms).value


def _everything(calc: NcdCalculator, elements: list[Element]) -> tuple:
    ms = Multiset(elements)
    heuristic = calc.ncd_heuristic(ms)
    matrix = calc.distance_matrix(elements)
    return (
        calc.g_profile(ms),
        heuristic.chain,
        heuristic.ncd,
        matrix.labels,
        matrix.values.tolist(),
    )


@given(
    st.lists(st.binary(min_size=0, max_size=48), min_size=2, max_size=5),
    st.sampled_from(["text", "varint"]),
)
@settings(max_examples=40, deadline=None)
def test_warm_snapshot_equals_cold_run(payloads, mode):
    if mode == "text":
        payloads = [p.replace(b"\n", b" ") for p in payloads]
    elements = [Element(p, f"e{i}") for i, p in enumerate(payloads)]
    cold = NcdCalculator(ZlibBackend(), mode=mode, jobs=1)
    cold_answers = _everything(cold, elements)
    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "sizes.tsv"
        cold.cache.save(snapshot)
        warm = NcdCalculator(ZlibBackend(), mode=mode, jobs=1)
        warm.cache.load(snapshot)
    assert _everything(warm, elements) == cold_answers
    assert warm.cache.job_count == 0
